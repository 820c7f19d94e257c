"""Exact arithmetic in the two-level finite field tower F_p <= F_q <= F_{q^N}.

Here q = p^m for a prime p.  An element of an extension of degree e over a
subfield with r elements is encoded as the integer sum(c_i * r**i), where
(c_0, ..., c_{e-1}) are its coordinates in the polynomial basis, low degree
first.  Encodings nest: an element of F_{q^N} is an integer below q**N whose
base-q digits are its F_q coordinates, and each F_q coordinate is an integer
below p**m whose base-p digits are F_p coordinates.  So addition at every
level is one base-p digit rule, XOR when p = 2 and digit-wise mod p
otherwise: ``_add_digits`` here, one digit at a time, and its numpy form
``linalg.add_digits``, which reads the sums of chunks of digits from a
lookup table.

``ExtField(K, f)`` is the ring K[x]/(f) for any monic f; it is a field,
with a valid ``inv``, only when f is irreducible.  Its product has three
forms: over F_2, shifts and xors of the bitmask encoding; over an odd F_p
(every m = 1 tower, F_q itself, Ben-Or's rings), a schoolbook product of
the base-p digits as Python ints, reduced by f with one ``% p`` per
coefficient; over an extension subfield (m > 1), ``_poly_mulmod`` through
the subfield's own operations.  Moduli are chosen
deterministically: the monic irreducible of the required degree with the
smallest encoding (constant coefficient least significant), found by
Ben-Or's test, which runs in ``ExtField(F_r, f)`` for each candidate f.
For F_8 this selects x^3 + x + 1, so the residue class a of x satisfies
a^3 = a + 1 and is primitive.

``build_tower`` runs the two modulus scans once for each (p, m, N) in a
process and returns that one shared tower to every later caller, including
``FieldTower.from_json`` (two threads that miss at once may each build an
equal tower; one is kept).  All objects are immutable after construction
and safe to share between threads.  Primality is
``matgraph._primes.is_prime``, deterministic Miller-Rabin, re-exported here
by name.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable

# Absolute, so that this file also loads on its own, outside the package.
from matgraph._primes import is_prime


def to_digits(x: int, radix: int, width: int) -> list[int]:
    """The ``width`` base-``radix`` digits of ``x``, least significant first.

    Every integer encoding in the library (field elements, vertex, vector
    and color indices) is such a digit string; this and ``from_digits`` are
    the one scalar codec, and ``linalg`` holds their array forms.
    """
    if x < 0:
        raise ValueError(f"{x} is negative")
    out = []
    rest = x
    for _ in range(width):
        rest, d = divmod(rest, radix)
        out.append(d)
    if rest:
        raise ValueError(f"{x} does not fit in {width} base-{radix} digits")
    return out


def from_digits(digits: Iterable[int], radix: int) -> int:
    """The integer whose base-``radix`` digits, least significant first, are
    ``digits``; inverse of ``to_digits``."""
    x = 0
    for d in reversed(list(digits)):
        if not 0 <= d < radix:
            raise ValueError(f"digit {d} out of range for radix {radix}")
        x = x * radix + d
    return x


def _add_digits(a: int, b: int, p: int, sign: int = 1) -> int:
    """a + sign*b for F_p-coordinate vectors packed as base-p integers: XOR
    when p = 2, digit by digit mod p otherwise.  The scalar form of
    ``linalg.add_digits``, kept here so that this module needs no numpy."""
    if p == 2:
        return a ^ b
    out, scale = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        out += (x + sign * y) % p * scale
        scale *= p
    return out


class PrimeField:
    """The prime field F_p with elements encoded as integers 0..p-1."""

    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.order = p
        self.char = p

    def _check(self, a: int) -> int:
        if not 0 <= a < self.p:
            raise ValueError(f"{a} is not an element of F_{self.p}")
        return a

    def add(self, a: int, b: int) -> int:
        return (self._check(a) + self._check(b)) % self.p

    def sub(self, a: int, b: int) -> int:
        return (self._check(a) - self._check(b)) % self.p

    def neg(self, a: int) -> int:
        return (-self._check(a)) % self.p

    def mul(self, a: int, b: int) -> int:
        return (self._check(a) * self._check(b)) % self.p

    def inv(self, a: int) -> int:
        if self._check(a) == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class ExtField:
    """The ring K[x]/(modulus) over a field K, elements encoded as integers;
    an extension field, where ``inv`` is valid, iff the modulus is irreducible.

    ``modulus`` is a monic polynomial over the subfield, given as a tuple of
    subfield encodings, low degree first, including the leading 1.
    """

    def __init__(self, subfield, modulus: Iterable[int]) -> None:
        modulus = tuple(modulus)
        if len(modulus) < 2:
            raise ValueError("modulus must have degree at least 1")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.subfield = subfield
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.order = subfield.order ** self.degree
        self.char = subfield.char
        # Over F_2 the encoding is a plain bitmask, so products reduce with
        # shifts and xors instead of digit-level arithmetic.
        self._prime = isinstance(subfield, PrimeField)
        self._bits = self._prime and subfield.p == 2
        if self._bits:
            self._modint = from_digits(modulus, 2)
            self._top = 1 << self.degree

    def _check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of the field of order {self.order}")
        return a

    def digits(self, a: int) -> list[int]:
        """Subfield coordinates of ``a``, low degree first."""
        return to_digits(a, self.subfield.order, self.degree)

    def undigits(self, coeffs: Iterable[int]) -> int:
        return from_digits(coeffs, self.subfield.order)

    def add(self, a: int, b: int) -> int:
        return _add_digits(self._check(a), self._check(b), self.char)

    def sub(self, a: int, b: int) -> int:
        return _add_digits(self._check(a), self._check(b), self.char, -1)

    def neg(self, a: int) -> int:
        return _add_digits(0, self._check(a), self.char, -1)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self._bits:
            res = 0
            while b:
                if b & 1:
                    res ^= a
                b >>= 1
                a <<= 1
                if a & self._top:
                    a ^= self._modint
            return res
        if self._prime:
            # Base-p digits multiplied as Python ints, then reduced by the
            # monic modulus from the top down, one % p per coefficient.
            p, e, f = self.char, self.degree, self.modulus
            x, y = to_digits(a, p, e), to_digits(b, p, e)
            prod = [0] * (2 * e - 1)
            for i, xi in enumerate(x):
                if xi:
                    for j, yj in enumerate(y):
                        prod[i + j] += xi * yj
            for top in range(2 * e - 2, e - 1, -1):
                c = prod[top] % p
                if c:
                    for t in range(e):
                        prod[top - e + t] -= c * f[t]
            return from_digits([c % p for c in prod[:e]], p)
        return self.undigits(_poly_mulmod(self.digits(a), self.digits(b), self.modulus, self.subfield))

    def inv(self, a: int) -> int:
        if self._check(a) == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply exponentiation, from the leading bit of e down,
        so that no product is spent on a factor 1; pow(a, 0) = 1."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        self._check(a)
        if e == 0:
            return 1
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def __repr__(self) -> str:
        return f"ExtField(order={self.order}, modulus={self.modulus})"


# ---------------------------------------------------------------------------
# polynomials over a field view, low degree first (ExtField.mul, Ben-Or)
# ---------------------------------------------------------------------------

def _poly_mod(dividend: list[int], divisor: list[int], field) -> list[int]:
    """Remainder of dividend by a monic divisor, coefficients low degree first."""
    rem = list(dividend)
    dd = len(divisor) - 1
    for idx in range(len(rem) - 1, dd - 1, -1):
        c = rem[idx]
        if c:
            rem[idx] = 0
            base = idx - dd
            for t in range(dd):
                if divisor[t]:
                    rem[base + t] = field.sub(rem[base + t], field.mul(c, divisor[t]))
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _monic(poly: list[int], field) -> list[int]:
    """``poly`` divided by its leading coefficient."""
    if poly[-1] == 1:
        return poly
    lead = field.inv(poly[-1])
    return [field.mul(lead, c) for c in poly]


def _poly_mulmod(a: list[int], b: list[int], modulus: list[int], field) -> list[int]:
    """a * b reduced by a monic modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = field.add(prod[i + j], field.mul(ai, bj))
    return _poly_mod(prod, modulus, field)


def _poly_gcd(a: list[int], b: list[int], field) -> list[int]:
    """Monic greatest common divisor of a monic a and any b."""
    while b := _poly_mod(b, a, field):
        a, b = _monic(b, field), a
    return a


def is_irreducible(poly: list[int], field) -> bool:
    """Ben-Or's test: a polynomial f of degree d over F_r is irreducible
    exactly when gcd(f, x^(r^i) - x) = 1 for every i <= d/2, since
    x^(r^i) - x is the product of the monic irreducibles whose degree
    divides i.  ``poly`` is low degree first with a nonzero leading
    coefficient; the work is polynomial in d and log r.
    """
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg > 1 and poly[0] == 0:
        return False  # x divides it
    f = _monic(poly, field)
    ring = ExtField(field, f)  # a ring, not a field, when f is reducible
    x = power = field.order  # the encoding of x, as deg >= 2 in the loop
    for _ in range(deg // 2):
        power = ring.pow(power, field.order)  # x^(r^i) mod f
        if len(_poly_gcd(f, ring.digits(ring.sub(power, x)), field)) > 1:
            return False
    return True


def _binomials_reducible(r: int, degree: int) -> bool:
    """Whether every binomial x^degree + c over F_r is reducible.

    For degree >= 2, x^degree is, and x^degree - a with a != 0 is
    irreducible iff each prime l dividing the degree divides ord(a) but not
    (r - 1)/ord(a), and r = 1 (mod 4) when 4 divides the degree (Lidl and
    Niederreiter, *Finite Fields*, Thm 3.75).  ord(a) divides r - 1, so no
    binomial is irreducible when some l does not divide r - 1, or when 4
    divides the degree and r = 3 (mod 4); otherwise x^degree - a is, for a
    primitive a."""
    rest, ell = degree, 2
    while rest > 1:
        if rest % ell == 0:
            if (r - 1) % ell:
                return True
            rest //= ell
        else:
            ell += 1
    return degree % 4 == 0 and r % 4 != 1


def find_irreducible(field, degree: int) -> tuple[int, ...]:
    """Smallest monic irreducible of the given degree, by integer encoding.

    The first ``field.order`` candidates are the binomials x^degree + c,
    skipped at once when ``_binomials_reducible`` rules them all out."""
    if degree < 1:
        raise ValueError("degree must be positive")
    start = field.order if _binomials_reducible(field.order, degree) else 0
    for t in range(start, field.order ** degree):
        poly = to_digits(t, field.order, degree) + [1]
        if is_irreducible(poly, field):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

def _is_list_of(value: object, length: int) -> bool:
    return isinstance(value, list) and len(value) == length


class FieldTower:
    """The tower F_p <= F_q = F_{p^m} <= F_{q^N} with deterministic moduli.

    Attributes:
        p, m, N: tower parameters.
        q: order of the middle field, p**m.
        modulus_q: monic irreducible of degree m over F_p (tuple of ints).
        modulus_qN: monic irreducible of degree N over F_q (tuple of F_q
            encodings).
        base: field view for F_q (arithmetic on integers below q).
        ext: field view for F_{q^N} (arithmetic on integers below q**N).
        basis: the polynomial F_q-basis 1, b, ..., b^(N-1) of F_{q^N}, as
            encodings (so basis[i] == q**i).
    """

    def __init__(self, p: int, m: int, N: int) -> None:
        prime = PrimeField(p)
        if m < 1 or N < 1:
            raise ValueError("extension degrees must be positive")
        self.p = p
        self.m = m
        self.N = N
        self.modulus_q = find_irreducible(prime, m)
        self.base = prime if m == 1 else ExtField(prime, self.modulus_q)
        self.q = p ** m
        self.modulus_qN = find_irreducible(self.base, N)
        self.ext = ExtField(self.base, self.modulus_qN)
        self.basis = tuple(self.q ** i for i in range(N))

    @property
    def order(self) -> int:
        """Order of the top field, q**N."""
        return self.ext.order

    def expand(self, x: int) -> tuple[int, ...]:
        """F_q coordinates of x in the polynomial basis, low degree first."""
        return tuple(self.ext.digits(x))

    def contract(self, coeffs: Iterable[int]) -> int:
        """Inverse of expand; requires exactly N coordinates below q."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.N:
            raise ValueError(f"expected {self.N} coordinates, got {len(coeffs)}")
        return self.ext.undigits(coeffs)

    def frobenius(self, x: int, j: int) -> int:
        """x raised to the q**j power; an F_q-linear automorphism of F_{q^N}."""
        if j < 0:
            raise ValueError("frobenius power must be nonnegative")
        return self.ext.pow(x, self.q ** (j % self.N))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "N": self.N,
            "modulus_q": list(self.modulus_q),
            "modulus_qN": [self.fq_coeffs(c) for c in self.modulus_qN],
        }

    @staticmethod
    def from_json(data: dict) -> "FieldTower":
        """The shared ``build_tower`` tower, after checking that ``data`` is
        an object with integer ``p``, ``m`` and ``N``, and that any stored
        moduli are the ones it chose."""
        if not isinstance(data, dict):
            raise ValueError(f"'tower' must be a JSON object, got {data!r}")
        for key in ("p", "m", "N"):
            if key not in data:
                raise ValueError(f"'tower' has no {key!r} key")
            if type(data[key]) is not int:
                raise ValueError(f"'tower' key {key!r} must be an integer, got {data[key]!r}")
        # A stored modulus of the wrong shape cannot be the chosen one, and
        # testing its shape first refuses a huge m or N before the scan.
        m, N, qN = data["m"], data["N"], data.get("modulus_qN")
        shaped = {
            "modulus_q": _is_list_of(data.get("modulus_q"), m + 1),
            "modulus_qN": _is_list_of(qN, N + 1) and all(_is_list_of(c, m) for c in qN),
        }
        for key, ok in shaped.items():
            if key in data and not ok:
                raise ValueError(f"stored {key} does not match the deterministic choice")
        tower = build_tower(data["p"], data["m"], data["N"])
        chosen = tower.to_json()
        for key in ("modulus_q", "modulus_qN"):
            if key in data and data[key] != chosen[key]:
                raise ValueError(f"stored {key} does not match the deterministic choice")
        return tower

    def fq_coeffs(self, a: int) -> list[int]:
        """F_p coordinates of an F_q element, low degree first."""
        return to_digits(a, self.p, self.m)

    def fq_from_coeffs(self, coeffs: Iterable[int]) -> int:
        coeffs = list(coeffs)
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coeffs)}")
        return from_digits(coeffs, self.p)

    def ext_coeffs(self, x: int) -> list[list[int]]:
        """Nested F_p coordinates of an F_{q^N} element."""
        return [self.fq_coeffs(c) for c in self.expand(x)]

    def ext_from_coeffs(self, coeffs: Iterable[Iterable[int]]) -> int:
        return self.contract(self.fq_from_coeffs(c) for c in coeffs)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldTower):
            return NotImplemented
        return (self.p, self.m, self.N) == (other.p, other.m, other.N)

    def __hash__(self) -> int:
        return hash((FieldTower, self.p, self.m, self.N))

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, m={self.m}, N={self.N})"


@functools.lru_cache(maxsize=128)
def _shared_tower(p: int, m: int, N: int) -> FieldTower:
    return FieldTower(p, m, N)


def build_tower(p: int, m: int, N: int) -> FieldTower:
    """The tower F_p <= F_{p^m} <= F_{(p^m)^N} with deterministic moduli,
    built once per (p, m, N) and shared.  The arguments are made plain ints
    first, so a numpy integer finds the same tower; bad arguments raise on
    every call, as errors are not cached."""
    return _shared_tower(operator.index(p), operator.index(m), operator.index(N))


build_tower.cache_clear = _shared_tower.cache_clear
