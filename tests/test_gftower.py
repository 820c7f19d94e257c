"""Field tower arithmetic: moduli selection, axioms, frobenius, expansion."""

import json
import random
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from matgraph import _primes, gftower
from matgraph._budget import DEFAULT_BUDGET, BudgetExceededError
from matgraph._primes import is_prime_power
from matgraph.gftower import (
    _binomials_reducible,
    _poly_mulmod,
    ExtField,
    FieldTower,
    build_tower,
    find_irreducible,
    from_digits,
    is_irreducible,
    is_prime,
    PrimeField,
    to_digits,
)

# exhaustive towers with q^N <= 512 used across the axiom tests
SMALL_TOWERS = [(2, 1, 1), (2, 1, 3), (2, 2, 2), (3, 1, 2), (2, 3, 2), (5, 1, 2), (3, 1, 4)]


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    below = range(20000)
    assert [n for n in below if is_prime(n)] == [n for n in below if _is_prime_by_trial_division(n)]


@pytest.mark.parametrize(
    "n, fooled",
    [(561, 0), (41041, 0), (3215031751, 4), (3825123056546413051, 11), (318665857834031151167461, 12)],
    ids=["carmichael-561", "carmichael-41041", "spsp-4-bases", "spsp-11-bases", "spsp-12-bases"],
)
def test_is_prime_rejects_pseudoprimes(n, fooled):
    # strong pseudoprimes to the first `fooled` bases are caught by a later one
    s = ((n - 1) & (1 - n)).bit_length() - 1
    passes = [_primes._strong_probable_prime(n, a, (n - 1) >> s, s) for a in _primes.BASES[:fooled + 1]]
    assert passes == [True] * fooled + [False]
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 100000000000031, 10**9 + 7])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


def test_is_prime_refuses_past_the_miller_rabin_bound(monkeypatch):
    # The bound is the least composite that passes all 13 bases, so at or
    # above it a number that passes is refused at once: proving it prime
    # would take about isqrt(n) // 2 trial divisions.  A composite that
    # fails a base is still answered exactly.
    bound = _primes.MILLER_RABIN_BOUND
    s = ((bound - 1) & (1 - bound)).bit_length() - 1
    assert all(_primes._strong_probable_prime(bound, a, (bound - 1) >> s, s) for a in _primes.BASES)
    assert bound == 1287836182261 * 2575672364521
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        is_prime(bound)
    assert time.perf_counter() - start < 1
    assert (info.value.needed, info.value.budget) == (isqrt(bound) // 2, DEFAULT_BUDGET)
    with pytest.raises(BudgetExceededError):
        is_prime_power(10**25 + 13)
    assert not is_prime((2**61 - 1) ** 2) and not is_prime((2**89 - 1) * (2**61 - 1))
    monkeypatch.setattr(_primes, "MILLER_RABIN_BOUND", 0)
    for prime in (43, 10**9 + 7, 2**61 - 1):
        with pytest.raises(BudgetExceededError):
            is_prime(prime)
    assert not is_prime(45) and not is_prime(41 * 43)
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)


def test_is_prime_power_agrees_with_factoring():
    def by_factoring(q):
        p = next((f for f in range(2, q + 1) if q % f == 0), None)
        while p and q % p == 0:
            q //= p
        return p is not None and q == 1

    assert [q for q in range(3000) if is_prime_power(q)] == [q for q in range(3000) if by_factoring(q)]
    assert is_prime_power((2**61 - 1) ** 2) and is_prime_power(3**40) and is_prime_power(2**200)
    assert not is_prime_power((10**9 + 7) * (10**9 + 9)) and not is_prime_power(6**40)


def test_modulus_f8_is_x3_x_1():
    tower = build_tower(2, 1, 3)
    assert tower.modulus_qN == (1, 1, 0, 1)


def test_modulus_degree_one_trivial():
    tower = build_tower(2, 1, 1)
    assert len(tower.modulus_qN) == 2
    assert tower.ext.order == 2


def test_modulus_f9_has_no_roots():
    # independent irreducibility oracle: evaluate at every element of F_3
    tower = build_tower(3, 1, 2)
    c0, c1, c2 = tower.modulus_qN
    assert c2 == 1
    for a in range(3):
        assert (c0 + c1 * a + a * a) % 3 != 0


def test_moduli_deterministic():
    a = build_tower(2, 2, 3)
    b = build_tower(2, 2, 3)
    assert a.modulus_q == b.modulus_q
    assert a.modulus_qN == b.modulus_qN


def test_alpha_cubed_is_alpha_plus_one():
    tower = build_tower(2, 1, 3)
    f = tower.ext
    alpha = 2
    assert f.mul(f.mul(alpha, alpha), alpha) == 3  # 1 + alpha


def test_build_tower_rejects_bad_input():
    with pytest.raises(ValueError):
        build_tower(4, 1, 2)
    with pytest.raises(ValueError):
        build_tower(2, 0, 2)
    with pytest.raises(ValueError):
        build_tower(2, 1, 0)


@pytest.mark.parametrize("p,m,N", SMALL_TOWERS)
def test_inverse_and_unit_group_order(p, m, N):
    tower = build_tower(p, m, N)
    f = tower.ext
    for a in range(1, f.order):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.order - 1) == 1


@pytest.mark.parametrize("p,m,N", SMALL_TOWERS)
def test_add_mul_commute_exhaustive(p, m, N):
    f = build_tower(p, m, N).ext
    for a in range(f.order):
        for b in range(f.order):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))


@pytest.mark.parametrize("p,m,N", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_associativity_distributivity_exhaustive(p, m, N):
    f = build_tower(p, m, N).ext
    elems = range(f.order)
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_inv_of_zero_raises():
    f = build_tower(2, 1, 3).ext
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_level_mismatch_rejected():
    tower = build_tower(2, 1, 3)
    with pytest.raises(ValueError):
        tower.base.add(4, 1)  # 4 is not an element of F_2
    with pytest.raises(ValueError):
        tower.ext.mul(8, 1)  # 8 is outside F_8


def _generic_mul(f, a, b):
    """The product through the subfield's own operations, as the oracle for
    the integer product over a prime subfield."""
    return f.undigits(_poly_mulmod(f.digits(a), f.digits(b), f.modulus, f.subfield))


@pytest.mark.parametrize(
    "field",
    [
        build_tower(3, 2, 1).base,  # F_9
        build_tower(5, 2, 1).base,  # F_25
        build_tower(3, 3, 1).base,  # F_27
        build_tower(7, 2, 1).base,  # F_49
        ExtField(PrimeField(3), (1, 2, 1)),  # F_3[x]/((x + 1)^2), a ring as in Ben-Or
        ExtField(PrimeField(5), (0, 0, 1)),  # F_5[x]/(x^2)
    ],
    ids=["F9", "F25", "F27", "F49", "F3[x]/((x+1)^2)", "F5[x]/(x^2)"],
)
def test_integer_product_matches_the_generic_product_exhaustive(field):
    for a in range(field.order):
        for b in range(field.order):
            assert field.mul(a, b) == _generic_mul(field, a, b)


@pytest.mark.parametrize("pmN", [(5, 1, 4), (7, 1, 3), (1000000007, 1, 3)])
def test_integer_product_matches_the_generic_product_sampled(pmN):
    f = build_tower(*pmN).ext
    rng = random.Random(f"{pmN} mul")
    for _ in range(2000):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert f.mul(a, b) == _generic_mul(f, a, b)
    for a, b in ((f.order, 1), (1, f.order), (-1, 1), (1, -1)):
        with pytest.raises(ValueError):
            f.mul(a, b)


def test_pow_matches_repeated_multiplication():
    f = build_tower(3, 1, 2).ext
    for a in range(f.order):
        acc = 1
        for e in range(12):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def _pow_from_one(f, a, e):
    """The earlier ExtField.pow, right to left from a starting 1, as the
    oracle: (a^e, products spent)."""
    result, products = 1, 0
    while e:
        if e & 1:
            result, products = f.mul(result, a), products + 1
        e >>= 1
        if e:
            a, products = f.mul(a, a), products + 1
    return result, products


@pytest.mark.parametrize(
    "subfield, modulus",
    [
        (PrimeField(2), (1, 1, 1)),  # F_4
        (PrimeField(3), (1, 0, 1)),  # F_9
        (ExtField(PrimeField(2), (1, 1, 1)), (1, 0, 1)),  # F_4[x]/((x + 1)^2), a ring as in Ben-Or
    ],
    ids=["F4", "F9", "F4[x]/(x^2+1)"],
)
def test_pow_spends_one_product_less_than_from_one(subfield, modulus, monkeypatch):
    f = ExtField(subfield, modulus)
    products = 0

    def counted_mul(a, b):
        nonlocal products
        products += 1
        return ExtField.mul(f, a, b)

    monkeypatch.setattr(f, "mul", counted_mul)
    for a in range(f.order):
        for e in range(64):
            want, old_products = _pow_from_one(f, a, e)
            products = 0
            assert f.pow(a, e) == want
            assert products == old_products - (e > 0)
    with pytest.raises(ValueError):
        f.pow(f.order, 0)


def test_frobenius_identity_power():
    tower = build_tower(2, 1, 3)
    for x in range(8):
        assert tower.frobenius(x, 0) == x
        assert tower.frobenius(x, tower.N) == x  # composing N times is the identity


@pytest.mark.parametrize("p,m,N", [(2, 1, 3), (2, 2, 2), (3, 1, 2), (2, 1, 8)])
def test_frobenius_additive_exhaustive(p, m, N):
    tower = build_tower(p, m, N)
    f = tower.ext
    assert f.order <= 256
    for j in (1, 2):
        for x in range(f.order):
            for y in range(f.order):
                assert tower.frobenius(f.add(x, y), j) == f.add(
                    tower.frobenius(x, j), tower.frobenius(y, j)
                )


def test_frobenius_fixes_base_field_scalars():
    tower = build_tower(2, 2, 3)
    # F_q embeds as the constant coordinate, i.e. encodings below q
    for c in range(tower.q):
        assert tower.frobenius(c, 1) == c
    f = tower.ext
    for c in range(tower.q):
        for x in range(f.order):
            assert tower.frobenius(f.mul(c, x), 1) == f.mul(c, tower.frobenius(x, 1))


def test_frobenius_is_bijection():
    tower = build_tower(3, 1, 3)
    images = {tower.frobenius(x, 1) for x in range(tower.order)}
    assert len(images) == tower.order


def test_expand_contract_roundtrip():
    for p, m, N in SMALL_TOWERS:
        tower = build_tower(p, m, N)
        for x in range(tower.order):
            coeffs = tower.expand(x)
            assert len(coeffs) == N
            assert tower.contract(coeffs) == x


@pytest.mark.parametrize("p,m,N", SMALL_TOWERS + [(3, 2, 2)])
def test_expand_is_linear_and_basis_aligned(p, m, N):
    # odd p with m > 1 is where the packed digit rule of ExtField.add/sub
    # differs most from adding F_q coordinates with the base field
    tower = build_tower(p, m, N)
    assert tower.expand(0) == (0,) * N
    for i, b in enumerate(tower.basis):
        unit = tuple(1 if j == i else 0 for j in range(tower.N))
        assert tower.expand(b) == unit
    f, base = tower.ext, tower.base
    for x in range(f.order):
        for y in range(f.order):
            ex, ey = tower.expand(x), tower.expand(y)
            assert tower.expand(f.add(x, y)) == tuple(map(base.add, ex, ey))
            assert tower.expand(f.sub(x, y)) == tuple(map(base.sub, ex, ey))
        assert tower.expand(f.neg(x)) == tuple(map(base.neg, tower.expand(x)))


def test_contract_rejects_wrong_length():
    tower = build_tower(2, 1, 3)
    with pytest.raises(ValueError):
        tower.contract((1, 0))


def test_find_irreducible_has_no_factors():
    f = PrimeField(3)
    poly = find_irreducible(f, 3)
    assert is_irreducible(list(poly), f)
    # degree-1 check against an explicit root scan
    for a in range(3):
        val = sum(c * a ** i for i, c in enumerate(poly)) % 3
        assert val != 0


def _trial_division_irreducible(poly, field):
    """Reference test: no monic divisor of degree 1..deg/2 leaves remainder 0."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for dd in range(1, deg // 2 + 1):
        for t in range(field.order ** dd):
            divisor = to_digits(t, field.order, dd) + [1]
            rem = list(poly)
            for top in range(deg, dd - 1, -1):
                c = rem[top]
                for i, d in enumerate(divisor):
                    rem[top - dd + i] = field.sub(rem[top - dd + i], field.mul(c, d))
            if not any(rem):
                return False
    return True


F4 = ExtField(PrimeField(2), (1, 1, 1))
F9 = ExtField(PrimeField(3), (1, 0, 1))  # Ben-Or's ring then multiplies generically over odd q
# (field, largest degree): every monic polynomial up to that degree
IRREDUCIBILITY_CASES = [(PrimeField(2), 4), (PrimeField(3), 4), (F4, 4), (PrimeField(5), 3), (F9, 3)]


@pytest.mark.parametrize("field, max_degree", IRREDUCIBILITY_CASES)
def test_is_irreducible_matches_trial_division(field, max_degree):
    for deg in range(max_degree + 1):
        for t in range(field.order ** deg):
            poly = to_digits(t, field.order, deg) + [1]
            assert is_irreducible(poly, field) == _trial_division_irreducible(poly, field), poly


@pytest.mark.parametrize("field, max_degree", IRREDUCIBILITY_CASES + [(PrimeField(2), 6)])
def test_find_irreducible_is_smallest_by_trial_division(field, max_degree):
    for deg in range(1, max_degree + 1):
        first = next(
            t
            for t in range(field.order ** deg)
            if _trial_division_irreducible(to_digits(t, field.order, deg) + [1], field)
        )
        assert find_irreducible(field, deg) == tuple(to_digits(first, field.order, deg) + [1])


# Every field with fewer than 50 elements, prime and extension.
SMALL_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
                for m in range(1, 6) if p ** m < 50]


@pytest.mark.parametrize("p, m", SMALL_FIELDS)
def test_binomial_skip_agrees_with_ben_or(p, m):
    field = build_tower(p, m, 1).base
    r = field.order
    for degree in range(1, 5):
        binomials = ([c] + [0] * (degree - 1) + [1] for c in range(r))
        some_irreducible = any(is_irreducible(poly, field) for poly in binomials)
        assert _binomials_reducible(r, degree) == (not some_irreducible), (r, degree)


def _assert_pinned_moduli():
    # Pinned from the scan that runs Ben-Or's test on every candidate,
    # binomials included; the skip is exact, so no choice may move.
    pinned = json.loads((Path(__file__).parent / "data" / "tower_moduli.json").read_text())
    assert len(pinned) == 6 * 3 * 6
    for key, (modulus_q, modulus_qN) in pinned.items():
        tower = build_tower(*map(int, key.split(",")))
        assert (list(tower.modulus_q), list(tower.modulus_qN)) == (modulus_q, modulus_qN), key


def test_moduli_unchanged_by_the_binomial_skip():
    _assert_pinned_moduli()


def test_moduli_unchanged_with_a_cold_cache():
    build_tower.cache_clear()
    _assert_pinned_moduli()


def test_build_tower_returns_one_shared_tower():
    assert build_tower(2, 2, 3) is build_tower(2, 2, 3)
    assert build_tower(3, 1, 2) is not build_tower(3, 1, 3)


def test_build_tower_scans_once_per_process(monkeypatch):
    calls = []
    is_irreducible = gftower.is_irreducible
    monkeypatch.setattr(gftower, "is_irreducible", lambda *args: calls.append(1) or is_irreducible(*args))
    build_tower.cache_clear()
    first = build_tower(3, 2, 2)
    assert calls
    calls.clear()
    assert build_tower(3, 2, 2) is first and FieldTower.from_json(first.to_json()) is first
    assert calls == []


def test_build_tower_normalizes_numpy_integers():
    build_tower.cache_clear()
    tower = build_tower(np.int64(3), np.int32(1), np.uint8(3))
    assert tower is build_tower(3, 1, 3)
    assert all(type(x) is int for x in (tower.p, tower.m, tower.N, tower.q))
    assert json.loads(json.dumps(tower.to_json())) == tower.to_json()
    with pytest.raises(TypeError):
        build_tower(3.0, 1, 3)


@pytest.mark.parametrize("pmN", [(4, 1, 2), (1, 1, 1), (3, 0, 2), (3, 1, 0)])
def test_build_tower_raises_on_every_call(pmN):
    for _ in range(3):
        with pytest.raises(ValueError):
            build_tower(*pmN)


def test_from_json_returns_the_shared_tower():
    tower = build_tower(2, 2, 2)
    assert FieldTower.from_json(tower.to_json()) is tower
    assert FieldTower.from_json({"p": 2, "m": 2, "N": 2}) is tower


@pytest.mark.parametrize(
    "data, message",
    [
        ("x", "'tower' must be a JSON object, got 'x'"),
        (1.5, "'tower' must be a JSON object, got 1.5"),
        ([], r"'tower' must be a JSON object, got \[\]"),
        (None, "'tower' must be a JSON object, got None"),
        ({"a": 1}, "'tower' has no 'p' key"),
        ({"p": 2, "m": 1}, "'tower' has no 'N' key"),
        ({"p": "2", "m": 1, "N": 2}, "'tower' key 'p' must be an integer, got '2'"),
        ({"p": 2, "m": True, "N": 2}, "'tower' key 'm' must be an integer, got True"),
        ({"p": 2, "m": 1, "N": 2.0}, "'tower' key 'N' must be an integer, got 2.0"),
        ({"p": 2, "m": 1, "N": None}, "'tower' key 'N' must be an integer, got None"),
    ],
)
def test_from_json_names_the_bad_key(data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FieldTower.from_json(data)


def test_extfield_rejects_non_monic_modulus():
    with pytest.raises(ValueError):
        ExtField(PrimeField(3), (1, 2))
    with pytest.raises(ValueError):
        ExtField(PrimeField(2), (1,))


def test_tower_json_roundtrip():
    tower = build_tower(2, 2, 2)
    data = tower.to_json()
    again = FieldTower.from_json(data)
    assert again == tower
    assert again.modulus_qN == tower.modulus_qN


def test_tower_json_rejects_foreign_modulus():
    tower = build_tower(2, 1, 3)
    data = tower.to_json()
    data["modulus_qN"] = [[1], [0], [1], [1]]  # x^3 + x^2 + 1, not the canonical pick
    with pytest.raises(ValueError):
        FieldTower.from_json(data)


def test_tower_json_rejects_foreign_base_modulus():
    data = build_tower(2, 2, 2).to_json()
    data["modulus_q"] = [1, 0, 1]  # x^2 + 1 = (x + 1)^2, not the canonical x^2 + x + 1
    with pytest.raises(ValueError, match="stored modulus_q does not match the deterministic choice"):
        FieldTower.from_json(data)


@pytest.mark.parametrize("key", ["m", "N"])
def test_tower_json_checks_the_moduli_shape_before_the_scan(key):
    data = build_tower(2, 1, 3).to_json()
    data[key] = 10**30  # a scan for moduli of this degree would never end
    wrong = "modulus_q" if key == "m" else "modulus_qN"
    with pytest.raises(ValueError, match=f"^stored {wrong} does not match the deterministic choice$"):
        FieldTower.from_json(data)


@pytest.mark.parametrize(
    "key, value",
    [
        ("modulus_q", [1, 1, 1]),  # m + 1 = 2 digits for F_2
        ("modulus_qN", [[1], [1], [1]]),  # N + 1 = 4 lists for degree 3
        ("modulus_qN", [[1], [1], [0], [1, 0]]),  # each list holds m = 1 digits
        ("modulus_qN", [1, 1, 0, 1]),
    ],
)
def test_tower_json_rejects_a_modulus_of_the_wrong_shape(key, value):
    data = build_tower(2, 1, 3).to_json()
    data[key] = value
    with pytest.raises(ValueError, match=f"^stored {key} does not match the deterministic choice$"):
        FieldTower.from_json(data)


def test_fq_from_coeffs_rejects_wrong_length():
    tower = build_tower(2, 2, 2)
    with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
        tower.fq_from_coeffs([1])
    with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
        tower.fq_from_coeffs([1, 0, 0])


def test_element_serialization():
    tower = build_tower(2, 2, 2)
    for x in range(tower.order):
        assert tower.ext_from_coeffs(tower.ext_coeffs(x)) == x


def test_digit_codec_is_least_significant_first():
    assert to_digits(6, 2, 4) == [0, 1, 1, 0]
    assert to_digits(5 + 2 * 257, 257, 3) == [5, 2, 0]
    assert from_digits([0, 1, 1, 0], 2) == 6
    assert to_digits(0, 3, 0) == [] and from_digits([], 3) == 0


@pytest.mark.parametrize("radix, width", [(2, 1), (2, 10), (3, 5), (4, 3), (10, 4), (257, 3), (65537, 2)])
def test_digit_codec_round_trip(radix, width):
    top = radix ** width - 1
    for x in sorted({0, 1, radix - 1, min(radix, top), top // 3, top - 1, top}):
        digits = to_digits(x, radix, width)
        assert len(digits) == width and all(0 <= d < radix for d in digits)
        assert from_digits(digits, radix) == x
    first = range(min(top + 1, 300))
    assert [from_digits(to_digits(x, radix, width), radix) for x in first] == list(first)


def test_digit_codec_rejects_out_of_range():
    for x in (-1, 9, 10**6):
        with pytest.raises(ValueError):
            to_digits(x, 3, 2)
    assert to_digits(8, 3, 2) == [2, 2]
    for digits in ([3, 0], [0, -1]):
        with pytest.raises(ValueError):
            from_digits(digits, 3)
    with pytest.raises(ValueError):
        build_tower(2, 2, 2).fq_coeffs(4)
    with pytest.raises(ValueError):
        build_tower(3, 1, 2).ext.digits(9)


GFTOWER = Path(__file__).resolve().parents[1] / "src" / "matgraph" / "gftower.py"


def test_gftower_runs_without_numpy():
    # the scalar arithmetic stays importable and usable without numpy
    script = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("gftower_alone", {str(GFTOWER)!r})
gftower = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gftower)
for p, m, N in [(3, 2, 2), (2, 1, 8)]:
    f = gftower.build_tower(p, m, N).ext
    a, b = f.order - 2, 5
    assert f.mul(f.inv(a), a) == 1
    assert f.sub(f.add(a, b), b) == a and f.add(a, f.neg(a)) == 0
assert "numpy" not in sys.modules, "gftower imported numpy"
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
