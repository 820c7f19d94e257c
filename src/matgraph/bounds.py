"""Closed-form bounds on the two chromatic numbers, in exact integers.

For the graph on N x n matrices over F_q (n <= N):

* at-most-d colorings: the minimum color count is exactly q^(Nd) for
  1 <= d <= n.  The matching lower bound is the sphere-packing count
  q^(Nn) / A, where A = q^(N(n-d)) is the largest code of minimum rank
  distance d + 1 (the Singleton value, attained by the
  maximum-rank-distance construction).  For d > n ``chi_prime`` returns 1,
  the convention of the published table this module cross-checks; note the
  coloring module instead separates every vertex in that range, since all
  pairs lie within the diameter n <= d.

* exactly-d colorings: chi_d <= q^(Nd) trivially (column ``bound8``), and
  the forbidden-distance counting argument gives

      chi_d <= q^ceil(log_q(2 + C(n-1, d-1) (q^N - 1)^(d-1)))

  (column ``bound12``).  All ceiling logs are computed by big-integer
  threshold scans; (N, n, d, q) = (6, 4, 2, 3) sits at the knife edge
  2186 <= 3^7 = 2187, where floating point could misround.

``table1`` recomputes the built-in comparison table and flags any entry
that disagrees with the published values it is checked against, rather
than silently reproducing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb


def ceil_log(base: int, value: int) -> int:
    """Smallest e >= 0 with base**e >= value, by threshold scan."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if value < 1:
        raise ValueError("value must be positive")
    e = 0
    p = 1
    while p < value:
        p *= base
        e += 1
    return e


def chi_prime(N: int, n: int, q: int, d: int) -> int:
    """Exact at-most-d chromatic number: q^(Nd) for d <= n, else 1."""
    if min(N, n, q, d) < 1 or n > N:
        raise ValueError("need 1 <= n <= N, q >= 2 and d >= 1")
    if d <= n:
        return q ** (N * d)
    return 1


def chi_lower_singleton(N: int, n: int, q: int, d: int) -> int:
    """Sphere lower bound q^(Nn) / A with the Singleton code size A.

    A = q^(N(n-d)) is attained, so the bound equals q^(Nd) and is tight.
    """
    if not 1 <= d <= n <= N:
        raise ValueError("need 1 <= d <= n <= N")
    a = q ** (N * (n - d))
    return -(-(q ** (N * n)) // a)


def chi_exact_upper_exponent(N: int, n: int, q: int, d: int) -> int:
    """The exponent ceil(log_q(2 + C(n-1, d-1) (q^N - 1)^(d-1)))."""
    if not 1 <= d <= n <= N:
        raise ValueError("need 1 <= d <= n <= N")
    value = 2 + comb(n - 1, d - 1) * (q ** N - 1) ** (d - 1)
    return ceil_log(q, value)


def chi_exact_upper(N: int, n: int, q: int, d: int) -> int:
    """Counting upper bound on the exactly-d chromatic number."""
    return q ** chi_exact_upper_exponent(N, n, q, d)


@dataclass(frozen=True)
class KnownChi:
    value: int
    exact: bool
    provenance: str


# (N, n) pairs with q = 2 and d = n whose exactly-d chromatic number 2^N is
# certified by an explicit equidistant code of size 2^N.
_EQUIDISTANT_PAIRS = {(2, 2), (3, 2), (3, 3)}


def known_chi_exact(N: int, n: int, q: int, d: int) -> KnownChi | None:
    """Known exact value or lower bound for the exactly-d chromatic number."""
    if d == 1:
        return KnownChi(
            q ** N,
            exact=True,
            provenance="distance 1: single-column clique of size q^N meets the q^N-color construction",
        )
    if q == 2 and d == n and (n == 1 or (N, n) in _EQUIDISTANT_PAIRS):
        return KnownChi(
            2 ** N,
            exact=True,
            provenance="equidistant code of size 2^N at distance n certifies the value",
        )
    if n >= 3 and N == comb(n, 2) and d == n - 1:
        return KnownChi(
            q ** n - 1,
            exact=False,
            provenance="equidistant constant-rank code parameters give a clique of size q^n - 1",
        )
    return None


def lower_bounds(N: int, n: int, q: int, d: int) -> list[int]:
    out = []
    if d == 1:
        out.append(q ** N)
    if n >= 3 and N == comb(n, 2) and d == n - 1:
        out.append(q ** n - 1)
    return out


@dataclass(frozen=True)
class BoundsRow:
    N: int
    n: int
    d: int
    q: int
    chi_prime_exact: int
    chi_lower_eq1: int
    chi_exact_upper_thm: int  # bound12
    chi_exact_upper_nat: int  # bound8
    known_exact: KnownChi | None = None
    lower_bounds: list[int] = field(default_factory=list)
    note: str = ""


def bounds_row(N: int, n: int, q: int, d: int) -> BoundsRow:
    if not 1 <= d <= n <= N:
        raise ValueError("need 1 <= d <= n <= N")
    notes = []
    if d == n:
        notes.append("d = n; the at-most-d count is the full q^(Nd)")
    return BoundsRow(
        N=N,
        n=n,
        d=d,
        q=q,
        chi_prime_exact=chi_prime(N, n, q, d),
        chi_lower_eq1=chi_lower_singleton(N, n, q, d),
        chi_exact_upper_thm=chi_exact_upper(N, n, q, d),
        chi_exact_upper_nat=chi_prime(N, n, q, d),
        known_exact=known_chi_exact(N, n, q, d),
        lower_bounds=lower_bounds(N, n, q, d),
        note="; ".join(notes),
    )


# Built-in comparison table: (N, n, d, q) with the published values of the
# two upper bounds, stored as (base, exponent) pairs for bound12 and bound8.
TABLE1_PARAMS = (
    (6, 4, 2, 2),
    (6, 4, 3, 2),
    (6, 4, 2, 3),
    (6, 4, 3, 3),
    (5, 3, 2, 2),
    (5, 3, 3, 3),
    (10, 7, 4, 2),
    (10, 7, 4, 3),
)

_PUBLISHED = {
    (6, 4, 2, 2): ((2, 8), (2, 12)),
    (6, 4, 3, 2): ((2, 14), (2, 18)),
    (6, 4, 2, 3): ((3, 7), (3, 12)),
    (6, 4, 3, 3): ((3, 13), (3, 18)),
    (5, 3, 2, 2): ((2, 6), (2, 10)),
    (5, 3, 3, 3): ((3, 10), (3, 15)),
    (10, 7, 4, 2): ((2, 35), (2, 40)),
    (10, 7, 4, 3): ((2, 33), (2, 40)),
}

TABLE1_HEADER = "N,n,d,q,bound12,bound8,known_exact,lower_bounds,note"


def rows_csv(rows: list[BoundsRow]) -> str:
    """CSV text: the TABLE1_HEADER line, then one line per row."""
    lines = [TABLE1_HEADER]
    for row in rows:
        known = str(row.known_exact.value) if row.known_exact and row.known_exact.exact else ""
        lows = ";".join(str(v) for v in row.lower_bounds)
        lines.append(
            f"{row.N},{row.n},{row.d},{row.q},{row.chi_exact_upper_thm},"
            f"{row.chi_exact_upper_nat},{known},{lows},{row.note}"
        )
    return "\n".join(lines) + "\n"


def table1() -> str:
    """CSV of the comparison table, recomputed; discrepancies are noted.

    Columns bound12 and bound8 hold the counting bound and the trivial
    q^(Nd) bound as exact decimal integers.
    """
    rows = []
    for N, n, d, q in TABLE1_PARAMS:
        row = bounds_row(N, n, q, d)
        notes = [row.note] if row.note else []
        pub12, pub8 = _PUBLISHED[(N, n, d, q)]
        mismatched = []
        if pub12[0] ** pub12[1] != row.chi_exact_upper_thm:
            mismatched.append(
                f"bound12 published {pub12[0]}^{pub12[1]} but recomputed "
                f"{q}^{chi_exact_upper_exponent(N, n, q, d)}"
            )
        if pub8[0] ** pub8[1] != row.chi_exact_upper_nat:
            mismatched.append(
                f"bound8 published {pub8[0]}^{pub8[1]} but recomputed {q}^{N * d}"
            )
        notes.extend(mismatched)
        rows.append(replace(row, note="; ".join(notes)))
    return rows_csv(rows)
