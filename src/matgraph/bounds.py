"""Closed-form bounds on the two chromatic numbers, in exact integers.

For the graph on N x n matrices over F_q (n <= N):

* at-most-d colorings: the minimum color count is exactly q^(Nd) for
  1 <= d <= n.  The matching lower bound is the sphere-packing count
  q^(Nn) / A, where A = q^(N(n-d)) is the largest code of minimum rank
  distance d + 1 (the Singleton value, attained by the
  maximum-rank-distance construction).

* exactly-d colorings: chi_d <= q^(Nd) trivially (column ``bound8``), and
  the forbidden-distance counting argument gives

      chi_d <= q^ceil(log_q(2 + C(n-1, d-1) (q^N - 1)^(d-1)))

  (column ``bound12``).  All ceiling logs are computed by big-integer
  threshold scans; (N, n, d, q) = (6, 4, 2, 3) sits at the knife edge
  2186 <= 3^7 = 2187, where floating point could misround.

* the Gabidulin [d, 1] code padded with n - d zero columns is a clique of
  q^N matrices at pairwise rank d, so chi_d >= q^N for every 1 <= d <= n
  (column ``lower_bounds``).  The bound is exact at d = 1 and at d = n,
  where colorings with q^N colors exist (column ``known_exact``).

``table1`` recomputes the built-in comparison table and flags any entry
that disagrees with the published values it is checked against, rather
than silently reproducing them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from ._primes import is_prime_power


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
    """Exact at-most-d chromatic number q^(N min(d, n)): past the diameter n
    every two vertices are within distance d, so each needs its own color.
    A q that is not a prime power names no field and is a ValueError."""
    if min(N, n, d) < 1 or q < 2 or n > N:
        raise ValueError("need 1 <= n <= N, q >= 2 and d >= 1")
    if not is_prime_power(q):
        raise ValueError(f"q = {q} is not a prime power")
    return q ** (N * min(d, n))


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


def known_chi_exact(N: int, n: int, q: int, d: int) -> KnownChi:
    """The clique lower bound q^N on the exactly-d chromatic number, exact
    at d = 1 and d = n.

    The Gabidulin [d, 1] code, padded with n - d zero columns, is q^N
    matrices at pairwise rank d (``coloring.clique`` builds it).  At d = 1
    the q^N-color at-most-1 coloring meets it, and at d = n the one-row
    column-projection coloring of ``coloring.exact_d_coloring`` does.
    """
    if not 1 <= d <= n <= N:
        raise ValueError("need 1 <= d <= n <= N")
    if d == 1:
        provenance = "distance 1: single-column clique of size q^N meets the q^N-color construction"
    elif d == n:
        provenance = (
            "distance n: Gabidulin [n,1] clique of size q^N meets the one-row column-projection coloring"
        )
    else:
        provenance = "Gabidulin [d,1] code padded with n - d zero columns: a clique of size q^N"
    return KnownChi(q ** N, exact=d in (1, n), provenance=provenance)


@dataclass(frozen=True)
class BoundsRow:
    N: int
    n: int
    d: int
    q: int
    chi_prime_exact: int
    chi_lower_eq1: int  # the sphere-packing lower bound, tight, so chi_prime_exact
    chi_exact_upper_thm: int  # bound12
    chi_exact_upper_nat: int  # bound8
    known_exact: KnownChi
    lower_bounds: list[int]  # the known value, exact or not
    note: str


def bounds_row(N: int, n: int, q: int, d: int) -> BoundsRow:
    if not 1 <= d <= n <= N:
        raise ValueError("need 1 <= d <= n <= N")
    at_most_d = chi_prime(N, n, q, d)
    known = known_chi_exact(N, n, q, d)
    return BoundsRow(
        N=N,
        n=n,
        d=d,
        q=q,
        chi_prime_exact=at_most_d,
        chi_lower_eq1=at_most_d,
        chi_exact_upper_thm=chi_exact_upper(N, n, q, d),
        chi_exact_upper_nat=at_most_d,
        known_exact=known,
        lower_bounds=[known.value],
        note="d = n; the at-most-d count is the full q^(Nd)" if d == n else "",
    )


# Built-in comparison table: (N, n, d, q) with the published values of the
# two upper bounds, stored as (base, exponent) pairs for bound12 and bound8.
# The key order is the row order of table1.
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
TABLE1_PARAMS = tuple(_PUBLISHED)

TABLE1_HEADER = "N,n,d,q,bound12,bound8,known_exact,lower_bounds,note"


def rows_csv(rows: list[BoundsRow]) -> str:
    """CSV text: the TABLE1_HEADER line, then one line per row."""
    lines = [TABLE1_HEADER]
    for row in rows:
        known = str(row.known_exact.value) if row.known_exact.exact else ""
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
