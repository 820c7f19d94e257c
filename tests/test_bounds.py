"""Bound formulas: exact powers, ceiling logs, known values, the table."""

from math import comb

import numpy as np
import pytest

from matgraph.bounds import (
    TABLE1_HEADER,
    TABLE1_PARAMS,
    bounds_row,
    ceil_log,
    chi_exact_upper,
    chi_exact_upper_exponent,
    chi_prime,
    known_chi_exact,
    table1,
)
from matgraph.coloring import d_distance_coloring
from matgraph.gftower import build_tower
from matgraph.graph import GraphParams


def test_ceil_log_edges():
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(2, 3) == 2
    assert ceil_log(3, 2186) == 7   # just below 3^7 = 2187
    assert ceil_log(3, 2187) == 7
    assert ceil_log(3, 2188) == 8
    assert ceil_log(2, 64) == 6     # exact power
    with pytest.raises(ValueError):
        ceil_log(2, 0)
    with pytest.raises(ValueError):
        ceil_log(1, 5)


def test_ceil_log_against_linear_scan():
    # oracle: precomputed power list + searchsorted, checked for every value
    for base in (2, 3, 5):
        powers = [1]
        while powers[-1] < 10 ** 6:
            powers.append(powers[-1] * base)
        arr = np.array(powers)
        values = range(1, 10 ** 6 + 1, 7 if base != 2 else 1)
        for v in values:
            assert ceil_log(base, v) == int(np.searchsorted(arr, v, side="left"))


def test_chi_prime_values():
    assert chi_prime(2, 2, 2, 1) == 4
    assert chi_prime(6, 4, 2, 2) == 2 ** 12
    assert chi_prime(3, 3, 2, 3) == 2 ** 9
    assert chi_prime(2, 2, 2, 3) == 16  # beyond the diameter every vertex is separated
    with pytest.raises(ValueError):
        chi_prime(2, 3, 2, 1)  # n > N


@pytest.mark.parametrize("q", [0, 1])
def test_chi_prime_rejects_q_below_two(q):
    with pytest.raises(ValueError, match=r"^need 1 <= n <= N, q >= 2 and d >= 1$"):
        chi_prime(3, 2, q, 1)
    with pytest.raises(ValueError, match=r"^need 1 <= n <= N, q >= 2 and d >= 1$"):
        bounds_row(3, 2, q, 1)


@pytest.mark.parametrize("q", [6, 10, 12, 15, 36, 2 * 3 ** 5, 1000000007 * 2])
def test_chi_prime_rejects_q_not_a_prime_power(q):
    with pytest.raises(ValueError, match=rf"^q = {q} is not a prime power$"):
        chi_prime(3, 2, q, 1)
    with pytest.raises(ValueError, match=rf"^q = {q} is not a prime power$"):
        bounds_row(3, 2, q, 1)


def test_chi_prime_accepts_every_prime_power():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 2 ** 20, 3 ** 13, 1000000007):
        assert chi_prime(3, 2, q, 1) == q ** 3


@pytest.mark.parametrize(
    "q", [(2**61 - 1) ** 2, 3**40, 100000000000031], ids=["mersenne61-squared", "3^40", "prime-1e14"]
)
def test_chi_prime_accepts_large_prime_powers(q):
    assert chi_prime(3, 2, q, 1) == q**3


def test_chi_prime_rejects_a_product_of_two_large_primes():
    q = (10**9 + 7) * (10**9 + 9)
    with pytest.raises(ValueError, match=rf"^q = {q} is not a prime power$"):
        chi_prime(3, 2, q, 1)


def test_chi_prime_monotone():
    for q in (2, 3):
        for N in range(1, 6):
            for n in range(1, N + 1):
                vals = [chi_prime(N, n, q, d) for d in range(1, n + 1)]
                assert vals == sorted(vals)
    assert chi_prime(4, 3, 2, 2) >= chi_prime(3, 3, 2, 2)
    assert chi_prime(4, 4, 2, 2) >= chi_prime(4, 3, 2, 2)


def test_chi_lower_equals_chi_prime():
    for q in (2, 3):
        for N in range(1, 5):
            for n in range(1, N + 1):
                for d in range(1, n + 1):
                    assert bounds_row(N, n, q, d).chi_lower_eq1 == chi_prime(N, n, q, d)
    assert bounds_row(2, 2, 2, 1).chi_lower_eq1 == 4
    assert bounds_row(3, 3, 2, 3).chi_lower_eq1 == 2 ** 9


def test_chi_exact_upper_table_values():
    # arguments are (N, n, q, d)
    assert chi_exact_upper(6, 4, 2, 2) == 2 ** 8
    assert chi_exact_upper(6, 4, 2, 3) == 2 ** 14
    assert chi_exact_upper(6, 4, 3, 2) == 3 ** 7    # knife edge 2186 <= 2187
    assert chi_exact_upper(6, 4, 3, 3) == 3 ** 13
    assert chi_exact_upper(5, 3, 2, 2) == 2 ** 6    # exact power edge: value 64
    assert chi_exact_upper(5, 3, 3, 3) == 3 ** 10
    assert chi_exact_upper(10, 7, 2, 4) == 2 ** 35
    assert chi_exact_upper(10, 7, 3, 4) == 3 ** 33


def test_chi_exact_upper_never_exceeds_trivial_bound():
    for N, n, d, q in TABLE1_PARAMS:
        assert chi_exact_upper(N, n, q, d) <= chi_prime(N, n, q, d)


def test_known_chi_exact_d1():
    known = known_chi_exact(5, 3, 2, 1)
    assert known is not None and known.exact and known.value == 32


def test_known_chi_exact_at_d_equal_n():
    # the Gabidulin [n,1] clique meets the one-row column-projection coloring
    for N, n, q, value in ((3, 3, 2, 8), (3, 2, 2, 8), (2, 2, 2, 4), (4, 4, 2, 16), (5, 3, 3, 243)):
        known = known_chi_exact(N, n, q, n)
        assert known.exact and known.value == value
        assert known.provenance == (
            "distance n: Gabidulin [n,1] clique of size q^N meets the one-row column-projection coloring"
        )
    known = known_chi_exact(7, 1, 2, 1)  # d = 1 = n keeps the distance-1 provenance
    assert known.exact and known.value == 128
    assert known.provenance.startswith("distance 1: ")


def test_known_chi_exact_lower_bound_shape():
    known = known_chi_exact(3, 3, 2, 2)  # N = C(3,2), d = n - 1: q^N = 8 > q^n - 1 = 7
    assert not known.exact and known.value == 8
    assert known.provenance == "Gabidulin [d,1] code padded with n - d zero columns: a clique of size q^N"
    assert bounds_row(3, 3, 2, 2).lower_bounds == [8]
    assert bounds_row(6, 4, 2, 3).lower_bounds == [64]  # q = 2, d = 3
    assert bounds_row(2, 2, 2, 1).lower_bounds == [4]


def test_lower_bounds_list_the_known_value():
    for q in (2, 3):
        for N in range(1, 7):
            for n in range(1, N + 1):
                for d in range(1, n + 1):
                    assert bounds_row(N, n, q, d).lower_bounds == [known_chi_exact(N, n, q, d).value]
    assert bounds_row(3, 3, 2, 3).lower_bounds == [8]  # the Gabidulin [3,1] clique of size 2^N


def _previous_known_chi_exact(N, n, q, d):
    """(value, exact) of the three special cases that the clique bound
    replaced, or None where they gave no value."""
    if d == 1:
        return q ** N, True
    if q == 2 and d == n and (N, n) in {(2, 2), (3, 2), (3, 3)}:
        return 2 ** N, True
    if n >= 3 and N == comb(n, 2) and d == n - 1:
        return q ** n - 1, False
    return None


def test_clique_bound_never_falls_and_never_passes_an_upper_bound():
    rows = [
        (N, n, q, d)
        for q in (2, 3, 4, 5, 7, 8, 9)
        for N in range(1, 9)
        for n in range(1, N + 1)
        for d in range(1, n + 1)
    ]
    assert len(rows) == 840
    for N, n, q, d in rows:
        known = known_chi_exact(N, n, q, d)
        previous = _previous_known_chi_exact(N, n, q, d)
        if previous is not None:
            assert known.value >= previous[0]
            if previous[1]:
                assert known.exact and known.value == previous[0]
        projection = q ** (N * min(d, n - d + 1))
        assert known.value <= min(chi_prime(N, n, q, d), projection)
        if d == n:
            assert known.value == projection


@pytest.mark.parametrize("N, n, d", [(3, 2, 0), (3, 2, 3), (2, 3, 1)], ids=["d=0", "d>n", "n>N"])
def test_known_chi_exact_refuses_parameters_out_of_range(N, n, d):
    with pytest.raises(ValueError, match=r"^need 1 <= d <= n <= N$"):
        known_chi_exact(N, n, 2, d)


def test_counting_bound_row_count_on_a_small_row():
    # 2 + C(1,1) * 3 = 5 needs exponent 3, so 2 rows over the N = 2 field
    assert -(-chi_exact_upper_exponent(2, 2, 2, 2) // 2) == 2
    assert -(-chi_exact_upper_exponent(2, 2, 2, 1) // 2) == 1


def test_counting_bound_rows_are_never_below_mstar():
    # The counting exponent rounded up to whole rows is at least
    # m* = min(d, n - d + 1), so the default exactly-d coloring never has
    # more colors than that row count gives, on every row with prime-power
    # q <= 16 and n <= N <= 12.
    rows = [
        (N, n, q, d)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
        for N in range(1, 13)
        for n in range(1, N + 1)
        for d in range(1, n + 1)
    ]
    assert len(rows) == 3640
    assert all(-(-chi_exact_upper_exponent(N, n, q, d) // N) >= min(d, n - d + 1) for N, n, q, d in rows)


@pytest.mark.parametrize("q, N, n", [(2, 2, 2), (2, 3, 2), (3, 2, 1), (2, 3, 3)])
def test_chi_prime_counts_the_mrd_coloring(q, N, n):
    params = GraphParams(build_tower(q, 1, N), n)
    for d in range(1, n + 3):
        assert chi_prime(N, n, q, d) == d_distance_coloring(params, d).num_colors


def test_bounds_row_fields():
    row = bounds_row(6, 4, 2, 2)
    assert row.chi_exact_upper_thm == 2 ** 8
    assert row.chi_exact_upper_nat == 2 ** 12
    assert row.chi_lower_eq1 <= row.chi_prime_exact
    assert row.note == ""
    row = bounds_row(5, 3, 3, 3)
    assert "d = n" in row.note


def test_table1_contents():
    text = table1()
    lines = text.strip().splitlines()
    assert lines[0] == TABLE1_HEADER
    assert len(lines) == 9
    cells = [line.split(",") for line in lines[1:]]
    assert [c[0:4] for c in cells] == [
        ["6", "4", "2", "2"],
        ["6", "4", "3", "2"],
        ["6", "4", "2", "3"],
        ["6", "4", "3", "3"],
        ["5", "3", "2", "2"],
        ["5", "3", "3", "3"],
        ["10", "7", "4", "2"],
        ["10", "7", "4", "3"],
    ]
    assert cells[0][4] == str(2 ** 8) and cells[0][5] == str(2 ** 12)
    assert cells[6][4] == str(2 ** 35) and cells[6][5] == str(2 ** 40)
    # the final row is recomputed in base 3 and flagged
    assert cells[7][4] == str(3 ** 33) and cells[7][5] == str(3 ** 40)
    note = lines[8].split(",")[8]
    assert "published" in note and "2^33" in note and "3^33" in note
    # the q^N clique bound on every row, exact only on the d = n row
    assert [c[7] for c in cells] == ["64", "64", "729", "729", "32", "243", "1024", "59049"]
    assert [c[6] for c in cells] == [""] * 5 + ["243", "", ""]
    # the only rows with notes are the d = n row and the flagged row
    assert [bool(c[8]) for c in cells] == [False] * 5 + [True, False, True]


def test_table1_deterministic():
    assert table1() == table1()
