"""Syndrome colorings: construction, verification modes, the greedy search."""

import collections
import functools
import itertools
import json
import random
import tracemalloc
import types

import numpy as np
import pytest

from matgraph import coloring as coloring_mod
from matgraph.codes import parity_syndrome, span_blocks
from matgraph.gftower import build_tower, from_digits
from matgraph.graph import GraphParams
from matgraph.coloring import (
    Coloring,
    SearchExhaustedError,
    clique_d1,
    color_table,
    coloring_from_json,
    coloring_to_json,
    d_distance_coloring,
    exact_d_coloring,
    find_violation,
    forbidden_rows_target,
    kernel_rank_spectrum,
    realized_colors,
    search_forbidden_H,
    verify_at_most_d,
    verify_exactly_d,
)
from matgraph.linalg import (
    null_space,
    rank_distance,
    ranks,
    vec_from_index,
    vec_rank_distance,
    vector_to_matrix,
)

P222 = GraphParams(build_tower(2, 1, 2), 2)
P322 = GraphParams(build_tower(2, 1, 3), 2)
P223 = GraphParams(build_tower(3, 1, 2), 2)
P513 = GraphParams(build_tower(5, 1, 3), 1)
P2222 = GraphParams(build_tower(2, 2, 2), 2)


def test_d1_coloring_is_proper_with_q_nd_colors():
    col = d_distance_coloring(P222, 1)
    assert col.num_colors == 4
    assert realized_colors(col) == 4
    assert verify_at_most_d(col)
    assert verify_at_most_d(col, pairwise=True)


def test_dn_coloring_separates_everything():
    col = d_distance_coloring(P222, 2)
    assert col.num_colors == 16
    assert realized_colors(col) == 16
    assert verify_at_most_d(col, pairwise=True)


def test_d_above_diameter_separates_everything():
    # all pairs lie within the diameter n <= d, so the coloring must be total
    col = d_distance_coloring(P222, 3)
    assert col.num_colors == 16
    assert verify_at_most_d(col)
    assert verify_at_most_d(col, pairwise=True)


def test_d_coloring_examples_all_proper():
    for params, d, expected in ((P322, 1, 8), (P223, 1, 9)):
        col = d_distance_coloring(params, d)
        assert col.num_colors == expected
        assert realized_colors(col) == expected
        assert verify_at_most_d(col)
        assert verify_at_most_d(col, pairwise=True)


def test_d_coloring_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        d_distance_coloring(P222, 0)
    with pytest.raises(ValueError, match="d must be positive"):
        exact_d_coloring(P222, 0)


def test_improper_syndrome_coloring_detected():
    # kernel of (1, 1) over F_4 contains (c, c), a rank-1 word
    bad = Coloring(P222, "at-most-d", 1, ((1, 1),), 4, tag="bad")
    assert not verify_at_most_d(bad)
    assert not verify_at_most_d(bad, pairwise=True)
    pair = find_violation(bad)
    assert pair is not None
    u, v = pair
    a = vector_to_matrix(vec_from_index(P222.tower, 2, u))
    b = vector_to_matrix(vec_from_index(P222.tower, 2, v))
    assert rank_distance(a, b) <= 1


def test_kernel_and_pairwise_agree_on_violations():
    bad = Coloring(P222, "at-most-d", 2, ((1, 2),), 4, tag="bad")
    assert (find_violation(bad) is None) == (find_violation(bad, pairwise=True) is None)


@functools.lru_cache(maxsize=None)
def _rank_distances(params):
    """Rank distance of every vertex pair, vertex pair by vertex pair."""
    vecs = [vec_from_index(params.tower, params.n, v) for v in range(params.order)]
    return [[vec_rank_distance(a, b) for b in vecs] for a in vecs]


def _breaks_rule(w, d, kind):
    return (w <= d) if kind == "le" else (w == d)


def _first_violation_reference(params, colors, d, kind):
    """The lexicographically first (u, v), u != v, of equal colors whose
    rank distance breaks the rule, vertex pair by vertex pair."""
    dist = _rank_distances(params)
    for u in range(len(colors)):
        for v in range(len(colors)):
            if v != u and colors[u] == colors[v] and _breaks_rule(dist[u][v], d, kind):
                return (u, v)
    return None


@pytest.mark.parametrize("kind", ["le", "eq"])
@pytest.mark.parametrize(
    "col",
    [
        Coloring(P222, "at-most-d", 1, (), 1, tag="x"),  # no rows: one class
        Coloring(P222, "exactly-d", 2, (), 1, tag="x"),
        d_distance_coloring(P223, 2),  # d = n: one-vertex classes
        Coloring(P223, "exactly-d", 2, ((1, 2),), 9, tag="x"),  # kernel words (c, c)
        Coloring(P513, "at-most-d", 1, (), 1, tag="x"),
        Coloring(P2222, "exactly-d", 2, ((1, 5),), 16, tag="x"),
        d_distance_coloring(P2222, 1),
    ],
    ids=["no-rows-d1", "no-rows-d2", "p3-mrd-d=n", "p3-row", "p5-no-rows", "m2-row", "m2-mrd"],
)
def test_pairwise_returns_first_violating_pair(col, kind):
    params = col.params
    V = params.tower.order ** params.n
    colors = [col.color_index(vec_from_index(params.tower, params.n, v)) for v in range(V)]
    expected = _first_violation_reference(params, colors, col.d, kind)
    assert find_violation(col, kind=kind, pairwise=True) == expected
    assert (find_violation(col, kind=kind) is None) == (expected is None)


@pytest.mark.parametrize(
    "params", [P222, P322, P223, P2222], ids=["q2-N2", "q2-N3", "q3-N2", "m2-N2"]
)
def test_pairwise_matches_the_reference_on_random_rows(params):
    # The check walks, per call, the smaller of two partner sets: the
    # largest color class or the differences whose rank breaks the rule.
    # Rowless colorings (one class of all V vertices) make the second one
    # smaller, d = n MRD colorings (one-vertex classes) the first.
    tower, n = params.tower, params.n
    order = tower.order
    rng = random.Random(f"{order} {n}")
    cols = [Coloring(params, "exactly-d", 1, (), 1, tag="x"), d_distance_coloring(params, n)]
    for _ in range(6):
        rows = rng.randrange(n + 1)
        h_rows = tuple(tuple(rng.randrange(order) for _ in range(n)) for _ in range(rows))
        cols.append(Coloring(params, "exactly-d", 1, h_rows, order**rows, tag="random"))
    smaller, improper = set(), 0
    for col in cols:
        colors = [col.color_index(vec_from_index(tower, n, v)) for v in range(params.order)]
        largest_class = max(collections.Counter(colors).values())
        for d in range(1, n + 2):
            for kind in ("le", "eq"):
                rule_steps = sum(_breaks_rule(w, d, kind) for w in _rank_distances(params)[0][1:])
                if largest_class != rule_steps:
                    smaller.add("class" if largest_class < rule_steps else "rule")
                expected = _first_violation_reference(params, colors, d, kind)
                assert find_violation(col, d, kind, pairwise=True) == expected, (col.h_rows, d, kind)
                improper += expected is not None
    assert smaller == {"class", "rule"}
    assert improper >= 10


def _kernel_violation_full_scan(col, d, kind):
    """(0, w) for the first word w of the kernel code, in full
    ``span_blocks`` order, whose rank breaks the rule."""
    tower, n = col.params.tower, col.params.n
    basis = tuple(null_space([list(r) for r in col.h_rows], n, tower.ext))
    for block in span_blocks(tower, basis, n):
        w = ranks(tower, block)
        bad = np.flatnonzero((w >= 1) & ((w <= d) if kind == "le" else (w == d)))
        if bad.size:
            return (0, from_digits(reversed(block[bad[0]].tolist()), tower.order))
    return None


@pytest.mark.parametrize("pmN, n", [((2, 1, 4), 3), ((3, 1, 3), 2), ((2, 2, 3), 3), ((5, 1, 2), 2)])
def test_kernel_violation_is_the_first_of_the_full_scan(pmN, n):
    params = GraphParams(build_tower(*pmN), n)
    order = params.tower.order
    rng = random.Random(repr(pmN))
    improper = 0
    for _ in range(80):
        rows = rng.randrange(n + 1)
        h_rows = tuple(tuple(rng.randrange(order) for _ in range(n)) for _ in range(rows))
        col = Coloring(params, "exactly-d", 1, h_rows, order**rows, tag="random")
        for kind in ("le", "eq"):
            d = rng.randint(1, n)
            expected = _kernel_violation_full_scan(col, d, kind)
            assert find_violation(col, d, kind) == expected, (h_rows, d, kind)
            improper += expected is not None
    assert improper >= 60


@pytest.mark.parametrize("seed", range(3))
def test_pairwise_allows_color_classes_of_unequal_size(monkeypatch, seed):
    # Syndrome colorings have classes of one size (kernel cosets); the scan
    # must not depend on it.  Here most classes are singletons and three are
    # merged among the later vertices, so the first violation has u > 0.
    rng = random.Random(seed)
    colors = list(range(81))
    for size in (2, 3, 4):
        group = rng.sample(range(40, 81), size)
        for v in group:
            colors[v] = colors[group[0]]
    monkeypatch.setattr(coloring_mod, "color_table", lambda col, budget: np.array(colors))
    col = Coloring(P223, "exactly-d", 2, (), 1, tag="x")
    for kind in ("le", "eq"):
        assert find_violation(col, kind=kind, pairwise=True) == _first_violation_reference(
            P223, colors, 2, kind
        )


@pytest.mark.parametrize("seed", range(3))
def test_pairwise_finds_late_pairs_in_either_partner_set(monkeypatch, seed):
    # One class of 45 vertices among the later ones, the rest singletons:
    # the first violation has u >= 20.  45 exceeds the 32 rank-one
    # differences of F_9^2 and falls short of its 48 rank-two ones, so d = 1
    # walks the rule differences and d = 2 the color classes.  Digit-wise
    # addition mod 3 does not keep order (20 + 1 is 18), so the smallest
    # partner need not come from the smallest difference.
    rng = random.Random(seed)
    colors = list(range(81))
    for v in rng.sample(range(20, 81), 45):
        colors[v] = 81
    monkeypatch.setattr(coloring_mod, "color_table", lambda col, budget: np.array(colors))
    col = Coloring(P223, "exactly-d", 2, (), 1, tag="x")
    for d in (1, 2):
        for kind in ("le", "eq"):
            expected = _first_violation_reference(P223, colors, d, kind)
            assert expected is not None and expected[0] >= 20
            assert find_violation(col, d, kind, pairwise=True) == expected


def test_at_most_coloring_is_also_exactly_proper():
    col = d_distance_coloring(P222, 1)
    assert verify_exactly_d(col, 1)
    assert verify_exactly_d(col, 1, pairwise=True)


def test_clique_d1():
    w = clique_d1(P222)
    assert w.size == 4
    assert any(all(e == 0 for e in M.entries) for M in w.members)
    for i, A in enumerate(w.members):
        for B in w.members[i + 1 :]:
            assert rank_distance(A, B) == 1
    assert clique_d1(P322).size == 8


def test_forbidden_rows_target():
    # 2 + C(1,1) * 3 = 5 needs exponent 3, so 2 rows over the N = 2 field
    assert forbidden_rows_target(P222, 2) == 2
    assert forbidden_rows_target(P222, 1) == 1


def test_search_forbidden_h_small():
    found = search_forbidden_H(P222.tower, 2, 2, 1, seed=0)
    assert found.verified
    assert found.m == 1 and found.n == 2
    spectrum = kernel_rank_spectrum(P222.tower, found.h_rows, 2)
    assert spectrum.get(2, 0) == 0


def test_search_forbidden_h_deterministic():
    a = search_forbidden_H(P222.tower, 2, 2, 1, seed=5)
    b = search_forbidden_H(P222.tower, 2, 2, 1, seed=5)
    assert a.h_rows == b.h_rows
    assert a.restarts_used == b.restarts_used


@pytest.mark.parametrize(
    "pmN, n, d, m, seed, h_rows, restarts_used",
    [
        ((2, 1, 4), 3, 2, 2, 1, ((1, 2, 8), (2, 11, 6)), 3),
        ((2, 1, 4), 3, 2, 2, 3, ((15, 13, 5), (13, 5, 13)), 2),
        ((3, 1, 3), 3, 3, 1, 1, ((26, 13, 13),), 16),
        ((3, 1, 3), 3, 3, 1, 7, ((1, 0, 0),), 10),
        ((2, 2, 2), 2, 2, 1, 0, ((12, 12),), 1),
        ((2, 2, 3), 3, 2, 2, 1, ((14, 53, 2), (44, 2, 42)), 1),
        ((5, 1, 2), 2, 2, 1, 3, ((16, 14),), 3),
        ((3, 2, 2), 2, 2, 1, 4, ((39, 22),), 4),
    ],
)
def test_search_forbidden_h_pinned_results(pmN, n, d, m, seed, h_rows, restarts_used):
    # A draw is tested against one check set per column subset, built once
    # per column; the random draws, and so these results, must stay as pinned.
    found = search_forbidden_H(build_tower(*pmN), n, d, m, seed=seed)
    assert found.h_rows == h_rows
    assert found.restarts_used == restarts_used


def _greedy_columns_reference(tower, n, d, m, rng):
    """The column loop as it was when every draw was tested, even against an
    empty check set, which rejects all of them."""
    order, ext = tower.order, tower.ext
    cols = []
    for _ in range(n):
        checks = [null_space(S, m, ext) for S in itertools.combinations(cols, min(d - 1, len(cols)))]
        for _ in range(coloring_mod.COLUMN_TRIES):
            cand = tuple(rng.randrange(order) for _ in range(m))
            if all(any(parity_syndrome(tower, Y, cand)) for Y in checks):
                break
        cols.append(cand)
    return cols


@pytest.mark.parametrize(
    "pmN, n, d, m",
    [
        ((2, 1, 4), 3, 2, 1),
        ((2, 1, 5), 3, 3, 1),
        ((3, 1, 3), 3, 3, 1),
        ((2, 2, 2), 2, 2, 1),
        ((2, 1, 4), 3, 2, 2),
        ((2, 1, 4), 4, 3, 2),
        ((3, 1, 3), 3, 3, 2),
        ((2, 2, 3), 3, 2, 2),
    ],
)
def test_greedy_columns_match_the_loop_that_tests_every_draw(pmN, n, d, m):
    # same columns and the same random stream left behind, for every seed
    tower = build_tower(*pmN)
    for seed in range(40):
        new, old = random.Random(seed), random.Random(seed)
        assert coloring_mod._greedy_columns(tower, n, d, m, new) == _greedy_columns_reference(
            tower, n, d, m, old
        ), seed
        assert new.getstate() == old.getstate(), seed


def test_greedy_columns_test_no_draw_against_an_empty_check_set(monkeypatch):
    # m = 1, d = 2: once a column is nonzero it spans F_16, so only the
    # first column's draws are tested; the old loop tested 32 per column after.
    calls = []

    def counted(*args):
        calls.append(args)
        return parity_syndrome(*args)

    monkeypatch.setattr(coloring_mod, "parity_syndrome", counted)
    tower = build_tower(2, 1, 4)
    for seed in range(20):
        calls.clear()
        cols = coloring_mod._greedy_columns(tower, 3, 2, 1, random.Random(seed))
        assert cols[0] != (0,)
        assert len(calls) <= coloring_mod.COLUMN_TRIES


@pytest.mark.parametrize(
    "n, d, m, match",
    [(2, 2, 0, "m >= 1"), (2, 0, 1, "d >= 1"), (0, 1, 1, "1 <= n"), (3, 1, 1, "1 <= n")],
)
def test_search_rejects_bad_arguments(n, d, m, match):
    with pytest.raises(ValueError, match=match):
        search_forbidden_H(P222.tower, n, d, m)


def test_search_d_above_n_trivially_verified():
    found = search_forbidden_H(P222.tower, 2, 3, 1, seed=0)
    assert found.verified  # no word can have rank above n


def test_search_square_invertible_kernel_trivial():
    found = search_forbidden_H(P222.tower, 2, 2, 2, seed=0)
    assert found.verified
    spectrum = kernel_rank_spectrum(P222.tower, found.h_rows, 2)
    # greedy with d-1 = 1 forces independent columns, so the kernel is {0}
    assert spectrum == {0: 1}


def test_search_exhausted_reports_best():
    # seed 2 draws a matrix whose kernel holds rank-2 words on its only restart
    with pytest.raises(SearchExhaustedError) as info:
        search_forbidden_H(P222.tower, 2, 2, 1, seed=2, restarts=1)
    assert info.value.restarts == 1
    assert info.value.best_rank_d_count >= 1
    assert sum(info.value.best_spectrum.values()) == 4  # the kernel size


@pytest.mark.parametrize("restarts", [0, -1])
def test_search_rejects_fewer_than_one_restart(restarts):
    # no attempt runs, so there is no best attempt to report
    with pytest.raises(ValueError, match=f"^need restarts >= 1, got {restarts}$"):
        search_forbidden_H(P222.tower, 2, 2, 1, seed=2, restarts=restarts)


@pytest.mark.parametrize(
    "pmN, n, d, m, seed, restarts, best_spectrum",
    [
        ((2, 1, 4), 3, 2, 1, 0, 4, {0: 1, 1: 15, 2: 60, 3: 180}),
        ((3, 1, 3), 3, 3, 1, 1, 5, {0: 1, 2: 338, 3: 390}),
        ((2, 2, 3), 3, 2, 1, 0, 3, {0: 1, 1: 63, 2: 1008, 3: 3024}),
        ((2, 1, 4), 3, 2, 2, 1, 2, {0: 1, 2: 15}),
        ((2, 1, 4), 4, 3, 2, 2, 3, {0: 1, 2: 30, 3: 135, 4: 90}),
    ],
)
def test_search_exhausted_best_spectrum_pinned(pmN, n, d, m, seed, restarts, best_spectrum):
    with pytest.raises(SearchExhaustedError) as info:
        search_forbidden_H(build_tower(*pmN), n, d, m, seed=seed, restarts=restarts)
    assert info.value.best_spectrum == best_spectrum
    assert info.value.best_rank_d_count == best_spectrum[d]


def test_exact_coloring_m1():
    col = exact_d_coloring(P222, 2, seed=0, m=1)
    assert col.num_colors == 4
    assert verify_exactly_d(col)
    assert verify_exactly_d(col, pairwise=True)


def test_exact_coloring_default_rows():
    col = exact_d_coloring(P222, 2, seed=0)
    assert col.num_colors == 4  # q^N, the exact chi_2 on (N, n, q) = (2, 2, 2)
    assert col.tag == "column-projection" and col.seed is None
    assert verify_exactly_d(col, pairwise=True)


# (p, m) of each q of the exhaustive construction checks
_PM = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def _rows_up_to(limit):
    """(params, d) of every row with q in _PM, n <= N and q^(Nn) <= limit."""
    for q, (p, m) in _PM.items():
        for N in range(1, limit.bit_length()):
            for n in range(1, N + 1):
                if q ** (N * n) <= limit:
                    params = GraphParams(build_tower(p, m, N), n)
                    yield from ((params, d) for d in range(1, n + 1))


def test_default_exact_coloring_passes_both_modes_with_q_n_mstar_colors():
    rows = 0
    for params, d in _rows_up_to(1 << 16):
        col = exact_d_coloring(params, d)
        n, Q = params.n, params.tower.order
        m_star = min(d, n - d + 1)
        assert len(col.h_rows) == m_star
        assert col.num_colors == Q**m_star
        assert col.tag == ("mrd-parity" if d <= n - d + 1 else "column-projection")
        assert col.seed is None
        assert find_violation(col) is None, (params, d)
        if params.order <= 1 << 12:
            assert find_violation(col, pairwise=True) is None, (params, d)
            assert realized_colors(col) == Q**m_star
        rows += 1
    assert rows == 88


@pytest.mark.parametrize("m", [2, 3, 7])
def test_exact_coloring_with_rows_at_least_mstar_builds_mstar_rows(m):
    params = GraphParams(build_tower(2, 1, 4), 4)
    col = exact_d_coloring(params, 3, seed=5, m=m)
    assert col == exact_d_coloring(params, 3)
    assert col.h_rows == ((0, 0, 1, 0), (0, 0, 0, 1))  # e_3, e_4: the last two columns
    assert col.num_colors == 16**2


def test_exact_coloring_below_mstar_runs_the_seeded_search():
    tower = build_tower(2, 1, 4)
    with pytest.raises(SearchExhaustedError) as via_coloring:
        exact_d_coloring(GraphParams(tower, 3), 2, seed=1, m=1, restarts=4)
    with pytest.raises(SearchExhaustedError) as via_search:
        search_forbidden_H(tower, 3, 2, 1, seed=1, restarts=4)
    assert str(via_coloring.value) == str(via_search.value)
    assert via_coloring.value.best_spectrum == via_search.value.best_spectrum


def test_forbidden_rows_target_is_never_below_mstar():
    # So the default coloring never has more colors than the counting-bound
    # row count gave it, on every row with prime-power q <= 16 and n <= N <= 12.
    # forbidden_rows_target reads only N, n and q, so the rows carry no tower:
    # finding the moduli of the q = 16 towers alone takes seconds.
    rows = [
        (types.SimpleNamespace(N=N, n=n, q=q), d)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
        for N in range(1, 13)
        for n in range(1, N + 1)
        for d in range(1, n + 1)
    ]
    assert len(rows) == 3640
    assert all(forbidden_rows_target(row, d) >= min(d, row.n - d + 1) for row, d in rows)


def test_exact_coloring_d1_uses_qn_colors():
    col = exact_d_coloring(P222, 1, seed=1)
    assert col.num_colors == 4  # q^N, the known exact value
    assert verify_exactly_d(col, pairwise=True)


def test_exact_coloring_above_diameter():
    col = exact_d_coloring(P222, 3, seed=0)
    assert col.num_colors == 1
    assert verify_exactly_d(col)


def test_color_index_is_syndrome_based():
    col = d_distance_coloring(P222, 1)
    tower = P222.tower
    v1 = vec_from_index(tower, 2, 3)
    v2 = vec_from_index(tower, 2, 9)
    assert col.color_index(v1) == col.color_index(v1.entries)
    same = col.color_index(v1) == col.color_index(v2)
    diff = v1 - v2
    assert same == (col.syndrome(diff.entries) == (0,))


def test_color_table_matches_color_index():
    col = d_distance_coloring(P322, 1)
    table = color_table(col)
    for idx in (0, 1, 17, 40, 63):
        assert table[idx] == col.color_index(vec_from_index(P322.tower, 2, idx))


@pytest.mark.parametrize(
    "col",
    [
        d_distance_coloring(P223, 1),
        exact_d_coloring(P223, 2, seed=1, m=1),
        d_distance_coloring(GraphParams(build_tower(2, 2, 2), 2), 1),
        Coloring(GraphParams(build_tower(2, 2, 2), 2), "at-most-d", 1, ((1, 5), (7, 0)), 256, tag="x"),
        exact_d_coloring(P223, 3),  # no parity rows: one color
    ],
)
def test_color_table_matches_color_index_on_every_vertex(col):
    params = col.params
    V = params.tower.order ** params.n
    expected = [col.color_index(vec_from_index(params.tower, params.n, v)) for v in range(V)]
    assert color_table(col).tolist() == expected
    if not col.h_rows:
        assert expected == [0] * V


def _random_rows(tower, n, rows, seed):
    rng = random.Random(seed)
    return tuple(tuple(rng.randrange(tower.order) for _ in range(n)) for _ in range(rows))


def test_color_table_memory_does_not_grow_with_the_field():
    # 2^16 vertices, one color each: the table itself is 512 KiB of int64
    col = d_distance_coloring(GraphParams(build_tower(2, 1, 16), 1), 1)
    tracemalloc.start()
    try:
        table = color_table(col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(table.tolist()) == list(range(1 << 16))
    assert peak < 4 << 20


def test_color_table_rejects_color_indices_beyond_int64():
    params = GraphParams(build_tower(2, 1, 8), 2)
    # 256^7 colors fit int64.
    col = Coloring(params, "exactly-d", 1, _random_rows(params.tower, 2, 7, seed=1), 256**7, tag="x")
    table = color_table(col)
    for v in (0, 1, 258, 40000, 65535):
        assert table[v] == col.color_index(vec_from_index(params.tower, 2, v))
    # 256^9 colors: the indices need 72 bits.
    col = Coloring(params, "exactly-d", 1, _random_rows(params.tower, 2, 9, seed=0), 256**9, tag="x")
    assert col.color_index(vec_from_index(params.tower, 2, 1)) >= 1 << 63
    with pytest.raises(ValueError):
        color_table(col)
    with pytest.raises(ValueError):
        realized_colors(col)
    with pytest.raises(ValueError):
        find_violation(col, pairwise=True)


def test_threads_do_not_change_results():
    col = d_distance_coloring(P322, 1)
    assert find_violation(col, pairwise=True, threads=1) == find_violation(
        col, pairwise=True, threads=4
    )
    bad = Coloring(P222, "at-most-d", 2, ((1, 2),), 4, tag="bad")
    assert find_violation(bad, pairwise=True, threads=1) == find_violation(
        bad, pairwise=True, threads=4
    )


def test_coloring_json_roundtrip():
    col = exact_d_coloring(P222, 2, seed=3, m=1)
    data = json.loads(json.dumps(coloring_to_json(col)))
    again = coloring_from_json(data)
    assert again.mode == col.mode
    assert again.d == col.d
    assert again.h_rows == col.h_rows
    assert again.num_colors == col.num_colors
    assert again.seed == col.seed


@pytest.mark.parametrize("key", ["tower", "n", "mode", "d", "H_col", "num_colors"])
def test_coloring_from_json_names_a_missing_key(key):
    data = coloring_to_json(d_distance_coloring(P222, 1))
    del data[key]
    with pytest.raises(ValueError, match=f"^coloring file has no '{key}' key$"):
        coloring_from_json(data)


@pytest.mark.parametrize("seed", ["x", 1.5, True, [1]])
def test_coloring_from_json_rejects_a_seed_that_is_not_an_integer(seed):
    data = coloring_to_json(exact_d_coloring(P222, 2, seed=3, m=1))
    data["seed"] = seed
    with pytest.raises(ValueError, match="'seed' must be an integer or null"):
        coloring_from_json(data)


def test_coloring_from_json_reads_seed_and_tag_as_optional():
    col = d_distance_coloring(P222, 1)
    data = coloring_to_json(col)
    del data["seed"], data["tag"]
    again = coloring_from_json(data)
    assert (again.h_rows, again.seed, again.tag) == (col.h_rows, None, "loaded")
    data["seed"] = 7
    assert coloring_from_json(data).seed == 7


def test_coloring_rejects_bad_mode():
    with pytest.raises(ValueError):
        Coloring(P222, "sometimes-d", 1, (), 1, tag="x")


def test_coloring_rejects_parity_rows_of_wrong_length():
    with pytest.raises(ValueError, match="length n"):
        Coloring(P222, "at-most-d", 1, ((1, 1, 1),), 4, tag="x")


def test_find_violation_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        find_violation(d_distance_coloring(P222, 1), kind="lt")


def test_coloring_rejects_num_colors_not_matching_rows():
    with pytest.raises(ValueError, match="num_colors"):
        Coloring(P222, "at-most-d", 1, ((1, 1),), 5, tag="x")
    with pytest.raises(ValueError, match="num_colors"):
        Coloring(P222, "exactly-d", 3, (), 4, tag="x")
    data = coloring_to_json(d_distance_coloring(P222, 1))
    data["num_colors"] = "16"
    with pytest.raises(ValueError, match="num_colors"):
        coloring_from_json(data)
