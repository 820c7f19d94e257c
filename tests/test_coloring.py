"""Syndrome colorings: construction, verification modes, the greedy search."""

import json

import pytest

from matgraph.gftower import build_tower
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
from matgraph.linalg import rank_distance, vec_from_index, vector_to_matrix

P222 = GraphParams(build_tower(2, 1, 2), 2)
P322 = GraphParams(build_tower(2, 1, 3), 2)
P223 = GraphParams(build_tower(3, 1, 2), 2)


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
    ],
)
def test_search_forbidden_h_pinned_results(pmN, n, d, m, seed, h_rows, restarts_used):
    # Each column subset is ranked once per column, not once per draw; the
    # random draws, and so these results, must stay as pinned.
    found = search_forbidden_H(build_tower(*pmN), n, d, m, seed=seed)
    assert found.h_rows == h_rows
    assert found.restarts_used == restarts_used


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


def test_exact_coloring_m1():
    col = exact_d_coloring(P222, 2, seed=0, m=1)
    assert col.num_colors == 4
    assert verify_exactly_d(col)
    assert verify_exactly_d(col, pairwise=True)


def test_exact_coloring_default_rows():
    col = exact_d_coloring(P222, 2, seed=0)
    assert col.num_colors == 16  # two rows over the order-4 field
    assert verify_exactly_d(col, pairwise=True)


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


def test_coloring_rejects_bad_mode():
    with pytest.raises(ValueError):
        Coloring(P222, "sometimes-d", 1, (), 1, tag="x")


def test_coloring_rejects_num_colors_not_matching_rows():
    with pytest.raises(ValueError, match="num_colors"):
        Coloring(P222, "at-most-d", 1, ((1, 1),), 5, tag="x")
    with pytest.raises(ValueError, match="num_colors"):
        Coloring(P222, "exactly-d", 3, (), 4, tag="x")
    data = coloring_to_json(d_distance_coloring(P222, 1))
    data["num_colors"] = "16"
    with pytest.raises(ValueError, match="num_colors"):
        coloring_from_json(data)
