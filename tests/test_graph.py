"""Implicit matrix graph: degrees, BFS distances, transitivity, export."""

import pytest

from matgraph.gftower import build_tower
from matgraph.graph import (
    GraphParams,
    bfs_distances,
    check_vertex_transitivity,
    degree,
    eccentricity_of_zero,
    export_dot,
    export_edgelist_csv,
    graph_distance_bfs,
    is_bipartite,
    neighbor_index_table,
    neighbors,
    rank_table,
    verify_distance_equals_rank,
)
from matgraph.linalg import (
    BudgetExceededError,
    enumerate_matrices,
    enumerate_rank_one,
    mat_from_index,
    rank,
    rank_distance,
    zero_matrix,
)

P222 = GraphParams(build_tower(2, 1, 2), 2)
P322 = GraphParams(build_tower(2, 1, 3), 2)
P223 = GraphParams(build_tower(3, 1, 2), 2)


def test_order_and_degree_formulas():
    assert P222.order == 16
    assert P222.degree == 9
    assert P322.degree == 21
    assert P223.degree == 32
    k1 = GraphParams(build_tower(5, 1, 1), 1)
    assert k1.degree == 4  # complete graph on q vertices


def test_degree_equals_rank_one_count():
    from matgraph.linalg import count_rank_k

    for params in (P222, P322, P223):
        assert params.degree == count_rank_k(params.N, params.n, params.q, 1)


def test_params_reject_bad_n():
    with pytest.raises(ValueError):
        GraphParams(build_tower(2, 1, 2), 3)
    with pytest.raises(ValueError):
        GraphParams(build_tower(2, 1, 2), 0)


def test_neighbors_of_zero_are_rank_one():
    z = zero_matrix(P222.tower, 2, 2)
    nbrs = list(neighbors(z))
    assert nbrs == list(enumerate_rank_one(P222.tower, 2, 2))


def test_every_vertex_has_degree_neighbors():
    for params in (P222, P223):
        for M in enumerate_matrices(params.tower, params.N, params.n):
            nbrs = list(neighbors(M))
            assert len(nbrs) == params.degree
            assert len(set(n.entries for n in nbrs)) == params.degree
            assert all(rank_distance(M, W) == 1 for W in nbrs)


def test_adjacency_is_symmetric():
    mats = list(enumerate_matrices(P222.tower, 2, 2))
    for A in mats:
        for B in mats:
            assert (rank_distance(A, B) == 1) == (rank_distance(B, A) == 1)


def test_bfs_distance_same_vertex():
    z = zero_matrix(P222.tower, 2, 2)
    assert graph_distance_bfs(z, z) == 0


def test_bfs_equals_rank_distance_small():
    mats = list(enumerate_matrices(P222.tower, 2, 2))
    for A in mats:
        for B in mats:
            assert graph_distance_bfs(A, B) == rank_distance(A, B)


def test_dense_all_pairs_check():
    assert verify_distance_equals_rank(P222) is None
    assert verify_distance_equals_rank(P223) is None


def test_bfs_distances_levels():
    nbr = neighbor_index_table(P322)
    dist = bfs_distances(nbr, 0)
    ranks = rank_table(P322)
    assert (dist == ranks).all()


def test_eccentricity_is_n():
    assert eccentricity_of_zero(P222) == 2
    assert eccentricity_of_zero(P322) == 2
    assert eccentricity_of_zero(GraphParams(build_tower(2, 1, 3), 3)) == 3


def test_not_bipartite():
    assert not is_bipartite(P222)
    assert not is_bipartite(P223)
    # the one genuinely bipartite instance: K_2
    assert is_bipartite(GraphParams(build_tower(2, 1, 1), 1))


def test_vertex_transitivity_exhaustive():
    assert check_vertex_transitivity(P222)


def test_vertex_transitivity_sampled():
    mats = list(enumerate_matrices(P322.tower, 3, 2))[:6]
    assert check_vertex_transitivity(P322, sample=mats)


def test_translation_moves_m1_to_m2():
    mats = list(enumerate_matrices(P222.tower, 2, 2))
    for M1 in mats[:4]:
        for M2 in mats[:4]:
            assert M1 + (M2 - M1) == M2


def test_export_complete_graphs():
    k2 = GraphParams(build_tower(2, 1, 1), 1)
    csv = export_edgelist_csv(k2)
    assert csv.splitlines() == ["u,v", "0,1"]
    k3 = GraphParams(build_tower(3, 1, 1), 1)
    lines = export_edgelist_csv(k3).splitlines()
    assert lines[0] == "u,v"
    assert sorted(lines[1:]) == ["0,1", "0,2", "1,2"]


def test_export_handshake_count():
    lines = export_edgelist_csv(P222).splitlines()[1:]
    assert len(lines) == 16 * 9 // 2
    assert len(set(lines)) == len(lines)


def test_export_dot_shape():
    dot = export_dot(GraphParams(build_tower(2, 1, 1), 1))
    assert dot.startswith("graph matrix_graph {")
    assert '"0" -- "1";' in dot
    assert dot.rstrip().endswith("}")


@pytest.mark.parametrize("Nnq", [(3, 2, 2), (2, 2, 3), (2, 2, 4)])
def test_rank_table_matches_per_matrix_rank(Nnq):
    N, n, q = Nnq
    p, m = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    params = GraphParams(build_tower(p, m, N), n)
    expected = [rank(mat_from_index(params.tower, N, n, v)) for v in range(params.order)]
    assert rank_table(params).tolist() == expected


def test_export_budget_counts_output_lines():
    # P222: 16 vertices and 16 * 9 / 2 = 72 edges
    assert export_dot(P222, budget=88).count(" -- ") == 72
    with pytest.raises(BudgetExceededError):
        export_dot(P222, budget=87)
    assert len(export_edgelist_csv(P222, budget=72).splitlines()) == 73
    with pytest.raises(BudgetExceededError):
        export_edgelist_csv(P222, budget=71)


def test_export_budget():
    big = GraphParams(build_tower(2, 1, 5), 4)
    with pytest.raises(BudgetExceededError):
        export_dot(big, budget=1000)


def test_bfs_budget():
    big = GraphParams(build_tower(2, 1, 5), 5)
    z = zero_matrix(big.tower, 5, 5)
    other = mat_from_index(big.tower, 5, 5, 1)
    with pytest.raises(BudgetExceededError):
        graph_distance_bfs(z, other, budget=1000)
