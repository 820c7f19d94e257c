"""Implicit matrix graph: degrees, BFS distances, transitivity, export."""

import collections
import hashlib
import math
import time

import numpy as np
import pytest

from matgraph import codes as codes_module
from matgraph import coloring as coloring_module
from matgraph import graph as graph_module
from matgraph.coloring import Coloring, find_violation
from matgraph.gftower import build_tower
from matgraph.graph import (
    GraphParams,
    bfs_distances,
    check_vertex_transitivity,
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
    RANK_BLOCK,
    BudgetExceededError,
    MatFq,
    add_digits,
    column_rank,
    enumerate_matrices,
    enumerate_rank_one,
    index_ranks,
    mat_from_index,
    mat_index,
    rank,
    rank_distance,
    vec_from_index,
)

P222 = GraphParams(build_tower(2, 1, 2), 2)
P322 = GraphParams(build_tower(2, 1, 3), 2)
P223 = GraphParams(build_tower(3, 1, 2), 2)


def zero_matrix(tower, rows, cols):
    return MatFq(tower, rows, cols, (0,) * (rows * cols))


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


def test_params_equality_and_hash_ignore_the_cached_order_and_degree():
    fresh, used = GraphParams(build_tower(2, 1, 3), 2), GraphParams(build_tower(2, 1, 3), 2)
    assert (used.order, used.degree) == (64, 21)
    assert fresh == used and hash(fresh) == hash(used)
    assert {fresh: 1}[used] == 1
    assert GraphParams(build_tower(2, 1, 3), 3) != used


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
    for params in (P222, P223, GraphParams(build_tower(2, 2, 2), 1)):
        mats = list(enumerate_matrices(params.tower, params.N, params.n))
        for A in mats:
            for B in mats:
                assert graph_distance_bfs(A, B) == rank_distance(A, B)


@pytest.mark.parametrize("pmNn", [(2, 1, 3, 2), (3, 1, 2, 2), (2, 2, 2, 2), (3, 2, 2, 1), (3, 1, 3, 2)])
def test_neighbor_index_table_matches_matrix_sums(pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    steps = list(enumerate_rank_one(params.tower, N, n))
    expected = [
        [mat_index(mat_from_index(params.tower, N, n, v) + R) for R in steps]
        for v in range(params.order)
    ]
    assert neighbor_index_table(params).tolist() == expected


def test_neighbor_table_budget_counts_entries():
    # P222: 16 vertices of degree 9, so the table has 144 entries
    assert neighbor_index_table(P222, budget=144).shape == (16, 9)
    assert eccentricity_of_zero(P222, budget=144) == 2
    assert not is_bipartite(P222, budget=144)
    z = zero_matrix(P222.tower, 2, 2)
    for budget in (16, 143):
        with pytest.raises(BudgetExceededError):
            neighbor_index_table(P222, budget=budget)
        with pytest.raises(BudgetExceededError):
            verify_distance_equals_rank(P222, budget=budget)
        with pytest.raises(BudgetExceededError):
            graph_distance_bfs(z, z, budget=budget)
        with pytest.raises(BudgetExceededError):
            eccentricity_of_zero(P222, budget=budget)
        with pytest.raises(BudgetExceededError):
            is_bipartite(P222, budget=budget)


def test_bfs_rejects_matrices_that_are_not_vertices():
    small = zero_matrix(P322.tower, 2, 2)  # the tower has N = 3
    with pytest.raises(ValueError, match="rows"):
        graph_distance_bfs(small, small)
    z2 = zero_matrix(P222.tower, 2, 2)
    for other in (small, zero_matrix(P222.tower, 2, 1)):
        with pytest.raises(ValueError, match="different graphs"):
            graph_distance_bfs(z2, other)


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


def test_eccentricity_builds_no_table(monkeypatch):
    monkeypatch.setattr(graph_module, "neighbor_index_table", _no_table)
    assert eccentricity_of_zero(P223) == 2
    assert eccentricity_of_zero(GraphParams(build_tower(2, 1, 3), 3)) == 3


@pytest.mark.parametrize("pmNn", [(2, 1, 3, 2), (3, 1, 2, 2), (2, 2, 2, 2), (3, 2, 2, 1)])
def test_bfs_over_computed_rows_matches_stored_table(pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    rows = graph_module._StepRows(params, budget=params.order * params.degree)
    assert np.array_equal(_stacked_bfs(rows), _stacked_bfs(neighbor_index_table(params)))


class _CountingRows:
    """A row source that counts the rows the walk asks it for."""

    def __init__(self, nbr):
        self.nbr, self.shape, self.asked = nbr, nbr.shape, 0

    def __getitem__(self, vertices):
        self.asked += vertices.size
        return self.nbr[vertices]


def _full_rank_count(params):
    q, N, n = params.q, params.N, params.n
    return math.prod(q**N - q**i for i in range(n))


# (p, m, N, n) for (N,n,q) = (4,3,2), (3,2,3), (5,2,2) and (2,2,4)
EARLY_STOP_PARAMS = [(2, 1, 4, 3), (3, 1, 3, 2), (2, 1, 5, 2), (2, 2, 2, 2)]


@pytest.mark.parametrize("pmNn", EARLY_STOP_PARAMS)
def test_bfs_stops_at_the_block_that_reaches_the_last_vertex(pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    # the last level holds the full-rank matrices and is never expanded
    bound = params.order - _full_rank_count(params) + max(1, RANK_BLOCK // params.degree)
    for source in (graph_module._StepRows(params, params.order * params.degree), neighbor_index_table(params)):
        rows = _CountingRows(source)
        assert np.array_equal(bfs_distances(rows, 0), rank_table(params))
        assert rows.asked <= bound


# every n = 1 graph is the complete graph on q^N vertices
COMPLETE_PARAMS = [(2, 1, 1, 1), (3, 1, 1, 1), (5, 1, 1, 1), (2, 2, 1, 1), (2, 1, 2, 1), (2, 1, 3, 1), (3, 1, 2, 1)]


@pytest.mark.parametrize("pmNn", COMPLETE_PARAMS)
def test_complete_graphs_stop_after_one_row_but_keep_their_triangles(pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    rows = _CountingRows(graph_module._StepRows(params, params.order * params.degree))
    assert bfs_distances(rows, 0).tolist() == [0] + [1] * (params.order - 1)
    assert rows.asked == 1  # level 1 reaches every vertex
    # an edge within level 1 shows up only while level 2 is expanded
    assert is_bipartite(params) == (params.order == 2)


def test_not_bipartite():
    assert not is_bipartite(P222)
    assert not is_bipartite(P223)
    # the one genuinely bipartite instance: K_2
    assert is_bipartite(GraphParams(build_tower(2, 1, 1), 1))


def _bipartite_on_the_stored_table(params):
    """Reference: the parity test over every edge of the stored table."""
    nbr = neighbor_index_table(params)
    parity = bfs_distances(nbr, 0) % 2
    return not bool((parity[nbr] == parity[:, None]).any())


@pytest.mark.parametrize(
    "pmNn", [(2, 1, 1, 1), (2, 1, 2, 1), (2, 1, 3, 2), (3, 1, 2, 2), (2, 2, 2, 2), (5, 1, 2, 1)]
)
def test_bipartiteness_builds_no_table_and_matches_the_stored_table(monkeypatch, pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    expected = _bipartite_on_the_stored_table(params)
    assert expected == (params.order == 2)  # only K_2 has no triangle
    monkeypatch.setattr(graph_module, "neighbor_index_table", _no_table)
    assert is_bipartite(params) == expected


def test_bipartiteness_stops_at_the_first_block(monkeypatch):
    add_digits = graph_module.add_digits
    sizes = []

    def recorded(*args, **kwargs):
        out = add_digits(*args, **kwargs)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(graph_module, "add_digits", recorded)
    for p, m, N, n in [(2, 1, 4, 3), (2, 1, 2, 1), (3, 1, 3, 2), (2, 2, 2, 2), (5, 1, 2, 1)]:
        params = GraphParams(build_tower(p, m, N), n)
        sizes.clear()
        assert not is_bipartite(params)
        # level 1 expands vertex 0; the first block of level 2 holds vertex
        # 1, whose row closes a triangle through 0 within level 1
        assert sum(sizes) <= params.degree + max(RANK_BLOCK, params.degree)
    sizes.clear()
    assert is_bipartite(GraphParams(build_tower(2, 1, 1), 1))  # K_2 walks to the end
    assert sizes == [1, 1]


def _translation_invariant(params, nbr, translations=None):
    """Reference: every translation t (all of them when translations is None)
    maps the edges of each u onto those of u + t, compared by sorting the
    whole table once per translation."""
    p, width = params.tower.p, params.width
    vertices = np.arange(params.order, dtype=np.int64)
    for t in range(params.order) if translations is None else translations:
        image = add_digits(vertices, t, p, width)
        if not np.array_equal(np.sort(image[nbr], axis=1), np.sort(nbr[image], axis=1)):
            return False
    return True


def test_vertex_transitivity_exhaustive():
    for params in (P222, GraphParams(build_tower(2, 1, 3), 3), P322):
        assert _translation_invariant(params, neighbor_index_table(params))
        assert check_vertex_transitivity(params)


def test_vertex_transitivity_sampled():
    """The translation M2 - M1 between consecutive sampled matrices carries
    M1 onto M2 and preserves adjacency, as the one-pass check asserts for all."""
    p, width = P322.tower.p, P322.width
    mats = list(enumerate_matrices(P322.tower, 3, 2))[:6]
    pairs = [(mat_index(M1), mat_index(M2)) for M1, M2 in zip(mats, mats[1:])]
    translations = [int(add_digits(v2, v1, p, width, sign=-1)) for v1, v2 in pairs]
    for (v1, v2), t in zip(pairs, translations):
        assert add_digits(v1, t, p, width) == v2
    assert _translation_invariant(P322, neighbor_index_table(P322), translations)
    assert check_vertex_transitivity(P322)


def test_vertex_transitivity_detects_a_non_translation_invariant_table(monkeypatch):
    table = neighbor_index_table(P222).copy()
    table[0, 0] = table[0, 1]  # one edge of vertex 0 rerouted
    monkeypatch.setattr(graph_module, "neighbor_index_table", lambda params, budget: table)
    assert not check_vertex_transitivity(P222)


@pytest.mark.parametrize("Nnq", [(4, 3, 2), (3, 2, 3), (2, 2, 4)])
def test_vertex_transitivity_in_one_pass(monkeypatch, Nnq):
    N, n, q = Nnq
    p, m = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    params = GraphParams(build_tower(p, m, N), n)
    sizes = []

    def recorded(*args, **kwargs):
        out = add_digits(*args, **kwargs)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(graph_module, "add_digits", recorded)
    start = time.perf_counter()
    assert check_vertex_transitivity(params)
    assert time.perf_counter() - start < 1.0  # the per-translation sorts are O(order^2 x degree)
    assert max(sizes) <= max(RANK_BLOCK, params.degree)


@pytest.mark.parametrize("pmNn", [(2, 1, 4, 3), (3, 1, 3, 2), (2, 2, 2, 2)])
def test_vertex_transitivity_sorts_rows_out_of_column_order(monkeypatch, pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    table = neighbor_index_table(params).copy()
    # every row but row 0 permuted alike: the same edges, listed in another order
    perm = np.roll(np.arange(params.degree), 1)
    table[1:] = table[1:, perm]
    diffs = add_digits(table, np.arange(params.order)[:, None], p, params.width, sign=-1)
    block = max(1, RANK_BLOCK // params.degree)
    assert all((diffs[lo : lo + block] != table[0]).any() for lo in range(0, params.order, block))
    monkeypatch.setattr(graph_module, "neighbor_index_table", lambda params, budget: table)
    assert check_vertex_transitivity(params)
    table[params.order - 1, 0] = table[params.order - 1, 1]  # one edge of the last row rerouted
    assert not check_vertex_transitivity(params)


def _record_signs(monkeypatch):
    """Record the sign of every ``add_digits`` call the graph module makes."""
    add_digits = graph_module.add_digits
    signs = []

    def recorded(a, b, p, width, sign=1):
        signs.append(sign)
        return add_digits(a, b, p, width, sign=sign)

    monkeypatch.setattr(graph_module, "add_digits", recorded)
    return signs


@pytest.mark.parametrize("pmNn", [(2, 1, 4, 3), (3, 1, 3, 2), (5, 1, 2, 2), (2, 2, 2, 2), (3, 2, 2, 1)])
def test_vertex_transitivity_on_a_clean_table_computes_no_differences(monkeypatch, pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    table = neighbor_index_table(params)
    monkeypatch.setattr(graph_module, "neighbor_index_table", lambda params, budget: table)
    signs = _record_signs(monkeypatch)
    assert check_vertex_transitivity(params)
    assert signs and -1 not in signs
    # a block whose rows are out of column order has its differences sorted
    permuted = table.copy()
    permuted[1:] = permuted[1:, np.roll(np.arange(params.degree), 1)]
    monkeypatch.setattr(graph_module, "neighbor_index_table", lambda params, budget: permuted)
    signs.clear()
    assert check_vertex_transitivity(params)
    assert -1 in signs


def _corrupted(table, kind, params, rng):
    """A copy of the neighbor table with one corruption; the shuffled row and
    the translated column keep it translation invariant."""
    table = table.copy()
    V, deg = table.shape
    r, c = rng.integers(V), rng.integers(deg)
    if kind == "reroute":
        table[r, c] = table[r, (c + 1 + rng.integers(deg - 1)) % deg]
    elif kind == "shuffle row":
        table[r] = rng.permutation(table[r])
    elif kind == "translate column":
        table[:, c] = add_digits(table[:, c], rng.integers(V), params.tower.p, params.width)
    else:
        table[r, c] = rng.integers(V)
    return table


# (p, m, N, n) of the corrupted-table tests
CORRUPTED_PMNN = [(2, 1, 2, 2), (3, 1, 2, 2), (2, 1, 3, 2), (2, 2, 2, 1), (2, 2, 2, 2), (3, 1, 1, 1), (5, 1, 2, 1)]


@pytest.mark.parametrize("pmNn", CORRUPTED_PMNN)
def test_vertex_transitivity_matches_the_reference_on_corrupted_tables(monkeypatch, pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    clean = neighbor_index_table(params)
    rng = np.random.default_rng(sum(pmNn))
    verdicts = []
    for i in range(40):
        kind = ("reroute", "shuffle row", "translate column", "random entry")[i % 4]
        table = _corrupted(clean, kind, params, rng)
        monkeypatch.setattr(graph_module, "neighbor_index_table", lambda params, budget: table)
        verdicts.append(_translation_invariant(params, table))
        assert check_vertex_transitivity(params) == verdicts[-1], (kind, i)
    assert set(verdicts) == {True, False}


# First mismatch after one edge of row r is rerouted, t[r, c] = t[r, s];
# values recorded with the one-source-at-a-time BFS it replaced.
@pytest.mark.parametrize(
    "params, rcs, expected",
    [
        (P222, (0, 0, 1), (0, 1, 2, 1)),
        (P223, (0, 0, 1), (0, 1, 2, 1)),
        (P322, (0, 0, 1), (0, 1, 2, 1)),
        (P222, (5, 2, 0), (5, 6, 2, 1)),
        (P223, (5, 2, 0), (5, 6, 2, 1)),
        (P322, (5, 2, 0), (5, 6, 2, 1)),
        (P222, (15, 1, 3), (15, 13, 2, 1)),
        (P223, (80, 1, 3), (80, 74, 2, 1)),
        (P322, (63, 1, 3), (63, 61, 2, 1)),
    ],
)
def test_distance_check_pins_first_mismatch(monkeypatch, params, rcs, expected):
    r, c, s = rcs
    table = neighbor_index_table(params).copy()
    table[r, c] = table[r, s]
    monkeypatch.setattr(graph_module, "neighbor_index_table", lambda params, budget: table)
    assert verify_distance_equals_rank(params) == expected


def _stacked_bfs(nbr):
    return np.stack([bfs_distances(nbr, s) for s in range(nbr.shape[0])])


def _deque_bfs(rows, source):
    """Reference: breadth-first search with a deque over ``rows``, the
    neighbor rows as lists; -1 marks an unreached vertex."""
    dist = [-1] * len(rows)
    dist[source] = 0
    queue = collections.deque([source])
    while queue:
        u = queue.popleft()
        for w in rows[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _rows_of(nbr):
    """The neighbor rows of a table or row source, one vertex at a time."""
    return [nbr[np.array([u])].ravel().tolist() for u in range(nbr.shape[0])]


def _first_mismatch(params, nbr):
    """Reference: the deque BFS from every source against the rank of
    v - u, first mismatch in (u, v) order."""
    vertices = np.arange(params.order, dtype=np.int64)
    diffs = add_digits(vertices, vertices[:, None], params.tower.p, params.width, sign=-1)
    expected = rank_table(params)[diffs].tolist()
    rows = _rows_of(nbr)
    for u in range(params.order):
        dist = _deque_bfs(rows, u)
        for v in range(params.order):
            if dist[v] != expected[u][v]:
                return (u, v, dist[v], expected[u][v])
    return None


# every (p, m, N, n) of the pmNn lists in this file
ALL_PMNN = [
    (2, 1, 1, 1), (2, 1, 2, 1), (2, 1, 2, 2), (2, 1, 3, 1), (2, 1, 3, 2), (2, 1, 3, 3), (2, 1, 4, 3),
    (2, 1, 5, 2), (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (3, 1, 1, 1), (3, 1, 2, 1), (3, 1, 2, 2),
    (3, 1, 3, 2), (3, 2, 2, 1), (3, 2, 2, 2), (5, 1, 1, 1), (5, 1, 2, 1), (5, 1, 2, 2),
]


@pytest.mark.parametrize("pmNn", ALL_PMNN)
def test_bfs_distances_match_a_deque_bfs(pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    budget = params.order * params.degree
    # one source on (3,2,2,2), whose 5,248,800 entries the reference walks slowly
    sources = sorted({0, params.order // 3, params.order - 1}) if budget <= 1 << 20 else [0]
    for nbr in (neighbor_index_table(params, budget), graph_module._StepRows(params, budget)):
        rows = _rows_of(nbr)
        for s in sources:
            assert bfs_distances(nbr, s).tolist() == _deque_bfs(rows, s), (s, type(nbr))


@pytest.mark.parametrize("pmNn", CORRUPTED_PMNN)
def test_bfs_distances_match_a_deque_bfs_on_corrupted_tables(pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    clean = neighbor_index_table(params)
    rng = np.random.default_rng(sum(pmNn))
    kinds = ("reroute", "shuffle row", "translate column", "random entry")
    tables = [_corrupted(clean, kinds[i % 4], params, rng) for i in range(40)]
    # vertex V - 1 loses every in-edge: each entry naming it names the next column's vertex
    orphaned = clean.copy()
    r, c = np.nonzero(clean == params.order - 1)
    orphaned[r, c] = clean[r, (c + 1) % params.degree]
    tables.append(orphaned)
    for table in tables:
        rows = _rows_of(table)
        for s in sorted({0, int(rng.integers(params.order)), params.order - 1}):
            assert bfs_distances(table, s).tolist() == _deque_bfs(rows, s), s
    dist = bfs_distances(orphaned, 0)
    assert dist[-1] == -1 and (dist[:-1] >= 0).all()


@pytest.mark.parametrize("V, deg", [(64, 8), (100, 7), (50, 50)])
def test_bfs_distances_match_a_deque_bfs_on_a_cycle_with_repeated_entries(V, deg):
    # each row names its successor deg times, so the fresh counts overshoot
    # the vertices reached and the unreached vertices are listed many times
    cycle = np.repeat(((np.arange(V) + 1) % V)[:, None], deg, axis=1)
    assert bfs_distances(cycle, 0).tolist() == _deque_bfs(cycle.tolist(), 0) == list(range(V))
    cycle[V - 2] = 0  # vertex V - 1 loses its only in-edge
    assert bfs_distances(cycle, 0).tolist() == _deque_bfs(cycle.tolist(), 0) == list(range(V - 1)) + [-1]


@pytest.mark.parametrize("pmNn", [(2, 1, 2, 2), (3, 1, 2, 2), (5, 1, 2, 1), (2, 2, 2, 1)])
def test_distance_check_matches_the_per_source_reference(monkeypatch, pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    clean = neighbor_index_table(params)
    assert _first_mismatch(params, clean) is None
    assert verify_distance_equals_rank(params) is None
    rng = np.random.default_rng(sum(pmNn))
    outcomes = []
    for i in range(40):
        kind = ("reroute", "shuffle row", "translate column", "random entry")[i % 4]
        table = _corrupted(clean, kind, params, rng)
        monkeypatch.setattr(graph_module, "neighbor_index_table", lambda params, budget: table)
        outcomes.append(_first_mismatch(params, table))
        assert verify_distance_equals_rank(params) == outcomes[-1], (kind, i)
    assert None in outcomes
    # some first mismatches lie past source 0, where only a table failing
    # the translation check is walked
    assert any(found is not None and found[0] > 0 for found in outcomes)


@pytest.mark.parametrize("pmNn", [(2, 1, 3, 3), (3, 1, 3, 2), (2, 2, 2, 2), (2, 1, 5, 2)])
def test_distance_check_on_a_clean_table_walks_one_source(monkeypatch, pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    sources = []

    def recorded(nbr, source):
        sources.append(source)
        return bfs_distances(nbr, source)

    monkeypatch.setattr(graph_module, "bfs_distances", recorded)
    assert verify_distance_equals_rank(params) is None
    assert sources == [0]


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


@pytest.mark.parametrize("Nnq", [(3, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 3), (2, 2, 9)])
def test_rank_table_matches_per_matrix_rank(Nnq):
    N, n, q = Nnq
    p, m = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}[q]
    tower = build_tower(p, m, N)
    params = GraphParams(tower, n)
    expected = [rank(mat_from_index(tower, N, n, v)) for v in range(params.order)]
    assert rank_table(params).tolist() == expected
    # the same helper on vector indices: n base-q^N digits
    expected = [column_rank(vec_from_index(tower, n, v)) for v in range(params.order)]
    assert index_ranks(tower, q**N, n).tolist() == expected


def test_index_ranks_are_built_once_and_read_only():
    tower = build_tower(3, 1, 2)
    table = index_ranks(tower, 9, 2)
    assert index_ranks(tower, 9, 2) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1


def test_pair_queries_share_one_read_only_step_array():
    params = GraphParams(build_tower(3, 1, 2), 2)
    rows = graph_module._StepRows(params, budget=10**6)
    assert rows._steps is graph_module._StepRows(params, budget=10**6)._steps
    assert rows._steps.dtype == np.int64 and not rows._steps.flags.writeable
    assert len(rows._steps) == params.degree


# Output of export_dot and export_edgelist_csv, recorded before both read
# their edges from the neighbor index table.
EXPORT_SHA256 = {
    (2, 2, 2, "dot"): "43abf06235c7333fc1446c486b6f9d52fa9b97c6caa7f3587470dae7f99a6303",
    (2, 2, 2, "csv"): "634621e2b2ed6c4e8b8c67b0af69b586f801bc5fbecfc2a430d152583f20abcf",
}


def test_export_bytes_are_pinned():
    assert hashlib.sha256(export_dot(P222).encode()).hexdigest() == EXPORT_SHA256[2, 2, 2, "dot"]
    csv = export_edgelist_csv(P222)
    assert hashlib.sha256(csv.encode()).hexdigest() == EXPORT_SHA256[2, 2, 2, "csv"]
    k3 = GraphParams(build_tower(3, 1, 1), 1)
    assert export_dot(k3) == (
        'graph matrix_graph {\n  "0";\n  "1";\n  "2";\n'
        '  "0" -- "1";\n  "0" -- "2";\n  "1" -- "2";\n}\n'
    )
    assert export_edgelist_csv(k3) == "u,v\n0,1\n0,2\n1,2\n"


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


def test_bfs_budget(monkeypatch):
    big = GraphParams(build_tower(2, 1, 5), 5)
    z = zero_matrix(big.tower, 5, 5)
    other = mat_from_index(big.tower, 5, 5, 1)
    with pytest.raises(BudgetExceededError):
        graph_distance_bfs(z, other, budget=1000)
    # the cached BFS from 0 is one read-only array per graph, shared by the
    # pair queries and the eccentricity, and reading it still costs the budget
    params = GraphParams(build_tower(2, 1, 4), 3)
    entries = params.order * params.degree
    z, one = zero_matrix(params.tower, 4, 3), mat_from_index(params.tower, 4, 3, 1)
    distances, served = graph_module._distances_from_zero, []

    def recorded(*args):
        served.append(distances(*args))
        return served[-1]

    monkeypatch.setattr(graph_module, "_distances_from_zero", recorded)
    assert graph_distance_bfs(z, one, budget=entries) == 1
    assert eccentricity_of_zero(params, budget=entries) == 3
    assert served[0] is served[1] and not served[0].flags.writeable
    with pytest.raises(ValueError):
        served[0][0] = 1
    with pytest.raises(BudgetExceededError):
        graph_distance_bfs(z, one, budget=entries - 1)
    with pytest.raises(BudgetExceededError):
        eccentricity_of_zero(params, budget=entries - 1)


# (p, m, N, n): q = 2, 3, 4 = 2^2 and 9 = 3^2
PAIR_WALK_PARAMS = [(2, 1, 4, 3), (3, 1, 3, 2), (5, 1, 2, 2), (2, 2, 2, 2), (3, 2, 2, 1)]


def _pairs_of_each_rank(params, per_rank, seed):
    """Seeded (M1, M2, r) with rank(M2 - M1) = r, ``per_rank`` for each r = 0..n."""
    rng = np.random.default_rng(seed)
    rank_of = rank_table(params)
    N, n = params.N, params.n
    for r in range(n + 1):
        for diff in rng.choice(np.flatnonzero(rank_of == r), size=per_rank):
            M1 = mat_from_index(params.tower, N, n, int(rng.integers(params.order)))
            yield M1, M1 + mat_from_index(params.tower, N, n, int(diff)), r


def _no_table(*args, **kwargs):
    raise AssertionError("built a neighbor index table")


@pytest.mark.parametrize("pmNn", PAIR_WALK_PARAMS)
def test_pair_walk_builds_no_table(monkeypatch, pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    pairs = list(_pairs_of_each_rank(params, per_rank=4, seed=sum(pmNn)))
    monkeypatch.setattr(graph_module, "neighbor_index_table", _no_table)
    for M1, M2, r in pairs:
        assert graph_distance_bfs(M1, M2) == rank_distance(M1, M2) == r


@pytest.mark.parametrize("pmNn", [(2, 1, 4, 3), (3, 1, 3, 2)])
def test_pair_queries_walk_once_from_zero(monkeypatch, pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    (M1, M2, r), *later = _pairs_of_each_rank(params, per_rank=2, seed=7)
    bfs, add_digits = graph_module.bfs_distances, graph_module.add_digits
    sources, sizes = [], []

    def recorded_bfs(nbr, source):
        sources.append(source)
        return bfs(nbr, source)

    def recorded_add(*args, **kwargs):
        out = add_digits(*args, **kwargs)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(graph_module, "bfs_distances", recorded_bfs)
    monkeypatch.setattr(graph_module, "add_digits", recorded_add)
    assert graph_distance_bfs(M1, M2) == r
    assert sources == [0]
    assert 0 < max(sizes) <= max(RANK_BLOCK, params.degree)
    sources.clear()
    sizes.clear()
    # every later query on the graph, and its eccentricity, read the array
    for M1, M2, r in later:
        assert graph_distance_bfs(M1, M2) == r
    assert eccentricity_of_zero(params) == n
    assert sources == sizes == []


def _add_digit_by_digit(a, b, p, width, sign=1):
    """Reference for ``add_digits``: each operand expanded into a (..., width)
    array of base-p digits, summed digit by digit mod p and folded back."""
    if p == 2:
        return np.bitwise_xor(a, b)
    weights = p ** np.arange(width, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)[..., None] // weights % p
    b = np.asarray(b, dtype=np.int64)[..., None] // weights % p
    return (a + sign * b) % p @ weights


# (p, m, N, n) for (N,n,q) = (3,2,3), (2,2,5) and (2,2,9); with m = 2 the
# F_9 entries have two base-3 digits each, so a chunk of the table-driven
# addition can split an entry's digits.
ODD_P_GRAPHS = [(3, 1, 3, 2), (5, 1, 2, 2), (3, 2, 2, 2)]


@pytest.mark.parametrize("pmNn", ODD_P_GRAPHS)
def test_odd_p_tables_match_the_per_digit_rule(monkeypatch, pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    budget = params.order * params.degree  # 5,248,800 entries for (2,2,9)
    table = neighbor_index_table(params, budget)
    assert verify_distance_equals_rank(params, budget) is None
    monkeypatch.setattr(graph_module, "add_digits", _add_digit_by_digit)
    assert np.array_equal(neighbor_index_table(params, budget), table)


def test_odd_p_pairwise_violations_match_the_per_digit_rule(monkeypatch):
    params = GraphParams(build_tower(3, 1, 3), 2)
    rng = np.random.default_rng(323)
    colorings = [Coloring(params, "at-most-d", 1, (), 1, tag="one color")]
    for i in range(12):
        mode, d = (("at-most-d", 1), ("exactly-d", 1), ("exactly-d", 2))[i % 3]
        h = tuple(int(x) for x in rng.integers(0, params.tower.order, size=2))
        colorings.append(Coloring(params, mode, d, (h,), params.tower.order, tag="seeded", seed=i))
    fast = [find_violation(col, pairwise=True) for col in colorings]
    for module in (codes_module, coloring_module):
        monkeypatch.setattr(module, "add_digits", _add_digit_by_digit)
    assert [find_violation(col, pairwise=True) for col in colorings] == fast
    assert sum(pair is not None for pair in fast) >= 6
    assert None in fast


# (p, m, N, n): every vertex pair of these graphs is queried
ALL_PAIRS_QUERY_PARAMS = [(2, 1, 2, 2), (2, 1, 3, 2), (3, 1, 2, 2), (5, 1, 2, 1), (2, 2, 2, 1)]


def _one_sided(params, M1):
    """Distances from M1 by the one-sided walk over computed rows: no
    translation to 0, so it checks d(M1, M2) = d(0, M2 - M1)."""
    rows = graph_module._StepRows(params, budget=params.order * params.degree)
    return bfs_distances(rows, mat_index(M1))


def _pair_query_agrees(M1, M2, one_sided):
    """The pair query, the one-sided walk from M1 read at M2, and the rank."""
    dist = int(one_sided[mat_index(M2)])
    assert graph_distance_bfs(M1, M2) == dist == rank_distance(M1, M2)
    return dist


@pytest.mark.parametrize("pmNn", ALL_PAIRS_QUERY_PARAMS)
def test_pair_query_matches_the_one_sided_walk_on_every_pair(pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    mats = [mat_from_index(params.tower, N, n, v) for v in range(params.order)]
    found = set()
    for M1 in mats:
        one_sided = _one_sided(params, M1)
        found |= {_pair_query_agrees(M1, M2, one_sided) for M2 in mats}
    assert found == set(range(n + 1))


@pytest.mark.parametrize("pmNn", PAIR_WALK_PARAMS)
def test_pair_query_matches_the_one_sided_walk_on_seeded_pairs(pmNn):
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    for M1, M2, r in _pairs_of_each_rank(params, per_rank=4, seed=29 + sum(pmNn)):
        assert _pair_query_agrees(M1, M2, _one_sided(params, M1)) == r


@pytest.mark.parametrize("pmNn", PAIR_WALK_PARAMS + ALL_PAIRS_QUERY_PARAMS)
def test_negated_steps_are_the_steps(pmNn):
    # the graph is undirected, so d(0, M2 - M1) = d(0, M1 - M2): -R has rank 1 with R
    p, m, N, n = pmNn
    params = GraphParams(build_tower(p, m, N), n)
    steps = graph_module._rank_one_indices(params)
    negated = add_digits(0, steps, p, params.width, sign=-1)
    assert sorted(negated.tolist()) == sorted(steps.tolist())
    if p > 2:
        assert not np.array_equal(negated, steps)  # a real permutation, not the identity
