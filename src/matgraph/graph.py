"""The rank-distance-one adjacency graph on N x n matrices over F_q.

Vertices are all q^(Nn) matrices; two are adjacent when their difference has
rank 1.  The graph is never materialized: neighbor iteration adds each
rank-one matrix to the current vertex.  Dense helpers (neighbor index table,
level BFS) exist for exhaustive verification at small orders and are the
independent oracle for the claim that graph distance equals rank distance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .gftower import FieldTower
from .linalg import (
    DEFAULT_BUDGET,
    RANK_BLOCK,
    MatFq,
    check_budget,
    enumerate_rank_one,
    fq_tables,
    index_digits,
    mat_from_index,
    mat_index,
    mat_label,
    rank_one_count,
    ranks,
)
# Not called here; kept bound because benchmarks/tracing.py wraps it by name.
from .linalg import rank  # noqa: F401

EXPORT_BUDGET = 1 << 16


@dataclass(frozen=True)
class GraphParams:
    """Parameters of the graph on tower.N x n matrices over F_q."""

    tower: FieldTower
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.tower.N:
            raise ValueError(f"need 1 <= n <= N = {self.tower.N}")

    @property
    def N(self) -> int:
        return self.tower.N

    @property
    def q(self) -> int:
        return self.tower.q

    @property
    def order(self) -> int:
        return self.q ** (self.N * self.n)

    @property
    def degree(self) -> int:
        return rank_one_count(self.N, self.n, self.q)


def degree(params: GraphParams) -> int:
    """(q^N - 1)(q^n - 1)/(q - 1), the common vertex degree."""
    return params.degree


def neighbors(M: MatFq, budget: int = DEFAULT_BUDGET) -> Iterator[MatFq]:
    """All vertices at rank distance exactly 1 from M, in rank-one order."""
    for R in enumerate_rank_one(M.tower, M.rows, M.cols, budget=budget):
        yield M + R


@functools.lru_cache(maxsize=32)
def _rank_one_indices(params: GraphParams) -> tuple[MatFq, ...]:
    return tuple(enumerate_rank_one(params.tower, params.N, params.n))


def graph_distance_bfs(M1: MatFq, M2: MatFq, budget: int = DEFAULT_BUDGET) -> int:
    """Shortest-path length between M1 and M2 by breadth-first search.

    Enumerates the component of M1 in the worst case, so the graph order
    must be within budget.
    """
    if (M1.rows, M1.cols) != (M2.rows, M2.cols) or M1.tower != M2.tower:
        raise ValueError("vertices belong to different graphs")
    params = GraphParams(M1.tower, M1.cols)
    check_budget(params.order, budget)
    if M1 == M2:
        return 0
    target = mat_index(M2)
    steps = _rank_one_indices(params)
    dist = {mat_index(M1): 0}
    frontier = [M1]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for R in steps:
                w = v + R
                widx = mat_index(w)
                if widx not in dist:
                    if widx == target:
                        return d
                    dist[widx] = d
                    nxt.append(w)
        frontier = nxt
    raise AssertionError("target not reached; matrix graphs are connected")


# ---------------------------------------------------------------------------
# dense verification helpers (numpy)
# ---------------------------------------------------------------------------

def _vertex_digits(params: GraphParams) -> np.ndarray:
    """(order, N*n) array of entry digits, entry (0,0) most significant."""
    return index_digits(np.arange(params.order), params.N * params.n, params.q)


def _radix(params: GraphParams) -> np.ndarray:
    D = params.N * params.n
    return np.array([params.q ** (D - 1 - t) for t in range(D)], dtype=np.int64)


def _translate(
    table: np.ndarray, digits: np.ndarray, by: np.ndarray, radix: np.ndarray
) -> np.ndarray:
    """Index of each digit row of ``digits`` combined entrywise with the digit
    row ``by`` through ``table`` (the F_q addition or subtraction table)."""
    return table[digits, by].astype(np.int64) @ radix


def neighbor_index_table(params: GraphParams, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """(order, degree) array: row v lists the vertex indices adjacent to v."""
    check_budget(params.order, budget)
    add = fq_tables(params.tower).add
    digits = _vertex_digits(params)
    radix = _radix(params)
    steps = _rank_one_indices(params)
    table = np.empty((params.order, len(steps)), dtype=np.int32)
    for j, R in enumerate(steps):
        table[:, j] = _translate(add, digits, np.array(R.entries, dtype=np.uint8), radix)
    return table


def bfs_distances(nbr: np.ndarray, source: int) -> np.ndarray:
    """Distance from ``source`` to every vertex, by level BFS; -1 if unreached."""
    V = nbr.shape[0]
    dist = np.full(V, -1, dtype=np.int16)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        cand = nbr[frontier].ravel()
        cand = cand[dist[cand] < 0]
        dist[cand] = level
        frontier = np.flatnonzero(dist == level)
    return dist


def rank_table(params: GraphParams, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Rank of every vertex matrix, indexed by vertex index."""
    check_budget(params.order, budget)
    N, n, q = params.N, params.n, params.q
    # Column j of a vertex matrix, read as base-q digits with row 0 least
    # significant, is the F_{q^N} encoding of word entry j.
    weights = (q ** np.arange(N, dtype=np.int64))[:, None]
    out = np.empty(params.order, dtype=np.uint8)
    for lo in range(0, params.order, RANK_BLOCK):
        idx = np.arange(lo, min(lo + RANK_BLOCK, params.order))
        digits = index_digits(idx, N * n, q).reshape(-1, N, n)
        out[lo : lo + len(idx)] = ranks(params.tower, (digits * weights).sum(axis=1))
    return out


def verify_distance_equals_rank(
    params: GraphParams, budget: int = DEFAULT_BUDGET
) -> tuple[int, int, int, int] | None:
    """Check d(u, v) == rank(u - v) for every ordered vertex pair.

    Runs a full BFS from every source and compares against the rank of the
    difference matrix.  Returns None when all pairs agree, otherwise the
    first mismatch as (u, v, bfs_distance, rank_distance).
    """
    check_budget(params.order, budget)
    nbr = neighbor_index_table(params, budget=budget)
    rank_of = rank_table(params, budget=budget)
    sub = fq_tables(params.tower).sub
    digits = _vertex_digits(params)
    radix = _radix(params)
    for u in range(params.order):
        dist = bfs_distances(nbr, u)
        diff_idx = _translate(sub, digits, digits[u], radix)
        expected = rank_of[diff_idx].astype(np.int16)
        if not np.array_equal(dist, expected):
            v = int(np.flatnonzero(dist != expected)[0])
            return (u, v, int(dist[v]), int(expected[v]))
    return None


def eccentricity_of_zero(params: GraphParams, budget: int = DEFAULT_BUDGET) -> int:
    """Largest BFS distance from the zero matrix; equals the diameter."""
    nbr = neighbor_index_table(params, budget=budget)
    dist = bfs_distances(nbr, 0)
    if (dist < 0).any():
        raise AssertionError("graph is disconnected")
    return int(dist.max())


def is_bipartite(params: GraphParams, budget: int = DEFAULT_BUDGET) -> bool:
    """Two-color by BFS parity from 0 and look for a same-parity edge."""
    nbr = neighbor_index_table(params, budget=budget)
    parity = bfs_distances(nbr, 0) % 2
    return not bool((parity[nbr] == parity[:, None]).any())


def check_vertex_transitivity(
    params: GraphParams,
    sample: Sequence[MatFq] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Verify that translations are adjacency-preserving and act transitively.

    For each translation T (all of them when sample is None), checks that the
    map v -> v + T sends the edge set onto itself, and that translating M1 by
    M2 - M1 lands on M2.
    """
    check_budget(params.order, budget)
    tower = params.tower
    nbr = neighbor_index_table(params, budget=budget)
    edges = {
        (u, int(w)) for u in range(params.order) for w in nbr[u]
    }
    if sample is None:
        translations = [
            mat_from_index(tower, params.N, params.n, t) for t in range(params.order)
        ]
    else:
        translations = [M2 - M1 for M1, M2 in zip(sample, sample[1:])]
        for M1, M2 in zip(sample, sample[1:]):
            if M1 + (M2 - M1) != M2:
                return False
    add = fq_tables(tower).add
    digits = _vertex_digits(params)
    radix = _radix(params)
    for T in translations:
        image = _translate(add, digits, np.array(T.entries, dtype=np.uint8), radix)
        mapped = {(int(image[u]), int(image[v])) for (u, v) in edges}
        if mapped != edges:
            return False
    return True


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _edge_iter(params: GraphParams) -> Iterator[tuple[int, int]]:
    steps = _rank_one_indices(params)
    for idx in range(params.order):
        v = mat_from_index(params.tower, params.N, params.n, idx)
        for R in steps:
            widx = mat_index(v + R)
            if idx < widx:
                yield idx, widx


def export_dot(params: GraphParams, budget: int = EXPORT_BUDGET) -> str:
    """DOT text for the whole graph; vertex labels are base-q digit strings.

    ``budget`` bounds the vertex and edge lines together."""
    check_budget(params.order + params.order * params.degree // 2, budget)
    lines = ["graph matrix_graph {"]
    for idx in range(params.order):
        lines.append(f'  "{mat_label(mat_from_index(params.tower, params.N, params.n, idx))}";')
    for u, w in _edge_iter(params):
        lu = mat_label(mat_from_index(params.tower, params.N, params.n, u))
        lw = mat_label(mat_from_index(params.tower, params.N, params.n, w))
        lines.append(f'  "{lu}" -- "{lw}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_edgelist_csv(params: GraphParams, budget: int = EXPORT_BUDGET) -> str:
    """CSV edge list, one undirected edge per line as u_label,v_label.

    ``budget`` bounds the edge lines."""
    check_budget(params.order * params.degree // 2, budget)
    lines = ["u,v"]
    for u, w in _edge_iter(params):
        lu = mat_label(mat_from_index(params.tower, params.N, params.n, u))
        lw = mat_label(mat_from_index(params.tower, params.N, params.n, w))
        lines.append(f"{lu},{lw}")
    return "\n".join(lines) + "\n"
