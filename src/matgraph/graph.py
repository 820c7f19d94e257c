"""The rank-distance-one adjacency graph on N x n matrices over F_q.

Vertices are all q^(Nn) matrices; two are adjacent when their difference has
rank 1, so the graph is the Cayley graph of (F_q^(N x n), +) with the
rank-one matrices as generators.  ``neighbors`` adds each rank-one matrix
to a ``MatFq``.  Everything else walks the graph on vertex indices, and
translates an index by every rank-one step in one place, the neighbor
rows that ``_StepRows`` computes on demand with ``linalg.add_digits``.
One level-expansion body (``_bfs_blocks``) walks either those rows or the
neighbor index table that stores them, and two walks drive it:
``bfs_distances``, which stops at the block that reaches the last vertex,
before the full-rank matrices of the last level are expanded; and the
bipartiteness check, which stops at its first edge within a level.  As
d(M1, M2) = d(0, M2 - M1), pair queries (``graph_distance_bfs``) and the
eccentricity read one cached BFS from 0 per graph.  Only the all-pairs
check, the translation check and the exports build the table.
Every translation preserves the edges iff every row u of the stored table
has the multiset of differences w - u of row 0, so
``check_vertex_transitivity`` is one pass over the table, which sorts only
the blocks whose rows are not u + row 0 in column order.  A table that
passes is the Cayley digraph of row 0's entries, translation by u is an
automorphism of it, and d(u, v) = d(0, v - u).  So when the BFS from 0
agrees with the rank of every vertex, d(u, v) equals the rank of v - u
for every pair, and ``verify_distance_equals_rank`` walks one source.  A
table that fails is searched for its witness source by source, u = 0,
1, ..., up to the first mismatch: on (N,n,q) = (4,3,2) the clean check
takes a median of 2.3 ms (7 repeats of 5 calls), and one with row 4095
corrupted about 2.3 s (one core of a 2-vCPU Xeon host).  The exports
name each vertex by ``linalg.mat_label``.

``GraphParams`` and ``neighbors`` need no numpy; the index
tables, the BFS and the exports import it on first use, through
``matgraph._numpy``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from ._budget import DEFAULT_BUDGET, EXPORT_BUDGET
from ._numpy import np
from .gftower import FieldTower, _add_digits
from .linalg import (
    RANK_BLOCK,
    MatFq,
    add_digits,
    check_budget,
    count_rank_k,
    entries_label,
    enumerate_rank_one,
    index_ranks,
    mat_index,
    to_digits_array,
)
# Not called here; kept bound because benchmarks/tracing.py wraps it by name.
from .linalg import rank  # noqa: F401


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

    # Computed once per instance; equality and hash still read (tower, n).
    @functools.cached_property
    def order(self) -> int:
        return self.q ** (self.N * self.n)

    @functools.cached_property
    def degree(self) -> int:
        return count_rank_k(self.N, self.n, self.q, 1)

    @property
    def width(self) -> int:
        """Base-p digits of a vertex index: the F_p coordinates of a matrix."""
        return self.N * self.n * self.tower.m


# One GraphParams per (tower, n) for the pair queries, so that each query
# reuses its order and degree.
_shared_params = functools.lru_cache(maxsize=32)(GraphParams)


def neighbors(M: MatFq, budget: int = DEFAULT_BUDGET) -> Iterator[MatFq]:
    """All vertices at rank distance exactly 1 from M, in rank-one order."""
    for R in enumerate_rank_one(M.tower, M.rows, M.cols, budget=budget):
        yield M + R


@functools.lru_cache(maxsize=32)
def _rank_one_indices(params: GraphParams) -> np.ndarray:
    """Vertex index of each rank-one matrix, in rank-one order: the steps,
    as one read-only int64 array shared by every ``_StepRows``."""
    rank_one = enumerate_rank_one(params.tower, params.N, params.n)
    steps = np.array([mat_index(R) for R in rank_one], dtype=np.int64)
    steps.flags.writeable = False
    return steps


class _StepRows:
    """Neighbor rows computed on demand: ``rows[v]`` adds every rank-one
    step to each vertex of the array v.  The budget counts the order x
    degree table entries, stored or not, so jobs fit the same budgets."""

    def __init__(self, params: GraphParams, budget: int) -> None:
        check_budget(params.order * params.degree, budget)
        self.shape = (params.order, params.degree)
        self._steps = _rank_one_indices(params)
        self._p, self._width = params.tower.p, params.width

    def __getitem__(self, vertices: np.ndarray) -> np.ndarray:
        return add_digits(vertices[:, None], self._steps, self._p, self._width)


def graph_distance_bfs(M1: MatFq, M2: MatFq, budget: int = DEFAULT_BUDGET) -> int:
    """Shortest-path length between M1 and M2, read as d(0, M2 - M1) from
    the graph's cached BFS from 0: translation by -M1 is an automorphism.

    The budget counts the order x degree entries and is checked before the
    array is read, so a query fits the same budgets cached or not.  On one
    core of a 2-vCPU Xeon a warm query takes 3-5 us; the first on a graph
    walks from 0, 0.23 ms on (N,n,q) = (4,3,2), 0.1 ms on (3,2,3) and
    8 ms on (4,4,2).  Builds no neighbor table."""
    if (M1.rows, M1.cols) != (M2.rows, M2.cols) or M1.tower != M2.tower:
        raise ValueError("vertices belong to different graphs")
    if M1.rows != M1.tower.N:
        raise ValueError(f"vertices must have N = {M1.tower.N} rows, have {M1.rows}")
    params = _shared_params(M1.tower, M1.cols)
    dist = _distances_from_zero(params, budget)
    return int(dist[_add_digits(mat_index(M2), mat_index(M1), params.tower.p, -1)])


def _distances_from_zero(params: GraphParams, budget: int) -> np.ndarray:
    """d(0, v) for every vertex v, -1 if unreached, as one read-only array
    per graph; the budget is checked on every call, before the cache."""
    check_budget(params.order * params.degree, budget)
    return _bfs_from_zero(params)


@functools.lru_cache(maxsize=32)
def _bfs_from_zero(params: GraphParams) -> np.ndarray:
    dist = bfs_distances(_StepRows(params, params.order * params.degree), 0)
    dist.flags.writeable = False
    return dist


# ---------------------------------------------------------------------------
# dense verification helpers (numpy)
# ---------------------------------------------------------------------------

def neighbor_index_table(params: GraphParams, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """(order, degree) array: row v lists the vertex indices adjacent to v,
    column j being v plus rank-one step j.

    Filled from ``_StepRows`` in blocks of about RANK_BLOCK entries."""
    rows = _StepRows(params, budget)
    table = np.empty(rows.shape, dtype=np.int32)
    block = max(1, RANK_BLOCK // params.degree)
    for lo in range(0, params.order, block):
        table[lo : lo + block] = rows[np.arange(lo, min(lo + block, params.order))]
    return table


def _bfs_blocks(nbr, dist: np.ndarray, source: int) -> Iterator[tuple[int, np.ndarray, int]]:
    """The one level-expansion body: BFS from ``source`` over the rows of
    ``nbr``, writing levels into ``dist`` (all -1 on entry).

    Yields (level, candidates, fresh) for each block: first
    (0, [source], 1), then for level L = 1, 2, ... the neighbor rows
    of about RANK_BLOCK entries of the frontier at L - 1, after the unseen
    candidates are marked L.  ``fresh`` counts those unseen candidates,
    repeats included, so it bounds the vertices the block reached first.
    The generator expands every level; a walk that needs less stops
    drawing blocks.
    """
    block = max(1, RANK_BLOCK // nbr.shape[1])
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    yield 0, frontier, 1
    level = 0
    while frontier.size:
        level += 1
        for lo in range(0, frontier.size, block):
            cand = nbr[frontier[lo : lo + block]].ravel()
            fresh = cand[dist[cand] < 0]
            dist[fresh] = level
            yield level, cand, fresh.size
        frontier = np.flatnonzero(dist == level)


def bfs_distances(nbr, source: int) -> np.ndarray:
    """Distance from ``source`` to every vertex, by level BFS; -1 if unreached.

    ``nbr`` maps an array of vertices to their neighbor rows: the stored
    ``neighbor_index_table`` or ``_StepRows``.  Frontiers expand in blocks
    of about RANK_BLOCK entries, and the walk stops at the first block
    after which no vertex is unreached: expanding further marks nothing.
    On the matrix graph that skips the last level, the full-rank matrices,
    which is most of the graph.  The test is exact and cheap: the blocks'
    ``fresh`` counts bound the vertices first reached, so the unreached
    vertices are listed only once the counts since the last listing reach
    their number, and each later listing filters the previous one.  A
    listing thus costs no more entries than the blocks before it, and
    the distances are those of the full walk.
    """
    dist = np.full(nbr.shape[0], -1, dtype=np.int16)
    unseen = None  # the vertices unreached at the last listing
    left, reached = dist.size, 0  # their number; fresh counts since
    for _, _, fresh in _bfs_blocks(nbr, dist, source):
        reached += fresh
        if reached < left:
            continue
        unseen = np.flatnonzero(dist < 0) if unseen is None else unseen[dist[unseen] < 0]
        if not unseen.size:
            break
        left, reached = unseen.size, 0
    return dist


def rank_table(params: GraphParams, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Rank of every vertex matrix, indexed by vertex index."""
    check_budget(params.order, budget)
    return index_ranks(params.tower, params.q ** params.n, params.N)


def verify_distance_equals_rank(
    params: GraphParams, budget: int = DEFAULT_BUDGET
) -> tuple[int, int, int, int] | None:
    """Check d(u, v) == rank(u - v) for every ordered vertex pair.

    Walks sources u = 0, 1, ... by ``bfs_distances`` over the stored table
    and compares each distance row with the rank of v - u.  When every row
    of the table has the differences of row 0, the table is the Cayley
    digraph of row 0's entries, so d(u, v) = d(0, v - u) and source 0
    decides every pair; otherwise each source is walked until one
    mismatches.  Returns None when all pairs agree, otherwise the first
    mismatch, smallest u and then smallest v, as
    (u, v, bfs_distance, rank_distance).
    """
    nbr = neighbor_index_table(params, budget=budget)
    rank_of = rank_table(params, budget=budget)
    cayley = _rows_have_row0_differences(params, nbr)
    p, width = params.tower.p, params.width
    vertices = np.arange(params.order, dtype=np.int64)
    for u in range(params.order):
        dist = bfs_distances(nbr, u)
        expected = rank_of[add_digits(vertices, u, p, width, sign=-1)]
        wrong = np.flatnonzero(dist != expected)
        if wrong.size:
            v = int(wrong[0])
            return (u, v, int(dist[v]), int(expected[v]))
        if cayley:
            return None
    return None


def eccentricity_of_zero(params: GraphParams, budget: int = DEFAULT_BUDGET) -> int:
    """Largest BFS distance from the zero matrix, read from the graph's
    cached BFS from 0 over computed rows; equals the diameter."""
    dist = _distances_from_zero(params, budget)
    if (dist < 0).any():
        raise AssertionError("graph is disconnected")
    return int(dist.max())


def is_bipartite(params: GraphParams, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether no edge joins two vertices of the same BFS level from 0,
    which for a connected graph is bipartiteness.

    Walks computed rows and builds no table.  An edge (u, w) within level
    L - 1 shows up while level L is expanded, as a candidate w of u's row
    with dist[w] == L - 1, so the walk stops at the first block that holds
    one.  A graph with more than two vertices has a triangle through
    vertices 0 and 1, so the first block of level 2, which holds vertex 1,
    decides."""
    rows = _StepRows(params, budget)
    dist = np.full(params.order, -1, dtype=np.int16)
    blocks = _bfs_blocks(rows, dist, 0)
    return not any((dist[cand] == level - 1).any() for level, cand, _ in blocks)


def _rows_have_row0_differences(params: GraphParams, nbr: np.ndarray) -> bool:
    """Whether every translation maps the edges of table ``nbr`` onto itself.

    Translation by t maps the edge set onto itself iff the multiset of
    differences w - u over row u of the table equals that of row u + t, for
    every u.  So every translation does iff every row has the difference
    multiset of row 0: one pass over the table, in blocks of about
    RANK_BLOCK entries.  Translation is a bijection, so a row u with
    w_j == u + row0[j] in every column j has row 0's differences in column
    order, and so its multiset; the differences are computed and sorted
    only for a block that fails that forward test.
    """
    p, width = params.tower.p, params.width
    row0 = nbr[0]  # vertex 0 is the zero matrix: its differences are its entries
    row0_sorted = np.sort(row0)
    block = max(1, RANK_BLOCK // params.degree)
    for lo in range(0, params.order, block):
        hi = min(lo + block, params.order)
        u = np.arange(lo, hi)[:, None]
        if (nbr[lo:hi] == add_digits(u, row0, p, width)).all():
            continue
        diffs = add_digits(nbr[lo:hi], u, p, width, sign=-1)
        if not (np.sort(diffs, axis=1) == row0_sorted).all():
            return False
    return True


def check_vertex_transitivity(params: GraphParams, budget: int = DEFAULT_BUDGET) -> bool:
    """Verify that translations are adjacency-preserving, on the stored
    neighbor table; they act transitively by construction."""
    return _rows_have_row0_differences(params, neighbor_index_table(params, budget))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _edges_and_labels(params: GraphParams, budget: int) -> tuple[np.ndarray, list[str]]:
    """Each undirected edge once as a (u, w) row with u < w, in table-row
    order, and the ``linalg.mat_label`` of every vertex.

    ``budget`` bounds the edges; the neighbor table holds each edge twice.
    """
    nbr = neighbor_index_table(params, budget=2 * budget)
    u, j = np.nonzero(nbr > np.arange(params.order)[:, None])
    digits = to_digits_array(np.arange(params.order), params.q, params.N * params.n)
    labels = [entries_label(row, params.q) for row in digits[:, ::-1].tolist()]
    return np.column_stack([u, nbr[u, j]]), labels


def export_dot(params: GraphParams, budget: int = EXPORT_BUDGET) -> str:
    """DOT text for the whole graph; vertices are named by ``linalg.mat_label``.

    ``budget`` bounds the vertex and edge lines together."""
    check_budget(params.order + params.order * params.degree // 2, budget)
    edges, labels = _edges_and_labels(params, budget)
    lines = ["graph matrix_graph {"]
    lines += [f'  "{label}";' for label in labels]
    lines += [f'  "{labels[u]}" -- "{labels[w]}";' for u, w in edges.tolist()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_edgelist_csv(params: GraphParams, budget: int = EXPORT_BUDGET) -> str:
    """CSV edge list under a ``u,v`` header, one undirected edge per line as
    the two ``linalg.mat_label``s; a label holding a comma is quoted.

    ``budget`` bounds the edge lines."""
    check_budget(params.order * params.degree // 2, budget)
    edges, labels = _edges_and_labels(params, budget)
    # A label holds no quote or newline, so quoting is the whole CSV escape.
    labels = [f'"{label}"' if "," in label else label for label in labels]
    lines = ["u,v"] + [f"{labels[u]},{labels[w]}" for u, w in edges.tolist()]
    return "\n".join(lines) + "\n"
