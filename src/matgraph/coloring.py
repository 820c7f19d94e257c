"""Distance colorings of the matrix graph via syndrome maps.

Both constructions color a vertex (seen as a length-n vector over F_{q^N})
by its syndrome v H^T under a parity matrix H over F_{q^N}, so two vertices
share a color exactly when their difference lies in the kernel code of H.

* at-most-d coloring: H is the parity matrix of a maximum-rank-distance code
  with minimum distance d + 1 (d rows), so no nonzero kernel word has rank
  <= d and vertices within rank distance d never collide.  This uses
  q^(Nd) colors, which matches the sphere/Singleton lower bound, so the
  at-most-d chromatic number is exactly q^(Nd) for d <= n.

* exactly-d coloring: H is found by randomized greedy search so that the
  kernel code contains no word of rank exactly d; the greedy draw is only a
  heuristic and every candidate H is verified by enumerating the kernel's
  rank spectrum before it is accepted.

Verification runs in two modes that must agree: a kernel scan (enumerate
kernel words, check their ranks) justified by linearity, and an
assumption-free full pairwise scan over all q^(Nn) vertices.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gftower import FieldTower
from .graph import GraphParams, _radix, _translate, _vertex_digits
from .codes import Rows, gabidulin_parity, parity_syndrome, span_blocks, word_rank_histogram
from .linalg import (
    DEFAULT_BUDGET,
    RANK_BLOCK,
    MatFq,
    VecExt,
    check_budget,
    fq_tables,
    index_digits,
    matrix_rank_over,
    matrix_to_vector,
    null_space,
    ranks,
    vec_from_index,
    vec_index,
)
# Not called here; kept bound because benchmarks/tracing.py wraps them by name.
from .codes import enumerate_span  # noqa: F401
from .linalg import _rank_bits, column_rank  # noqa: F401


@dataclass(frozen=True)
class Coloring:
    """A total syndrome coloring of the vertex set F_{q^N}^n.

    ``h_rows`` holds the parity matrix rows over F_{q^N} (possibly none, the
    one-color map).  ``num_colors`` is the declared color budget q^(N*rows);
    the realized count never exceeds it.
    """

    params: GraphParams
    mode: str  # "at-most-d" | "exactly-d"
    d: int
    h_rows: Rows
    num_colors: int
    tag: str
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("at-most-d", "exactly-d"):
            raise ValueError(f"unknown coloring mode {self.mode!r}")
        h_rows = tuple(tuple(r) for r in self.h_rows)
        for r in h_rows:
            if len(r) != self.params.n:
                raise ValueError("parity rows must have length n")
        expected = self.params.tower.order ** len(h_rows)
        if self.num_colors != expected:
            raise ValueError(f"num_colors is {self.num_colors}, but q^(N*rows) = {expected}")
        object.__setattr__(self, "h_rows", h_rows)

    def syndrome(self, v: VecExt | Sequence[int]) -> tuple[int, ...]:
        entries = v.entries if isinstance(v, VecExt) else tuple(v)
        return parity_syndrome(self.params.tower, self.h_rows, entries)

    def color_index(self, v: VecExt | Sequence[int]) -> int:
        """Syndrome coordinates concatenated as base-q digits, coordinate 0
        most significant."""
        idx = 0
        order = self.params.tower.order
        for s in self.syndrome(v):
            idx = idx * order + s
        return idx

    def color_of_matrix(self, M: MatFq) -> int:
        return self.color_index(matrix_to_vector(M))


@dataclass(frozen=True)
class ForbiddenDistanceCode:
    """An m x n parity matrix whose kernel code avoids rank exactly d.

    ``verified`` is set only after the kernel's rank spectrum has been
    enumerated and found to contain no word of rank d.
    """

    tower: FieldTower
    n: int
    m: int
    h_rows: Rows
    d: int
    verified: bool
    seed: int = 0
    restarts_used: int = 0


@dataclass(frozen=True)
class CliqueWitness:
    """Pairwise-adjacent matrices; its size lower-bounds the d=1 color count."""

    members: tuple[MatFq, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class SearchExhaustedError(RuntimeError):
    """The randomized search used all restarts without a verified matrix."""

    def __init__(self, restarts: int, best_rank_d_count: int, best_spectrum: dict[int, int]):
        super().__init__(
            f"no verified parity matrix after {restarts} restarts; "
            f"best attempt had {best_rank_d_count} kernel words at the forbidden rank"
        )
        self.restarts = restarts
        self.best_rank_d_count = best_rank_d_count
        self.best_spectrum = best_spectrum


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def d_distance_coloring(params: GraphParams, d: int) -> Coloring:
    """Proper coloring for rank distance at most d with q^(N min(d, n)) colors.

    For d <= n the parity matrix has d rows, its kernel being the
    maximum-rank-distance code with minimum distance d + 1 (dimension
    n - d); this achieves the optimal q^(Nd) colors.  The diameter is n, so
    for d >= n every pair of distinct vertices is within distance d and a
    proper coloring must separate everything; the d = n construction
    (kernel {0}, every vertex its own color) is reused.
    """
    if d < 1:
        raise ValueError("d must be positive")
    tower = params.tower
    rows = min(d, params.n)
    h_rows = gabidulin_parity(tower, params.n, rows)
    return Coloring(
        params,
        "at-most-d",
        d,
        h_rows,
        tower.order ** rows,
        tag="mrd-syndrome",
    )


def clique_d1(params: GraphParams, budget: int = DEFAULT_BUDGET) -> CliqueWitness:
    """The q^N matrices supported on column 0; any two are adjacent.

    Differences stay supported on a single column, hence have rank at most
    1, so the set is a clique and the distance-1 color count is at least
    q^N.
    """
    tower = params.tower
    check_budget(tower.order, budget)
    members = []
    for x in range(tower.order):
        digits = tower.expand(x)
        entries = [0] * (params.N * params.n)
        for i in range(params.N):
            entries[i * params.n] = digits[i]
        members.append(MatFq(tower, params.N, params.n, tuple(entries)))
    return CliqueWitness(tuple(members))


def forbidden_rows_target(params: GraphParams, d: int) -> int:
    """Row count for the exactly-d construction: the counting exponent
    ceil(log_q(2 + C(n-1, d-1) (q^N - 1)^(d-1))) rounded up to whole rows."""
    from .bounds import chi_exact_upper_exponent

    e = chi_exact_upper_exponent(params.N, params.n, params.q, d)
    return -(-e // params.N)


def search_forbidden_H(
    tower: FieldTower,
    n: int,
    d: int,
    m: int,
    seed: int = 0,
    restarts: int = 64,
    budget: int = DEFAULT_BUDGET,
    column_tries: int = 32,
) -> ForbiddenDistanceCode:
    """Randomized greedy search for an m x n parity matrix whose kernel
    avoids rank exactly d.

    Columns are drawn uniformly at random; a candidate lying in the span of
    d - 1 already-chosen columns is redrawn (up to ``column_tries`` times,
    after which the last draw is kept, since the greedy rule is only a
    heuristic).  Each completed matrix is verified by enumerating the kernel
    code and checking its rank spectrum; the first verified matrix wins.
    Deterministic for a fixed seed: restart r uses the derived seed
    (seed << 32) + r, so results do not depend on scheduling.
    """
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if not 1 <= n <= tower.N:
        raise ValueError(f"need 1 <= n <= N = {tower.N}")
    order = tower.order
    ext = tower.ext
    best_count: int | None = None
    best_spectrum: dict[int, int] = {}
    for r in range(restarts):
        rng = random.Random((seed << 32) + r)
        cols: list[tuple[int, ...]] = []
        for _ in range(n):
            take = min(d - 1, len(cols))
            bases = []
            for S in itertools.combinations(cols, take):
                rows = [list(c) for c in S]
                bases.append((rows, matrix_rank_over(rows, ext)))
            cand = None
            for _ in range(column_tries):
                cand = tuple(rng.randrange(order) for _ in range(m))
                ok = True
                for rows, base_rank in bases:
                    if matrix_rank_over(rows + [list(cand)], ext) == base_rank:
                        ok = False
                        break
                if ok:
                    break
            assert cand is not None
            cols.append(cand)
        h_rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(m))
        spectrum = kernel_rank_spectrum(tower, h_rows, n, budget=budget)
        count = spectrum.get(d, 0)
        if count == 0:
            return ForbiddenDistanceCode(
                tower, n, m, h_rows, d, verified=True, seed=seed, restarts_used=r + 1
            )
        if best_count is None or count < best_count:
            best_count = count
            best_spectrum = spectrum
    raise SearchExhaustedError(restarts, best_count or 0, best_spectrum)


def _kernel_blocks(tower: FieldTower, h_rows: Rows, n: int, budget: int):
    """Every word of the kernel code {v : v H^T = 0} in blocks, zero word first."""
    basis = tuple(null_space([list(r) for r in h_rows], n, tower.ext))
    return span_blocks(tower, basis, n, budget=budget)


def kernel_rank_spectrum(
    tower: FieldTower, h_rows: Rows, n: int, budget: int = DEFAULT_BUDGET
) -> dict[int, int]:
    """Rank histogram of the kernel code {v : v H^T = 0}."""
    return word_rank_histogram(tower, _kernel_blocks(tower, h_rows, n, budget))


def exact_d_coloring(
    params: GraphParams,
    d: int,
    seed: int = 0,
    m: int | None = None,
    restarts: int = 64,
    budget: int = DEFAULT_BUDGET,
) -> Coloring:
    """Proper coloring for rank distance exactly d with q^(N*m) colors.

    The default row count m comes from the counting bound via
    ``forbidden_rows_target``; pass ``m`` to override.  The parity matrix is
    found by ``search_forbidden_H`` and is always kernel-verified.
    """
    if not 1 <= d:
        raise ValueError("d must be positive")
    if d > params.n:
        return Coloring(params, "exactly-d", d, (), 1, tag="trivial", seed=seed)
    if m is None:
        m = forbidden_rows_target(params, d)
    found = search_forbidden_H(
        params.tower, params.n, d, m, seed=seed, restarts=restarts, budget=budget
    )
    return Coloring(
        params,
        "exactly-d",
        d,
        found.h_rows,
        params.tower.order ** m,
        tag=f"forbidden-search(restarts={found.restarts_used})",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _rank_in_violation(kind: str, w: np.ndarray, d: int) -> np.ndarray:
    """Which ranks of nonzero differences break the rule; rank 0 never does."""
    if kind == "le":
        return (w >= 1) & (w <= d)
    return (w >= 1) & (w == d)


def _kernel_violation(
    coloring: Coloring, d: int, kind: str, budget: int
) -> tuple[int, int] | None:
    tower = coloring.params.tower
    for block in _kernel_blocks(tower, coloring.h_rows, coloring.params.n, budget):
        bad = np.flatnonzero(_rank_in_violation(kind, ranks(tower, block), d))
        if bad.size:
            return (0, vec_index(VecExt(tower, tuple(block[bad[0]].tolist()))))
    return None


def _vector_rank_table(params: GraphParams) -> np.ndarray:
    """Column rank of every vector, indexed by vector index."""
    tower = params.tower
    V = tower.order ** params.n
    out = np.empty(V, dtype=np.uint8)
    for lo in range(0, V, RANK_BLOCK):
        idx = np.arange(lo, min(lo + RANK_BLOCK, V))
        out[lo : lo + len(idx)] = ranks(tower, index_digits(idx, params.n, tower.order))
    return out


def color_table(coloring: Coloring, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Color index of every vertex, indexed by vector index."""
    params = coloring.params
    V = params.tower.order ** params.n
    check_budget(V, budget)
    out = np.empty(V, dtype=np.int64)
    for idx in range(V):
        out[idx] = coloring.color_index(vec_from_index(params.tower, params.n, idx))
    return out


def realized_colors(coloring: Coloring, budget: int = DEFAULT_BUDGET) -> int:
    """Number of distinct colors actually used."""
    return int(np.unique(color_table(coloring, budget=budget)).size)


def _pairwise_violation(
    coloring: Coloring, d: int, kind: str, budget: int, threads: int
) -> tuple[int, int] | None:
    params = coloring.params
    tower = params.tower
    V = tower.order ** params.n
    check_budget(V, budget)
    colors = color_table(coloring, budget=budget)
    rank_of = _vector_rank_table(params)
    sub = fq_tables(tower).sub
    # The base-q digits of the vector index are the F_q coordinates of the
    # vector, so index-wise digit subtraction is vector subtraction.
    digits = _vertex_digits(params)
    radix = _radix(params)

    def scan(lo: int, hi: int) -> tuple[int, int] | None:
        for u in range(lo, hi):
            same = np.flatnonzero(colors == colors[u])
            same = same[same != u]
            if same.size == 0:
                continue
            diff_idx = _translate(sub, digits[same], digits[u], radix)
            bad = np.flatnonzero(_rank_in_violation(kind, rank_of[diff_idx], d))
            if bad.size:
                return (u, int(same[bad[0]]))
        return None

    if threads <= 1:
        return scan(0, V)
    chunk = -(-V // threads)
    bounds = [(i, min(i + chunk, V)) for i in range(0, V, chunk)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda b: scan(*b), bounds))
    for res in results:  # in chunk order, so the lowest u wins deterministically
        if res is not None:
            return res
    return None


def find_violation(
    coloring: Coloring,
    d: int | None = None,
    kind: str | None = None,
    pairwise: bool = False,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> tuple[int, int] | None:
    """First same-colored pair violating the distance rule, as vector indices.

    Kernel mode (default) scans the kernel code of the syndrome map, which
    by linearity witnesses a violation iff one exists; pairwise mode checks
    every vertex pair directly.
    """
    if d is None:
        d = coloring.d
    if kind is None:
        kind = "le" if coloring.mode == "at-most-d" else "eq"
    if kind not in ("le", "eq"):
        raise ValueError("kind must be 'le' or 'eq'")
    if pairwise:
        return _pairwise_violation(coloring, d, kind, budget, threads)
    return _kernel_violation(coloring, d, kind, budget)


def verify_at_most_d(
    coloring: Coloring,
    d: int | None = None,
    pairwise: bool = False,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> bool:
    """True iff no two distinct vertices within rank distance d share a color."""
    return find_violation(coloring, d, "le", pairwise, budget, threads) is None


def verify_exactly_d(
    coloring: Coloring,
    d: int | None = None,
    pairwise: bool = False,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> bool:
    """True iff no two vertices at rank distance exactly d share a color."""
    return find_violation(coloring, d, "eq", pairwise, budget, threads) is None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def coloring_to_json(coloring: Coloring) -> dict:
    tower = coloring.params.tower
    return {
        "tower": tower.to_json(),
        "n": coloring.params.n,
        "mode": coloring.mode,
        "d": coloring.d,
        "H_col": [[tower.ext_coeffs(x) for x in row] for row in coloring.h_rows],
        "num_colors": str(coloring.num_colors),
        "seed": coloring.seed,
        "tag": coloring.tag,
    }


def coloring_from_json(data: dict) -> Coloring:
    tower = FieldTower.from_json(data["tower"])
    params = GraphParams(tower, int(data["n"]))
    h_rows = tuple(
        tuple(tower.ext_from_coeffs(x) for x in row) for row in data["H_col"]
    )
    return Coloring(
        params,
        data["mode"],
        int(data["d"]),
        h_rows,
        int(data["num_colors"]),
        tag=data.get("tag", "loaded"),
        seed=data.get("seed"),
    )
