"""Distance colorings of the matrix graph via syndrome maps.

Both constructions color a vertex (seen as a length-n vector over F_{q^N})
by its syndrome v H^T under a parity matrix H over F_{q^N}, so two vertices
share a color exactly when their difference lies in the kernel code of H.

* at-most-d coloring: H is the parity matrix of a maximum-rank-distance code
  with minimum distance d + 1 (d rows), so no nonzero kernel word has rank
  <= d and vertices within rank distance d never collide.  This uses
  q^(Nd) colors, which matches the sphere/Singleton lower bound, so the
  at-most-d chromatic number is exactly q^(Nd) for d <= n.

* exactly-d coloring: the kernel code must contain no word of rank exactly
  d.  Two syndromes are proven to do so and need no search.  The MRD
  parity matrix with d rows has a kernel of minimum rank d + 1.  The unit
  rows e_d, ..., e_n color a vertex by its last n - d + 1 columns, so two
  vertices of one color differ only in their first d - 1 columns, a
  difference of rank at most d - 1.  The better of the two has
  m* = min(d, n - d + 1) rows, so chi_d <= q^(N m*).  One row below m* is
  proven to fail (``exact_d_coloring``) and refused; 2 to m* - 1 rows are
  left to a randomized greedy search, whose draw is only a heuristic:
  every candidate H is verified by the kernel's exact rank spectrum before
  it is accepted.  The spectrum is enumerated on the smaller of the kernel
  and its dual, H's row space, and carried to the kernel by the
  MacWilliams identity when the row space is smaller.

Verification runs in two modes that must agree: a kernel scan (rank one
kernel word per F_{q^N}^* line, since scaling keeps the rank) justified
by linearity, and an assumption-free pairwise scan over all q^(Nn)
vertices.  The scan meets each unordered pair once, from its smaller end
u, and walks whichever partner set gives fewer pairs: u's later
classmates, grouped by one sort, or the vertices u + s above u at a step
s whose rank breaks the rule.  On (N,n,q) = (4,3,2) the d = 1 check takes
about 1.3 ms and the d = 2 check about 0.7 ms, against 2.0 and 1.2 ms
when every pair was met from both ends (medians of 60 calls, one core of
a 2-vCPU Xeon).

Building a coloring or a clique, coloring one vertex and counting the
colors used need no numpy; the searches, color tables and both
verification modes import it on first use, through ``matgraph._numpy``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from ._budget import DEFAULT_BUDGET, SearchExhaustedError
from ._numpy import np
from .gftower import FieldTower, from_digits
from .graph import GraphParams
from .codes import (
    Rows,
    _smaller_side_spectrum,
    gabidulin,
    gabidulin_parity,
    int_key,
    line_blocks,
    parity_syndrome,
    require_keys,
    rows_from_json,
    rows_to_json,
    span_blocks,
    tag_key,
)
from .linalg import (
    RANK_BLOCK,
    MatFq,
    VecExt,
    add_digits,
    check_budget,
    from_digits_array,
    index_ranks,
    matrix_rank_over,
    matrix_to_vector,
    null_space,
    ranks,
    row_and_null_space,
    vector_to_matrix,
)
# Not called here; kept bound because benchmarks/tracing.py wraps them by name.
from .codes import enumerate_span  # noqa: F401
from .linalg import _rank_bits, column_rank  # noqa: F401

COLUMN_TRIES = 32  # draws of one parity column before search_forbidden_H keeps the last


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
        """Syndrome coordinates concatenated as base-q^N digits, coordinate 0
        most significant."""
        return from_digits(reversed(self.syndrome(v)), self.params.tower.order)

    def color_of_matrix(self, M: MatFq) -> int:
        return self.color_index(matrix_to_vector(M))


@dataclass(frozen=True)
class ForbiddenDistanceCode:
    """An m x n parity matrix whose kernel code avoids rank exactly d.

    ``verified`` is set only after the kernel's exact rank spectrum has
    been computed and found to contain no word of rank d.
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
    """Matrices at pairwise rank distance d, from ``clique(params, d)``; its
    size lower-bounds the distance-d color count, exactly-d or at-most-d,
    for every 1 <= d <= n."""

    members: tuple[MatFq, ...]

    @property
    def size(self) -> int:
        return len(self.members)


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


def clique(params: GraphParams, d: int, budget: int = DEFAULT_BUDGET) -> CliqueWitness:
    """The q^N matrices x g, x in F_{q^N}, with g the one generator row of
    the Gabidulin [d, 1] code padded with n - d zero columns.

    That code has length d and minimum rank distance d, so every nonzero
    word has rank exactly d.  Two members differ by (x - y) g, so any two
    are at rank distance d and the distance-d color count is at least q^N.
    At d = 1, g = (1) and the members are the matrices supported on
    column 0.
    """
    if not 1 <= d <= params.n:
        raise ValueError(f"need 1 <= d <= n = {params.n}")
    tower = params.tower
    check_budget(tower.order, budget)
    (g,) = gabidulin(tower, d, 1).generator
    row, mul = (*g, *(0,) * (params.n - d)), tower.ext.mul
    members = (vector_to_matrix(VecExt(tower, tuple(mul(x, y) for y in row))) for x in range(tower.order))
    return CliqueWitness(tuple(members))


def search_forbidden_H(
    tower: FieldTower,
    n: int,
    d: int,
    m: int,
    seed: int = 0,
    restarts: int = 64,
    budget: int = DEFAULT_BUDGET,
) -> ForbiddenDistanceCode:
    """Randomized greedy search for an m x n parity matrix whose kernel
    avoids rank exactly d.

    Columns are drawn uniformly at random; a candidate lying in the span of
    d - 1 already-chosen columns is redrawn (up to ``COLUMN_TRIES`` times,
    after which the last draw is kept, since the greedy rule is only a
    heuristic).  Before the draws for a column, each such subset S gets its
    check set, a basis of the vectors orthogonal to S; a draw lies in span S
    iff its syndrome against that check set is zero.  A subset spanning all
    of F_{q^N}^m has an empty check set and rejects every draw, so that
    column's draws are taken from the stream without being tested.  Each
    completed matrix is verified by its kernel's rank spectrum, which
    ``kernel_rank_spectrum`` computes exactly from the smaller of the
    kernel and H's row space; the first verified matrix wins.
    Deterministic for a fixed seed: restart r uses the derived seed
    (seed << 32) + r, so results do not depend on scheduling.
    """
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    if not 1 <= n <= tower.N:
        raise ValueError(f"need 1 <= n <= N = {tower.N}")
    best_count: int | None = None
    best_spectrum: dict[int, int] = {}
    for r in range(restarts):
        cols = _greedy_columns(tower, n, d, m, random.Random((seed << 32) + r))
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
    raise SearchExhaustedError(restarts, best_count, best_spectrum)


def _greedy_columns(
    tower: FieldTower, n: int, d: int, m: int, rng: random.Random
) -> list[tuple[int, ...]]:
    """One restart's n columns of length m, drawn as ``search_forbidden_H``
    describes.  When some check set is empty, every draw would be rejected:
    the COLUMN_TRIES * m random numbers are taken all the same, so the
    stream stays where the rejected draws would leave it, and the last m
    are kept, with no syndrome evaluated."""
    order, ext = tower.order, tower.ext
    cols: list[tuple[int, ...]] = []
    for _ in range(n):
        checks = [null_space(S, m, ext) for S in itertools.combinations(cols, min(d - 1, len(cols)))]
        if all(checks):
            for _ in range(COLUMN_TRIES):
                cand = tuple(rng.randrange(order) for _ in range(m))
                if all(any(parity_syndrome(tower, Y, cand)) for Y in checks):
                    break
        else:
            draws = [rng.randrange(order) for _ in range(COLUMN_TRIES * m)]
            cand = tuple(draws[-m:])
        cols.append(cand)
    return cols


def kernel_rank_spectrum(
    tower: FieldTower, h_rows: Rows, n: int, budget: int = DEFAULT_BUDGET
) -> dict[int, int]:
    """Rank histogram of the kernel code {v : v H^T = 0}.  One row reduction
    of H gives the kernel and its dual, H's row space of dimension
    r = rank H; the row space is scanned iff r < n - r."""
    row_space, kernel = row_and_null_space(h_rows, n, tower.ext)
    return _smaller_side_spectrum(tower, tuple(kernel), tuple(row_space), n, budget=budget)


def exact_d_coloring(
    params: GraphParams,
    d: int,
    seed: int = 0,
    m: int | None = None,
    restarts: int = 64,
    budget: int = DEFAULT_BUDGET,
) -> Coloring:
    """Proper coloring for rank distance exactly d.

    When ``m`` is None or at least m* = min(d, n - d + 1), the coloring is
    built with m* rows and no search, so it has q^(N m*) colors and
    ``seed`` None:

    * ``mrd-parity`` when d <= n - d + 1: the parity matrix of the
      Gabidulin [n, n - d] code, whose kernel has minimum rank d + 1;
    * ``column-projection`` otherwise: the unit rows at 0-based columns
      d - 1 .. n - 1, so same-colored vertices differ in their first d - 1
      columns only.

    A smaller ``m`` runs ``search_forbidden_H`` with m rows and ``seed``;
    its result is always kernel-verified.  For d > n the one-color map is
    proper, and ``seed`` is None.

    ``m = 1`` below m* >= 2, that is with 2 <= d <= n - 1, raises
    ValueError: every one-row kernel {v : sum_j v_j h_j = 0} then holds a
    word of rank d.  Take phi(x) = sum_j x_j h_j on F_q^n and a rank-d X
    over F_q with rows x_i; b X has rank rank(b), and is a kernel word iff
    sum_i b_i phi(x_i) = 0.  If dim phi(F_q^n) <= 1, take the x_i in ker
    phi, of dimension >= n - 1 >= d, and any b of rank d.  Otherwise let
    phi(x_1), phi(x_2) be independent, so (phi(x_i)) is proportional to no
    a in F_q^d: of the Q^(d-1) solutions b (Q = q^N), only Q^(d-2) lie on
    each of the (q^d - 1)/(q - 1) < Q hyperplanes sum_i a_i b_i = 0, which
    hold all b of rank below d.
    """
    if not 1 <= d:
        raise ValueError("d must be positive")
    if d > params.n:
        return Coloring(params, "exactly-d", d, (), 1, tag="trivial")
    tower, n = params.tower, params.n
    rows = min(d, n - d + 1)
    if m == 1 and rows >= 2:
        raise ValueError(f"one parity row cannot avoid rank {d}: with 2 <= d < n its kernel has a rank-d word")
    if m is None or m >= rows:
        if d <= n - d + 1:
            h_rows, tag = gabidulin_parity(tower, n, d), "mrd-parity"
        else:
            h_rows = tuple(tuple(int(i == j) for i in range(n)) for j in range(d - 1, n))
            tag = "column-projection"
        return Coloring(params, "exactly-d", d, h_rows, tower.order ** rows, tag=tag)
    found = search_forbidden_H(tower, n, d, m, seed=seed, restarts=restarts, budget=budget)
    return Coloring(
        params,
        "exactly-d",
        d,
        found.h_rows,
        tower.order ** m,
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
    """Kernel mode of ``find_violation``.  A line's smallest member breaks
    the rule iff its other members do, and ``line_blocks`` visits lines in
    the order of those members, so the first bad word is that of the full
    ``span_blocks`` scan."""
    tower, n = coloring.params.tower, coloring.params.n
    for block in line_blocks(tower, null_space(coloring.h_rows, n, tower.ext), n, budget=budget):
        bad = np.flatnonzero(_rank_in_violation(kind, ranks(tower, block), d))
        if bad.size:
            return (0, from_digits(reversed(block[bad[0]].tolist()), tower.order))
    return None


def color_table(coloring: Coloring, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Color index of every vertex, indexed by vector index.

    The syndromes v H^T = sum_j v_j H[:, j] of all vertices, in vector-index
    order, are the F_{q^N}-span of the columns of H in ``span_blocks`` order.
    Raises ValueError when the color indices, below num_colors, do not fit
    int64.
    """
    params = coloring.params
    tower = params.tower
    h_rows = coloring.h_rows
    columns = tuple(tuple(row[j] for row in h_rows) for j in range(params.n))
    blocks = span_blocks(tower, columns, len(h_rows), budget=budget)
    return np.concatenate([from_digits_array(block[:, ::-1], tower.order) for block in blocks])


def realized_colors(coloring: Coloring, budget: int = DEFAULT_BUDGET) -> int:
    """Number of distinct colors used: the syndrome map is F_{q^N}-linear,
    so its image has (q^N)^(rank H) elements.  ``budget`` is unused."""
    tower = coloring.params.tower
    return tower.order ** matrix_rank_over(coloring.h_rows, tower.ext)


def _pairwise_violation(
    coloring: Coloring, d: int, kind: str, budget: int
) -> tuple[int, int] | None:
    """Pairwise mode of ``find_violation``.  Each unordered pair {u, v} of
    vertices is met once, from its smaller end u, in blocks of about
    RANK_BLOCK pairs, through one ``add_digits`` per block.  The call walks
    whichever partner set gives fewer pairs, a tie going to the steps:

    * the classes, sum of s(s - 1)/2 over class sizes s: each u against its
      later classmates, listed in index order by one stable argsort by
      color, tested by the rank of v - u (``_class_pairs``);
    * the steps, about V |steps| / 2: each u against u + s for every step s
      whose rank breaks the rule and for which u < u + s, tested by color
      (``_step_pairs``).

    Pairs are visited by u, so the first block with a violation gives the
    smallest u, and its smallest partner v: any partner of the smallest
    violating u is larger than u."""
    params = coloring.params
    V, p, width = params.order, params.tower.p, params.width
    check_budget(V, budget)
    colors = color_table(coloring, budget=budget)
    rule = _rank_in_violation(kind, index_ranks(params.tower, params.tower.order, params.n), d)
    steps = np.flatnonzero(rule)
    if not steps.size:
        return None
    by_color = np.sort(colors)
    ends = np.append(np.flatnonzero(by_color[1:] != by_color[:-1]) + 1, V)
    sizes = np.diff(ends, prepend=0)
    if int((sizes * (sizes - 1)).sum()) < V * steps.size:
        return _class_pairs(colors, ends, sizes, rule, p, width)
    return _step_pairs(colors, steps, p, width)


def _class_pairs(colors, ends, sizes, rule, p, width) -> tuple[int, int] | None:
    """Pairs (u, v) of one class with u < v, numbered by u and then by v:
    the later[u] classmates above u take the numbers first[u], first[u] + 1,
    ...  Each block is the next RANK_BLOCK numbers, so a large class spans
    many blocks and small classes share one.  ``ends`` and ``sizes`` are the
    classes' end offsets and sizes in color order."""
    V = colors.size
    members = np.argsort(colors, kind="stable")
    pos = np.empty(V, dtype=np.int64)
    pos[members] = np.arange(V)
    later = np.repeat(ends, sizes)[pos] - 1 - pos
    first = np.cumsum(later) - later
    partner = pos + 1 - first  # members[partner[u] + i] is the partner of pair i
    total = int(first[-1] + later[-1])
    for lo in range(0, total, RANK_BLOCK):
        hi = min(lo + RANK_BLOCK, total)
        r0 = int(np.searchsorted(first, lo, side="right")) - 1
        r1 = int(np.searchsorted(first, hi))
        counts = np.minimum(first[r0:r1] + later[r0:r1], hi) - np.maximum(first[r0:r1], lo)
        u = np.repeat(np.arange(r0, r1), counts)
        v = members[partner[u] + np.arange(lo, hi)]
        bad = rule[add_digits(v, u, p, width, sign=-1)]
        if bad.any():
            i = bad.argmax()
            return (int(u[i]), int(v[i]))
    return None


def _step_pairs(colors, steps, p, width) -> tuple[int, int] | None:
    """Blocks of p^k consecutive vertices, aligned to p^k, against u + s.
    With t the top nonzero digit of s and s_t that digit, u < u + s iff
    digit t of u plus s_t is below p.  For t >= k that digit is the same
    across the block, so the block keeps s iff lo mod p^(t+1) is below
    (p - s_t) p^t; for t < k, lo mod p^(t+1) is 0 and s is kept, met from
    both ends of each pair."""
    V = colors.size
    block = 1
    while block < V and block * p * steps.size <= 2 * RANK_BLOCK:
        block *= p
    powers = p ** np.arange(width, dtype=np.int64)
    weight = powers[np.searchsorted(powers, steps, side="right") - 1]
    modulus, limit = weight * p, (p - steps // weight) * weight
    for lo in range(0, V, block):
        u = np.arange(lo, lo + block)
        v = add_digits(u[:, None], steps[lo % modulus < limit], p, width)
        bad = colors[v] == colors[u][:, None]
        if bad.any():
            i = bad.any(axis=1).argmax()
            return (int(u[i]), int(v[i, bad[i]].min()))
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
    by linearity witnesses a violation iff one exists; pairwise mode meets
    every same-colored pair directly, once, from its smaller end, through
    the classes or the rule-breaking differences, and returns the smallest
    (u, v).
    ``threads`` is accepted and has no effect.
    """
    if d is None:
        d = coloring.d
    if kind is None:
        kind = "le" if coloring.mode == "at-most-d" else "eq"
    if kind not in ("le", "eq"):
        raise ValueError("kind must be 'le' or 'eq'")
    if pairwise:
        return _pairwise_violation(coloring, d, kind, budget)
    return _kernel_violation(coloring, d, kind, budget)


def verify_at_most_d(
    coloring: Coloring,
    d: int | None = None,
    pairwise: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff no two distinct vertices within rank distance d share a color."""
    return find_violation(coloring, d, "le", pairwise, budget) is None


def verify_exactly_d(
    coloring: Coloring,
    d: int | None = None,
    pairwise: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff no two vertices at rank distance exactly d share a color."""
    return find_violation(coloring, d, "eq", pairwise, budget) is None


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
        "H_col": rows_to_json(tower, coloring.h_rows),
        "num_colors": str(coloring.num_colors),
        "seed": coloring.seed,
        "tag": coloring.tag,
    }


def coloring_from_json(data: dict) -> Coloring:
    """The coloring of a ``coloring_to_json`` object; ``seed`` and ``tag``
    may be missing."""
    require_keys(data, "coloring", "tower", "n", "mode", "d", "H_col", "num_colors")
    seed = data.get("seed")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"coloring file's 'seed' must be an integer or null, got {seed!r}")
    n, d, num_colors = (int_key(data, "coloring", key) for key in ("n", "d", "num_colors"))
    tower = FieldTower.from_json(data["tower"])
    return Coloring(
        GraphParams(tower, n),
        data["mode"],
        d,
        rows_from_json(tower, data["H_col"], "H_col"),
        num_colors,
        tag=tag_key(data, "coloring", "loaded"),
        seed=seed,
    )
