"""Linear rank-metric codes over F_{q^N} and a few explicit equidistant codes.

A length-n linear code of dimension k over F_{q^N} is held by a full-rank
k x n generator matrix and/or an (n-k) x n parity-check matrix with
G H^T = 0.  Codewords, viewed through the F_q expansion of their entries,
are N x n matrices; the code's minimum rank distance is the least column
rank of a nonzero codeword.

The classical maximum-rank-distance family is built here from a parity
matrix whose rows are successive q^s-power images of elements h_1, ..., h_n
that are linearly independent over F_q:

    H[i][j] = h_j ** (q ** (s*i)),   i = 0 .. n-k-1,

with gcd(s, N) = 1.  The resulting code has minimum rank distance exactly
n - k + 1, meeting the Singleton bound |C| = q^(N(n-d+1)) with equality.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gftower import FieldTower, build_tower
from .linalg import (
    DEFAULT_BUDGET,
    RANK_BLOCK,
    MatFq,
    VecExt,
    check_budget,
    column_rank,
    index_digits,
    matrix_rank_over,
    null_space,
    rank_distance,
    ranks,
    require_int64,
    row_reduce,
    vec_rank_distance,
)

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LinearRankCode:
    """A linear code over F_{q^N} of length n and dimension k.

    ``generator`` is a k x n tuple of rows, ``parity`` an (n-k) x n tuple of
    rows, both over F_{q^N}; either may be derived from the other.  ``tag``
    records how the code was constructed.
    """

    tower: FieldTower
    n: int
    k: int
    generator: Rows
    parity: Rows
    tag: str = "explicit"

    def __post_init__(self) -> None:
        tower = self.tower
        if not 1 <= self.n <= tower.N:
            raise ValueError(f"need 1 <= n <= N = {tower.N}")
        if not 0 <= self.k <= self.n:
            raise ValueError("dimension out of range")
        generator = tuple(tuple(r) for r in self.generator)
        parity = tuple(tuple(r) for r in self.parity)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "parity", parity)
        if len(generator) != self.k or any(len(r) != self.n for r in generator):
            raise ValueError("generator must be k x n")
        if len(parity) != self.n - self.k or any(len(r) != self.n for r in parity):
            raise ValueError("parity must be (n-k) x n")
        ext = tower.ext
        if matrix_rank_over([list(r) for r in generator], ext) != self.k:
            raise ValueError("generator is not full rank")
        if matrix_rank_over([list(r) for r in parity], ext) != self.n - self.k:
            raise ValueError("parity matrix is not full rank")
        if any(any(parity_syndrome(tower, parity, g)) for g in generator):
            raise ValueError("generator and parity matrices are not orthogonal")

    @property
    def size(self) -> int:
        return self.tower.order ** self.k

    def syndrome(self, word: Sequence[int]) -> tuple[int, ...]:
        """word * parity^T as a tuple of n-k field elements."""
        return parity_syndrome(self.tower, self.parity, word)


def parity_syndrome(tower: FieldTower, parity: Rows, word: Sequence[int]) -> tuple[int, ...]:
    """word * parity^T over F_{q^N}, one field element per parity row."""
    ext = tower.ext
    out = []
    for h in parity:
        s = 0
        for wz, hz in zip(word, h):
            s = ext.add(s, ext.mul(wz, hz))
        out.append(s)
    return tuple(out)


def gabidulin_parity(
    tower: FieldTower,
    n: int,
    num_rows: int,
    s: int = 1,
    h: Sequence[int] | None = None,
) -> Rows:
    """Parity rows h_j^(q^(s*i)) for i = 0 .. num_rows-1.

    The h_j default to the first n polynomial basis elements; a supplied h
    must consist of n elements of F_{q^N} linearly independent over F_q.
    """
    if not 1 <= n <= tower.N:
        raise ValueError(f"need 1 <= n <= N = {tower.N}")
    if s < 1 or gcd(s, tower.N) != 1:
        raise ValueError(f"need gcd(s, N) = 1, got s={s}, N={tower.N}")
    if h is None:
        h = tower.basis[:n]
    else:
        h = tuple(h)
        if len(h) != n:
            raise ValueError(f"h must have {n} elements")
        if column_rank(VecExt(tower, h)) != n:
            raise ValueError("h elements are not linearly independent over F_q")
    return tuple(
        tuple(tower.frobenius(hj, (s * i) % tower.N) for hj in h)
        for i in range(num_rows)
    )


def _dual_rows(tower: FieldTower, rows: Rows, n: int, name: str) -> Rows:
    """Basis of {v : v R^T = 0} for the full-rank matrix R given by ``rows``."""
    ext = tower.ext
    rows = [list(r) for r in rows]
    if rows and matrix_rank_over(rows, ext) != len(rows):
        raise ValueError(f"{name} matrix is rank deficient")
    return tuple(null_space(rows, n, ext))


def generator_from_parity(tower: FieldTower, parity: Rows, n: int) -> Rows:
    """Basis of the solution space of v H^T = 0, as generator rows."""
    return _dual_rows(tower, parity, n, "parity")


def parity_from_generator(tower: FieldTower, generator: Rows, n: int) -> Rows:
    """A full-rank parity matrix annihilating the generator rows."""
    return _dual_rows(tower, generator, n, "generator")


def gabidulin(
    tower: FieldTower,
    n: int,
    k: int,
    s: int = 1,
    h: Sequence[int] | None = None,
) -> LinearRankCode:
    """The maximum-rank-distance code of length n and dimension k.

    Minimum rank distance is n - k + 1.  With k = n the parity matrix is
    empty and the code is the whole space.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    parity = gabidulin_parity(tower, n, n - k, s=s, h=h)
    generator = generator_from_parity(tower, parity, n)
    tag = f"gabidulin(s={s})" if h is None else f"gabidulin(s={s}, custom h)"
    return LinearRankCode(tower, n, k, generator, parity, tag=tag)


# ---------------------------------------------------------------------------
# codeword enumeration and the rank spectrum
# ---------------------------------------------------------------------------

def span_blocks(
    tower: FieldTower, rows: Rows, n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[np.ndarray]:
    """All F_{q^N}-linear combinations of the given rows, as (B, n) int64
    blocks of encodings with B <= RANK_BLOCK.

    Scalars run in encoding order with the first row most significant, so
    the iteration order is deterministic.  Yields q^(N*len(rows)) words in
    all; the rows are assumed independent.  The combinations of the last
    rows whose count fits in a block are tabulated once; each block adds
    that table to a run of consecutive combinations of the other rows.
    """
    order = tower.order
    k = len(rows)
    check_budget(order ** k, budget)
    require_int64(tower)
    ext = tower.ext
    p = tower.p
    if p == 2:
        def lift(words):
            return words

        def add(a, b):
            return a ^ b

        def lower(words):
            return words
    else:
        # Addition in F_{q^N} is digit-wise addition mod p on base-p digits.
        weights = p ** np.arange(tower.m * tower.N, dtype=np.int64)

        def lift(words):
            return words[..., None] // weights % p

        def add(a, b):
            return (a + b) % p

        def lower(digits):
            return digits @ weights

    scaled = [
        lift(np.array([[ext.mul(c, x) for x in row] for c in range(order)], dtype=np.int64))
        for row in rows
    ]
    inner_rows = 0
    while inner_rows < k and order ** (inner_rows + 1) <= RANK_BLOCK:
        inner_rows += 1
    outer = scaled[: k - inner_rows]
    inner = lift(np.zeros((1, n), dtype=np.int64))
    for table in scaled[k - inner_rows :]:
        inner = add(inner[:, None], table[None]).reshape(-1, *table.shape[1:])
    step = RANK_BLOCK // len(inner)
    outer_count = order ** len(outer)
    for lo in range(0, outer_count, step):
        digits = index_digits(np.arange(lo, min(lo + step, outer_count)), len(outer), order)
        prefix = lift(np.zeros((len(digits), n), dtype=np.int64))
        for i, table in enumerate(outer):
            prefix = add(prefix, table[digits[:, i]])
        block = add(prefix[:, None], inner[None])
        yield lower(block.reshape(-1, *block.shape[2:]))


def enumerate_span(
    tower: FieldTower, rows: Rows, n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """The words of ``span_blocks`` one at a time, as entry tuples."""
    for block in span_blocks(tower, rows, n, budget=budget):
        yield from map(tuple, block.tolist())


def enumerate_codewords(
    code: LinearRankCode, budget: int = DEFAULT_BUDGET
) -> Iterator[VecExt]:
    """All q^(Nk) codewords as vectors, in deterministic order."""
    for word in enumerate_span(code.tower, code.generator, code.n, budget=budget):
        yield VecExt(code.tower, word)


def word_rank_histogram(tower: FieldTower, blocks: Iterable[np.ndarray]) -> dict[int, int]:
    """Number of words of each column rank, over (B, n) blocks of words;
    ranks in increasing order."""
    spectrum: dict[int, int] = {}
    for block in blocks:
        for w, c in enumerate(np.bincount(ranks(tower, block))):
            if c:
                spectrum[w] = spectrum.get(w, 0) + int(c)
    return dict(sorted(spectrum.items()))


def rank_spectrum(code: LinearRankCode, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Histogram of codeword column ranks; counts sum to the code size."""
    blocks = span_blocks(code.tower, code.generator, code.n, budget=budget)
    return word_rank_histogram(code.tower, blocks)


def min_rank_distance(code: LinearRankCode, budget: int = DEFAULT_BUDGET) -> int:
    """Least nonzero codeword rank (equals the pairwise minimum by linearity)."""
    spectrum = rank_spectrum(code, budget=budget)
    weights = [w for w, c in spectrum.items() if w >= 1 and c > 0]
    if not weights:
        raise ValueError("the zero code has no minimum distance")
    return min(weights)


def check_parity_columns(tower: FieldTower, parity: Rows, d: int, n: int | None = None) -> bool:
    """True iff every d-1 columns of the parity matrix are independent over
    F_{q^N} while some d columns are dependent.

    A 0 x n parity matrix (the whole-space code) still has n columns, each
    of length zero; pass ``n`` explicitly in that case.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if parity:
        ncols = len(parity[0])
    elif n is not None:
        ncols = n
    else:
        raise ValueError("an empty parity matrix needs an explicit column count")
    if d > ncols:
        raise ValueError("d exceeds the number of columns")
    ext = tower.ext
    cols = [[row[j] for row in parity] for j in range(ncols)]

    def dependent(subset: Sequence[int]) -> bool:
        rows = [cols[j] for j in subset]
        return matrix_rank_over(rows, ext) < len(rows)

    for subset in itertools.combinations(range(ncols), d - 1):
        if dependent(subset):
            return False
    return any(dependent(s) for s in itertools.combinations(range(ncols), d))


# ---------------------------------------------------------------------------
# equidistant codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquidistantCode:
    """An explicit list of codewords with all pairwise rank distances equal."""

    tower: FieldTower
    n: int
    words: tuple
    distance: int
    name: str = ""

    @property
    def size(self) -> int:
        return len(self.words)


def is_equidistant(words: Sequence, budget: int = DEFAULT_BUDGET) -> int | None:
    """The common pairwise rank distance, or None if distances differ."""
    if len(words) < 2:
        raise ValueError("need at least two codewords")
    check_budget(len(words) * (len(words) - 1) // 2, budget)
    dist = None
    for a, b in itertools.combinations(words, 2):
        d = rank_distance(a, b) if isinstance(a, MatFq) else vec_rank_distance(a, b)
        if dist is None:
            dist = d
        elif d != dist:
            return None
    return dist


# Hardcoded equidistant codes.  C2/C3 live over F_8 with modulus x^3 + x + 1,
# whose residue a satisfies a^3 = a + 1; encodings read 1 = 1, a = 2,
# a^2 = 4, so e.g. 1 + a + a^2 = 7.
_C1_MATRICES = ((1, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 1, 1, 1))
_C2_WORDS = ((1, 2), (2, 3), (7, 1), (0, 5), (3, 4), (5, 7), (6, 6), (4, 0))
_C3_WORDS = (
    (4, 0, 0),
    (1, 2, 4),
    (0, 1, 2),
    (5, 3, 6),
    (6, 6, 1),
    (3, 4, 5),
    (2, 7, 3),
    (7, 5, 7),
)
_F8_MODULUS = (1, 1, 0, 1)


@functools.lru_cache(maxsize=None)
def builtin_code(name: str, tower: FieldTower | None = None) -> EquidistantCode:
    """One of the built-in equidistant codes C1, C2, C3.

    C1 is four 2x2 binary matrices at pairwise rank distance 2.  C2 (length
    2) and C3 (length 3) are eight-word codes over F_8 at pairwise rank
    distances 2 and 3; their entries are tied to the modulus x^3 + x + 1, so
    any other F_8 tower is rejected.
    """
    if name == "C1":
        t = tower if tower is not None else build_tower(2, 1, 2)
        if (t.p, t.m) != (2, 1) or t.N != 2:
            raise ValueError("C1 needs the (p, m, N) = (2, 1, 2) tower")
        words = tuple(MatFq(t, 2, 2, e) for e in _C1_MATRICES)
        return EquidistantCode(t, 2, words, 2, name="C1")
    if name in ("C2", "C3"):
        t = tower if tower is not None else build_tower(2, 1, 3)
        if (t.p, t.m, t.N) != (2, 1, 3):
            raise ValueError(f"{name} needs the (p, m, N) = (2, 1, 3) tower")
        if t.modulus_qN != _F8_MODULUS:
            raise ValueError(f"{name} entries are tied to the F_8 modulus x^3 + x + 1")
        raw = _C2_WORDS if name == "C2" else _C3_WORDS
        n = 2 if name == "C2" else 3
        words = tuple(VecExt(t, w) for w in raw)
        return EquidistantCode(t, n, words, 2 if name == "C2" else 3, name=name)
    raise ValueError(f"unknown builtin code {name!r}; choose C1, C2 or C3")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def code_to_json(code: LinearRankCode) -> dict:
    tower = code.tower
    return {
        "tower": tower.to_json(),
        "n": code.n,
        "k": code.k,
        "generator": [[tower.ext_coeffs(x) for x in row] for row in code.generator],
        "parity": [[tower.ext_coeffs(x) for x in row] for row in code.parity],
        "tag": code.tag,
    }


def code_from_json(data: dict) -> LinearRankCode:
    tower = FieldTower.from_json(data["tower"])
    generator = tuple(
        tuple(tower.ext_from_coeffs(x) for x in row) for row in data["generator"]
    )
    parity = tuple(
        tuple(tower.ext_from_coeffs(x) for x in row) for row in data["parity"]
    )
    return LinearRankCode(
        tower, int(data["n"]), int(data["k"]), generator, parity, tag=data.get("tag", "explicit")
    )


def same_row_space(tower: FieldTower, rows_a: Rows, rows_b: Rows) -> bool:
    """Whether two row sets span the same subspace over F_{q^N}."""
    ext = tower.ext
    ra, _ = row_reduce([list(r) for r in rows_a], ext)
    rb, _ = row_reduce([list(r) for r in rows_b], ext)
    ra = [r for r in ra if any(r)]
    rb = [r for r in rb if any(r)]
    return ra == rb
