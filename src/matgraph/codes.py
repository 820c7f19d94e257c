"""Linear rank-metric codes over F_{q^N} and a few explicit equidistant codes.

A length-n linear code of dimension k over F_{q^N} is held by a full-rank
k x n generator matrix G and an (n-k) x n parity-check matrix H with
G H^T = 0.  Either may be given as None and is then derived from the
other by one row reduction: its pivot count proves the given side's rank,
and the null-space basis it yields, one vector per free column, is the
other side, full rank by construction.  When both are given, as from a
code file, each side's rank is checked.  Codewords, viewed through the
F_q expansion of their entries, are N x n matrices; the code's minimum
rank distance is the least column rank of a nonzero codeword.

The classical maximum-rank-distance family is built here from a parity
matrix whose rows are successive q^s-power images of elements h_1, ..., h_n
that are linearly independent over F_q:

    H[i][j] = h_j ** (q ** (s*i)),   i = 0 .. n-k-1,

with gcd(s, N) = 1.  The resulting code has minimum rank distance exactly
n - k + 1, meeting the Singleton bound |C| = q^(N(n-d+1)) with equality.

Spans are enumerated over F_p: c x is F_p-linear in the base-p digits of
c, so the span of k rows is the set of F_p-combinations of the k*m*N
images e_s * row (e_s encoded p^s), built block by block with no array
that grows with q^N.

A rank spectrum is enumerated on one side only: the code or its dual,
whichever spans fewer F_{q^N}^* lines.  The dual's spectrum fixes the
code's through the MacWilliams identity of the bilinear-forms scheme
(Delsarte 1978), computed in exact integers, so the budget counts the
lines of the side scanned.

Building, checking and serializing codes needs no numpy; span enumeration
and the rank spectrum import it on first use, through ``matgraph._numpy``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Sequence

from ._numpy import np
from .gftower import FieldTower, build_tower
from .linalg import (
    DEFAULT_BUDGET,
    RANK_BLOCK,
    MatFq,
    VecExt,
    add_digits,
    check_budget,
    column_rank,
    from_digits_array,
    matrix_rank_over,
    rank_distance,
    rank_eigenmatrix,
    ranks,
    require_int64,
    row_and_null_space,
    to_digits_array,
    vec_rank_distance,
)
# Not called here; kept bound because benchmarks/tracing.py wraps it by name.
from .linalg import row_reduce  # noqa: F401

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LinearRankCode:
    """A linear code over F_{q^N} of length n and dimension k.

    ``generator`` is a k x n tuple of rows, ``parity`` an (n-k) x n tuple of
    rows, both over F_{q^N}.  Either one may be None: it is then the
    null-space basis of the other, from one ``row_and_null_space`` call
    whose pivot count proves the given side full rank, and the derived
    side is full rank by construction.  When both are given, both ranks
    are checked.  Every code checks G H^T = 0.  ``tag`` records how the
    code was constructed.
    """

    tower: FieldTower
    n: int
    k: int
    generator: Rows | None
    parity: Rows | None
    tag: str = "explicit"

    def __post_init__(self) -> None:
        tower = self.tower
        if not 1 <= self.n <= tower.N:
            raise ValueError(f"need 1 <= n <= N = {tower.N}")
        if not 0 <= self.k <= self.n:
            raise ValueError("dimension out of range")
        generator, parity = self.generator, self.parity
        if generator is None and parity is None:
            raise ValueError("need a generator or a parity matrix")
        if generator is not None:
            generator = tuple(tuple(r) for r in generator)
            if len(generator) != self.k or any(len(r) != self.n for r in generator):
                raise ValueError("generator must be k x n")
        if parity is not None:
            parity = tuple(tuple(r) for r in parity)
            if len(parity) != self.n - self.k or any(len(r) != self.n for r in parity):
                raise ValueError("parity must be (n-k) x n")
        ext = tower.ext
        if generator is None:
            generator = _dual_basis(parity, self.n, ext, "parity matrix is not full rank")
        elif parity is None:
            parity = _dual_basis(generator, self.n, ext, "generator is not full rank")
        else:
            if matrix_rank_over(generator, ext) != self.k:
                raise ValueError("generator is not full rank")
            if matrix_rank_over(parity, ext) != self.n - self.k:
                raise ValueError("parity matrix is not full rank")
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "parity", parity)
        if any(any(parity_syndrome(tower, parity, g)) for g in generator):
            raise ValueError("generator and parity matrices are not orthogonal")

    @property
    def size(self) -> int:
        return self.tower.order ** self.k

    def syndrome(self, word: Sequence[int]) -> tuple[int, ...]:
        """word * parity^T as a tuple of n-k field elements."""
        return parity_syndrome(self.tower, self.parity, word)


def _dual_basis(rows: Rows, n: int, ext, error: str) -> Rows:
    """Basis of {v : v R^T = 0} for the matrix R given by ``rows``, from one
    row reduction whose pivot count must show R full rank."""
    row_space, basis = row_and_null_space(rows, n, ext)
    if len(row_space) != len(rows):
        raise ValueError(error)
    return tuple(basis)


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
    tag = f"gabidulin(s={s})" if h is None else f"gabidulin(s={s}, custom h)"
    return LinearRankCode(tower, n, k, None, parity, tag=tag)


# ---------------------------------------------------------------------------
# codeword enumeration and the rank spectrum
# ---------------------------------------------------------------------------

def _images(tower: FieldTower, rows: Rows, n: int) -> np.ndarray:
    """The (len(rows) * m * N, n) images e_s * row, s = 0 .. m*N - 1 within
    each row and the rows last to first; n * m * N field products per row."""
    p, width = tower.p, tower.m * tower.N
    images = [[tower.ext.mul(p**s, x) for x in row] for row in reversed(rows) for s in range(width)]
    return np.array(images, dtype=np.int64).reshape(len(images), n)


def _combination_blocks(images: np.ndarray, p: int, width: int) -> Iterator[np.ndarray]:
    """The words sum_j d_j(t) * images[j] for t = 0 .. p^J - 1 in order,
    d_j(t) being base-p digit j of t, as blocks of at most RANK_BLOCK.

    The combinations of the first images that fit in a block are tabulated
    once and added to each word of the span of the rest, enumerated by this
    generator.  When p alone exceeds a block, the multiples of the one
    tabulated image come in chunks of RANK_BLOCK, rebuilt for each word."""
    n = images.shape[1]
    if not len(images):
        yield np.zeros((1, n), dtype=np.int64)
        return
    low = 1
    while low < len(images) and p ** (low + 1) <= RANK_BLOCK:
        low += 1
    digits = to_digits_array(images[:low], p, width)
    starts = range(0, p, RANK_BLOCK)

    def table(lo: int) -> np.ndarray:
        coeffs = np.arange(lo, min(lo + RANK_BLOCK, p))[:, None, None]
        out = np.zeros((1, n), dtype=np.int64)
        for image in digits:
            multiples = from_digits_array(coeffs * image % p, p)
            out = add_digits(multiples[:, None], out, p, width).reshape(len(multiples) * len(out), n)
        return out

    tables = [table(0)] if len(starts) == 1 else None
    for block in _combination_blocks(images[low:], p, width):
        for word in block:
            for chunk in tables or map(table, starts):
                yield add_digits(chunk, word, p, width)


def span_blocks(
    tower: FieldTower, rows: Rows, n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[np.ndarray]:
    """All F_{q^N}-linear combinations of the given rows, as (B, n) int64
    blocks of encodings with B <= RANK_BLOCK.

    Scalars run in encoding order with the first row most significant, so
    the iteration order is deterministic.  Yields q^(N*len(rows)) words in
    all; the rows are assumed independent.  Words may have length n = 0.
    """
    check_budget(tower.order ** len(rows), budget)
    require_int64(tower)
    yield from _combination_blocks(_images(tower, rows, n), tower.p, tower.m * tower.N)


def line_blocks(
    tower: FieldTower, rows: Rows, n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[np.ndarray]:
    """One word per F_{q^N}^* line of the span of the given rows, in blocks
    like ``span_blocks``.

    Each line's word is its smallest member in ``span_blocks`` order, the
    one whose leading nonzero scalar is 1, and lines come in the order of
    those members: for i = k-1 down to 0, rows[i] plus the span of
    rows[i+1:].  That is (Q^k - 1)/(Q - 1) words for Q = q^N, none for
    k = 0.  Since rank(c x) = rank(x) for c != 0, these words carry a
    span's rank spectrum and its first word of any given rank.  rows[0]
    only ever leads, so only rows[1:] get images.
    """
    order, k = tower.order, len(rows)
    check_budget((order**k - 1) // (order - 1), budget)
    require_int64(tower)
    p, width = tower.p, tower.m * tower.N
    images = _images(tower, rows[1:], n)
    for i in reversed(range(k)):
        lead = np.asarray(rows[i], dtype=np.int64)
        for block in _combination_blocks(images[: (k - 1 - i) * width], p, width):
            yield add_digits(block, lead, p, width)


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


def span_rank_spectrum(
    tower: FieldTower, rows: Rows, n: int, budget: int = DEFAULT_BUDGET
) -> dict[int, int]:
    """Histogram of the column ranks of every word in the span of the given
    independent rows, ranks in increasing order.  Only ``line_blocks`` are
    ranked: each of their counts stands for q^N - 1 words, and the zero word
    is the one word of rank 0."""
    per_line = word_rank_histogram(tower, line_blocks(tower, rows, n, budget=budget))
    return {0: 1, **{w: c * (tower.order - 1) for w, c in per_line.items()}}


def _smaller_side_spectrum(
    tower: FieldTower, rows: Rows, dual_rows: Rows, n: int, budget: int = DEFAULT_BUDGET
) -> dict[int, int]:
    """Rank spectrum of the span C of the independent ``rows``, given
    independent ``dual_rows`` spanning its dual {v : v c^T = 0 for c in C}.

    ``span_rank_spectrum`` scans whichever side has fewer rows, so the
    budget counts that side's lines; on a tie it scans C.  From the dual
    D's spectrum B, C's follows by the MacWilliams identity of the
    bilinear-forms scheme (Delsarte 1978, section 3),
    A_k = (1/|D|) sum_i B_i P_k(i) with P = ``rank_eigenmatrix`` (for
    n > N, that of the transposed n x N matrices, which have the same
    ranks and trace form), in exact
    integers: a sum that |D| does not divide, or a negative count, raises
    ArithmeticError, since it can only come from a wrong spectrum or
    eigenmatrix."""
    if len(dual_rows) >= len(rows):
        return span_rank_spectrum(tower, rows, n, budget=budget)
    scanned = span_rank_spectrum(tower, dual_rows, n, budget=budget)
    eigen = rank_eigenmatrix(max(tower.N, n), min(tower.N, n), tower.q)
    size = tower.order ** len(dual_rows)
    spectrum = {}
    for k in range(len(eigen)):
        count, remainder = divmod(sum(c * eigen[i][k] for i, c in scanned.items()), size)
        if remainder or count < 0:
            raise ArithmeticError(
                f"MacWilliams transform gives {count} + {remainder}/{size} words of rank {k}"
            )
        if count:
            spectrum[k] = count
    return spectrum


def rank_spectrum(code: LinearRankCode, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Histogram of codeword column ranks; counts sum to the code size.
    Scans the generator or the parity side, whichever has fewer lines."""
    return _smaller_side_spectrum(code.tower, code.generator, code.parity, code.n, budget=budget)


def min_nonzero_rank(spectrum: dict[int, int]) -> int:
    """Least nonzero rank that a rank spectrum counts."""
    weights = [w for w, c in spectrum.items() if w >= 1 and c > 0]
    if not weights:
        raise ValueError("the zero code has no minimum distance")
    return min(weights)


def min_rank_distance(code: LinearRankCode, budget: int = DEFAULT_BUDGET) -> int:
    """Least nonzero codeword rank (equals the pairwise minimum by linearity)."""
    return min_nonzero_rank(rank_spectrum(code, budget=budget))


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


@functools.lru_cache(maxsize=None)
def builtin_code(name: str) -> EquidistantCode:
    """One of the built-in equidistant codes C1, C2, C3.

    C1 is four 2x2 binary matrices at pairwise rank distance 2.  C2 (length
    2) and C3 (length 3) are eight-word codes over F_8 at pairwise rank
    distances 2 and 3; their entries are tied to the modulus x^3 + x + 1,
    the one ``build_tower(2, 1, 3)`` picks.
    """
    if name == "C1":
        t = build_tower(2, 1, 2)
        words = tuple(MatFq(t, 2, 2, e) for e in _C1_MATRICES)
        return EquidistantCode(t, 2, words, 2, name="C1")
    if name in ("C2", "C3"):
        t = build_tower(2, 1, 3)
        raw = _C2_WORDS if name == "C2" else _C3_WORDS
        n = 2 if name == "C2" else 3
        words = tuple(VecExt(t, w) for w in raw)
        return EquidistantCode(t, n, words, 2 if name == "C2" else 3, name=name)
    raise ValueError(f"unknown builtin code {name!r}; choose C1, C2 or C3")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def rows_to_json(tower: FieldTower, rows: Rows) -> list[list[list[int]]]:
    """Rows of F_{q^N} encodings as nested lists of F_p coordinates."""
    return [[tower.ext_coeffs(x) for x in row] for row in rows]


def rows_from_json(tower: FieldTower, data: list[list[list[int]]]) -> Rows:
    return tuple(tuple(tower.ext_from_coeffs(x) for x in row) for row in data)


def code_to_json(code: LinearRankCode) -> dict:
    tower = code.tower
    return {
        "tower": tower.to_json(),
        "n": code.n,
        "k": code.k,
        "generator": rows_to_json(tower, code.generator),
        "parity": rows_to_json(tower, code.parity),
        "tag": code.tag,
    }


def require_keys(data: dict, kind: str, *keys: str) -> None:
    """Raise ValueError naming the first of ``keys`` that a ``kind`` file's
    top-level object lacks."""
    if not isinstance(data, dict):
        raise ValueError(f"a {kind} file must hold a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{kind} file has no {key!r} key")


def code_from_json(data: dict) -> LinearRankCode:
    """The code of a ``code_to_json`` object.  A missing or null side, the
    generator or the parity matrix, is derived from the other."""
    require_keys(data, "code", "tower", "n", "k")
    if data.get("generator") is None and data.get("parity") is None:
        raise ValueError("code file has neither a 'generator' nor a 'parity' key")
    tower = FieldTower.from_json(data["tower"])
    generator, parity = (
        None if data.get(key) is None else rows_from_json(tower, data[key])
        for key in ("generator", "parity")
    )
    return LinearRankCode(
        tower, int(data["n"]), int(data["k"]), generator, parity, tag=data.get("tag", "explicit")
    )

