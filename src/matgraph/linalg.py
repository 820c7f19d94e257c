"""Linear algebra over F_q: matrices, ranks, and the bridge to F_{q^N} vectors.

An N x n matrix over F_q and a length-n vector over F_{q^N} carry the same
data: column j of the matrix holds the F_q coordinates of vector entry j.
The rank of the matrix equals the column rank of the vector (the number of
vector entries linearly independent over F_q), so both views share one
metric.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .gftower import FieldTower

DEFAULT_BUDGET = 1 << 20
# Words per block of every bulk rank computation and span enumeration.  On
# the rank spectra of five MRD codes (q = 2, 3, 4, 5; 2-vCPU Xeon), blocks
# of 2^10, 2^12, 2^14 and 2^16 words took 0.24, 0.19, 0.18 and 0.26 s and
# grew the resident set by 0.9, 1.9, 3.1 and 13 MB.
RANK_BLOCK = 1 << 12
# The F_q tables have q^2 entries, built by scalar field operations in up to
# about 2 s at q = 3^5; above this order the batched ranks go word by word.
FQ_TABLE_MAX_Q = 1 << 8


class BudgetExceededError(RuntimeError):
    """An exhaustive operation would enumerate more items than allowed."""

    def __init__(self, needed: int, budget: int) -> None:
        super().__init__(f"operation needs {needed} items but the budget is {budget}")
        self.needed = needed
        self.budget = budget


def check_budget(needed: int, budget: int) -> None:
    if needed > budget:
        raise BudgetExceededError(needed, budget)


# ---------------------------------------------------------------------------
# matrix and vector types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatFq:
    """An N x n matrix over F_q, entries row-major as F_q encodings.

    The convention cols <= rows is enforced: a wider-than-tall matrix is
    transposed on construction and the flip recorded in ``transposed``.
    """

    tower: FieldTower
    rows: int
    cols: int
    entries: tuple[int, ...]
    transposed: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        q = self.tower.q
        for e in entries:
            if not 0 <= e < q:
                raise ValueError(f"entry {e} is not an element of F_{q}")
        if self.cols > self.rows:
            flipped = tuple(
                entries[i * self.cols + j]
                for j in range(self.cols)
                for i in range(self.rows)
            )
            object.__setattr__(self, "entries", flipped)
            rows, cols = self.cols, self.rows
            object.__setattr__(self, "rows", rows)
            object.__setattr__(self, "cols", cols)
            object.__setattr__(self, "transposed", True)
        else:
            object.__setattr__(self, "entries", entries)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _same_shape(self, other: "MatFq") -> None:
        if self.tower != other.tower:
            raise ValueError("matrices live over different towers")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")

    def __add__(self, other: "MatFq") -> "MatFq":
        self._same_shape(other)
        add = self.tower.base.add
        return MatFq(
            self.tower,
            self.rows,
            self.cols,
            tuple(add(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "MatFq") -> "MatFq":
        self._same_shape(other)
        sub = self.tower.base.sub
        return MatFq(
            self.tower,
            self.rows,
            self.cols,
            tuple(sub(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "MatFq":
        neg = self.tower.base.neg
        return MatFq(self.tower, self.rows, self.cols, tuple(neg(a) for a in self.entries))

    def __repr__(self) -> str:
        return f"MatFq({self.rows}x{self.cols} over F_{self.tower.q}, {mat_label(self)})"


def zero_matrix(tower: FieldTower, rows: int, cols: int) -> MatFq:
    return MatFq(tower, rows, cols, (0,) * (rows * cols))


@dataclass(frozen=True)
class VecExt:
    """A length-n vector over F_{q^N}, entries as F_{q^N} encodings; n <= N."""

    tower: FieldTower
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not 1 <= len(entries) <= self.tower.N:
            raise ValueError(
                f"vector length must be between 1 and N = {self.tower.N}"
            )
        order = self.tower.order
        for e in entries:
            if not 0 <= e < order:
                raise ValueError(f"entry {e} is not an element of the top field")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __add__(self, other: "VecExt") -> "VecExt":
        if self.tower != other.tower or len(self) != len(other):
            raise ValueError("vector shapes differ")
        add = self.tower.ext.add
        return VecExt(self.tower, tuple(add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "VecExt") -> "VecExt":
        if self.tower != other.tower or len(self) != len(other):
            raise ValueError("vector shapes differ")
        sub = self.tower.ext.sub
        return VecExt(self.tower, tuple(sub(a, b) for a, b in zip(self.entries, other.entries)))


# ---------------------------------------------------------------------------
# generic Gaussian elimination over any field view
# ---------------------------------------------------------------------------

def row_reduce(rows: list[list[int]], fieldview) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    pr = 0
    for c in range(ncols):
        pivot_row = None
        for r in range(pr, len(mat)):
            if mat[r][c] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[pr], mat[pivot_row] = mat[pivot_row], mat[pr]
        inv = fieldview.inv(mat[pr][c])
        if inv != 1:
            mat[pr] = [fieldview.mul(inv, x) for x in mat[pr]]
        for r in range(len(mat)):
            if r != pr and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [
                    fieldview.sub(x, fieldview.mul(f, y)) for x, y in zip(mat[r], mat[pr])
                ]
        pivots.append(c)
        pr += 1
        if pr == len(mat):
            break
    return mat, pivots


def matrix_rank_over(rows: list[list[int]], fieldview) -> int:
    return len(row_reduce(rows, fieldview)[1])


def null_space(rows: list[list[int]], ncols: int, fieldview) -> list[tuple[int, ...]]:
    """Basis of {x : M x^T = 0} for the matrix M given by ``rows``."""
    rref, pivots = row_reduce(rows, fieldview)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = fieldview.neg(rref[r][fc])
        basis.append(tuple(v))
    return basis


def _rank_bits(masks: Sequence[int]) -> int:
    """Rank of a binary matrix whose rows are given as bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for v in masks:
        while v:
            hb = v.bit_length()
            if hb in pivots:
                v ^= pivots[hb]
            else:
                pivots[hb] = v
                rank += 1
                break
    return rank


# ---------------------------------------------------------------------------
# ranks and the rank metric
# ---------------------------------------------------------------------------

def rank(M: MatFq) -> int:
    """Algebraic rank of M over F_q, by Gaussian elimination."""
    if M.tower.q == 2:
        masks = []
        for i in range(M.rows):
            mask = 0
            for j, e in enumerate(M.row(i)):
                if e:
                    mask |= 1 << j
            masks.append(mask)
        return _rank_bits(masks)
    return matrix_rank_over(M.row_lists(), M.tower.base)


def rank_distance(M1: MatFq, M2: MatFq) -> int:
    """Rank of the difference M1 - M2."""
    return rank(M1 - M2)


def vector_to_matrix(v: VecExt) -> MatFq:
    """The N x n matrix whose column j holds the F_q coordinates of v[j]."""
    tower = v.tower
    N = tower.N
    n = len(v)
    cols = [tower.expand(x) for x in v.entries]
    entries = tuple(cols[j][i] for i in range(N) for j in range(n))
    return MatFq(tower, N, n, entries)


def matrix_to_vector(M: MatFq) -> VecExt:
    """Inverse of vector_to_matrix; requires M to have N = tower.N rows."""
    tower = M.tower
    if M.rows != tower.N:
        raise ValueError(f"matrix must have N = {tower.N} rows, has {M.rows}")
    return VecExt(tower, tuple(tower.contract(M.column(j)) for j in range(M.cols)))


def word_rank(tower: FieldTower, word: Sequence[int]) -> int:
    """Rank over F_q of the N x n matrix form of a word of F_{q^N} encodings.

    With q = 2 an entry's encoding is already its column's F_2 bitmask."""
    if tower.q == 2:
        return _rank_bits(word)
    return matrix_rank_over(list(zip(*map(tower.expand, word))), tower.base)


class FqTables(NamedTuple):
    """F_q arithmetic as lookup tables indexed by encodings; inv[0] is 0."""

    add: np.ndarray
    sub: np.ndarray
    mul: np.ndarray
    inv: np.ndarray


@functools.lru_cache(maxsize=32)
def fq_tables(tower: FieldTower) -> FqTables:
    """The base field's tables, built on first use and shared read-only."""
    base = tower.base
    q = tower.q
    elems = range(q)
    dtype = np.min_scalar_type(q - 1)
    tables = FqTables(
        np.array([[base.add(a, b) for b in elems] for a in elems], dtype=dtype),
        np.array([[base.sub(a, b) for b in elems] for a in elems], dtype=dtype),
        np.array([[base.mul(a, b) for b in elems] for a in elems], dtype=dtype),
        np.array([0] + [base.inv(a) for a in range(1, q)], dtype=dtype),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def require_int64(tower: FieldTower) -> None:
    """Bulk paths hold F_{q^N} encodings as int64."""
    if tower.order >= 1 << 62:
        raise ValueError(f"q^N = {tower.order} is too large for int64 encodings")


def ranks(tower: FieldTower, words: np.ndarray) -> np.ndarray:
    """Rank over F_q of each word of a (B, n) array of F_{q^N} encodings.

    Batched Gaussian elimination, one coordinate position at a time: each
    word picks its first entry with a nonzero coordinate there as pivot,
    clears that coordinate from every entry holding it (the pivot itself
    becomes zero and drops out) and gains 1 in rank.  With q = 2 the
    encodings are bitmasks and clearing is an XOR; otherwise entries are
    expanded to F_q digits and cleared with the tables of ``fq_tables``,
    or, when q > FQ_TABLE_MAX_Q, ranked one at a time by ``word_rank``.
    Agrees with ``word_rank`` on every word.
    """
    require_int64(tower)
    words = np.asarray(words, dtype=np.int64)
    B = words.shape[0]
    out = np.zeros(B, dtype=np.int64)
    rows = np.arange(B)
    if tower.q == 2:
        A = words.copy()
        for b in range(tower.N):
            has = (A & (1 << b)) != 0
            piv = has.argmax(axis=1)
            out += has[rows, piv]
            A ^= np.where(has, A[rows, piv][:, None], 0)
        return out
    if tower.q > FQ_TABLE_MAX_Q:
        return np.array([word_rank(tower, w) for w in words.tolist()], dtype=np.int64)
    t = fq_tables(tower)
    q = tower.q
    A = ((words[:, :, None] // q ** np.arange(tower.N, dtype=np.int64)) % q).astype(t.add.dtype)
    for c in range(tower.N):
        has = A[:, :, c] != 0
        piv = has.argmax(axis=1)
        out += has[rows, piv]
        P = A[rows, piv, c:]
        f = t.mul[A[:, :, c], t.inv[P[:, 0]][:, None]]
        A[:, :, c:] = t.sub[A[:, :, c:], t.mul[f[:, :, None], P[:, None, :]]]
    return out


def column_rank(v: VecExt) -> int:
    """Number of entries of v linearly independent over F_q."""
    return word_rank(v.tower, v.entries)


def vec_rank_distance(v1: VecExt, v2: VecExt) -> int:
    return column_rank(v1 - v2)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_rank_k(N: int, n: int, q: int, k: int) -> int:
    """Number of N x n matrices over F_q of rank exactly k (exact integer)."""
    if not 0 <= k <= n <= N:
        raise ValueError(f"need 0 <= k <= n <= N, got k={k}, n={n}, N={N}")
    num = 1
    for i in range(k):
        num *= (q ** N - q ** i) * (q ** n - q ** i)
    den = 1
    for i in range(k):
        den *= q ** k - q ** i
    quotient, remainder = divmod(num, den)
    assert remainder == 0, "rank count formula must divide exactly"
    return quotient


def rank_one_count(N: int, n: int, q: int) -> int:
    value, rem = divmod((q ** N - 1) * (q ** n - 1), q - 1)
    assert rem == 0
    return value


# ---------------------------------------------------------------------------
# enumeration, indexing, labels
# ---------------------------------------------------------------------------

def _index_digits(index: int, length: int, q: int) -> tuple[int, ...]:
    """Base-q digits of ``index``, most significant first."""
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        index, d = divmod(index, q)
        out[pos] = d
    if index:
        raise ValueError("index out of range")
    return tuple(out)


def index_digits(indices: np.ndarray, length: int, radix: int) -> np.ndarray:
    """Base-``radix`` digits of each index, most significant first: the
    array form of ``_index_digits``, shape (len(indices), length)."""
    out = np.empty((len(indices), length), dtype=np.min_scalar_type(radix - 1))
    rest = np.asarray(indices, dtype=np.int64)
    for pos in range(length - 1, -1, -1):
        rest, out[:, pos] = np.divmod(rest, radix)
    return out


def mat_index(M: MatFq) -> int:
    """Integer index of M: row-major entries as base-q digits, entry (0,0) most significant."""
    idx = 0
    q = M.tower.q
    for e in M.entries:
        idx = idx * q + e
    return idx


def mat_from_index(tower: FieldTower, rows: int, cols: int, index: int) -> MatFq:
    return MatFq(tower, rows, cols, _index_digits(index, rows * cols, tower.q))


def mat_label(M: MatFq) -> str:
    """Compact text form: base-q digits in row-major order, most significant first."""
    if M.tower.q > 10:
        raise ValueError("digit labels support q <= 10 only")
    return "".join(str(e) for e in M.entries)


def mat_from_label(tower: FieldTower, rows: int, cols: int, label: str) -> MatFq:
    if len(label) != rows * cols:
        raise ValueError(f"label must have {rows * cols} digits")
    return MatFq(tower, rows, cols, tuple(int(ch) for ch in label))


def vec_index(v: VecExt) -> int:
    """Integer index of v: entries as base-q^N digits, entry 0 most significant."""
    idx = 0
    order = v.tower.order
    for e in v.entries:
        idx = idx * order + e
    return idx


def vec_from_index(tower: FieldTower, n: int, index: int) -> VecExt:
    return VecExt(tower, _index_digits(index, n, tower.order))


def enumerate_matrices(
    tower: FieldTower, rows: int, cols: int, budget: int = DEFAULT_BUDGET
) -> Iterator[MatFq]:
    """All rows x cols matrices over F_q in index order."""
    total = tower.q ** (rows * cols)
    check_budget(total, budget)
    for idx in range(total):
        yield mat_from_index(tower, rows, cols, idx)


def enumerate_rank_one(
    tower: FieldTower, rows: int, cols: int, budget: int = DEFAULT_BUDGET
) -> Iterator[MatFq]:
    """Each rank-one matrix exactly once, as column u times row w.

    w runs over nonzero rows whose first nonzero entry is 1, u over all
    nonzero columns, so every rank-one product appears once.
    """
    q = tower.q
    check_budget(rank_one_count(rows, cols, q), budget)
    mul = tower.base.mul
    normalized = []
    for widx in range(1, q ** cols):
        w = _index_digits(widx, cols, q)
        first = next(x for x in w if x)
        if first == 1:
            normalized.append(w)
    for uidx in range(1, q ** rows):
        u = _index_digits(uidx, rows, q)
        for w in normalized:
            entries = tuple(mul(ui, wj) for ui in u for wj in w)
            yield MatFq(tower, rows, cols, entries)


def enumerate_vectors(
    tower: FieldTower, n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[VecExt]:
    """All length-n vectors over F_{q^N} in index order."""
    total = tower.order ** n
    check_budget(total, budget)
    for idx in range(total):
        yield vec_from_index(tower, n, idx)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def mat_to_json(M: MatFq) -> list[list[list[int]]]:
    """Rows of F_q coefficient arrays (each entry an F_p coordinate list)."""
    tower = M.tower
    return [[tower.fq_coeffs(e) for e in M.row(i)] for i in range(M.rows)]


def mat_from_json(tower: FieldTower, data: list[list[list[int]]]) -> MatFq:
    rows = len(data)
    if rows == 0:
        raise ValueError("matrix must have at least one row")
    cols = len(data[0])
    entries = []
    for r in data:
        if len(r) != cols:
            raise ValueError("ragged matrix rows")
        entries.extend(tower.fq_from_coeffs(c) for c in r)
    return MatFq(tower, rows, cols, tuple(entries))


def vec_to_json(v: VecExt) -> list[list[list[int]]]:
    return [v.tower.ext_coeffs(e) for e in v.entries]


def vec_from_json(tower: FieldTower, data: list[list[list[int]]]) -> VecExt:
    return VecExt(tower, tuple(tower.ext_from_coeffs(c) for c in data))
