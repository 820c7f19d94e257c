"""Linear algebra over F_q: matrices, ranks, and the bridge to F_{q^N} vectors.

An N x n matrix over F_q and a length-n vector over F_{q^N} carry the same
data: column j of the matrix holds the F_q coordinates of vector entry j.
The rank of the matrix equals the column rank of the vector (the number of
vector entries linearly independent over F_q), so both views share one
metric.

The scalar types, ranks and labels need no numpy.  The bulk kernels
(``ranks``, the digit-array codec, ``add_digits``, ``fq_tables``) use
numpy, which ``matgraph._numpy`` imports the first time one of them runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from ._budget import DEFAULT_BUDGET, BudgetExceededError
from ._numpy import np
from .gftower import FieldTower, from_digits, to_digits

# Words per block of every bulk rank computation and span enumeration.  On
# the rank spectra of five MRD codes (q = 2, 3, 4, 5; 2-vCPU Xeon), blocks
# of 2^10, 2^12, 2^14 and 2^16 words took 0.24, 0.19, 0.18 and 0.26 s and
# grew the resident set by 0.9, 1.9, 3.1 and 13 MB.
RANK_BLOCK = 1 << 12
# The F_q tables have q^2 entries, built by scalar field operations in up to
# about 2 s at q = 3^5; above this order the batched ranks go word by word.
FQ_TABLE_MAX_Q = 1 << 8
# Bound on the entries of each digit-sum table of ``add_digits``, p^(2k) for
# chunks of k base-p digits.  On one (700 x 104) call at p = 3 and width 6
# (2-vCPU Xeon, numpy 2.4.6), bounds of 2^4, 2^8, 2^12 and 2^14 (k = 1, 2,
# 3, 4) took 1.17, 0.55, 0.35 and 0.35 ms, against 3.2 ms digit by digit.
ADD_TABLE_SIZE = 1 << 12


def check_budget(needed: int, budget: int) -> None:
    if needed > budget:
        raise BudgetExceededError(needed, budget)


# ---------------------------------------------------------------------------
# matrix and vector types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatFq:
    """An N x n matrix over F_q with n <= N, entries row-major as F_q encodings;
    a matrix with more columns than rows is a ValueError, not transposed."""

    tower: FieldTower
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.cols <= self.rows:
            raise ValueError(f"need 1 <= cols <= rows, got a {self.rows}x{self.cols} matrix")
        entries = tuple(self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        q = self.tower.q
        for e in entries:
            if not 0 <= e < q:
                raise ValueError(f"entry {e} is not an element of F_{q}")
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

def row_reduce(rows: Sequence[Sequence[int]], fieldview) -> tuple[list[list[int]], list[int]]:
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


def matrix_rank_over(rows: Sequence[Sequence[int]], fieldview) -> int:
    return len(row_reduce(rows, fieldview)[1])


def null_space(rows: Sequence[Sequence[int]], ncols: int, fieldview) -> list[tuple[int, ...]]:
    """Basis of {x : M x^T = 0} for the matrix M given by ``rows``."""
    return row_and_null_space(rows, ncols, fieldview)[1]


def row_and_null_space(
    rows: Sequence[Sequence[int]], ncols: int, fieldview
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Bases of the row space of M and of {x : M x^T = 0}, from one row
    reduction of M: its nonzero reduced rows, and one vector per free
    column.  The two spaces are each other's duals."""
    rref, pivots = row_reduce(rows, fieldview)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = fieldview.neg(rref[r][fc])
        basis.append(tuple(v))
    return [tuple(r) for r in rref[: len(pivots)]], basis


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
        return _rank_bits([from_digits(M.row(i), 2) for i in range(M.rows)])
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
        np.array([[base.sub(a, b) for b in elems] for a in elems], dtype=dtype),
        np.array([[base.mul(a, b) for b in elems] for a in elems], dtype=dtype),
        np.array([0] + [base.inv(a) for a in range(1, q)], dtype=dtype),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _digit_weights(radix: int, width: int) -> np.ndarray:
    """radix**t for t < width, as int64; radix**width must fit int64."""
    if radix ** width >= 1 << 63:
        raise ValueError(f"{radix}**{width} does not fit int64")
    return radix ** np.arange(width, dtype=np.int64)


def to_digits_array(x, radix: int, width: int) -> np.ndarray:
    """Array form of ``gftower.to_digits``: the base-``radix`` digits of each
    entry of ``x``, least significant first, along a new last axis (int64).
    Entries are assumed to lie in [0, radix**width)."""
    return np.asarray(x, dtype=np.int64)[..., None] // _digit_weights(radix, width) % radix


def from_digits_array(digits, radix: int) -> np.ndarray:
    """Array form of ``gftower.from_digits``: folds the last axis of
    ``digits``, least significant first, into int64 integers."""
    digits = np.asarray(digits, dtype=np.int64)
    return digits @ _digit_weights(radix, digits.shape[-1])


@functools.lru_cache(maxsize=32)
def _chunk_sums(p: int, k: int, sign: int) -> np.ndarray:
    """The digit-wise a + sign*b mod p of every pair of k-digit base-p
    integers, at index a * p^k + b, as int64; built on first use and shared
    read-only."""
    digits = to_digits_array(np.arange(p ** k), p, k)
    sums = from_digits_array((digits[:, None] + sign * digits[None, :]) % p, p)
    table = sums.reshape(-1)
    table.flags.writeable = False
    return table


def add_digits(a, b, p: int, width: int, sign: int = 1) -> np.ndarray:
    """a + sign*b for F_p-coordinate vectors packed as base-p integers of
    ``width`` digits, elementwise with numpy broadcasting, as int64.

    Vertex indices, vector indices and F_{q^N} encodings are all such
    integers (q = p^m), so this adds matrices, vectors and field elements
    alike.  With p = 2 it is XOR.  Otherwise the width is cut into chunks
    of k digits, k the largest with p^(2k) <= ADD_TABLE_SIZE, and each
    chunk's digit-wise sum mod p is read from the ``_chunk_sums`` table;
    when p^2 exceeds the table size, each one-digit chunk is summed mod p.
    """
    if p == 2:
        return np.bitwise_xor(a, b)
    weights = _digit_weights(p, width)
    k = 1
    while p ** (2 * k + 2) <= ADD_TABLE_SIZE:
        k += 1
    table = _chunk_sums(p, k, sign) if p * p <= ADD_TABLE_SIZE else None
    stride = p ** k
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    for c in range(0, width, k):
        # The last chunk is reduced mod p^(width - c), so digits at and
        # above ``width`` are dropped, as the digit-wise rule drops them.
        size = p ** min(k, width - c)
        a, x = np.divmod(a, size)
        b, y = np.divmod(b, size)
        if table is None:
            s = x + sign * y
            s %= p
        else:
            s = table.take(x * stride + y)
        if c:
            s *= weights[c]
            out += s
        else:
            out = s
    return out


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
    A = to_digits_array(words, q, tower.N).astype(t.sub.dtype)
    for c in range(tower.N):
        has = A[:, :, c] != 0
        piv = has.argmax(axis=1)
        out += has[rows, piv]
        P = A[rows, piv, c:]
        f = t.mul[A[:, :, c], t.inv[P[:, 0]][:, None]]
        A[:, :, c:] = t.sub[A[:, :, c:], t.mul[f[:, :, None], P[:, None, :]]]
    return out


@functools.lru_cache(maxsize=32)
def index_ranks(tower: FieldTower, radix: int, width: int) -> np.ndarray:
    """``ranks`` of the word of ``width`` base-``radix`` digits of every
    index below radix**width, as uint8, in blocks of RANK_BLOCK indices;
    built on first use and shared read-only.

    With (q^N, n) the indices are vector indices, and with (q^n, N) vertex
    indices: the N base-q^n digits of one are the rows of its matrix M,
    whose word has rank(M^T) = rank(M).  Digit order only permutes a
    word's entries, so it does not change the rank."""
    order = radix ** width
    out = np.empty(order, dtype=np.uint8)
    for lo in range(0, order, RANK_BLOCK):
        idx = np.arange(lo, min(lo + RANK_BLOCK, order))
        out[lo : lo + len(idx)] = ranks(tower, to_digits_array(idx, radix, width))
    out.flags.writeable = False
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


def _gaussian_binomial(a: int, b: int, q: int) -> int:
    """[a, b]_q, the number of b-dimensional subspaces of F_q^a; 0 unless
    0 <= b <= a."""
    if not 0 <= b <= a:
        return 0
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@functools.lru_cache(maxsize=32)
def rank_eigenmatrix(N: int, n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Eigenmatrix of the bilinear-forms scheme on N x n matrices over F_q,
    whose relation k joins two matrices at rank distance k: entry [i][k] is
    its eigenvalue on eigenspace i,

        P_k(i) = sum_{j=0..k} (-1)^(k-j) q^C(k-j,2) [n-j, n-k]_q [n-i, j]_q q^(Nj),

    in exact integers, i and k = 0 .. n (Delsarte, JCTA 25, 1978).  Row 0
    holds the valencies ``count_rank_k``.  The scheme is self-dual, so
    P P = q^(Nn) I, and P also maps a code's rank spectrum to its dual's:
    B_k = (1/|C|) sum_i A_i P_k(i)."""
    if not 0 <= n <= N:
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    return tuple(
        tuple(
            sum(
                (-1) ** (k - j)
                * q ** ((k - j) * (k - j - 1) // 2)
                * _gaussian_binomial(n - j, n - k, q)
                * _gaussian_binomial(n - i, j, q)
                * q ** (N * j)
                for j in range(k + 1)
            )
            for k in range(n + 1)
        )
        for i in range(n + 1)
    )


# ---------------------------------------------------------------------------
# enumeration, indexing, labels
# ---------------------------------------------------------------------------

def mat_index(M: MatFq) -> int:
    """Integer index of M: row-major entries as base-q digits, entry (0,0) most significant."""
    return from_digits(reversed(M.entries), M.tower.q)


def mat_from_index(tower: FieldTower, rows: int, cols: int, index: int) -> MatFq:
    return MatFq(tower, rows, cols, to_digits(index, tower.q, rows * cols)[::-1])


def entries_label(entries: Sequence[int], q: int) -> str:
    """The text form of F_q entries, most significant first: base-q digits
    run together for q <= 10, decimal entries joined by commas beyond."""
    return ("" if q <= 10 else ",").join(map(str, entries))


def mat_label(M: MatFq) -> str:
    """Compact text form of M: its row-major entries as ``entries_label``."""
    return entries_label(M.entries, M.tower.q)


def mat_from_label(tower: FieldTower, rows: int, cols: int, label: str) -> MatFq:
    """The matrix whose ``mat_label`` is ``label``; any other text is a ValueError."""
    q, size = tower.q, rows * cols
    digits = q <= 10
    parts = list(label) if digits else label.split(",")
    if len(parts) != size:
        raise ValueError(f"label must have {size} {'digits' if digits else 'entries'}")
    form = f"base-{q} digits" if digits else f"comma-separated decimal entries below {q}"
    malformed = ValueError(f"label {label!r} is not {size} {form}")
    try:
        entries = tuple(map(int, parts))
    except ValueError:
        raise malformed from None
    if not all(0 <= e < q for e in entries):
        raise malformed
    M = MatFq(tower, rows, cols, entries)
    if mat_label(M) != label:
        raise ValueError(f"label {label!r} is not in canonical form {mat_label(M)!r}")
    return M


def vec_index(v: VecExt) -> int:
    """Integer index of v: entries as base-q^N digits, entry 0 most significant."""
    return from_digits(reversed(v.entries), v.tower.order)


def vec_from_index(tower: FieldTower, n: int, index: int) -> VecExt:
    return VecExt(tower, to_digits(index, tower.order, n)[::-1])


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
    check_budget(count_rank_k(rows, cols, q, 1), budget)
    mul = tower.base.mul
    normalized = []
    for widx in range(1, q ** cols):
        w = to_digits(widx, q, cols)[::-1]
        first = next(x for x in w if x)
        if first == 1:
            normalized.append(w)
    for uidx in range(1, q ** rows):
        u = to_digits(uidx, q, rows)[::-1]
        for w in normalized:
            entries = tuple(mul(ui, wj) for ui in u for wj in w)
            yield MatFq(tower, rows, cols, entries)
