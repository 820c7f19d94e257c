"""Matrix ranks, the vector bridge, counting formulas, enumeration."""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from matgraph.codes import parity_syndrome
from matgraph.gftower import _add_digits, build_tower, from_digits, to_digits
from matgraph.linalg import (
    ADD_TABLE_SIZE,
    BudgetExceededError,
    MatFq,
    VecExt,
    _chunk_sums,
    add_digits,
    column_rank,
    count_rank_k,
    enumerate_matrices,
    enumerate_rank_one,
    from_digits_array,
    index_ranks,
    mat_from_index,
    mat_from_label,
    mat_index,
    mat_label,
    matrix_rank_over,
    matrix_to_vector,
    null_space,
    rank,
    rank_distance,
    rank_eigenmatrix,
    ranks,
    row_and_null_space,
    row_reduce,
    to_digits_array,
    vec_from_index,
    vec_index,
    vector_to_matrix,
    word_rank,
    zero_matrix,
)

T22 = build_tower(2, 1, 2)
T33 = build_tower(3, 1, 3)
T8 = build_tower(2, 1, 3)


def test_rank_zero_matrix():
    assert rank(zero_matrix(T22, 2, 2)) == 0
    assert rank(zero_matrix(T33, 3, 2)) == 0


def test_rank_identity_padded():
    M = MatFq(T33, 3, 2, (1, 0, 0, 1, 0, 0))
    assert rank(M) == 2


def test_rank_all_ones_2x2():
    assert rank(MatFq(T22, 2, 2, (1, 1, 1, 1))) == 1


def test_rank_f3_example():
    # second row is twice the first
    assert rank(MatFq(T33, 2, 2, (1, 2, 2, 1))) == 1
    assert rank(MatFq(T33, 2, 2, (1, 2, 2, 2))) == 2


def test_rank_matches_generic_elimination():
    # the q = 2 bitmask path against the generic field-op path
    tower = T22
    for M in enumerate_matrices(tower, 2, 2):
        assert rank(M) == matrix_rank_over(M.row_lists(), tower.base)


def test_rank_invariant_under_transpose_elimination():
    for M in enumerate_matrices(T33, 3, 2):
        transposed = [[M.entry(i, j) for i in range(M.rows)] for j in range(M.cols)]
        assert rank(M) == matrix_rank_over(transposed, T33.base)


def test_constructor_rejects_wide_matrices():
    # No silent transpose: a wide matrix is refused, a tall one kept as given.
    with pytest.raises(ValueError, match="cols <= rows"):
        MatFq(T33, 2, 3, (1, 2, 0, 0, 1, 2))
    assert MatFq(T33, 3, 2, (1, 0, 2, 1, 0, 2)).column(0) == (1, 2, 0)


def test_matrix_addition_subtraction():
    A = MatFq(T33, 2, 2, (1, 2, 0, 1))
    B = MatFq(T33, 2, 2, (2, 2, 1, 0))
    assert (A + B).entries == (0, 1, 1, 1)
    assert (A - B).entries == (2, 0, 2, 1)
    assert (A - A).entries == (0, 0, 0, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_rank_distance_metric_axioms_exhaustive(p):
    tower = build_tower(p, 1, 2)
    mats = list(enumerate_matrices(tower, 2, 2))
    V = len(mats)
    dist = [[rank_distance(mats[i], mats[j]) for j in range(V)] for i in range(V)]
    for i in range(V):
        for j in range(V):
            assert dist[i][j] == dist[j][i]
            assert (dist[i][j] == 0) == (i == j)
    for i, j, k in itertools.product(range(V), range(V), range(V)):
        assert dist[i][k] <= dist[i][j] + dist[j][k]


def test_rank_invariant_under_invertible_multiply():
    rng = random.Random(7)
    tower = T33
    f = tower.base

    def matmul(A, B, n):
        return [
            [
                sum_f(f, [f.mul(A[i][t], B[t][j]) for t in range(n)])
                for j in range(n)
            ]
            for i in range(n)
        ]

    def sum_f(f, xs):
        acc = 0
        for x in xs:
            acc = f.add(acc, x)
        return acc

    for _ in range(20):
        M = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        while True:
            P = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
            if matrix_rank_over(P, f) == 3:
                break
        PM = matmul(P, M, 3)
        assert matrix_rank_over(PM, f) == matrix_rank_over(M, f)


def test_vector_to_matrix_example():
    # (alpha, 0) over F_8: first column is the expansion of alpha
    v = VecExt(T8, (2, 0))
    M = vector_to_matrix(v)
    assert (M.rows, M.cols) == (3, 2)
    assert M.column(0) == (0, 1, 0)
    assert M.column(1) == (0, 0, 0)
    assert rank(M) == 1


def test_vector_matrix_roundtrip_exhaustive():
    tower = T22
    for idx in range(16):
        v = vec_from_index(tower, 2, idx)
        assert matrix_to_vector(vector_to_matrix(v)) == v
    for M in enumerate_matrices(tower, 2, 2):
        assert vector_to_matrix(matrix_to_vector(M)) == M


def test_matrix_to_vector_needs_N_rows():
    with pytest.raises(ValueError, match="matrix must have N = 3 rows, has 2"):
        matrix_to_vector(zero_matrix(T8, 2, 2))


def test_column_rank_examples():
    assert column_rank(VecExt(T8, (1, 2, 4))) == 3  # 1, alpha, alpha^2
    assert column_rank(VecExt(T8, (5,))) == 1
    assert column_rank(VecExt(T8, (3, 3))) == 1  # repeated coordinate
    assert column_rank(VecExt(T8, (0, 0))) == 0


def test_count_rank_k_trivial_and_small():
    assert count_rank_k(2, 2, 2, 0) == 1
    assert count_rank_k(5, 3, 3, 0) == 1
    assert count_rank_k(2, 2, 2, 1) == 9
    with pytest.raises(ValueError):
        count_rank_k(2, 2, 2, 3)
    with pytest.raises(ValueError):
        count_rank_k(2, 3, 2, 1)  # n > N


def test_count_rank_k_sums_to_space_size():
    for q in (2, 3):
        for N in range(1, 5):
            for n in range(1, N + 1):
                total = sum(count_rank_k(N, n, q, k) for k in range(n + 1))
                assert total == q ** (N * n)


def test_count_rank_k_matches_enumeration_small():
    for p, N, n in ((2, 2, 2), (2, 3, 2), (3, 2, 2)):
        tower = build_tower(p, 1, N)
        counts = {}
        for M in enumerate_matrices(tower, N, n):
            counts[rank(M)] = counts.get(rank(M), 0) + 1
        for k in range(n + 1):
            assert counts.get(k, 0) == count_rank_k(N, n, p, k)


def test_rank_eigenmatrix_row_0_counts_ranks_and_its_square_is_the_order():
    # Row 0 holds the valencies, and the bilinear-forms scheme is self-dual,
    # so P P = q^(Nn) I.
    for q in (2, 3, 4, 5, 7, 8, 9):
        for N in range(1, 7):
            for n in range(N + 1):
                P = rank_eigenmatrix(N, n, q)
                assert P[0] == tuple(count_rank_k(N, n, q, k) for k in range(n + 1)), (N, n, q)
                for i, j in itertools.product(range(n + 1), repeat=2):
                    square = sum(P[i][k] * P[k][j] for k in range(n + 1))
                    assert square == (q ** (N * n) if i == j else 0), (N, n, q, i, j)


@pytest.mark.parametrize("pmN, n", [((2, 1, 2), 2), ((2, 1, 3), 2), ((3, 1, 2), 2), ((2, 1, 3), 3), ((2, 1, 4), 2)])
def test_rank_eigenmatrix_columns_are_the_eigenvalues_of_each_rank_graph(pmN, n):
    # column k lists the distinct eigenvalues of the "rank of v - u is k" graph
    tower = build_tower(*pmN)
    p, N, width = tower.p, tower.N, tower.N * n * tower.m
    V = tower.q ** (N * n)
    vertices = np.arange(V)
    rank_of = index_ranks(tower, tower.q**n, N)
    diff_ranks = rank_of[add_digits(vertices[None, :], vertices[:, None], p, width, sign=-1)]
    P = rank_eigenmatrix(N, n, tower.q)
    for k in range(n + 1):
        eigenvalues = np.linalg.eigvalsh((diff_ranks == k).astype(float))
        assert set(np.rint(eigenvalues).astype(int).tolist()) == {P[i][k] for i in range(n + 1)}


def test_rank_eigenmatrix_needs_n_at_most_N():
    assert rank_eigenmatrix(3, 0, 2) == ((1,),)
    with pytest.raises(ValueError, match="need 0 <= n <= N"):
        rank_eigenmatrix(2, 3, 2)


def test_enumerate_rank_one_counts():
    mats = list(enumerate_rank_one(T22, 2, 2))
    assert len(mats) == 9 == count_rank_k(2, 2, 2, 1)
    assert len(set(m.entries for m in mats)) == 9
    assert all(rank(M) == 1 for M in mats)

    assert len(list(enumerate_rank_one(T22, 2, 1))) == 3
    t3 = build_tower(3, 1, 1)
    assert len(list(enumerate_rank_one(t3, 1, 1))) == 2  # q - 1 nonzero scalars


def test_enumeration_budget():
    tower = build_tower(2, 1, 5)
    with pytest.raises(BudgetExceededError):
        list(enumerate_matrices(tower, 5, 5, budget=100))
    with pytest.raises(BudgetExceededError):
        list(enumerate_rank_one(tower, 5, 5, budget=10))


# Per base field: a 2 x 2 matrix, its label, and texts that are no label:
# a wrong entry count, commas below q = 11, "01"-style entries, a non-ASCII
# digit, a character that is no digit, an entry out of range.
LABEL_CASES = {
    3: ((1, 0, 2, 1), "1021", ["102", "10211", "1,0,2,1", "10\u06621", "10a1", "1051"]),
    11: (
        (1, 0, 10, 1),
        "1,0,10,1",
        ["1,0,10", "1,0,10,1,0", "10101", "01,0,10,1", "1,0,1\u0660,1", "1,0,a,1", "1,0,11,1", "1,0,-1,1"],
    ),
}


@pytest.mark.parametrize("p", sorted(LABEL_CASES))
def test_mat_index_label_roundtrip(p):
    tower = build_tower(p, 1, 2)
    for idx in range(p ** 4):
        M = mat_from_index(tower, 2, 2, idx)
        assert mat_index(M) == idx
        assert mat_from_label(tower, 2, 2, mat_label(M)) == M
    entries, label, non_labels = LABEL_CASES[p]
    M = MatFq(tower, 2, 2, entries)
    assert mat_label(M) == label
    assert repr(M) == f"MatFq(2x2 over F_{p}, {label})"
    for text in non_labels:
        with pytest.raises(ValueError):
            mat_from_label(tower, 2, 2, text)


@pytest.mark.parametrize(
    "p, text, form",
    [
        (3, "1251", "4 base-3 digits"),
        (3, "12a1", "4 base-3 digits"),
        (11, "1,0,11,1", "4 comma-separated decimal entries below 11"),
        (11, "1,0,-1,1", "4 comma-separated decimal entries below 11"),
    ],
)
def test_mat_from_label_names_the_label_and_its_form(p, text, form):
    with pytest.raises(ValueError) as info:
        mat_from_label(build_tower(p, 1, 2), 2, 2, text)
    assert str(info.value) == f"label {text!r} is not {form}"


def test_mat_label_is_row_major_msb_first():
    M = MatFq(T22, 2, 2, (1, 0, 1, 1))
    assert mat_label(M) == "1011"
    assert mat_index(M) == 0b1011


def test_vec_index_roundtrip():
    for idx in range(64):
        v = vec_from_index(T8, 2, idx)
        assert vec_index(v) == idx


def test_vecext_validation():
    with pytest.raises(ValueError):
        VecExt(T8, (8, 0))  # out of field range
    with pytest.raises(ValueError):
        VecExt(T8, (1, 2, 3, 4))  # longer than N


def test_row_reduce_detects_dependent_rows():
    f = T8.ext
    # alpha * (1, alpha, alpha^2) = (alpha, alpha^2, 1 + alpha): rank 1
    assert matrix_rank_over([[1, 2, 4], [2, 4, 3]], f) == 1


def test_row_and_null_space_from_one_reduction():
    f = T8.ext
    rows = [[1, 2, 4], [0, 0, 0], [2, 4, 1]]  # a zero row; rank 2
    row_space, kernel = row_and_null_space(rows, 3, f)
    assert kernel == null_space(rows, 3, f)
    assert len(row_space) == 2 and matrix_rank_over(row_space + rows, f) == 2
    assert row_and_null_space([[0, 0]], 2, f) == ([], [(1, 0), (0, 1)])


def test_row_reduce_and_null_space():
    f = T8.ext
    rows = [[1, 2, 4], [2, 4, 5]]
    rref, pivots = row_reduce(rows, f)
    assert len(pivots) == 2
    basis = null_space(rows, 3, f)
    assert len(basis) == 1
    for b in basis:
        for row in rows:
            acc = 0
            for x, y in zip(b, row):
                acc = f.add(acc, f.mul(x, y))
            assert acc == 0
    # no constraints: the whole space
    assert len(null_space([], 3, f)) == 3


def _in_span_cases(tower, length, samples):
    vectors = list(itertools.product(range(tower.order), repeat=length))
    if samples is None:
        subsets = [S for k in range(3) for S in itertools.combinations(vectors, k)]
        return [(S, x) for S in subsets for x in vectors]
    rng = random.Random(0)
    return [
        (tuple(rng.sample(vectors, rng.randrange(3))), rng.choice(vectors)) for _ in range(samples)
    ]


@pytest.mark.parametrize(
    "pmN, length, samples",
    [((2, 1, 2), 2, None), ((3, 1, 1), 3, None), ((2, 2, 1), 2, None), ((3, 2, 1), 2, 400)],
)
def test_span_membership_is_a_zero_syndrome_against_the_null_space(pmN, length, samples):
    # x lies in the row space of S iff it is orthogonal to every vector that
    # is orthogonal to S, which is what the forbidden-distance search tests.
    tower = build_tower(*pmN)
    ext = tower.ext
    for S, x in _in_span_cases(tower, length, samples):
        rows = [list(v) for v in S]
        in_span = matrix_rank_over(rows + [list(x)], ext) == matrix_rank_over(rows, ext)
        checks = null_space(rows, length, ext)
        assert in_span == (not any(parity_syndrome(tower, checks, x))), (S, x)


@pytest.mark.parametrize(
    "pmN", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 3), (2, 3, 2)]
)
def test_word_rank_matches_matrix_rank_exhaustively(pmN):
    tower = build_tower(*pmN)
    checked = 0
    for n in range(1, tower.N + 1):
        if tower.q ** (tower.N * n) > 40000:
            break
        words = list(itertools.product(range(tower.order), repeat=n))
        batched = ranks(tower, np.array(words, dtype=np.int64))
        for word, got in zip(words, batched.tolist()):
            expected = rank(vector_to_matrix(VecExt(tower, word)))
            assert word_rank(tower, word) == expected, (pmN, word)
            assert got == expected, (pmN, word)
            checked += 1
    assert checked >= tower.order


def test_ranks_above_table_order_match_word_rank():
    tower = build_tower(257, 1, 2)  # q^2 table entries over FQ_TABLE_MAX_Q^2
    rng = random.Random(257)
    words = [(rng.randrange(tower.order), rng.randrange(tower.order)) for _ in range(300)]
    words += [(0, 0), (1, 0), (3, 3 * 257), (5, 10)]
    expected = [word_rank(tower, w) for w in words]
    assert ranks(tower, np.array(words, dtype=np.int64)).tolist() == expected
    assert {0, 1, 2} <= set(expected)


def test_kernels_use_numpy_itself_once_one_has_run():
    from matgraph import _numpy, codes, coloring, graph, linalg

    assert ranks(build_tower(3, 1, 2), [[1, 3]]).tolist() == [2]
    # The modules' np is the numpy module, not the placeholder in front of it.
    for module in (_numpy, linalg, graph, codes, coloring):
        assert module.np is np, module.__name__


def test_ranks_rejects_encodings_beyond_int64():
    with pytest.raises(ValueError):
        ranks(SimpleNamespace(order=1 << 62), np.zeros((1, 1), dtype=np.int64))


@pytest.mark.parametrize("pmN", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 2, 2)])
def test_add_digits_is_field_addition_and_subtraction(pmN):
    tower = build_tower(*pmN)
    ext = tower.ext
    width = tower.m * tower.N
    a, b = np.divmod(np.arange(tower.order ** 2), tower.order)
    added = add_digits(a, b, tower.p, width).tolist()
    subtracted = add_digits(a, b, tower.p, width, sign=-1).tolist()
    pairs = list(zip(a.tolist(), b.tolist()))
    assert added == [ext.add(x, y) for x, y in pairs]
    assert subtracted == [ext.sub(x, y) for x, y in pairs]


def _chunk_digits(p):
    """The k of ``add_digits``: the largest with p^(2k) <= ADD_TABLE_SIZE, or
    1 when p^2 exceeds it."""
    k = 1
    while p ** (2 * k + 2) <= ADD_TABLE_SIZE:
        k += 1
    return k


def _widths(p):
    """Every width from 1 to one past two chunks, within int64."""
    top = 2 * _chunk_digits(p) + 1
    return [w for w in range(1, top + 1) if p ** w < 1 << 63]


def _scalar_sums(a, b, p, width, sign):
    """``gftower._add_digits`` on each broadcast pair of entries."""
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    return [_add_digits(int(x), int(y), p, sign) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 67, 65537])
def test_add_digits_matches_the_scalar_rule(p):
    rng = np.random.default_rng(p)
    for width in _widths(p):
        top = p ** width - 1
        a = np.concatenate([[0, top], rng.integers(0, top, size=10, endpoint=True)])[:, None]
        b = np.concatenate([[0, top, 1], rng.integers(0, top, size=7, endpoint=True)])[None, :]
        for sign in (1, -1):
            out = add_digits(a, b, p, width, sign)
            assert out.dtype == np.int64 and out.shape == (12, 10)
            assert out.ravel().tolist() == _scalar_sums(a, b, p, width, sign), (width, sign)
            # Elementwise, same shapes, and 0-d or Python-int operands.
            flat = add_digits(np.broadcast_to(a, out.shape), np.broadcast_to(b, out.shape), p, width, sign)
            assert np.array_equal(flat, out)
            x, y = int(a[-1, 0]), int(b[0, -1])
            for args in ((x, y), (np.int64(x), np.array(y))):
                one = add_digits(*args, p, width, sign)
                assert np.asarray(one).dtype == np.int64 and np.ndim(one) == 0
                assert int(one) == _add_digits(x, y, p, sign)
            # Digits at and above ``width`` are dropped, as in the digit-wise rule.
            if (top + 1) * p < 1 << 63:
                assert add_digits(x + (top + 1) * (p - 1), y + top + 1, p, width, sign) == one


def test_add_digits_keeps_the_int64_guard():
    for p, width in ((3, 40), (5, 28), (65537, 4)):
        with pytest.raises(ValueError, match="does not fit int64"):
            add_digits(0, 0, p, width)
    assert add_digits(3 ** 39 - 1, 1, 3, 39) == 3 ** 39 - 3  # digit-wise: the carry is dropped


def test_add_digit_tables_are_cached_and_read_only():
    _chunk_sums.cache_clear()
    for _ in range(2):
        add_digits(np.arange(9), 4, 3, 2, sign=-1)
    assert _chunk_sums.cache_info()[:2] == (1, 1)  # built once, then reused
    table = _chunk_sums(3, _chunk_digits(3), -1)
    assert _chunk_sums.cache_info()[:2] == (2, 1)  # the table add_digits built
    assert table.dtype == np.int64 and table.size == 3 ** (2 * _chunk_digits(3)) <= ADD_TABLE_SIZE
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1


@pytest.mark.parametrize("radix, width", [(2, 1), (2, 62), (3, 6), (4, 5), (9, 4), (257, 3), (65537, 3), (2**31 - 1, 2)])
def test_array_digit_codec_agrees_with_scalar_codec(radix, width):
    top = radix ** width - 1
    rng = random.Random(radix * 100 + width)
    values = [0, 1, radix - 1, top - 1, top] + [rng.randrange(top + 1) for _ in range(200)]
    digits = to_digits_array(values, radix, width)
    assert digits.shape == (len(values), width)
    assert digits.tolist() == [to_digits(x, radix, width) for x in values]
    assert from_digits_array(digits, radix).tolist() == values
    assert [from_digits(d, radix) for d in digits.tolist()] == values
    # Digits go along a new last axis, whatever the input's shape.
    grid = np.array(values[:200]).reshape(10, 20)
    assert to_digits_array(grid, radix, width).shape == (10, 20, width)
    assert np.array_equal(from_digits_array(to_digits_array(grid, radix, width), radix), grid)


def test_array_digit_codec_requires_int64_range():
    assert from_digits_array(np.full((1, 7), 255), 256).tolist() == [(1 << 56) - 1]
    for radix, width in ((256, 8), (256, 9), (2, 63), (3, 40)):
        with pytest.raises(ValueError):
            from_digits_array(np.zeros((1, width), dtype=np.int64), radix)
        with pytest.raises(ValueError):
            to_digits_array([0], radix, width)
