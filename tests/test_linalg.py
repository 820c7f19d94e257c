"""Matrix ranks, the vector bridge, counting formulas, enumeration."""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from matgraph.gftower import build_tower
from matgraph.linalg import (
    BudgetExceededError,
    MatFq,
    VecExt,
    column_rank,
    count_rank_k,
    enumerate_matrices,
    enumerate_rank_one,
    mat_from_index,
    mat_from_json,
    mat_from_label,
    mat_index,
    mat_label,
    mat_to_json,
    matrix_rank_over,
    matrix_to_vector,
    null_space,
    rank,
    rank_distance,
    rank_one_count,
    ranks,
    row_reduce,
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


def test_constructor_transposes_wide_matrices():
    M = MatFq(T33, 2, 3, (1, 2, 0, 0, 1, 2))
    assert (M.rows, M.cols) == (3, 2)
    assert M.transposed
    assert M.column(0) == (1, 2, 0)


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


def test_enumerate_rank_one_counts():
    mats = list(enumerate_rank_one(T22, 2, 2))
    assert len(mats) == 9 == rank_one_count(2, 2, 2)
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


def test_mat_index_label_roundtrip():
    tower = T33
    for idx in range(3 ** 4):
        M = mat_from_index(tower, 2, 2, idx)
        assert mat_index(M) == idx
        assert mat_from_label(tower, 2, 2, mat_label(M)) == M


def test_mat_label_is_row_major_msb_first():
    M = MatFq(T22, 2, 2, (1, 0, 1, 1))
    assert mat_label(M) == "1011"
    assert mat_index(M) == 0b1011


def test_mat_json_roundtrip():
    tower = build_tower(2, 2, 2)
    M = MatFq(tower, 2, 2, (3, 0, 1, 2))
    data = mat_to_json(M)
    assert mat_from_json(tower, data) == M


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


def test_ranks_rejects_encodings_beyond_int64():
    with pytest.raises(ValueError):
        ranks(SimpleNamespace(order=1 << 62), np.zeros((1, 1), dtype=np.int64))
