"""Rank-metric codes: the MRD construction, duality, spectra, built-ins."""

import importlib.util
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from matgraph.gftower import build_tower
from matgraph.codes import (
    LinearRankCode,
    builtin_code,
    check_parity_columns,
    code_from_json,
    code_to_json,
    enumerate_codewords,
    enumerate_span,
    gabidulin,
    gabidulin_parity,
    generator_from_parity,
    is_equidistant,
    min_rank_distance,
    parity_from_generator,
    rank_spectrum,
    same_row_space,
    span_blocks,
)
from matgraph.coloring import kernel_rank_spectrum
from matgraph.linalg import (
    RANK_BLOCK,
    BudgetExceededError,
    VecExt,
    column_rank,
    count_rank_k,
    vec_rank_distance,
)

ORACLES = Path(__file__).resolve().parents[1] / "benchmarks" / "oracles.py"

T8 = build_tower(2, 1, 3)
T4N2 = build_tower(2, 1, 2)  # q = 2, N = 2: top field F_4


def test_gabidulin_full_distance():
    code = gabidulin(T8, 3, 1)
    assert code.n - code.k + 1 == 3
    spectrum = rank_spectrum(code)
    assert spectrum == {0: 1, 3: 7}
    assert min_rank_distance(code) == 3
    assert code.size == 8


def test_gabidulin_whole_space():
    code = gabidulin(T8, 3, 3)
    assert code.parity == ()
    assert code.size == 8 ** 3
    assert min_rank_distance(code) == 1


def test_gabidulin_f4_singleton_equality():
    code = gabidulin(T4N2, 2, 1)
    d = min_rank_distance(code)
    assert d == 2
    assert code.size == 4 == T4N2.order ** (code.n - d + 1)


def test_gabidulin_rejects_bad_s():
    with pytest.raises(ValueError):
        gabidulin(build_tower(2, 1, 4), 3, 1, s=2)  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        gabidulin(T8, 3, 1, s=0)


def test_gabidulin_rejects_dependent_h():
    with pytest.raises(ValueError):
        gabidulin(T8, 2, 1, h=(1, 1))
    with pytest.raises(ValueError):
        gabidulin(T8, 2, 1, h=(3, 0))


def test_gabidulin_rejects_bad_k():
    with pytest.raises(ValueError):
        gabidulin(T8, 3, 0)
    with pytest.raises(ValueError):
        gabidulin(T8, 3, 4)


def test_gabidulin_custom_h():
    code = gabidulin(T8, 2, 1, h=(1, 4))
    assert min_rank_distance(code) == 2


def test_parity_rows_are_frobenius_powers():
    rows = gabidulin_parity(T8, 3, 2, s=1)
    assert rows[0] == (1, 2, 4)
    assert rows[1] == tuple(T8.frobenius(h, 1) for h in (1, 2, 4))


def test_generator_parity_orthogonal():
    for k in (1, 2):
        code = gabidulin(T8, 3, k)
        ext = T8.ext
        for g in code.generator:
            for h in code.parity:
                acc = 0
                for a, b in zip(g, h):
                    acc = ext.add(acc, ext.mul(a, b))
                assert acc == 0


def test_duality_roundtrip_row_space():
    code = gabidulin(T8, 3, 1)
    again = parity_from_generator(T8, generator_from_parity(T8, code.parity, 3), 3)
    assert same_row_space(T8, again, code.parity)


def test_duality_coordinate_split():
    # parity = identity on the first coordinate: generator supported on the rest
    parity = ((1, 0, 0),)
    gen = generator_from_parity(T8, parity, 3)
    assert len(gen) == 2
    assert all(row[0] == 0 for row in gen)


def test_duality_rejects_rank_deficient():
    with pytest.raises(ValueError):
        generator_from_parity(T8, ((1, 2, 4), (2, 4, 3)), 3)  # row 2 = alpha * row 1


def test_enumerate_codewords():
    code = gabidulin(T8, 3, 1)
    words = list(enumerate_codewords(code))
    assert len(words) == 8
    assert len(set(w.entries for w in words)) == 8
    assert VecExt(T8, (0, 0, 0)) in words
    for w in words:
        assert code.syndrome(w.entries) == (0, 0)


def test_spectrum_total_is_code_size():
    for k in (1, 2, 3):
        code = gabidulin(T8, 3, k)
        spectrum = rank_spectrum(code)
        assert sum(spectrum.values()) == code.size
        assert spectrum[0] == 1
    # k = n: the whole space, with the exact count of each rank
    assert spectrum == {r: count_rank_k(3, 3, 2, r) for r in range(4)}


def test_spectrum_budget():
    code = gabidulin(T8, 3, 3)
    with pytest.raises(BudgetExceededError):
        rank_spectrum(code, budget=100)


def _span_reference(tower, rows, n):
    """Every combination sum(c_i * rows[i]), scalars in encoding order with
    the first row most significant, by scalar field operations."""
    ext = tower.ext
    out = []
    for scalars in itertools.product(range(tower.order), repeat=len(rows)):
        word = (0,) * n
        for c, row in zip(scalars, rows):
            word = tuple(ext.add(a, ext.mul(c, x)) for a, x in zip(word, row))
        out.append(word)
    return out


@pytest.mark.parametrize(
    "pmN, n, k",
    [
        ((2, 1, 4), 3, 3),  # one full block
        ((2, 1, 4), 2, 4),  # 16 blocks of 2^12 words
        ((3, 1, 2), 2, 4),  # a table of 729 words, 5 outer combinations per block
        ((2, 2, 2), 2, 3),  # m > 1
        ((5, 1, 2), 2, 2),
        ((2, 1, 13), 2, 1),  # the field alone is larger than a block
        ((3, 1, 2), 2, 0),  # the zero code
    ],
)
def test_span_blocks_match_scalar_reference(pmN, n, k):
    tower = build_tower(*pmN)
    rng = random.Random(repr(pmN) + str(k))
    rows = tuple(tuple(rng.randrange(tower.order) for _ in range(n)) for _ in range(k))
    blocks = list(span_blocks(tower, rows, n))
    assert all(b.dtype == np.int64 and 1 <= len(b) <= RANK_BLOCK for b in blocks)
    expected = _span_reference(tower, rows, n)
    assert [tuple(w) for b in blocks for w in b.tolist()] == expected
    assert list(enumerate_span(tower, rows, n)) == expected


def test_empty_span_and_trivial_kernel_are_the_zero_word():
    assert list(enumerate_span(T8, (), 3)) == [(0, 0, 0)]
    blocks = list(span_blocks(T8, (), 3))
    assert len(blocks) == 1 and blocks[0].tolist() == [[0, 0, 0]]
    # a full-rank square parity matrix has the zero word as its whole kernel
    assert kernel_rank_spectrum(T8, ((1, 0), (0, 1)), 2) == {0: 1}


def test_spectrum_of_2_20_words_matches_mrd_closed_form():
    spec = importlib.util.spec_from_file_location("matgraph_bench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    code = gabidulin(build_tower(2, 1, 10), 4, 2)
    assert code.size == 1 << 20
    assert rank_spectrum(code) == oracles.mrd_rank_spectrum(2, 10, 4, 2)


def test_check_parity_columns_gabidulin():
    code = gabidulin(T8, 3, 1)
    assert check_parity_columns(T8, code.parity, 3)
    assert not check_parity_columns(T8, code.parity, 2)


def test_check_parity_columns_zero_column():
    assert not check_parity_columns(T8, ((1, 0), (2, 0)), 2)


def test_check_parity_columns_single_row():
    # two columns of a one-row matrix are always dependent
    assert check_parity_columns(T8, ((1, 2),), 2)
    assert not check_parity_columns(T8, ((1, 0),), 2)


def test_check_parity_columns_empty_parity():
    assert check_parity_columns(T8, (), 1, n=3)
    with pytest.raises(ValueError):
        check_parity_columns(T8, (), 1)


def test_min_distance_agrees_with_pairwise():
    code = gabidulin(T4N2, 2, 1)
    words = list(enumerate_codewords(code))
    pairwise = min(
        vec_rank_distance(a, b)
        for i, a in enumerate(words)
        for b in words[i + 1 :]
    )
    assert pairwise == min_rank_distance(code)


def test_builtin_c1():
    c1 = builtin_code("C1")
    assert c1.size == 4
    assert c1.n == 2
    assert is_equidistant(c1.words) == 2
    entries = {m.entries for m in c1.words}
    assert entries == {(1, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 1, 1, 1)}


def test_builtin_c2():
    c2 = builtin_code("C2")
    assert c2.size == 8
    assert is_equidistant(c2.words) == 2
    assert VecExt(c2.tower, (1, 2)) in c2.words  # (1, alpha)
    assert VecExt(c2.tower, (4, 0)) in c2.words  # (alpha^2, 0)


def test_builtin_c3():
    c3 = builtin_code("C3")
    assert c3.size == 8
    assert c3.n == 3
    assert is_equidistant(c3.words) == 3
    assert VecExt(c3.tower, (4, 0, 0)) in c3.words
    assert VecExt(c3.tower, (7, 5, 7)) in c3.words


def test_builtin_rejects_wrong_tower():
    with pytest.raises(ValueError):
        builtin_code("C2", build_tower(2, 1, 2))
    with pytest.raises(ValueError):
        builtin_code("C0")


def test_is_equidistant_negative():
    code = gabidulin(T8, 3, 2)  # distance 2, but spectrum has ranks 2 and 3
    words = list(enumerate_codewords(code))
    assert is_equidistant(words) is None
    assert is_equidistant(words[:2]) is not None  # any two words are equidistant


def test_gabidulin_codeword_set_is_equidistant():
    code = gabidulin(T8, 3, 1)
    assert is_equidistant(list(enumerate_codewords(code))) == 3


def test_code_json_roundtrip():
    code = gabidulin(T8, 3, 1, s=2)
    data = json.loads(json.dumps(code_to_json(code)))
    again = code_from_json(data)
    assert again.n == code.n and again.k == code.k
    assert again.generator == code.generator
    assert again.parity == code.parity


def test_linear_code_validation():
    with pytest.raises(ValueError):
        LinearRankCode(T8, 3, 1, ((1, 2, 4),), ((1, 2, 4), (1, 2, 4)))  # parity rank deficient
    with pytest.raises(ValueError):
        LinearRankCode(T8, 3, 1, ((1, 0, 0),), ((1, 0, 0), (0, 1, 0)))  # not orthogonal
