"""Rank-metric codes: the MRD construction, duality, spectra, built-ins."""

import hashlib
import importlib.util
import itertools
import json
import random
import tracemalloc
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from matgraph.gftower import FieldTower, build_tower
from matgraph.codes import (
    LinearRankCode,
    _smaller_side_spectrum,
    builtin_code,
    check_parity_columns,
    code_from_json,
    code_to_json,
    enumerate_codewords,
    enumerate_span,
    gabidulin,
    gabidulin_parity,
    is_equidistant,
    line_blocks,
    min_nonzero_rank,
    min_rank_distance,
    rank_spectrum,
    span_blocks,
    span_rank_spectrum,
    word_rank_histogram,
)
from matgraph.coloring import kernel_rank_spectrum
from matgraph.linalg import (
    RANK_BLOCK,
    BudgetExceededError,
    VecExt,
    column_rank,
    count_rank_k,
    matrix_rank_over,
    null_space,
    row_reduce,
    vec_rank_distance,
)

ORACLES = Path(__file__).resolve().parents[1] / "benchmarks" / "oracles.py"


def same_row_space(tower, rows_a, rows_b):
    """Whether two row sets span the same subspace over F_{q^N}."""
    ra, rb = ([r for r in row_reduce(rows, tower.ext)[0] if any(r)] for rows in (rows_a, rows_b))
    return ra == rb

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
    generator = LinearRankCode(T8, 3, 1, None, code.parity).generator
    again = LinearRankCode(T8, 3, 1, generator, None).parity
    assert same_row_space(T8, again, code.parity)


def test_duality_coordinate_split():
    # parity = identity on the first coordinate: generator supported on the rest
    gen = LinearRankCode(T8, 3, 2, None, ((1, 0, 0),)).generator
    assert len(gen) == 2
    assert all(row[0] == 0 for row in gen)


def test_duality_rejects_rank_deficient():
    rows = ((1, 2, 4), (2, 4, 3))  # row 2 = alpha * row 1
    with pytest.raises(ValueError, match="parity matrix is not full rank"):
        LinearRankCode(T8, 3, 1, None, rows)
    with pytest.raises(ValueError, match="generator is not full rank"):
        LinearRankCode(T8, 3, 2, rows, None)
    with pytest.raises(ValueError, match="need a generator or a parity matrix"):
        LinearRankCode(T8, 3, 2, None, None)


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
    # The budget counts the words ranked on the side scanned: one per F_8^*
    # line of the parity side, 1 line, not the 9 of the [3,2] code itself.
    code = gabidulin(T8, 3, 2)
    with pytest.raises(BudgetExceededError, match="needs 1 items but the budget is 0"):
        rank_spectrum(code, budget=0)
    assert rank_spectrum(code, budget=1) == {0: 1, 2: 49, 3: 14}
    # the whole space: its dual {0} has no line at all
    assert rank_spectrum(gabidulin(T8, 3, 3), budget=1) == {0: 1, 1: 49, 2: 294, 3: 168}


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


SPAN_CASES = pytest.mark.parametrize(
    "pmN, n, k",
    [
        ((2, 1, 4), 3, 3),  # one full block
        ((2, 1, 4), 2, 4),  # 16 blocks of 2^12 words
        ((3, 1, 2), 2, 4),  # a table of 729 words, 5 outer combinations per block
        ((2, 2, 2), 2, 3),  # m > 1
        ((5, 1, 2), 2, 2),
        ((2, 1, 13), 2, 1),  # the field alone is larger than a block
        ((3, 1, 2), 2, 0),  # the zero code
        ((3, 2, 2), 2, 2),  # odd p, m > 1: a table of 81 words, 50 outer combinations per block
        ((4099, 1, 1), 1, 1),  # p > RANK_BLOCK: one image's multiples span two blocks
    ],
)


@SPAN_CASES
def test_span_blocks_match_scalar_reference(pmN, n, k):
    tower = build_tower(*pmN)
    rng = random.Random(repr(pmN) + str(k))
    rows = tuple(tuple(rng.randrange(tower.order) for _ in range(n)) for _ in range(k))
    blocks = list(span_blocks(tower, rows, n))
    assert all(b.dtype == np.int64 and 1 <= len(b) <= RANK_BLOCK for b in blocks)
    expected = _span_reference(tower, rows, n)
    assert [tuple(w) for b in blocks for w in b.tolist()] == expected
    assert list(enumerate_span(tower, rows, n)) == expected


@SPAN_CASES
def test_line_blocks_are_the_smallest_member_of_each_line(pmN, n, k):
    # The smallest member of a line in span order is the combination whose
    # leading nonzero scalar is 1 (the encoding of 1), and span order lists
    # those members in the order line_blocks visits them.
    tower = build_tower(*pmN)
    rng = random.Random(repr(pmN) + str(k))
    rows = tuple(tuple(rng.randrange(tower.order) for _ in range(n)) for _ in range(k))
    scalars = itertools.product(range(tower.order), repeat=k)
    expected = [
        word
        for c, word in zip(scalars, _span_reference(tower, rows, n))
        if any(c) and next(x for x in c if x) == 1
    ]
    blocks = list(line_blocks(tower, rows, n))
    assert all(b.dtype == np.int64 and 1 <= len(b) <= RANK_BLOCK for b in blocks)
    assert [tuple(w) for b in blocks for w in b.tolist()] == expected
    assert len(expected) == (tower.order**k - 1) // (tower.order - 1)


@pytest.mark.parametrize(
    "pmN, n", [((2, 1, 4), 3), ((3, 1, 2), 2), ((2, 2, 2), 2)], ids=["q2", "p3", "m2"]
)
def test_line_blocks_tabulate_all_rows_but_the_first(monkeypatch, pmN, n):
    # rows[0] only ever leads a line, so k rows need the F_p-basis images
    # of k - 1 rows, n * m * N field products each; the words are still the
    # smallest member of each line.  The tower is a private copy, as the
    # patch below sets an attribute on it and build_tower's is shared.
    tower = FieldTower(*pmN)
    rng = random.Random(repr(pmN))
    calls = []
    mul = tower.ext.mul
    monkeypatch.setattr(tower.ext, "mul", lambda *args: calls.append(1) or mul(*args))
    for k in (1, 2, 3):
        rows = tuple(tuple(rng.randrange(tower.order) for _ in range(n)) for _ in range(k))
        scalars = itertools.product(range(tower.order), repeat=k)
        span = [tuple(w) for b in span_blocks(tower, rows, n) for w in b.tolist()]
        expected = [word for c, word in zip(scalars, span) if any(c) and next(x for x in c if x) == 1]
        calls.clear()
        assert [tuple(w) for b in line_blocks(tower, rows, n) for w in b.tolist()] == expected
        assert len(calls) == (k - 1) * n * tower.m * tower.N


def _full_scan_spectrum(tower, rows, n):
    """Rank histogram of every word of the span, from ``span_blocks``."""
    return word_rank_histogram(tower, span_blocks(tower, rows, n))


@pytest.mark.parametrize(
    "pmN, n, k, extra",
    [
        ((2, 1, 3), 3, 1, {}),
        ((2, 1, 3), 3, 2, {}),
        ((2, 1, 3), 3, 3, {}),
        ((2, 1, 2), 2, 1, {}),
        ((2, 1, 3), 2, 1, {"h": (1, 4)}),
        ((2, 1, 3), 3, 1, {"s": 2}),
        ((2, 1, 10), 4, 2, {}),
    ],
)
def test_spectra_of_the_codes_here_match_the_full_scan(pmN, n, k, extra):
    tower = build_tower(*pmN)
    code = gabidulin(tower, n, k, **extra)
    full = _full_scan_spectrum(tower, code.generator, n)
    assert sum(full.values()) == code.size
    assert rank_spectrum(code) == full
    assert kernel_rank_spectrum(tower, code.parity, n) == full


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "pmN, draws",
    [((2, 1, 3), 4), ((3, 1, 3), 4), ((2, 2, 3), 2)],
    ids=["q2-bitmask", "odd-p", "m2"],
)
def test_spectra_of_random_row_sets_match_the_full_scan(pmN, draws, k):
    tower = build_tower(*pmN)
    rng = random.Random(f"{pmN} {k}")
    for _ in range(draws):
        while True:
            rows = tuple(tuple(rng.randrange(tower.order) for _ in range(3)) for _ in range(k))
            if matrix_rank_over([list(r) for r in rows], tower.ext) == k:
                break
        full = _full_scan_spectrum(tower, rows, 3)
        assert span_rank_spectrum(tower, rows, 3) == full
        parity = LinearRankCode(tower, 3, k, rows, None).parity
        assert kernel_rank_spectrum(tower, parity, 3) == full
        assert rank_spectrum(LinearRankCode(tower, 3, k, rows, parity)) == full


@pytest.mark.parametrize(
    "pmN", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)]
)
def test_both_sides_of_every_small_gabidulin_code_agree(pmN):
    # Each side's spectrum, enumerated, against the MacWilliams transform of
    # the other's: the helper scans the side with fewer rows, so passing the
    # two bases in both orders runs the transform both ways unless they tie.
    tower = build_tower(*pmN)
    for n in range(1, tower.N + 1):
        for k in range(1, n + 1):
            code = gabidulin(tower, n, k)
            own = span_rank_spectrum(tower, code.generator, n)
            dual = span_rank_spectrum(tower, code.parity, n)
            assert sum(own.values()) == code.size
            assert rank_spectrum(code) == own, (n, k)
            assert _smaller_side_spectrum(tower, code.generator, code.parity, n) == own, (n, k)
            assert _smaller_side_spectrum(tower, code.parity, code.generator, n) == dual, (n, k)
            assert list(rank_spectrum(code)) == sorted(own)


def _seeded_parity_matrices(tower, max_n, rng):
    """(H, n) over the tower for n up to max_n: random m x n matrices for
    every m up to n + 1, and per n one with a zero row and one of rank 1 with
    two rows; also the zero H, rank 0, where its kernel has at most 2^16
    words."""
    order = tower.order
    for n in range(1, max_n + 1):
        for m in range(1, n + 2):
            yield tuple(tuple(rng.randrange(order) for _ in range(n)) for _ in range(m)), n
        row = tuple(rng.randrange(1, order) for _ in range(n))
        yield (row, (0,) * n), n
        c = rng.randrange(2, order) if order > 2 else 1
        yield (row, tuple(tower.ext.mul(c, x) for x in row)), n
        if order**n <= 1 << 16:
            yield ((0,) * n,), n


@pytest.mark.parametrize(
    "pmN, max_n",
    [((2, 1, 4), 4), ((3, 1, 3), 3), ((2, 2, 3), 3), ((3, 2, 3), 3), ((2, 1, 3), 5)],
    ids=["q2", "q3", "q4", "q9", "n-above-N"],
)
def test_kernel_spectrum_from_either_side_matches_the_kernel_scan(pmN, max_n):
    # for n > N the scheme is that of the transposed n x N matrices
    tower = build_tower(*pmN)
    rng = random.Random(f"kernel sides {pmN}")
    transformed = 0
    for h_rows, n in _seeded_parity_matrices(tower, max_n, rng):
        kernel = tuple(null_space(h_rows, n, tower.ext))
        transformed += n - len(kernel) < len(kernel)  # H's row space is scanned
        assert kernel_rank_spectrum(tower, h_rows, n) == span_rank_spectrum(tower, kernel, n), h_rows
    assert transformed >= 3


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


def test_spectrum_memory_does_not_grow_with_the_field():
    # 65,537 lines over F_{2^16}: no table of all 2^16 multiples of a row
    spec = importlib.util.spec_from_file_location("matgraph_bench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    code = gabidulin(build_tower(2, 1, 16), 4, 2)
    tracemalloc.start()
    try:
        spectrum = rank_spectrum(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum == oracles.mrd_rank_spectrum(2, 16, 4, 2)
    assert peak < 16 << 20


def test_span_of_zero_length_words():
    blocks = list(span_blocks(T8, ((), ()), 0))
    assert [b.shape for b in blocks] == [(64, 0)]


def test_min_nonzero_rank_reads_the_spectrum():
    assert min_nonzero_rank({0: 1, 2: 6, 3: 9}) == 2
    with pytest.raises(ValueError, match="no minimum distance"):
        min_nonzero_rank({0: 1})


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
        builtin_code("C0")


def test_gabidulin_row_reduces_each_matrix_once(monkeypatch):
    # one reduction of the parity matrix: its pivot count proves the parity
    # full rank, and its null-space basis is the generator, full rank by
    # construction, so neither side is reduced again for a rank check
    from matgraph import linalg

    calls = []
    row_reduce = linalg.row_reduce

    def counted(*args):
        calls.append(args)
        return row_reduce(*args)

    monkeypatch.setattr(linalg, "row_reduce", counted)
    gabidulin(build_tower(2, 1, 3), 3, 1)
    assert len(calls) == 1


def _gabidulin_arguments(tower):
    # every (n, k, s) with s <= N, each with the default h and one seeded
    # custom h of n elements independent over F_q
    rng = random.Random(f"{tower} h")
    for n in range(1, tower.N + 1):
        while True:
            h = tuple(rng.randrange(1, tower.order) for _ in range(n))
            if column_rank(VecExt(tower, h)) == n:
                break
        for k in range(1, n + 1):
            for s in range(1, tower.N + 1):
                if gcd(s, tower.N) == 1:
                    yield n, k, s, None
                    yield n, k, s, h


@pytest.mark.parametrize(
    "pmN", [(2, 1, 3), (2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 3), (3, 2, 2)]
)
def test_gabidulin_sides_are_full_rank_and_orthogonal(pmN):
    # The constructor does not reduce a derived side again, so its rank is checked here.
    tower = build_tower(*pmN)
    for n, k, s, h in _gabidulin_arguments(tower):
        code = gabidulin(tower, n, k, s, h)
        assert matrix_rank_over(code.generator, tower.ext) == k
        assert matrix_rank_over(code.parity, tower.ext) == n - k
        assert all(not any(code.syndrome(g)) for g in code.generator)


# Codes with their rows and code_to_json digests (sha256 of json.dumps(...,
# sort_keys=True)); how the constructor derives a side must change none of them.
PINNED_CODES = [
    ((2, 1, 3), 3, 1, 1, None, ((3, 6, 1),), ((1, 2, 4), (1, 4, 6)),
     "8e5c87b83c19e1aea31499a46ae058f47c994d24b79c4d7ab4da18ecfdcd9c21"),
    ((2, 1, 4), 4, 2, 3, None, ((10, 7, 1, 0), (3, 12, 0, 1)), ((1, 2, 4, 8), (1, 5, 2, 10)),
     "3a77dc31b1e1ab40f9f6061eb5877a8bd269d2cb36d06c81074bb4b7d74ba956"),
    ((3, 1, 3), 3, 2, 1, None, ((6, 1, 0), (18, 0, 1)), ((1, 3, 9),),
     "551fae6cfd5532a4793ee951a7c4eddacd79deaa46824f1a369b6e39826f7c3e"),
    ((5, 1, 2), 2, 1, 1, None, ((20, 1),), ((1, 5),),
     "db62dcaf5b3a584e5e79769625ffce08b4bf80ab3effa498a1aac9ab6ee00e8e"),
    ((2, 2, 3), 3, 1, 2, None, ((48, 8, 1),), ((1, 4, 16), (1, 12, 32)),
     "058fee45b174ee34eeaa5171c04268ed3d23e93dd499e658201e973c680eb8f4"),
    ((3, 1, 3), 2, 1, 1, (1, 4), ((8, 1),), ((1, 4),),
     "7f4f311560a1496efed2164736432761e00c83d4b08e8ba163622bebccac52d1"),
]


@pytest.mark.parametrize("pmN, n, k, s, h, generator, parity, digest", PINNED_CODES)
def test_gabidulin_json_is_pinned(pmN, n, k, s, h, generator, parity, digest):
    code = gabidulin(build_tower(*pmN), n, k, s, h)
    assert (code.generator, code.parity) == (generator, parity)
    text = json.dumps(code_to_json(code), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("missing", ["generator", "parity"])
def test_code_from_json_derives_a_missing_side(missing):
    code = gabidulin(build_tower(3, 1, 3), 3, 2)
    data = code_to_json(code)
    del data[missing]
    again = code_from_json(data)
    kept = "parity" if missing == "generator" else "generator"
    assert getattr(again, kept) == getattr(code, kept)
    # the derived side is another basis of the same space
    assert same_row_space(code.tower, getattr(again, missing), getattr(code, missing))
    assert rank_spectrum(again) == rank_spectrum(code)


@pytest.mark.parametrize(
    "missing, message",
    [
        (("tower",), "code file has no 'tower' key"),
        (("n",), "code file has no 'n' key"),
        (("k",), "code file has no 'k' key"),
        (("generator", "parity"), "code file has neither a 'generator' nor a 'parity' key"),
    ],
)
def test_code_from_json_names_a_missing_key(missing, message):
    data = code_to_json(gabidulin(T8, 3, 1))
    for key in missing:
        del data[key]
    with pytest.raises(ValueError, match=f"^{message}$"):
        code_from_json(data)


def test_code_from_json_rejects_a_top_level_that_is_not_an_object():
    with pytest.raises(ValueError, match="must hold a JSON object"):
        code_from_json([code_to_json(gabidulin(T8, 3, 1))])


def test_linear_code_validation():
    with pytest.raises(ValueError):
        LinearRankCode(T8, 3, 1, ((1, 2, 4),), ((1, 2, 4), (1, 2, 4)))  # parity rank deficient
    with pytest.raises(ValueError):
        LinearRankCode(T8, 3, 1, ((1, 0, 0),), ((1, 0, 0), (0, 1, 0)))  # not orthogonal


@pytest.mark.parametrize(
    "n, k, generator, parity, message",
    [
        (4, 1, ((1, 2, 4, 0),), ((1, 0, 0, 0),) * 3, r"need 1 <= n <= N = 3"),
        (0, 0, (), (), r"need 1 <= n <= N = 3"),
        (3, 4, (), (), "dimension out of range"),
        (3, 1, ((1, 2),), ((1, 0, 0), (0, 1, 0)), "generator must be k x n"),
        (3, 2, ((1, 2, 4),), ((1, 0, 0),), "generator must be k x n"),
        (3, 1, ((1, 2, 4),), ((1, 0, 0),), r"parity must be \(n-k\) x n"),
        (3, 2, ((1, 2, 4), (2, 4, 3)), ((1, 0, 0),), "generator is not full rank"),
    ],
)
def test_linear_code_rejects_bad_shapes_and_ranks(n, k, generator, parity, message):
    with pytest.raises(ValueError, match=message):
        LinearRankCode(T8, n, k, generator, parity)


def test_gabidulin_parity_rejects_bad_n_and_h():
    with pytest.raises(ValueError, match="need 1 <= n <= N = 3"):
        gabidulin_parity(T8, 4, 1)
    with pytest.raises(ValueError, match="need 1 <= n <= N = 3"):
        gabidulin_parity(T8, 0, 1)
    with pytest.raises(ValueError, match="h must have 2 elements"):
        gabidulin_parity(T8, 2, 1, h=(1,))


def test_check_parity_columns_rejects_d_out_of_range():
    with pytest.raises(ValueError, match="d must be positive"):
        check_parity_columns(T8, ((1, 2),), 0)
    with pytest.raises(ValueError, match="d exceeds the number of columns"):
        check_parity_columns(T8, ((1, 2),), 3)


def test_is_equidistant_needs_two_words():
    with pytest.raises(ValueError, match="need at least two codewords"):
        is_equidistant([VecExt(T8, (1, 2))])
