"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a pass line with its runtime (visible under ``pytest -s``)
and asserts the criterion's runtime budget.  All expected values are exact
integers; derived ones are recomputed here by independent brute force.
"""

import itertools
import json
import subprocess
import sys
import time
from math import gcd

from matgraph.bounds import TABLE1_HEADER, chi_prime, table1
from matgraph.codes import (
    builtin_code,
    gabidulin,
    is_equidistant,
    min_rank_distance,
    rank_spectrum,
)
from matgraph.coloring import (
    Coloring,
    clique,
    d_distance_coloring,
    exact_d_coloring,
    find_violation,
    kernel_rank_spectrum,
    realized_colors,
    search_forbidden_H,
    verify_at_most_d,
    verify_exactly_d,
)
from matgraph.gftower import build_tower
from matgraph.graph import (
    GraphParams,
    eccentricity_of_zero,
    neighbors,
    verify_distance_equals_rank,
)
from matgraph.linalg import (
    count_rank_k,
    enumerate_matrices,
    rank,
    rank_distance,
)


class _Timer:
    def __init__(self, number: int, name: str, limit: float) -> None:
        self.number = number
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"criterion {self.number} ({self.name}): PASS in {elapsed:.1f}s (limit {self.limit:.0f}s)")
            assert elapsed < self.limit, f"criterion {self.number} exceeded its runtime budget"
        else:
            print(f"criterion {self.number} ({self.name}): FAIL after {elapsed:.1f}s")
        return False


def _tower(q: int, N: int):
    for p in range(2, q + 1):
        m = 0
        v = 1
        while v < q:
            v *= p
            m += 1
        if v == q:
            return build_tower(p, m, N)
    raise ValueError(q)


def test_criterion_1_rank_count_oracle():
    with _Timer(1, "rank-count oracle", 10.0):
        for q in (2, 3):
            for N in range(1, 4):
                tower = build_tower(q, 1, N)
                for n in range(1, N + 1):
                    counts: dict[int, int] = {}
                    for M in enumerate_matrices(tower, N, n):
                        r = rank(M)
                        counts[r] = counts.get(r, 0) + 1
                    for k in range(n + 1):
                        assert counts.get(k, 0) == count_rank_k(N, n, q, k), (N, n, q, k)
                    assert sum(counts.values()) == q ** (N * n)


def test_criterion_2_degree_order():
    with _Timer(2, "degree and order", 30.0):
        for N, n, q in ((2, 2, 2), (3, 2, 2), (2, 2, 3)):
            params = GraphParams(_tower(q, N), n)
            expected = (q ** N - 1) * (q ** n - 1) // (q - 1)
            assert params.degree == expected
            assert params.order == q ** (N * n)
            for M in enumerate_matrices(params.tower, N, n):
                nbrs = [W.entries for W in neighbors(M)]
                assert len(nbrs) == expected
                assert len(set(nbrs)) == expected


def test_criterion_3_distance_equals_rank():
    with _Timer(3, "BFS distance = rank distance", 60.0):
        instances = (
            (2, 2, 2),
            (3, 2, 2),
            (2, 2, 3),
            (2, 2, 4),
            (3, 3, 2),
            (3, 2, 3),
            (4, 3, 2),
            (6, 2, 2),
            (3, 2, 4),
        )
        for N, n, q in instances:
            params = GraphParams(_tower(q, N), n)
            assert params.order <= 4096
            # the neighbor table's size: (3, 2, 4) has 1,290,240 entries, over the 2^20 default
            budget = params.order * params.degree
            assert verify_distance_equals_rank(params, budget=budget) is None, (N, n, q)
            assert eccentricity_of_zero(params, budget=budget) == n, (N, n, q)


def test_criterion_4_gabidulin_mrd():
    with _Timer(4, "MRD construction", 120.0):
        for N in range(1, 5):
            tower = build_tower(2, 1, N)
            for n in range(1, N + 1):
                for k in range(1, n + 1):
                    if 2 ** (N * k) > 2 ** 16:
                        continue
                    for s in range(1, N + 1):
                        if gcd(s, N) != 1:
                            continue
                        code = gabidulin(tower, n, k, s=s)
                        d = min_rank_distance(code, budget=1 << 17)
                        assert d == n - k + 1, (N, n, k, s)
                        assert code.size == 2 ** (N * (n - d + 1)), (N, n, k, s)


def test_criterion_5_at_most_d_colorings_optimal():
    with _Timer(5, "at-most-d colorings at desk scale", 60.0):
        for N, n, q, d in ((2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 1), (2, 2, 3, 1)):
            params = GraphParams(_tower(q, N), n)
            col = d_distance_coloring(params, d)
            assert verify_at_most_d(col)
            assert verify_at_most_d(col, pairwise=True)
            used = realized_colors(col)
            assert used == col.num_colors == q ** (N * d)
            assert used == chi_prime(N, n, q, d)


def test_criterion_6_clique_certificates():
    with _Timer(6, "clique certificates", 10.0):
        for N, n, q in ((2, 2, 2), (3, 2, 2)):
            params = GraphParams(_tower(q, N), n)
            for d in range(1, n + 1):
                members = clique(params, d)
                assert len(members) == q ** N
                assert len({M.entries for M in members}) == q ** N
                for A, B in itertools.combinations(members, 2):
                    assert rank_distance(A, B) == d
            # the clique bound q^N is met at d = 1 and at d = n
            col = d_distance_coloring(params, 1)
            assert realized_colors(col) == q ** N
            assert verify_at_most_d(col, pairwise=True)
            col = exact_d_coloring(params, n)
            assert realized_colors(col) == col.num_colors == q ** N
            assert verify_exactly_d(col, pairwise=True)


def test_criterion_7_equidistant_fixtures():
    with _Timer(7, "equidistant fixtures", 5.0):
        for name, n, distance, N in (("C1", 2, 2, 2), ("C2", 2, 2, 3), ("C3", 3, 3, 3)):
            code = builtin_code(name)
            assert code.n == n
            assert is_equidistant(code.words) == distance
            assert code.size == 2 ** N
        # C2/C3 are pinned to the modulus with alpha^3 = alpha + 1
        assert builtin_code("C2").tower.modulus_qN == (1, 1, 0, 1)


def test_criterion_8_table1():
    with _Timer(8, "bounds comparison table", 1.0):
        lines = table1().strip().splitlines()
        assert lines[0] == TABLE1_HEADER
        rows = [line.split(",") for line in lines[1:]]
        expected = [
            (2 ** 8, 2 ** 12),
            (2 ** 14, 2 ** 18),
            (3 ** 7, 3 ** 12),
            (3 ** 13, 3 ** 18),
            (2 ** 6, 2 ** 10),
            (3 ** 10, 3 ** 15),
            (2 ** 35, 2 ** 40),
            (3 ** 33, 3 ** 40),
        ]
        for row, (b12, b8) in zip(rows, expected):
            assert int(row[4]) == b12
            assert int(row[5]) == b8
        for row in rows[:7]:
            assert "published" not in row[8]
        assert "published" in rows[7][8]


def test_criterion_9_forbidden_distance_construction():
    with _Timer(9, "forbidden-distance search", 10.0):
        tower = build_tower(2, 1, 2)
        found = search_forbidden_H(tower, 2, 2, 1, seed=0)
        assert found.verified
        spectrum = kernel_rank_spectrum(tower, found.h_rows, 2)
        assert spectrum.get(2, 0) == 0
        assert sum(spectrum.values()) >= 4  # kernel of a 1 x 2 parity matrix
        params = GraphParams(tower, 2)
        col = exact_d_coloring(params, 2, seed=0, m=1)
        assert col.num_colors <= 4 ** 1
        assert verify_exactly_d(col)
        assert verify_exactly_d(col, pairwise=True)
        assert realized_colors(col) <= 4


def _run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "matgraph", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_criterion_10_property_suite():
    with _Timer(10, "field axioms, mode agreement, determinism", 120.0):
        # field axioms, exhaustive pairs at q^N <= 512
        towers = [
            (2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2),
            (2, 1, 5), (7, 1, 2), (2, 3, 2), (3, 1, 4), (2, 2, 4), (3, 1, 5),
            (2, 1, 9),
        ]
        for p, m, N in towers:
            tower = build_tower(p, m, N)
            f = tower.ext
            assert f.order <= 512
            for a in range(f.order):
                for b in range(f.order):
                    assert f.add(a, b) == f.add(b, a)
                    assert f.mul(a, b) == f.mul(b, a)
            for a in range(1, f.order):
                assert f.mul(a, f.inv(a)) == 1
                assert f.pow(a, f.order - 1) == 1
            for a in range(f.order):
                assert tower.contract(tower.expand(a)) == a
            if f.order <= 32:
                for a in range(f.order):
                    for b in range(f.order):
                        for c in range(f.order):
                            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

        # kernel scan and full pairwise verification agree on every coloring
        colorings: list[Coloring] = []
        for N, n, q, d in ((2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 1), (2, 2, 3, 1), (4, 3, 2, 1)):
            params = GraphParams(_tower(q, N), n)
            assert params.order <= 4096
            colorings.append(d_distance_coloring(params, d))
        p222 = GraphParams(build_tower(2, 1, 2), 2)
        colorings.append(exact_d_coloring(p222, 2, seed=0, m=1))
        colorings.append(Coloring(p222, "at-most-d", 1, ((1, 1),), 4, tag="bad"))
        colorings.append(Coloring(p222, "exactly-d", 2, ((1, 2),), 4, tag="bad"))
        for col in colorings:
            kernel = find_violation(col)
            pairwise = find_violation(col, pairwise=True)
            assert (kernel is None) == (pairwise is None), col.tag

        # byte-identical outputs across runs and thread counts
        a = _run_cli("bounds", "table1")
        b = _run_cli("bounds", "table1")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        exact_args = (
            "color", "exact", "--q", "2", "--m", "1", "--N", "2", "--n", "2",
            "--d", "2", "--rows", "1", "--seed", "7", "--verify", "--pairwise",
        )
        runs = [_run_cli(*exact_args) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        threaded = [
            _run_cli(*exact_args, "--threads", t) for t in ("1", "4")
        ]
        assert threaded[0].returncode == threaded[1].returncode == 0
        assert threaded[0].stdout == threaded[1].stdout
