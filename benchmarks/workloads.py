"""The four workloads: seeded inputs, the jobs of one pass, and the check of
every job's answer against a value computed independently of the job.

``inputs(seed, index)`` makes the random parts of pass ``index`` (the
warm-up pass is index -1) from nothing but the seed, so the same seed gives
the same inputs.  ``jobs(inputs)`` turns them into closed-loop jobs; any
reference value that needs the library is computed there, before the pass
is timed.  Every job is run with the documented budget 2^20 and one thread.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Any, Callable

from matgraph import bounds, codes, coloring, graph, linalg
from matgraph.gftower import build_tower

import oracles

BUDGET = 1 << 20
PAIRWISE_MAX_VERTICES = 4096
_PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def tower_for(q: int, N: int):
    p, m = _PRIME_POWER[q]
    return build_tower(p, m, N)


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # None when right, else the reason
    plant: Callable[[Any], Any]  # a wrong answer made from a right one
    typical: bool = True  # counts in job_p50_s
    argv: "list[str] | None" = None  # the CLI arguments of a cli job


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# host speed probes
# ---------------------------------------------------------------------------

# The host's speed drifts by up to a factor of 2 in spells that can outlast
# a run (README.md, "Host speed").  Each workload times a fixed probe of the
# kind of work its jobs do before and after every pass, and the pass's times
# are scaled by the probe's reference time over the mean of the two
# readings.  No probe calls the library.  References: the probe's time on
# the host of README.md in a quiet spell.
SPEED_LOOP_ROUNDS = 30_000
SPEED_LOOP_GATHERS = 100
SPEED_LOOP_REFERENCE_S = 0.11
CHILD_PROBE_ARGV = [sys.executable, "-c", "import numpy"]
CHILD_PROBE_REFERENCE_S = 0.15


def speed_loop() -> float:
    """Seconds for a fixed amount of work: small tuples counted in a dict,
    then chained gathers through a 2 MiB table, as in the BFS tables."""
    import numpy as np

    mask = (1 << 19) - 1
    table = ((np.arange(mask + 1, dtype=np.int64) * 2654435761) & mask).astype(np.int32)
    counts: dict[int, int] = {}
    word = (0, 0, 0, 0)
    start = time.perf_counter()
    for i in range(SPEED_LOOP_ROUNDS):
        word = tuple((x ^ (i * 2654435761 >> k)) & 255 for k, x in enumerate(word))
        counts[word[0]] = counts.get(word[0], 0) + 1
    index = table[: 1 << 17]
    for _ in range(SPEED_LOOP_GATHERS):
        index = table[index]
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# oracle: BFS distance against rank distance
# ---------------------------------------------------------------------------

# (N, n, q) with an all-pairs BFS = rank check; (4, 3, 2) at V = 4096 takes
# 13 s on its own, so it gets the eccentricity and bipartiteness jobs only.
ORACLE_ALL_PAIRS = ((3, 3, 2), (3, 2, 3), (2, 2, 4), (5, 2, 2))
ORACLE_SINGLE_SOURCE = ((4, 3, 2),)
# Seeded pairs per pass: (N, n, p) and the rank of each pair's difference.
# A query stops as soon as it reaches its target, so its time is spread
# evenly over the last BFS level it expands.  A rank-3 query on (4, 3, 2)
# spreads over 0.04-0.6 s, so rank 3 is queried on (3, 3, 2) instead, and
# many cheap queries keep the median and the pass time steady.
ORACLE_PAIRS = (
    ((4, 3, 2), (1,) * 4 + (2,) * 26),
    ((3, 2, 3), (1,) * 4 + (2,) * 26),
    ((3, 3, 2), (3,) * 10),
)


class Oracle:
    name = "oracle"
    warmup = True
    speed_probe = staticmethod(speed_loop)
    reference_s = SPEED_LOOP_REFERENCE_S

    def inputs(self, seed: int, index: int) -> list:
        rng = _rng(self.name, seed, index)
        pairs = []
        for (N, n, p), ranks in ORACLE_PAIRS:
            for r in ranks:
                e1 = [rng.randrange(p) for _ in range(N * n)]
                diff = oracles.rank_r_matrix(rng, N, n, r, p)
                e2 = [(a + b) % p for a, b in zip(e1, diff)]
                pairs.append((N, n, p, tuple(e1), tuple(e2), r))
        rng.shuffle(pairs)
        return pairs

    def jobs(self, pairs: list) -> list[Job]:
        out = [_pair_job(*pair) for pair in pairs]
        out += [_graph_job(N, n, q, all_pairs=True) for N, n, q in ORACLE_ALL_PAIRS]
        out += [_graph_job(N, n, q, all_pairs=False) for N, n, q in ORACLE_SINGLE_SOURCE]
        return out


def _pair_job(N: int, n: int, p: int, e1: tuple, e2: tuple, r: int) -> Job:
    def matrices():
        tower = build_tower(p, 1, N)
        return linalg.MatFq(tower, N, n, e1), linalg.MatFq(tower, N, n, e2)

    def run():
        return graph.graph_distance_bfs(*matrices(), budget=BUDGET)

    def check(dist):
        expected = linalg.rank_distance(*matrices())
        if expected != r:
            return f"rank_distance is {expected} for a pair generated at rank {r}"
        if dist != expected:
            return f"BFS distance {dist} but rank distance {expected}"
        return None

    return Job(f"pair {N}x{n} q={p} r={r}", run, check, lambda dist: dist + 1)


def _graph_job(N: int, n: int, q: int, all_pairs: bool) -> Job:
    def run():
        params = graph.GraphParams(tower_for(q, N), n)
        mismatch = graph.verify_distance_equals_rank(params, budget=BUDGET) if all_pairs else None
        return (
            mismatch,
            graph.eccentricity_of_zero(params, budget=BUDGET),
            graph.is_bipartite(params, budget=BUDGET),
        )

    def check(result):
        mismatch, ecc, bipartite = result
        if mismatch is not None:
            return f"BFS distance differs from rank distance at (u, v, bfs, rank) = {mismatch}"
        if ecc != n:
            return f"eccentricity of 0 is {ecc}, the diameter is n = {n}"
        if bipartite:
            # 0, e1 e1^T and e1 (e1 + e2)^T are pairwise at rank distance 1.
            return "reported bipartite, but the graph has triangles for n >= 2"
        return None

    def plant(result):
        return result[0], result[1] + 1, result[2]

    kind = "all-pairs" if all_pairs else "single-source"
    return Job(f"graph {N}x{n} q={q} {kind}", run, check, plant, typical=False)


# ---------------------------------------------------------------------------
# spectra: MRD rank spectra against Gabidulin's closed form
# ---------------------------------------------------------------------------

# (p, m, N, n, k): the q = 2 bitmask path, the odd-prime path and the m > 1
# digit path; (2, 1, 6, 4, 3) has 2^18 codewords.  The q = 5 code is kept
# at 625 words: at 15625 words it alone took a third of the pass, and
# fewer passes per run made every spectra metric swing with the host.
SPECTRA_CODES = (
    (2, 1, 8, 4, 2),
    (2, 1, 6, 4, 3),
    (3, 1, 4, 3, 2),
    (5, 1, 4, 3, 1),
    (2, 2, 3, 3, 2),
)


class Spectra:
    name = "spectra"
    warmup = True
    speed_probe = staticmethod(speed_loop)
    reference_s = SPEED_LOOP_REFERENCE_S

    def inputs(self, seed: int, index: int) -> list:
        rng = _rng(self.name, seed, index)
        out = []
        for p, m, N, n, k in SPECTRA_CODES:
            s = rng.choice([s for s in range(1, N) if gcd(s, N) == 1])
            h = oracles.independent_elements(rng, p ** m, N, n)
            out.append((p, m, N, n, k, s, h))
        return out

    def jobs(self, inputs: list) -> list[Job]:
        return [_code_job(*item) for item in inputs]


def _code_job(p: int, m: int, N: int, n: int, k: int, s: int, h: list) -> Job:
    expected = oracles.mrd_rank_spectrum(p ** m, N, n, k)
    d = n - k + 1

    def run():
        code = codes.gabidulin(build_tower(p, m, N), n, k, s=s, h=h)
        return codes.rank_spectrum(code, budget=BUDGET), codes.min_rank_distance(code, budget=BUDGET)

    def check(result):
        spectrum, dmin = result
        if spectrum != expected:
            return f"spectrum {spectrum} differs from the MRD closed form {expected}"
        if dmin != d:
            return f"min_rank_distance {dmin}, expected n - k + 1 = {d}"
        return None

    def plant(result):
        spectrum = dict(result[0])
        spectrum[d] -= 1
        spectrum[n] += 1
        return spectrum, result[1]

    return Job(f"code p={p} m={m} N={N} n={n} k={k}", run, check, plant)


# ---------------------------------------------------------------------------
# color: constructions, kernel and pairwise verification
# ---------------------------------------------------------------------------

# (N, n, d, q) at-most-d MRD colorings.
COLOR_DIST = ((4, 3, 1, 2), (3, 2, 1, 3), (4, 3, 2, 2))
# (N, n, d, q, rows, restarts) seeded exactly-d searches.  Restarts are
# capped so that a pass costs about the same whichever seeds it draws.
COLOR_EXACT = (
    (4, 3, 2, 2, None, 64),
    (3, 2, 2, 3, None, 64),
    (5, 3, 3, 2, 1, 16),
    (3, 3, 3, 3, 1, 8),
    (3, 3, 3, 4, 1, 4),
)


class Color:
    name = "color"
    warmup = True
    speed_probe = staticmethod(speed_loop)
    reference_s = SPEED_LOOP_REFERENCE_S

    def inputs(self, seed: int, index: int) -> dict:
        rng = _rng(self.name, seed, index)
        search_seeds = [rng.randrange(1 << 16) for _ in COLOR_EXACT]
        # A row over F_16 whose entries are F_2-dependent: some nonzero
        # x (a_1, a_2, a_3) with a in F_2^3 is a rank-1 kernel word.
        row = [rng.randrange(16) for _ in range(3)]
        support = rng.sample(range(3), rng.randint(1, 3))
        row[support[0]] = 0
        for i in support[1:]:
            row[support[0]] ^= row[i]
        return {"search_seeds": search_seeds, "improper_row": tuple(row)}

    def jobs(self, inputs: dict) -> list[Job]:
        out = [_dist_job(*item) for item in COLOR_DIST]
        out += [
            _exact_job(*item, seed)
            for item, seed in zip(COLOR_EXACT, inputs["search_seeds"])
        ]
        out.append(_improper_job(inputs["improper_row"]))
        return out


def _verify_both(col, params):
    kernel = coloring.find_violation(col, budget=BUDGET)
    if params.q ** (params.N * params.n) > PAIRWISE_MAX_VERTICES:
        return kernel, kernel
    return kernel, coloring.find_violation(col, pairwise=True, budget=BUDGET, threads=1)


def _dist_job(N: int, n: int, d: int, q: int) -> Job:
    colors = q ** (N * d)

    def run():
        params = graph.GraphParams(tower_for(q, N), n)
        col = coloring.d_distance_coloring(params, d)
        kernel, pairwise = _verify_both(col, params)
        return col.num_colors, kernel, pairwise, coloring.realized_colors(col, budget=BUDGET)

    def check(result):
        num_colors, kernel, pairwise, realized = result
        if kernel is not None or pairwise is not None:
            return f"MRD coloring reported improper: kernel {kernel}, pairwise {pairwise}"
        if num_colors != colors or realized != colors:
            return f"{num_colors} declared and {realized} realized colors, expected q^(Nd) = {colors}"
        return None

    def plant(result):
        return result[0], result[1], result[2], result[3] - 1

    return Job(f"dist {N}x{n} d={d} q={q}", run, check, plant)


def _exact_job(N: int, n: int, d: int, q: int, rows, restarts: int, seed: int) -> Job:
    def run():
        params = graph.GraphParams(tower_for(q, N), n)
        try:
            col = coloring.exact_d_coloring(
                params, d, seed=seed, m=rows, restarts=restarts, budget=BUDGET
            )
        except coloring.SearchExhaustedError as exc:
            return exc
        return (col, *_verify_both(col, params))

    def check(result):
        if isinstance(result, coloring.SearchExhaustedError):
            # A legitimate outcome when consistent: every attempt had
            # kernel words at the forbidden rank.
            if result.restarts != restarts or result.best_rank_d_count < 1:
                return f"inconsistent exhaustion: {result}"
            return None
        col, kernel, pairwise = result
        if kernel is not None or pairwise is not None:
            return f"search result not proper: kernel {kernel}, pairwise {pairwise}"
        if col.num_colors != q ** (N * len(col.h_rows)):
            return f"{col.num_colors} colors for {len(col.h_rows)} parity rows"
        return None

    def plant(result):
        if isinstance(result, coloring.SearchExhaustedError):
            return coloring.SearchExhaustedError(restarts, 0, {})
        return result[0], (0, 1), result[2]

    rows_label = "default" if rows is None else rows
    return Job(f"exact {N}x{n} d={d} q={q} rows={rows_label}", run, check, plant)


def _improper_job(row: tuple) -> Job:
    N, n, q = 4, 3, 2

    def run():
        tower = build_tower(2, 1, N)
        col = coloring.Coloring(
            graph.GraphParams(tower, n), "at-most-d", 1, (row,), tower.order, tag="seeded-improper"
        )
        kernel, pairwise = _verify_both(col, col.params)
        return col, kernel, pairwise

    def check(result):
        col, kernel, pairwise = result
        if kernel is None or pairwise is None:
            return f"improper row {row} passed verification: kernel {kernel}, pairwise {pairwise}"
        tower = col.params.tower
        for u, v in (kernel, pairwise):
            a = linalg.vec_from_index(tower, n, u)
            b = linalg.vec_from_index(tower, n, v)
            if col.color_index(a) != col.color_index(b) or linalg.vec_rank_distance(a, b) != 1:
                return f"reported pair ({u}, {v}) is not a same-colored rank-1 pair"
        return None

    return Job(f"improper {N}x{n} q={q}", run, check, lambda res: (res[0], None, res[2]))


# ---------------------------------------------------------------------------
# cli: fresh interpreter per call, stdout against the library
# ---------------------------------------------------------------------------

CLI_FIELDS = ((2, 1, 8), (3, 1, 4), (4, 2, 3), (5, 1, 3))  # (q, m, N)
CLI_GRAPHS = ((2, 1, 4, 3), (3, 1, 3, 2), (4, 2, 3, 3))  # (q, m, N, n)
CLI_CODES = ((2, 1, 4, 3, 2), (3, 1, 3, 3, 2), (4, 2, 3, 2, 1))  # (q, m, N, n, k)
# (q, m, N, n) of the d = 1 coloring: V = 4096, so its pairwise verify is the
# largest job of every pass.
CLI_COLORING = (2, 1, 4, 3)
CLI_EXACT = (3, 3, 3, 2)  # (N, n, d, q), --rows 1


def run_child(argv: list[str], cwd: Path, env: dict, tmpdir: Path, timeout: float = 60.0):
    """Run one child to completion; returns (exit code, stdout, stderr,
    seconds, peak RSS in KiB).  The child's own rusage comes from wait4;
    its output goes through files in ``tmpdir``."""
    with tempfile.TemporaryFile(dir=tmpdir) as out, tempfile.TemporaryFile(dir=tmpdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        secs = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), secs, usage.ru_maxrss


def child_speed_probe(cwd: Path, env: dict, tmpdir: Path) -> float:
    """Seconds for a child interpreter that imports numpy and exits."""
    code, _, err, secs, _ = run_child(CHILD_PROBE_ARGV, cwd, env, tmpdir)
    if code != 0:
        raise RuntimeError(f"child speed probe failed: {err.strip()[-300:]}")
    return secs


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i in range(max(len(got_lines), len(want_lines))):
        g = got_lines[i] if i < len(got_lines) else "<missing>"
        w = want_lines[i] if i < len(want_lines) else "<missing>"
        if g != w:
            return f"stdout line {i + 1} is {g[:120]!r}, the library gives {w[:120]!r}"
    return "stdout differs from the library's in line endings"


class Cli:
    name = "cli"
    warmup = False  # every call is a fresh interpreter, cold by construction
    reference_s = CHILD_PROBE_REFERENCE_S

    def __init__(self, src: Path, workdir: Path) -> None:
        self.cwd = src.parent
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.peak_rss_kb = 0

    def inputs(self, seed: int, index: int) -> dict:
        rng = _rng(self.name, seed, index)
        q, m, N, n, k = rng.choice(CLI_CODES)
        cq, _, cN, cn = CLI_COLORING
        return {
            "index": index,
            "seed": rng.randrange(1 << 16),
            "row": rng.choice(bounds.TABLE1_PARAMS),
            "field": rng.choice(CLI_FIELDS),
            "graph": rng.choice(CLI_GRAPHS),
            "code": (q, m, N, n, k, rng.choice([s for s in range(1, N) if gcd(s, N) == 1]),
                     oracles.independent_elements(rng, q, N, n)),
            "vertex": "".join(str(rng.randrange(cq)) for _ in range(cN * cn)),
        }

    def jobs(self, inp: dict) -> list[Job]:
        pinned = ["--budget", str(BUDGET), "--seed", str(inp["seed"]), "--threads", "1"]
        code_file = str(self.workdir / f"code-{inp['index']}.json")
        col_file = str(self.workdir / f"coloring-{inp['index']}.json")
        jobs = []

        def add(label, args, expect_text=None, expect=None, expect_code=0, file=None, file_json=None):
            """``expect_text``: exact stdout; ``expect(stdout)``: a parsed
            comparison returning a reason or None; ``file``/``file_json``: a
            written --out file and its expected JSON."""

            def check(result):
                code, out, err = result[0], result[1], result[2]
                if code != expect_code:
                    return f"exit {code}, expected {expect_code}: {err.strip()[-200:]}"
                if expect_text is not None and out != expect_text:
                    return _first_difference(out, expect_text)
                if expect is not None:
                    reason = expect(out)
                    if reason:
                        return reason
                if file is not None and json.loads(Path(file).read_text()) != file_json:
                    return f"{file} differs from the library's serialization"
                return None

            def plant(result):
                return (result[0], result[1] + "planted\n", *result[2:])

            argv = list(args) + pinned
            jobs.append(Job(f"cli {label}", lambda: self._call(argv), check, plant, argv=argv))

        add("bounds table1", ["bounds", "table1"], expect_text=bounds.table1())

        N, n, d, q = inp["row"]
        row = bounds.bounds_row(N, n, q, d)
        want_row = {
            "N": N, "n": n, "d": d, "q": q,
            "chi_prime": str(row.chi_prime_exact),
            "chi_prime_lower": str(row.chi_lower_eq1),
            "bound12": str(row.chi_exact_upper_thm),
            "bound8": str(row.chi_exact_upper_nat),
        }

        def row_matches(out):
            got = json.loads(out)
            if {key: got.get(key) for key in want_row} != want_row:
                return f"bounds row {got} differs from {want_row}"
            return None

        add("bounds row",
            ["bounds", "row", "--N", str(N), "--n", str(n), "--d", str(d), "--q", str(q), "--format", "json"],
            expect=row_matches)

        q, m, N = inp["field"]
        tower_json = tower_for(q, N).to_json()
        add("field describe", ["field", "describe", "--q", str(q), "--m", str(m), "--N", str(N)],
            expect=lambda out: None if json.loads(out) == tower_json else f"tower {out} differs")

        q, m, N, n = inp["graph"]
        params = graph.GraphParams(tower_for(q, N), n)
        stats = {"q": q, "N": N, "n": n, "order": params.order, "degree": params.degree, "diameter": n}
        want_stats = "".join(f"{key}={value}\n" for key, value in stats.items())
        add("graph stats",
            ["graph", "stats", "--q", str(q), "--m", str(m), "--N", str(N), "--n", str(n), "--format", "text"],
            expect_text=want_stats)

        q, m, N, n, k, s, h = inp["code"]
        code = codes.gabidulin(tower_for(q, N), n, k, s=s, h=h)
        summary = {"n": n, "k": k, "design_distance": n - k + 1, "size": str(q ** (N * k)), "tag": code.tag}
        flags = ["--q", str(q), "--m", str(m), "--N", str(N), "--n", str(n)]
        add("code gabidulin",
            ["code", "gabidulin", *flags, "--k", str(k), "--s", str(s), "--h", *map(str, h), "--out", code_file],
            expect=lambda out: None if json.loads(out) == summary else f"summary {out} differs from {summary}",
            file=code_file, file_json=codes.code_to_json(code))
        spectrum = {
            "spectrum": {str(r): c for r, c in sorted(oracles.mrd_rank_spectrum(q, N, n, k).items())},
            "min_rank_distance": n - k + 1,
            "size": str(q ** (N * k)),
        }
        add("code spectrum", ["code", "spectrum", code_file],
            expect=lambda out: None if json.loads(out) == spectrum else f"spectrum {out} differs from {spectrum}")

        c3 = codes.builtin_code("C3")
        measured = codes.is_equidistant(c3.words)
        add("code builtin", ["code", "builtin", "C3", "--verify"],
            expect_text=f"name=C3\nn={c3.n}\nsize={c3.size}\ndeclared_distance={c3.distance}\n"
            f"equidistant={measured is not None}\nmeasured_distance={measured}\n")

        q, m, N, n = CLI_COLORING
        col = coloring.d_distance_coloring(graph.GraphParams(tower_for(q, N), n), 1)
        add("color dist",
            ["color", "dist", "--q", str(q), "--m", str(m), "--N", str(N), "--n", str(n), "--d", "1",
             "--verify", "--pairwise", "--out", col_file],
            expect_text=f"mode=at-most-d d=1 colors={col.num_colors}\n"
            f"verified={coloring.verify_at_most_d(col, pairwise=True, budget=BUDGET)}\n",
            file=col_file, file_json=coloring.coloring_to_json(col))
        vertex = linalg.mat_from_label(col.params.tower, N, n, inp["vertex"])
        add("color assign", ["color", "assign", col_file, "--vertex", inp["vertex"]],
            expect_text=f"{col.color_of_matrix(vertex)}\n")

        N, n, d, q = CLI_EXACT
        params = graph.GraphParams(tower_for(q, N), n)
        try:
            exact = coloring.exact_d_coloring(params, d, seed=inp["seed"], m=1, restarts=64, budget=BUDGET)
        except coloring.SearchExhaustedError:
            exact_text, exact_code = "", 3
        else:
            exact_text = (
                f"mode=exactly-d d={d} colors={exact.num_colors} "
                f"counting_bound={bounds.chi_exact_upper(N, n, q, d)} tag={exact.tag}\n"
                f"verified={coloring.verify_exactly_d(exact, budget=BUDGET)}\n"
            )
            exact_code = 0
        add("color exact",
            ["color", "exact", "--q", str(q), "--m", "1", "--N", str(N), "--n", str(n), "--d", str(d),
             "--rows", "1", "--restarts", "64", "--verify"],
            expect_text=exact_text, expect_code=exact_code)
        return jobs

    def speed_probe(self) -> float:
        return child_speed_probe(self.cwd, self.env, self.workdir)

    def _call(self, argv: list[str]):
        code, out, err, _, rss_kb = run_child(
            [sys.executable, "-m", "matgraph", *argv], self.cwd, self.env, self.workdir
        )
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return code, out, err
