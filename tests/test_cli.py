"""End-to-end CLI checks: output shapes, exit codes, determinism."""

import csv
import importlib.util
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import matgraph
from matgraph.cli import build_parser
from matgraph.coloring import Coloring, coloring_to_json
from matgraph.gftower import build_tower
from matgraph.graph import GraphParams
from matgraph.linalg import mat_from_label

# The directory holding the package under test, so that runs from any
# working directory import the same code.
PACKAGE_ROOT = str(Path(matgraph.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"
ORACLES = Path(__file__).resolve().parents[1] / "benchmarks" / "oracles.py"


def bench_oracles():
    """The benchmark's closed-form oracles, loaded from their file."""
    spec = importlib.util.spec_from_file_location("matgraph_bench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def run_python(*args: str, cwd=None):
    """A child interpreter that imports the package under test."""
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([PACKAGE_ROOT] + ([path] if path else []))),
    )


def run_cli(*args: str, cwd=None):
    return run_python("-m", "matgraph", *args, cwd=cwd)


def test_no_arguments_is_usage_error():
    res = run_cli()
    assert res.returncode == 1


def test_unknown_flag_is_usage_error():
    res = run_cli("bounds", "table1", "--frobnicate")
    assert res.returncode == 1


def test_field_describe():
    res = run_cli("field", "describe", "--q", "2", "--m", "1", "--N", "3")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["modulus_qN"] == [[1], [1], [0], [1]]


def test_field_describe_large_prime_quadratic():
    # x^2 + 1 is the smallest irreducible, as p = 3 mod 4; a trial division
    # of each candidate by all p monic linear polynomials would not finish
    start = time.perf_counter()
    res = run_cli("field", "describe", "--q", "1000000007", "--m", "1", "--N", "2")
    assert time.perf_counter() - start < 30
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["modulus_qN"] == [[1], [0], [1]]


def test_field_describe_large_prime_cubic():
    # p = 2 mod 3, so every x^3 + c is reducible: the p binomials are
    # skipped at once instead of running Ben-Or's test on each
    start = time.perf_counter()
    res = run_cli("field", "describe", "--q", "1000000007", "--m", "1", "--N", "3")
    assert time.perf_counter() - start < 1
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["modulus_qN"] == [[5], [1], [0], [1]]


def test_large_prime_q_is_fast():
    # q = 100000000000031 is prime: the primality test takes microseconds
    # where dividing by every number up to sqrt(q) took about a second
    q = 100000000000031
    start = time.perf_counter()
    row = run_cli("bounds", "row", "--N", "3", "--n", "2", "--d", "1", "--q", str(q))
    field = run_cli("field", "describe", "--q", str(q), "--m", "1", "--N", "1")
    assert time.perf_counter() - start < 1
    assert (row.returncode, field.returncode) == (0, 0), row.stderr + field.stderr
    chi = str(q**3)
    assert json.loads(row.stdout) == {
        "N": 3, "n": 2, "d": 1, "q": q, "bound12": str(q), "bound8": chi, "chi_prime": chi,
        "chi_prime_lower": chi, "lower_bounds": [chi], "note": "",
        "known_exact": {
            "exact": True,
            "provenance": "distance 1: single-column clique of size q^N meets the q^N-color construction",
            "value": chi,
        },
    }
    assert json.loads(field.stdout) == {"N": 1, "m": 1, "p": q, "modulus_q": [0, 1], "modulus_qN": [[0], [1]]}


def test_prime_past_the_miller_rabin_bound_exits_3():
    # 10**25 + 13 is prime and above 3.317e24, where proving it so would
    # take about 1.6e12 trial divisions: both calls refuse with exit 3
    q = str(10**25 + 13)
    for args in (
        ("bounds", "row", "--N", "3", "--n", "2", "--d", "1", "--q", q),
        ("field", "describe", "--q", q, "--m", "1", "--N", "1"),
    ):
        start = time.perf_counter()
        res = run_cli(*args)
        assert time.perf_counter() - start < 2
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("budget exceeded:")
        assert res.stdout == ""


def test_field_describe_rejects_non_prime_power():
    res = run_cli("field", "describe", "--q", "6", "--m", "1", "--N", "2")
    assert res.returncode == 1


PRIME_POWER_PARSE_CASES = [
    ("1000000007", "1", 0, 1000000007, ""),
    ("8", "3", 0, 2, ""),
    # an exact m-th root that is not prime fails in PrimeField
    ("9", "1", 1, None, "error: p = 9 is not prime\n"),
    ("16", "2", 1, None, "error: p = 4 is not prime\n"),
    ("6", "1", 1, None, "error: p = 6 is not prime\n"),
    # no exact m-th root, or m outside 1 <= m < q.bit_length()
    ("8", "2", 1, None, "error: q = 8 is not a prime power with exponent m = 2\n"),
    ("1", "1", 1, None, "error: q = 1 is not a prime power with exponent m = 1\n"),
    ("2", "2", 1, None, "error: q = 2 is not a prime power with exponent m = 2\n"),
    ("8", "5", 1, None, "error: q = 8 is not a prime power with exponent m = 5\n"),
    ("8", "0", 1, None, "error: q = 8 is not a prime power with exponent m = 0\n"),
]


@pytest.mark.parametrize(
    "q, m, code, p, stderr",
    PRIME_POWER_PARSE_CASES,
    ids=["-".join(map(str, case[:4])) for case in PRIME_POWER_PARSE_CASES],
)
def test_field_describe_prime_power_parse(q, m, code, p, stderr):
    start = time.perf_counter()
    res = run_cli("field", "describe", "--q", q, "--m", m, "--N", "1")
    assert time.perf_counter() - start < 30
    assert (res.returncode, res.stderr) == (code, stderr)
    if p is not None:
        data = json.loads(res.stdout)
        assert (data["p"], data["m"]) == (p, int(m))


def test_graph_stats_text():
    res = run_cli("graph", "stats", "--q", "2", "--m", "1", "--N", "2", "--n", "2")
    assert res.returncode == 0
    assert "order=16" in res.stdout
    assert "degree=9" in res.stdout
    assert "diameter=2" in res.stdout


@pytest.mark.parametrize("q, N, n, edges", [(2, 2, 2, 72), (11, 2, 1, 7260)])
def test_graph_export_csv(tmp_path, q, N, n, edges):
    out = tmp_path / "edges.csv"
    res = run_cli(
        "graph", "export", "--q", str(q), "--m", "1", "--N", str(N), "--n", str(n),
        "--format", "csv", "--out", str(out),
    )
    assert res.returncode == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["u", "v"]
    assert all(len(row) == 2 for row in rows)
    params = GraphParams(build_tower(q, 1, N), n)
    assert len(rows) - 1 == edges == params.order * params.degree // 2
    for label in {label for row in rows[1:] for label in row}:
        mat_from_label(params.tower, N, n, label)


def test_graph_export_budget_exceeded():
    res = run_cli(
        "graph", "export", "--q", "2", "--m", "1", "--N", "5", "--n", "5",
        "--format", "csv", "--budget", "100",
    )
    assert res.returncode == 3


def test_graph_export_edge_lines_exceed_default_budget():
    # 65536 vertices fit the 2^16 default, but 7,372,800 edge lines do not;
    # the check comes before any line is built, so this exits at once.
    start = time.perf_counter()
    res = run_cli(
        "graph", "export", "--q", "2", "--m", "1", "--N", "4", "--n", "4", "--format", "csv",
    )
    assert res.returncode == 3
    assert "7372800" in res.stderr
    assert time.perf_counter() - start < 10.0


def test_code_spectrum_ranks_one_word_per_line(tmp_path):
    # 2^24 codewords, over the default budget of 2^20, but only lines of
    # F_256^* are ranked, and only on the parity side, which has one.
    out = tmp_path / "code.json"
    res = run_cli(
        "code", "gabidulin", "--q", "2", "--m", "1", "--N", "8", "--n", "4",
        "--k", "3", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    res = run_cli("code", "spectrum", str(out))
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    expected = bench_oracles().mrd_rank_spectrum(2, 8, 4, 3)
    assert data["spectrum"] == {str(r): c for r, c in expected.items()}
    assert data["min_rank_distance"] == 2


def test_code_spectrum_of_gabidulin_7_6_over_f_1024(tmp_path):
    # 2^60 codewords; the parity side is one line, and the transform gives
    # the closed-form MRD spectrum
    out = tmp_path / "code.json"
    res = run_cli(
        "code", "gabidulin", "--q", "2", "--m", "1", "--N", "10", "--n", "7",
        "--k", "6", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    start = time.perf_counter()
    res = run_cli("code", "spectrum", str(out))
    elapsed = time.perf_counter() - start
    assert res.returncode == 0, res.stderr
    expected = bench_oracles().mrd_rank_spectrum(2, 10, 7, 6)
    assert json.loads(res.stdout) == {
        "spectrum": {str(r): c for r, c in expected.items()},
        "min_rank_distance": 2,
        "size": str(1 << 60),
    }
    assert elapsed < 2.0


def test_code_spectrum_exits_4_on_a_wrong_eigenmatrix(tmp_path, monkeypatch, capsys):
    # A count that does not divide exactly is an internal error, never rounded.
    from matgraph import codes
    from matgraph.cli import main
    from matgraph.linalg import rank_eigenmatrix

    def off_by_one(N, n, q):
        P = [list(row) for row in rank_eigenmatrix(N, n, q)]
        P[0][1] += 1
        return tuple(map(tuple, P))

    out = tmp_path / "code.json"
    out.write_text(json.dumps(codes.code_to_json(codes.gabidulin(build_tower(2, 1, 3), 3, 2))))
    monkeypatch.setattr(codes, "rank_eigenmatrix", off_by_one)
    assert main(["code", "spectrum", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ArithmeticError: MacWilliams transform gives" in captured.err


def test_code_gabidulin_and_spectrum(tmp_path):
    out = tmp_path / "code.json"
    res = run_cli(
        "code", "gabidulin", "--q", "2", "--m", "1", "--N", "3", "--n", "3",
        "--k", "1", "--out", str(out),
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["design_distance"] == 3
    res = run_cli("code", "spectrum", str(out))
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["spectrum"] == {"0": 1, "3": 7}
    assert data["min_rank_distance"] == 3


def _drop_entry(code):
    code["generator"][0].pop()


def _repeat_row(code):
    code["generator"][1] = code["generator"][0]


def _foreign_modulus(code):
    code["tower"]["modulus_q"] = [1, 1]


def _zero_parity(code):
    code["parity"][0] = [[[0] * len(c) for c in entry] for entry in code["parity"][0]]


def _unit_parity(code):
    # (1, 0, 0) is full rank but not orthogonal to the generator row (a, 1, 0)
    _zero_parity(code)
    code["parity"][0][0][0][0] = 1


@pytest.mark.parametrize(
    "damage, message",
    [
        (_drop_entry, "error: generator must be k x n"),
        (_repeat_row, "error: generator is not full rank"),
        (_foreign_modulus, "error: stored modulus_q does not match the deterministic choice"),
        (_zero_parity, "error: parity matrix is not full rank"),
        (_unit_parity, "error: generator and parity matrices are not orthogonal"),
    ],
)
def test_code_spectrum_rejects_a_damaged_file(tmp_path, damage, message):
    out = tmp_path / "code.json"
    res = run_cli(
        "code", "gabidulin", "--q", "2", "--m", "1", "--N", "3", "--n", "3",
        "--k", "2", "--out", str(out),
    )
    assert res.returncode == 0
    code = json.loads(out.read_text())
    damage(code)
    out.write_text(json.dumps(code))
    res = run_cli("code", "spectrum", str(out))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.strip() == message


@pytest.mark.parametrize("missing", ["generator", "parity"])
def test_code_spectrum_derives_a_missing_side(tmp_path, missing):
    # a Gabidulin [3,2] code over F_27 with one side deleted from its file
    full, damaged = tmp_path / "code.json", tmp_path / "damaged.json"
    res = run_cli(
        "code", "gabidulin", "--q", "3", "--m", "1", "--N", "3", "--n", "3",
        "--k", "2", "--out", str(full),
    )
    assert res.returncode == 0
    code = json.loads(full.read_text())
    del code[missing]
    damaged.write_text(json.dumps(code))
    want, got = run_cli("code", "spectrum", str(full)), run_cli("code", "spectrum", str(damaged))
    assert want.returncode == got.returncode == 0
    assert got.stdout == want.stdout
    assert got.stderr == ""


@pytest.mark.parametrize(
    "missing, message",
    [
        (("tower",), "error: code file has no 'tower' key"),
        (("n",), "error: code file has no 'n' key"),
        (("k",), "error: code file has no 'k' key"),
        (("generator", "parity"), "error: code file has neither a 'generator' nor a 'parity' key"),
    ],
)
def test_code_spectrum_names_a_missing_key(tmp_path, missing, message):
    out = tmp_path / "code.json"
    write_gabidulin_code(out)
    code = json.loads(out.read_text())
    for key in missing:
        del code[key]
    out.write_text(json.dumps(code))
    res = run_cli("code", "spectrum", str(out))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == message + "\n"


def test_code_builtin_verify():
    for name, d in (("C1", 2), ("C2", 2), ("C3", 3)):
        res = run_cli("code", "builtin", name, "--verify")
        assert res.returncode == 0
        assert f"measured_distance={d}" in res.stdout


def test_color_dist_verify():
    res = run_cli(
        "color", "dist", "--q", "2", "--m", "1", "--N", "2", "--n", "2",
        "--d", "1", "--verify",
    )
    assert res.returncode == 0
    assert "colors=4" in res.stdout
    assert "verified=True" in res.stdout


def test_color_exact_verify_pairwise():
    res = run_cli(
        "color", "exact", "--q", "2", "--m", "1", "--N", "2", "--n", "2",
        "--d", "2", "--rows", "1", "--seed", "0", "--verify", "--pairwise",
    )
    assert res.returncode == 0
    assert "verified=True" in res.stdout


def test_color_verify_file_roundtrip(tmp_path):
    out = tmp_path / "coloring.json"
    res = run_cli(
        "color", "dist", "--q", "2", "--m", "1", "--N", "3", "--n", "2",
        "--d", "1", "--out", str(out),
    )
    assert res.returncode == 0
    res = run_cli("color", "verify", str(out))
    assert res.returncode == 0
    res = run_cli("color", "verify", str(out), "--pairwise")
    assert res.returncode == 0


# The stderr line of the kernel scan, then of the pairwise scan.  Labels
# are base-q digits up to q = 10 and comma-separated entries beyond.
VIOLATION_LINES = {
    "2": ("violating pair: 0000 1100\n",) * 2,
    "11": ("violating pair: 0,0,0,0 10,1,0,0\n", "violating pair: 0,0,0,0 1,10,0,0\n"),
}


def write_violating_coloring(out, q):
    """A one-row coloring of the 2 x 2 matrices over F_q whose parity row
    (1, 1) has rank-1 kernel words."""
    run_cli(
        "color", "dist", "--q", q, "--m", "1", "--N", "2", "--n", "2",
        "--d", "1", "--out", str(out),
    )
    data = json.loads(out.read_text())
    one = [[1], [0]]
    data["H_col"] = [[one, one]]
    out.write_text(json.dumps(data))


@pytest.mark.parametrize("q", ["2", "11"])
def test_color_verify_detects_violation(tmp_path, q):
    out = tmp_path / "coloring.json"
    write_violating_coloring(out, q)
    res = run_cli("color", "verify", str(out))
    assert res.returncode == 2
    assert res.stderr == VIOLATION_LINES[q][0]
    res = run_cli("color", "verify", str(out), "--pairwise")
    assert res.returncode == 2
    assert res.stderr == VIOLATION_LINES[q][1]


def assign(path, label):
    res = run_cli("color", "assign", str(path), "--vertex", label)
    assert res.returncode == 0, res.stderr
    return res.stdout


SEPARATED_LABELS = {
    "2": ("0000", "0001", "1011", "1111"),
    "11": ("0,0,0,0", "0,0,0,1", "1,0,10,1", "10,10,10,10"),
}


@pytest.mark.parametrize("q", ["2", "11"])
def test_color_assign(tmp_path, q):
    out = tmp_path / "coloring.json"
    run_cli(
        "color", "dist", "--q", q, "--m", "1", "--N", "2", "--n", "2",
        "--d", "2", "--out", str(out),
    )
    # the d = n coloring separates everything
    assert len({assign(out, label) for label in SEPARATED_LABELS[q]}) == 4
    # Every label that color verify prints (pinned in VIOLATION_LINES by
    # test_color_verify_detects_violation) names a vertex, and the pair
    # shares a color.
    bad = tmp_path / "bad.json"
    write_violating_coloring(bad, q)
    labels = {label for line in VIOLATION_LINES[q] for label in line.split()[2:]}
    assert len({assign(bad, label) for label in labels}) == 1


def test_color_assign_names_bad_label_character(tmp_path):
    out = tmp_path / "coloring.json"
    run_cli(
        "color", "dist", "--q", "3", "--m", "1", "--N", "2", "--n", "2",
        "--d", "1", "--out", str(out),
    )
    res = run_cli("color", "assign", str(out), "--vertex", "12a1")
    assert res.returncode == 1
    assert res.stderr == "error: label '12a1' is not 4 base-3 digits\n"
    # a digit out of range for q = 3 gets the same message
    res = run_cli("color", "assign", str(out), "--vertex", "1251")
    assert res.returncode == 1
    assert res.stderr == "error: label '1251' is not 4 base-3 digits\n"


# Runs cli.main on each argv in one interpreter and prints, per call, the
# exit code, the stdout and whether numpy is loaded by then.
MAIN_IN_ONE_INTERPRETER = """
import contextlib, io, json, sys
from matgraph.cli import main
calls = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    calls.append((code, out.getvalue(), "numpy" in sys.modules))
print(json.dumps(calls))
"""


def test_numpy_loads_only_when_a_kernel_runs(tmp_path):
    col, code = str(tmp_path / "col.json"), str(tmp_path / "code.json")
    run_cli("color", "dist", "--q", "3", "--m", "1", "--N", "2", "--n", "2", "--d", "1", "--out", col)
    numpy_free = [
        ["bounds", "table1"],
        ["bounds", "row", "--N", "6", "--n", "4", "--d", "2", "--q", "2"],
        ["field", "describe", "--q", "9", "--m", "2", "--N", "2"],
        ["graph", "stats", "--q", "3", "--m", "1", "--N", "3", "--n", "2"],
        ["code", "gabidulin", "--q", "2", "--m", "1", "--N", "3", "--n", "3", "--k", "1", "--out", code],
        ["code", "builtin", "C3", "--verify"],
        ["color", "assign", col, "--vertex", "1201"],
    ]
    res = run_python("-c", MAIN_IN_ONE_INTERPRETER, json.dumps(numpy_free + [["code", "spectrum", code]]))
    assert res.returncode == 0, res.stderr
    *calls, (spectrum_code, _, spectrum_loaded_numpy) = json.loads(res.stdout)
    for argv, (exit_code, stdout, loaded_numpy) in zip(numpy_free, calls):
        assert (exit_code, loaded_numpy) == (0, False), argv
        assert stdout == run_cli(*argv).stdout, argv
    assert (spectrum_code, spectrum_loaded_numpy) == (0, True)


# Runs cli.main on one argv in a fresh interpreter and prints the exit code
# and the matgraph modules loaded by then.
MATGRAPH_MODULES_AFTER_MAIN = """
import contextlib, io, json, sys
from matgraph.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "matgraph")]))
"""

CLI_MODULES = {"matgraph", "matgraph._budget", "matgraph.cli"}
PRIME_MODULES = {"matgraph._primes"}
TOWER_MODULES = PRIME_MODULES | {"matgraph._numpy", "matgraph.gftower", "matgraph.linalg"}
ALL_MODULES = CLI_MODULES | TOWER_MODULES | {
    f"matgraph.{name}" for name in ("bounds", "codes", "coloring", "graph")
}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["bounds", "table1"], CLI_MODULES | PRIME_MODULES | {"matgraph.bounds"}),
        (["bounds", "row", "--N", "6", "--n", "4", "--d", "2", "--q", "2"],
         CLI_MODULES | PRIME_MODULES | {"matgraph.bounds"}),
        (["field", "describe", "--q", "9", "--m", "2", "--N", "2"],
         CLI_MODULES | PRIME_MODULES | {"matgraph.gftower"}),
        (["graph", "stats", "--q", "3", "--m", "1", "--N", "3", "--n", "2"],
         CLI_MODULES | TOWER_MODULES | {"matgraph.graph"}),
        (["code", "gabidulin", "--q", "2", "--m", "1", "--N", "3", "--n", "3", "--k", "1"],
         CLI_MODULES | TOWER_MODULES | {"matgraph.codes"}),
        (["code", "builtin", "C3", "--verify"], CLI_MODULES | TOWER_MODULES | {"matgraph.codes"}),
        (["code", "spectrum", "code.json"], CLI_MODULES | TOWER_MODULES | {"matgraph.codes"}),
        (["color", "assign", "col.json", "--vertex", "1201"], ALL_MODULES),
    ],
    ids=["bounds-table1", "bounds-row", "field-describe", "graph-stats", "code-gabidulin", "code-builtin",
         "code-spectrum", "color-assign"],
)
def test_each_call_loads_only_the_submodules_it_runs(tmp_path, argv, modules):
    if argv[:2] == ["color", "assign"]:
        run_cli("color", "dist", "--q", "3", "--m", "1", "--N", "2", "--n", "2", "--d", "1",
                "--out", str(tmp_path / "col.json"))
    if argv[:2] == ["code", "spectrum"]:
        write_gabidulin_code(tmp_path / "code.json")
    res = run_python("-c", MATGRAPH_MODULES_AFTER_MAIN, json.dumps(argv), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [0, sorted(modules)]


def test_importing_the_package_loads_no_submodule():
    res = run_python("-c", "import sys, matgraph; print(sorted(m for m in sys.modules if 'matgraph' in m))")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "['matgraph']\n"


def write_gabidulin_code(path):
    """A (4, 2) Gabidulin code over F_16 with 17 lines in its spectrum."""
    from matgraph.codes import code_to_json, gabidulin

    path.write_text(json.dumps(code_to_json(gabidulin(build_tower(2, 1, 4), 4, 2))))


# Each call runs in a fresh process, where the module that raises the error
# is loaded only by the handler; exit code and exact first stderr line.
@pytest.mark.parametrize(
    "argv, code, first_line",
    [
        (["color", "exact", "--q", "2", "--m", "1", "--N", "3", "--n", "3", "--d", "2",
          "--rows", "1", "--restarts", "2", "--seed", "1"], 3,
         "budget exceeded: no verified parity matrix after 2 restarts; "
         "best attempt had 28 kernel words at the forbidden rank"),
        (["code", "spectrum", "code.json", "--budget", "10"], 3,
         "budget exceeded: operation needs 17 items but the budget is 10"),
        (["code", "gabidulin", "--q", "2", "--m", "1", "--N", "3", "--n", "3", "--k", "4"], 1,
         "error: need 1 <= k <= n, got k=4"),
    ],
    ids=["search-exhausted", "spectrum-over-budget", "value-error"],
)
def test_lazily_loaded_errors_map_to_exit_codes(tmp_path, argv, code, first_line):
    write_gabidulin_code(tmp_path / "code.json")
    res = run_cli(*argv, cwd=tmp_path)
    assert res.returncode == code
    assert res.stdout == ""
    assert res.stderr.splitlines()[0] == first_line


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["color", "exact", "--q", "2", "--m", "1", "--N", "3", "--n", "3", "--d", "2",
          "--rows", "1", "--restarts", "0"], "error: need restarts >= 1, got 0"),
        (["color", "exact", "--q", "2", "--m", "1", "--N", "3", "--n", "3", "--d", "2",
          "--rows", "1", "--restarts", "-3"], "error: need restarts >= 1, got -3"),
        (["bounds", "row", "--N", "3", "--n", "2", "--d", "1", "--q", "1"],
         "error: need 1 <= n <= N, q >= 2 and d >= 1"),
        (["bounds", "row", "--N", "3", "--n", "2", "--d", "1", "--q", "0"],
         "error: need 1 <= n <= N, q >= 2 and d >= 1"),
        (["bounds", "row", "--N", "3", "--n", "2", "--d", "1", "--q", "6"],
         "error: q = 6 is not a prime power"),
    ],
    ids=["no-restart", "negative-restarts", "bounds-q1", "bounds-q0", "bounds-q6"],
)
def test_argument_errors_exit_1_with_their_own_message(argv, first_line):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == first_line + "\n"


def test_bounds_row_json():
    res = run_cli("bounds", "row", "--N", "6", "--n", "4", "--d", "2", "--q", "2")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["bound12"] == str(2 ** 8)
    assert data["bound8"] == str(2 ** 12)


def test_bounds_row_csv():
    res = run_cli(
        "bounds", "row", "--N", "3", "--n", "3", "--d", "2", "--q", "2",
        "--format", "csv",
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].startswith("N,n,d,q,bound12,bound8")
    assert lines[1].split(",")[7] == "7"  # the q^n - 1 clique lower bound


def test_bounds_table1(tmp_path):
    res = run_cli("bounds", "table1")
    assert res.returncode == 0
    assert len(res.stdout.strip().splitlines()) == 9
    out = tmp_path / "table1.csv"
    res = run_cli("bounds", "table1", "--out", str(out))
    assert res.returncode == 0
    assert out.read_text() == run_cli("bounds", "table1").stdout


@pytest.mark.parametrize(
    "args",
    [
        ("bounds", "table1"),
        ("graph", "export", "--q", "2", "--m", "1", "--N", "2", "--n", "2", "--format", "dot"),
        ("color", "exact", "--q", "2", "--m", "1", "--N", "2", "--n", "2",
         "--d", "2", "--rows", "1", "--seed", "9", "--verify", "--pairwise"),
    ],
)
def test_identical_invocations_are_byte_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_thread_count_does_not_change_output(tmp_path):
    out = tmp_path / "coloring.json"
    run_cli(
        "color", "dist", "--q", "2", "--m", "1", "--N", "3", "--n", "2",
        "--d", "1", "--out", str(out),
    )
    runs = [
        run_cli("color", "verify", str(out), "--pairwise", "--threads", t)
        for t in ("1", "4")
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


FIELD = ["--q", "2", "--m", "1", "--N", "2"]


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["field", "describe", *FIELD], 1 << 20),
        (["graph", "stats", *FIELD, "--n", "2"], 1 << 20),
        (["graph", "export", *FIELD, "--n", "2", "--format", "csv"], 1 << 16),
        (["code", "gabidulin", *FIELD, "--n", "2", "--k", "1"], 1 << 20),
        (["code", "spectrum", "code.json"], 1 << 20),
        (["code", "builtin", "C3"], 1 << 20),
        (["color", "dist", *FIELD, "--n", "2", "--d", "1"], 1 << 20),
        (["color", "exact", *FIELD, "--n", "2", "--d", "1"], 1 << 20),
        (["color", "verify", "col.json"], 1 << 20),
        (["color", "assign", "col.json", "--vertex", "0000"], 1 << 20),
        (["bounds", "row", "--N", "2", "--n", "2", "--d", "1", "--q", "2"], 1 << 20),
        (["bounds", "table1"], 1 << 20),
    ],
)
def test_budget_defaults(argv, budget):
    assert build_parser().parse_args(argv).budget == budget


def test_color_verify_rejects_mismatched_num_colors(tmp_path):
    col = tmp_path / "col.json"
    res = run_cli(
        "color", "dist", "--q", "2", "--m", "1", "--N", "2", "--n", "2",
        "--d", "1", "--out", str(col),
    )
    assert res.returncode == 0
    data = json.loads(col.read_text())
    data["num_colors"] = "5"
    col.write_text(json.dumps(data))
    res = run_cli("color", "verify", str(col))
    assert res.returncode == 1
    assert "num_colors" in res.stderr


def _drop(key):
    def damage(data):
        del data[key]

    return damage


def _bad_seed(data):
    data["seed"] = "x"


@pytest.mark.parametrize("command", ["verify", "assign"])
@pytest.mark.parametrize(
    "damage, message",
    [
        *((_drop(key), f"error: coloring file has no '{key}' key")
          for key in ("tower", "n", "mode", "d", "H_col", "num_colors")),
        (_bad_seed, "error: coloring file's 'seed' must be an integer or null, got 'x'"),
    ],
    ids=["no-tower", "no-n", "no-mode", "no-d", "no-H_col", "no-num_colors", "seed-x"],
)
def test_color_verify_and_assign_reject_a_damaged_file(tmp_path, command, damage, message):
    col = tmp_path / "col.json"
    params = GraphParams(build_tower(2, 1, 2), 2)
    data = coloring_to_json(Coloring(params, "exactly-d", 2, ((0, 1),), 4, tag="x", seed=3))
    damage(data)
    col.write_text(json.dumps(data))
    argv = ["color", command, str(col)] + (["--vertex", "0000"] if command == "assign" else [])
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == message + "\n"


def test_color_exact_builds_the_mrd_parity_on_a_table1_row():
    # (N, n, d, q) = (10, 7, 4, 2): the search used to exit 3 here
    res = run_cli("color", "exact", "--q", "2", "--m", "1", "--N", "10", "--n", "7", "--d", "4")
    assert res.returncode == 0
    assert "colors=1099511627776 " in res.stdout
    assert res.stdout.endswith(" tag=mrd-parity\n")


def test_color_exact_below_mstar_still_searches():
    # m* = min(d, n - d + 1) = 2 on (4, 3, 2, 2), so one row is left to the search
    res = run_cli("color", "exact", "--q", "2", "--m", "1", "--N", "4", "--n", "3", "--d", "2", "--rows", "1")
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == (
        "budget exceeded: no verified parity matrix after 64 restarts; "
        "best attempt had 60 kernel words at the forbidden rank\n"
    )


def test_color_verify_pairwise_rejects_colors_beyond_int64(tmp_path):
    params = GraphParams(build_tower(2, 1, 8), 2)
    rng = random.Random(0)
    h_rows = tuple(tuple(rng.randrange(256) for _ in range(2)) for _ in range(9))
    col = tmp_path / "col.json"
    col.write_text(json.dumps(coloring_to_json(Coloring(params, "exactly-d", 1, h_rows, 256**9, tag="x"))))
    res = run_cli("color", "verify", str(col), "--pairwise")
    assert res.returncode == 1
    assert "int64" in res.stderr


# The README's CLI block, then the calls below, run in order in one
# directory, so that the files written by one command are read by the next.
# tests/data/cli_golden.json holds the input files they start from and, for
# each call, its exit code, stdout, stderr and the text of its --out file.
# After an intended output change, regenerate it with
#     PYTHONPATH=src python tests/test_cli.py
# and review the diff.
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
GOLDEN_EXTRA_CALLS = [
    "matgraph code builtin C1 --verify",
    "matgraph code builtin C2 --verify",
    *(
        f"matgraph bounds row --N {N} --n {n} --d {d} --q {q}{fmt}"
        for N, n, d, q in ((2, 2, 2, 2), (3, 2, 2, 2), (3, 3, 3, 2), (3, 3, 2, 2))
        for fmt in ("", " --format csv")
    ),
    "matgraph color exact --q 3 --m 1 --N 3 --n 2 --d 2 --seed 3 --verify --pairwise",
    "matgraph color exact --q 2 --m 1 --N 2 --n 2 --d 3 --verify --pairwise",
    "matgraph color verify bad.json",
    "matgraph color verify bad.json --pairwise",
]


def golden_calls() -> list[str]:
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines() + GOLDEN_EXTRA_CALLS


def run_golden_calls(cwd: Path, inputs: dict[str, str]) -> list[dict]:
    """Write ``inputs`` into ``cwd``, then run every golden call there."""
    for name, text in inputs.items():
        (cwd / name).write_text(text)
    results = []
    for line in golden_calls():
        program, *args = shlex.split(line)
        assert program == "matgraph"
        res = run_cli(*args, cwd=cwd)
        out = args[args.index("--out") + 1] if "--out" in args else None
        results.append({
            "call": line,
            "exit": res.returncode,
            "stdout": res.stdout,
            "stderr": res.stderr,
            "out": (cwd / out).read_text() if out else None,
        })
    return results


def write_golden(cwd: Path) -> None:
    """Regenerate GOLDEN from the package under test: the improper coloring
    of ``write_violating_coloring`` as input, then every call's results."""
    write_violating_coloring(cwd / "bad.json", "2")
    inputs = {"bad.json": (cwd / "bad.json").read_text()}
    golden = {"inputs": inputs, "calls": run_golden_calls(cwd, inputs)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def test_readme_cli_block_runs_in_order(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert [call["call"] for call in golden["calls"]] == golden_calls()
    for got, want in zip(run_golden_calls(tmp_path, golden["inputs"]), golden["calls"]):
        assert got == want
    # every line of the README block succeeds
    assert all(call["exit"] == 0 for call in golden["calls"][: -len(GOLDEN_EXTRA_CALLS)])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_golden(Path(scratch))
