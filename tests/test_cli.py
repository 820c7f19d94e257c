"""End-to-end CLI checks: output shapes, exit codes, determinism."""

import json
import subprocess
import sys
import time

import pytest

from matgraph.cli import build_parser


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "matgraph", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


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


def test_field_describe_rejects_non_prime_power():
    res = run_cli("field", "describe", "--q", "6", "--m", "1", "--N", "2")
    assert res.returncode == 1


def test_graph_stats_text():
    res = run_cli("graph", "stats", "--q", "2", "--m", "1", "--N", "2", "--n", "2")
    assert res.returncode == 0
    assert "order=16" in res.stdout
    assert "degree=9" in res.stdout
    assert "diameter=2" in res.stdout


def test_graph_export_csv(tmp_path):
    out = tmp_path / "edges.csv"
    res = run_cli(
        "graph", "export", "--q", "2", "--m", "1", "--N", "2", "--n", "2",
        "--format", "csv", "--out", str(out),
    )
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v"
    assert len(lines) - 1 == 72


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


def test_color_verify_detects_violation(tmp_path):
    out = tmp_path / "coloring.json"
    run_cli(
        "color", "dist", "--q", "2", "--m", "1", "--N", "2", "--n", "2",
        "--d", "1", "--out", str(out),
    )
    data = json.loads(out.read_text())
    # kernel of the (1, 1) parity row contains rank-1 words
    one = [[1], [0]]
    data["H_col"] = [[one, one]]
    out.write_text(json.dumps(data))
    res = run_cli("color", "verify", str(out))
    assert res.returncode == 2
    assert "violating pair" in res.stderr
    res = run_cli("color", "verify", str(out), "--pairwise")
    assert res.returncode == 2


def test_color_assign(tmp_path):
    out = tmp_path / "coloring.json"
    run_cli(
        "color", "dist", "--q", "2", "--m", "1", "--N", "2", "--n", "2",
        "--d", "2", "--out", str(out),
    )
    seen = set()
    for label in ("0000", "0001", "1011", "1111"):
        res = run_cli("color", "assign", str(out), "--vertex", label)
        assert res.returncode == 0
        seen.add(res.stdout.strip())
    assert len(seen) == 4  # the d = n coloring separates everything


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
