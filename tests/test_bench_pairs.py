"""The summary arithmetic of tools/bench_pairs.py, on synthetic result lines;
no benchmark runs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "rate", "unit": "1/s", "better": "higher"},
]


def line(wall, rate):
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "rate": {"value": rate, "unit": "1/s"}},
    }


def test_summary_medians_quartiles_ratio_and_wins():
    # (parent, change) per pair; pair 3 ties on wall_s, pair 4 ties on rate.
    walls = [(2.0, 1.0), (3.0, 1.5), (1.0, 2.0), (4.0, 4.0), (5.0, 2.5)]
    rates = [(10.0, 20.0), (10.0, 5.0), (12.0, 13.0), (8.0, 8.0), (9.0, 1.0)]
    runs = [
        {"seed": s, "first": "parent" if s % 2 == 0 else "change",
         "parent": line(pw, pr), "change": line(cw, cr)}
        for s, ((pw, cw), (pr, cr)) in enumerate(zip(walls, rates))
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["wall_s", "rate"]
    wall = summary["wall_s"]
    assert wall == {
        "unit": "s",
        "parent_median": 3.0,
        # exclusive quartiles of 1, 2, 3, 4, 5: positions 1.5 and 4.5
        "parent_quartiles": [1.5, 4.5],
        "change_median": 2.0,
        "change_quartiles": [1.25, 3.25],
        "ratio": 0.6667,
        "change_better_pairs": 3,
        "pairs": 5,
    }
    rate = summary["rate"]
    assert (rate["parent_median"], rate["change_median"]) == (10.0, 8.0)
    assert rate["ratio"] == 0.8
    # higher is better: pairs 0 and 2 only
    assert rate["change_better_pairs"] == 2


def test_summary_of_one_pair_has_no_quartiles():
    runs = [{"seed": 1, "first": "parent", "parent": line(2.0, 1.0), "change": line(1.0, 1.0)}]
    wall = bench_pairs.summarize(runs, END_TO_END)["wall_s"]
    assert "parent_quartiles" not in wall
    assert (wall["ratio"], wall["change_better_pairs"], wall["pairs"]) == (0.5, 1, 1)


def test_summary_reproduces_a_committed_file():
    root = TOOL.parents[1]
    data = json.loads((root / "BENCH_9.json").read_text())
    end_to_end = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in data["workloads"].values():
        assert bench_pairs.summarize(workload["runs"], end_to_end) == workload["summary"]
