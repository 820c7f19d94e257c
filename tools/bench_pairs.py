"""Alternating parent/change runs of the benchmark, written as BENCH_<n>.json.

Run from the repository root, on a committed change:

    python3 tools/bench_pairs.py --parent HEAD~1 --workloads oracle cli \\
        --first-seed 5001 --pairs 10 --note "what the change does" --out BENCH_10.json

The parent revision and HEAD are exported with ``git archive`` into fresh
directories under the system temporary directory, so each side runs from
its committed files alone.  Pair i of a workload runs
``benchmarks/run.py`` once on each side with seed first_seed + i, the
parent first when i is even and the change first when it is odd; rounds go
over the workloads in turn, so host drift spreads over all of them.  Runs
last ``--seconds``, by default the ``run_seconds`` of HEAD's
BENCHMARK.json.  Each run's last stdout line (correct, attempted, failed and
the end-to-end metrics) is kept under ``runs``.  Per metric, ``summary``
gives each side's median and quartiles, the change/parent ratio of the
medians, and in how many pairs the change was better, in the direction
BENCHMARK.json gives, ties counting for neither side.  The file is
rewritten after every pair, so an interrupted run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PROTOCOL = (
    "parent commit and change run from clean git archive copies of their committed "
    "files, one pair per seed, alternating which side runs first; each entry is the "
    "last stdout line of one run"
)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of the benchmark definition: medians, exclusive
    quartiles, change/parent ratio and the pairs the change won."""
    summary = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        sign = 1 if spec["better"] == "lower" else -1
        medians = {side: statistics.median(values[side]) for side in SIDES}
        entry = {"unit": spec["unit"]}
        for side in SIDES:
            entry[f"{side}_median"] = round(medians[side], 6)
            if len(runs) >= 2:
                q1, _, q3 = statistics.quantiles(values[side], n=4)
                entry[f"{side}_quartiles"] = [round(q1, 6), round(q3, 6)]
        entry["ratio"] = round(medians["change"] / medians["parent"], 4)
        entry["change_better_pairs"] = sum(
            sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])
        )
        entry["pairs"] = len(runs)
        summary[name] = entry
    return summary


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` in ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {rev} failed")


def run_side(copy: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result line, report line) of one benchmark run in ``copy``."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv[1:])} in {copy} exited {done.returncode}: "
                           f"{done.stderr.strip()[-300:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--note", required=True, help="what the change does, for the file's 'change'")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, "HEAD")):
            export(rev, copies[side])
        spec = json.loads((copies["change"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        result = {
            "change": args.note,
            "command": f"python3 benchmarks/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0",
            "protocol": PROTOCOL,
            "host": None,
            "workloads": {w: {"summary": {}, "runs": []} for w in args.workloads},
        }
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in args.workloads:
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side], report = run_side(copies[side], workload, seed, seconds)
                    if not run[side]["correct"]:
                        sys.stderr.write(f"{workload} seed {seed} {side}: {report.get('failures')}\n")
                env = report["env"]
                result["host"] = {key: env[key] for key in ("cpu_model", "nproc", "python", "numpy")}
                entry = result["workloads"][workload]
                entry["runs"].append(run)
                entry["summary"] = summarize(entry["runs"], spec["end_to_end"])
                args.out.write_text(json.dumps(result, indent=1) + "\n")
                wall = entry["summary"]["wall_s"]
                print(f"{workload} pair {i + 1}/{args.pairs}: wall_s ratio {wall['ratio']}, "
                      f"change better in {wall['change_better_pairs']}/{wall['pairs']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
