"""matgraph benchmark: one workload per run, closed loop, every answer checked.

Run from the repository root:

    python3 benchmarks/run.py --workload oracle --seed 1 --seconds 28 --trace 0

One client runs one job at a time in this process (``cli`` adds one child
interpreter at a time).  After an untimed warm-up pass (none for ``cli``),
passes repeat until ``--seconds`` have passed.  Every job's answer is checked
after its pass against an independent value; a wrong answer, an unexpected
exception or a wrong exit code counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced (see tracing.py), prints the per-layer
metrics and writes the spans to .bench_out/.  ``--plant`` hands the checks a
wrong answer for the first job of every pass, to show that they catch it.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("oracle", "spectra", "color", "cli")
SETUP_PROBES = 7
STARTUP_PROBES = 5
MIN_PASSES = 3

# Metric names and units come from the benchmark definition.  Per-layer
# metrics with unit "count" are exact: they are reported from the first
# traced pass, whose inputs depend only on the seed, so they repeat exactly.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", action="store_true", help="check a planted wrong answer per pass")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(name: str, workdir: Path):
    import workloads

    if name == "cli":
        return workloads.Cli(SRC, workdir)
    return {"oracle": workloads.Oracle, "spectra": workloads.Spectra, "color": workloads.Color}[name]()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    wall: float = 0.0
    job_secs: list[float] = field(default_factory=list)
    typical: list[bool] = field(default_factory=list)  # per job: counts in job_p50_s
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    layers: dict | None = None  # per-layer values, traced passes only
    main_secs: list[float] = field(default_factory=list)  # in-process cli.main calls
    scale: float = 1.0  # the speed probe's reference over its time around the pass

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    @property
    def scaled_job_secs(self) -> list[float]:
        return [secs * self.scale for secs in self.job_secs]


def run_pass(wl, seed: int, index: int, plant: bool, tracer=None) -> Pass:
    jobs = wl.jobs(wl.inputs(seed, index))
    result = Pass()
    outcomes = []
    if tracer is not None:
        tracer.reset()
        tracer.pass_id = index
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = f"{index}:{job.label}"
        t0 = time.perf_counter()
        try:
            outcomes.append((True, job.run()))
        except Exception as exc:  # any exception the job did not expect is a failure
            outcomes.append((False, exc))
        secs = time.perf_counter() - t0
        result.job_secs.append(secs)
        result.typical.append(job.typical)
    result.wall = time.perf_counter() - start
    if tracer is not None:
        result.main_secs = [in_process_main(job.argv) for job in jobs if job.argv]
        result.layers = tracer.layer_metrics()
        tracer.job = None
    for i, (job, (ok, value)) in enumerate(zip(jobs, outcomes)):
        result.attempted += 1
        if not ok:
            result.failures.append(f"{job.label}: raised {type(value).__name__}: {value}")
            continue
        if plant and i == 0:
            value = job.plant(value)
        try:
            reason = job.check(value)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            result.failures.append(f"{job.label}: {reason}")
    return result


def in_process_main(argv: list[str]) -> float:
    """Seconds for ``cli.main(argv)`` in this process, output captured."""
    import contextlib
    import io

    from matgraph import cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cli.main(argv)
    return time.perf_counter() - start


def timed_passes(wl, seed: int, seconds: float, plant: bool, tracer=None, between=None) -> list[Pass]:
    """Passes until ``seconds`` have passed, each between two runs of the
    workload's speed probe, which set its scale (README.md, "Host speed");
    ``between()`` runs untimed after each pass."""
    passes = []
    start = time.perf_counter()
    before = wl.speed_probe()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        result = run_pass(wl, seed, len(passes), plant, tracer)
        after = wl.speed_probe()
        result.scale = wl.reference_s / ((before + after) / 2)
        before = after
        passes.append(result)
        if between is not None:
            between()
    return passes


# ---------------------------------------------------------------------------
# set-up and start-up probes (child processes, one at a time)
# ---------------------------------------------------------------------------

def setup_probe(args: argparse.Namespace) -> int:
    """Child mode: time imports and input generation, print the seconds."""
    start = time.perf_counter()
    wl = make_workload(args.workload, OUT)
    wl.inputs(args.seed, -1)
    wl.inputs(args.seed, 0)
    print(time.perf_counter() - start)
    return 0


class SetupSamples(list):
    """Set-up seconds from fresh child processes.  The first probe runs
    before the first pass, the others between passes, so that the median
    spans the run rather than one moment of it.  Each is scaled like the
    ``cli`` passes, by the child speed probe run just before it."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        super().__init__()
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        self.workdir = workdir
        self.unscaled: list[float] = []
        self.probe()

    def probe(self) -> None:
        from workloads import CHILD_PROBE_REFERENCE_S, child_speed_probe, run_child

        if len(self) >= SETUP_PROBES:
            return
        speed = child_speed_probe(ROOT, child_env(), self.workdir)
        code, out, err, _, _ = run_child(self.argv, ROOT, child_env(), self.workdir)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
        secs = float(out.strip().splitlines()[-1])
        self.unscaled.append(secs)
        self.append(secs * CHILD_PROBE_REFERENCE_S / speed)


def import_times(stderr: str) -> tuple[float, float]:
    """(matgraph.cli cumulative, numpy cumulative) seconds from -X importtime.
    numpy reads 0 when importing the CLI no longer imports it."""
    cli_us = None
    numpy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if name.strip() == "matgraph.cli":
            cli_us = int(cumulative)
        elif name.strip() == "numpy":
            numpy_us = int(cumulative)
    if cli_us is None:
        raise RuntimeError("no matgraph.cli entry in the -X importtime output")
    return cli_us / 1e6, numpy_us / 1e6


def measure_startup(workdir: Path) -> dict[str, float]:
    from workloads import run_child

    interp, imports, numpy_imports = [], [], []
    for _ in range(STARTUP_PROBES):
        code, _, err, secs, _ = run_child([sys.executable, "-c", "pass"], ROOT, child_env(), workdir)
        if code != 0:
            raise RuntimeError(f"bare interpreter probe failed: {err}")
        interp.append(secs)
        code, _, err, _, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import matgraph.cli"],
            ROOT, child_env(), workdir,
        )
        if code != 0:
            raise RuntimeError(f"import probe failed: {err.strip()[-300:]}")
        cli_s, numpy_s = import_times(err)
        imports.append(cli_s)
        numpy_imports.append(numpy_s)
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.numpy_import_s": statistics.median(numpy_imports),
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args: argparse.Namespace, passes: int, warmup: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_passes": passes,
        "warmup_passes": warmup,
    }


def metrics_for(kind: str, values: dict[str, float]) -> dict:
    """The ``kind`` metrics of the benchmark definition, with their units."""
    names = [m["name"] for m in SPEC[kind]]
    missing = set(names) - set(values)
    if missing:
        raise RuntimeError(f"no value for {sorted(missing)}")
    return {name: {"value": values[name], "unit": UNITS[name]} for name in names}


def finish(passes: list[Pass], warm: list[Pass], metrics: dict, report: dict) -> int:
    everything = warm + passes
    attempted = sum(p.attempted for p in everything)
    failures = [f for p in everything for f in p.failures]
    report["failures"] = failures[:20]
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def speed_report(wl, passes: list[Pass]) -> dict:
    """The unscaled pass times beside the scale factors applied to them."""
    scales = [p.scale for p in passes]
    return {
        "probe_reference_s": wl.reference_s,
        "scale_quartiles": statistics.quantiles(scales, n=4),
        "unscaled_wall_s": statistics.median(p.wall for p in passes),
        "unscaled_wall_quartiles": statistics.quantiles((p.wall for p in passes), n=4),
    }


def end_to_end(args, wl, warm: list[Pass], passes: list[Pass], setup: list[float]) -> int:
    walls = [p.scaled_wall for p in passes]
    # Every pass runs the same job list, so each position in it is timed
    # once per pass.  A position's median is steadier than any one pass.
    by_job = [statistics.median(times) for times in zip(*(p.scaled_job_secs for p in passes))]
    typical = [secs for secs, flag in zip(by_job, passes[0].typical) if flag]
    if args.workload == "cli":
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = metrics_for("end_to_end", {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(typical),
        "job_max_s": max(by_job),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024,
    })
    report = {
        "env": environment(args, len(passes), len(warm)),
        "samples": {
            "wall_s": len(walls),
            "job_p50_s": f"{len(typical)} typical jobs, each the median of {len(passes)} passes",
            "job_max_s": f"{len(by_job)} jobs, each the median of {len(passes)} passes",
            "setup_s": len(setup),
            "peak_rss_mb": 1,
        },
        "quartiles": {
            "wall_s": statistics.quantiles(walls, n=4),
            "job_p50_s": statistics.quantiles(typical, n=4),
            "setup_s": statistics.quantiles(setup, n=4),
        },
        "host_speed": dict(speed_report(wl, passes), unscaled_setup_s=statistics.median(setup.unscaled)),
    }
    return finish(passes, warm, metrics, report)


def traced(args, wl, warm: list[Pass], startup: dict) -> int:
    from tracing import Tracer

    untraced = timed_passes(wl, args.seed, args.seconds / 2, args.plant)
    tracer = Tracer()
    tracer.install()
    try:
        passes = timed_passes(wl, args.seed, args.seconds / 2, args.plant, tracer)
    finally:
        tracer.uninstall()
    layers = {}
    for name in passes[0].layers:
        if UNITS.get(name) == "count":
            layers[name] = passes[0].layers[name]
        else:
            layers[name] = statistics.median(p.layers[name] for p in passes)
    layers.update(startup)
    mains = [statistics.median(p.main_secs) for p in passes if p.main_secs]
    layers["cli.main_s"] = statistics.median(mains) if mains else 0.0
    traced_wall = statistics.median(p.scaled_wall for p in passes)
    untraced_wall = statistics.median(p.scaled_wall for p in untraced)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    metrics = metrics_for("per_layer", layers)
    env = environment(args, len(passes), len(warm))
    env["untraced_passes"] = len(untraced)
    report = {
        "env": env,
        "samples": {
            "counts": "first traced pass",
            "times": f"median of {len(passes)} traced passes",
            "cli.startup": f"median of {STARTUP_PROBES} probes",
            "trace.overhead_s": f"traced wall {traced_wall:.4f} s over {len(passes)} passes "
            f"minus untraced wall {untraced_wall:.4f} s over {len(untraced)} passes",
        },
    }
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "env": env,
        "span_fields": ["id", "parent", "pass", "job", "name", "start", "end"],
        "spans": tracer.spans,
        "per_pass_layers": [p.layers for p in passes],
    }))
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    return finish(untraced + passes, warm, metrics, report)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "matgraph" / "__init__.py").is_file():
        sys.stderr.write(f"error: no matgraph sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    import matgraph

    if not Path(matgraph.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: imported matgraph from {matgraph.__file__}, not {SRC}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        if args.trace:
            startup = measure_startup(workdir)
        else:
            setup = SetupSamples(args.workload, args.seed, workdir)
        wl = make_workload(args.workload, workdir)
        warm = [run_pass(wl, args.seed, -1, args.plant)] if wl.warmup else []
        if args.trace:
            return traced(args, wl, warm, startup)
        passes = timed_passes(wl, args.seed, args.seconds, args.plant, between=setup.probe)
        while len(setup) < SETUP_PROBES:
            setup.probe()
        return end_to_end(args, wl, warm, passes, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
