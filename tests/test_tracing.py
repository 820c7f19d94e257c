"""The benchmark tracer wraps library functions by module attribute name;
every attribute it names must exist and be restored after uninstall."""

import importlib.util
from pathlib import Path

from matgraph.coloring import exact_d_coloring
from matgraph.gftower import build_tower
from matgraph.graph import GraphParams

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("matgraph_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_install_and_uninstall_restore_every_attribute():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, (owner, attr)


def test_traced_exact_search_reports_restarts_and_eliminations():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        exact_d_coloring(GraphParams(build_tower(2, 1, 2), 2), 2, seed=0, m=1)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["coloring.restarts"] >= 1
    assert metrics["linalg.row_reduce_calls"] >= 1
    assert metrics["coloring.search_s"] > 0
