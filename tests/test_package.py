"""The package's public surface, which loads its submodules on demand."""

import importlib
import json
import subprocess
import sys

import pytest

import matgraph

# Every public name and the submodule it has always been importable from.
PUBLIC_NAMES = {
    "gftower": ("FieldTower", "build_tower"),
    "linalg": (
        "BudgetExceededError",
        "MatFq",
        "VecExt",
        "column_rank",
        "count_rank_k",
        "enumerate_matrices",
        "enumerate_rank_one",
        "matrix_to_vector",
        "rank",
        "rank_distance",
        "vector_to_matrix",
    ),
    "graph": ("GraphParams", "graph_distance_bfs", "neighbors"),
    "codes": (
        "EquidistantCode",
        "LinearRankCode",
        "builtin_code",
        "gabidulin",
        "is_equidistant",
        "min_rank_distance",
        "rank_spectrum",
    ),
    "coloring": (
        "Coloring",
        "clique",
        "d_distance_coloring",
        "exact_d_coloring",
        "search_forbidden_H",
        "verify_at_most_d",
        "verify_exactly_d",
    ),
    "bounds": ("chi_exact_upper", "chi_prime", "known_chi_exact", "table1"),
}
HOMES = [(module, name) for module, names in PUBLIC_NAMES.items() for name in names]


def test_all_lists_every_public_name_once():
    assert len(HOMES) == 34
    assert matgraph.__all__ == sorted(name for _, name in HOMES)


@pytest.mark.parametrize("module, name", HOMES, ids=[name for _, name in HOMES])
def test_public_name_is_its_home_modules_object(module, name):
    assert getattr(matgraph, name) is getattr(importlib.import_module(f"matgraph.{module}"), name)
    assert name in dir(matgraph)


def test_submodules_are_attributes():
    for module in PUBLIC_NAMES:
        assert getattr(matgraph, module) is importlib.import_module(f"matgraph.{module}")
        assert module in dir(matgraph)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from matgraph import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == matgraph.__all__


def test_version_and_unknown_attribute():
    assert matgraph.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match=r"^module 'matgraph' has no attribute 'no_such_name'$"):
        matgraph.no_such_name


# A linalg kernel loads numpy before codes and coloring are first imported;
# both must bind numpy itself, not the placeholder, and run their kernels.
NUMPY_BEFORE_LATE_IMPORTS = """
import json, sys
from matgraph import linalg
from matgraph.gftower import build_tower

tower = build_tower(2, 1, 3)
out = {"ranks": linalg.ranks(tower, [[1, 2, 3], [1, 1, 0]]).tolist()}
out["numpy_first"] = "numpy" in sys.modules
out["late"] = [m for m in ("matgraph.codes", "matgraph.coloring") if m not in sys.modules]

import numpy
from matgraph import codes, coloring
from matgraph.graph import GraphParams

out["placeholders"] = sorted(
    name for name, module in sys.modules.items()
    if name.startswith("matgraph.") and name != "matgraph._numpy" and getattr(module, "np", numpy) is not numpy
)
out["spectrum"] = codes.rank_spectrum(codes.gabidulin(tower, 3, 2))
col = coloring.d_distance_coloring(GraphParams(tower, 2), 1)
out["violation"] = coloring.find_violation(col, pairwise=False)
print(json.dumps(out))
"""


def test_modules_imported_after_numpy_bind_numpy():
    # conftest.py points the child's PYTHONPATH at src/
    res = subprocess.run([sys.executable, "-c", NUMPY_BEFORE_LATE_IMPORTS], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["ranks"] == [2, 1]
    assert out["numpy_first"] is True
    assert out["late"] == ["matgraph.codes", "matgraph.coloring"]
    assert out["placeholders"] == []
    assert out["spectrum"] == {"0": 1, "2": 49, "3": 14}
    assert out["violation"] is None


# Builds colorings and counts the colors they use; no kernel runs, so
# numpy stays unloaded.
COUNT_WITHOUT_NUMPY = """
import json, sys
from matgraph.coloring import d_distance_coloring, exact_d_coloring, realized_colors
from matgraph.gftower import build_tower
from matgraph.graph import GraphParams

params = GraphParams(build_tower(2, 1, 4), 3)
counts = [realized_colors(d_distance_coloring(params, 2)), realized_colors(exact_d_coloring(params, 2))]
print(json.dumps([counts, "numpy" in sys.modules]))
"""


def test_counting_colors_loads_no_numpy():
    res = subprocess.run([sys.executable, "-c", COUNT_WITHOUT_NUMPY], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [[256, 256], False]
