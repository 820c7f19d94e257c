"""Matrix graphs over finite fields: rank-metric codes, distance colorings
and bound calculators.

Importing the package loads none of its submodules.  A public name, or a
submodule named as an attribute, is loaded the first time it is looked up
(PEP 562), so a caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it provides; ``__all__`` and the
# lookups below are derived from this one table.
_PUBLIC = {
    "_budget": ("BudgetExceededError",),
    "gftower": ("FieldTower", "build_tower"),
    "linalg": (
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
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset(module for module in _PUBLIC if not module.startswith("_"))

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
