"""Command line interface: field, graph, code, color and bounds subcommands.

Exit codes: 0 success/verified, 1 usage error, 2 verification failure,
3 enumeration or search budget exceeded, 4 internal error.

Building the parser and mapping errors to exit codes need only
``matgraph._budget``; each handler imports the submodules it runs when it
runs, and looks their functions up at call time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ._budget import DEFAULT_BUDGET, EXPORT_BUDGET, BudgetExceededError, SearchExhaustedError

if TYPE_CHECKING:
    from .coloring import Coloring


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _tower_from_flags(args: argparse.Namespace):
    from ._primes import iroot
    from .gftower import build_tower

    q, m = args.q, args.m
    # The exact m-th root p of q; p >= 2 needs 2**m <= q, so m below q's bit
    # length.  Whether p is prime is build_tower's check.
    p = iroot(q, m) if 1 <= m < q.bit_length() else 0
    if p < 2 or p**m != q:
        raise ValueError(f"q = {q} is not a prime power with exponent m = {m}")
    return build_tower(p, m, args.N)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _field_flags(p: argparse.ArgumentParser, with_n: bool = False) -> None:
    p.add_argument("--q", type=int, required=True, help="order of the base field F_q")
    p.add_argument("--m", type=int, default=1, help="degree of F_q over its prime field")
    p.add_argument("--N", type=int, required=True, help="extension degree of the top field")
    if with_n:
        p.add_argument("--n", type=int, required=True, help="number of matrix columns / vector length")


# -- field ------------------------------------------------------------------

def _cmd_field_describe(args: argparse.Namespace) -> int:
    tower = _tower_from_flags(args)
    _dump_json(tower.to_json(), args.out)
    return 0


# -- graph ------------------------------------------------------------------

def _cmd_graph_stats(args: argparse.Namespace) -> int:
    from . import graph

    params = graph.GraphParams(_tower_from_flags(args), args.n)
    stats = {
        "q": params.q,
        "N": params.N,
        "n": params.n,
        "order": str(params.order),
        "degree": str(params.degree),
        "diameter": params.n,
    }
    if args.format == "json":
        _dump_json(stats, args.out)
    else:
        _emit("".join(f"{k}={v}\n" for k, v in stats.items()), args.out)
    return 0


def _cmd_graph_export(args: argparse.Namespace) -> int:
    from . import graph

    params = graph.GraphParams(_tower_from_flags(args), args.n)
    if args.format == "dot":
        text = graph.export_dot(params, budget=args.budget)
    else:
        text = graph.export_edgelist_csv(params, budget=args.budget)
    _emit(text, args.out)
    return 0


# -- code -------------------------------------------------------------------

def _cmd_code_gabidulin(args: argparse.Namespace) -> int:
    from . import codes

    tower = _tower_from_flags(args)
    code = codes.gabidulin(tower, args.n, args.k, s=args.s, h=args.h)
    if args.out:
        _dump_json(codes.code_to_json(code), args.out)
    _dump_json({
        "n": code.n,
        "k": code.k,
        "design_distance": code.n - code.k + 1,
        "size": str(code.size),
        "tag": code.tag,
    }, None)
    return 0


def _cmd_code_spectrum(args: argparse.Namespace) -> int:
    from . import codes

    code = codes.code_from_json(json.loads(Path(args.file).read_text()))
    spectrum = codes.rank_spectrum(code, budget=args.budget)
    result = {
        "spectrum": {str(w): spectrum[w] for w in sorted(spectrum)},
        "min_rank_distance": codes.min_nonzero_rank(spectrum),
        "size": str(code.size),
    }
    _dump_json(result, args.out)
    return 0


def _cmd_code_builtin(args: argparse.Namespace) -> int:
    from . import codes

    code = codes.builtin_code(args.name)
    lines = [f"name={code.name}", f"n={code.n}", f"size={code.size}", f"declared_distance={code.distance}"]
    if args.verify:
        measured = codes.is_equidistant(code.words)
        lines.append(f"equidistant={measured is not None}")
        lines.append(f"measured_distance={measured}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.verify and measured != code.distance:
        sys.stderr.write("verification failed: pairwise distances do not match\n")
        return 2
    return 0


# -- color ------------------------------------------------------------------

def _print_violation(col: Coloring, pair: tuple[int, int]) -> None:
    from . import linalg

    tower, n = col.params.tower, col.params.n
    labels = [linalg.mat_label(linalg.vector_to_matrix(linalg.vec_from_index(tower, n, i))) for i in pair]
    sys.stderr.write(f"violating pair: {labels[0]} {labels[1]}\n")


def _verify_and_report(col: Coloring, args: argparse.Namespace) -> int:
    from . import coloring

    pair = coloring.find_violation(col, pairwise=args.pairwise, budget=args.budget)
    sys.stdout.write(f"verified={pair is None}\n")
    if pair is not None:
        _print_violation(col, pair)
        return 2
    return 0


def _cmd_color_dist(args: argparse.Namespace) -> int:
    from . import coloring, graph

    params = graph.GraphParams(_tower_from_flags(args), args.n)
    col = coloring.d_distance_coloring(params, args.d)
    if args.out:
        _dump_json(coloring.coloring_to_json(col), args.out)
    sys.stdout.write(f"mode={col.mode} d={col.d} colors={col.num_colors}\n")
    if args.verify:
        return _verify_and_report(col, args)
    return 0


def _cmd_color_exact(args: argparse.Namespace) -> int:
    from . import bounds, coloring, graph

    params = graph.GraphParams(_tower_from_flags(args), args.n)
    col = coloring.exact_d_coloring(
        params, args.d, seed=args.seed, m=args.rows, restarts=args.restarts, budget=args.budget
    )
    if args.out:
        _dump_json(coloring.coloring_to_json(col), args.out)
    counting_bound = bounds.chi_exact_upper(params.N, params.n, params.q, args.d) if args.d <= params.n else 1
    sys.stdout.write(
        f"mode={col.mode} d={col.d} colors={col.num_colors} "
        f"counting_bound={counting_bound} tag={col.tag}\n"
    )
    if args.verify:
        return _verify_and_report(col, args)
    return 0


def _cmd_color_verify(args: argparse.Namespace) -> int:
    from . import coloring

    col = coloring.coloring_from_json(json.loads(Path(args.file).read_text()))
    return _verify_and_report(col, args)


def _cmd_color_assign(args: argparse.Namespace) -> int:
    from . import coloring, linalg

    col = coloring.coloring_from_json(json.loads(Path(args.file).read_text()))
    params = col.params
    M = linalg.mat_from_label(params.tower, params.N, params.n, args.vertex)
    sys.stdout.write(f"{col.color_of_matrix(M)}\n")
    return 0


# -- bounds -----------------------------------------------------------------

def _cmd_bounds_row(args: argparse.Namespace) -> int:
    from . import bounds

    row = bounds.bounds_row(args.N, args.n, args.q, args.d)
    if args.format == "csv":
        _emit(bounds.rows_csv([row]), args.out)
    else:
        data = {
            "N": row.N,
            "n": row.n,
            "d": row.d,
            "q": row.q,
            "chi_prime": str(row.chi_prime_exact),
            "chi_prime_lower": str(row.chi_lower_eq1),
            "bound12": str(row.chi_exact_upper_thm),
            "bound8": str(row.chi_exact_upper_nat),
            "known_exact": (
                {
                    "value": str(row.known_exact.value),
                    "exact": row.known_exact.exact,
                    "provenance": row.known_exact.provenance,
                }
                if row.known_exact
                else None
            ),
            "lower_bounds": [str(v) for v in row.lower_bounds],
            "note": row.note,
        }
        _dump_json(data, args.out)
    return 0


def _cmd_bounds_table1(args: argparse.Namespace) -> int:
    from . import bounds

    _emit(bounds.table1(), args.out)
    return 0


# -- parser -----------------------------------------------------------------

def _common_flags(budget: int) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget",
        type=int,
        default=budget,
        help="max items to enumerate; a rank spectrum counts the F_{q^N}^* lines of the smaller "
        "of the code and its dual, the side it scans",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for randomized search")
    common.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    common.add_argument("--out", type=str, default=None, help="write output to this file")
    return common


def build_parser() -> _Parser:
    parser = _Parser(prog="matgraph", description=__doc__)
    sub = parser.add_subparsers(dest="family", required=True, parser_class=_Parser)

    common = _common_flags(DEFAULT_BUDGET)

    field = sub.add_parser("field").add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    p = field.add_parser("describe", parents=[common])
    _field_flags(p)
    p.set_defaults(func=_cmd_field_describe)

    graph_sub = sub.add_parser("graph").add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    p = graph_sub.add_parser("stats", parents=[common])
    _field_flags(p, with_n=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_graph_stats)
    # export's own parent parser, so its smaller default stays off the shared --budget
    p = graph_sub.add_parser("export", parents=[_common_flags(EXPORT_BUDGET)])
    _field_flags(p, with_n=True)
    p.add_argument("--format", choices=["dot", "csv"], required=True)
    p.set_defaults(func=_cmd_graph_export)

    code_sub = sub.add_parser("code").add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    p = code_sub.add_parser("gabidulin", parents=[common])
    _field_flags(p, with_n=True)
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--s", type=int, default=1, help="power twist, gcd(s, N) = 1")
    p.add_argument("--h", type=int, nargs="+", default=None, help="support elements (encodings)")
    p.set_defaults(func=_cmd_code_gabidulin)
    p = code_sub.add_parser("spectrum", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_code_spectrum)
    p = code_sub.add_parser("builtin", parents=[common])
    p.add_argument("name", choices=["C1", "C2", "C3"])
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_code_builtin)

    color_sub = sub.add_parser("color").add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    p = color_sub.add_parser("dist", parents=[common])
    _field_flags(p, with_n=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--pairwise", action="store_true", help="verify every vertex pair instead of the kernel scan")
    p.set_defaults(func=_cmd_color_dist)
    p = color_sub.add_parser("exact", parents=[common])
    _field_flags(p, with_n=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--rows",
        type=int,
        default=None,
        help="parity rows: below m* = min(d, n-d+1) the seeded search runs, "
        "otherwise the proven m*-row coloring is built (the default)",
    )
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--pairwise", action="store_true")
    p.set_defaults(func=_cmd_color_exact)
    p = color_sub.add_parser("verify", parents=[common])
    p.add_argument("file")
    p.add_argument("--pairwise", action="store_true")
    p.set_defaults(func=_cmd_color_verify)
    p = color_sub.add_parser("assign", parents=[common])
    p.add_argument("file")
    p.add_argument("--vertex", required=True, help="row-major matrix label, as color verify prints it")
    p.set_defaults(func=_cmd_color_assign)

    bounds_sub = sub.add_parser("bounds").add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    p = bounds_sub.add_parser("row", parents=[common])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_bounds_row)
    p = bounds_sub.add_parser("table1", parents=[common])
    p.set_defaults(func=_cmd_bounds_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "budget", 1) < 1:
            raise ValueError("--budget must be at least 1")
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be at least 1")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (BudgetExceededError, SearchExhaustedError) as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
