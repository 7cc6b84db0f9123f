"""Command-line surface: machine-readable access to every operation.

Subcommands: count, enumerate, series, diagonal, table, verify-rec,
guess-rec, asymptotics. Success output is JSON on stdout (or one
canonical code per line for --emit-trees); errors go to stderr only.
Exit codes: 0 success, 1 computation refused (caps, disconnected graph),
2 bad input. Counts are decimal strings and rationals are "p/q" strings,
so nothing is ever rounded. Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import asymptotics as asy
from . import graphs, recurrences, series, trees
from .errors import AsmtreeError, ComputationRefused, EngineError, InputError
from .rationals import format_rational, parse_rational

# Previously reported values for the (4,4) complete-bipartite cell; the two
# independent computations below agree with each other and with neither.
_K44_REPORTED = ("46400", "23200")


def _read_spec_arg(value: str):
    """An inline-JSON argument if it looks like JSON, else a file path."""
    text = value.strip()
    if text.startswith("{"):
        return text
    try:
        return Path(value).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {value!r}: {exc}") from exc


def _graph_from_args(args) -> graphs.Graph:
    sources = [args.graph is not None, args.family is not None]
    if sum(sources) != 1:
        raise InputError("exactly one of --graph or --family is required")
    if args.graph is not None:
        if args.n is not None or args.params is not None:
            raise InputError("--n/--params only combine with --family")
        return graphs.graph_from_json(_read_spec_arg(args.graph))
    params = _parse_int_list(args.params) if args.params is not None else []
    if args.n is not None:
        params = [args.n] + params
    return graphs.family(args.family, params)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in str(text).split(",") if p.strip() != ""]
    except ValueError as exc:
        raise InputError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_caps(text: str) -> tuple[int, ...]:
    caps = tuple(_parse_int_list(text))
    if not caps:
        raise InputError("--caps must list at least one degree")
    return caps


def _parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(p) for p in str(text).split(",") if p.strip() != ""]


def _read_sequence_file(path: str) -> list[Fraction]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read sequence file {path!r}: {exc}") from exc
    seq = [parse_rational(ln) for ln in lines if ln.strip()]
    if not seq:
        raise InputError(f"sequence file {path!r} is empty")
    return seq


def _recurrence_from_arg(value: str) -> recurrences.PRecurrence:
    if value.startswith("builtin:"):
        return recurrences.builtin(value.split(":", 1)[1])
    text = _read_spec_arg(value)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid recurrence JSON: {exc}") from exc
    return recurrences.PRecurrence.from_json_obj(obj)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _cmd_count(args) -> int:
    g = _graph_from_args(args)
    if args.rule == "edge":
        value = trees.count_edge_rule(g)
    else:
        value = trees.count_connected_rule(g)
    _emit({"count": str(value)})
    return 0


def _cmd_enumerate(args) -> int:
    g = _graph_from_args(args)
    codes = trees.enumerate_edge_rule(g)
    if args.emit_trees:
        for code in sorted(codes):
            sys.stdout.write(code.decode("ascii") + "\n")
    else:
        _emit({"count": str(len(codes))})
    return 0


def _cmd_series(args) -> int:
    spec = graphs.hspec_from_json(_read_spec_arg(args.hgraph))
    caps = _parse_caps(args.caps)
    egf = series.hgraph_egf(spec, caps)
    _emit(egf.to_json_obj())
    return 0


def _cmd_diagonal(args) -> int:
    spec = graphs.hspec_from_json(_read_spec_arg(args.hgraph))
    if args.upto < 0:
        raise InputError("--upto must be non-negative")
    caps = (args.upto,) * spec.base.n
    diag = series.diagonal(series.hgraph_egf(spec, caps))
    _emit({"diagonal": [format_rational(c) for c in diag]})
    return 0


def _cmd_table(args) -> int:
    if args.family != "bipartite":
        raise InputError(f"table supports the bipartite family, not {args.family!r}")
    if args.max < 1:
        raise InputError("--max must be >= 1")
    top = args.max
    # one count of K_{top,top} holds every K_{m,n}: its parts are the twin
    # blocks 0..top-1 and top..2top-1, so K_{m,n} is the state below
    k = graphs.family("complete_multipartite", [top, top])
    dp = trees._count_trees(k, False, f"table --max {top}")
    spec = graphs.HSpec(graphs.family("complete", [2]), (0, 0))
    egf = series.hgraph_egf(spec, (top, top))
    rows = []
    discrepancies = []
    for m in range(1, top + 1):
        row = []
        for n in range(m, top + 1):
            via_series = series.count_from_egf(egf, (m, n))
            via_dp = dp[(1 << m) - 1 | (1 << n) - 1 << top]
            if via_series != via_dp:
                raise EngineError(
                    f"series/subset-DP disagree at ({m},{n}): {via_series} vs {via_dp}"
                )
            row.append(str(via_series))
            if (m, n) == (4, 4):
                discrepancies.append(
                    {
                        "cell": [4, 4],
                        "series": str(via_series),
                        "subset_dp": str(via_dp),
                        "previously_reported": list(_K44_REPORTED),
                        "note": (
                            "the two independent computations agree with each other "
                            "and with neither previously reported value"
                        ),
                    }
                )
        rows.append(row)
    out = {"family": "bipartite", "max": top, "rows": rows}
    if discrepancies:
        out["discrepancies"] = discrepancies
    _emit(out)
    return 0


def _cmd_verify_rec(args) -> int:
    rec = _recurrence_from_arg(args.rec)
    seq = _read_sequence_file(args.seq)
    res = recurrences.verify(rec, seq)
    obj = {"pass": res.ok, "first_failure": res.first_failure, "checked": res.checked}
    if res.degenerate:
        obj["degenerate"] = True
    _emit(obj)
    return 0


def _cmd_guess_rec(args) -> int:
    seq = _read_sequence_file(args.seq)
    rec = recurrences.guess(seq, args.max_order, args.max_degree)
    _emit({"recurrence": None if rec is None else rec.to_json_obj()})
    return 0


def _cmd_asymptotics(args) -> int:
    rec = _recurrence_from_arg(args.rec)
    initial = _parse_rational_list(args.init)
    if args.n_max < 8:
        raise InputError("--n-max must be at least 8")
    data = asy.log_sequence(rec, initial, args.n_max)
    model = asy.fit_model(data, asy._lambda_from(data))
    _emit(model.to_json_obj())
    return 0


def _add_graph_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="graph JSON (inline or a file path)")
    p.add_argument("--family", choices=graphs.FAMILY_NAMES, help="named family")
    p.add_argument("--n", type=int, help="first family parameter")
    p.add_argument("--params", help="comma-separated extra family parameters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmtree",
        description="Exact assembly-tree counts, generating functions, "
        "recurrences and growth rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count assembly trees of a graph")
    _add_graph_inputs(p)
    p.add_argument("--rule", choices=("edge", "connected"), default="edge")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="enumerate distinct assembly trees")
    _add_graph_inputs(p)
    p.add_argument(
        "--emit-trees", action="store_true", help="print one canonical code per line"
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("series", help="EGF window of a template graph")
    p.add_argument("--hgraph", required=True, help='{"hgraph": {...}} JSON or path')
    p.add_argument("--caps", required=True, help="per-variable degrees, e.g. 8,8")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("diagonal", help="diagonal coefficients of a template EGF")
    p.add_argument("--hgraph", required=True, help='{"hgraph": {...}} JSON or path')
    p.add_argument("--upto", type=int, required=True, help="last diagonal index")
    p.set_defaults(func=_cmd_diagonal)

    p = sub.add_parser("table", help="cross-checked count table for a family")
    p.add_argument("--family", required=True, help="currently: bipartite")
    p.add_argument("--max", type=int, required=True, help="largest part size")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify-rec", help="check a recurrence against a sequence")
    p.add_argument("--rec", required=True, help="builtin:a|b|c, JSON, or a path")
    p.add_argument("--seq", required=True, help="file with one rational per line")
    p.set_defaults(func=_cmd_verify_rec)

    p = sub.add_parser("guess-rec", help="fit a recurrence to a sequence")
    p.add_argument("--seq", required=True, help="file with one rational per line")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=_cmd_guess_rec)

    p = sub.add_parser("asymptotics", help="growth report for a recurrence")
    p.add_argument("--rec", required=True, help="builtin:a|b|c, JSON, or a path")
    p.add_argument("--init", required=True, help="comma-separated initial terms")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_asymptotics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ComputationRefused, EngineError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except AsmtreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
