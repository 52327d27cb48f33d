"""Command-line interface.

Exit codes: 0 success, 1 user/validation error (bad input, unknown flag,
assumption violation), 2 internal invariant violation — the latter can only
mean a bug in the algorithms, never bad input.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from .alg1 import run_algorithm1
from .alg2 import compare_alg1_alg2, run_algorithm2
from .chain import (
    EnumerationCapError,
    GraphError,
    InternalInvariantError,
    SymmetryError,
    ValidationFailure,
    check_epsilon,
    closed_communicating_classes,
    generator_matrix,
    parse_state,
    validate,
)
from .demos import nested_cycle_chain
from .dot import export_dot
from .graphio import dump_json, load_graph, parse_rational
from .kinesin import kinesin_sweep, parse_grid
from .kmc import _check_window, census, census_vs_tgraph, simulate_ensemble
from .spectral import (
    charpoly_identity_check,
    compare_spectrum,
    eigenvalue_estimates,
    numerical_eigenvalues,
)
from .stopping import StopCriterion
from .wgraph import DEFAULT_ENUMERATION_CAP, enumerate_all_optimal, extract_wgraph

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage errors are user errors: exit 1, never argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_stop(spec: str) -> StopCriterion:
    if spec == "bucket-empty":
        return StopCriterion.bucket_empty()
    if spec == "bucket-size-one":
        return StopCriterion.bucket_size_one()
    if spec.startswith("threshold:"):
        return StopCriterion.exponent_threshold(parse_rational(spec.split(":", 1)[1]))
    if spec.startswith("covering:"):
        body = spec.split(":", 1)[1]
        parts = body.split(";")
        if len(parts) != 2:
            raise GraphError(
                f"covering stop needs two ';'-separated state lists, got {spec!r}"
            )
        a, b = ([parse_state(s) for s in part.split(",") if s.strip()] for part in parts)
        if not a or not b:
            raise GraphError(f"covering stop has an empty target list in {spec!r}")
        return StopCriterion.class_covering(a, b)
    raise GraphError(
        f"unknown stop criterion {spec!r}; use bucket-empty, bucket-size-one, "
        "threshold:<rational> or covering:<s1,s2;t1,t2>"
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_io(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        p.add_argument("--input", required=True, help="graph file (JSON or TSV)")
        p.add_argument("--format", choices=("json", "tsv"), help="input format override")
    p.add_argument("--out", help="output file (default: stdout)")


def _load(args) -> "ChainGraph":
    return load_graph(args.input, fmt=getattr(args, "format", None))


def build_parser() -> _Parser:
    parser = _Parser(prog="metachain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="structural and assumption checks")
    _add_io(p)

    p = sub.add_parser("alg1", help="single-min-arc sweep report")
    _add_io(p)
    p.add_argument("--stop", default="bucket-empty")
    p.add_argument("--tie-break", choices=("lex", "revlex"), default="lex")

    p = sub.add_parser("alg2", help="simultaneous-release sweep report")
    _add_io(p)
    p.add_argument("--stop", default="bucket-empty")

    p = sub.add_parser("wgraphs", help="optimal in-forests extracted from the sweep")
    _add_io(p)
    p.add_argument("--m", type=int, action="append", help="sink count (repeatable; default all)")

    p = sub.add_parser("eigs", help="numerical spectrum and asymptotic estimates")
    _add_io(p)
    p.add_argument("--epsilon", type=float, action="append", required=True)

    p = sub.add_parser("oracle", help="enumeration oracle, coefficient identity, spectra")
    _add_io(p)
    p.add_argument("--epsilon", type=float, action="append")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    p = sub.add_parser("compare", help="cross-check both sweeps (exit 2 on violation)")
    _add_io(p)
    p.add_argument("--tie-break", choices=("lex", "revlex"), default="lex")

    p = sub.add_parser("kmc", help="kinetic Monte Carlo census; without --horizon, a coverage sweep")
    _add_io(p)
    p.add_argument("--epsilon", type=float, action="append", required=True)
    p.add_argument("--x0", required=True, help="start state")
    p.add_argument("--horizon", type=float, help="omit for a sweep over every --epsilon")
    p.add_argument("--n", type=int, default=100, help="trajectory count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", help="t_lo:t_hi (default 0:horizon)")
    p.add_argument("--tgraph", type=int, help="window index p; census vs that T-graph")
    p.add_argument("--csv", help="also write the census as CSV to this path")

    p = sub.add_parser("kinesin-sweep", help="switch-exponent sweep of the motor model")
    p.add_argument("--grid", help="start:stop:step, inclusive rational grid")
    p.add_argument("--zeta", action="append", help="explicit grid value (repeatable)")
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("export-dot", help="Graphviz DOT text")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="graph file (JSON or TSV)")
    source.add_argument("--demo", action="store_true", help="use the built-in example instead of --input")
    p.add_argument("--format", choices=("json", "tsv"), help="input format override")
    p.add_argument("--out", help="output file (default: stdout)")
    return parser


def _cmd_validate(args) -> int:
    report = validate(_load(args))
    _emit(dump_json(report.to_json_dict()), args.out)
    report.require_one_closed_class()
    return 0


def _cmd_alg1(args) -> int:
    report = run_algorithm1(_load(args), stop=_parse_stop(args.stop), tie_break=args.tie_break)
    _emit(dump_json(report.to_json_dict()), args.out)
    return 0


def _cmd_alg2(args) -> int:
    report = run_algorithm2(_load(args), stop=_parse_stop(args.stop))
    _emit(dump_json(report.to_json_dict()), args.out)
    return 0


def _cmd_wgraphs(args) -> int:
    g = _load(args)
    report = run_algorithm1(g)
    ms = args.m if args.m else list(range(1, g.n))
    doc = {
        "schema": 1,
        "kind": "wgraph-extraction",
        "wgraphs": {str(m): extract_wgraph(report, m).to_json_dict() for m in sorted(ms)},
    }
    _emit(dump_json(doc), args.out)
    return 0


def _cmd_eigs(args) -> int:
    g = _load(args)
    rows = []
    report = run_algorithm1(g)
    for eps in args.epsilon:
        eigs = numerical_eigenvalues(generator_matrix(g, eps))
        row = {
            "epsilon": eps,
            "eigenvalues": [[float(z.real), float(z.imag)] for z in eigs],
        }
        try:
            row["estimate"] = eigenvalue_estimates(report, eps).to_json_dict()
        except SymmetryError as exc:
            row["estimate"] = None
            row["estimate_unavailable"] = str(exc)
        rows.append(row)
    _emit(dump_json({"schema": 1, "kind": "spectra", "rows": rows}), args.out)
    return 0


def _cmd_oracle(args) -> int:
    g = _load(args)
    epsilons = args.epsilon or [0.3]
    cap = args.oracle_cap
    per_m = enumerate_all_optimal(g, cap=cap)
    doc = {
        "schema": 1,
        "kind": "oracle-report",
        "optima": {
            str(m): {
                "unique": unique,
                "wgraphs": [w.to_json_dict() for w in graphs],
            }
            for m, (graphs, unique) in per_m.items()
        },
        "charpoly": [charpoly_identity_check(g, eps, cap=cap).to_json_dict() for eps in epsilons],
    }
    try:
        report = run_algorithm1(g)
        rows = compare_spectrum(g, report, epsilons)
        doc["spectral"] = [r.to_json_dict() for r in rows]
    except (SymmetryError, ValidationFailure) as exc:
        doc["spectral"] = None
        doc["spectral_unavailable"] = str(exc)
    _emit(dump_json(doc), args.out)
    return 0


def _cmd_compare(args) -> int:
    report = compare_alg1_alg2(_load(args), tie_break=args.tie_break)
    _emit(dump_json(report.to_json_dict()), args.out)
    if not report.ok:
        print("comparison failed: sweep consistency statements violated", file=sys.stderr)
        return 2
    return 0


def _parse_window(spec: str) -> tuple:
    """The ``--window`` value ``t_lo:t_hi`` as two floats."""
    lo, sep, hi = spec.partition(":")
    try:
        if sep:
            return float(lo), float(hi)
    except ValueError:
        pass
    raise GraphError(f"--window must be t_lo:t_hi, two numbers, got {spec!r}")


def _tgraph(g, p: int):
    tgraphs = run_algorithm2(g).tgraphs
    if not (0 <= p < len(tgraphs)):
        raise GraphError(f"window index {p} out of range; the run has {len(tgraphs)} transition graphs")
    return tgraphs[p]


def _cmd_kmc(args) -> int:
    if args.horizon is None:
        return _kmc_sweep(args)
    if len(args.epsilon) > 1:
        raise GraphError(f"kmc takes one --epsilon with --horizon, got {len(args.epsilon)}")
    g = _load(args)
    eps = args.epsilon[0]
    x0 = parse_state(args.x0)
    # refuse a bad --window or --tgraph before simulating; the default window
    # is valid whenever the horizon is, and simulate_ensemble checks that
    window = _check_window(_parse_window(args.window)) if args.window else (0.0, args.horizon)
    tgraph = None if args.tgraph is None else _tgraph(g, args.tgraph)
    trajs = simulate_ensemble(g, eps, x0, args.horizon, args.n, args.seed)
    if tgraph is not None:
        cov = census_vs_tgraph(trajs, tgraph, window)
        doc = cov.to_json_dict()
        cen = cov.census
    else:
        cen = census(trajs, window)
        doc = cen.to_json_dict()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(cen.to_csv())
    _emit(dump_json(doc), args.out)
    return 0


def _kmc_sweep(args) -> int:
    """Coverage of T-graph p at the i-th epsilon over (0, exp(theta_p / eps)],
    from seed + i: the jumps should concentrate on it as epsilon shrinks."""
    if args.tgraph is None:
        raise GraphError("kmc needs --horizon, or --tgraph for a coverage sweep")
    if args.window or args.csv:
        raise GraphError("--window and --csv need --horizon")
    g = _load(args)
    x0 = parse_state(args.x0)
    tgraph = _tgraph(g, args.tgraph)
    horizons = []  # every epsilon and horizon is checked before the first ensemble
    for eps in args.epsilon:
        try:
            horizons.append(math.exp(float(tgraph.threshold) / check_epsilon(eps)))
        except OverflowError:
            raise GraphError(f"horizon exp({tgraph.threshold}/{eps!r}) is too large for a float") from None
    points = []
    for i, (eps, horizon) in enumerate(zip(args.epsilon, horizons)):
        trajs = simulate_ensemble(g, eps, x0, horizon, args.n, args.seed + i)
        rep = census_vs_tgraph(trajs, tgraph, (0.0, horizon))
        points.append({"epsilon": eps, "horizon": horizon, **rep.to_json_dict()})
    doc = {"schema": 1, "kind": "kmc-coverage-sweep", "tgraph_index": args.tgraph,
           "threshold": str(tgraph.threshold), "trajectories": args.n, "seed": args.seed, "points": points}
    _emit(dump_json(doc), args.out)
    return 0


def _cmd_kinesin_sweep(args) -> int:
    grid: list = []
    if args.grid:
        grid.extend(parse_grid(args.grid))
    for z in args.zeta or ():
        grid.append(parse_rational(z))
    if not grid:
        raise GraphError("kinesin-sweep needs --grid or at least one --zeta")
    grid = sorted(set(grid))
    result = kinesin_sweep(grid)
    _emit(dump_json(result.to_json_dict()), args.out)
    return 0


def _cmd_export_dot(args) -> int:
    if args.demo and args.format:
        raise GraphError("--format applies to an --input file, not to --demo")
    g = nested_cycle_chain() if args.demo else _load(args)
    closed = closed_communicating_classes(g)
    _emit(export_dot(g, closed_classes=closed.nontrivial, absorbing=closed.absorbing), args.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "alg1": _cmd_alg1,
    "alg2": _cmd_alg2,
    "wgraphs": _cmd_wgraphs,
    "eigs": _cmd_eigs,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
    "kmc": _cmd_kmc,
    "kinesin-sweep": _cmd_kinesin_sweep,
    "export-dot": _cmd_export_dot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InternalInvariantError as exc:
        print(f"internal invariant violated (this is a bug): {exc}", file=sys.stderr)
        return 2
    except (
        GraphError,
        ValidationFailure,
        SymmetryError,
        EnumerationCapError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else, RecursionError and MemoryError included
        print(f"internal error (this is a bug): {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
