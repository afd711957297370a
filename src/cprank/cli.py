"""Command-line interface.

Subcommands: ``analyze`` (full cascade), ``factor`` (certificate only),
``nnq`` (witness search), ``rays`` (extreme-ray report), ``graph``
(pattern conditions), ``gen`` (bundled and random matrices).  Exit codes:
0 for a definitive answer, 2 for an inconclusive one, 1 for errors.
"""

from __future__ import annotations

import argparse
import sys

from . import cones, fixtures, graphcond, nnq, pipeline
from .errors import CprankError
from .matcore import DEFAULT_TOL, Tolerances, classify_dn

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cprank",
        description="Analyze symmetric nonnegative matrices for complete positivity "
        "with cp-rank equal to rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="matrix file to read")
    common.add_argument("--format", choices=("dense", "csv"), default="dense",
                        help="matrix file format (default: dense)")
    common.add_argument("--report", choices=("json", "text"), default="text",
                        help="report rendering (default: text)")
    common.add_argument("--seed", type=int, default=0, help="seed for rotation searches")
    common.add_argument("--restarts", type=int, default=200,
                        help="restart budget for rotation searches")
    common.add_argument("--tol-psd", type=float, default=None,
                        help="relative eigenvalue slack for the PSD decision")
    common.add_argument("--tol-rank", type=float, default=None,
                        help="relative eigenvalue threshold for counting the rank")
    common.add_argument("--tol-nonneg", type=float, default=None,
                        help="entrywise nonnegativity slack, relative to the largest entry")
    common.add_argument("--tol-residual", type=float, default=None,
                        help="relative residual bound for certificates")
    common.add_argument("--heuristic", action="store_true",
                        help="attempt rotation certificates for rank 5 and up")

    sub.add_parser("analyze", parents=[common], help="run the full decision cascade")
    sub.add_parser("factor", parents=[common], help="report only the certificate")
    sub.add_parser("nnq", parents=[common], help="search for a nonnegative-equivalence witness")
    sub.add_parser("rays", parents=[common], help="extreme rays of the column cone")
    sub.add_parser("graph", parents=[common], help="zero-pattern graph conditions")

    gen = sub.add_parser("gen", help="emit a bundled or random matrix")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", choices=fixtures.EXAMPLE_IDS, help="bundled matrix id")
    src.add_argument("--random", choices=fixtures.RANDOM_STYLES, help="random instance style")
    gen.add_argument("--n", type=int, default=5, help="order for random instances")
    gen.add_argument("--rank", type=int, default=3, help="rank for random instances")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("dense", "csv"), default="dense")
    return parser


def _tolerances(args: argparse.Namespace) -> Tolerances:
    kwargs = {}
    if args.tol_psd is not None:
        kwargs["eps_psd"] = args.tol_psd
    if args.tol_rank is not None:
        kwargs["eps_rank"] = args.tol_rank
    if args.tol_nonneg is not None:
        kwargs["eps_nonneg"] = args.tol_nonneg
    if args.tol_residual is not None:
        kwargs["eps_residual"] = args.tol_residual
    return Tolerances(**kwargs) if kwargs else DEFAULT_TOL


def _config(args: argparse.Namespace) -> pipeline.AnalysisConfig:
    return pipeline.AnalysisConfig(
        tol=_tolerances(args),
        seed=args.seed,
        restarts=args.restarts,
        heuristic=args.heuristic,
    )


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_analyze(args) -> int:
    S = pipeline.read_matrix(args.input, args.format, _tolerances(args))
    report = pipeline.analyze(S, _config(args))
    sys.stdout.write(pipeline.write_report(report, args.report).decode("utf-8"))
    return 2 if report.verdict == pipeline.UNDECIDED else 0


def _cmd_factor(args) -> int:
    S = pipeline.read_matrix(args.input, args.format, _tolerances(args))
    report = pipeline.analyze(S, _config(args))
    cert = report.certificate
    if args.report == "json":
        doc = {"verdict": report.verdict}
        if cert is not None:
            doc["certificate"] = {
                "rows": cert.rows,
                "method": cert.method_tag,
                "residual": cert.residual,
                "entries": cert.C,
            }
        _emit(pipeline._json_value(doc))
    else:
        if cert is None:
            _emit(f"verdict {report.verdict}: no certificate")
        else:
            _emit(
                f"verdict {report.verdict}: {cert.rows} rows via {cert.method_tag}, "
                f"residual {cert.residual:.3e}\n"
                + "\n".join("  ".join(f"{v: .6f}" for v in row) for row in cert.C)
            )
    return 0 if cert is not None else 2


def _cmd_nnq(args) -> int:
    tol = _tolerances(args)
    S = pipeline.read_matrix(args.input, args.format, tol)
    result = nnq.is_nnq_gram(S, tol)
    if args.report == "json":
        doc = {"status": result.status}
        if result.found:
            doc["indices"] = [i + 1 for i in result.witness.indices]
            doc["det"] = result.witness.detval
            doc["P"] = result.witness.P
        _emit(pipeline._json_value(doc))
    else:
        if result.found:
            idx = ",".join(str(i + 1) for i in result.witness.indices)
            det = result.witness.detval
            _emit(f"FOUND basis columns ({idx}), det "
                  + (f"{det:.6g}" if det is not None else "outside the float range"))
        else:
            _emit(result.status)
    return 0


def _cmd_rays(args) -> int:
    tol = _tolerances(args)
    S = pipeline.read_matrix(args.input, args.format, tol)
    report = cones.extreme_rays(S, tol)
    if args.report == "json":
        _emit(pipeline._json_value({
            "m": report.m,
            "extreme_indices": [i + 1 for i in report.extreme_indices],
            "residual": report.residual,
            "W": report.W,
        }))
    else:
        idx = ",".join(str(i + 1) for i in report.extreme_indices)
        _emit(f"{report.m} extreme rays at columns ({idx}); reconstruction residual "
              f"{report.residual:.3e}")
    return 0


def _cmd_graph(args) -> int:
    tol = _tolerances(args)
    S = pipeline.read_matrix(args.input, args.format, tol)
    shape = graphcond.classify_graph(S, tol)
    cycle = graphcond.cycle_necessary(S, tol)
    tri = graphcond.triangle_free_criterion(S, tol)
    kay = graphcond.kaykobad_factor(S, tol)
    doc = {
        "n": S.n,
        "edge_count": len(shape.edges),
        "edges": [[i + 1, j + 1] for i, j in shape.edges],
        "is_cycle": shape.is_cycle,
        "is_triangle_free": shape.is_triangle_free,
        "is_tree": shape.is_tree,
        "is_connected": shape.is_connected,
        "dn": classify_dn(S, tol).status,
        "cycle_check": {"status": cycle.status, "cprk_lower_bound": cycle.cprk_lower_bound,
                        "off_diag_sum": cycle.off_diag_sum, "diag_sum": cycle.diag_sum},
        "triangle_free_criterion": {"status": tri.status, "cp_rank": tri.cp_rank},
        "kaykobad_rows": None if kay is None else kay.rows,
    }
    if args.report == "json":
        _emit(pipeline._json_value(doc))
    else:
        for key, value in doc.items():
            _emit(f"{key}: {value}")
    return 0


def _cmd_gen(args) -> int:
    if args.fixture:
        S = fixtures.example_matrix(args.fixture)
    else:
        S = fixtures.random_dn(args.n, args.rank, seed=args.seed, style=args.random)
    sys.stdout.write(pipeline.matrix_to_text(S, args.format))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "factor": _cmd_factor,
    "nnq": _cmd_nnq,
    "rays": _cmd_rays,
    "graph": _cmd_graph,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CprankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
