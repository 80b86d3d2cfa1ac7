"""Command-line harness: run problem documents, check operator properties,
reproduce the bundled experiments, and batch directories of problems.

Exit codes: 0 converged / all checks pass, 1 not converged (including a run
stopped by a non-finite iterate) / a check failed, 2 malformed input or I/O
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .control import InvalidControl
from .convex import InvalidSet
from .diagnostics import CheckParameterError
from .operators import DrOperator, Projection, Reflection, composite_reflection
from .problem_io import (
    ParseError,
    execute_config,
    format_reports,
    load_document,
    write_trace,
)
from .repro import EXPERIMENTS, run_check_suite, run_experiment
from .solver import CONVERGED_DISPLACEMENT, FEASIBLE, build_composite_Q
from .space import DimensionMismatch

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_INPUT_ERROR = 2

CONVERGED_STATUSES = (CONVERGED_DISPLACEMENT, FEASIBLE)


def _run_document(path: Path, trace_path: Path | None) -> tuple[str, Path, int]:
    """Run the scheme of one document and write its trace, by default to the
    document's trace_path or <document>.trace.csv. Returns the status text,
    the trace path and the exit code."""
    problem, config = load_document(path)
    if config is None:
        raise ParseError(f"{path}: document has no 'scheme'; nothing to run")
    trace_path = Path(trace_path or config.trace_path or path.with_suffix(".trace.csv"))
    trace = execute_config(problem, config)
    write_trace(trace, problem.dim, trace_path)
    status = (
        f"status={trace.terminal_status} iterations={trace.iterations} "
        f"final_max_set_distance={trace.final.max_set_distance!r}"
    )
    converged = trace.terminal_status in CONVERGED_STATUSES
    return status, trace_path, EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_run(args) -> int:
    status, trace_path, code = _run_document(args.problem, args.trace)
    print(status)
    print(f"trace written to {trace_path}")
    return code


def _check_suite(problem, config):
    """Every operator a config would construct, as (label, operator, firm)
    triples: firm for projections and DR operators, whose strongest checkable
    property is firm nonexpansiveness, else plain nonexpansiveness."""
    suite = []
    for i, c in enumerate(problem.sets):
        suite.append((f"P(C{i + 1})", Projection(c), True))
        suite.append((f"R(C{i + 1})", Reflection(c), False))
    if config is None:
        return suite
    if config.scheme in ("unrestricted_dr", "composite_q"):
        Q = build_composite_Q(problem, config.control, config.r)  # S_0, ..., S_jf
        for n, S in enumerate(Q.factors):
            suite.append((f"S{n}", S, True))
            suite.append((f"V{n}", composite_reflection(S.sets), False))
        if config.scheme == "composite_q":
            suite.append(("Q", Q, False))
    else:
        for k, op in enumerate(config.operators):
            suite.append((f"T{k + 1}", op, isinstance(op, (Projection, DrOperator))))
    if config.certifier is not None:
        suite.append(("certifier", config.certifier, False))
    return suite


def cmd_check(args) -> int:
    problem, config = load_document(args.problem)
    scale = args.scale if args.scale is not None else problem.sampling_scale()
    reports = run_check_suite(_check_suite(problem, config), args.samples, scale, args.seed)
    table = format_reports(reports)
    print(table, end="")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} property reports pass")
    return EXIT_OK if not failed else EXIT_NOT_CONVERGED


def cmd_repro(args) -> int:
    ok = run_experiment(args.ac_id, args.trace_dir)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_batch(args) -> int:
    if not args.directory.is_dir():
        raise ParseError(f"{args.directory} is not a directory")
    paths = sorted(args.directory.glob("*.json"))
    if not paths:
        raise ParseError(f"no *.json problem documents in {args.directory}")
    out_dir = args.out_dir or args.directory
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for path in paths:
        status, _, code = _run_document(path, out_dir / (path.stem + ".trace.csv"))
        worst = max(worst, code)
        print(f"{path.name}: {status}")
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drfeas",
        description="Douglas-Rachford feasibility runs, property checks, and "
        "bundled experiment reproductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the scheme a problem document describes")
    p_run.add_argument("problem", type=Path, help="problem document (JSON)")
    p_run.add_argument("--trace", type=Path, default=None,
                       help="trace output path (default: <problem>.trace.csv)")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser(
        "check", help="sampled operator-property checks for a problem document"
    )
    p_check.add_argument("problem", type=Path)
    p_check.add_argument("--samples", type=int, default=1000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--scale", type=float, default=None,
                         help="sampling half-width (default: 4x problem magnitude)")
    p_check.add_argument("--out", type=Path, default=None,
                         help="also write the report table to this path")
    p_check.set_defaults(fn=cmd_check)

    p_repro = sub.add_parser("repro", help="reproduce a bundled experiment")
    p_repro.add_argument("ac_id", metavar="AC-ID",
                         help=f"one of {', '.join(EXPERIMENTS)}")
    p_repro.add_argument("--trace-dir", type=Path, default=None,
                         help="write run traces into this directory")
    p_repro.set_defaults(fn=cmd_repro)

    p_batch = sub.add_parser("batch", help="run every *.json document in a directory")
    p_batch.add_argument("directory", type=Path)
    p_batch.add_argument("--out-dir", type=Path, default=None,
                         help="directory for trace files (default: alongside inputs)")
    p_batch.set_defaults(fn=cmd_batch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, InvalidSet, InvalidControl, DimensionMismatch,
            CheckParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
