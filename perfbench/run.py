"""Run one benchmark workload against the drfeas sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The runner pins BLAS and OpenMP to one thread, writes the seed's problem
documents, and starts each measurement in a fresh worker process (see
worker.py). With --trace 0 it times set-up in several fresh processes and
then runs a closed loop of jobs for S seconds, printing the end-to-end
metrics. With --trace 1 it alternates untraced jobs and jobs with every
layer wrapped (see tracing.py) for S seconds, printing the per-layer
metrics. The last line of standard output is one JSON object; the lines
above it repeat the figures for a reader. Metric names and units come from
BENCHMARK.json; README.md in this directory defines each one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
WORKLOADS = ("wide_mixed", "narrow_random_block", "operator_checks")
SETUP_SAMPLES = 5  # fresh processes whose set-up is timed, the measuring one included
COVERAGE_TOL = 0.02  # program layers' self times must cover the traced job this closely
# A run ends within SETUP_BUDGET_S + 2 * --seconds: room for the set-ups and
# the last job started before the loop's time is up (170 s at --seconds 30).
SETUP_BUDGET_S = 110.0


def summary(values: list[float], what: str) -> str:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median of {n} {what}"
    if n > 10:
        text += f", p{100.0 * (n - 10) / n:.1f} {ordered[n - 11]!r}"
    return text


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": THREAD_PINS,
    }


class Workers:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, args, workdir: Path, started: float) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = started + SETUP_BUDGET_S + 2.0 * args.seconds
        self.count = 0

    def run(self, mode: str, seconds: float = 0.0, spans=None) -> dict:
        self.count += 1
        out = self.workdir / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workdir", str(self.workdir), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode, "--seconds", str(seconds),
               "--out", str(out)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = max(1.0, self.deadline - time.monotonic())
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=timeout)
        return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict]:
    """Timings scaled to the reference speed (see worker.Stopwatch)."""
    jobs = main["jobs"]
    job_s = [j["scaled_job_s"] for j in jobs]
    solve_s = [j["scaled_solve_s"] for j in jobs]
    setup_s = [w["scaled_setup_s"] for w in setups]
    values = {
        "job_s": statistics.median(job_s),
        "solve_s": statistics.median(solve_s),
        "iters_per_s": statistics.median(j["iterations"] / t for j, t in zip(jobs, solve_s)),
        "pairs_per_s": statistics.median(j["iterations"] / t for j, t in zip(jobs, job_s)),
        "iterations": statistics.median_low(j["iterations"] for j in jobs),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": main["peak_rss_mb"],
    }

    def wall(samples: list[dict], key: str) -> str:
        return f"wall-clock median {statistics.median(w[key] for w in samples)!r} s"

    notes = {
        "job_s": f"{summary(job_s, 'jobs')}; {wall(jobs, 'job_s')}",
        "solve_s": f"{summary(solve_s, 'jobs')}; {wall(jobs, 'solve_s')}",
        "setup_s": f"{summary(setup_s, 'processes')}; {wall(setups, 'setup_s')}",
    }
    return values, notes


# per_layer metric -> (span name, field) of the per-job totals in tracing.py
SPAN_METRICS = {
    "solver.residual_calls": ("solver.residual", "calls"),
    "solver.residual_s": ("solver.residual", "incl_s"),
    "solver.loop_self_s": ("solver.execute", "self_s"),
    "solver.window_ops_built": ("operators.dr_operator", "calls"),
    "problem_io.load_s": ("problem_io.load", "incl_s"),
    "problem_io.format_trace_s": ("problem_io.format_trace", "incl_s"),
    "problem_io.write_s": ("problem_io.write", "self_s"),
    "space.points_built": ("space.point", "calls"),
    "space.point_s": ("space.point", "incl_s"),
    "operators.apply_calls": ("operators.apply", "calls"),
    "operators.apply_s": ("operators.apply", "incl_s"),
    "convex.distance_calls": ("convex.distance", "calls"),
    "convex.distance_s": ("convex.distance", "incl_s"),
    "convex.set_build_s": ("convex.set_build", "incl_s"),
    "control.window_calls": ("control.window", "calls"),
    "control.window_s": ("control.window", "incl_s"),
    "diagnostics.check_self_s": ("diagnostics.check", "self_s"),
}


def per_layer(run: dict, workload: str) -> tuple[dict, dict]:
    from tracing import LAYERS

    layers = run["layers"]

    def field(span: str, key: str) -> float:
        return layers.get(span, {}).get(key, 0.0)

    values = {metric: field(*where) for metric, where in SPAN_METRICS.items()}
    jobs = [j for j in run["jobs"] if j["traced"]]
    plain_jobs = [j for j in run["jobs"] if not j["traced"]]
    values["problem_io.trace_bytes"] = statistics.median(j["trace_bytes"] for j in jobs)
    values["diagnostics.pairs"] = (
        statistics.median(j["iterations"] for j in jobs) if workload == "operator_checks" else 0
    )
    values["control.cover_index_s"] = run["setup_layers"].get(
        "control.cover_index", {}).get("incl_s", 0.0)
    traced_job_s = statistics.median(j["job_s"] for j in jobs)
    values["trace.job_s"] = traced_job_s
    values["trace.overhead_ratio"] = statistics.median(
        t["job_s"] / p["job_s"] for p, t in zip(plain_jobs, jobs))
    for layer in LAYERS + ("bench",):
        values[f"{layer}.self_s"] = sum(
            t["self_s"] for name, t in layers.items() if name.split(".")[0] == layer)
    root_s = field("bench.job", "incl_s")
    values["trace.layer_coverage"] = sum(values[f"{layer}.self_s"] for layer in LAYERS) / root_s
    notes = {
        "trace.job_s": summary([j["job_s"] for j in jobs], "traced jobs"),
        "trace.overhead_ratio": f"median over {len(jobs)} pairs of untraced and traced jobs",
        "control.cover_index_s": "per set-up, the only phase that calls it",
    }
    return values, notes


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        ap.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "drfeas" / "__init__.py").is_file():
        print(f"error: no drfeas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.environ.update(THREAD_PINS)  # before numpy loads here and in every worker
    from workloads import write_documents

    workdir = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = RUNS / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workdir.mkdir(parents=True)
        write_documents(args.workload, args.seed, workdir)
        workers = Workers(args, workdir, started)
        if args.trace:
            run = workers.run("traced", args.seconds, spans=out_dir / f"{args.workload}.spans.npz")
            values, notes = per_layer(run, args.workload)
            jobs = run["jobs"]
            digests = run["digests"]
        else:
            setups = [workers.run("setup") for _ in range(SETUP_SAMPLES - 1)]
            main_run = workers.run("untraced", args.seconds)
            values, notes = end_to_end(main_run, setups + [main_run])
            jobs = main_run["jobs"]
            digests = main_run["digests"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    problems = [p for j in jobs for p in j["problems"]]
    failed = sum(1 for j in jobs if j["problems"])
    if args.trace and abs(values["trace.layer_coverage"] - 1.0) > COVERAGE_TOL:
        problems.append(f"layer self times cover {values['trace.layer_coverage']:.4f} "
                        f"of the traced job, outside 1 +- {COVERAGE_TOL}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "metrics": metrics,
        "notes": notes, "digests": digests, "attempted": len(jobs), "failed": failed,
        "problems": problems[:50],
    }
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    env = record["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}, BLAS/OpenMP threads pinned to 1")
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one client, "
          f"{len(jobs)} jobs")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {m['value']!r} {m['unit']}{note}")
    print(f"  failed_frac = {failed}/{len(jobs)} = {failed / len(jobs)!r}")
    for name, digest in digests.items():
        print(f"  sha256 {name}: {digest}")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
