"""One workload process: set-up, then a closed loop of jobs with one client.

run.py starts one per measurement, with the thread pins in its environment;
as a process of its own, the peak memory it reports is the workload's own.
Each job starts after the previous one has been checked; checks, digests
and the reference kernel run outside the timed regions.

    python3 perfbench/worker.py --root DIR --workdir DIR --workload NAME \
        --seed N --mode setup|untraced|traced --seconds S --out FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer, per_root_totals
from verify import SolveCase, check_reports, check_solve
from workloads import CHECK_DIMS, WORKLOADS, point_path


class Program:
    """The library entry points the benchmark calls, traced or not."""

    def __init__(self, tracer: Tracer | None) -> None:
        from drfeas import control, problem_io, repro

        calls = {
            "load_document": ("problem_io.load", problem_io.load_document),
            "execute_config": ("solver.execute", problem_io.execute_config),
            "write_trace": ("problem_io.write", problem_io.write_trace),
            "cover_index": ("control.cover_index", control.cover_index),
            "operator_class_reports": ("diagnostics.suite", repro.operator_class_reports),
        }
        for attr, (span, fn) in calls.items():
            setattr(self, attr, tracer.wrap(span, fn) if tracer else fn)
        self.catalog_sets = repro.catalog_sets
        self.format_reports = problem_io.format_reports


def set_up(program: Program, docs: list[Path]) -> None:
    """Build every problem of the workload once, as a user would before a run."""
    for doc in docs:
        _, config = program.load_document(doc)
        program.cover_index(config.control)
    if not docs:
        for dim in CHECK_DIMS:
            program.catalog_sets(dim)


# Nominal duration of reference_kernel: end-to-end times are reported in
# seconds of a machine on which the kernel takes this long.
REFERENCE_S = 0.05


def reference_kernel() -> float:
    """Time a fixed piece of work that does not touch drfeas.

    It mixes interpreter arithmetic, small numpy calls and float formatting,
    the kinds of work the workloads spend their time on, so its time tracks
    how fast the shared machine runs them at that moment.
    """
    t = perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    x = np.arange(8.0)
    for _ in range(5_000):
        y = np.array(x, dtype=float)
        s += float(np.dot(y, x)) + bool(np.all(np.isfinite(y)))
    ",".join([repr(i * 0.1234567) for i in range(20_000)])
    return perf_counter() - t


class Stopwatch:
    """Sums the times of a job's steps, as measured and scaled.

    When calibrating, reference_kernel runs after every step, outside the
    timed region, and a step's scaled time is its wall time times
    REFERENCE_S over the mean of the kernel times just before and after it.
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.ref = reference_kernel() if calibrate else REFERENCE_S
        self.job: dict[str, float] = {}

    def new_job(self) -> dict[str, float]:
        self.job = dict.fromkeys(("job_s", "solve_s", "scaled_job_s", "scaled_solve_s"), 0.0)
        return self.job

    def step(self, total_s: float, solve_s: float) -> None:
        ref = reference_kernel() if self.calibrate else REFERENCE_S
        scale = 2.0 * REFERENCE_S / (self.ref + ref)
        self.ref = ref
        self.job["job_s"] += total_s
        self.job["solve_s"] += solve_s
        self.job["scaled_job_s"] += total_s * scale
        self.job["scaled_solve_s"] += solve_s * scale


def solve_job(program: Program, docs: list[Path], trace_dir: Path, watch: Stopwatch):
    """load_document -> execute_config -> write_trace per document, as
    `drfeas batch` does, timing each document as one step. Returns, per
    document, the terminal status, iteration count and final iterate."""
    outcomes = []
    for doc in docs:
        t0 = perf_counter()
        problem, config = program.load_document(doc)
        t1 = perf_counter()
        trace = program.execute_config(problem, config)
        t2 = perf_counter()
        program.write_trace(trace, problem.dim, trace_dir / f"{doc.stem}.trace.csv")
        t3 = perf_counter()
        outcomes.append((trace.terminal_status, trace.iterations, trace.final.iterate.coords))
        watch.step(t3 - t0, t2 - t1)
    return outcomes


def checks_job(program: Program, seed: int, watch: Stopwatch):
    """The AC-1 suite, one dimension per step: the same 45 reports, in the
    same order, as one call of operator_class_reports over all dimensions."""
    reports = []
    for dim in CHECK_DIMS:
        t = perf_counter()
        reports += program.operator_class_reports(dims=(dim,), seed=seed)
        elapsed = perf_counter() - t
        watch.step(elapsed, elapsed)
    return reports


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_job(program: Program, out, cases, trace_dir: Path, digests: dict) -> dict:
    """Check one job's outputs and digest them; runs outside the timed region."""
    problems, items, trace_bytes = [], 0, 0
    if cases:
        for case, (status, iterations, final) in zip(cases, out):
            data = (trace_dir / f"{case.name}.trace.csv").read_bytes()
            problems += check_solve(case, status, iterations, final, data)
            digest = _sha256(data)
            if digests.setdefault(case.name, digest) != digest:
                problems.append(f"{case.name}: trace bytes changed between jobs")
            items += iterations
            trace_bytes += len(data)
    else:
        problems += check_reports(out)
        digest = _sha256(program.format_reports(out).encode("utf-8"))
        if digests.setdefault("reports", digest) != digest:
            problems.append("report table changed between jobs")
        items = sum(rep.samples for rep in out)
    return {"iterations": items, "trace_bytes": trace_bytes, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    docs = sorted(args.workdir.glob("doc_*.json"))
    trace_dir = args.workdir / f"traces-{args.mode}"
    trace_dir.mkdir(exist_ok=True)

    sys.path.insert(0, str(args.root / "src"))
    ref_before = reference_kernel()
    t0 = perf_counter()
    import drfeas  # noqa: F401  (the import is part of the timed set-up)

    tracer = Tracer() if args.mode == "traced" else None
    plain = Program(None)
    if tracer is None:
        set_up(plain, docs)
    else:
        tracer.prepare()
        tracer.patch(True)
        tracer.wrap("bench.setup", set_up)(Program(tracer), docs)
    setup_s = perf_counter() - t0
    scale = 2.0 * REFERENCE_S / (ref_before + reference_kernel())
    result = {"setup_s": setup_s, "scaled_setup_s": setup_s * scale}

    if args.mode != "setup":
        cases = [SolveCase.from_files(doc, point_path(doc)) for doc in docs]

        def run_job(program: Program, watch: Stopwatch):
            if docs:
                return solve_job(program, docs, trace_dir, watch)
            return checks_job(program, args.seed, watch)

        # A traced run alternates untraced and traced jobs, so that both
        # halves of the overhead ratio see the same machine load. Traced
        # jobs run no reference kernel inside their root span.
        variants = [(False, plain, run_job, Stopwatch(calibrate=True))]
        if tracer is not None:
            variants.append((True, Program(tracer), tracer.wrap("bench.job", run_job),
                             Stopwatch(calibrate=False)))
        jobs, digests = [], {}
        start = perf_counter()
        while not jobs or perf_counter() - start < args.seconds:
            for traced, program, job, watch in variants:
                if tracer is not None:
                    tracer.patch(traced)
                times = watch.new_job()
                out = job(program, watch)
                record = check_job(plain, out, cases, trace_dir, digests)
                jobs.append(dict(record, **times, traced=traced))
        result.update(jobs=jobs, digests=digests,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if tracer is not None:
        tracer.patch(False)
        result["layers"] = per_root_totals(tracer, "bench.job")
        result["setup_layers"] = per_root_totals(tracer, "bench.setup")
        if args.spans is not None:
            np.savez(args.spans, spans=tracer.spans(), names=np.array(tracer.names))
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
