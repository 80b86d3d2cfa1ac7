"""Reproduction experiments behind the ``drfeas repro`` subcommand.

Each experiment AC-1..AC-6 is fully determined by a bundled problem document
(or, for AC-1, a fixed operator catalog) and prints one verdict line plus
supporting detail. Tolerances are fixed here and match the acceptance test
suite under tests/.
"""

from __future__ import annotations

import time
from importlib.resources import files

import numpy as np

from .control import Cyclic, RandomBlock, cover_index, is_quasi_periodic
from .convex import AffineSubspace, Ball, Box, ConvexSet, Halfspace, Hyperplane
from .diagnostics import (
    PropertyReport,
    check_firmly_nonexpansive,
    check_nonexpansive,
)
from .operators import Projection, composite_reflection, dr_operator
from .problem_io import execute_config, parse_document, write_trace
from .solver import (
    StopRule,
    build_S,
    build_composite_Q,
    run_unrestricted_dr,
    run_unrestricted_product,
)
from .space import Point, norm

FEAS_TOL = 1e-8
DISP_TOL = 1e-10


def bundled_document(name: str) -> str:
    return files("drfeas").joinpath("problems", name).read_text(encoding="utf-8")


def load_bundled(name: str):
    return parse_document(bundled_document(name))


def catalog_sets(dim: int) -> list[ConvexSet]:
    """One instance of every set kind in R^dim (dim >= 2)."""
    e1 = np.zeros(dim)
    e1[0] = 1.0
    normal = np.zeros(dim)
    normal[0], normal[-1] = 1.0, -1.0
    rows = np.zeros((2, dim))
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    return [
        Ball(0.3 * e1, 1.5),
        Halfspace(np.ones(dim), 1.0),
        Hyperplane(normal, 0.25),
        Box(-np.ones(dim), 0.5 * np.ones(dim)),
        AffineSubspace(rows, [0.2, -0.1]),
    ]


CATALOG_WINDOWS = [(1, 2), (3, 4), (5, 1), (1, 2, 3, 4, 5), (2, 2)]


def run_check_suite(suite, samples: int, scale: float, seed: int) -> list[PropertyReport]:
    """One report per (label, operator, firm) triple: firmly_nonexpansive[label]
    when firm, else nonexpansive[label]. `drfeas check` and AC-1 both run here."""
    return [
        check_firmly_nonexpansive(op, samples, scale, seed,
                                  name=f"firmly_nonexpansive[{label}]")
        if firm
        else check_nonexpansive(op, samples, scale, seed, name=f"nonexpansive[{label}]")
        for label, op, firm in suite
    ]


def operator_class_reports(
    dims=(2, 5, 50), samples: int = 1000, scale: float = 4.0, seed: int = 0
) -> list[PropertyReport]:
    """The AC-1 suite: projections and DR operators firmly nonexpansive,
    composite reflections nonexpansive, over the whole catalog."""
    suite = []
    for dim in dims:
        sets = catalog_sets(dim)
        suite += [(f"P(C{i + 1}),d={dim}", Projection(c), True) for i, c in enumerate(sets)]
        for w in CATALOG_WINDOWS:
            picked = [sets[i - 1] for i in w]
            wname = "".join(map(str, w))
            suite.append((f"T{wname},d={dim}", dr_operator(picked), True))
            suite.append((f"V{wname},d={dim}", composite_reflection(picked), False))
    return run_check_suite(suite, samples, scale, seed)


def repro_ac1(trace_dir=None) -> tuple[bool, list[str]]:
    t0 = time.perf_counter()
    reports = operator_class_reports()
    elapsed = time.perf_counter() - t0
    ok = all(rep.passed for rep in reports) and elapsed < 10.0
    lines = [
        f"  {rep.property_name}: worst={rep.worst_violation:.3e} "
        f"{'ok' if rep.passed else 'VIOLATED'}"
        for rep in reports
        if not rep.passed
    ]
    lines.append(f"  {len(reports)} reports, all pass: "
                 f"{all(r.passed for r in reports)}, elapsed {elapsed:.2f}s (< 10s)")
    return ok, lines


def _write(trace_dir, name, trace, dim):
    if trace_dir is not None:
        write_trace(trace, dim, f"{trace_dir}/{name}")


def repro_ac2(trace_dir=None) -> tuple[bool, list[str]]:
    problem, config = load_bundled("ac2_three_balls.json")
    trace = execute_config(problem, config)
    _write(trace_dir, "ac2.trace.csv", trace, problem.dim)
    final = trace.final
    ok = (
        trace.iterations <= 10_000
        and final.max_set_distance <= FEAS_TOL
        and final.displacement <= DISP_TOL
    )
    lines = [
        f"  status={trace.terminal_status} iters={trace.iterations} "
        f"max_dist={final.max_set_distance:.3e} tail_step={final.displacement:.3e}"
    ]
    return ok, lines


def repro_ac3(trace_dir=None) -> tuple[bool, list[str]]:
    ok = True
    lines = []
    for name in ("ac3_cyclic_three_balls.json", "ac3_halfspaces_r5.json"):
        problem, config = load_bundled(name)
        qp = is_quasi_periodic(config.control, config.control.m, horizon=10 * config.control.m)
        trace = execute_config(problem, config)
        _write(trace_dir, name.replace(".json", ".trace.csv"), trace, problem.dim)
        good = (
            qp
            and trace.iterations <= 10_000
            and trace.final.max_set_distance <= FEAS_TOL
        )
        ok = ok and good
        lines.append(
            f"  {name}: status={trace.terminal_status} iters={trace.iterations} "
            f"max_dist={trace.final.max_set_distance:.3e} M=m quasi-periodic={qp}"
        )
    return ok, lines


def repro_ac4(trace_dir=None) -> tuple[bool, list[str]]:
    problem, config = load_bundled("ac4_random_block_three_balls.json")
    ok = True
    lines = []
    for seed in (1, 2, 3, 4, 5):
        control = RandomBlock(3, 5, seed)
        trace = run_unrestricted_dr(
            problem, control, config.r,
            Point([5.0, 5.0]), config.stop,
        )
        _write(trace_dir, f"ac4_seed{seed}.trace.csv", trace, problem.dim)
        good = trace.final.max_set_distance <= FEAS_TOL
        ok = ok and good
        lines.append(
            f"  seed={seed}: status={trace.terminal_status} iters={trace.iterations} "
            f"max_dist={trace.final.max_set_distance:.3e}"
        )
    return ok, lines


def repro_ac5(trace_dir=None) -> tuple[bool, list[str]]:
    ok = True
    lines = []
    for name in ("ac5_interlaced_product.json", "ac5_product_with_q.json"):
        problem, config = load_bundled(name)
        trace = execute_config(problem, config)
        _write(trace_dir, name.replace(".json", ".trace.csv"), trace, problem.dim)
        good = trace.final.max_set_distance <= FEAS_TOL
        ok = ok and good
        lines.append(
            f"  {name}: status={trace.terminal_status} iters={trace.iterations} "
            f"max_dist={trace.final.max_set_distance:.3e}"
        )
    return ok, lines


def repro_ac6(trace_dir=None) -> tuple[bool, list[str]]:
    problem, config = load_bundled("ac2_three_balls.json")
    f, r = config.control, config.r
    jf = cover_index(f)
    p = problem.interior_point

    worst_fix = max(
        norm(build_S(problem, f, r, n).apply(p) - p) for n in range(jf + 1)
    )
    part_a = worst_fix <= 1e-10

    Q = build_composite_Q(problem, f, r)
    rng = np.random.default_rng(0)
    worst_dist = 0.0
    for _ in range(100):
        x = Point(rng.uniform(-10.0, 10.0, size=problem.dim))
        run = run_unrestricted_product(
            [Q], Cyclic(1), x, StopRule(100_000, 1e-12, 0.0)
        )
        worst_dist = max(worst_dist, problem.max_distance(run.final.iterate))
    part_b = worst_dist <= 1e-7

    lines = [
        f"  interior point fixed by S_0..S_{jf}: worst residual {worst_fix:.3e} (<= 1e-10)",
        f"  100 limits of Q from random starts: worst set distance {worst_dist:.3e} (<= 1e-7)",
    ]
    return part_a and part_b, lines


EXPERIMENTS = {
    "AC-1": repro_ac1,
    "AC-2": repro_ac2,
    "AC-3": repro_ac3,
    "AC-4": repro_ac4,
    "AC-5": repro_ac5,
    "AC-6": repro_ac6,
}


def run_experiment(ac_id: str, trace_dir=None) -> bool:
    """Run one experiment, print its verdict lines, return success."""
    fn = EXPERIMENTS.get(ac_id.upper())
    if fn is None:
        raise KeyError(ac_id)
    ok, lines = fn(trace_dir)
    for line in lines:
        print(line)
    print(f"{ac_id.upper()}: {'PASS' if ok else 'FAIL'}")
    return ok
