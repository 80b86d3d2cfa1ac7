"""Reproduction experiments behind the ``drfeas repro`` subcommand.

Each acceptance criterion AC-1..AC-9 is one function here and is defined
nowhere else: ``drfeas repro AC-k`` runs it, and the acceptance tests assert
its verdict. AC-2..AC-7 run the bundled problem documents, AC-1 a fixed
operator catalog, AC-8 fixed control maps, and AC-9 re-runs AC-2..AC-5.
Each returns its verdict with the lines it prints; tolerances are fixed here.
"""

from __future__ import annotations

import tempfile
import time
from importlib.resources import files
from pathlib import Path

import numpy as np

from .control import (
    Cyclic,
    RandomBlock,
    cover_index,
    is_quasi_periodic,
    window,
    windows_quasi_periodic,
)
from .convex import SET_KINDS, AffineSubspace, Ball, Box, ConvexSet, Halfspace, Hyperplane
from .diagnostics import (
    PropertyReport,
    _draw_pairs,
    asymptotic_regularity_series,
    check_firmly_nonexpansive,
    check_nonexpansive,
    check_quasi_nonexpansive,
)
from .operators import Projection, Reflection, composite_reflection, dr_operator
from .problem_io import ParseError, execute_config, parse_document, write_trace
from .solver import (
    StopRule,
    build_composite_Q,
    run_unrestricted_dr,
    run_unrestricted_product,
)
from .space import Point, norm

FEAS_TOL = 1e-8


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
CATALOG_DIMS = (2, 5, 50)


def run_check_suite(suite, samples: int, scale: float, seed: int) -> list[PropertyReport]:
    """One report per (label, operator, firm) triple: firmly_nonexpansive[label]
    when firm, else nonexpansive[label]. `drfeas check` and AC-1 both run here.
    Checks of one dimension share one draw of the pairs, which is let go
    when the suite returns or raises."""
    try:
        return [
            check_firmly_nonexpansive(op, samples, scale, seed,
                                      name=f"firmly_nonexpansive[{label}]")
            if firm
            else check_nonexpansive(op, samples, scale, seed, name=f"nonexpansive[{label}]")
            for label, op, firm in suite
        ]
    finally:
        _draw_pairs.cache_clear()


def operator_class_reports(
    dims=CATALOG_DIMS, samples: int = 1000, scale: float = 4.0, seed: int = 0
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
    covered = all({c.kind for c in catalog_sets(dim)} == set(SET_KINDS) for dim in CATALOG_DIMS)
    t0 = time.perf_counter()
    reports = operator_class_reports()
    elapsed = time.perf_counter() - t0
    passed = all(rep.passed for rep in reports)
    lines = [
        f"  {rep.property_name}: worst={rep.worst_violation:.3e} VIOLATED"
        for rep in reports
        if not rep.passed
    ]
    lines.append(f"  {len(reports)} reports, all pass: {passed}, elapsed {elapsed:.2f}s (< 10s)")
    lines.append(f"  catalog holds every set kind in each dimension: {covered}")
    return covered and passed and elapsed < 10.0, lines


def _write(trace_dir, name, trace, dim):
    if trace_dir is not None:
        write_trace(trace, dim, f"{trace_dir}/{name}")


def _run_bundled(name: str, trace_dir, trace_name: str | None = None):
    """Run the scheme of a bundled document and write its trace into
    trace_dir, if given, as trace_name (default: <document>.trace.csv)."""
    problem, config = load_bundled(name)
    trace = execute_config(problem, config)
    _write(trace_dir, trace_name or name.replace(".json", ".trace.csv"), trace, problem.dim)
    return config, trace


def _status(trace) -> str:
    return (f"status={trace.terminal_status} iters={trace.iterations} "
            f"max_dist={trace.final.max_set_distance:.3e}")


def repro_ac2(trace_dir=None) -> tuple[bool, list[str]]:
    _, trace = _run_bundled("ac2_three_balls.json", trace_dir, "ac2.trace.csv")
    final = trace.final
    ok = (trace.iterations <= 10_000 and final.max_set_distance <= FEAS_TOL
          and final.displacement <= 1e-10)
    return ok, [f"  {_status(trace)} tail_step={final.displacement:.3e}"]


def repro_ac3(trace_dir=None) -> tuple[bool, list[str]]:
    ok, lines = True, []
    for name in ("ac3_cyclic_three_balls.json", "ac3_halfspaces_r5.json"):
        config, trace = _run_bundled(name, trace_dir)
        f, m = config.control, config.control.m
        cyclic = all(f.index_at(n) == n % m + 1 for n in range(50))
        qp = is_quasi_periodic(f, m, horizon=20 * m)
        windows_qp = windows_quasi_periodic(f, config.r, m, horizon=20 * m)
        ok &= (
            cyclic and qp and windows_qp
            and trace.iterations <= 10_000
            and trace.final.max_set_distance <= FEAS_TOL
        )
        lines.append(f"  {name}: {_status(trace)} M=m quasi-periodic={qp}")
        lines.append(
            f"  {name}: f(n) = n mod m + 1 for n < 50: {cyclic}, "
            f"windows quasi-periodic with M=m over {20 * m} steps: {windows_qp}"
        )
    return ok, lines


def repro_ac4(trace_dir=None) -> tuple[bool, list[str]]:
    problem, config = load_bundled("ac4_random_block_three_balls.json")
    ok, lines = True, []
    for seed in (1, 2, 3, 4, 5):
        control = RandomBlock(config.control.m, config.control.M, seed)  # the document's, reseeded
        trace = run_unrestricted_dr(problem, control, config.r, config.x0, config.stop)
        _write(trace_dir, f"ac4_seed{seed}.trace.csv", trace, problem.dim)
        ok &= trace.final.max_set_distance <= FEAS_TOL
        lines.append(f"  seed={seed}: {_status(trace)}")
    return ok, lines


def repro_ac5(trace_dir=None) -> tuple[bool, list[str]]:
    ok, lines = True, []
    for name in ("ac5_interlaced_product.json", "ac5_product_with_q.json"):
        config, trace = _run_bundled(name, trace_dir)
        h = config.control
        qp = is_quasi_periodic(h, 2 * h.M - 1, horizon=120)
        ok &= qp and trace.final.max_set_distance <= FEAS_TOL
        lines.append(f"  {name}: {_status(trace)}")
        lines.append(f"  {name}: control quasi-periodic with M'=2M-1 over 120 steps: {qp}")
        if name == "ac5_interlaced_product.json":
            # the windows S_0..S_jf, then two (relaxed) projections
            k, jf = len(config.operators), cover_index(config.window_control)
            ok &= k == jf + 3
            lines.append(f"  {name}: {k} operators = cover_index + 3: {k == jf + 3}")
    return ok, lines


def repro_ac6(trace_dir=None) -> tuple[bool, list[str]]:
    problem, config = load_bundled("ac2_three_balls.json")
    Q = build_composite_Q(problem, config.control, config.r)
    jf = len(Q.factors) - 1
    p = problem.interior_point

    worst_fix = max(norm(S.apply(p) - p) for S in Q.factors)
    quasi = check_quasi_nonexpansive(Q, p)

    rng = np.random.default_rng(0)
    dists, steps = [], []
    for _ in range(100):
        x = Point(rng.uniform(-10.0, 10.0, size=problem.dim))
        final = run_unrestricted_product([Q], Cyclic(1), x, StopRule(100_000, 1e-12, 0.0)).final
        dists.append(problem.max_distance(final.iterate))
        steps.append(final.displacement)
    worst_dist, worst_step = float(np.max(dists)), float(np.max(steps))  # np.max keeps a NaN

    ok = worst_fix <= 1e-10 and worst_dist <= 1e-7 and worst_step <= 1e-12 and quasi.passed
    lines = [
        f"  interior point fixed by S_0..S_{jf}: worst residual {worst_fix:.3e} (<= 1e-10)",
        f"  100 limits of Q from random starts: worst set distance {worst_dist:.3e} (<= 1e-7)",
        f"  100 limits of Q from random starts: worst final step {worst_step:.3e} (<= 1e-12)",
        f"  Q quasi-nonexpansive about the interior point: worst "
        f"{quasi.worst_violation:.3e} (<= {quasi.tolerance:g})",
    ]
    return ok, lines


def repro_ac7(trace_dir=None) -> tuple[bool, list[str]]:
    """Asymptotic regularity: the steps of Q tend to zero, while those of a
    reflection (an involution) from a point off its line stay constant."""
    problem, config = load_bundled("ac2_three_balls.json")
    Q = build_composite_Q(problem, config.control, config.r)
    series = asymptotic_regularity_series(Q, config.x0, 2000)
    R = Reflection(Hyperplane([0.0, 1.0], 0.0))
    flat = asymptotic_regularity_series(R, Point([3.0, 1.0]), 50)
    spread = max(flat) - min(flat)
    ok = series[-1] <= 1e-8 and min(flat) > 0.0 and spread <= 1e-12
    lines = [
        f"  step 2000 of Q from x0: {series[-1]:.3e} (<= 1e-8)",
        f"  50 steps of a reflection from off its line: {flat[0]:.3e} each, "
        f"spread {spread:.3e} (> 0, <= 1e-12)",
    ]
    return ok, lines


def repro_ac8(trace_dir=None) -> tuple[bool, list[str]]:
    """The control laws: cover index, the window formula and
    quasi-periodicity verdicts."""
    covers = all(cover_index(Cyclic(m)) == m for m in range(1, 11))
    window_formula = all(
        window(f, r, n) == [f.index_at((r - 1) * n + j - 1) for j in range(1, r + 1)]
        for f in map(Cyclic, range(1, 6))
        for r in range(2, 6)
        for n in range(101)
    )
    qp = (
        is_quasi_periodic(Cyclic(4), 4, horizon=100)
        and not is_quasi_periodic(Cyclic(3), 2, horizon=100)
        and all(is_quasi_periodic(RandomBlock(3, 5, seed), 2 * 5 - 1, horizon=150)
                for seed in (0, 1, 2))
    )
    lines = [
        f"  cover_index(Cyclic(m)) = m for m = 1..10: {covers}",
        f"  window(f, r, n) = f((r-1)n + j - 1), j = 1..r, for Cyclic(1..5), "
        f"r = 2..5, n <= 100: {window_formula}",
        "  Cyclic(4) 4-quasi-periodic, Cyclic(3) not 2-quasi-periodic, "
        f"RandomBlock(3, 5, seed 0..2) 9-quasi-periodic: {qp}",
    ]
    return covers and window_formula and qp, lines


def repro_ac9(trace_dir=None) -> tuple[bool, list[str]]:
    """AC-2..AC-5 run twice, into two temporary trace directories; every
    trace file must be the same bytes both times."""
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as out:
            for repro in (repro_ac2, repro_ac3, repro_ac4, repro_ac5):
                repro(out)
            runs.append({p.name: p.read_bytes() for p in Path(out).iterdir()})
    same = bool(runs[0]) and runs[0] == runs[1]
    return same, [f"  {len(runs[0])} AC-2..AC-5 trace files, byte-identical on a re-run: {same}"]


EXPERIMENTS = {
    "AC-1": repro_ac1,
    "AC-2": repro_ac2,
    "AC-3": repro_ac3,
    "AC-4": repro_ac4,
    "AC-5": repro_ac5,
    "AC-6": repro_ac6,
    "AC-7": repro_ac7,
    "AC-8": repro_ac8,
    "AC-9": repro_ac9,
}


def run_experiment(ac_id: str, trace_dir=None) -> bool:
    """Run one experiment, print its verdict lines, return success. An
    unknown id is a ParseError; trace_dir is created if missing."""
    fn = EXPERIMENTS.get(ac_id.upper())
    if fn is None:
        raise ParseError(f"unknown experiment {ac_id!r}; choose from {', '.join(EXPERIMENTS)}")
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    ok, lines = fn(trace_dir)
    for line in lines:
        print(line)
    print(f"{ac_id.upper()}: {'PASS' if ok else 'FAIL'}")
    return ok
