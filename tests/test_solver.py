import itertools
import math

import numpy as np
import pytest

from drfeas import problem_io, solver
from drfeas import (
    AffineSubspace,
    Ball,
    Box,
    CONVERGED_DISPLACEMENT,
    ControlMap,
    Cyclic,
    DimensionMismatch,
    DrOperator,
    Explicit,
    FEASIBLE,
    FeasibilityProblem,
    Halfspace,
    Hyperplane,
    InvalidControl,
    IterationTrace,
    MAX_ITERS,
    NON_FINITE,
    Operator,
    Point,
    Projection,
    RandomBlock,
    Reflection,
    StopRule,
    build_S,
    build_composite_Q,
    cover_index,
    dr_operator,
    format_trace,
    norm,
    run_composite,
    run_unrestricted_dr,
    run_unrestricted_product,
)

STOP = StopRule(max_iters=100_000, displacement_tol=1e-10, feasibility_tol=1e-8)


def thin_lens_problem():
    # two unit balls overlapping in a thin lens around (0.95, 0)
    return FeasibilityProblem([Ball([0.0, 0.0], 1.0), Ball([1.9, 0.0], 1.0)])


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(max_iters=0)
    with pytest.raises(ValueError):
        StopRule(displacement_tol=-1.0)
    with pytest.raises(ValueError):
        StopRule(feasibility_tol=-1.0)
    for bad in (math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="feasibility_tol must be finite"):
            StopRule(feasibility_tol=bad)
        with pytest.raises(ValueError, match="displacement_tol must be finite"):
            StopRule(displacement_tol=bad)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: StopRule(max_iters=2.5), ValueError),
        (lambda: build_S(thin_lens_problem(), Cyclic(2), 2, 1.5), InvalidControl),
        (lambda: build_S(thin_lens_problem(), Cyclic(2), 2.5, 0), InvalidControl),
        (lambda: run_unrestricted_dr(thin_lens_problem(), Cyclic(2), 2.5, Point([3.0, 0.0])),
         InvalidControl),
    ],
    ids=["max_iters", "build_S_n", "build_S_r", "run_r"],
)
def test_non_integer_parameters_raise(call, error):
    # a float step or width is not truncated to another operator, and a
    # float max_iters is refused at once, not in the loop's range
    with pytest.raises(error, match="must be an integer"):
        call()


def test_problem_requires_common_dimension():
    with pytest.raises(DimensionMismatch):
        FeasibilityProblem([Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0)])


def test_problem_rejects_empty_family():
    with pytest.raises(ValueError):
        FeasibilityProblem([])


def test_interior_point_must_be_strictly_inside():
    ball = Ball([0.0, 0.0], 1.0)
    FeasibilityProblem([ball], interior_point=Point([0.0, 0.0]))
    with pytest.raises(ValueError, match="strictly inside"):
        FeasibilityProblem([ball], interior_point=Point([1.0, 0.0]))  # boundary
    with pytest.raises(ValueError, match="strictly inside"):
        FeasibilityProblem([ball], interior_point=Point([2.0, 0.0]))
    # The margin is relative to max(||p||, scale_hint): 1e-12 inside the unit
    # ball is too shallow, the center of a ball of radius 2^-300 is not, and
    # 1e-4 inside a ball of radius 1e6 around (1e6, 0) is too shallow again
    with pytest.raises(ValueError, match="strictly inside"):
        FeasibilityProblem([ball], interior_point=Point([1.0 - 1e-12, 0.0]))
    FeasibilityProblem([Ball([0.0, 0.0], 2.0**-300)], interior_point=Point([0.0, 0.0]))
    with pytest.raises(ValueError, match="strictly inside"):
        FeasibilityProblem([Ball([1e6, 0.0], 1e6)], interior_point=Point([1e-4, 0.0]))


def test_interior_point_rejected_for_empty_interior_sets():
    plane = Hyperplane([0.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="strictly inside"):
        FeasibilityProblem([plane], interior_point=Point([3.0, 0.0]))  # member, but no interior


def test_build_S_selects_window_sets(three_ball_problem):
    f = Cyclic(3)
    S0 = build_S(three_ball_problem, f, 2, 0)
    assert S0.sets == three_ball_problem.sets[0:2]
    S1 = build_S(three_ball_problem, f, 2, 1)
    assert S1.sets == (three_ball_problem.sets[1], three_ball_problem.sets[2])


def test_build_S_repeated_set_for_m_equal_one():
    ball = Ball([0.0, 0.0], 1.0)
    problem = FeasibilityProblem([ball])
    S = build_S(problem, Explicit([1]), 2, 0)
    assert S.sets == (ball, ball)
    p = Point([0.5, 0.5])
    assert norm(S.apply(p) - p) <= 1e-12  # members stay fixed


def test_build_S_rejects_out_of_range_window():
    problem = FeasibilityProblem([Ball([0.0, 0.0], 1.0)])
    with pytest.raises(InvalidControl):
        build_S(problem, Cyclic(2), 2, 0)


def test_build_composite_Q_factor_counts(three_ball_problem):
    Q = build_composite_Q(three_ball_problem, Cyclic(3), 2)
    assert len(Q.factors) == 4  # cover index 3, factors for steps 0..3
    problem1 = FeasibilityProblem([Ball([0.0, 0.0], 1.0)])
    Q1 = build_composite_Q(problem1, Cyclic(1), 2)
    assert len(Q1.factors) == 2


def test_composite_Q_fixes_common_points(three_ball_problem):
    Q = build_composite_Q(three_ball_problem, Cyclic(3), 2)
    p = Point([0.5, 0.3])
    assert norm(Q.apply(p) - p) <= 1e-12


def test_feasible_start_stops_immediately(three_ball_problem):
    trace = run_unrestricted_dr(three_ball_problem, Cyclic(3), 2, Point([0.5, 0.3]), STOP)
    assert trace.terminal_status == FEASIBLE
    assert len(trace.steps) == 1
    assert trace.final.n == 0


def test_two_halfspaces_converge_to_feasible_point():
    # x1 >= 1 and x2 >= 1, interior nonempty
    sets = [Halfspace([-1.0, 0.0], -1.0), Halfspace([0.0, -1.0], -1.0)]
    problem = FeasibilityProblem(sets)
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, Point([0.0, 0.0]), STOP)
    assert trace.terminal_status == CONVERGED_DISPLACEMENT
    for c in sets:
        assert c.distance(trace.final.iterate) <= 1e-8


def test_two_balls_converge_into_lens():
    problem = FeasibilityProblem([Ball([0.0, 0.0], 2.0), Ball([3.0, 0.0], 2.0)])
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, Point([10.0, 10.0]), STOP)
    assert problem.max_distance(trace.final.iterate) <= 1e-8
    assert 1.0 <= trace.final.iterate[0] <= 2.0  # lens spans x in [1, 2]


def test_composite_run_on_three_balls(three_ball_problem):
    trace = run_composite(three_ball_problem, Cyclic(3), 2, Point([5.0, 5.0]),
                          StopRule(10_000, 1e-10, 1e-8))
    assert trace.terminal_status == CONVERGED_DISPLACEMENT
    assert trace.final.max_set_distance <= 1e-8
    assert trace.final.displacement <= 1e-10
    assert all(s.applied_operator_id == "Q" for s in trace.steps[1:])


def test_composite_feasible_start(three_ball_problem):
    trace = run_composite(three_ball_problem, Cyclic(3), 2, Point([0.5, 0.3]), STOP)
    assert trace.terminal_status == FEASIBLE
    assert len(trace.steps) == 1


def test_product_single_operator_is_picard_iteration():
    P = Projection(Ball([0.0, 0.0], 1.0))
    trace = run_unrestricted_product([P], Cyclic(1), Point([3.0, 4.0]),
                                     StopRule(1000, 1e-10, 1e-8))
    assert trace.terminal_status == CONVERGED_DISPLACEMENT
    assert norm(trace.final.iterate - Point([0.6, 0.8])) <= 1e-12
    assert trace.steps[1].applied_operator_id == "T1"


def test_product_two_projections_random_block():
    problem = thin_lens_problem()
    ops = [Projection(c) for c in problem.sets]
    trace = run_unrestricted_product(ops, RandomBlock(2, 2, 3), Point([5.0, -7.0]),
                                     STOP, problem=problem)
    assert problem.max_distance(trace.final.iterate) <= 1e-8


def test_product_two_halfspace_projections():
    # x1 >= 1 and x2 >= 1 again, now via alternating random projections
    sets = [Halfspace([-1.0, 0.0], -1.0), Halfspace([0.0, -1.0], -1.0)]
    problem = FeasibilityProblem(sets)
    ops = [Projection(c) for c in sets]
    trace = run_unrestricted_product(ops, RandomBlock(2, 2, 5), Point([-3.0, -4.0]),
                                     STOP, problem=problem)
    assert problem.max_distance(trace.final.iterate) <= 1e-8


def test_fejer_monotone_toward_common_point():
    problem = thin_lens_problem()
    p = Point([0.95, 0.0])
    assert problem.max_distance(p) == 0.0
    start = Point([5.0, -7.0])

    traces = [
        run_unrestricted_dr(problem, Cyclic(2), 2, start, STOP),
        run_composite(problem, Cyclic(2), 2, start, STOP),
        run_unrestricted_product(
            [Projection(c) for c in problem.sets],
            RandomBlock(2, 2, 3), start, STOP, problem=problem,
        ),
    ]
    for trace in traces:
        dists = [norm(s.iterate - p) for s in trace.steps]
        assert all(dists[i + 1] <= dists[i] + 1e-10 for i in range(len(dists) - 1))


def test_trace_shape_and_invariants():
    problem = thin_lens_problem()
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, Point([5.0, -7.0]), STOP)
    assert [s.n for s in trace.steps] == list(range(len(trace.steps)))
    assert all(s.displacement >= 0.0 for s in trace.steps)
    assert len(trace.steps) <= STOP.max_iters + 1
    assert trace.steps[0].applied_operator_id == "init"
    assert trace.steps[1].applied_operator_id == "S0"
    assert trace.iterations == len(trace.steps) - 1


def test_max_iters_cap():
    problem = thin_lens_problem()
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, Point([50.0, 50.0]),
                                StopRule(max_iters=1))
    assert trace.terminal_status == MAX_ITERS
    assert len(trace.steps) == 2


def test_feasibility_only_stop_mode():
    problem = thin_lens_problem()
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, Point([5.0, -7.0]),
                                StopRule(100_000, 0.0, 1e-8))
    assert trace.terminal_status == FEASIBLE
    assert problem.max_distance(trace.final.iterate) <= 1e-8


def test_non_finite_iterate_stops_with_last_finite_step():
    # the halfspace reflection of x0 doubles x0 and overflows to inf
    problem = FeasibilityProblem([Halfspace([1.0, 0.0], 0.0), Ball([0.0, 0.0], 1.0)])
    x0 = Point([-1e308, 1e308])
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, x0, STOP)
    assert trace.terminal_status == NON_FINITE
    assert trace.iterations == 0
    assert trace.final.iterate == x0


def test_nan_set_distance_is_never_feasible():
    # The second set's distance is NaN at x0; Python's max would drop that NaN
    # behind the ball's 2.0
    problem = FeasibilityProblem([Ball([0.0, 0.0], 1.0), NanRightOfTwo([1.0, 0.0], 1.0)])
    x0 = Point([3.0, 0.0])
    assert math.isnan(problem.max_distance(x0))
    # The iterate stays finite under the ball's projection; the residual ends the run.
    trace = run_unrestricted_product([Projection(problem.sets[0])], Cyclic(1), x0,
                                     STOP, problem=problem)
    assert trace.terminal_status == NON_FINITE
    assert trace.iterations == 0
    assert math.isnan(trace.final.max_set_distance)
    # A NaN distance first met after a step ends the run at that step.
    x0 = Point([0.0, 0.0])
    sets = [Ball([5.0, 0.0], 1.0), NanRightOfTwo([1.0, 0.0], 1.0)]
    trace = run_unrestricted_product([Projection(sets[0])], Cyclic(1), x0, STOP,
                                     problem=FeasibilityProblem(sets))
    assert trace.terminal_status == NON_FINITE
    assert trace.iterations == 1
    assert trace.final.iterate == Point([4.0, 0.0])
    assert math.isnan(trace.final.max_set_distance)


# Disjoint sets 1.5e-200 to 5e-201 from the start, which <x, x> squares to 0
TINY_DISJOINT = {
    "balls": ([Ball([0.0, 0.0], 1e-200), Ball([5e-200, 0.0], 1e-200)], [2.5e-200, 0.0]),
    "boxes": ([Box([0.0, 0.0], [1e-200, 1e-200]), Box([3e-200, 0.0], [4e-200, 1e-200])],
              [2e-200, 5e-201]),
    "affine": ([AffineSubspace([[1.0, 0.0]], [0.0]), AffineSubspace([[1.0, 0.0]], [1e-200])],
               [5e-201, 0.0]),
}


@pytest.mark.parametrize("tol", [0.0, 1e-300])  # every row at once, or deferred
@pytest.mark.parametrize("case", list(TINY_DISJOINT))
def test_tiny_disjoint_sets_are_never_read_as_feasible(case, tol):
    sets, x0 = TINY_DISJOINT[case]
    problem = FeasibilityProblem(sets)
    assert min(problem.distances(Point(x0))) >= 5e-201
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, Point(x0),
                                StopRule(max_iters=50, displacement_tol=tol, feasibility_tol=0.0))
    assert (trace.terminal_status, trace.iterations) == (MAX_ITERS, 50)
    assert all(0.0 < d == problem.max_distance(Point(x))
               for x, d in zip(trace.iterates, trace.max_set_distances))


class InfiniteBall(Ball):
    """A ball whose distance reads inf everywhere, counting its calls."""

    calls = 0

    def _distance(self, x):
        InfiniteBall.calls += 1
        return math.inf


def test_user_subclass_distance_is_measured_once():
    # An entry of the user-subclass family already came from the set's own
    # _distance; only stacked entries that are not finite are measured again.
    problem = FeasibilityProblem([Ball([0.0, 0.0], 1.0), InfiniteBall([1.0, 0.0], 1.0),
                                  Ball([1e200, 0.0], 1.0)])
    x0 = Point([3.0, 0.0])
    InfiniteBall.calls = 0
    for expected in (1, 2, 3):
        assert problem.max_distance(x0) == math.inf
        assert InfiniteBall.calls == expected
    assert problem.distances(x0)[1:] == [math.inf, 1e200]
    assert InfiniteBall.calls == 4


def test_ball_offset_past_squared_overflow_keeps_its_distance():
    # ||x - c||^2 overflows in the stacked ball rows, so the far ball's
    # distance comes from Ball._distance, which rescales before the norm.
    far = Ball([1e200, 0.0], 1.0)
    problem = FeasibilityProblem([Ball([0.0, 0.0], 1.0), far, Ball([0.0, 1.0], 1.0)])
    x0 = Point([3.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):  # as in the loop
        assert problem.max_distance(x0) == far._distance(x0.coords) == 1e200
    assert problem.distances(x0)[1] == far.distance(x0)
    trace = run_unrestricted_product([Projection(problem.sets[0])], Cyclic(1), x0,
                                     StopRule(max_iters=5), problem=problem)
    assert trace.terminal_status == MAX_ITERS
    assert all(step.max_set_distance == 1e200 for step in trace.steps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_where_the_offset_from_a_center_overflows_is_silent():
    # The first reflection through the ball takes x - center, which
    # overflows on the way to the right projection 5e307; the loop runs with
    # numpy's overflow and invalid flags off
    problem = FeasibilityProblem([Ball([-1e308, 0.0], 1.5e308), Halfspace([1.0, 0.0], 1e308)])
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, Point([1e308, 0.0]), StopRule(max_iters=5))
    assert (trace.terminal_status, trace.iterations) == (CONVERGED_DISPLACEMENT, 2)
    assert [s.iterate for s in trace.steps] == [Point([1e308, 0.0]), Point([5e307, 0.0]),
                                                Point([5e307, 0.0])]
    assert trace.displacements == [0.0, 5e307, 0.0]
    assert trace.max_set_distances == [5e307, 0.0, 0.0]


def test_ill_conditioned_affine_distance_is_never_read_as_feasible():
    # A has singular values 1 and 1e-8 and b = 0; each x lies 1e-6 from the
    # null space, mostly along the weak singular direction. Through the normal
    # equations, sqrt(r^T (A A^T)^-1 r), the condition number squares to 1e16
    # and this distance loses every digit; through the SVD's orthonormal basis
    # it keeps about eight.
    rng = np.random.default_rng(5)
    d = 50
    U = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((d, 2)))[0]
    A = U @ np.diag([1.0, 1e-8]) @ V.T
    assert 0.99e8 < np.linalg.cond(A) < 1.01e8
    stop = StopRule()
    for theta in (0.0, 0.3, 1.2):
        x = 1e-6 * (math.cos(theta) * V[:, 1] + math.sin(theta) * V[:, 0])
        plane = rng.standard_normal(d)
        plane -= (plane @ x) / (x @ x) * x  # through 0 and x
        problem = FeasibilityProblem([
            Halfspace(np.ones(d), 1.0), AffineSubspace(A, np.zeros(2)),
            AffineSubspace([plane], [0.0]),
        ])
        residual = problem.max_distance(Point(x))
        assert abs(residual - 1e-6) <= 1e-12
        assert residual > stop.feasibility_tol
        # a start read as feasible would stop the run at step 0
        trace = run_unrestricted_dr(problem, Cyclic(3), 2, Point(x), StopRule(max_iters=1))
        assert trace.iterations == 1
        assert trace.steps[0].max_set_distance == residual


def test_affine_rows_near_the_largest_float_run_to_convergence():
    # A x passes the largest float at x0; the set holds A scaled by a power
    # of two, so the first step and its residual are finite
    problem = FeasibilityProblem([AffineSubspace([[1e307] * 3], [0.0]), Ball([0.0] * 3, 1.0)])
    x0 = Point([10.0, 10.0, 10.0])
    assert problem.max_distance(x0) == pytest.approx(math.sqrt(300.0), rel=1e-12)
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, x0, STOP)
    assert trace.terminal_status == CONVERGED_DISPLACEMENT
    assert problem.max_distance(trace.final.iterate) <= 1e-8


class DoubledBall(Ball):
    """A Ball subclass whose _distance is twice the ball's: it must not be
    measured in the stacked ball family."""

    def _distance(self, x):
        return 2.0 * super()._distance(x)


def test_subclass_distances_keep_set_order_among_stacked_kinds():
    # Sets of a user subclass first and between interleaved stacked kinds:
    # the family vectors are concatenated and gathered back into set order
    d = 4
    rng = np.random.default_rng(8)
    A = rng.standard_normal((2, d))
    sets = [
        DoubledBall(np.zeros(d), 1.0), Halfspace(np.ones(d), -1.0), Ball(np.ones(d), 0.5),
        DoubledBall(-np.ones(d), 0.25), Box(np.zeros(d), np.ones(d)),
        AffineSubspace(A, A @ np.ones(d)), Hyperplane(np.arange(1.0, d + 1), 2.0),
        DoubledBall(np.full(d, 3.0), 1.0), Halfspace(-np.ones(d), 0.5), Ball(-np.ones(d), 2.0),
    ]
    problem = FeasibilityProblem(sets)
    for x in 3.0 * rng.uniform(-1.0, 1.0, (5, d)):
        got = problem.distances(Point(x))
        want = [c._distance(x) for c in sets]
        for c, g, w in zip(sets, got, want):
            if type(c) is DoubledBall:
                assert g == w
            else:
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12)
        assert problem.max_distance(Point(x)) == max(got)


class NanRightOfTwo(Halfspace):
    """{x1 <= b}, with a distance that reads NaN where x1 > 2."""

    def _distance(self, x):
        return math.nan if x[0] > 2.0 else super()._distance(x)


def test_certifier_residual_reported():
    problem = thin_lens_problem()
    certifier = dr_operator(list(problem.sets))
    trace = run_composite(problem, Cyclic(2), 2, Point([5.0, -7.0]), STOP,
                          certifier=certifier)
    residuals = [s.certifier_residual for s in trace.steps]
    assert all(r is not None for r in residuals)
    assert residuals[0] > 1e-3
    assert residuals[-1] <= 1e-6  # limit is a fixed point of the certifier


def test_no_certifier_means_no_residuals(three_ball_problem):
    trace = run_composite(three_ball_problem, Cyclic(3), 2, Point([5.0, 5.0]), STOP)
    assert all(s.certifier_residual is None for s in trace.steps)


def test_control_range_must_match_set_count(three_ball_problem):
    with pytest.raises(InvalidControl):
        run_unrestricted_dr(three_ball_problem, Cyclic(2), 2, Point([5.0, 5.0]), STOP)
    with pytest.raises(InvalidControl):
        run_composite(three_ball_problem, Cyclic(4), 2, Point([5.0, 5.0]), STOP)


def test_product_control_range_must_match_family_size():
    ops = [Projection(Ball([0.0, 0.0], 1.0))]
    with pytest.raises(InvalidControl):
        run_unrestricted_product(ops, Cyclic(2), Point([0.0, 0.0]), STOP)


def test_product_rejects_empty_family():
    with pytest.raises(ValueError):
        run_unrestricted_product([], Cyclic(1), Point([0.0, 0.0]), STOP)


def test_run_dimension_mismatch(three_ball_problem):
    with pytest.raises(DimensionMismatch):
        run_unrestricted_dr(three_ball_problem, Cyclic(3), 2, Point([1.0]), STOP)
    with pytest.raises(DimensionMismatch):
        run_composite(three_ball_problem, Cyclic(3), 2, Point([1.0, 2.0, 3.0]), STOP)
    with pytest.raises(DimensionMismatch):
        run_unrestricted_dr(three_ball_problem, Cyclic(3), 2, Point([1.0, 2.0]), STOP,
                            certifier=Projection(Ball([0.0], 1.0)))
    with pytest.raises(DimensionMismatch):
        three_ball_problem.max_distance(Point([1.0]))
    with pytest.raises(DimensionMismatch):
        three_ball_problem.distances(Point([1.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_problem_near_overflow_builds_and_scales_silently():
    # ||p||^2, ||p - c||^2 and ||c||^2 overflow on the way to finite values
    big = Ball([1e200, 1e200], 1e200)
    problem = FeasibilityProblem([big], Point([1.5e200, 1e200]))
    assert problem.m == 1
    two = FeasibilityProblem([big, Ball([-1e200, 1e200], 1e200)])
    assert two.sampling_scale() == pytest.approx(4 * (math.sqrt(2) + 1) * 1e200)


def test_sampling_scale_tracks_set_magnitudes():
    small = FeasibilityProblem([Ball([0.0, 0.0], 0.5)])
    big = FeasibilityProblem([Ball([100.0, 0.0], 1.0)])
    assert small.sampling_scale() == 2.0  # 4 * 0.5: no floor
    assert big.sampling_scale() == pytest.approx(404.0)


# Three disjoint unit balls: a run with both tolerances 0 never stops early
def disjoint_problem():
    return FeasibilityProblem(
        [Ball([0.0, 0.0], 1.0), Ball([6.0, 0.0], 1.0), Ball([0.0, 6.0], 1.0)]
    )


def never_stop(max_iters):
    return StopRule(max_iters, displacement_tol=0.0, feasibility_tol=0.0)


def test_run_windows_are_the_build_S_windows(monkeypatch):
    # A run fetches its windows in runs of up to K steps; whatever run holds
    # step n, the stream's S_n must be the operator build_S gives for it
    problem, f, r, K = disjoint_problem(), RandomBlock(3, 4, 7), 3, solver._WINDOW_CHUNK
    expected = [build_S(problem, f, r, n).sets for n in range(3 * K + 1)]
    applied = []
    apply = DrOperator._apply

    def recording(self, x):
        applied.append(self.sets)
        return apply(self, x)

    monkeypatch.setattr(DrOperator, "_apply", recording)
    trace = run_unrestricted_dr(problem, f, r, Point([3.0, 3.0]), never_stop(3 * K + 1))
    assert trace.iterations == 3 * K + 1
    assert applied == expected
    stream = solver._window_operators(problem, f, r)
    assert [S.sets for S in itertools.islice(stream, 3 * K + 1)] == expected
    stream = solver._window_operators(problem, f, r, K + 1)
    assert [S.sets for S in itertools.islice(stream, 2 * K)] == expected[K + 1 :]
    order = [2 * K + 5, 0, K, K - 1, 3 * K, 1, 2 * K + 5, K + 1, *range(3 * K, -1, -1)]
    assert [build_S(problem, f, r, n).sets for n in order] == [expected[n] for n in order]


@pytest.mark.parametrize("n", [1, 2, 5, solver._WINDOW_CHUNK - 1, 2 * solver._WINDOW_CHUNK + 3])
@pytest.mark.parametrize("f", [Cyclic(3), RandomBlock(3, 4, 7)], ids=["cyclic", "random_block"])
def test_stream_started_at_n_is_the_stream_from_0_from_item_n_on(f, n):
    # the runs of a stream from n start at other steps than those of a stream
    # from 0, so the two fetch other runs of windows for the same steps
    problem, r, length = disjoint_problem(), 3, 3 * solver._WINDOW_CHUNK

    def stream(start, items):
        ops = solver._window_operators(problem, f, r, start)
        return [S.sets for S in itertools.islice(ops, items)]

    assert stream(n, length) == stream(0, n + length)[n:]


class OutOfRangeAt(ControlMap):
    """Cyclic over 1..3, except an index outside 1..3 (4 by default) at one
    argument."""

    m = quasi_period = 3

    def __init__(self, at, index=4):
        self.at, self.index = at, index

    def index_at(self, n):
        return self.index if n == self.at else n % 3 + 1


def test_out_of_range_index_raises_at_the_step_that_uses_it():
    # With r = 2 the window of step n is (f(n), f(n + 1)) and x_n comes from
    # S_{n-1}, so f(K + 10) is first used by iteration K + 10; it is fetched
    # earlier, with the run of windows of steps K - 1..2K - 2
    K = solver._WINDOW_CHUNK
    f, problem, x0 = OutOfRangeAt(K + 10), disjoint_problem(), Point([3.0, 3.0])
    trace = run_unrestricted_dr(problem, f, 2, x0, never_stop(K + 9))
    assert (trace.terminal_status, trace.iterations) == (MAX_ITERS, K + 9)
    with pytest.raises(InvalidControl, match="set index 4"):
        run_unrestricted_dr(problem, f, 2, x0, never_stop(K + 10))


def test_index_zero_raises_instead_of_picking_the_last_set():
    # Index 0 would select problem.sets[-1]; f(1) = 0 sits in the window of
    # step 0, (f(0), f(1)), and is used by iteration 1
    f, problem = OutOfRangeAt(1, index=0), disjoint_problem()
    with pytest.raises(InvalidControl, match="set index 0"):
        build_S(problem, f, 2, 0)
    with pytest.raises(InvalidControl, match="set index 0"):
        run_unrestricted_dr(problem, f, 2, Point([3.0, 3.0]), never_stop(5))
    # the controlled product checks its operator indices the same way; past
    # the last operator it raises InvalidControl too, not IndexError
    ops = [Projection(c) for c in problem.sets]
    with pytest.raises(InvalidControl, match="operator index 0"):
        run_unrestricted_product(ops, f, Point([3.0, 3.0]), never_stop(5))
    with pytest.raises(InvalidControl, match="operator index 4"):
        run_unrestricted_product(ops, OutOfRangeAt(1), Point([3.0, 3.0]), never_stop(5))


def test_run_stores_read_only_arrays_and_builds_no_point_per_step(monkeypatch):
    problem, x0 = disjoint_problem(), Point([3.0, 3.0])
    built = []
    init = Point.__init__

    def counting(self, coords):
        built.append(coords)
        init(self, coords)

    monkeypatch.setattr(Point, "__init__", counting)
    counts = []
    for max_iters in (10, 300):
        built.clear()
        trace = run_unrestricted_dr(problem, Cyclic(3), 2, x0, never_stop(max_iters))
        counts.append(len(built))
        assert trace.iterations == max_iters
        assert not any(x.flags.writeable for x in trace.iterates)
    assert counts[0] == counts[1]


def reference_rows(next_op, x0, n_steps, problem=None, certifier=None):
    """(n, iterate, displacement, max_set_distance, operator id, certifier
    residual) of steps 0..n_steps, computed on the public Point API."""

    def row(n, x, disp, op_id):
        dist = problem.max_distance(x) if problem is not None else 0.0
        residual = norm(certifier.apply(x) - x) if certifier is not None else None
        return (n, x, disp, dist, op_id, residual)

    x, rows = x0, [row(0, x0, 0.0, "init")]
    for n in range(1, n_steps + 1):
        op, op_id = next_op(n)
        x_next = op.apply(x)
        rows.append(row(n, x_next, norm(x_next - x), op_id))
        x = x_next
    return rows


def step_rows(trace):
    return [
        (s.n, s.iterate, s.displacement, s.max_set_distance, s.applied_operator_id,
         s.certifier_residual)
        for s in trace.steps
    ]


def run_against_the_reference_loop(stop):
    """A DR run over the disjoint balls to max_iters, checked row by row
    against reference_rows."""
    problem, f, r, x0 = disjoint_problem(), RandomBlock(3, 4, 2), 3, Point([3.0, -2.0])
    certifier = dr_operator(problem.sets)
    trace = run_unrestricted_dr(problem, f, r, x0, stop, certifier=certifier)
    expected = reference_rows(lambda n: (build_S(problem, f, r, n - 1), f"S{n - 1}"),
                              x0, stop.max_iters, problem, certifier)
    assert step_rows(trace) == expected
    assert trace.final == trace.steps[-1]
    assert (trace.terminal_status, trace.iterations) == (MAX_ITERS, stop.max_iters)
    return trace


def test_trace_views_match_the_reference_loop():
    run_against_the_reference_loop(never_stop(50))


def test_trace_views_match_the_reference_loop_with_deferred_residuals():
    # With displacement_tol 1.5, 290 of the 300 steps cannot stop the run
    # and defer their residual; the other ten could stop it, but the balls
    # are disjoint
    trace = run_against_the_reference_loop(StopRule(300, displacement_tol=1.5,
                                                    feasibility_tol=0.0))
    assert sum(d <= 1.5 for d in trace.displacements[1:]) == 10


def measured_rows(trace, log, tol):
    """Check the residual calls in the log of a run with displacement_tol
    tol against its trace; return the rows of each call."""
    K, x = solver._RESIDUAL_BLOCK, trace.iterates
    new = [n == 0 or x[n] is not x[n - 1] for n in range(len(x))]
    distinct = [n for n, is_new in enumerate(new) if is_new]
    holder = np.cumsum(new) - 1  # row -> index of its array in distinct
    batches = [rows for kind, rows in log if kind == "measure"]
    # every distinct array is measured exactly once, in step order
    assert np.array_equal(np.concatenate(batches), [x[n] for n in distinct])
    # each call's rows span fewer than K steps
    starts = np.cumsum([0] + [len(b) for b in batches[:-1]])
    assert all(distinct[a + len(b) - 1] - distinct[a] < K for a, b in zip(starts, batches))
    # a row that can stop the run is measured before the next step applies
    counts, done = [], 0  # counts[n]: the arrays measured before step n + 1
    for kind, rows in log:
        if kind == "measure":
            done += len(rows)
        else:
            counts.append(done)
    assert len(counts) == len(x) - 1
    for n, (d, count) in enumerate(zip(trace.displacements, counts)):
        if not 0.0 < tol < d:
            assert holder[n] < count
    return batches


@pytest.fixture
def measure_log(monkeypatch):
    """A log of each FeasibilityProblem._distances call, with its rows, and
    each DrOperator or Projection step, in call order."""
    log = []
    distances = FeasibilityProblem._distances

    def recording(self, x):
        log.append(("measure", x.reshape(-1, x.shape[-1]).copy()))
        return distances(self, x)

    def logged(apply):
        def stepping(self, x):
            log.append(("apply", None))
            return apply(self, x)

        return stepping

    monkeypatch.setattr(FeasibilityProblem, "_distances", recording)
    for cls in (DrOperator, Projection):
        monkeypatch.setattr(cls, "_apply", logged(cls._apply))
    return log


@pytest.mark.parametrize("tol", [0.0, 1.5])
def test_each_distinct_iterate_is_measured_once_within_a_block(measure_log, tol):
    # With tol 1.5, 290 of the 300 steps cannot stop the run, so their rows
    # are deferred and measured in batches; with tol 0 every step can stop it
    problem, f, r, x0 = disjoint_problem(), RandomBlock(3, 4, 2), 3, Point([3.0, -2.0])
    trace = run_unrestricted_dr(problem, f, r, x0, StopRule(300, tol, 0.0))
    batches = measured_rows(trace, measure_log, tol)
    assert max(len(b) for b in batches) == (1 if tol == 0.0 else solver._RESIDUAL_BLOCK)


@pytest.mark.parametrize("tol", [0.0, 0.5])
def test_each_distinct_iterate_is_measured_once_with_repeats(measure_log, tol):
    # P1 twice, then P2, over two disjoint boxes: every third step repeats
    # its iterate. With tol 0.5 the step before each repeat is deferred and
    # the repeat can stop the run, so the repeat copies a distance that the
    # same batch gives
    sets = [Box([0.0, 0.0], [1.0, 1.0]), Box([3.0, 0.0], [4.0, 1.0])]
    ops = [Projection(c) for c in (sets[0], sets[0], sets[1])]
    trace = run_unrestricted_product(ops, Cyclic(3), Point([2.0, 5.0]), StopRule(100, tol, 0.0),
                                     problem=FeasibilityProblem(sets))
    assert shared_rows(trace) == list(range(2, 101, 3))
    measured_rows(trace, measure_log, tol)


class TwinBall(Ball):
    """A user subclass, measured by its own _distance, which is Ball's."""


def test_a_user_subclass_is_measured_one_row_at_a_time(measure_log):
    # With displacement_tol 1.5, 290 of the 300 steps defer their rows over
    # the built-in balls, measured in blocks of up to _RESIDUAL_BLOCK rows.
    # With one ball a user subclass, whose distance may read NaN or raise,
    # each row is measured alone, as its step adds it; the trace is the same
    stop, f, r, x0 = StopRule(300, 1.5, 0.0), RandomBlock(3, 4, 2), 3, Point([3.0, -2.0])
    problem = disjoint_problem()
    trace = run_unrestricted_dr(problem, f, r, x0, stop)
    batches = measured_rows(trace, measure_log, 1.5)
    assert max(len(b) for b in batches) == solver._RESIDUAL_BLOCK
    measure_log.clear()
    sets = list(problem.sets)
    sets[1] = TwinBall(sets[1].center, sets[1].radius)
    twin = run_unrestricted_dr(FeasibilityProblem(sets), f, r, x0, stop)
    assert {len(b) for b in measured_rows(twin, measure_log, 1.5)} == {1}
    assert twin == trace


# The coordinates of the extreme grid: the largest floats, the square root
# of the largest, subnormals and 0.
EXTREMES = [1.7e308, -1.7e308, 1e154, -1e154, 5e-324, -5e-324, 1e-310, 0.0]


def test_built_in_sets_read_no_nan_at_extreme_points():
    # A problem of built-in sets is measured in blocks of rows, as its
    # distances are never NaN at a finite point: every kind at extreme
    # scales, over a grid of extreme points. <a, x> overflows with mixed
    # signs for the first halfspace, and x - center for the first ball
    sets = [
        Halfspace([1.5, 1.5, 1.5], 0.0),
        Halfspace([-1.0, 1e-300, 1e300], -1e300),
        Hyperplane([1.5, -1.5, 1.5], 1e308),
        Hyperplane([0.0, 5e-324, 0.0], 0.0),
        Ball([-1.7e308, 1.7e308, 0.0], 1.0),
        Ball([0.0, 0.0, 0.0], 1e-300),
        Ball([1e154, 1e154, 1e154], 1e154),
        Box([-1.7e308, 0.0, -5e-324], [1.7e308, 1e-310, 5e-324]),
        Box([1.7e308] * 3, [1.7e308] * 3),
        AffineSubspace([[1.5, 1.5, -1.5]], [0.0]),
        AffineSubspace([[1e300, 0.0, 1.0], [0.0, 1e-300, 1.0]], [1e300, 1.0]),
        AffineSubspace(np.zeros((1, 3)), [0.0]),
    ]
    problem = FeasibilityProblem(sets)
    X = np.array(list(itertools.product(EXTREMES, repeat=3)))
    with np.errstate(over="ignore", invalid="ignore"):  # as in the loop
        batch = problem._distances(X)
        single = np.stack([problem._distances(x) for x in X])
    assert not np.isnan(batch).any()
    assert batch.tobytes() == single.tobytes()
    assert np.isinf(batch).any() and (batch == 0.0).any()


class ShiftRight(Operator):
    """x -> x + (1, 0), raising at its `fail`-th call."""

    def __init__(self, fail=None):
        super().__init__(2)
        self.calls, self.fail = 0, fail

    def _apply(self, x):
        self.calls += 1
        if self.calls == self.fail:
            raise RuntimeError("a step after the NaN row")
        return x + np.array([1.0, 0.0])


class RaisingRightOf(Halfspace):
    """{x1 <= b}, with a distance that raises where x1 > edge, counting raises."""

    raised = 0

    def __init__(self, a, b, edge):
        super().__init__(a, b)
        self.edge = edge

    def _distance(self, x):
        if x[0] > self.edge:
            RaisingRightOf.raised += 1
            raise ArithmeticError("no distance here")
        return super()._distance(x)


@pytest.mark.parametrize("fail", [5, None])
@pytest.mark.parametrize("raising", [False, True])
def test_nan_deferred_row_ends_the_run_at_its_row(fail, raising):
    # x_2 = (2.5, 0) is the first iterate whose distance is NaN. The
    # displacement 1 is above displacement_tol, but the problem holds user
    # subclasses, so each row is measured as its step adds it: no step is
    # applied after the NaN row, so neither the step that would raise nor a
    # set that raises from x_3 = (3.5, 0) on is ever called.
    sets = [Ball([10.0, 0.0], 1.0), NanRightOfTwo([1.0, 0.0], 1.0)]
    if raising:
        sets.append(RaisingRightOf([1.0, 0.0], 1.0, 3.0))
    T = ShiftRight(fail)
    trace = run_unrestricted_product([T], Cyclic(1), Point([0.5, 0.0]), STOP,
                                     problem=FeasibilityProblem(sets))
    assert trace.terminal_status == NON_FINITE
    assert trace.iterations == 2
    assert trace.final.iterate == Point([2.5, 0.0])
    assert math.isnan(trace.final.max_set_distance)
    assert trace.max_set_distances[:2] == [8.5, 7.5]
    assert T.calls == 2


def test_nan_row_deferred_to_the_last_step_ends_the_run_at_its_row():
    # Both steps move by 1, above displacement_tol, yet the problem holds a
    # user subclass, so each row is measured at its step: the NaN at
    # x_2 = (2.5, 0), the last step, ends the run there
    problem = FeasibilityProblem([Ball([10.0, 0.0], 1.0), NanRightOfTwo([1.0, 0.0], 1.0)])
    trace = run_unrestricted_product([ShiftRight()], Cyclic(1), Point([0.5, 0.0]),
                                     StopRule(2, 0.5, 1e-8), problem=problem)
    assert trace.terminal_status == NON_FINITE
    assert trace.iterations == 2
    assert trace.final.iterate == Point([2.5, 0.0])
    assert trace.max_set_distances[:2] == [8.5, 7.5]
    assert math.isnan(trace.final.max_set_distance)


def test_set_that_raises_on_a_deferred_row_raises_in_step_order():
    # The set raises on x_2 = (2.5, 0), measured at its step, once: the
    # exception leaves the loop as it is raised
    problem = FeasibilityProblem([Ball([10.0, 0.0], 1.0), RaisingRightOf([1.0, 0.0], 1.0, 2.0)])
    RaisingRightOf.raised = 0
    with pytest.raises(ArithmeticError, match="no distance"):
        run_unrestricted_product([ShiftRight()], Cyclic(1), Point([0.5, 0.0]), STOP,
                                 problem=problem)
    assert RaisingRightOf.raised == 1
    # at a start point, measured alone, it also raises once
    with pytest.raises(ArithmeticError, match="no distance"):
        run_unrestricted_product([ShiftRight()], Cyclic(1), Point([2.5, 0.0]), STOP,
                                 problem=problem)
    assert RaisingRightOf.raised == 2


def test_finite_step_with_overflowing_displacement_keeps_running():
    # Each reflection is finite, near -+1e308, but x_next - x overflows, so
    # the displacement is inf without the iterate being non-finite
    T = Reflection(Ball([0.0, 0.0], 1.0))
    trace = run_unrestricted_product([T], Cyclic(1), Point([1e308, 0.0]), StopRule(max_iters=3))
    assert (trace.terminal_status, trace.iterations) == (MAX_ITERS, 3)
    assert trace.displacements == [0.0, math.inf, math.inf, math.inf]


class Blowup(Operator):
    """x -> 1e100 x: the fourth step from a unit start overflows."""

    def _apply(self, x):
        return 1e100 * x


def test_non_finite_trace_ends_at_the_last_finite_step():
    T, x0 = Blowup(2), Point([1.0, -1.0])
    trace = run_unrestricted_product([T], Cyclic(1), x0, STOP)
    assert trace.terminal_status == NON_FINITE
    assert trace.iterations == 3
    assert step_rows(trace) == reference_rows(lambda n: (T, "T1"), x0, 3)
    assert trace.final == trace.steps[-1]
    assert trace.final.iterate == Point([1e300, -1e300])


def test_window_runs_double_up_to_the_chunk(monkeypatch):
    # Runs of 1, 2, 4, ... steps up to K: a run over N steps fetches fewer
    # than 2N windows, build_S one and build_composite_Q fewer than 2(jf + 1)
    fetched = []
    window = solver.window

    def recording(f, r, n, steps=1):
        fetched.append(steps)
        return window(f, r, n, steps)

    monkeypatch.setattr(solver, "window", recording)
    problem, f, K = disjoint_problem(), RandomBlock(3, 4, 7), solver._WINDOW_CHUNK
    for n_steps in (1, 3, 10, K, 3 * K):
        fetched.clear()
        run_unrestricted_dr(problem, f, 3, Point([3.0, 3.0]), never_stop(n_steps))
        assert fetched == [min(2**i, K) for i in range(len(fetched))]
        assert n_steps <= sum(fetched) < 2 * n_steps
    fetched.clear()
    build_S(problem, f, 3, 40)
    assert fetched == [1]
    fetched.clear()
    build_composite_Q(problem, f, 3)
    assert cover_index(f) + 1 <= sum(fetched) < 2 * (cover_index(f) + 1)


def test_traces_compare_by_value():
    problem, f = disjoint_problem(), RandomBlock(3, 4, 2)

    def run(x0):
        return run_unrestricted_dr(problem, f, 3, Point(x0), never_stop(20))

    assert run([3.0, -2.0]) == run([3.0, -2.0])
    assert run([3.0, -2.0]) != run([3.0, -1.0])


class HalveInto(Operator):
    """x -> x / 2, written into one buffer that every call returns."""

    def __init__(self, dim):
        super().__init__(dim)
        self.buf = np.empty(dim)

    def _apply(self, x):
        return np.multiply(x, 0.5, out=self.buf)


class Constant(Operator):
    """x -> the vector of all `value`, in value's own dtype."""

    def __init__(self, dim, value):
        super().__init__(dim)
        self.value = value

    def _apply(self, x):
        return np.full(x.shape, self.value)


def test_product_keeps_a_float_copy_of_each_operator_output():
    # An operator may reuse or keep the array it returns: the product trace
    # neither aliases nor freezes it, and stores integer outputs as floats
    T, x0 = HalveInto(2), Point([1.0, -2.0])
    trace = run_unrestricted_product([T], Cyclic(1), x0, never_stop(5))
    assert [s.iterate for s in trace.steps] == [
        Point([2.0**-n, -(2.0 ** (1 - n))]) for n in range(6)
    ]
    assert T.buf.flags.writeable
    ints, floats = (
        run_unrestricted_product([Constant(2, v)], Cyclic(1), x0, never_stop(2))
        for v in (2, 2.0)
    )
    assert all(x.dtype == np.float64 for x in ints.iterates)
    assert format_trace(ints, 2) == format_trace(floats, 2)


def repeating_problem():
    # Two overlapping boxes and a halfspace through their overlap fix an
    # iterate inside them; the far ball keeps the problem infeasible
    return FeasibilityProblem([Box([0.0, 0.0], [2.0, 2.0]), Box([1.0, 1.0], [3.0, 3.0]),
                               Halfspace([1.0, 1.0], 3.5), Ball([10.0, 10.0], 1.0)])


def repeated_rows(trace):
    """The rows whose iterate has the bytes of the row before it."""
    x = trace.iterates
    return [n for n in range(1, len(x)) if x[n].tobytes() == x[n - 1].tobytes()]


def shared_rows(trace):
    x = trace.iterates
    return [n for n in range(1, len(x)) if x[n] is x[n - 1]]


def test_unchanged_iterate_shares_the_previous_array():
    # A window whose sets hold the iterate returns it bit for bit: its row
    # keeps the previous array, distance and certifier residual
    problem = repeating_problem()
    trace = run_unrestricted_dr(problem, Cyclic(4), 2, Point([5.0, -2.0]), never_stop(40),
                                certifier=dr_operator(problem.sets))
    repeats = repeated_rows(trace)
    assert repeats == [5, 9, 13, 17, 21, 25, 29, 33, 37]
    assert shared_rows(trace) == repeats
    for n in repeats:
        assert trace.max_set_distances[n] == trace.max_set_distances[n - 1]
        assert trace.certifier_residuals[n] == trace.certifier_residuals[n - 1]
    assert step_rows(trace) == reference_rows(
        lambda n: (build_S(problem, Cyclic(4), 2, n - 1), f"S{n - 1}"),
        Point([5.0, -2.0]), 40, problem, dr_operator(problem.sets))


class CountingBox(Box):
    """A box whose distance counts the points it measures."""

    measured: list = []

    def _distance(self, x):
        CountingBox.measured.append(x)
        return super()._distance(x)


class CountingProjection(Projection):
    """A projection that counts its calls."""

    def __init__(self, set_):
        super().__init__(set_)
        self.calls = 0

    def _apply(self, x):
        self.calls += 1
        return super()._apply(x)


def product_with_repeats(stop):
    """P1 twice, then P2, over two disjoint boxes: every third step projects
    onto the box that already holds the iterate."""
    sets = [CountingBox([0.0, 0.0], [1.0, 1.0]), CountingBox([3.0, 0.0], [4.0, 1.0])]
    ops = [Projection(sets[0]), Projection(sets[0]), Projection(sets[1])]
    certifier = CountingProjection(sets[1])
    CountingBox.measured = []
    trace = run_unrestricted_product(ops, Cyclic(3), Point([2.0, 5.0]), stop,
                                     problem=FeasibilityProblem(sets), certifier=certifier)
    assert trace.terminal_status == MAX_ITERS
    repeats = repeated_rows(trace)
    assert repeats == list(range(2, stop.max_iters + 1, 3))
    # the product copies each output, and still keeps the previous array
    assert shared_rows(trace) == repeats
    assert certifier.calls == len(trace.iterates) - len(repeats)
    return trace, repeats


def test_unchanged_iterate_after_a_known_row_measures_nothing():
    trace, repeats = product_with_repeats(never_stop(30))
    # each set measures every row but the repeated ones, once
    assert len(CountingBox.measured) == 2 * (len(trace.iterates) - len(repeats))


def test_unchanged_iterate_after_a_deferred_row_measures_nothing():
    # The step before each repeat moves by more than displacement_tol, so its
    # row is deferred; the repeat can stop the run, and copies that row's
    # distance from the batch that measures it
    trace, repeats = product_with_repeats(StopRule(30, displacement_tol=0.5,
                                                   feasibility_tol=0.0))
    assert all(trace.displacements[n - 1] > 0.5 for n in repeats)
    assert len(CountingBox.measured) == 2 * (len(trace.iterates) - len(repeats))
    assert not any(math.isnan(d) for d in trace.max_set_distances)


class Negate(Operator):
    """x -> -x, which maps 0.0 to -0.0."""

    def _apply(self, x):
        return -x


class NudgeUp(Operator):
    """x -> x plus the smallest subnormal in its first coordinate."""

    def _apply(self, x):
        return x + np.array([5e-324, 0.0])


def test_step_to_negative_zero_keeps_its_own_array():
    x0 = Point([0.0, 0.0])
    trace = run_unrestricted_product([Negate(2)], Cyclic(1), x0, never_stop(2))
    assert trace.displacements == [0.0, 0.0, 0.0]
    assert shared_rows(trace) == []
    assert [np.signbit(x).tolist() for x in trace.iterates] == [[False] * 2, [True] * 2,
                                                                 [False] * 2]
    assert format_trace(trace, 2).splitlines()[2] == "1,T1,0.0,0.0,-0.0,-0.0"


def test_step_by_a_subnormal_keeps_its_own_array():
    trace = run_unrestricted_product([NudgeUp(2)], Cyclic(1), Point([0.0, 0.0]),
                                     never_stop(1))
    assert shared_rows(trace) == []
    assert trace.displacements[1] == 5e-324
    assert list(trace.iterates[1]) == [5e-324, 0.0]


def reference_format(trace, dim):
    """format_trace with every row's coordinates formatted anew."""
    with_certifier = any(c is not None for c in trace.certifier_residuals)
    lines = ["n,applied_operator_id,displacement,max_set_distance,"
             + ",".join(f"coord_{i + 1}" for i in range(dim))
             + (",certifier_residual" if with_certifier else "")]
    for n, s in enumerate(trace.steps):
        row = [str(n), s.applied_operator_id, repr(s.displacement),
               repr(s.max_set_distance), *map(repr, s.iterate)]
        if with_certifier:
            row.append(repr(s.certifier_residual))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("x0", [[0.0, 0.0], [0.0, 0.5]])
def test_trace_format_matches_a_reference_formatter(x0):
    # Negation maps 0.0 to -0.0 and the box keeps every row it gets, so rows
    # alternate between a new array, equal to the last one from 0.0 on, and
    # the same array; with the arrays copied every row is a distinct array
    ops = [Negate(2), Projection(Box([-1.0, -1.0], [1.0, 1.0]))]
    trace = run_unrestricted_product(ops, Cyclic(2), Point(x0), never_stop(8))
    assert shared_rows(trace) == [2, 4, 6, 8]
    copied = IterationTrace([x.copy() for x in trace.iterates], trace.displacements,
                            trace.max_set_distances, trace.operator_ids,
                            trace.certifier_residuals)
    expected = reference_format(trace, 2)
    assert format_trace(trace, 2) == format_trace(copied, 2) == expected
    assert "-0.0" in expected


@pytest.mark.parametrize("certified", [False, True])
def test_trace_format_matches_a_reference_formatter_from_the_diff_dimension(certified):
    # From problem_io._DIFF_MIN_DIM on, a new array reformats only the
    # coordinates whose bits changed. Here a few coordinates change between
    # distinct rows, coordinate 5 goes 0.0 -> -0.0 -> 0.0 (equal as floats,
    # not as bits) and the rest keep their bits; rows 1, 4 and 5 repeat the
    # array before them, and with the arrays copied every row is distinct
    dim = problem_io._DIFF_MIN_DIM
    x0 = np.random.default_rng(3).normal(size=dim)
    x0[5] = 0.0
    x1 = x0.copy()
    x1[[0, 7, dim - 1]] = [1.5, -2.25, 1e-300]
    x1[5] = -0.0
    x2 = x1.copy()
    x2[5] = 0.0
    x3 = x2.copy()
    x3[7] = 3.0
    iterates = [x0, x0, x1, x2, x2, x2, x3]
    n = len(iterates)
    residuals = [0.5 * k if certified else None for k in range(n)]
    trace = IterationTrace(iterates, [0.0] + [1.0 / k for k in range(1, n)],
                           [2.0 ** -k for k in range(n)], ["T1", "T2"] * 3 + ["T1"],
                           residuals)
    copied = IterationTrace([x.copy() for x in iterates], trace.displacements,
                            trace.max_set_distances, trace.operator_ids, residuals)
    expected = reference_format(trace, dim)
    assert format_trace(trace, dim) == format_trace(copied, dim) == expected
    rows = [line.split(",") for line in expected.splitlines()[1:]]
    assert [row[4 + 5] for row in rows] == ["0.0", "0.0", "-0.0", "0.0", "0.0", "0.0", "0.0"]
    assert ("certifier_residual" in expected) == certified
