import math

import pytest

from drfeas import (
    Ball,
    CONVERGED_DISPLACEMENT,
    Cyclic,
    DimensionMismatch,
    Explicit,
    FEASIBLE,
    FeasibilityProblem,
    Halfspace,
    Hyperplane,
    InvalidControl,
    MAX_ITERS,
    NON_FINITE,
    Point,
    Projection,
    RandomBlock,
    StopRule,
    build_S,
    build_composite_Q,
    dr_operator,
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
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="feasibility_tol must be finite"):
            StopRule(feasibility_tol=bad)
        with pytest.raises(ValueError, match="displacement_tol must be finite"):
            StopRule(displacement_tol=bad)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_iterate_stops_with_last_finite_step():
    # the halfspace reflection of x0 doubles x0 and overflows to inf
    problem = FeasibilityProblem([Halfspace([1.0, 0.0], 0.0), Ball([0.0, 0.0], 1.0)])
    x0 = Point([-1e308, 1e308])
    trace = run_unrestricted_dr(problem, Cyclic(2), 2, x0, STOP)
    assert trace.terminal_status == NON_FINITE
    assert trace.iterations == 0
    assert trace.final.iterate == x0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ball_offset_past_squared_overflow_keeps_its_distance():
    # ||x - c||^2 overflows in the stacked ball rows, so the far ball's
    # distance comes from Ball._distance, which rescales before the norm.
    far = Ball([1e200, 0.0], 1.0)
    problem = FeasibilityProblem([Ball([0.0, 0.0], 1.0), far, Ball([0.0, 1.0], 1.0)])
    x0 = Point([3.0, 0.0])
    assert problem.max_distance(x0) == far._distance(x0.coords) == 1e200
    assert problem.distances(x0)[1] == far.distance(x0)
    trace = run_unrestricted_product([Projection(problem.sets[0])], Cyclic(1), x0,
                                     StopRule(max_iters=5), problem=problem)
    assert trace.terminal_status == MAX_ITERS
    assert all(step.max_set_distance == 1e200 for step in trace.steps)


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


def test_sampling_scale_tracks_set_magnitudes():
    small = FeasibilityProblem([Ball([0.0, 0.0], 0.5)])
    big = FeasibilityProblem([Ball([100.0, 0.0], 1.0)])
    assert small.sampling_scale() == 4.0  # floor at 4 * 1.0
    assert big.sampling_scale() == pytest.approx(404.0)
