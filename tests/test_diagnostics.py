from importlib.resources import files

import numpy as np
import pytest

from drfeas import diagnostics, repro
from drfeas.cli import _check_suite, main
from drfeas.operators import Operator
from drfeas.repro import (
    DrPair,
    bundled_document,
    load_bundled,
    operator_class_reports,
    run_check_suite,
)
from test_in_place import Keeper

from drfeas import (
    Ball,
    Box,
    CheckParameterError,
    Cyclic,
    DimensionMismatch,
    DrOperator,
    FeasibilityProblem,
    Halfspace,
    Hyperplane,
    Point,
    Projection,
    Reflection,
    Relaxation,
    asymptotic_regularity_series,
    build_composite_Q,
    check_firmly_nonexpansive,
    check_nonexpansive,
    check_quasi_nonexpansive,
    composite_reflection,
    dr_operator,
    feasibility_report,
    norm,
)


class Identity(Operator):
    def _apply(self, x):
        return x


def test_identity_has_zero_violation_everywhere():
    assert check_firmly_nonexpansive(Identity(3)).worst_violation == 0.0
    assert check_nonexpansive(Identity(3)).worst_violation == 0.0
    rep = check_quasi_nonexpansive(Identity(3), Point([1.0, 2.0, 3.0]))
    assert rep.worst_violation == 0.0 and rep.passed


def test_ball_projection_firmly_nonexpansive():
    rep = check_firmly_nonexpansive(Projection(Ball([0.0, 0.0], 1.0)),
                                    samples=1000, tol=1e-10)
    assert rep.passed
    assert rep.samples == 1000


def test_halfspace_reflection_fails_firm_nonexpansiveness():
    # hand check: x=(1,0), y=(0.5,0) straddle nothing (both outside), and
    # reflection flips the normal component, so the inequality breaks by
    # 2*(dx_normal)^2 = 0.5 for this pair; sampling must find violations too
    c = Halfspace([1.0, 0.0], 0.0)
    R = Reflection(c)
    x, y = Point([1.0, 0.0]), Point([0.5, 0.0])
    dR = R.apply(x) - R.apply(y)
    violation = float(np.dot(dR.coords, dR.coords) - np.dot(dR.coords, (x - y).coords))
    assert violation == pytest.approx(0.5, abs=1e-12)

    rep = check_firmly_nonexpansive(R, samples=1000, tol=1e-10)
    assert not rep.passed
    assert rep.worst_violation > 0.0


def test_composite_reflection_nonexpansive():
    sets = [Ball([0.0, 0.0], 1.0), Halfspace([1.0, 1.0], 0.5)]
    rep = check_nonexpansive(composite_reflection(sets), samples=1000, tol=1e-10)
    assert rep.passed


def test_relaxed_projection_nonexpansive():
    for lam in (0.25, 1.0, 1.75, 2.0):
        rep = check_nonexpansive(Relaxation(Projection(Ball([0.0, 0.0], 1.0)), lam),
                                 samples=500, tol=1e-10)
        assert rep.passed, lam


def test_dr_operator_firmly_nonexpansive(three_balls):
    rep = check_firmly_nonexpansive(dr_operator(three_balls), samples=1000, tol=1e-10)
    assert rep.passed


def test_quasi_nonexpansive_for_dr_with_common_point(three_balls):
    T = dr_operator(three_balls)
    p = Point([0.5, 0.3])
    assert check_quasi_nonexpansive(T, p, samples=1000, tol=1e-10).passed
    assert check_quasi_nonexpansive(Relaxation(T, 1.5), p, samples=1000, tol=1e-10).passed


def test_quasi_nonexpansive_rejects_non_fixed_point(three_balls):
    T = dr_operator(three_balls)
    with pytest.raises(CheckParameterError, match="residual"):
        check_quasi_nonexpansive(T, Point([5.0, 5.0]))


def test_quasi_check_accepts_projected_point_far_from_origin():
    # ||P(q) - q|| is 2.7e-7 here, ~2e-16 of ||q||: a fixed point in
    # floating point, which an absolute residual tolerance rejects
    P = Projection(Hyperplane([1.0, 2.0, -0.5], 3e9))
    q = P.apply(Point([0.0, 0.0, 0.0]))
    assert norm(P.apply(q) - q) > 1e-10
    assert check_quasi_nonexpansive(P, q, samples=100).passed


@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_quasi_check_rejects_off_hyperplane_point_at_any_scale(scale):
    P = Projection(Hyperplane([1.0, 2.0, -0.5], 3.0 * scale))
    with pytest.raises(CheckParameterError, match="not a fixed point"):
        check_quasi_nonexpansive(P, Point([scale, scale, scale]))


class Stretch(Operator):
    """x -> 2x: fixes the origin, expands every distance."""

    def _apply(self, x):
        return 2.0 * x


def test_quasi_check_rejects_point_of_wrong_dimension(three_balls):
    with pytest.raises(DimensionMismatch):
        check_quasi_nonexpansive(dr_operator(three_balls), Point([0.5, 0.3, 0.0]))


def test_reports_deterministic_given_seed():
    checks = (
        check_firmly_nonexpansive,
        check_nonexpansive,
        lambda T, **kw: check_quasi_nonexpansive(T, Point([0.0, 0.0]), **kw),
    )
    for run in checks:
        T = Projection(Ball([0.3, -0.2], 1.5))
        a = run(T, samples=200, scale=3.0, seed=9)
        b = run(T, samples=200, scale=3.0, seed=9)
        assert a == b
        c = run(T, samples=200, scale=3.0, seed=10)
        assert a.worst_violation == c.worst_violation == 0.0  # both pass regardless
        # A smaller check sees a prefix of the pairs of a larger one with the
        # same seed, so its worst violation cannot be larger. x -> 2x violates
        # all three inequalities, so the worst violations are positive.
        small = run(Stretch(2), samples=200, scale=3.0, seed=9)
        large = run(Stretch(2), samples=1000, scale=3.0, seed=9)
        assert 0.0 < small.worst_violation <= large.worst_violation


def test_overflowing_violation_fails_the_check():
    # At this scale <Tx - Ty, Tx - Ty> overflows unscaled; on pairs scaled by
    # a power of two the violation is finite, and still fails the check
    rep = check_firmly_nonexpansive(Stretch(2), samples=10, scale=1e300)
    assert np.isfinite(rep.worst_violation) and rep.worst_violation > rep.tolerance
    assert not rep.passed


@pytest.mark.parametrize("scale", [1e-100, 1e-170])
@pytest.mark.parametrize("check", [check_firmly_nonexpansive, check_nonexpansive])
def test_expansion_below_unit_scale_fails_the_check(check, scale):
    # M has no floor of 1, so a tiny expansion reads as large as at unit
    # scale; at 1e-170 the squared norms underflow, and the pair is scaled
    # by the power of two of its largest coordinate
    rep = check(Stretch(2), scale=scale)
    assert rep.worst_violation > 0.5 and not rep.passed


def test_norm_past_largest_float_stays_finite():
    # ||x|| of 50 coordinates near 8e307 passes the largest float; the pair is
    # scaled by the power of two of its largest coordinate, not left as inf
    rep = check_nonexpansive(Identity(50), samples=100, scale=8e307)
    assert np.isfinite(rep.worst_violation) and rep.passed


class Zero(Operator):
    def _apply(self, x):
        return 0.0 * x


@pytest.mark.filterwarnings("error::RuntimeWarning")  # _scale must not overflow either
@pytest.mark.parametrize("check", [check_firmly_nonexpansive, check_nonexpansive])
def test_pair_at_the_origin_reads_zero(check):
    # At the smallest subnormal scale some sampled pairs are (0, 0): all four
    # points are the origin, M is 0, and the pair reads 0 rather than 0 / 0
    rep = check(Zero(1), samples=100, scale=5e-324)
    assert rep.worst_violation == 0.0 and rep.passed


def test_non_finite_image_fails_the_check():
    # The reflection sends x1 past the largest float: the image is infinite,
    # and a check fails where it used to raise
    R = Reflection(Halfspace([1.0, 0.0], -1e308))
    rep = check_nonexpansive(R, samples=10, scale=1e307)
    assert not rep.passed and not rep.worst_violation <= rep.tolerance


def test_quasi_check_treats_nan_residual_as_not_fixed():
    # The first reflection sends the origin to x1 = -inf, the second to
    # 2 * (-inf) - (-inf) = NaN, so the fixed-point residual is NaN
    T = composite_reflection([Halfspace([1.0, 0.0], -1e308), Halfspace([1.0, 0.0], 0.0)])
    with pytest.raises(ValueError, match="not a fixed point"):
        check_quasi_nonexpansive(T, Point([0.0, 0.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_checks_and_series_are_silent_where_images_overflow():
    # The reflection sends x1 past the largest float; the checks and the
    # series run with numpy's overflow and invalid flags off, so the caller
    # gets the failed report or the ValueError, not numpy's warning
    R = Reflection(Halfspace([1.0, 0.0], -1e308))
    for check in (check_firmly_nonexpansive, check_nonexpansive):
        rep = check(R, samples=10, scale=1e307)
        assert not rep.passed and np.isnan(rep.worst_violation)
    T = composite_reflection([Halfspace([1.0, 0.0], -1e308), Halfspace([1.0, 0.0], 0.0)])
    with pytest.raises(ValueError, match="not a fixed point"):
        check_quasi_nonexpansive(T, Point([0.0, 0.0]))
    with pytest.raises(ValueError, match="coordinates must be finite"):
        asymptotic_regularity_series(R, Point([1e307, 0.0]), 3)


def sphere_projection(self, x):
    """Ball._project without its d <= radius case: interior points move out
    to the sphere."""
    v = x - self.center
    return self.center + (self.radius / np.linalg.norm(v, axis=-1, keepdims=True)) * v


def overscaled_average(v, x):
    """The DR average scaled by 1.1: 0.55 (x + v) in place of 0.5 (x + v).
    DrOperator._apply and the check suite's DR windows share the average."""
    return 0.55 * (x + v)


@pytest.mark.parametrize(
    "owner, attr, mutant, refuted",
    [
        (Ball, "_project", sphere_projection, ["firmly_nonexpansive[P(C1),d=2]"]),
        (DrOperator, "_average", staticmethod(overscaled_average),
         [f"firmly_nonexpansive[T22,d={d}]" for d in (2, 5, 50)]),
    ],
    ids=["ball_to_sphere", "dr_times_1.1"],
)
def test_ac1_suite_refutes_mutants(monkeypatch, owner, attr, mutant, refuted):
    # Relative violations must not make the checks looser: the AC-1 suite
    # passes on the real operators and fails each mutant where it is wrong.
    assert all(rep.passed for rep in operator_class_reports())
    monkeypatch.setattr(owner, attr, mutant)
    failed = {rep.property_name for rep in operator_class_reports() if not rep.passed}
    assert set(refuted) <= failed


def test_report_invariant_pass_iff_within_tolerance():
    rep = check_firmly_nonexpansive(Reflection(Halfspace([1.0, 0.0], 0.0)),
                                    samples=200, tol=1e-10)
    assert rep.passed == (rep.worst_violation <= rep.tolerance)


def test_parameter_validation():
    with pytest.raises(CheckParameterError):
        check_nonexpansive(Identity(2), samples=0)
    for scale in (0.0, float("nan"), float("inf"), 1e308):  # 2 * 1e308 overflows
        with pytest.raises(CheckParameterError, match="scale"):
            check_nonexpansive(Identity(2), scale=scale)
    with pytest.raises(CheckParameterError):
        check_nonexpansive(Identity(2), seed=-1)
    with pytest.raises(ValueError):
        asymptotic_regularity_series(Identity(2), Point([0.0, 0.0]), 0)


@pytest.mark.parametrize(
    "call, kwargs, error",
    [
        (check_nonexpansive, {"samples": 1.5}, CheckParameterError),
        (check_nonexpansive, {"seed": 1.5}, CheckParameterError),
        (check_firmly_nonexpansive, {"samples": 2.5}, CheckParameterError),
        (check_quasi_nonexpansive, {"p": Point([0.0, 0.0]), "seed": 0.5}, CheckParameterError),
        (asymptotic_regularity_series, {"x0": Point([0.0, 0.0]), "n_steps": 2.5}, ValueError),
        (check_nonexpansive, {"samples": True}, CheckParameterError),
        (check_nonexpansive, {"seed": True}, CheckParameterError),
        (check_firmly_nonexpansive, {"samples": True}, CheckParameterError),
        (check_quasi_nonexpansive, {"p": Point([0.0, 0.0]), "seed": True}, CheckParameterError),
        (asymptotic_regularity_series, {"x0": Point([0.0, 0.0]), "n_steps": True}, ValueError),
    ],
    ids=["samples", "seed", "firm_samples", "quasi_seed", "n_steps", "samples_true",
         "seed_true", "firm_samples_true", "quasi_seed_true", "n_steps_true"],
)
def test_non_integer_parameters_raise_the_module_error(call, kwargs, error):
    # a float count or seed is refused with the module's own error, not a
    # bare TypeError from numpy or range
    with pytest.raises(error, match="must be an integer"):
        call(Identity(2), **kwargs)


def test_numpy_integer_samples_and_seed_pass():
    report = check_nonexpansive(Identity(2), samples=np.int64(5), seed=np.int32(1))
    assert report.passed
    assert type(report.samples) is int  # the int its check returns
    assert asymptotic_regularity_series(Identity(2), Point([0.0, 0.0]), np.int64(2)) == [0.0, 0.0]


class Poison(Operator):
    """Sends every point to NaN."""

    def _apply(self, x):
        return np.full_like(x, np.nan)


def test_asymptotic_series_stops_at_a_non_finite_point():
    with pytest.raises(ValueError, match="coordinates must be finite"):
        asymptotic_regularity_series(Poison(2), Point([1.0, 2.0]), 3)


def test_asymptotic_series_identity_all_zero():
    series = asymptotic_regularity_series(Identity(2), Point([3.0, -1.0]), 10)
    assert series == [0.0] * 10


def test_asymptotic_series_reflection_constant_positive():
    # reflecting through a hyperplane is an involution: the series never decays
    R = Reflection(Hyperplane([0.0, 1.0], 0.0))
    series = asymptotic_regularity_series(R, Point([3.0, 1.0]), 25)
    assert all(v == pytest.approx(2.0, abs=1e-12) for v in series)


def test_asymptotic_series_composite_decays(three_ball_problem):
    Q = build_composite_Q(three_ball_problem, Cyclic(3), 2)
    series = asymptotic_regularity_series(Q, Point([5.0, 5.0]), 200)
    assert series[-1] <= 1e-8


def test_catalog_projections_firmly_nonexpansive_across_dims():
    for dim in (2, 50):
        ones = np.ones(dim)
        sets = [
            Ball(0.3 * ones, 1.5),
            Halfspace(ones, 1.0),
            Hyperplane(ones, 0.25),
            Box(-ones, 0.5 * ones),
        ]
        for c in sets:
            rep = check_firmly_nonexpansive(Projection(c), samples=300, tol=1e-10)
            assert rep.passed, (dim, c.kind)


def test_feasibility_report_interior_point(three_ball_problem):
    report = feasibility_report(three_ball_problem, Point([0.5, 0.3]))
    assert [i for i, _ in report] == [1, 2, 3]
    assert all(d == 0.0 for _, d in report)


def test_feasibility_report_single_violated_set(three_balls):
    problem = FeasibilityProblem(three_balls)
    x = Point([-0.05, 0.75])  # inside balls 1 and 3, outside ball 2
    report = feasibility_report(problem, x)
    positives = [i for i, d in report if d > 0.0]
    assert positives == [2]


def test_feasibility_report_on_converged_terminal_iterate(three_ball_problem):
    from drfeas import StopRule, run_composite

    trace = run_composite(three_ball_problem, Cyclic(3), 2, Point([5.0, 5.0]),
                          StopRule(10_000, 1e-10, 1e-8))
    report = feasibility_report(three_ball_problem, trace.final.iterate)
    assert max(d for _, d in report) <= 1e-8


# One draw per suite: the checks of a suite share one dimension and one
# (samples, scale, seed), so they share one sample.


def _count_generators(monkeypatch) -> list:
    """The seeds of the numpy generators made from here on: one per draw."""
    seeds, real = [], np.random.default_rng

    def counting(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return seeds


def test_a_suite_draws_each_sample_once(monkeypatch, tmp_path, capsys):
    seeds = _count_generators(monkeypatch)
    assert len(operator_class_reports(dims=(2, 5, 50), samples=50)) == 45
    assert seeds == [0, 0, 0]  # one draw per dimension, not one per check
    seeds.clear()
    path = tmp_path / "ac2_three_balls.json"
    path.write_text(bundled_document("ac2_three_balls.json"), encoding="utf-8")
    assert main(["check", str(path), "--samples", "50", "--seed", "4"]) == 0
    assert seeds == [4]


def _checks(suite):
    """The suite's (label, operator, firm) triples, a DrPair read as its two:
    T firm, then V plain."""
    for entry in suite:
        if isinstance(entry, DrPair):
            yield entry.t_label, entry.T, True
            yield entry.v_label, entry.V, False
        else:
            yield entry


def _standalone(suite, samples, scale, seed):
    """The reports of run_check_suite, each from a public check of its own
    operator, called one operator at a time."""
    reports = []
    for label, op, firm in _checks(suite):
        diagnostics._draw_pairs.cache_clear()
        if firm:
            rep = check_firmly_nonexpansive(op, samples, scale, seed,
                                            name=f"firmly_nonexpansive[{label}]")
        else:
            rep = check_nonexpansive(op, samples, scale, seed, name=f"nonexpansive[{label}]")
        reports.append(rep)
    return reports


def _bits(reports):
    return [(r.property_name, r.samples, r.worst_violation.hex(), r.tolerance, r.passed)
            for r in reports]


def test_suite_reports_equal_standalone_checks_on_the_catalog(monkeypatch):
    suites, real = [], repro.run_check_suite

    def spy(suite, *args):
        suites.append((suite, args))
        return real(suite, *args)

    monkeypatch.setattr(repro, "run_check_suite", spy)
    reports = operator_class_reports(samples=200, seed=3)
    [(suite, args)] = suites
    assert {op.dim for _, op, _ in _checks(suite)} == {2, 5, 50}
    assert sum(isinstance(entry, DrPair) for entry in suite) == 15  # five windows per dimension
    assert _bits(reports) == _bits(_standalone(suite, *args))


BUNDLED = sorted(
    p.name for p in files("drfeas").joinpath("problems").iterdir() if p.name.endswith(".json")
)


@pytest.mark.parametrize("name", BUNDLED)
def test_suite_reports_equal_standalone_checks_on_bundled_documents(name):
    problem, config = load_bundled(name)
    suite = _check_suite(problem, config)
    pairs = sum(isinstance(entry, DrPair) for entry in suite)
    assert (pairs > 0) == (config.scheme != "product")  # one per window S_n of Q
    args = (200, problem.sampling_scale(), 1)
    assert _bits(run_check_suite(suite, *args)) == _bits(_standalone(suite, *args))


def test_suite_reports_equal_standalone_checks_on_windows_with_a_user_set():
    # A user set's projection is an array it keeps; the pair averages V's
    # images in place, which never writes into a kept array.
    keeper = Keeper([0.5, -0.25, 1.0])
    ball, halfspace = Ball([0.0, 0.0, 0.0], 1.5), Halfspace([1.0, 1.0, 0.0], 0.5)
    suite = [
        DrPair("T1", "V1", dr_operator([ball, keeper, halfspace])),
        ("P", Projection(keeper), True),
        DrPair("T2", "V2", dr_operator([keeper])),
        DrPair("T3", "V3", dr_operator([halfspace, keeper])),
    ]
    args = (100, 2.0, 7)
    reports = run_check_suite(suite, *args)
    assert [r.property_name for r in reports] == [
        "firmly_nonexpansive[T1]", "nonexpansive[V1]", "firmly_nonexpansive[P]",
        "firmly_nonexpansive[T2]", "nonexpansive[V2]",
        "firmly_nonexpansive[T3]", "nonexpansive[V3]",
    ]
    assert _bits(reports) == _bits(_standalone(suite, *args))
    assert len(keeper.kept) >= 14
    for out, copy in keeper.kept:
        assert out.tobytes() == copy.tobytes()


def _grouped_suite(case):
    """A suite of entries that share their first set, in an order a suite
    of drfeas check or AC-1 never has, and the user sets among them."""
    # most sampled points lie outside the ball, so that its reflection and
    # its DR average move most rows
    ball, box = Ball([0.25, 0.0, -0.5], 0.25), Box([-1.0, -1.0, -1.0], [0.5, 0.5, 2.0])
    halfspace = Halfspace([1.0, 1.0, 0.0], 0.5)
    if case == "one_set_window_first":
        # The one-set window comes before the group's P, R and two-set
        # window, but is checked after them; a later one-set window then
        # reads the same R images again.
        return [
            DrPair("T1", "V1", DrOperator([ball])),
            ("P", Projection(ball), True),
            ("R", Reflection(ball), False),
            DrPair("T2", "V2", DrOperator([ball, halfspace])),
            DrPair("T3", "V3", DrOperator([ball])),
            DrPair("T4", "V4", DrOperator([ball, box, ball])),
        ], []
    if case == "reflection_before_projection":
        return [
            ("R(ball)", Reflection(ball), False),
            ("R(box), firm", Reflection(box), True),
            ("P(ball)", Projection(ball), True),
            ("P(box), plain", Projection(box), False),
            DrPair("T", "V", DrOperator([box, ball])),
        ], []
    keeper = Keeper([0.5, -0.25, 1.0])
    return [
        DrPair("T1", "V1", DrOperator([keeper, ball])),
        ("P(keeper)", Projection(keeper), True),
        ("P(ball)", Projection(ball), True),
        ("R(keeper)", Reflection(keeper), False),
        DrPair("T2", "V2", DrOperator([ball, keeper, halfspace])),
        DrPair("T3", "V3", DrOperator([keeper, keeper])),
    ], [keeper]


@pytest.mark.parametrize(
    "case", ["one_set_window_first", "reflection_before_projection", "keeper_first"])
def test_grouped_suites_equal_standalone_checks(case, monkeypatch):
    # The images each report reads are compared too: a sampled check of a
    # nonexpansive operator reads a worst violation of 0 from most wrong
    # images as well.
    images, real = {}, diagnostics._check

    def spy(name, firm, sample, Tx, Ty, tol):
        images[name] = (Tx.tobytes(), Ty.tobytes())
        return real(name, firm, sample, Tx, Ty, tol)

    monkeypatch.setattr(diagnostics, "_check", spy)
    suite, keepers = _grouped_suite(case)
    args = (100, 2.0, 5)
    reports = run_check_suite(suite, *args)
    grouped = dict(images)
    assert _bits(reports) == _bits(_standalone(suite, *args))
    assert len(grouped) == len(reports) and grouped == images
    for keeper in keepers:
        assert keeper.kept
        for out, copy in keeper.kept:
            assert out.tobytes() == copy.tobytes()


def test_suites_of_other_seeds_and_dimensions_read_their_own_draw():
    # The draw's norms and x - y belong to its key: a suite that follows
    # another of the same dimension and another seed, or of another
    # dimension, reads none of them.
    for dim, seed, samples in [(3, 1, 60), (3, 2, 60), (4, 2, 60), (4, 2, 80), (3, 1, 60)]:
        sets = [Ball(np.linspace(-0.5, 0.5, dim), 1.0), Halfspace(np.ones(dim), 0.25)]
        suite = [("P", Projection(sets[0]), True), ("R", Reflection(sets[1]), False),
                 DrPair("T", "V", DrOperator(sets))]
        args = (samples, 3.0, seed)
        assert _bits(run_check_suite(suite, *args)) == _bits(_standalone(suite, *args))


class HalfTurn(Operator):
    """x -> -x/2: ||Tx - Ty||^2 - <Tx - Ty, x - y> = 0.75 ||x - y||^2, and
    both images are shorter than the pair's longer point."""

    def _apply(self, x):
        return -0.5 * x


def test_violations_are_relative_to_the_largest_norm_of_a_pair():
    samples, scale, seed = 300, 3.0, 4
    P = np.random.default_rng(seed).uniform(-scale, scale, size=(samples, 2, 3))
    x, y = P[:, 0], P[:, 1]
    M = np.maximum(np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1))
    expected = np.max(0.75 * np.linalg.norm(x - y, axis=1) / M)
    rep = check_firmly_nonexpansive(HalfTurn(3), samples, scale, seed)
    assert rep.worst_violation == pytest.approx(expected, rel=1e-12)


class Recorder(Operator):
    """The identity, keeping every array it is applied to."""

    def __init__(self, dim):
        super().__init__(dim)
        self.seen = []

    def _apply(self, x):
        self.seen.append(x)
        return x


def test_operators_see_shared_read_only_contiguous_batches():
    ops = [Recorder(3), Recorder(3)]
    run_check_suite([("a", ops[0], True), ("b", ops[1], False)], 20, 1.0, 0)
    first, second = ops
    assert len(first.seen) == len(second.seen) == 2  # first points, then second points
    for x in first.seen + second.seen:
        assert x.shape == (20, 3) and x.flags.c_contiguous and not x.flags.writeable
    assert first.seen[0] is second.seen[0] and first.seen[1] is second.seen[1]
    quasi = Recorder(3)
    check_quasi_nonexpansive(quasi, Point([0.0, 0.0, 0.0]), samples=20, scale=1.0)
    batch = quasi.seen[-1]
    assert batch.shape == (20, 3) and batch.flags.c_contiguous and not batch.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        batch[0, 0] = 1.0


class Raises(Operator):
    def _apply(self, x):
        raise RuntimeError("operator failed")


def test_suite_holds_no_sample_once_it_returns():
    memo = diagnostics._draw_pairs
    check_nonexpansive(Identity(2), samples=10)
    assert memo.cache_info().currsize == 1  # a check on its own keeps its last sample
    run_check_suite([("id", Identity(2), True)], 10, 1.0, 0)
    assert memo.cache_info().currsize == 0
    with pytest.raises(RuntimeError, match="operator failed"):
        run_check_suite([("id", Identity(2), True), ("raises", Raises(2), False)], 10, 1.0, 0)
    assert memo.cache_info().currsize == 0


@pytest.mark.parametrize(
    "check",
    [check_firmly_nonexpansive, check_nonexpansive,
     lambda T, **kw: check_quasi_nonexpansive(T, Point([0.0, 0.0]), **kw)],
    ids=["firm", "plain", "quasi"],
)
@pytest.mark.parametrize(
    "bad", [{"samples": 0}, {"scale": 0.0}, {"scale": 1e308}, {"seed": -1}],
    ids=["samples", "scale", "scale_overflow", "seed"],
)
def test_each_check_validates_its_parameters_before_the_memo(check, bad):
    # a sample already drawn for valid parameters does not let a bad one through
    check(Identity(2), samples=10, scale=1.0, seed=0)
    with pytest.raises(CheckParameterError, match=next(iter(bad))[:5]):
        check(Identity(2), **{"samples": 10, "scale": 1.0, "seed": 0, **bad})
