import math
import tracemalloc

import numpy as np
import pytest

from drfeas import (
    AffineSubspace,
    Ball,
    Box,
    DimensionMismatch,
    FeasibilityProblem,
    Halfspace,
    Hyperplane,
    InvalidSet,
    Point,
    Projection,
    norm,
    set_from_params,
)
from drfeas.convex import SET_KINDS, STACKED_DISTANCES

# One instance per kind in R^3, used by the sampled property tests.
def catalog():
    return [
        Halfspace([1.0, -2.0, 0.5], 0.7),
        Hyperplane([0.0, 1.0, 1.0], -0.3),
        Ball([0.5, -1.0, 2.0], 1.25),
        Box([-1.0, -0.5, 0.0], [1.0, 0.5, 2.0]),
        AffineSubspace([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], [1.0, 0.5]),
    ]


def member_of(c, rng):
    """Sample a member of c whose membership is verifiable algebraically."""
    u = rng.uniform(-3.0, 3.0, size=c.dim)
    if isinstance(c, (Halfspace, Hyperplane)):
        a = c.a
        slack = rng.uniform(0.0, 2.0) if isinstance(c, Halfspace) else 0.0
        tangent = u - a * (np.dot(a, u) / np.dot(a, a))
        z = a * ((c.b - slack) / np.dot(a, a)) + tangent
        assert np.dot(a, z) <= c.b + 1e-9
        return Point(z)
    if isinstance(c, Ball):
        direction = u if np.linalg.norm(u) > 0 else np.ones(c.dim)
        direction = direction / np.linalg.norm(direction)
        z = c.center + rng.uniform(0.0, 1.0) * c.radius * direction
        assert np.linalg.norm(z - c.center) <= c.radius + 1e-12
        return Point(z)
    if isinstance(c, Box):
        return Point(c.lo + rng.uniform(0.0, 1.0, size=c.dim) * (c.hi - c.lo))
    # affine subspace: particular solution plus a null-space perturbation,
    # both derived here rather than through the class under test
    x_p, *_ = np.linalg.lstsq(c.A, c.b, rcond=None)
    _, s, vh = np.linalg.svd(c.A)
    rank = int(np.sum(s > 1e-12))
    z = x_p
    for row in vh[rank:]:
        z = z + rng.uniform(-3.0, 3.0) * row
    assert np.linalg.norm(c.A @ z - c.b) <= 1e-9
    return Point(z)


def kkt_projection(A, b, x):
    """Equality-constrained least squares via the KKT system (test oracle)."""
    k, d = A.shape
    K = np.block([[np.eye(d), A.T], [A, np.zeros((k, k))]])
    rhs = np.concatenate([x, b])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:d]


def test_halfspace_projection_hand_value_and_grid_oracle():
    c = Halfspace([1.0, 0.0], 0.0)  # x1 <= 0
    p = c.project(Point([2.0, 3.0]))
    assert norm(p - Point([0.0, 3.0])) <= 1e-12
    # oracle: scan the boundary line {x1 = 0}
    ts = np.linspace(-10.0, 10.0, 40001)
    dists = np.hypot(2.0, 3.0 - ts)
    best = ts[np.argmin(dists)]
    assert abs(best - p[1]) <= 1e-3


def test_ball_projection_radial_formula_and_grid_oracle():
    c = Ball([0.0, 0.0], 1.0)
    p = c.project(Point([3.0, 4.0]))
    assert norm(p - Point([0.6, 0.8])) <= 1e-12
    # oracle: dense angular grid on the sphere
    thetas = np.linspace(0.0, 2.0 * math.pi, 40001)
    cands = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    best = cands[np.argmin(np.linalg.norm(cands - [3.0, 4.0], axis=1))]
    assert np.linalg.norm(best - p.coords) <= 1e-3


def test_affine_projection_matches_kkt_oracle():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((2, 4))
    b = A @ rng.standard_normal(4)  # consistent by construction
    c = AffineSubspace(A, b)
    for _ in range(20):
        x = rng.uniform(-5.0, 5.0, size=4)
        expected = kkt_projection(A, b, x)
        assert np.linalg.norm(c.project(Point(x)).coords - expected) <= 1e-8


@pytest.mark.parametrize("c", catalog(), ids=lambda c: c.kind)
def test_projection_of_member_is_identity(c):
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = member_of(c, rng)
        assert norm(c.project(z) - z) <= 1e-9


@pytest.mark.parametrize("c", catalog(), ids=lambda c: c.kind)
def test_projection_idempotent_and_contained(c):
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = Point(rng.uniform(-8.0, 8.0, size=c.dim))
        p = c.project(x)
        assert c.distance(p) <= 1e-9
        assert norm(c.project(p) - p) <= 1e-10


@pytest.mark.parametrize("c", catalog(), ids=lambda c: c.kind)
def test_projection_firmly_nonexpansive_sampled(c):
    rng = np.random.default_rng(5)
    for _ in range(1000):
        x = Point(rng.uniform(-8.0, 8.0, size=c.dim))
        y = Point(rng.uniform(-8.0, 8.0, size=c.dim))
        dP = c.project(x) - c.project(y)
        assert np.dot(dP.coords, (x - y).coords) >= np.dot(dP.coords, dP.coords) - 1e-10


@pytest.mark.parametrize("c", catalog(), ids=lambda c: c.kind)
def test_projection_nonexpansive_sampled(c):
    rng = np.random.default_rng(9)
    for _ in range(1000):
        x = Point(rng.uniform(-8.0, 8.0, size=c.dim))
        y = Point(rng.uniform(-8.0, 8.0, size=c.dim))
        assert norm(c.project(x) - c.project(y)) <= norm(x - y) + 1e-10


@pytest.mark.parametrize("c", catalog(), ids=lambda c: c.kind)
def test_variational_characterization(c):
    # <x - Px, z - Px> <= 0 for every member z, up to tolerance
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = Point(rng.uniform(-8.0, 8.0, size=c.dim))
        px = c.project(x)
        z = member_of(c, rng)
        assert np.dot((x - px).coords, (z - px).coords) <= 1e-9


def test_ball_distance_and_contains_examples():
    c = Ball([0.0, 0.0], 1.0)
    assert c.distance(Point([2.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert c.distance(Point([0.0, 0.0])) == 0.0
    assert c.distance(Point([2.0, 0.0])) > 0.5


def test_hyperplane_contains_example():
    c = Hyperplane([0.0, 1.0], 1.0)
    assert c.distance(Point([5.0, 1.0])) == 0.0


def test_box_distance_clamp_example():
    c = Box([0.0, 0.0], [1.0, 1.0])
    assert c.distance(Point([2.0, 2.0])) == pytest.approx(math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("c", catalog(), ids=lambda c: c.kind)
def test_member_distance_is_zero(c):
    rng = np.random.default_rng(17)
    for _ in range(20):
        z = member_of(c, rng)
        assert c.distance(z) <= 1e-9


@pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
def test_huge_normal_keeps_distance(cls):
    # ||a||^2 overflows for a = (1e200, 0); the set is still {x1 <= 0} or {x1 = 0}
    c = cls([1e200, 0.0], 0.0)
    x = Point([1.0, 0.0])
    assert c.distance(x) == 1.0
    assert c.project(x) == Point([0.0, 0.0])
    assert c.a.tolist() == [1e200, 0.0] and c.b == 0.0  # the given data, unscaled
    shifted = cls([1e200, 0.0], 2e200)  # boundary x1 = 2
    assert shifted.distance(Point([5.0, 1.0])) == pytest.approx(3.0)
    assert shifted.scale_hint() == pytest.approx(2.0)


def test_ball_projection_far_from_center():
    # ||x - c||^2 overflows once ||x - c|| exceeds ~1.3e154
    ball = Ball([0.0, 0.0], 1.0)
    x = Point([1e160, 0.0])
    assert ball.project(x) == Point([1.0, 0.0])
    assert ball.distance(x) == pytest.approx(1e160)
    assert ball.interior_margin(x) == pytest.approx(-1e160)
    y = Point([3e200, -4e200])
    assert list(ball.project(y)) == pytest.approx([0.6, -0.8])
    assert ball.distance(y) == pytest.approx(5e200)


def test_ball_projection_when_offset_overflows():
    # x - center overflows to inf although both are finite
    ball = Ball([-1e308, 0.0], 1.0)
    x = Point([1e308, 0.0])
    assert ball.project(x) == Point([-1e308, 0.0])  # the radius is below one ulp
    assert ball.distance(x) == math.inf  # 2e308 is past the largest float
    far = Ball([0.0, 0.0], 1.0)  # here ||x|| itself is past the largest float
    y = Point([1.5e308, -1.5e308])
    assert list(far.project(y)) == pytest.approx([0.5 ** 0.5, -(0.5 ** 0.5)])
    assert far.distance(y) == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ball_distance_when_offset_overflows_but_distance_is_finite():
    # x - center overflows, yet x lies 5e307 beyond the sphere: the closed
    # form max(||x - c|| - r, 0) on x, c and r scaled by one power of two
    # reads it exactly, for one point and in the stacked residual alike
    ball = Ball([-1e308, 0.0], 1.5e308)
    x = Point([1e308, 0.0])
    assert ball.distance(x) == 5e307
    problem = FeasibilityProblem([ball])
    with np.errstate(over="ignore", invalid="ignore"):  # as in the loop
        assert problem._distances(x.coords).tolist() == [5e307]
        assert problem._distances(np.array([x.coords, [0.0, 0.0]])).tolist() == [[5e307], [0.0]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ball_projection_when_offset_overflows_is_silent():
    # x - center overflows on the way to the right projection, 5e307: the
    # public project and apply run with numpy's overflow and invalid flags
    # off, so no warning reaches the caller
    ball = Ball([-1e308, 0.0], 1.5e308)
    x = Point([1e308, 0.0])
    assert ball.project(x) == Point([5e307, 0.0])
    assert Projection(ball).apply(x) == Projection(ball)(x) == Point([5e307, 0.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy flags the overflow
def test_linear_projection_when_step_overflows():
    # The step <a, x> / ||a||^2 overflows for the scaled normal (0.5, 0),
    # although the projection is finite; in the last case the gap <a, x> - b
    # itself is past the largest float
    for c, x, want in (
        (Halfspace([1.0, 0.0], 0.0), [1e308, 0.0], [0.0, 0.0]),
        (Hyperplane([1.0, 0.0], 0.0), [-1e308, 1e308], [0.0, 1e308]),
        (Hyperplane([1.0, 0.0], 1.5e308), [-1.5e308, 1.0], [1.5e308, 1.0]),
    ):
        assert c.project(Point(x)) == Point(want)
        assert c._distance(np.array(x)) == pytest.approx(abs(x[0] - want[0]))
        batch = np.array([x, [1.0, 2.0], x])
        assert np.array_equal(c._project(batch), [want, c._project(batch[1]), want])


def test_linear_projection_keeps_a_member_whose_gap_overflows():
    # Partial sums of <a, x> pass the largest float, so the unscaled gap is
    # not finite; taken at a power-of-two scale it is 0, and x stays
    c = Halfspace([1.5] * 16 + [-1.5] * 16, 0.0)
    x = np.full(32, 1.7e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(c._gap(x))
        assert c._project(x) is x


def test_degenerate_normal_rejected():
    # a tiny normal is no degenerate one: this is the set {x1 <= 1e13}
    tiny = Halfspace([1e-13, 0.0], 1.0)
    assert tiny.distance(Point([2e13, 0.0])) == pytest.approx(1e13)
    with pytest.raises(InvalidSet, match="degenerate"):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(InvalidSet, match="degenerate"):
        Hyperplane([0.0, 0.0], 0.0)


@pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
def test_offset_past_largest_float_rejected(cls):
    # b / ||a|| is past the largest float, so the set has no finite point
    for a, b in (([1e-10, 0.0], 1e308), ([0.5, 0.0], 1.7e308), ([1e-320, 0.0], 1e-10)):
        with pytest.raises(InvalidSet, match="no finite point"):
            cls(a, b)


def test_bad_box_bounds_rejected():
    with pytest.raises(InvalidSet):
        Box([0.0, 1.0], [1.0, 0.0])


def test_nonpositive_radius_rejected():
    with pytest.raises(InvalidSet):
        Ball([0.0, 0.0], 0.0)
    with pytest.raises(InvalidSet):
        Ball([0.0, 0.0], -1.0)
    for radius in (math.inf, math.nan):
        with pytest.raises(InvalidSet, match="finite"):
            Ball([0.0, 0.0], radius)


def test_inconsistent_affine_system_rejected():
    with pytest.raises(InvalidSet, match="inconsistent"):
        AffineSubspace([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])
    # the tolerance grows with ||b||, but not past a gap of 1 at 1e8
    with pytest.raises(InvalidSet, match="inconsistent"):
        AffineSubspace([[1.0, 0.0], [1.0, 0.0]], [1e8, 1e8 + 1.0])


def test_consistent_affine_system_far_from_origin_accepted():
    A = np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 3.0]])
    for scale in (1e7, 1e8, 1e13):
        p = scale * np.array([0.6, -0.48, 0.64])  # ||p|| = scale
        c = AffineSubspace(A, A @ p)
        assert c.distance(Point(p)) <= 1e-9 * scale


def test_unreachable_affine_systems_rejected():
    # Each solution lies past the largest float. Scaled by the power of two
    # of its tiny A, b overflows, so the minimum-norm solution is not finite;
    # the error names that cause, not inconsistency.
    for A, b in (([[1e-200, 0.0]], [1e200]), ([[1e-310]], [1.0])):
        with pytest.raises(InvalidSet, match="no finite point"):
            AffineSubspace(A, b)


def test_affine_consistency_tolerance_is_in_the_units_of_b():
    # [[1, 0], [1, 0]] x = (t, u) has the least-squares residual
    # |u - t| / sqrt(2) whatever the size of A; the tolerance is
    # 1e-9 * ||b|| with no floor, so it scales with b
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    for size in (1e-200, 1.0, 1e200):
        for scale in (2.0**-300, 1.0, 2.0**300):
            AffineSubspace(size * rows, [scale, scale * (1.0 + 1e-9)])
            with pytest.raises(InvalidSet, match="inconsistent"):
                AffineSubspace(size * rows, [scale, scale * (1.0 + 1e-8)])


@pytest.mark.parametrize("gap", [1e-8, 1e-12, 2.0**-300])
def test_empty_affine_system_with_a_tiny_b_rejected(gap):
    # x1 = 0 and x1 = gap have no common point however small the gap: its
    # residual gap / sqrt(2) is most of ||b|| = gap
    with pytest.raises(InvalidSet, match="inconsistent"):
        AffineSubspace([[1.0, 0.0], [1.0, 0.0]], [0.0, gap])


def test_scaled_affine_data_keeps_bits():
    # A and b are stored scaled by the power of two of max |A_ij|, so 2^k A
    # and 2^k b, from entries near 1e-300 to near 1e307, project and measure
    # with the bits of A and b; A x would overflow for the large ones.
    rng = np.random.default_rng(11)
    for q, d in ((1, 3), (2, 3), (3, 3), (2, 7)):
        A = rng.standard_normal((q, d))
        A /= np.max(np.abs(A))
        b = A @ rng.uniform(-1.0, 1.0, d)
        base = AffineSubspace(A, b)
        X = 1e3 * rng.uniform(-1.0, 1.0, (6, d))
        for k in (*range(-996, 1020, 37), 1019):
            c = AffineSubspace(np.ldexp(A, k), np.ldexp(b, k))
            assert np.array_equal(c._project(X), base._project(X)), k
            for x in X:
                assert np.array_equal(c._project(x), base._project(x)), k
                assert c._distance(x) == base._distance(x), k


def test_affine_rows_near_the_largest_float_keep_their_distance():
    # A x is 3e308 at x = (10, 10, 10), past the largest float
    c = AffineSubspace([[1e307] * 3], [0.0])
    x = Point([10.0, 10.0, 10.0])
    assert c.distance(x) == pytest.approx(math.sqrt(300.0), rel=1e-12)
    assert np.all(np.isfinite(c.project(x).coords))
    assert c.distance(c.project(x)) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy flags the overflowing W x
def test_affine_distance_when_w_x_overflows():
    # x is a point of the set, but the partial sums of W x pass the largest
    # float, as the hyperplane's scaled dot product does not
    c = AffineSubspace(np.ones((1, 8)), [0.0])
    x = np.array([1.7e308] * 4 + [-1.7e308] * 4)
    assert Hyperplane(np.ones(8), 0.0)._distance(x) == 0.0
    assert c._distance(x) <= 1e-15 * 1.7e308
    assert np.array_equal(c._project(x), x)
    # Coordinates of 0.5 to 1 times the largest float, of either sign: the
    # distance |x_1 + ... + x_8| / sqrt(8) is never NaN, and inf only where it
    # passes the largest float
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 1.0, (2000, 8)) * rng.choice([-1.0, 1.0], (2000, 8)) * 1.79e308
    got = FeasibilityProblem([c])._distances(X)[:, 0]
    for p, d in zip(X, got):
        want = abs(math.fsum(np.ldexp(p, -3).tolist())) / math.sqrt(8)
        if want < math.ldexp(np.finfo(float).max, -3):
            assert abs(d - math.ldexp(want, 3)) <= 1e-13 * 1.79e308
        else:
            assert d == math.inf
    batch = c._project(X[:50])
    assert batch.tobytes() == np.stack([c._project(p) for p in X[:50]]).tobytes()


def test_projection_dimension_mismatch():
    c = Ball([0.0, 0.0], 1.0)
    with pytest.raises(DimensionMismatch):
        c.project(Point([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        c.distance(Point([1.0]))


def test_interior_margin_semantics():
    ball = Ball([0.0, 0.0], 2.0)
    assert ball.interior_margin(Point([0.0, 0.0])) == pytest.approx(2.0)
    assert ball.interior_margin(Point([3.0, 0.0])) < 0.0
    assert Hyperplane([1.0, 0.0], 0.0).interior_margin(Point([0.0, 0.0])) == -math.inf
    hs = Halfspace([2.0, 0.0], 2.0)  # boundary x1 = 1, unit distance scaling
    assert hs.interior_margin(Point([0.0, 0.0])) == pytest.approx(1.0)
    box = Box([0.0, 0.0], [2.0, 4.0])  # the nearest face bounds the margin
    assert box.interior_margin(Point([0.5, 1.0])) == 0.5
    assert box.interior_margin(Point([1.0, 3.75])) == 0.25
    assert box.interior_margin(Point([3.0, 1.0])) == -1.0
    line = AffineSubspace([[1.0, 0.0]], [2.0])
    assert line.interior_margin(Point([2.0, 5.0])) == -math.inf  # member, but no interior
    whole = AffineSubspace(np.zeros((2, 2)), [0.0, 0.0])  # the zero system
    assert whole.interior_margin(Point([7.0, -3.0])) == math.inf


def test_scale_hint_hand_values():
    assert Box([-3.0, 0.0], [2.0, 4.0]).scale_hint() == 4.0  # the largest |bound|
    assert Box([-5.0, 1.0], [2.0, 4.0]).scale_hint() == 5.0
    # the norm of the minimum-norm solution, 10 / 25 * (3, 4)
    assert AffineSubspace([[3.0, 4.0]], [10.0]).scale_hint() == pytest.approx(2.0)
    assert AffineSubspace([[3.0, 4.0], [6.0, 8.0]], [5.0, 10.0]).scale_hint() == pytest.approx(1.0)
    assert AffineSubspace(np.zeros((1, 2)), [0.0]).scale_hint() == 0.0
    # ||center|| + radius, where ||center||^2 is past the largest float
    assert Ball([1e200, 1e200], 1e199).scale_hint() == pytest.approx(math.sqrt(2) * 1e200 + 1e199)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scale_hints_and_interior_margins_are_silent_on_overflow():
    # Each squared norm, difference or dot product below overflows on the
    # way to a finite answer; the public methods run with the flags off
    assert Ball([1e200, 1e200], 1e199).scale_hint() == pytest.approx(math.sqrt(2) * 1e200 + 1e199)
    assert AffineSubspace([[1.0, 0.0]], [1e200]).scale_hint() == pytest.approx(1e200)
    assert Ball([0.0, 0.0], 1.0).interior_margin(Point([1e160, 0.0])) == -1e160
    assert Box([-1e308], [1e308]).interior_margin(Point([1e308])) == 0.0
    assert Halfspace([1.0] * 4, 0.0).interior_margin(Point([1.7e308] * 4)) == -math.inf


@pytest.mark.parametrize("c", catalog(), ids=lambda c: c.kind)
def test_params_roundtrip(c):
    fields = {
        "Halfspace": ("a", "b"), "Hyperplane": ("a", "b"), "Ball": ("center", "radius"),
        "Box": ("lo", "hi"), "AffineSubspace": ("A", "b"),
    }[c.kind]
    params = {key: np.asarray(getattr(c, key)).tolist() for key in fields}
    clone = set_from_params({"kind": c.kind, **params})
    assert type(clone) is type(c)
    for key in fields:
        assert np.array_equal(getattr(clone, key), getattr(c, key)), key


def test_every_set_kind_has_a_stacked_family():
    # only sets of user subclasses are left to their own _distance per step
    assert set(SET_KINDS.values()) <= set(STACKED_DISTANCES)


def test_affine_sets_and_their_family_hold_one_basis_each():
    # Eight 50 x 1000 systems of rank 50 and their problem hold each set's A
    # and orthonormal basis and one stack of every basis: 24 arrays of
    # 0.4 MB, 9.6 MB, with no room for one more 50 x 1000 array.
    rng = np.random.default_rng(3)
    d, q = 1000, 50
    tracemalloc.start()
    try:
        problem = FeasibilityProblem([
            AffineSubspace(A, A @ rng.standard_normal(d))
            for A in (rng.standard_normal((q, d)) for _ in range(8))
        ])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 9.7e6
    assert all(c._W.shape == (q, d) for c in problem.sets)


def test_affine_basis_has_one_row_per_rank():
    # A 3-row system of rank 2 (its second row is twice the first) holds two
    # orthonormal rows; the zero system holds none and reads 0 in the family,
    # next to sets that have rows.
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, -1.0]])
    p = np.array([0.5, -1.0, 2.0])
    deficient = AffineSubspace(A, A @ p)
    zero = AffineSubspace(np.zeros((2, 3)), np.zeros(2))
    assert deficient._W.shape == (2, 3)
    assert zero._W.shape == (0, 3)
    assert np.allclose(deficient._W @ deficient._W.T, np.eye(2), rtol=0.0, atol=1e-15)
    x = np.array([4.0, 6.0, 5.0])
    want = kkt_projection(A[1:], A[1:] @ p, x)
    assert np.allclose(deficient._project(x), want, rtol=0.0, atol=1e-14)
    sets = [deficient, zero, AffineSubspace([[1.0, 0.0, 0.0]], [1.0])]
    got = FeasibilityProblem(sets).distances(Point(x))
    assert got[1] == 0.0
    assert got == pytest.approx([np.linalg.norm(x - want), 0.0, 3.0], rel=1e-14)


def test_set_from_params_unknown_kind():
    with pytest.raises(InvalidSet):
        set_from_params({"kind": "Simplex", "dim": 2})
