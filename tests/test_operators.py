import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drfeas.operators import Operator

from drfeas import (
    Ball,
    Box,
    Composition,
    DimensionMismatch,
    Halfspace,
    Hyperplane,
    Point,
    Projection,
    Reflection,
    Relaxation,
    composite_reflection,
    dr_operator,
    norm,
)

coords2 = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=2, max_size=2
)


class Identity(Operator):
    def _apply(self, x):
        return x


X_AXIS = Hyperplane([0.0, 1.0], 0.0)
Y_AXIS = Hyperplane([1.0, 0.0], 0.0)


def reflect_through_hyperplane(a, b, x):
    # independent closed form used as the oracle for nested reflections
    a, x = np.asarray(a, float), np.asarray(x, float)
    return x - 2.0 * (np.dot(a, x) - b) / np.dot(a, a) * a


def test_reflection_halfspace_hand_value():
    R = Reflection(Halfspace([1.0, 0.0], 0.0))
    assert norm(R.apply(Point([2.0, 3.0])) - Point([-2.0, 3.0])) <= 1e-12


def test_dr_two_hyperplanes_hand_value_and_oracle():
    T = dr_operator([X_AXIS, Y_AXIS])
    x = np.array([1.0, 1.0])
    got = T.apply(Point(x))
    assert norm(got - Point([0.0, 0.0])) <= 1e-12
    v = reflect_through_hyperplane([1.0, 0.0], 0.0, reflect_through_hyperplane([0.0, 1.0], 0.0, x))
    assert np.allclose(got.coords, 0.5 * (x + v), atol=1e-12)


def test_dr_fixes_common_points(three_balls):
    T = dr_operator(three_balls)
    for p in (Point([0.5, 0.3]), Point([0.4, 0.2]), Point([0.6, 0.4])):
        assert norm(T.apply(p) - p) <= 1e-12


def test_relax_lambda_one_behaves_as_operator():
    T = Projection(Ball([0.0, 0.0], 1.0))
    T1 = Relaxation(T, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Point(rng.uniform(-5.0, 5.0, size=2))
        assert norm(T1.apply(x) - T.apply(x)) <= 1e-12


def test_relax_lambda_zero_is_identity():
    T = Projection(Ball([0.0, 0.0], 1.0))
    x = Point([5.0, -5.0])
    assert Relaxation(T, 0.0).apply(x) == x


def test_relax_two_is_reflection():
    T = Relaxation(Projection(Ball([0.0, 0.0], 1.0)), 2.0)
    got = T.apply(Point([3.0, 4.0]))
    assert norm(got - Point([-1.8, -2.4])) <= 1e-12


@pytest.mark.parametrize("lam", [-0.1, 2.5])
def test_relax_rejects_out_of_range(lam):
    with pytest.raises(ValueError):
        Relaxation(Identity(2), lam)


def test_composite_reflection_single_set_is_reflection():
    c = Ball([1.0, 0.0], 2.0)
    V = composite_reflection([c])
    R = Reflection(c)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = Point(rng.uniform(-5.0, 5.0, size=2))
        assert norm(V.apply(x) - R.apply(x)) <= 1e-12


def test_composite_reflection_two_hyperplanes():
    V = composite_reflection([X_AXIS, Y_AXIS])
    assert norm(V.apply(Point([1.0, 1.0])) - Point([-1.0, -1.0])) <= 1e-12


def test_composite_reflection_fixes_common_affine_point():
    planes = [Hyperplane([1.0, 1.0], 2.0), Hyperplane([1.0, -1.0], 0.0)]
    V = composite_reflection(planes)
    p = Point([1.0, 1.0])  # lies on both planes
    assert norm(V.apply(p) - p) <= 1e-12


@given(coords2)
def test_dr_half_identity_invariant(xs):
    sets = [Ball([0.0, 0.0], 1.0), Halfspace([1.0, 1.0], 0.5), Box([-1.0, -1.0], [1.0, 1.0])]
    T = dr_operator(sets)
    V = composite_reflection(sets)
    x = Point(xs)
    expected = 0.5 * x + 0.5 * V.apply(x)
    assert norm(T.apply(x) - expected) <= 1e-12


def test_dr_single_ball_is_projection():
    T = dr_operator([Ball([0.0, 0.0], 1.0)])
    got = T.apply(Point([3.0, 4.0]))
    assert norm(got - Point([0.6, 0.8])) <= 1e-12


def test_empty_factor_lists_rejected():
    with pytest.raises(ValueError):
        dr_operator([])
    with pytest.raises(ValueError):
        composite_reflection([])
    with pytest.raises(ValueError):
        Composition([])


def test_relaxation_preserves_fixed_points(three_balls):
    T = dr_operator(three_balls)
    p = Point([0.5, 0.3])  # common point, hence fixed
    for lam in (0.5, 1.0, 1.5, 2.0):
        assert norm(Relaxation(T, lam).apply(p) - p) <= 1e-10


def test_composition_of_averaged_fixes_common_point(three_balls):
    factors = [
        Projection(three_balls[0]),
        Relaxation(Projection(three_balls[1]), 0.5),
        dr_operator(three_balls[1:]),
    ]
    comp = Composition(factors)
    p = Point([0.5, 0.3])
    assert norm(comp.apply(p) - p) <= 1e-10


def test_reflection_nonexpansive_sampled():
    rng = np.random.default_rng(2)
    for c in (Halfspace([1.0, -0.5], 0.2), Ball([0.5, 0.5], 1.5)):
        R = Reflection(c)
        for _ in range(1000):
            x = Point(rng.uniform(-6.0, 6.0, size=2))
            y = Point(rng.uniform(-6.0, 6.0, size=2))
            assert norm(R.apply(x) - R.apply(y)) <= norm(x - y) + 1e-10


def test_dr_firmly_nonexpansive_sampled(three_balls):
    T = dr_operator(three_balls)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x = Point(rng.uniform(-6.0, 6.0, size=2))
        y = Point(rng.uniform(-6.0, 6.0, size=2))
        dT = T.apply(x) - T.apply(y)
        assert np.dot(dT.coords, (x - y).coords) >= np.dot(dT.coords, dT.coords) - 1e-10


def test_composition_applies_first_to_last():
    # shift by projection onto a point-box, then reflect: order matters
    to_origin = Projection(Box([0.0, 0.0], [0.0, 0.0]))
    reflect = Reflection(Hyperplane([1.0, 0.0], 1.0))
    comp = Composition([reflect, to_origin])
    assert comp.apply(Point([5.0, 5.0])) == Point([0.0, 0.0])
    comp2 = Composition([to_origin, reflect])
    assert comp2.apply(Point([5.0, 5.0])) == Point([2.0, 0.0])


def test_apply_dimension_mismatch():
    T = Projection(Ball([0.0, 0.0], 1.0))
    with pytest.raises(DimensionMismatch):
        T.apply(Point([1.0, 2.0, 3.0]))


def test_mixed_dimension_factors_rejected():
    with pytest.raises(DimensionMismatch):
        Composition([Identity(2), Identity(3)])
    with pytest.raises(DimensionMismatch):
        dr_operator([Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_apply_where_the_offset_from_a_center_overflows_is_silent():
    # x - c overflows, though the projection is an ordinary point
    T = Projection(Ball([-1e308, 0.0], 1.5e308))
    assert T.apply(Point([1e308, 0.0])) == Point([5e307, 0.0])
