import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from drfeas import DimensionMismatch, Point, norm
from drfeas.space import _TINY, _norm, _row_dots, _row_norms

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def point_pairs(draw, max_dim=8):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    xs = draw(st.lists(finite, min_size=d, max_size=d))
    ys = draw(st.lists(finite, min_size=d, max_size=d))
    return Point(xs), Point(ys)


def test_inner_orthogonal_basis_vectors():
    assert np.dot(Point([1.0, 0.0]).coords, Point([0.0, 1.0]).coords) == 0.0


def test_inner_hand_value():
    # 1*3 + 2*4
    assert np.dot(Point([1.0, 2.0]).coords, Point([3.0, 4.0]).coords) == 11.0


def test_inner_gives_squared_norm():
    x = Point([3.0, 4.0])
    assert np.dot(x.coords, x.coords) == 25.0
    assert norm(x) == 5.0


def left_to_right(terms) -> float:
    """The terms summed in order, from the first."""
    s, *rest = terms
    for t in rest:
        s += t
    return s


def inner(x: np.ndarray) -> float:
    """<x, x> by the dot rule: below 8 coordinates the squares summed left
    to right, from 8 on numpy's dot."""
    return left_to_right((x * x).tolist()) if x.size < 8 else float(np.dot(x, x))


@given(st.lists(finite, min_size=1, max_size=12))
def test_norm_is_sqrt_of_inner(xs):
    # <x, x> is taken by the dot rule. Below _TINY it may have lost bits,
    # and a nonzero x is measured scaled (test_norm_scales_with_a_power_of_two)
    x = Point(xs)
    sq = inner(x.coords)
    assume(sq >= _TINY or not x.coords.any())
    assert norm(x) == math.sqrt(sq)


@pytest.mark.parametrize("d", range(1, 11))
def test_norm_follows_the_dot_rule_on_each_side_of_8(d):
    # A BLAS dot at 2..7 terms (an FMA chain on AVX2 kernels), and a
    # left-to-right sum at 8 or more, differ from the rule in some of these
    # draws; the rule is numpy's add.reduce below 8.
    rng = np.random.default_rng(d)
    for _ in range(300):
        x = rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0, d)
        assert _norm(x) == math.sqrt(inner(x))
        if d < 8:
            assert inner(x) == np.add.reduce(x * x)


@pytest.mark.parametrize("d", range(1, 11))
def test_row_dots_follow_the_dot_rule(d):
    # Below 8 coordinates each row is its products summed left to right from
    # the first: the value of np.add.reduce(v * w, -1), with its bits except
    # that the first two rows, of -0.0 products, stay -0.0 where add.reduce,
    # which starts from 0.0, reads 0.0. From 8 on, numpy's dot of the rows.
    rng = np.random.default_rng(d)
    v = rng.normal(size=(200, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (200, d))
    v[:2] = -0.0
    w = rng.normal(size=(200, d))
    w[:2] = 1.0
    for a, b in ((v, w), (v, w[0]), (v.reshape(4, 50, d), w[:50])):
        got = _row_dots(a, b)
        rows = zip(*(np.broadcast_to(c, a.shape).reshape(-1, d) for c in (a, b)))
        if d < 8:
            want = [left_to_right(np.multiply(x, y).tolist()) for x, y in rows]
            assert np.array_equal(got, np.add.reduce(a * b, axis=-1))
        else:
            want = [np.dot(x, y) for x, y in rows]
        want = np.array(want).reshape(got.shape)
        assert got.shape == a.shape[:-1]
        assert got.tobytes() == want.tobytes()
    assert np.signbit(_row_dots(v[:2], w[:2])).all() == (d < 8)


# Magnitudes whose products with 2^-600 are normal floats
unscaled = st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100))


@given(st.lists(unscaled, min_size=1, max_size=8))
def test_norm_scales_with_a_power_of_two(xs):
    # At 2^-600 every square underflows, so <x, x> alone would read 0
    x = np.array(xs)
    assert _norm(np.ldexp(x, -600)) == math.ldexp(_norm(x), -600)


@pytest.mark.parametrize("s", [-600, -560, -520, -500, -480])
def test_norms_scale_with_a_power_of_two_near_the_threshold(s):
    # 50 coordinates near 1e26 scaled by 2^s: at s = -600 each square is
    # subnormal while their sum may be a normal float, so a sum taken
    # unscaled would keep the bits the squares lost
    for seed in range(20):
        x = 1e26 * np.random.default_rng(seed).uniform(0.5, 1.5, 50)
        y = np.ldexp(x, s)
        assert _norm(y) == math.ldexp(_norm(x), s)
        assert _row_norms(np.stack([y, x]))[0] == math.ldexp(_row_norms(x[None])[0], s)


def test_combine_identity_case():
    assert 1.0 * Point([1.0, 2.0]) + 0.0 * Point([9.0, 9.0]) == Point([1.0, 2.0])


def test_combine_midpoint():
    assert 0.5 * Point([2.0, 0.0]) + 0.5 * Point([0.0, 2.0]) == Point([1.0, 1.0])


def test_combine_two_x_minus_x():
    x = Point([1.0, 1.0])
    assert 2.0 * x - x == x


@given(point_pairs())
def test_combine_exact_for_unit_coefficients(pair):
    x, y = pair
    assert x + 0.0 * y == x
    assert 0.0 * x + y == y
    assert x - x == Point(np.zeros(x.dim))
    # + and - give the bits of the unit-coefficient combinations 1*x + 1*y, 1*x - 1*y
    assert (x + y).coords.tobytes() == (1.0 * x.coords + 1.0 * y.coords).tobytes()
    assert (x - y).coords.tobytes() == (1.0 * x.coords + -1.0 * y.coords).tobytes()


@given(st.lists(finite, min_size=1, max_size=8))
def test_combine_doubling_cancels_exactly(xs):
    x = Point(xs)
    assert 2.0 * x - x == x


def test_combine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Point([1.0]) + Point([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        Point([1.0]) - Point([1.0, 2.0])


@pytest.mark.parametrize("bad", [[], [float("nan")], [1.0, float("inf")]])
def test_point_rejects_bad_coords(bad):
    with pytest.raises(ValueError):
        Point(bad)


def test_point_rejects_matrix():
    with pytest.raises(ValueError):
        Point([[1.0, 2.0], [3.0, 4.0]])


def test_point_is_immutable():
    x = Point([1.0, 2.0])
    with pytest.raises(ValueError):
        x.coords[0] = 5.0


def test_point_sequence_protocol():
    x = Point([1.5, -2.0, 0.0])
    assert x.dim == len(x) == 3
    assert list(x) == [1.5, -2.0, 0.0]
    assert x[1] == -2.0


def test_point_arithmetic_sugar():
    x = Point([1.0, 2.0])
    y = Point([0.5, -1.0])
    assert x + y == Point([1.5, 1.0])
    assert x - y == Point([0.5, 3.0])
    assert 2.0 * x == Point([2.0, 4.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "op",
    [
        lambda: Point([1e308]) + Point([1e308]),
        lambda: Point([1e308]) - Point([-1e308]),
        lambda: 1e10 * Point([1e308]),
        lambda: math.inf * Point([0.0]),  # inf * 0 is NaN
    ],
    ids=["add", "sub", "mul", "inf_times_zero"],
)
def test_point_arithmetic_past_largest_float_raises_value_error(op):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        op()


def test_norm_past_largest_float_is_inf():
    assert norm(Point([3e200, -4e200])) == pytest.approx(5e200)
    assert norm(Point([1.5e308, 1.5e308])) == math.inf
