"""Batch operations write only into arrays they made themselves. A built-in
kind's projection is x itself or a new array of its own, which the
reflection then doubles and subtracts from in place. The DR operator averages in its own array, and
relaxations and checks form their differences in one array each. Every
in-place form keeps the bits of the expression it replaces. An input batch,
and any array that a user ConvexSet or Operator subclass returns, is only
read."""

import math

import numpy as np
import pytest

from drfeas import (
    AffineSubspace,
    Ball,
    Box,
    Composition,
    ConvexSet,
    DrOperator,
    Halfspace,
    Hyperplane,
    Operator,
    Point,
    Reflection,
    Relaxation,
    check_firmly_nonexpansive,
    check_nonexpansive,
    check_quasi_nonexpansive,
)
from drfeas.convex import SET_KINDS
from drfeas.space import _row_dots, _row_norms


def read_only(rows) -> np.ndarray:
    X = np.array(rows, dtype=float)
    X.setflags(write=False)
    return X


def linear_branch(c, X):
    """Rows whose projection step (<a, x> - b) / ||a||^2 is not finite."""
    return ~np.isfinite((_row_dots(X, c._sa) - c._sb) / c._a_norm_sq)


def ball_branch(c, X):
    """Rows whose ||x - c||^2 overflows."""
    return _row_norms(X - c.center) == math.inf


def affine_branch(c, X):
    """Rows whose W x - c is not finite or has a nonzero entry below the floor."""
    a = np.abs(X @ c._W.T - c._c)
    return ~(((a >= c._floor) | (a == 0.0)) & (a < math.inf)).all(axis=-1)


# Each kind with four rows: a member, which a single-point projection may
# return as it is, a point outside, and two rows that take the kind's
# power-of-two branch (a Box has none). The affine set passes through the
# origin, so a point at 1e-308 has W x - c below its floor. The last ball
# row lies farther than the largest float from the center, so that a single
# point of it takes the branch too.
CASES = {
    "Halfspace": (Halfspace([1.0, -2.0, 0.5], 0.7), linear_branch,
                  [[0.0, 1.0, 0.0], [3.0, -1.0, 2.0],
                   [1e308, -1e308, 1e308], [1.5e308, -1e308, 1e307]]),
    "Hyperplane": (Hyperplane([0.0, 1.0, 1.0], -0.3), linear_branch,
                   [[5.0, -0.3, 0.0], [1.0, 2.0, 3.0],
                    [0.0, 1e308, 1e308], [-1e308, 1.2e308, 1e308]]),
    "Ball": (Ball([0.5, -1.0, 2.0], 1.25), ball_branch,
             [[0.5, -1.0, 2.5], [4.0, 4.0, 4.0],
              [1e200, 1e200, 1e200], [-1.7e308, 0.0, 1.7e308]]),
    "Box": (Box([-1.0, -0.5, 0.0], [1.0, 0.5, 2.0]), None,
            [[0.0, 0.0, 1.0], [3.0, -2.0, 5.0], [1e308, 0.0, -1e308], [-0.0, 0.25, 0.0]]),
    "AffineSubspace": (AffineSubspace([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], [0.0, 0.0]),
                       affine_branch,
                       [[1.0, -1.0, -1.0], [1.0, 2.0, 3.0],
                        [1.7e308, 1.7e308, -1.7e308], [1e-308, 2e-308, -3e-308]]),
}


def test_cases_cover_every_kind():
    assert {type(c) for c, _, _ in CASES.values()} == set(SET_KINDS.values())


def set_arrays(c) -> list:
    """The arrays a set holds (a ball's center, a box's bounds, ...)."""
    slots = (name for cls in type(c).__mro__ for name in getattr(cls, "__slots__", ()))
    return [v for v in (getattr(c, name) for name in slots) if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("kind", CASES)
def test_single_point_projection_is_x_or_a_new_array(kind):
    # _reflect doubles and subtracts in a built-in kind's projection of a
    # point unless it is x, so it may share memory with neither x nor the
    # set's own arrays.
    c, _, rows = CASES[kind]
    X = read_only(rows)
    held = set_arrays(c)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in X:
            out = c._project(x)
            if out is not x:
                assert not any(np.shares_memory(out, a) for a in (x, *held))
                assert out.flags.writeable and out.shape == x.shape


@pytest.mark.parametrize("kind", CASES)
def test_batch_projection_is_a_new_array(kind):
    # A built-in kind's projection of a batch is never the batch itself, so
    # none may share memory with its input, a branch row included.
    c, branch, rows = CASES[kind]
    X = read_only(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        if branch is not None:
            assert branch(c, X)[2:].all() and not branch(c, X)[:2].any()
        for batch in (X, X.reshape(2, 2, 3)):
            out = c._project(batch)
            assert not np.shares_memory(out, batch)
            assert out.flags.writeable and out.shape == batch.shape


@pytest.mark.parametrize("kind", CASES)
def test_reflection_has_the_bits_of_twice_the_projection_minus_x(kind):
    # Single points and batches of every row: a member, a point outside and
    # the power-of-two branch. A projection that is not x is doubled in
    # place, a ball's single point in the array x - c it forms, or in its
    # scaled form. The result is new, and neither x nor the set's own
    # arrays are written.
    c, _, rows = CASES[kind]
    X = read_only(rows)
    held = set_arrays(c)
    before = [a.tobytes() for a in held]
    assert held
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (*X, X, X.reshape(2, 2, 3)):
            want = 2.0 * c._project(x) - x
            got = c._reflect(x)
            assert got.tobytes() == want.tobytes()
            assert not any(np.shares_memory(got, a) for a in (x, *held))
    assert X.tobytes() == read_only(rows).tobytes()
    assert [a.tobytes() for a in held] == before


def test_ball_reflects_a_member_as_x_plus_zero():
    # Inside a ball whose points double without overflow, 2x - x is x + 0.0:
    # -0.0 becomes 0.0, so returning x itself would keep the sign bit.
    ball = Ball([0.0, 0.0], 1.0)
    x = read_only([-0.0, 0.5])
    for got in (ball._reflect(x), Reflection(ball)._apply(x)):
        assert got.tobytes() == (2.0 * x - x).tobytes() == np.array([0.0, 0.5]).tobytes()
        assert got is not x
    assert DrOperator([ball])._apply(x).tobytes() == np.array([0.0, 0.5]).tobytes()


def test_ball_whose_members_overflow_when_doubled_keeps_two_x_minus_x():
    # Here a member's 2x overflows, so its reflection is inf, as 2P(x) - x is.
    ball = Ball([1.5e308, 0.0], 1e308)
    x = read_only([1.6e308, -0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert ball._reflect(x).tobytes() == np.array([math.inf, 0.0]).tobytes()


def test_ball_reflects_a_point_whose_offset_overflows_at_a_power_of_two():
    # x - c overflows, so d is inf, and the single point is reflected from
    # the scaled offset, in a new array, as 2 P(x) - x is: inf where x - c
    # overflows, where 0 * (x - c) would read NaN.
    ball = Ball([1.5e308, 0.0, 0.0], 1.0)
    center = ball.center.copy()
    x = read_only([-1.5e308, 1.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isinf(np.linalg.norm(x - ball.center))
        want = 2.0 * ball._project(x) - x
        got = ball._reflect(x)
    assert not np.isnan(got).any() and got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, x) and not np.shares_memory(got, ball.center)
    assert x.tobytes() == read_only([-1.5e308, 1.0, 0.0]).tobytes()
    assert ball.center.tobytes() == center.tobytes()


def reference_dr(sets, x):
    v = x
    for c in sets:
        v = 2.0 * c._project(v) - v
    return 0.5 * (x + v)


def test_dr_and_relaxation_keep_the_bits_of_their_formulas():
    sets = [c for c, _, _ in CASES.values()]
    rng = np.random.default_rng(3)
    X = read_only(4.0 * rng.uniform(-1.0, 1.0, (16, 3)))
    for x in (*X, X, X.reshape(4, 4, 3)):
        for order in (sets, sets[::-1], sets[2:3]):
            assert DrOperator(order)._apply(x).tobytes() == reference_dr(order, x).tobytes()
        for c in sets:
            want = 0.7 * x + 0.3 * (2.0 * c._project(x) - x)
            assert Relaxation(Reflection(c), 0.3)._apply(x).tobytes() == want.tobytes()


class WholeSpace(ConvexSet):
    """R^d, whose _project returns its input."""

    kind = "WholeSpace"

    def _project(self, x):
        return x

    def interior_margin(self, x):
        return math.inf

    def scale_hint(self):
        return 0.0


class Keeper(ConvexSet):
    """The set {q}; its _project returns an array it keeps, with a copy."""

    kind = "Keeper"

    def __init__(self, q):
        super().__init__(len(q))
        self.q = np.array(q, dtype=float)
        self.kept = []

    def _project(self, x):
        out = np.broadcast_to(self.q, x.shape).copy()
        self.kept.append((out, out.copy()))
        return out

    def interior_margin(self, x):
        return -math.inf

    def scale_hint(self):
        return float(np.max(np.abs(self.q)))


class IdentityOp(Operator):
    """Returns its input."""

    def _apply(self, x):
        return x


class Halving(Operator):
    """x / 2, firmly nonexpansive; returns an array it keeps, with a copy."""

    def __init__(self, dim):
        super().__init__(dim)
        self.kept = []

    def _apply(self, x):
        out = 0.5 * x
        self.kept.append((out, out.copy()))
        return out


def test_user_outputs_and_inputs_are_never_written():
    # An input is read-only, so a write into it raises; a kept array that was
    # written no longer has the bytes of its copy.
    keeper, halving = Keeper([1.0, -2.0, 0.5]), Halving(3)
    whole, ball = WholeSpace(3), Ball([0.0, 0.0, 0.0], 1.0)
    ops = [
        Reflection(whole), Reflection(keeper),
        DrOperator([whole]), DrOperator([keeper]), DrOperator([whole, keeper, ball]),
        Relaxation(IdentityOp(3), 0.5), Relaxation(halving, 1.5),
        Relaxation(Reflection(keeper), 0.25),
        Composition([halving, IdentityOp(3), Reflection(keeper)]), Composition([IdentityOp(3)]),
    ]
    rng = np.random.default_rng(5)
    X = read_only(rng.uniform(-2.0, 2.0, (6, 3)))
    for op in ops:
        for x in (X[0], X, X.reshape(2, 3, 3)):
            op._apply(x)
    reports = [
        check_firmly_nonexpansive(halving, samples=50),
        check_firmly_nonexpansive(IdentityOp(3), samples=50),
        check_nonexpansive(Reflection(keeper), samples=50),
        check_nonexpansive(IdentityOp(3), samples=50),
        check_quasi_nonexpansive(halving, Point([0.0, 0.0, 0.0]), samples=50),
        check_quasi_nonexpansive(IdentityOp(3), Point([1.0, 1.0, 1.0]), samples=50),
        check_firmly_nonexpansive(DrOperator([keeper, whole]), samples=50),
    ]
    assert all(rep.passed for rep in reports)
    assert len(keeper.kept) >= 10 and len(halving.kept) >= 10
    for out, copy in keeper.kept + halving.kept:
        assert out.tobytes() == copy.tobytes()
