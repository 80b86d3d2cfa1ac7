"""Below space._SMALL (8) coordinates every dot product is the sum of its
products taken left to right, so balls, halfspaces and hyperplanes reflect a
point given as a list of Python floats by kernels unrolled for d
(``_float_reflection``, from the templates of ``space._kernel``), and a DR
operator over such sets runs its chain and its average on them. Each kernel
has the bits of the array path, or declines (None) where the array path
takes its operands scaled, and a single point has the bits of its row in a
batch on both sides of the boundary."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from drfeas import AffineSubspace, Ball, Box, DrOperator, Halfspace, Hyperplane
from drfeas.space import _SMALL, _TINY


class RoundBall(Ball):
    """A user subclass: not a built-in kind, so it keeps the array path."""


# (set, point, whether the array path takes the point scaled), one row per
# branch of the scalar forms.
CASES = {
    "ball_outside": (Ball([0.5, -1.0, 2.0], 1.25), [4.0, 4.0, 4.0], False),
    # inside a ball whose points double without overflow: 2x - x, which is
    # x + 0.0, so -0.0 becomes 0.0
    "ball_member": (Ball([0.0, 0.0], 1.0), [-0.0, 0.5], False),
    # inside, where 2x overflows: 2x - x, inf, and -0.0 becomes 0.0
    "ball_member_doubling_overflows": (Ball([9e307, 0.0], 1.0), [9e307, -0.0], False),
    "ball_center": (Ball([-0.0, 2.0, 1.0], 0.5), [0.0, 2.0, 1.0], False),
    # a subnormal coordinate moved by the step to the sphere
    "ball_subnormal_step": (Ball([0.0, 0.0], 1.0), [1.5, 1e-310], False),
    # ||x - c||^2 just above _TINY is summed as it is
    "ball_square_sum_above_tiny": (Ball([0.0, 0.0], 1e-146), [3e-146, 0.0], False),
    # x - c overflows: d == inf
    "ball_offset_overflows": (Ball([1.5e308, 0.0, 0.0], 1.0), [-1.5e308, 1.0, 0.0], True),
    # ||x - c||^2 overflows while x - c does not
    "ball_square_sum_overflows": (Ball([0.0, 0.0], 1.0), [1e200, 1e200], True),
    # ||x - c||^2 underflows to a subnormal or 0 for x != c
    "ball_square_sum_underflows": (Ball([0.0, 0.0], 1e-170), [3e-170, 1e-171], True),
    "halfspace_member": (Halfspace([1.0, -2.0, 0.5], 0.7), [0.0, 1.0, -0.0], False),
    # a member stays x: x - 0 a would turn the -0.0 under a's -1 into 0.0
    "halfspace_member_negative_zeros": (Halfspace([1.0, -1.0], 5.0), [-0.0, -0.0], False),
    "halfspace_outside": (Halfspace([1.0, -2.0, 0.5], 0.7), [3.0, -1.0, 2.0], False),
    "halfspace_gap_overflows": (Halfspace([1.0, -2.0, 0.5], 0.7), [1e308, -1e308, 1e308], True),
    # <a, x> of -0.0 products is -0.0: the step t is -0.0, and x - t a is 0.0
    "hyperplane_negative_zeros": (Hyperplane([1.0, 1.0], 0.0), [-0.0, -0.0], False),
    "hyperplane_outside": (Hyperplane([0.0, 1.0, 1.0], -0.3), [1.0, 2.0, 3.0], False),
    "hyperplane_subnormal_step": (Hyperplane([1.0, 0.0], 0.0), [1e-310, 5.0], False),
    "hyperplane_gap_is_nan": (Hyperplane([1.0, 1.0], 0.0), [1.7e308, -1.7e308], False),
    "hyperplane_step_overflows": (Hyperplane([1.0, 1.0], 0.0), [1.7e308, 1.7e308], True),
}


@pytest.mark.parametrize("case", CASES)
def test_scalar_reflection_has_the_bits_of_the_array_path(case):
    c, x, scaled = CASES[case]
    x = np.array(x)
    with np.errstate(over="ignore", invalid="ignore"):
        want = c._reflect(x)
        got = c._float_reflection()(x.tolist())
    if scaled:
        assert got is None
    else:
        assert np.array(got).tobytes() == want.tobytes()


def test_cases_reach_their_branches():
    # the ball member cases reflect to x + 0.0 and to the inf of a 2x that
    # overflows, and the square sum of the case above _TINY is summed
    # unscaled
    for case, want in (("ball_member", [0.0, 0.5]),
                       ("ball_member_doubling_overflows", [math.inf, 0.0])):
        c, x, _ = CASES[case]
        assert np.array(c._float_reflection()(x)).tobytes() == np.array(want).tobytes()
    c, x, _ = CASES["ball_square_sum_above_tiny"]
    assert _TINY <= sum(t * t for t in x) < 1e-290


@pytest.mark.parametrize("case", CASES)
def test_batch_rows_have_the_bits_of_single_point_projections(case):
    c, x, _ = CASES[case]
    X = np.array([[1.0] * len(x), x])
    X.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):
        assert c._project(X)[1].tobytes() == c._project(X[1]).tobytes()


def reference_dr(sets, x):
    """(x + V x) / 2 on the array path: each set's _reflect on an array."""
    v = x
    for c in sets:
        v = c._reflect(v)
    return (v + x) * 0.5


@pytest.mark.parametrize("case", CASES)
def test_dr_operator_over_each_case_has_the_bits_of_the_array_path(case):
    # The kernels' chain and average on one set, or the array chain where
    # the set declines; a subnormal average halves its sum, not each term.
    c, x, _ = CASES[case]
    op = DrOperator([c])
    x = np.array(x)
    with np.errstate(over="ignore", invalid="ignore"):
        assert op._apply(x).tobytes() == reference_dr([c], x).tobytes()


@pytest.mark.parametrize("d", range(1, _SMALL + 1))
def test_single_points_have_the_bits_of_batch_rows(d):
    # Balls, halfspaces and hyperplanes at every d up to the boundary: below
    # 8 a single point runs on Python floats, at 8 on arrays, and a batch
    # always on arrays. Some points sit at -0.0 coordinates or inside
    # every set, and some are large enough for the scaled branches.
    rng = np.random.default_rng(d)
    sets = [Ball(rng.normal(size=d), 1.5), Halfspace(rng.normal(size=d), 0.3),
            Hyperplane(rng.normal(size=d), -0.2), Ball(rng.normal(size=d), 0.7)]
    ops = [DrOperator(sets), DrOperator(sets[::-1]), DrOperator(sets[3:])]
    assert all(bool(op._floats) == (d < _SMALL) for op in ops)
    X = rng.normal(size=(300, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (300, 1))
    X[:10] = -0.0
    X[10:20] = rng.normal(size=(10, d)) * 1e306
    X.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):
        for op in ops:
            batch = op._apply(X)
            for x, row in zip(X, batch):
                got = op._apply(x)
                assert got.tobytes() == row.tobytes() == reference_dr(op.sets, x).tobytes()


def test_dr_operator_takes_python_floats_only_for_built_in_kinds_below_8():
    balls = [Ball([0.0] * 3, 1.0), Ball([1.0] * 3, 1.0)]
    assert DrOperator(balls)._floats
    assert DrOperator([*balls, Halfspace([1.0] * 3, 0.0), Hyperplane([1.0] * 3, 0.0)])._floats
    assert not DrOperator([Ball([0.0] * 8, 1.0)])._floats
    assert not DrOperator([*balls, Box([0.0] * 3, [1.0] * 3)])._floats
    assert not DrOperator([*balls, AffineSubspace([[1.0, 0.0, 0.0]], [0.0])])._floats
    assert not DrOperator([*balls, RoundBall([0.0] * 3, 1.0)])._floats


def test_a_declined_reflection_runs_the_whole_chain_on_arrays():
    # The ball declines the point the hyperplane reflects x to (its
    # ||x - c||^2 overflows), so the chain is run again on arrays, where the
    # ball takes it scaled.
    sets = [Hyperplane([1.0, 0.0], 0.0), Ball([0.0, 0.0], 1.0)]
    x = np.array([1e200, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        v = sets[0]._float_reflection()(x.tolist())
        assert v is not None and sets[1]._float_reflection()(v) is None
        got = DrOperator(sets)._apply(x)
        assert got.tobytes() == reference_dr(sets, x).tobytes()
    assert np.isfinite(got).all() and not math.isnan(got[0])


def test_kernels_compile_once_per_kind_and_d_on_first_use():
    # In a fresh process: importing drfeas and building sets compiles no
    # kernel; DR operators over many balls of one d compile one ball kernel
    # and one average kernel, whose closures over different centers share
    # one code object, so no set data is in the source.
    script = textwrap.dedent("""
        import numpy as np
        from drfeas import Ball, DrOperator, Halfspace
        from drfeas.space import _kernel
        rng = np.random.default_rng(0)
        balls = [Ball(rng.normal(size=5), 1.0) for _ in range(20)]
        Halfspace(np.ones(5), 0.0)
        assert _kernel.cache_info().currsize == 0
        ops = [DrOperator(balls[i:i + 3]) for i in range(18)]
        assert _kernel.cache_info().currsize == 2
        a, b = ops[0]._floats[:2]
        assert a is not b and a.__code__ is b.__code__
        assert a.__code__.co_filename == "<drfeas ball kernel, d=5>"
        DrOperator([Halfspace(np.ones(4), 0.0)])
        assert _kernel.cache_info().currsize == 4
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
