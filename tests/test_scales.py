"""Projections onto every set kind keep their defining properties at data
scales from 1e-150 to 1e150, with halfspace and hyperplane normals from
1e-150 to 1e150: idempotence, zero distance of a projected point and firm
nonexpansiveness, the last computed here with numpy. A problem's stacked
distance vector agrees with each set's own distance at the same scales."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfeas import AffineSubspace, Ball, Box, FeasibilityProblem, Halfspace, Hyperplane, Point

DIM = 3
# Errors are relative to the size of the points, up to this factor.
REL_TOL = 1e-9

KINDS = ["Halfspace", "Hyperplane", "Ball", "Box", "AffineSubspace"]

exponents = st.floats(min_value=-150.0, max_value=150.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def set_through(kind: str, p: np.ndarray, scale: float, normal_scale: float, rng):
    """A set of the given kind that contains p, with data of size scale."""
    if kind in ("Halfspace", "Hyperplane"):
        a = normal_scale * rng.uniform(0.5, 1.0, DIM) * rng.choice([-1.0, 1.0], DIM)
        cls = Halfspace if kind == "Halfspace" else Hyperplane
        return cls(a, float(np.dot(a, p)))
    if kind == "Ball":
        return Ball(p, scale * rng.uniform(0.1, 2.0))
    if kind == "Box":
        lo, hi = scale * rng.uniform(0.0, 1.0, (2, DIM))
        return Box(p - lo, p + hi)
    A = rng.standard_normal((2, DIM))
    return AffineSubspace(A, A @ p)


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, max_examples=25)
@given(exponent=exponents, normal_exponent=exponents, seed=seeds)
def test_projection_properties_across_scales(kind, exponent, normal_exponent, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    p = scale * rng.uniform(-1.0, 1.0, DIM)
    c = set_through(kind, p, scale, 10.0**normal_exponent, rng)
    assert c.distance(Point(p)) <= REL_TOL * scale
    for x, y in p + 4.0 * scale * rng.uniform(-1.0, 1.0, (10, 2, DIM)):
        px, py = c.project(Point(x)).coords, c.project(Point(y)).coords
        tol = REL_TOL * np.linalg.norm(x)
        assert np.linalg.norm(c.project(Point(px)).coords - px) <= tol
        assert c.distance(Point(px)) <= tol
        d, dP = x - y, px - py
        assert np.dot(dP, d) >= np.dot(dP, dP) - REL_TOL * np.dot(d, d)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=25)
@given(exponent=exponents, normal_exponent=exponents, seed=seeds,
       far_exponent=st.floats(min_value=155.0, max_value=300.0))
def test_stacked_distances_match_each_set(exponent, normal_exponent, seed, far_exponent):
    # Every kind three times, interleaved, each set through its own point,
    # plus two balls whose offset from x overflows ||x - c||^2: one at a
    # finite distance and one whose distance passes the largest float.
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    sets = [set_through(kind, scale * rng.uniform(-1.0, 1.0, DIM), scale,
                        10.0**normal_exponent, rng)
            for kind in rng.permutation(KINDS * 3)]
    x = scale * rng.uniform(-4.0, 4.0, DIM)
    far_balls = [Ball(x + 10.0**far_exponent * rng.uniform(0.5, 1.0, DIM), scale),
                 Ball(1.5e308 * rng.choice([-1.0, 1.0], DIM), scale)]
    for ball in far_balls:
        sets.insert(int(rng.integers(len(sets) + 1)), ball)
    stacked = FeasibilityProblem(sets).distances(Point(x))
    each = [c._distance(x) for c in sets]
    tol = 8 * np.finfo(float).eps * max(1.0, np.linalg.norm(x))
    for c, got, want in zip(sets, stacked, each):
        if c in far_balls or not math.isfinite(want):
            assert got == want
        else:
            assert abs(got - want) <= tol
    assert math.inf in each
