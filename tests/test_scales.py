"""Projections onto every set kind keep their defining properties at data
scales from 1e-150 to 1e150, with halfspace and hyperplane normals from
1e-150 to 1e150: idempotence, zero distance of a projected point and firm
nonexpansiveness, the last computed here with numpy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfeas import AffineSubspace, Ball, Box, Halfspace, Hyperplane, Point

DIM = 3
# Errors are relative to the size of the points, up to this factor.
REL_TOL = 1e-9

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


@pytest.mark.parametrize("kind", ["Halfspace", "Hyperplane", "Ball", "Box", "AffineSubspace"])
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
