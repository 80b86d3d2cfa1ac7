"""Projections onto every set kind keep their defining properties at data
scales from 1e-150 to 1e150, with halfspace and hyperplane normals from
1e-150 to 1e150 and affine rows from 1e-150 to 1e300: idempotence, zero
distance of a projected point and firm nonexpansiveness, the last computed
here with numpy. A problem's stacked distance vector agrees with each set's
own distance at the same scales, and every set kind and operator class maps
a (n, d) batch as it maps each of its rows."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfeas import (
    AffineSubspace,
    Ball,
    Box,
    Composition,
    ConvexSet,
    DrOperator,
    FeasibilityProblem,
    Halfspace,
    Hyperplane,
    Operator,
    Point,
    Projection,
    Reflection,
    Relaxation,
)
from drfeas.convex import SET_KINDS

DIM = 3
# Errors are relative to the size of the points, up to this factor.
REL_TOL = 1e-9

KINDS = list(SET_KINDS)
# A batched row may differ from the single point by this much, relative to
# max(1, ||x||): a batch may take a matrix product where a point takes dot
# products, which sum in another order.
BATCH_TOL = 8 * np.finfo(float).eps

exponents = st.floats(min_value=-150.0, max_value=150.0)
far_exponents = st.floats(min_value=155.0, max_value=300.0)
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
    # rows of size 1e-150..1e300, and below 1e300 / scale, so that b = A p is finite
    rows = 10.0 ** rng.uniform(-150.0, 300.0 - max(0.0, math.log10(scale)))
    A = rows * rng.standard_normal((2, DIM))
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
       far_exponent=far_exponents)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=25)
@given(exponent=exponents, seed=seeds, far_exponent=far_exponents)
def test_stacked_affine_distances_match_each_set(exponent, seed, far_exponent):
    # Affine sets with Gaussian rows, of every row count 1..DIM, twice each
    # and interleaved, so the family has one group per row count; the zero
    # system, which is the whole space; a set 1e155..1e300 from x, whose
    # stacked row norm overflows, so it takes the per-set fallback; and a set
    # with normals near the largest float, whose A x would overflow once
    # ||x|| passes ~10 but for the scaled data, so its distance is finite.
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    x = scale * rng.uniform(-4.0, 4.0, DIM)
    sets = []
    for q in rng.permutation(list(range(1, DIM + 1)) * 2):
        A = rng.standard_normal((q, DIM))
        sets.append(AffineSubspace(A, A @ (scale * rng.uniform(-1.0, 1.0, DIM))))
    a = rng.standard_normal((1, DIM))
    far = AffineSubspace(a, a @ x + 10.0**far_exponent * np.linalg.norm(a))
    huge = AffineSubspace([1e307 * np.sign(x)], [0.0])
    for c in (AffineSubspace(np.zeros((2, DIM)), np.zeros(2)), far, huge):
        sets.insert(int(rng.integers(len(sets) + 1)), c)
    stacked = FeasibilityProblem(sets).distances(Point(x))
    each = [c._distance(x) for c in sets]
    tol = 8 * np.finfo(float).eps * max(1.0, np.linalg.norm(x))
    for c, got, want in zip(sets, stacked, each):
        if c is far or not math.isfinite(want):
            assert got == want
        else:
            assert abs(got - want) <= tol
    assert math.isfinite(each[sets.index(far)])
    assert math.isfinite(each[sets.index(huge)])
    assert 0.0 in each


def operators_over(sets, rng):
    """One operator of each class the package defines, built from the sets."""
    return [
        Projection(sets[0]),
        Reflection(sets[1]),
        Relaxation(Reflection(sets[2]), rng.uniform(0.0, 2.0)),
        Composition([Reflection(c) for c in sets[:3]]),
        DrOperator(sets),
    ]


def assert_batch_matches_rows(batched, X, single):
    assert batched.shape == X.shape
    for x, got in zip(X, batched):
        assert np.max(np.abs(got - single(x))) <= BATCH_TOL * max(1.0, np.linalg.norm(x))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=25)
@given(exponent=exponents, normal_exponent=exponents, seed=seeds,
       far_exponent=far_exponents)
def test_batched_projection_matches_each_point(kind, exponent, normal_exponent, seed,
                                               far_exponent):
    # A ball also gets a row whose offset from the center overflows
    # ||x - c||^2: it takes the single-point branch and matches it exactly.
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    p = scale * rng.uniform(-1.0, 1.0, DIM)
    c = set_through(kind, p, scale, 10.0**normal_exponent, rng)
    X = p + 4.0 * scale * rng.uniform(-1.0, 1.0, (8, DIM))
    if kind == "Ball":
        far = int(rng.integers(len(X) + 1))
        X = np.insert(X, far, p + 10.0**far_exponent * rng.uniform(0.5, 1.0, DIM), axis=0)
        assert np.array_equal(c._project(X)[far], c._project(X[far]))
    assert_batch_matches_rows(c._project(X), X, c._project)


@settings(deadline=None, max_examples=25)
@given(exponent=exponents, normal_exponent=exponents, seed=seeds)
def test_batched_operators_match_each_point(exponent, normal_exponent, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    p = scale * rng.uniform(-1.0, 1.0, DIM)
    sets = [set_through(kind, p, scale, 10.0**normal_exponent, rng)
            for kind in rng.permutation(KINDS)]
    X = p + 4.0 * scale * rng.uniform(-1.0, 1.0, (8, DIM))
    for op in operators_over(sets, rng):
        assert_batch_matches_rows(op._apply(X), X, op._apply)


def _concrete_subclasses(base: type) -> set[type]:
    found, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("drfeas.") and not inspect.isabstract(sub):
                found.add(sub)
    return found


def test_batch_properties_cover_every_class():
    # A new set kind or operator class must join the two properties above.
    rng = np.random.default_rng(0)
    sets = [set_through(kind, np.zeros(DIM), 1.0, 1.0, rng) for kind in KINDS]
    assert {type(c) for c in sets} == _concrete_subclasses(ConvexSet)
    assert {type(op) for op in operators_over(sets, rng)} == _concrete_subclasses(Operator)
