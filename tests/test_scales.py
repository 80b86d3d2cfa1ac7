"""Projections onto every set kind keep their defining properties at data
scales from 1e-150 to 1e150, with halfspace and hyperplane normals from
1e-150 to 1e150 and affine rows from 1e-150 to 1e300: idempotence, zero
distance of a projected point and firm nonexpansiveness, the last computed
here with numpy. A problem's stacked distance vector agrees with each set's
own distance at the same scales, and every set kind and operator class maps
a (n, d) batch as it maps each of its rows; a batch's distances keep the
bits of each row's. A whole run of each bundled document, and of a mixed
document whose affine sums of squares overflow, is equivariant under scaling
by a power of two, bit for bit, and so is the table of `drfeas check`."""

import copy
import inspect
import json
import math
from importlib.resources import files
from pathlib import Path

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
from drfeas.cli import main
from drfeas.convex import SET_KINDS
from drfeas.problem_io import execute_config, parse_document

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
    # finite distance and one whose distance passes the largest float. A ball
    # or box entry has the bits of the set's own distance, which computes
    # the family's formula; the other kinds agree to rounding.
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
        if type(c) in (Ball, Box) or not math.isfinite(want):  # the family's formula
            assert got == want
        else:
            assert abs(got - want) <= tol
    assert math.inf in each


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=25)
@given(exponent=exponents, seed=seeds, far_exponent=far_exponents)
def test_stacked_affine_distances_match_each_set(exponent, seed, far_exponent):
    # Affine sets with Gaussian rows, of every row count 1..DIM, twice each
    # and interleaved, so the family's row stack mixes sets of every rank; a
    # rank-deficient set, whose basis has fewer rows than its A; the zero
    # system, which is the whole space and holds no row; a set 1e155..1e300
    # from x, whose stacked sum of squares overflows, so the family sums it
    # again scaled; and a set with normals near the largest float, whose A x
    # would overflow once ||x|| passes ~10, while its basis W x cannot.
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
    A = rng.standard_normal((2, DIM))
    A = np.concatenate([A, 2.0 * A[:1]])  # rank 2
    deficient = AffineSubspace(A, A @ (scale * rng.uniform(-1.0, 1.0, DIM)))
    for c in (AffineSubspace(np.zeros((2, DIM)), np.zeros(2)), far, huge, deficient):
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
    assert deficient._W.shape[0] == 2
    assert 0.0 in each


class MeasuredBall(Ball):
    """A user subclass: its sets are measured one by one, not stacked."""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=25)
@given(exponent=exponents, normal_exponent=exponents, seed=seeds,
       far_exponent=far_exponents)
def test_batched_distances_keep_the_bits_of_each_point(exponent, normal_exponent, seed,
                                                       far_exponent):
    # Each family, and the problem over all of them and a user subclass, maps
    # a (6, d) batch, and a (2, 3, d) one, to rows with the bits of its single
    # points. One row lies 1e155..1e300 away and one near the largest float,
    # so some stacked entries are not finite and fall back to _distance.
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    sets = [set_through(kind, scale * rng.uniform(-1.0, 1.0, DIM), scale,
                        10.0**normal_exponent, rng)
            for kind in rng.permutation(KINDS * 2)]
    sets.insert(int(rng.integers(len(sets) + 1)), MeasuredBall(np.zeros(DIM), scale))
    X = scale * rng.uniform(-4.0, 4.0, (6, DIM))
    X[1] = 10.0**far_exponent * rng.uniform(0.5, 1.0, DIM)
    X[4] = 1.5e308 * rng.choice([-1.0, 1.0], DIM)
    problem = FeasibilityProblem(sets)
    stacked = np.concatenate([family(X) for family in problem._families], axis=-1)
    assert not np.isfinite(stacked).all()
    for measure in (*problem._families, problem._distances):
        batch = measure(X)
        assert batch.tobytes() == np.stack([measure(x) for x in X]).tobytes()
        assert measure(X.reshape(2, 3, DIM)).tobytes() == batch.tobytes()


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


# The parameters of each set kind that are lengths, and scale with the set.
LENGTHS = {"Ball": ("center", "radius"), "Halfspace": ("b",), "Hyperplane": ("b",),
           "Box": ("lo", "hi"), "AffineSubspace": ("b",)}
BUNDLED = sorted(p.name for p in files("drfeas").joinpath("problems").iterdir()
                 if p.name.endswith(".json"))


def scaled_document(doc: dict, k: int) -> dict:
    """doc with its sets, start, interior point and tolerances scaled by 2^k."""
    doc = copy.deepcopy(doc)
    for params in doc["sets"]:
        for key in LENGTHS[params["kind"]]:
            params[key] = np.ldexp(params[key], k).tolist()
    for key in ("x0", "interior_point"):
        if key in doc:
            doc[key] = np.ldexp(doc[key], k).tolist()
    for key in ("displacement_tol", "feasibility_tol"):
        doc["stop"][key] = math.ldexp(doc["stop"][key], k)
    return doc


def mixed_document() -> dict:
    """All five kinds through one point in d = 50, affine sets of rank 2 and
    3 among them, run by cyclic DR from a start 20 units away."""
    rng = np.random.default_rng(5)
    d = 50
    p = rng.normal(size=d)
    sets = []
    for _ in range(3):
        a = rng.normal(size=d)
        sets.append({"kind": "Halfspace", "a": a.tolist(), "b": float(a @ p + 1.0)})
    a = rng.normal(size=d)
    sets.append({"kind": "Hyperplane", "a": a.tolist(), "b": float(a @ p)})
    for _ in range(2):
        u = rng.normal(size=d)
        sets.append({"kind": "Ball", "center": (p + 3.0 * u / np.linalg.norm(u)).tolist(),
                     "radius": 4.0})
    sets.append({"kind": "Box", "lo": (p - 1.0).tolist(), "hi": (p + 1.0).tolist()})
    for rank in (2, 3):
        A = rng.normal(size=(rank, d))
        sets.append({"kind": "AffineSubspace", "A": A.tolist(), "b": (A @ p).tolist()})
    return {"dimension": d, "sets": sets, "scheme": "unrestricted_dr",
            "control": {"rule": "cyclic", "m": len(sets)}, "r": 2,
            "x0": (p + 20.0 * rng.normal(size=d)).tolist(),
            "stop": {"max_iters": 5000, "displacement_tol": 1e-10, "feasibility_tol": 1e-8}}


def assert_runs_scale(doc: dict, k: int) -> None:
    """Every float a run of doc scaled by 2^k computes is the base run's
    times 2^k, bits included. numpy's overflow flags are off: at k = 900 the
    sums of squares overflow, and each is measured again scaled."""
    with np.errstate(over="ignore", invalid="ignore"):
        base, scaled = (execute_config(*parse_document(json.dumps(d)))
                        for d in (doc, scaled_document(doc, k)))
    assert scaled.terminal_status == base.terminal_status
    assert scaled.iterations == base.iterations
    for x, y in zip(base.iterates, scaled.iterates):
        assert np.ldexp(x, k).tobytes() == y.tobytes()
    for column in ("displacements", "max_set_distances"):
        assert [math.ldexp(v, k) for v in getattr(base, column)] == getattr(scaled, column)


def bundled(name: str) -> dict:
    return json.loads(files("drfeas").joinpath("problems", name).read_text())


@pytest.mark.parametrize("k", [-1000, -300, 300, 900])
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_runs_scale_by_powers_of_two(name, k):
    # The interior point's margin is relative to the scale of the point and
    # the set, so it is accepted at every k; at k = 900 the stacked ball
    # family's ||x - c||^2 overflows, and the entry is the family's formula
    # taken scaled
    assert_runs_scale(bundled(name), k)


def test_mixed_run_scales_where_affine_sums_overflow():
    # At k = 900 the affine family's stacked sums of squares overflow, and
    # the family sums each again at a power-of-two scale
    doc = mixed_document()
    base = execute_config(*parse_document(json.dumps(doc)))
    assert base.terminal_status == "converged_displacement"
    assert_runs_scale(doc, 900)


@pytest.mark.parametrize("k", [-1000, 900])
def test_affine_correction_scales_past_underflow(k):
    # data/affine_underflow.json is one window of the seed-1 `wide_mixed`
    # benchmark document 3, in d = 1000: its rank-5 affine set and the
    # halfspace after it, started from the iterate of step 39, where a run
    # of that document scaled by 2^-1000 first moved off the base run. Both
    # tolerances are 0, so the five steps run. At 2^-1000 the entries of
    # W x - c are subnormal, and their products with W lost bits, so one
    # coordinate of the first projection differed; such a point is now
    # projected scaled by a power of two
    path = Path(__file__).parent / "data" / "affine_underflow.json"
    assert_runs_scale(json.loads(path.read_text(encoding="utf-8")), k)


@pytest.mark.parametrize("k", [-1000, -300, 300])
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_checks_read_the_same_at_every_scale(name, k, tmp_path, capsys):
    # The default sampling scale is 4 times the largest scale_hint with no
    # floor, so scaling a document by 2^k scales its sampled pairs by 2^k,
    # and the relative violations keep their bits
    tables = []
    for label, doc in (("base", bundled(name)), ("scaled", scaled_document(bundled(name), k))):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        main(["check", str(path), "--samples", "200"])
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
