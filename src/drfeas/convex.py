"""Closed convex sets with exact closed-form metric projections.

Five kinds are supported: Halfspace, Hyperplane, Ball, Box and AffineSubspace.
Each knows how to project a point onto itself, measure distance, and report
how deep a point sits in its interior (used to validate declared interior
points). Halfspaces, hyperplanes and affine subspaces hold their data scaled
by a power of two, so its products with ordinary points cannot overflow.

Projections take one point of shape (d,) or a batch of shape (..., d); a
batch row gets the arithmetic of a single point, so it has the same bits.

Every kind also measures the distances from x to a whole family of its
sets at once, from data stacked into matrices (``STACKED_DISTANCES``;
halfspaces and hyperplanes share one family); an entry that is not finite
is left for the set's own ``_distance``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from .space import Point, _checked_coords, _norm, _row_dots, _row_norms

# Largest admissible least-squares residual for an affine system A x = b,
# relative to max(1, ||b||).
AFFINE_CONSISTENCY_TOL = 1e-9

# Most entries of A for which an affine set's data is copied into the stacks
# of its family (see AffineSubspace._family_distances).
_STACK_LIMIT = 1 << 16


#: x -> the distances from x to each set of a family, in the family's order.
FamilyDistances = Callable[[np.ndarray], np.ndarray]


class InvalidSet(ValueError):
    """Set parameters violate a construction invariant."""


def _as_vector(v, name: str) -> np.ndarray:
    if isinstance(v, Point):
        arr = np.array(v.coords, dtype=float)
    else:
        arr = np.array(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidSet(f"{name} must be a nonempty vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidSet(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


class ConvexSet(ABC):
    """A nonempty closed convex subset of R^d with a closed-form projection."""

    __slots__ = ("_dim",)

    kind: str = "abstract"

    def __init__(self, dim: int) -> None:
        if int(dim) < 1:
            raise InvalidSet("dimension must be a positive integer")
        self._dim = int(dim)

    @property
    def dim(self) -> int:
        return self._dim

    def _coords(self, x: Point) -> np.ndarray:
        return _checked_coords(x, self._dim, "set")

    def project(self, x: Point) -> Point:
        """Nearest point of the set to x."""
        return Point(self._project(self._coords(x)))

    def distance(self, x: Point) -> float:
        """Euclidean distance from x to the set."""
        return self._distance(self._coords(x))

    def _distance(self, x: np.ndarray) -> float:
        """Distance on raw coordinate arrays (no dimension check)."""
        return _norm(x - self._project(x))

    @abstractmethod
    def _project(self, x: np.ndarray) -> np.ndarray:
        """Projection on raw coordinate arrays (no dimension check).

        Takes a point of shape (d,) or a batch of shape (..., d) and projects
        each row; the sampled checks evaluate all their points in one call.
        """

    @abstractmethod
    def interior_margin(self, x: Point) -> float:
        """Radius of the largest ball around x inside the set.

        Negative when x is outside or on the boundary; -inf for sets with
        empty interior (hyperplanes, proper affine subspaces).
        """

    @abstractmethod
    def scale_hint(self) -> float:
        """Magnitude of the set's defining data, for choosing sampling boxes."""


class _LinearSet(ConvexSet):
    """{x : <a, x> <= b} or {x : <a, x> = b} with a nonzero normal a.

    Projections use a and b scaled by the power of two that puts the largest
    |a_i| in [0.5, 1), so ||a||^2 cannot overflow; the scaling is exact, so
    ordinary inputs give the same bits as the unscaled formulas. The set is
    valid iff a has a nonzero entry and b / ||a||, the distance of the set
    from the origin, is finite.
    """

    __slots__ = ("a", "b", "_sa", "_sb", "_a_norm_sq", "_a_norm")

    #: whether points with <a, x> < b belong to the set (halfspace)
    _one_sided: bool

    def __init__(self, a, b: float) -> None:
        a = _as_vector(a, "a")
        super().__init__(a.shape[0])
        self.a, self.b = a, float(b)
        if not math.isfinite(self.b):
            raise InvalidSet("b must be finite")
        if not a.any():
            raise InvalidSet("degenerate normal: a is zero")
        exponent = int(np.frexp(np.max(np.abs(a)))[1])
        self._sa = np.ldexp(a, -exponent)
        self._a_norm = float(np.linalg.norm(self._sa))
        self._a_norm_sq = self._a_norm * self._a_norm
        try:
            self._sb = math.ldexp(self.b, -exponent)
        except OverflowError:  # b over a tiny a
            self._sb = math.inf
        if self.scale_hint() == math.inf:  # |b| / ||a||
            raise InvalidSet("b / ||a|| overflows: the set has no finite point")

    def _gap(self, x: np.ndarray) -> float:
        """<a, x> - b in the scaled data."""
        return float(np.dot(self._sa, x)) - self._sb

    def _project(self, x: np.ndarray) -> np.ndarray:
        if x.ndim > 1:  # one gap per row, each the dot product of one point
            g = _row_dots(x, self._sa) - self._sb
            if self._one_sided:
                g = np.maximum(g, 0.0)
            return x - (g / self._a_norm_sq)[..., None] * self._sa
        g = self._gap(x)
        if self._one_sided and g <= 0.0:
            return x
        return x - (g / self._a_norm_sq) * self._sa

    def scale_hint(self) -> float:
        return abs(self._sb) / self._a_norm

    @staticmethod
    def _family_distances(sets: Sequence[_LinearSet]) -> FamilyDistances:
        """One matrix of scaled normals: the gap (<a, x> - b) / ||a|| per row,
        clamped at 0 for halfspaces and taken in absolute value for
        hyperplanes."""
        SA = np.stack([c._sa for c in sets])
        sb = np.array([c._sb for c in sets])
        a_norm = np.array([c._a_norm for c in sets])
        one_sided = np.array([c._one_sided for c in sets])

        def distances(x: np.ndarray) -> np.ndarray:
            g = (SA @ x - sb) / a_norm
            return np.where(one_sided, np.maximum(g, 0.0), np.abs(g))

        return distances


class Halfspace(_LinearSet):
    """{x : <a, x> <= b} with a nonzero normal a."""

    __slots__ = ()

    kind = "Halfspace"
    _one_sided = True

    def interior_margin(self, x: Point) -> float:
        return -self._gap(self._coords(x)) / self._a_norm


class Hyperplane(_LinearSet):
    """{x : <a, x> = b} with a nonzero normal a."""

    __slots__ = ()

    kind = "Hyperplane"
    _one_sided = False

    def interior_margin(self, x: Point) -> float:
        self._coords(x)
        return -math.inf


class Ball(ConvexSet):
    """Closed Euclidean ball of positive radius."""

    __slots__ = ("center", "radius")

    kind = "Ball"

    def __init__(self, center, radius: float) -> None:
        center = _as_vector(center, "center")
        super().__init__(center.shape[0])
        if not (0.0 < float(radius) < math.inf):
            raise InvalidSet("radius must be positive and finite")
        self.center = center
        self.radius = float(radius)

    def _project(self, x: np.ndarray) -> np.ndarray:
        if x.ndim > 1:
            return self._project_rows(x)
        v = x - self.center
        d = _norm(v)
        if d <= self.radius:
            return x
        if d == math.inf:
            # x - center overflowed, or its norm does: take the direction from
            # x and the center scaled by a power of two, as _norm does.
            exponent = int(np.frexp(max(np.max(np.abs(x)), np.max(np.abs(self.center))))[1])
            v = np.ldexp(x, -exponent) - np.ldexp(self.center, -exponent)
            d = _norm(v)
        return self.center + (self.radius / d) * v

    def _project_rows(self, x: np.ndarray) -> np.ndarray:
        """_project on a (..., d) batch: rows inside the ball stay, the others
        move to the sphere; a row whose squared distance from the center
        overflows takes the power-of-two branch of a single point."""
        out = x - self.center
        d = _row_norms(out)
        # max(d, radius) is d wherever the row moves, and never 0
        out *= (self.radius / np.maximum(d, self.radius))[..., None]
        out += self.center
        np.copyto(out, x, where=(d <= self.radius)[..., None])
        for i in zip(*np.nonzero(d == math.inf)):
            out[i] = self._project(x[i])
        return out

    def interior_margin(self, x: Point) -> float:
        return self.radius - _norm(self._coords(x) - self.center)

    def scale_hint(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    @staticmethod
    def _family_distances(sets: Sequence[Ball]) -> FamilyDistances:
        """max(||x - c|| - r, 0) per row of a center matrix; a row whose
        squared norm overflows reads inf."""
        centers = np.stack([c.center for c in sets])
        radii = np.array([c.radius for c in sets])

        def distances(x: np.ndarray) -> np.ndarray:
            return np.maximum(_row_norms(x - centers) - radii, 0.0)

        return distances


class Box(ConvexSet):
    """Axis-aligned box {x : lo <= x <= hi} componentwise."""

    __slots__ = ("lo", "hi")

    kind = "Box"

    def __init__(self, lo, hi) -> None:
        lo = _as_vector(lo, "lo")
        hi = _as_vector(hi, "hi")
        if lo.shape != hi.shape:
            raise InvalidSet("lo and hi must have the same dimension")
        if np.any(lo > hi):
            raise InvalidSet("box bounds must satisfy lo <= hi componentwise")
        super().__init__(lo.shape[0])
        self.lo = lo
        self.hi = hi

    def _project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lo, self.hi)

    def interior_margin(self, x: Point) -> float:
        x = self._coords(x)
        return float(min(np.min(x - self.lo), np.min(self.hi - x)))

    def scale_hint(self) -> float:
        return float(max(np.max(np.abs(self.lo)), np.max(np.abs(self.hi))))

    @staticmethod
    def _family_distances(sets: Sequence[Box]) -> FamilyDistances:
        """||x - clip(x, lo, hi)|| per row of stacked bounds."""
        lo = np.stack([c.lo for c in sets])
        hi = np.stack([c.hi for c in sets])

        def distances(x: np.ndarray) -> np.ndarray:
            return _row_norms(x - np.minimum(np.maximum(x, lo), hi))

        return distances


def _affine_steps(x: np.ndarray, A: np.ndarray, b: np.ndarray, pinv_t: np.ndarray) -> np.ndarray:
    """(A x - b) pinv^T, the step from x to its projection onto {x : A x = b},
    for points of shape (..., d), or for one point and a (K, q, d) stack of
    systems; each point and system gets the products of a single one."""
    r = (A @ x[..., None])[..., 0] - b
    return (r[..., None, :] @ pinv_t)[..., 0, :]


class AffineSubspace(ConvexSet):
    """Solution set {x : A x = b} of a consistent linear system.

    A and b are held scaled by the power of two that puts the largest |A_ij|
    in [0.5, 1), as in _LinearSet, so A x cannot overflow for an ordinary
    point (the public A and b are the given data). All arithmetic is the step
    of _affine_steps, with the scaled A's transposed pseudoinverse computed
    once. Systems inconsistent or with no finite point are rejected here.
    """

    __slots__ = ("A", "b", "_sA", "_sb", "_pinv_t")

    kind = "AffineSubspace"

    def __init__(self, A, b) -> None:
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.size == 0:
            raise InvalidSet("A must be a nonempty matrix")
        if not np.all(np.isfinite(A)):
            raise InvalidSet("A must be finite")
        b = _as_vector(b, "b")
        if b.shape[0] != A.shape[0]:
            raise InvalidSet(
                f"b has {b.shape[0]} entries but A has {A.shape[0]} rows"
            )
        super().__init__(A.shape[1])
        A.setflags(write=False)
        self.A = A
        self.b = b
        exponent = int(np.frexp(np.max(np.abs(A)))[1])
        self._sA = np.ldexp(A, -exponent)
        self._pinv_t = np.ascontiguousarray(np.linalg.pinv(self._sA).T)
        # The least-squares residual of the minimum-norm solution, taken back
        # to the units of b before its norm (scaled, it underflows for a huge
        # A). It reads inf or NaN, which fails the test, when b over a tiny A
        # overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            self._sb = np.ldexp(b, -exponent)
            x = self._project(np.zeros(self._dim))
            residual = _norm(np.ldexp(self._sA @ x - self._sb, exponent))
            tol = AFFINE_CONSISTENCY_TOL * max(1.0, _norm(b))
        if not residual <= tol:
            raise InvalidSet(f"inconsistent affine system: least-squares residual {residual:.3e}")

    def _project(self, x: np.ndarray) -> np.ndarray:
        return x - _affine_steps(x, self._sA, self._sb, self._pinv_t)

    def _distance(self, x: np.ndarray) -> float:
        return _norm(_affine_steps(x, self._sA, self._sb, self._pinv_t))

    def interior_margin(self, x: Point) -> float:
        self._coords(x)
        if not self.A.any():
            return math.inf  # zero system: the set is the whole space
        return -math.inf

    def scale_hint(self) -> float:  # the norm of the minimum-norm solution
        return self._distance(np.zeros(self._dim))

    @staticmethod
    def _family_distances(sets: Sequence[AffineSubspace]) -> FamilyDistances:
        """The length of the step per set, from one _affine_steps over the
        stacked (K, q, d) scaled data of the K sets with q rows, so an entry
        has the bits of _distance. Grouping by row count, not padding, keeps a
        many-row set from enlarging the others' stacks; a set with more than
        _STACK_LIMIT entries in A is measured by its own _distance, not copied,
        as the calls a stack saves are small next to its products."""
        groups: dict[int, list[int]] = {}
        own = []
        for k, c in enumerate(sets):
            if c.A.size > _STACK_LIMIT:
                own.append(k)
            else:
                groups.setdefault(c.A.shape[0], []).append(k)
        stacks = [
            (np.array(ks), np.array([sets[k]._sA for k in ks]),
             np.array([sets[k]._sb for k in ks]), np.array([sets[k]._pinv_t for k in ks]))
            for ks in groups.values()
        ]

        def distances(x: np.ndarray) -> np.ndarray:
            out = np.empty(len(sets))
            for ks, A, b, pinv_t in stacks:
                out[ks] = _row_norms(_affine_steps(x, A, b, pinv_t))
            for k in own:
                out[k] = sets[k]._distance(x)
            return out

        return distances


SET_KINDS: dict[str, type[ConvexSet]] = {
    cls.kind: cls for cls in (Halfspace, Hyperplane, Ball, Box, AffineSubspace)
}

# Exact set type -> builder of the distances to a family of such sets; the
# sets of one builder stack together. Every kind of SET_KINDS has one. Keyed
# by exact type because a subclass may redefine _distance; the sets of a
# subclass are measured one at a time.
STACKED_DISTANCES: dict[type[ConvexSet], Callable[[Sequence], FamilyDistances]] = {
    Halfspace: _LinearSet._family_distances,
    Hyperplane: _LinearSet._family_distances,
    Ball: Ball._family_distances,
    Box: Box._family_distances,
    AffineSubspace: AffineSubspace._family_distances,
}


def set_from_params(params: dict) -> ConvexSet:
    """Construct a set from its parameters, keyed as in problem documents."""
    fields = dict(params)
    kind = fields.pop("kind", None)
    cls = SET_KINDS.get(kind)
    if cls is None:
        raise InvalidSet(f"unknown set kind {kind!r}")
    try:
        return cls(**fields)
    except TypeError as exc:
        raise InvalidSet(f"bad parameters for {kind}: {exc}") from exc
