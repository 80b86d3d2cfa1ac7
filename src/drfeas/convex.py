"""Closed convex sets with exact closed-form metric projections.

Five kinds are supported: Halfspace, Hyperplane, Ball, Box and AffineSubspace.
Each knows how to project a point onto itself, measure distance, and report
how deep a point sits in its interior (used to validate declared interior
points). Halfspaces and hyperplanes hold their normal scaled by a power of
two, and an affine subspace an orthonormal basis of its row space, so their
products with ordinary points cannot overflow.

Projections take one point of shape (d,) or a batch of shape (..., d); a
batch row gets the arithmetic of a single point, so it has the same bits.
A built-in kind's _project returns either x itself or a new array that it
owns. ``ConvexSet._reflect``, the one reflection formula 2 P(x) - x, rests
on that: where the projection is a new array, of a point or a batch, it
doubles it and subtracts x in place (``ConvexSet._reflect_projection``,
which the sampled check suites also apply to the projection images they
share); x itself, and what a user subclass's _project returns, are never
written into. Every kind forms a single point's projection in one array,
so its reflection makes no other d-array.

Every kind also measures the distances from x to a whole family of its
sets at once, from data stacked into matrices (``_family_distances``;
halfspaces and hyperplanes share one family). A ball or box entry has the
bits of the set's own ``_distance``, which computes the family's formula;
a linear or affine entry agrees with it to rounding. A nonzero distance
whose sum of squares underflows is not read as 0: ``space._row_norms``
measures it scaled for balls and boxes, and the affine family sums it again
scaled by its own ``bincount``, as it does a sum that overflows. An entry
that is not finite is left for ``_distance``: for a ball or box whose
squared norm overflows, that is the family's formula taken scaled, and for
the other kinds it happens only near the largest float. Every power-of-two
rescale here takes its exponent from ``space._scaled``. A family takes
one point, giving one distance per set, or a (..., d) batch, giving
(..., sets); a batch row has the bits of its point.

Below ``space._SMALL`` coordinates every norm, gap and stacked family here
follows the dot rule of ``space``: its products are summed left to right.
There a ball, halfspace or hyperplane (``_FLOAT_KINDS``) also reflects a
point given as a list of Python floats, by the closure over its constants
that ``_float_reflection`` makes from a kernel: the ball or the linear
template of ``space._kernel``, unrolled for d and compiled once per process
and d, when a DR operator first binds it. The kernels are the only float
path, which the DR operator takes, and they do the float operations of
``_reflect`` in its order, so they have its bits. A box has a norm to take
but no dot; an affine subspace's products with its basis, and the SVD that
makes it, are numpy's and the BLAS kernel's at every d.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from .space import (
    _SMALL, _TINY, Point, _as_coords, _checked_coords, _dimension, _dot, _kernel, _norm,
    _row_dots, _row_norms, _scaled,
)

# Largest admissible least-squares residual for an affine system A x = b,
# relative to ||b||, so that an empty set is rejected at every scale of b.
AFFINE_CONSISTENCY_TOL = 1e-9


#: x -> the distances from x to each set of a family, in the family's order,
#: along a last axis added to the (...) of a (..., d) batch.
FamilyDistances = Callable[[np.ndarray], np.ndarray]

#: A set's reflection of a point given as a list of d < space._SMALL floats:
#: a new list, or None where the array path takes the point scaled.
FloatReflection = Callable[[list], "list | None"]

# The space._kernel templates of the sets' float reflections: closure
# factories of a set's constants (its radius and center, or its sidedness,
# scaled b, ||a||^2 and scaled normal), so no set data enters the source.
# Each does the float operations of the set's _reflect, in their order, the
# dot rule's sums left to right from the first term, so it has their bits.
_BALL_KERNEL = """\
def ball(r, {, |c#}):
    def reflect(x):
        [{, |x#}] = x
        {; |v# = x# - c#}
        sq = {; sq += |v# * v#}
        if sq == inf or sq < TINY and ({ or |v#}):
            return None
        d = sqrt(sq)
        if d <= r:
            return [{, |2.0 * x# - x#}]
        s = r / d
        return [{, |2.0 * (v# * s + c#) - x#}]
    return reflect
"""
_LINEAR_KERNEL = """\
def linear(one_sided, sb, a_norm_sq, {, |s#}):
    def reflect(x):
        [{, |x#}] = x
        g = {; g += |s# * x#}
        g -= sb
        if one_sided and g <= 0.0:
            return [{, |2.0 * x# - x#}]
        t = g / a_norm_sq
        if not isfinite(t):
            return None
        return [{, |2.0 * (x# - t * s#) - x#}]
    return reflect
"""


class InvalidSet(ValueError):
    """Set parameters violate a construction invariant."""


def _as_vector(v, name: str) -> np.ndarray:
    try:
        return _as_coords(v.coords if isinstance(v, Point) else v, name)
    except ValueError as exc:
        raise InvalidSet(str(exc)) from exc


class ConvexSet(ABC):
    """A nonempty closed convex subset of R^d with a closed-form projection.

    The public project and distance, and the interior_margin and scale_hint
    of the built-in kinds, run with numpy's overflow and invalid flags off,
    since their results report what the flags would (an inf distance); the
    raw _project and _distance set no flags."""

    __slots__ = ("_dim",)

    kind: str = "abstract"

    def __init__(self, dim: int) -> None:
        self._dim = _dimension(dim, InvalidSet)

    @property
    def dim(self) -> int:
        return self._dim

    def _coords(self, x: Point) -> np.ndarray:
        return _checked_coords(x, self._dim, "set")

    def project(self, x: Point) -> Point:
        """Nearest point of the set to x."""
        with np.errstate(over="ignore", invalid="ignore"):
            return Point(self._project(self._coords(x)))

    def distance(self, x: Point) -> float:
        """Euclidean distance from x to the set."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._distance(self._coords(x))

    def _distance(self, x: np.ndarray) -> float:
        """Distance on raw coordinate arrays (no dimension check)."""
        return _norm(x - self._project(x))

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        """2 P(x) - x, the reflection through the set, on raw coordinate
        arrays: a point or a (..., d) batch, as _project takes them. The
        result is always a new array, which the caller may overwrite.

        Where a built-in kind's projection is not x, it is a new array of
        its own, so it is doubled and x subtracted in it, with the
        operations of 2 P(x) - x. Otherwise, x itself or what a user
        subclass's _project returns (an array it may keep), the result is
        2.0 * p, a new array, less x in place."""
        p = self._project(x)
        if p is not x and type(self) in _BUILT_IN:
            return ConvexSet._reflect_projection(p, x)
        r = 2.0 * p
        r -= x
        return r

    @staticmethod
    def _reflect_projection(p: np.ndarray, x: np.ndarray) -> np.ndarray:
        """2 p - x for p = P(x), formed in p, which the caller owns and gives
        up: the reflections of a batch are its projections, doubled and less
        x in place. The sampled check suites turn a set's shared projection
        images into its reflection images with it."""
        p *= 2.0
        p -= x
        return p

    @abstractmethod
    def _project(self, x: np.ndarray) -> np.ndarray:
        """Projection on raw coordinate arrays (no dimension check).

        Takes a point of shape (d,) or a batch of shape (..., d) and projects
        each row; the sampled checks evaluate all their points in one call.
        A built-in kind returns either x itself or a new array that it
        owns, which _reflect may write into.
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
    ordinary inputs give the same bits as the unscaled formulas. A point
    whose projection step (<a, x> - b) / ||a||^2 overflows is projected
    scaled by a power of two, as is the set. The set is valid iff a has a
    nonzero entry and b / ||a||, the distance of the set from the origin, is
    finite.
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
        e, self._sa = _scaled(a)
        self._a_norm = _norm(self._sa)
        self._a_norm_sq = self._a_norm * self._a_norm
        with np.errstate(over="ignore"):  # b over a tiny a reads inf
            self._sb = float(np.ldexp(self.b, -e))
        if self.scale_hint() == math.inf:  # |b| / ||a||
            raise InvalidSet("b / ||a|| overflows: the set has no finite point")

    def _project(self, x: np.ndarray) -> np.ndarray:
        if x.ndim > 1:
            return self._project_rows(x)
        g = _dot(self._sa, x) - self._sb  # <a, x> - b in the scaled data
        if self._one_sided and g <= 0.0:
            return x
        t = g / self._a_norm_sq
        if not math.isfinite(t):
            # <a, x> - b or its quotient overflowed: project x scaled by a
            # power of two onto the set scaled alike, as Ball._project does.
            e, y, sb = _scaled(x, self._sb)
            g = _dot(self._sa, y) - sb
            if self._one_sided and g <= 0.0:
                return x
            return np.ldexp(y - (g / self._a_norm_sq) * self._sa, e)
        out = t * self._sa
        np.subtract(x, out, out=out)
        return out

    def _float_reflection(self) -> FloatReflection:
        """ConvexSet._reflect of a point given as a list of floats, with its
        bits, by the linear kernel; None where _project would take x scaled."""
        return _kernel(_LINEAR_KERNEL, self._dim)(
            self._one_sided, self._sb, self._a_norm_sq, *self._sa.tolist())

    def _project_rows(self, x: np.ndarray) -> np.ndarray:
        """_project on a (..., d) batch: one gap per row, each the dot product
        of one point; a halfspace's member rows stay, as a single member
        does, and a row whose step overflows takes the power-of-two branch
        of a single point."""
        g = _row_dots(x, self._sa) - self._sb
        if self._one_sided:
            g = np.maximum(g, 0.0)
        t = g / self._a_norm_sq
        out = t[..., None] * self._sa
        np.subtract(x, out, out=out)
        if self._one_sided:  # x - 0 a would turn a -0.0 into 0.0
            np.copyto(out, x, where=(g <= 0.0)[..., None])
        for i in zip(*np.nonzero(~np.isfinite(t))):
            out[i] = self._project(x[i])
        return out

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
        small = SA.shape[1] < _SMALL

        def distances(x: np.ndarray) -> np.ndarray:
            dots = _row_dots(x[..., None, :], SA) if small else (SA @ x[..., None])[..., 0]
            g = (dots - sb) / a_norm
            return np.where(one_sided, np.maximum(g, 0.0), np.abs(g))

        return distances


class Halfspace(_LinearSet):
    """{x : <a, x> <= b} with a nonzero normal a."""

    __slots__ = ()

    kind = "Halfspace"
    _one_sided = True

    def interior_margin(self, x: Point) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return -(_dot(self._sa, self._coords(x)) - self._sb) / self._a_norm


class Hyperplane(_LinearSet):
    """{x : <a, x> = b} with a nonzero normal a."""

    __slots__ = ()

    kind = "Hyperplane"
    _one_sided = False

    def interior_margin(self, x: Point) -> float:
        self._coords(x)
        return -math.inf


class Ball(ConvexSet):
    """Closed Euclidean ball of positive radius. Its distance is the closed
    form max(||x - c|| - r, 0) of its stacked family, with the norm taken
    scaled where its square over- or underflows, and the whole form taken at
    one power-of-two scale where x - c itself overflows."""

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
            _, y, c = _scaled(x, self.center)
            v = y - c
            d = _norm(v)
        # c + (r / d) v, formed in v, the new array x - c or its scaled form
        v *= self.radius / d
        v += self.center
        return v

    def _float_reflection(self) -> FloatReflection:
        """_reflect of a point given as a list of floats, with its bits, by
        the ball kernel; None where _norm would take x - c scaled (its
        squares sum to inf, or to less than _TINY while x != c)."""
        return _kernel(_BALL_KERNEL, self._dim)(self.radius, *self.center.tolist())

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

    def _distance(self, x: np.ndarray) -> float:
        d = _norm(x - self.center) - self.radius
        if d == math.inf:
            # x - center overflowed, or its norm does: the same closed form
            # on x, the center and the radius scaled by one power of two
            e, y, c, r = _scaled(x, self.center, self.radius)
            d = float(np.ldexp(_norm(y - c) - r, e))  # inf past the largest float
        return max(d, 0.0)

    def interior_margin(self, x: Point) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.radius - _norm(self._coords(x) - self.center)

    def scale_hint(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return _norm(self.center) + self.radius

    @staticmethod
    def _family_distances(sets: Sequence[Ball]) -> FamilyDistances:
        """max(||x - c|| - r, 0) per row of a center matrix; a row whose
        x - c or squared norm overflows reads inf, which leaves it to the
        set's _distance."""
        centers = np.stack([c.center for c in sets])
        radii = np.array([c.radius for c in sets])

        def distances(x: np.ndarray) -> np.ndarray:
            return np.maximum(_row_norms(x[..., None, :] - centers) - radii, 0.0)

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
        # the bits of np.clip(x, lo, hi), by two ufuncs in one array
        out = np.maximum(x, self.lo)
        np.minimum(out, self.hi, out=out)
        return out

    def interior_margin(self, x: Point) -> float:
        x = self._coords(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(min(np.min(x - self.lo), np.min(self.hi - x)))

    def scale_hint(self) -> float:
        return float(max(np.max(np.abs(self.lo)), np.max(np.abs(self.hi))))

    @staticmethod
    def _family_distances(sets: Sequence[Box]) -> FamilyDistances:
        """||x - clip(x, lo, hi)|| per row of stacked bounds."""
        lo = np.stack([c.lo for c in sets])
        hi = np.stack([c.hi for c in sets])

        def distances(x: np.ndarray) -> np.ndarray:
            x = x[..., None, :]
            return _row_norms(x - np.minimum(np.maximum(x, lo), hi))

        return distances


class AffineSubspace(ConvexSet):
    """Solution set {x : A x = b} of a consistent linear system.

    The set is held as {x : W x = c}: W is an orthonormal basis of the row
    space of A, one row per singular value of A above 1e-15 times the largest
    (the rank cut of np.linalg.pinv), and c = W x for every solution x. Both
    come from one SVD of A scaled by the power of two of max |A_ij|, so the
    SVD cannot overflow; the entries of W are at most 1, so W x cannot
    overflow for an ordinary point. The projection is x - W^T (W x - c) and
    the distance ||W x - c||; the public A and b are the given data. For a
    point near the largest float, whose W x - c overflows in its partial
    sums, both are taken on x and c scaled by a power of two, a batch row
    as a single point. So is the projection of a point whose W x - c has a
    nonzero entry below _floor, the smallest normal float over the smallest
    nonzero |W_ij|, as at 2^-1000, where its products with W may be
    subnormal and lose bits; at ordinary scales the scaled projection has
    the same bits. Systems inconsistent or with no finite point are
    rejected here.
    """

    __slots__ = ("A", "b", "_W", "_c", "_floor")

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
        e, sA = _scaled(A)
        U, s, Vt = np.linalg.svd(sA, full_matrices=False)
        k = int(np.count_nonzero(s > 1e-15 * s[0]))
        self._W = Vt[:k].copy()  # not a view that keeps all of Vt
        nonzero = np.abs(self._W[self._W != 0.0])
        self._floor = np.finfo(float).tiny / np.min(nonzero, initial=math.inf)
        # The minimum-norm solution x = W^T c, which is not finite when b over
        # a tiny A overflows, and its least-squares residual, taken back to
        # the units of b before its norm (scaled, it underflows for a huge A).
        with np.errstate(over="ignore", invalid="ignore"):
            sb = np.ldexp(b, -e)
            self._c = (sb @ U[:, :k]) / s[:k]
            x = self._project(np.zeros(self._dim))
            residual = _norm(np.ldexp(sA @ x - sb, e))
            tol = AFFINE_CONSISTENCY_TOL * _norm(b)
        if not np.isfinite(x).all():
            raise InvalidSet("minimum-norm solution not finite: the set has no finite point")
        if not residual <= tol:
            raise InvalidSet(f"inconsistent affine system: least-squares residual {residual:.3e}")

    def _project(self, x: np.ndarray) -> np.ndarray:
        # per row of a (..., d) batch, the products of a single point
        g = (self._W @ x[..., None])[..., 0] - self._c
        out = (g[..., None, :] @ self._W)[..., 0, :]
        np.subtract(x, out, out=out)
        # a point whose W x - c is not finite, or has a nonzero entry whose
        # products with W may be subnormal, is taken scaled
        a = np.abs(g)
        if not (np.minimum.reduce(a, axis=None, initial=math.inf) >= self._floor
                and np.maximum.reduce(a, axis=None, initial=0.0) < math.inf):
            scaled = ~(((a >= self._floor) | (a == 0.0)) & (a < math.inf)).all(axis=-1)
            if x.ndim > 1:
                for i in zip(*np.nonzero(scaled)):
                    out[i] = self._project(x[i])
            elif scaled:
                e, y, c = _scaled(x, self._c)
                out = np.ldexp(y - (self._W @ y - c) @ self._W, e)
        return out

    def _distance(self, x: np.ndarray) -> float:
        g = self._W @ x - self._c
        if np.isfinite(g).all():
            return _norm(g)
        e, y, c = _scaled(x, self._c)
        return float(np.ldexp(_norm(self._W @ y - c), e))  # inf past the largest float

    def interior_margin(self, x: Point) -> float:
        self._coords(x)
        if not self.A.any():
            return math.inf  # zero system: the set is the whole space
        return -math.inf

    def scale_hint(self) -> float:  # the norm of the minimum-norm solution
        with np.errstate(over="ignore", invalid="ignore"):
            return _norm(self._c)

    @staticmethod
    def _family_distances(sets: Sequence[AffineSubspace]) -> FamilyDistances:
        """||W x - c|| per set, from one product with the rows of every set
        stacked and one sum of squares per set and point, each point's
        squares in bins of their own; a set of rank 0 (the zero system) has
        no row and reads 0. A sum that overflows, or falls below space._TINY
        from a W x - c that is not 0, is summed again by the same bincount,
        in one bin, over that set's entries taken by space._scaled; one whose
        W x - c is not finite is left for the set's _distance."""
        W = np.concatenate([c._W for c in sets])
        offsets = np.concatenate([c._c for c in sets])
        owner = np.repeat(np.arange(len(sets)), [c._c.size for c in sets])
        k = len(sets)

        def distances(x: np.ndarray) -> np.ndarray:
            g = (W @ x[..., None])[..., 0] - offsets
            g = g.reshape(-1, g.shape[-1])
            bins = owner + np.arange(0, len(g) * k, k)[:, None]
            sums = np.bincount(bins.ravel(), (g * g).ravel(), minlength=len(g) * k)
            out = np.sqrt(sums)
            for i in np.flatnonzero(~((sums >= _TINY) & (sums < math.inf))):
                row, j = divmod(i, k)
                e, gj = _scaled(g[row, owner == j])
                if gj.any() and np.isfinite(gj).all():
                    one_bin = np.zeros(gj.size, dtype=np.intp)
                    out[i] = np.ldexp(np.sqrt(np.bincount(one_bin, gj * gj)[0]), e)
            return out.reshape(x.shape[:-1] + (k,))

        return distances


SET_KINDS: dict[str, type[ConvexSet]] = {
    cls.kind: cls for cls in (Halfspace, Hyperplane, Ball, Box, AffineSubspace)
}

# The built-in kinds, by exact type, which the library trusts: their
# projection is x itself or a new array of their own, which _reflect may
# write into, and their sets are measured by the stacked family of their
# type's _family_distances (halfspaces and hyperplanes share _LinearSet's).
# A subclass may redefine _project to return an array it keeps, or
# _distance, so its sets are measured one at a time.
_BUILT_IN = frozenset(SET_KINDS.values())

# The built-in kinds, by exact type, with a _float_reflection.
_FLOAT_KINDS = frozenset({Halfspace, Hyperplane, Ball})


def set_from_params(params: dict) -> ConvexSet:
    """Construct a set from its parameters, keyed as in problem documents."""
    fields = dict(params)
    kind = fields.pop("kind", None)
    cls = SET_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidSet(f"unknown set kind {kind!r}")
    try:
        return cls(**fields)
    except (TypeError, OverflowError) as exc:  # a missing field, an int beyond floats
        raise InvalidSet(f"bad parameters for {kind}: {exc}") from exc
