"""Operator calculus built from set projections.

Operators are immutable expression trees evaluated on demand: projection,
reflection (2P - Id), relaxation (1-lam)Id + lam*T, composition, and the
r-set Douglas-Rachford operator (Id + R_r ... R_1) / 2. No matrices
are materialized; every node applies cheap closed forms.

Reflections come from ``ConvexSet._reflect``. A node writes only into
arrays it made: the DR operator averages with x in the array of its last
reflection, and a relaxation sums into lam T(x). An input, and whatever a
user Operator or ConvexSet subclass returns, is only read.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .convex import _FLOAT_KINDS, ConvexSet
from .space import _SMALL, Point, _checked_coords, _common_dim, _dimension


class Operator(ABC):
    """Immutable map of R^d to itself. apply, which calling an operator
    runs, has numpy's overflow and invalid flags off; _apply sets none."""

    __slots__ = ("_dim",)

    def __init__(self, dim: int) -> None:
        self._dim = _dimension(dim)

    @property
    def dim(self) -> int:
        return self._dim

    def apply(self, x: Point) -> Point:
        with np.errstate(over="ignore", invalid="ignore"):
            return Point(self._apply(_checked_coords(x, self._dim, "operator")))

    __call__ = apply

    @abstractmethod
    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on a raw coordinate array (no dimension check).

        Takes a point of shape (d,) or a batch of shape (..., d) and maps
        each row; the sampled checks evaluate all their points in one call.
        """


class Projection(Operator):
    """Metric projection onto a convex set; firmly nonexpansive."""

    __slots__ = ("set_",)

    def __init__(self, set_: ConvexSet) -> None:
        super().__init__(set_.dim)
        self.set_ = set_

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.set_._project(x)

    def __repr__(self) -> str:
        return f"Projection({self.set_.kind})"


class Reflection(Operator):
    """2P - Id: the mirror image of x through its projection."""

    __slots__ = ("set_",)

    def __init__(self, set_: ConvexSet) -> None:
        super().__init__(set_.dim)
        self.set_ = set_

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.set_._reflect(x)

    def __repr__(self) -> str:
        return f"Reflection({self.set_.kind})"


class Relaxation(Operator):
    """(1-lam) Id + lam T with lam in [0, 2]; lam=2 is the reflection of T."""

    __slots__ = ("inner_op", "lam")

    def __init__(self, inner_op: Operator, lam: float) -> None:
        lam = float(lam)
        if not (0.0 <= lam <= 2.0):
            raise ValueError(f"relaxation parameter must lie in [0, 2], got {lam}")
        super().__init__(inner_op.dim)
        self.inner_op = inner_op
        self.lam = lam

    def _apply(self, x: np.ndarray) -> np.ndarray:
        # (1 - lam) x + lam T(x), summed into the array lam T(x), not T(x),
        # which a user operator may keep
        out = self.lam * self.inner_op._apply(x)
        out += (1.0 - self.lam) * x
        return out

    def __repr__(self) -> str:
        return f"Relaxation({self.inner_op!r}, lam={self.lam})"


class Composition(Operator):
    """Composition of factors, applied first-to-last in stored order."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[Operator]) -> None:
        factors = tuple(factors)
        super().__init__(_common_dim(factors, "composition factor"))
        self.factors = factors

    def _apply(self, x: np.ndarray) -> np.ndarray:
        for op in self.factors:
            x = op._apply(x)
        return x

    def __repr__(self) -> str:
        return f"Composition({list(self.factors)!r})"


class DrOperator(Operator):
    """r-set Douglas-Rachford operator over an ordered set list.

    Applies T = (Id + V) / 2, where V = R_r ... R_1 is the composite
    reflection and R_i reflects through sets[i-1]; firmly nonexpansive, and
    fixes every common point of the sets. _apply reflects x through the sets
    with ConvexSet._reflect and averages in the last reflection by _average,
    the one DR average, which the sampled check suites also apply to the
    images of V.

    Below space._SMALL coordinates, when every set is a ball, halfspace or
    hyperplane (exactly, not a subclass), the operator is built to reflect
    a single point on Python floats, by the sets' _reflect_floats, and to
    average as (v_i + x_i) * 0.5: the operations, and so the bits, of the
    array path, which it takes where a set's scaled branch would run.
    """

    __slots__ = ("sets", "_floats")

    def __init__(self, sets: Sequence[ConvexSet]) -> None:
        sets = tuple(sets)
        super().__init__(_common_dim(sets, "DR operator set"))
        self.sets = sets
        scalar = self._dim < _SMALL and {type(c) for c in sets} <= _FLOAT_KINDS
        self._floats = tuple([c._reflect_floats for c in sets]) if scalar else ()

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self._floats and x.ndim == 1:
            v = xs = x.tolist()
            for reflect in self._floats:
                v = reflect(v)
                if v is None:
                    break
            else:
                return np.array([(a + b) * 0.5 for a, b in zip(v, xs)])
        v = x
        for c in self.sets:
            v = c._reflect(v)
        # v is a new array of the operator's own (there is at least one set)
        return self._average(v, x)

    @staticmethod
    def _average(v: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(x + v) / 2 for v = V(x), formed in v, which the caller owns and
        gives up: the images of T are those of V, averaged in place."""
        v += x
        v *= 0.5
        return v

    def __repr__(self) -> str:
        return f"DrOperator({[c.kind for c in self.sets]})"


def composite_reflection(sets: Sequence[ConvexSet]) -> Composition:
    """Reflections through the given sets composed in order (first set first)."""
    return Composition([Reflection(c) for c in sets])


def dr_operator(sets: Sequence[ConvexSet]) -> DrOperator:
    """Half-sum of the identity and the composite reflection over the sets."""
    return DrOperator(sets)
