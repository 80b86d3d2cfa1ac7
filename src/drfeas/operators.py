"""Operator calculus built from set projections.

Operators are immutable expression trees evaluated on demand: projection,
reflection (2P - Id), relaxation (1-lam)Id + lam*T, composition, and the
r-set Douglas-Rachford operator (Id + R_r ... R_1) / 2. No matrices
are materialized; every node applies cheap closed forms.

Reflections come from ``ConvexSet._reflect``. A node writes only into
arrays it made: the DR operator averages with x in the array of its last
reflection, and a relaxation sums into lam T(x). An input, and whatever a
user Operator or ConvexSet subclass returns, is only read.

Below ``space._SMALL`` coordinates a DR operator over balls, halfspaces and
hyperplanes runs a single point on Python floats, by kernels alone: it
binds its sets' reflection kernels when it is built, and averages by the
average template of ``space._kernel``, unrolled for d and compiled once per
process and d on first use. They do the array path's float operations in
its order, so they keep its bits.

Each operator also gives its evaluation on a batch as a chain of
(kind, object, back) steps (``_steps``), which the sampled check suites put
into one trie, so that operators that begin alike share their first steps'
images (diagnostics). A step declares its own inputs: its parent, the step
before it, and for back > 0 the step back places behind it along the chain,
the parent being 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .convex import _BUILT_IN, _FLOAT_KINDS, ConvexSet
from .space import _SMALL, Point, _checked_coords, _common_dim, _dimension, _kernel

# The space._kernel template of the DR average (v_i + x_i) * 0.5 of two
# points given as lists of floats, the operations of DrOperator._average.
_AVERAGE_KERNEL = """\
def average(v, x):
    [{, |v#}] = v
    [{, |x#}] = x
    return [{, |(v# + x#) * 0.5}]
"""


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

    def _steps(self) -> list:
        """The operator on a batch as a chain of (kind, object, back) steps,
        which the sampled check suites walk (diagnostics). A kind is the name
        of the object's method that makes the step's images from the images
        of its parent, the step before, and, where back is not 0, from the
        images of its second input, which it takes as x: the step back places
        behind it, counting the parent as 1. That is 2 for a
        _reflect_projection (its projection's input) and one more than the
        reflection steps for a DR _average (its chain's input). One
        ("_apply", self, 0) step, unless a built-in operator, by exact type,
        splits it."""
        return [("_apply", self, 0)]


class Projection(Operator):
    """Metric projection onto a convex set; firmly nonexpansive."""

    __slots__ = ("set_",)

    def __init__(self, set_: ConvexSet) -> None:
        super().__init__(set_.dim)
        self.set_ = set_

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.set_._project(x)

    def _steps(self) -> list:
        return [("_project", self.set_, 0)] if type(self) is Projection else super()._steps()

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

    def _steps(self) -> list:
        return _reflection_steps(self.set_) if type(self) is Reflection else super()._steps()

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

    def _steps(self) -> list:
        steps = [step for op in self.factors for step in op._steps()]
        return steps if type(self) is Composition else super()._steps()

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
    a single point on Python floats, by the sets' kernels
    (_float_reflection), and to average by the average kernel: unrolled
    for d, with the operations, and so the bits, of the array path, which
    it takes where a set's scaled branch would run.
    """

    __slots__ = ("sets", "_floats", "_average_floats")

    def __init__(self, sets: Sequence[ConvexSet]) -> None:
        sets = tuple(sets)
        super().__init__(_common_dim(sets, "DR operator set"))
        self.sets = sets
        scalar = self._dim < _SMALL and {type(c) for c in sets} <= _FLOAT_KINDS
        self._floats = tuple([c._float_reflection() for c in sets]) if scalar else ()
        self._average_floats = _kernel(_AVERAGE_KERNEL, self._dim) if scalar else None

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self._floats and x.ndim == 1:
            v = xs = x.tolist()
            for reflect in self._floats:
                v = reflect(v)
                if v is None:
                    break
            else:
                return np.array(self._average_floats(v, xs))
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

    def _steps(self) -> list:
        """The sets' reflection steps, then ("_average", self, back), which
        averages the last reflection's images with the chain's own input,
        back = len(steps) + 1 places behind it."""
        steps = [step for c in self.sets for step in _reflection_steps(c)]
        steps.append(("_average", self, len(steps) + 1))
        return steps if type(self) is DrOperator else super()._steps()

    def __repr__(self) -> str:
        return f"DrOperator({[c.kind for c in self.sets]})"


def _reflection_steps(c: ConvexSet) -> list:
    """The steps of c._reflect on a batch: ("_project", c, 0), then
    ("_reflect_projection", c, 2), in the projection's images with its
    input, for a built-in kind; one ("_reflect", c, 0) step for a user
    subclass."""
    split = type(c) in _BUILT_IN
    return [("_project", c, 0), ("_reflect_projection", c, 2)] if split else [("_reflect", c, 0)]


def composite_reflection(sets: Sequence[ConvexSet]) -> Composition:
    """Reflections through the given sets composed in order (first set first)."""
    return Composition([Reflection(c) for c in sets])


def dr_operator(sets: Sequence[ConvexSet]) -> DrOperator:
    """Half-sum of the identity and the composite reflection over the sets."""
    return DrOperator(sets)
