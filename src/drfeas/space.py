"""Dense real-vector substrate: immutable points of R^d, their norm, and
the one rule, ``_scaled``, by which every computation that would over- or
underflow picks the power of two to take it at."""

from __future__ import annotations

import math
import operator
from typing import Iterator, Sequence

import numpy as np


class DimensionMismatch(ValueError):
    """Raised when two objects that must share a dimension do not."""


def _as_coords(values, name: str) -> np.ndarray:
    """values as a read-only, finite, nonempty (d,) float array; anything
    else raises ValueError naming the values."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # an object, a string, a huge int
        raise ValueError(f"{name} must be a vector of reals: {exc}") from exc
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d sequence of reals")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def _common_dim(items: Sequence, what: str) -> int:
    """The dimension every member of a nonempty family shares; what names a
    member in the errors."""
    if not items:
        raise ValueError(f"at least one {what} is needed")
    dim = items[0].dim
    for i, item in enumerate(items):
        if item.dim != dim:
            raise DimensionMismatch(f"{what} {i + 1} has dimension {item.dim}, expected {dim}")
    return dim


def _integer(value, what: str, error: type[ValueError] = ValueError) -> int:
    """value as an int, by operator.index: an int or numpy integer passes,
    and a float or any other value raises error naming what, rather than
    being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


class Point:
    """An immutable point of R^d with finite coordinates, d >= 1. Its +, -
    and scalar * run with numpy's overflow and invalid flags off: a result
    past the largest float raises ValueError, with no warning."""

    __slots__ = ("_coords",)

    def __init__(self, coords) -> None:
        self._coords = _as_coords(coords, "coordinates")

    @property
    def coords(self) -> np.ndarray:
        """Read-only coordinate array."""
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.shape[0]

    def __len__(self) -> int:
        return self.dim

    def __iter__(self) -> Iterator[float]:
        return iter(self._coords.tolist())

    def __getitem__(self, i: int) -> float:
        return float(self._coords[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return np.array_equal(self._coords, other._coords)

    __hash__ = None  # mutable-looking value type; identity hashing would mislead

    def __add__(self, other: "Point") -> "Point":
        _require_same_dim(self, other)
        with np.errstate(over="ignore", invalid="ignore"):
            return Point(self._coords + other._coords)

    def __sub__(self, other: "Point") -> "Point":
        _require_same_dim(self, other)
        with np.errstate(over="ignore", invalid="ignore"):
            return Point(self._coords - other._coords)

    def __rmul__(self, a: float) -> "Point":
        with np.errstate(over="ignore", invalid="ignore"):
            return Point(float(a) * self._coords)

    def __repr__(self) -> str:
        return f"Point({self._coords.tolist()!r})"


def _require_same_dim(x: Point, y: Point) -> None:
    if x.dim != y.dim:
        raise DimensionMismatch(f"points have dimensions {x.dim} and {y.dim}")


def _checked_coords(x: Point, dim: int, owner: str) -> np.ndarray:
    """The raw coordinates of x, once x is checked to lie in R^dim: where the
    public Point API hands over to the array-native internals."""
    if x.dim != dim:
        raise DimensionMismatch(f"point has dimension {x.dim}, {owner} has dimension {dim}")
    return x.coords


def _scaled(*arrays) -> tuple:
    """(e, a_1 2^-e, ...): the one rescale rule. 2^e is the power of two
    that puts the largest |entry| of the arrays in [0.5, 1), so the scaled
    arrays keep their bits (np.ldexp) and no entry reaches 1. e is 0 for
    empty or all-zero data; an array that holds an inf or NaN counts as
    all zero."""
    e = max(int(np.frexp(np.max(np.abs(a), initial=0.0))[1]) for a in arrays)
    return (e, *(np.ldexp(a, -e) for a in arrays))


# 2^54 times the smallest normal float. A sum of squares below it may owe
# its bits to subnormal squares, which round at 2^-1075 absolute; at or above
# it, that rounding is at most 2^-55 of an ulp of the sum.
_TINY = 2.0**54 * float(np.finfo(float).tiny)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a raw coordinate array, as sqrt(<x, x>).

    When <x, x> overflows (||x|| above ~1.3e154), or falls below _TINY for
    a nonzero x (||x|| below 2^-484, ~2e-146), x is taken scaled by _scaled
    first, and a norm beyond the largest float is inf; other inputs never
    reach that branch.
    """
    sq = float(x.dot(x))
    if sq == math.inf or (sq < _TINY and x.any()):
        e, y = _scaled(x)
        try:
            return math.ldexp(math.sqrt(float(y.dot(y))), e)
        except OverflowError:
            return math.inf
    return math.sqrt(sq)


def _row_dots(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<v_i, w_i> for each row i of two (..., d) arrays, or of one and a
    (d,) vector; each is the dot product numpy takes of the two rows."""
    return (v[..., None, :] @ w[..., :, None])[..., 0, 0]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (..., d) array, as sqrt(<v_i, v_i>);
    a nonzero row whose <v_i, v_i> is below _TINY is measured by _norm, but
    unlike _norm, a row whose <v_i, v_i> overflows reads inf."""
    sq = _row_dots(v, v)
    out = np.sqrt(sq)
    # one reduction; a NaN sum enters the branch, but its row is not < _TINY
    if not sq.min(initial=math.inf) >= _TINY:
        for i in zip(*np.nonzero((sq < _TINY) & v.any(axis=-1))):
            out[i] = _norm(v[i])
    return out


def norm(x: Point) -> float:
    """Euclidean norm of a point, computed as sqrt(<x, x>)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _norm(x.coords)

