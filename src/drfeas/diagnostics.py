"""Sampled evidence for the operator inequalities behind convergence.

These checks draw point pairs uniformly from a hypercube and report the
worst observed violation of an operator-class inequality. They can refute a
property and accumulate evidence for it, never prove it; purely asymptotic
properties (strong nonexpansiveness, weak regularity) have no finite test
and are exercised only through their observable consequences, such as the
asymptotic regularity series and converging runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .operators import Operator
from .solver import FeasibilityProblem
from .space import Point, _checked_coords, _norm, norm


@dataclass(frozen=True)
class PropertyReport:
    property_name: str
    samples: int
    worst_violation: float
    tolerance: float
    passed: bool


def _pairs(
    dim: int, samples: int, scale: float, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The sampled pairs (x, y) of a check, after validating its parameters."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not (scale > 0.0):
        raise ValueError("scale must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    for i in range(samples):
        # Counter-based: sample i depends only on (seed, i), not on draw order.
        rng = np.random.default_rng([seed, i])
        yield rng.uniform(-scale, scale, size=dim), rng.uniform(-scale, scale, size=dim)


def _image(T: Operator, x: np.ndarray) -> np.ndarray:
    """T x on a raw array. A non-finite result raises, as a Point would:
    unchecked, a NaN violation would vanish in max(worst, nan) and pass."""
    y = T._apply(x)
    if not np.isfinite(y).all():
        raise ValueError("coordinates must be finite (no NaN/Inf)")
    return y


def check_firmly_nonexpansive(
    T: Operator,
    samples: int = 1000,
    scale: float = 4.0,
    seed: int = 0,
    tol: float = 1e-10,
    name: str = "firmly_nonexpansive",
) -> PropertyReport:
    """Worst violation of <Tx - Ty, x - y> >= ||Tx - Ty||^2 over sampled pairs."""
    worst = 0.0
    for x, y in _pairs(T.dim, samples, scale, seed):
        dT = _image(T, x) - _image(T, y)
        worst = max(worst, float(np.dot(dT, dT)) - float(np.dot(dT, x - y)))
    return PropertyReport(name, samples, worst, tol, worst <= tol)


def check_nonexpansive(
    T: Operator,
    samples: int = 1000,
    scale: float = 4.0,
    seed: int = 0,
    tol: float = 1e-10,
    name: str = "nonexpansive",
) -> PropertyReport:
    """Worst violation of ||Tx - Ty|| <= ||x - y|| over sampled pairs."""
    worst = 0.0
    for x, y in _pairs(T.dim, samples, scale, seed):
        worst = max(worst, _norm(_image(T, x) - _image(T, y)) - _norm(x - y))
    return PropertyReport(name, samples, worst, tol, worst <= tol)


def check_quasi_nonexpansive(
    T: Operator,
    p: Point,
    samples: int = 1000,
    scale: float = 4.0,
    seed: int = 0,
    tol: float = 1e-10,
    name: str = "quasi_nonexpansive",
) -> PropertyReport:
    """Worst violation of ||Tx - p|| <= ||x - p|| for a fixed point p of T."""
    residual = norm(T.apply(p) - p)
    if residual > tol:
        raise ValueError(
            f"p is not a fixed point of the operator: residual {residual:.3e} "
            f"exceeds tol {tol:.3e}"
        )
    worst = 0.0
    for x, _ in _pairs(T.dim, samples, scale, seed):
        worst = max(worst, _norm(_image(T, x) - p.coords) - _norm(x - p.coords))
    return PropertyReport(name, samples, worst, tol, worst <= tol)


def asymptotic_regularity_series(T: Operator, x0: Point, n_steps: int) -> list[float]:
    """Successive displacements ||T^{k+1} x0 - T^k x0|| for k = 0..n_steps-1.

    Tends to zero for asymptotically regular operators; stays constant and
    positive for, e.g., a reflection through a hyperplane from an off-plane
    start (an involution).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    series = []
    x = _checked_coords(x0, T.dim, "operator")
    for _ in range(n_steps):
        x_next = _image(T, x)
        series.append(_norm(x_next - x))
        x = x_next
    return series


def feasibility_report(problem: FeasibilityProblem, x: Point) -> list[tuple[int, float]]:
    """Per-set distances from x, as (1-based set index, distance) pairs."""
    return [(i + 1, d) for i, d in enumerate(problem.distances(x))]
