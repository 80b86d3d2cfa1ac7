"""Sampled evidence for the operator inequalities behind convergence.

These checks draw point pairs uniformly from a hypercube and report the
worst observed violation of an operator-class inequality. They can refute a
property and accumulate evidence for it, never prove it; purely asymptotic
properties (strong nonexpansiveness, weak regularity) have no finite test
and are exercised only through their observable consequences, such as the
asymptotic regularity series and converging runs.

Each check draws its pairs in order from one generator seeded with
``seed``, so a check with fewer samples sees a prefix of the pairs of one
with more. The checks share one loop and differ only in their inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import Operator
from .solver import FeasibilityProblem
from .space import Point, _checked_coords, _norm


@dataclass(frozen=True)
class PropertyReport:
    property_name: str
    samples: int
    worst_violation: float
    tolerance: float
    passed: bool


def _pairs(dim: int, samples: int, scale: float, seed: int) -> np.ndarray:
    """The sampled pairs (x, y) of a check, shape (samples, 2, dim), after
    validating its parameters. One generator draws them all in order, so the
    first k pairs of an n-sample check are the pairs of a k-sample check."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not (0.0 < 2.0 * scale < math.inf):  # numpy draws from a range 2 * scale wide
        raise ValueError("scale must be positive, with 2 * scale finite")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng(seed).uniform(-scale, scale, size=(samples, 2, dim))


def _report(
    T: Operator, violation: Callable[[np.ndarray, np.ndarray], float],
    samples: int, scale: float, seed: int, tol: float, name: str,
) -> PropertyReport:
    """The worst violation(x, y) over the sampled pairs of a check, as its
    report. A non-finite image or an overflowing inner product makes a
    violation inf or NaN, and the check fails: Python's max would drop a NaN
    and pass."""
    violations = [violation(x, y) for x, y in _pairs(T.dim, samples, scale, seed)]
    worst = float(np.max(violations, initial=0.0))
    return PropertyReport(name, samples, worst, tol, worst <= tol)


def check_firmly_nonexpansive(
    T: Operator,
    samples: int = 1000,
    scale: float = 4.0,
    seed: int = 0,
    tol: float = 1e-10,
    name: str = "firmly_nonexpansive",
) -> PropertyReport:
    """Worst violation of <Tx - Ty, x - y> >= ||Tx - Ty||^2 over sampled pairs."""

    def violation(x: np.ndarray, y: np.ndarray) -> float:
        dT = T._apply(x) - T._apply(y)
        return float(np.dot(dT, dT)) - float(np.dot(dT, x - y))

    return _report(T, violation, samples, scale, seed, tol, name)


def check_nonexpansive(
    T: Operator,
    samples: int = 1000,
    scale: float = 4.0,
    seed: int = 0,
    tol: float = 1e-10,
    name: str = "nonexpansive",
) -> PropertyReport:
    """Worst violation of ||Tx - Ty|| <= ||x - y|| over sampled pairs."""
    return _report(
        T, lambda x, y: _norm(T._apply(x) - T._apply(y)) - _norm(x - y),
        samples, scale, seed, tol, name,
    )


def check_quasi_nonexpansive(
    T: Operator,
    p: Point,
    samples: int = 1000,
    scale: float = 4.0,
    seed: int = 0,
    tol: float = 1e-10,
    name: str = "quasi_nonexpansive",
) -> PropertyReport:
    """Worst violation of ||Tx - p|| <= ||x - p|| for a fixed point p of T,
    over the first point x of each sampled pair."""
    q = _checked_coords(p, T.dim, "operator")
    residual = _norm(T._apply(q) - q)
    if not residual <= tol:  # a NaN residual is no fixed point either
        raise ValueError(
            f"p is not a fixed point of the operator: residual {residual:.3e} "
            f"exceeds tol {tol:.3e}"
        )
    return _report(
        T, lambda x, _: _norm(T._apply(x) - q) - _norm(x - q),
        samples, scale, seed, tol, name,
    )


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
        x_next = T._apply(x)
        if not np.isfinite(x_next).all():
            raise ValueError("coordinates must be finite (no NaN/Inf)")
        series.append(_norm(x_next - x))
        x = x_next
    return series


def feasibility_report(problem: FeasibilityProblem, x: Point) -> list[tuple[int, float]]:
    """Per-set distances from x, as (1-based set index, distance) pairs."""
    return [(i + 1, d) for i, d in enumerate(problem.distances(x))]
