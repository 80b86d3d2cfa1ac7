"""Sampled evidence for the operator inequalities behind convergence.

These checks draw point pairs uniformly from a hypercube and report the
worst observed violation of an operator-class inequality. They can refute a
property and accumulate evidence for it, never prove it; purely asymptotic
properties (strong nonexpansiveness, weak regularity) have no finite test
and are exercised only through their observable consequences, such as the
asymptotic regularity series and converging runs.

Each check draws its pairs in order from one generator seeded with
``seed``, so a check with fewer samples sees a prefix of the pairs of one
with more. The draw is split once into two read-only, C-contiguous
(samples, d) batches, the first points and the second points, and a
one-entry memo keyed by (d, samples, scale, seed) hands the same two
batches to every later check with that key: the checks of a suite, which
share one dimension and one (samples, scale, seed), draw one sample between
them. ``repro.run_check_suite`` empties the memo when it returns; a check
called on its own keeps its last sample until the next draw. A check
evaluates all its pairs at once: one ``T._apply`` call on the batch of
first points and one on the batch of second points, then per-row inner
products and norms. Each scaled difference, (Tx - Ty) * unit or
(x - y) * unit, is formed in one new array: the draws and the images are
only read. The checks share one report function, and the firm and plain
ones each one violation function of the batches and their images.

A suite checks a DR operator T = (Id + V) / 2 and its composite reflection
V together (``_check_dr_pair``), from one reflection chain per batch:
V's images, made by the same ``ConvexSet._reflect`` calls as T's, give V's
report, and ``DrOperator._average``, the average of ``T._apply``, then
turns them in place into T's images for T's report. Both reports have the
bits of the public checks called on T and on V alone.

Violations are relative, so that one tolerance serves every sampling
scale. With M = max(||x||, ||y||, ||Tx||, ||Ty||) for a pair, a firm
violation is divided by M ||x - y|| and a plain one by M; the rounding error
of a correct operator grows like eps M ||x - y||, so both stay near eps.
The differences are first divided by the power of two that brings M into
[0.5, 1), so no inner product overflows or underflows and a violation is
finite wherever the images are. M is measured by ``space._row_norms``,
exactly also where squares underflow; where a norm's square overflows, that
power of two comes from the largest |coordinate| of the pair, by the rule
of ``space._scaled``. No floor is put under M, so a check reads the same at
every scale: x -> 2x fails at 1e-170 as it does at 1. A pair whose M is 0
(all four points at the origin) reads 0.

The checks and ``asymptotic_regularity_series`` run with numpy's overflow
and invalid flags off: an image past the largest float makes a violation
inf or NaN, which fails the check, or makes the series raise ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import DrOperator, Operator
from .solver import FeasibilityProblem
from .space import Point, _checked_coords, _integer, _norm, _row_dots, _row_norms


class CheckParameterError(ValueError):
    """A sampled check was given parameters it cannot run with."""


@dataclass(frozen=True)
class PropertyReport:
    property_name: str
    samples: int
    worst_violation: float
    tolerance: float
    passed: bool


def _pairs(dim: int, samples: int, scale: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The sampled pairs of a check as two (samples, dim) batches, first
    points and second points, after validating its parameters."""
    samples = _integer(samples, "samples", CheckParameterError, 1)
    seed = _integer(seed, "seed", CheckParameterError, 0)
    if not (0.0 < 2.0 * scale < math.inf):  # numpy draws from a range 2 * scale wide
        raise CheckParameterError("scale must be positive, with 2 * scale finite")
    return _draw_pairs(dim, samples, scale, seed)


@functools.lru_cache(maxsize=1)
def _draw_pairs(dim: int, samples: int, scale: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One generator draws the pairs in order, as one (samples, 2, dim)
    array, so the first k pairs of an n-sample draw are those of a k-sample
    draw; its first and second points are then copied out once, each into a
    read-only C-contiguous batch. The one-entry memo holds the last draw: it
    serves every check of a suite, and run_check_suite clears it."""
    P = np.random.default_rng(seed).uniform(-scale, scale, size=(samples, 2, dim))
    x, y = np.ascontiguousarray(P[:, 0]), np.ascontiguousarray(P[:, 1])
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def _scale(*batches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row i, M 2^-e and the column of factors 2^-e, where M is the
    largest norm of row i in any batch, as space._row_norms measures it, and
    2^e is the power of two with M 2^-e in [0.5, 1), or 2^-1023 if that is
    smaller (a subnormal M). Multiplying by 2^-e is exact, and inner
    products of rows so scaled cannot overflow. An all-zero row reads M = 1,
    so it reads 0. A row whose M is inf (a <v, v> overflows) takes 2^e from
    its largest |coordinate| instead, as space._scaled picks it, and M 2^-e
    from the scaled rows. A batch of one row broadcasts."""
    M = 0.0
    for b in batches:
        M = np.maximum(M, _row_norms(b))
    M = np.where(M == 0.0, 1.0, M)
    # a NaN M gives 1: left unscaled
    unit = np.ldexp(1.0, np.minimum(-np.frexp(M)[1], 1023))
    scaled = M * unit
    odd = np.flatnonzero(M == math.inf)
    if odd.size:
        rows = np.stack([b[odd] for b in np.broadcast_arrays(*batches)])
        # an inf coordinate gives 1
        unit[odd] = np.ldexp(1.0, -np.frexp(np.max(np.abs(rows), axis=(0, 2)))[1])
        scaled[odd] = np.max(_row_norms(rows * unit[odd, None]), axis=0)
    return scaled, unit[:, None]


def _scaled_difference(a: np.ndarray, b: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """(a - b) * unit, formed in the one new array a - b: the batches a and
    b, sampled points or images a user operator may keep, are only read."""
    out = a - b
    out *= unit
    return out


def _firm_violation(x: np.ndarray, y: np.ndarray, Tx: np.ndarray, Ty: np.ndarray) -> np.ndarray:
    """Per pair, ||Tx - Ty||^2 - <Tx - Ty, x - y> relative to M ||x - y||."""
    M, unit = _scale(x, y, Tx, Ty)
    dT, d = _scaled_difference(Tx, Ty, unit), _scaled_difference(x, y, unit)
    excess = _row_dots(dT, dT) - _row_dots(dT, d)
    # A pair drawn twice, or so close that ||x - y|| underflows, has
    # ||x - y|| = 0; its excess is 0 then, or NaN from a non-finite image
    bound = M * _row_norms(d)
    return np.divide(excess, bound, out=excess, where=bound > 0.0)


def _plain_violation(x: np.ndarray, y: np.ndarray, Tx: np.ndarray, Ty: np.ndarray) -> np.ndarray:
    """Per pair, ||Tx - Ty|| - ||x - y|| relative to M."""
    M, unit = _scale(x, y, Tx, Ty)
    return (_row_norms(_scaled_difference(Tx, Ty, unit))
            - _row_norms(_scaled_difference(x, y, unit))) / M


def _report(name: str, violation: np.ndarray, tol: float) -> PropertyReport:
    """The worst of the violations, one per sampled pair, as a check's
    report, which keeps their count, the int that samples checked as. A
    non-finite image makes a violation inf or NaN, and np.max keeps a NaN,
    so the check fails."""
    worst = float(np.max(violation, initial=0.0))
    return PropertyReport(name, len(violation), worst, tol, worst <= tol)


def check_firmly_nonexpansive(
    T: Operator,
    samples: int = 1000,
    scale: float = 4.0,
    seed: int = 0,
    tol: float = 1e-10,
    name: str = "firmly_nonexpansive",
) -> PropertyReport:
    """Worst violation of <Tx - Ty, x - y> >= ||Tx - Ty||^2 over sampled
    pairs, relative to M ||x - y||."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _pairs(T.dim, samples, scale, seed)
        return _report(name, _firm_violation(x, y, T._apply(x), T._apply(y)), tol)


def check_nonexpansive(
    T: Operator,
    samples: int = 1000,
    scale: float = 4.0,
    seed: int = 0,
    tol: float = 1e-10,
    name: str = "nonexpansive",
) -> PropertyReport:
    """Worst violation of ||Tx - Ty|| <= ||x - y|| over sampled pairs,
    relative to M."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _pairs(T.dim, samples, scale, seed)
        return _report(name, _plain_violation(x, y, T._apply(x), T._apply(y)), tol)


def _check_dr_pair(
    T: DrOperator, V: Operator, samples: int, scale: float, seed: int,
    t_name: str, v_name: str, tol: float = 1e-10,
) -> list[PropertyReport]:
    """check_firmly_nonexpansive of a DR operator T and check_nonexpansive
    of V, the composite reflection over T's sets, bit for bit, from one
    reflection chain per batch: V's report reads V's images, which
    T._average then turns in place into T's, since T = (Id + V) / 2. The
    reports come T first."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _pairs(T.dim, samples, scale, seed)
        Vx, Vy = V._apply(x), V._apply(y)
        v_report = _report(v_name, _plain_violation(x, y, Vx, Vy), tol)
        Tx, Ty = T._average(Vx, x), T._average(Vy, y)
        t_report = _report(t_name, _firm_violation(x, y, Tx, Ty), tol)
    return [t_report, v_report]


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
    over the first point x of each sampled pair, relative to
    max(||x||, ||p||, ||Tx||). p counts as fixed when ||Tp - p|| is within
    tol of max(||p||, ||Tp||)."""
    q = _checked_coords(p, T.dim, "operator")
    with np.errstate(over="ignore", invalid="ignore"):
        Tq = T._apply(q)
        M, unit = _scale(q[None], Tq[None])
        residual = float(_row_norms((Tq - q) * unit)[0] / M[0])
    if not residual <= tol:  # a NaN residual is no fixed point either
        raise CheckParameterError(
            f"p is not a fixed point of the operator: relative residual "
            f"{residual:.3e} exceeds tol {tol:.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        x, _ = _pairs(T.dim, samples, scale, seed)
        Tx = T._apply(x)
        M, unit = _scale(x, Tx, q[None])
        return _report(name, (_row_norms(_scaled_difference(Tx, q, unit))
                              - _row_norms(_scaled_difference(x, q, unit))) / M, tol)


def asymptotic_regularity_series(T: Operator, x0: Point, n_steps: int) -> list[float]:
    """Successive displacements ||T^{k+1} x0 - T^k x0|| for k = 0..n_steps-1.

    Tends to zero for asymptotically regular operators; stays constant and
    positive for, e.g., a reflection through a hyperplane from an off-plane
    start (an involution).
    """
    n_steps = _integer(n_steps, "n_steps", ValueError, 1)
    series = []
    x = _checked_coords(x0, T.dim, "operator")
    with np.errstate(over="ignore", invalid="ignore"):
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
