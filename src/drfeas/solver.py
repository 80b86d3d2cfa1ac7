"""Iteration schemes over families of convex sets.

Three schemes share one loop core:

* ``run_unrestricted_dr``: x_n = S_{n-1} x_{n-1}, where S_k is the r-set DR
  operator over the sets picked by the control window at step k.
* ``run_composite``: y_n = Q y_{n-1} for the fixed composite Q = S_{jf} ... S_0,
  with jf the control's cover index.
* ``run_unrestricted_product``: x_n = T_{h(n-1)} x_{n-1} for an explicit
  operator family and a control h over its indices.

Stopping: with displacement_tol > 0 a run stops once the step displacement
and the worst set distance are both within tolerance (status
``converged_displacement``); with displacement_tol == 0 feasibility alone
stops it (status ``feasible``); otherwise it runs to max_iters. A start
already feasible stops immediately with status ``feasible``. A step whose
result has a NaN or infinite coordinate ends the run with status
``non_finite``; the trace then ends at the last finite iterate. A NaN
stop-rule residual (a set distance that is not a number) ends it with the
same status, at the iterate that has it.

The stop-rule residual is the largest entry of one distance vector that
``FeasibilityProblem`` evaluates per step, from the families of
``convex.STACKED_DISTANCES`` and one of the sets of other ``ConvexSet``
subclasses, each measured by its own ``_distance``: the family vectors,
concatenated, with an entry that is not finite taken again from its set's
``_distance``; only ``distances`` puts them in set order, by one gather.
Projections, operators and displacements never use the stacked data.

Per step the loop builds no ``Point``: ``IterationTrace`` keeps columns of
raw values (the iterate arrays, made read-only) and builds ``TraceStep``
views on demand. The DR schemes keep the array their operator returned; the
controlled product keeps a float copy, since its operators may be any
subclass. The DR schemes read their windows from the control a run of steps
at a time (``window`` with ``steps > 1``, over ``ControlMap.indices``), runs
doubling from one step up to a fixed chunk; a set index outside 1..m still
raises at the step whose window first holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .control import ControlMap, InvalidControl, cover_index, window
from .convex import STACKED_DISTANCES, ConvexSet, FamilyDistances
from .operators import Composition, DrOperator, Operator, dr_operator
from .space import DimensionMismatch, Point, _checked_coords, _norm

CONVERGED_DISPLACEMENT = "converged_displacement"
FEASIBLE = "feasible"
MAX_ITERS = "max_iters"
NON_FINITE = "non_finite"

# Declared interior points must clear every set boundary by this much.
INTERIOR_MARGIN = 1e-9


@dataclass(frozen=True)
class StopRule:
    """Finite-run stopping contract; max_iters always binds."""

    max_iters: int = 100_000
    displacement_tol: float = 1e-10
    feasibility_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")
        for name in ("displacement_tol", "feasibility_tol"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass
class TraceStep:
    n: int
    iterate: Point
    displacement: float
    max_set_distance: float
    applied_operator_id: str
    certifier_residual: float | None = None


@dataclass
class IterationTrace:
    """A run's steps as columns, one entry per step n = 0, 1, ...: the
    iterate (the read-only array the loop produced, not a copy), the
    displacement, the worst set distance, the operator id and the certifier
    residual (None without a certifier). ``steps`` and ``final`` build
    TraceStep views of the rows on demand; ``steps`` builds a new list of
    them on every access. Two traces are equal when their steps and terminal
    statuses are."""

    iterates: list[np.ndarray]
    displacements: list[float]
    max_set_distances: list[float]
    operator_ids: list[str]
    certifier_residuals: list[float | None]
    terminal_status: str = MAX_ITERS

    def _step(self, n: int) -> TraceStep:
        return TraceStep(n, Point(self.iterates[n]), self.displacements[n],
                         self.max_set_distances[n], self.operator_ids[n],
                         self.certifier_residuals[n])

    @property
    def steps(self) -> list[TraceStep]:
        return [self._step(n) for n in range(len(self.iterates))]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IterationTrace):
            return NotImplemented
        return self.terminal_status == other.terminal_status and self.steps == other.steps

    @property
    def final(self) -> TraceStep:
        return self._step(len(self.iterates) - 1)

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


class FeasibilityProblem:
    """An ordered family of convex sets sharing one ambient dimension.

    A declared interior point is optional; when present it must sit strictly
    inside every set (margin >= 1e-9), which rules out declarations for
    empty-interior sets such as hyperplanes.

    At construction the sets are grouped by the stacked family their kind
    belongs to, so that the distances from x to all m sets, and the worst of
    them, come from a few numpy calls per family instead of m projections;
    sets of user subclasses form one more family, measured set by set.
    """

    __slots__ = ("sets", "interior_point", "_families", "_grouped", "_order")

    def __init__(self, sets: Sequence[ConvexSet], interior_point: Point | None = None):
        sets = tuple(sets)
        if not sets:
            raise ValueError("a feasibility problem needs at least one set")
        dim = sets[0].dim
        for i, c in enumerate(sets):
            if c.dim != dim:
                raise DimensionMismatch(
                    f"set {i + 1} has dimension {c.dim}, expected {dim}"
                )
        if interior_point is not None:
            if interior_point.dim != dim:
                raise DimensionMismatch(
                    f"interior point has dimension {interior_point.dim}, expected {dim}"
                )
            for i, c in enumerate(sets):
                margin = c.interior_margin(interior_point)
                if not (margin >= INTERIOR_MARGIN):
                    raise ValueError(
                        f"declared interior point is not strictly inside set "
                        f"{i + 1} ({c.kind}): margin {margin:.3e}"
                    )
        self.sets = sets
        self.interior_point = interior_point
        members: dict[Callable, list[int]] = {}
        for i, c in enumerate(sets):
            members.setdefault(STACKED_DISTANCES.get(type(c), _each_distance), []).append(i)
        self._families = tuple(
            family([sets[i] for i in idx]) for family, idx in members.items()
        )
        # The family vectors, concatenated, list the sets in this order. The
        # worst distance needs no other; distances() puts them in set order
        # by one gather with its inverse, unless they are so already.
        order = [i for idx in members.values() for i in idx]
        self._grouped = tuple(sets[i] for i in order)
        self._order = None if order == sorted(order) else np.argsort(order)

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    def distances(self, x: Point) -> list[float]:
        """Distance from x to each set, in set order."""
        out = self._distances(_checked_coords(x, self.dim, "problem"))
        return (out if self._order is None else out[self._order]).tolist()

    def max_distance(self, x: Point) -> float:
        return self._max_distance(_checked_coords(x, self.dim, "problem"))

    def _distances(self, x: np.ndarray) -> np.ndarray:
        """Distance from a raw coordinate array to each set of self._grouped."""
        if len(self._families) == 1:
            out = self._families[0](x)
        else:
            out = np.concatenate([family(x) for family in self._families])
        if not np.isfinite(out).all():
            # Overflow and NaN stay the business of each set's own _distance.
            for j in np.flatnonzero(~np.isfinite(out)).tolist():
                out[j] = self._grouped[j]._distance(x)
        return out

    def _max_distance(self, x: np.ndarray) -> float:
        """Worst set distance on a raw coordinate array: the stop-rule residual.
        A NaN distance makes it NaN, which no tolerance accepts."""
        return float(self._distances(x).max())

    def sampling_scale(self) -> float:
        """Default hypercube half-width for sampled diagnostics."""
        return 4.0 * max(1.0, max(c.scale_hint() for c in self.sets))


def _each_distance(sets: Sequence[ConvexSet]) -> FamilyDistances:
    """The family of the sets with no stacked kind, each by its own _distance."""
    return lambda x: np.array([c._distance(x) for c in sets], dtype=float)


# Most steps whose windows a run fetches from its control in one window() call.
_WINDOW_CHUNK = 64


def _window_operators(
    problem: FeasibilityProblem, f: ControlMap, r: int
) -> Callable[[int], DrOperator]:
    """n -> S_n, the r-set DR operator over the sets the window at step n
    picks; one operator is built per distinct window, so quasi-periodic
    controls reuse a finite pool while aperiodic ones still run.

    Windows are fetched a run of steps at a time, from the first step asked
    for outside the last run; runs double from 1 step up to _WINDOW_CHUNK,
    so a caller in step order never fetches more windows than it uses. A set
    index outside 1..m raises at the first step whose window holds it."""
    cache: dict[tuple[int, ...], DrOperator] = {}
    base, steps, run = 0, 0, []  # the windows of steps base, ..., base + steps - 1

    def S(n: int) -> DrOperator:
        nonlocal base, steps, run
        k = n - base
        if not 0 <= k < steps:
            steps = min(2 * steps, _WINDOW_CHUNK) or 1
            base, run, k = n, window(f, r, n, steps), 0
        i = (r - 1) * k
        key = tuple(run[i : i + r])
        op = cache.get(key)
        if op is None:
            bad = [i for i in key if not 1 <= i <= problem.m]
            if bad:
                raise InvalidControl(
                    f"control produced set index {bad[0]} but the problem has "
                    f"sets 1..{problem.m}"
                )
            op = cache[key] = dr_operator([problem.sets[i - 1] for i in key])
        return op

    return S


def build_S(problem: FeasibilityProblem, f: ControlMap, r: int, n: int) -> DrOperator:
    """The r-set DR operator over the sets selected by the window at step n."""
    return _window_operators(problem, f, r)(n)


def build_composite_Q(problem: FeasibilityProblem, f: ControlMap, r: int) -> Composition:
    """Composition S_0, ..., S_jf (applied in that order), jf = cover_index(f)."""
    S = _window_operators(problem, f, r)
    return Composition([S(n) for n in range(cover_index(f) + 1)])


def _require_range(f: ControlMap, size: int, what: str) -> None:
    if f.m != size:
        raise InvalidControl(
            f"control range is 1..{f.m} but there are {size} {what}"
        )


def _certifier_residual(certifier: Operator | None, x: np.ndarray) -> float | None:
    if certifier is None:
        return None
    return _norm(certifier._apply(x) - x)


def _iterate(
    next_op: Callable[[int], tuple[Operator, str]],
    dim: int,
    x0: Point,
    stop: StopRule,
    problem: FeasibilityProblem | None,
    certifier: Operator | None,
    copy: bool,
) -> IterationTrace:
    """Shared loop: next_op(n) yields the operator on R^dim producing x_n
    (n >= 1). The loop runs on raw arrays, with no dimension checks and no
    Point, so start, problem and certifier are checked against dim here.

    The trace keeps each iterate array and makes it read-only. With copy the
    array kept is a float copy of what the operator returned, so an operator
    may reuse or keep its output buffer; without it the array kept is the
    one returned, which must be new. The library's DR operators and their
    compositions always return a new array."""
    for what, part in (("start", x0), ("problem", problem), ("certifier", certifier)):
        if part is not None and part.dim != dim:
            raise DimensionMismatch(f"{what} has dimension {part.dim}, expected {dim}")
    x = x0.coords
    dist = problem._max_distance(x) if problem is not None else 0.0
    trace = IterationTrace([x], [0.0], [dist], ["init"], [_certifier_residual(certifier, x)])
    if problem is not None and dist <= stop.feasibility_tol:
        trace.terminal_status = FEASIBLE
        return trace
    if dist != dist:
        trace.terminal_status = NON_FINITE
        return trace

    add_iterate, add_disp = trace.iterates.append, trace.displacements.append
    add_dist, add_id = trace.max_set_distances.append, trace.operator_ids.append
    add_residual = trace.certifier_residuals.append
    status = MAX_ITERS
    for n in range(1, stop.max_iters + 1):
        op, op_id = next_op(n)
        x_next = op._apply(x)
        if copy:
            x_next = np.array(x_next, dtype=float)
        if not np.isfinite(x_next).all():
            status = NON_FINITE
            break
        x_next.setflags(write=False)
        disp = _norm(x_next - x)
        dist = problem._max_distance(x_next) if problem is not None else 0.0
        add_iterate(x_next)
        add_disp(disp)
        add_dist(dist)
        add_id(op_id)
        add_residual(_certifier_residual(certifier, x_next))
        x = x_next
        if dist != dist:
            status = NON_FINITE
            break
        feasible_now = problem is not None and dist <= stop.feasibility_tol
        if stop.displacement_tol > 0.0:
            within_feas = feasible_now or problem is None
            if disp <= stop.displacement_tol and within_feas:
                status = CONVERGED_DISPLACEMENT
                break
        elif feasible_now:
            status = FEASIBLE
            break
    trace.terminal_status = status
    return trace


def run_unrestricted_dr(
    problem: FeasibilityProblem,
    f: ControlMap,
    r: int,
    x0: Point,
    stop: StopRule = StopRule(),
    certifier: Operator | None = None,
) -> IterationTrace:
    """Per-step DR scheme: x_n = S_{n-1} x_{n-1} over control windows."""
    _require_range(f, problem.m, "sets")
    S = _window_operators(problem, f, r)
    return _iterate(
        lambda n: (S(n - 1), f"S{n - 1}"), problem.dim, x0, stop, problem, certifier, False
    )


def run_composite(
    problem: FeasibilityProblem,
    f: ControlMap,
    r: int,
    y0: Point,
    stop: StopRule = StopRule(),
    certifier: Operator | None = None,
) -> IterationTrace:
    """Fixed-operator scheme: y_n = Q y_{n-1} with Q = S_jf ... S_0."""
    _require_range(f, problem.m, "sets")
    Q = build_composite_Q(problem, f, r)
    return _iterate(lambda n: (Q, "Q"), problem.dim, y0, stop, problem, certifier, False)


def run_unrestricted_product(
    operators: Sequence[Operator],
    h: ControlMap,
    x0: Point,
    stop: StopRule = StopRule(),
    problem: FeasibilityProblem | None = None,
    certifier: Operator | None = None,
) -> IterationTrace:
    """Controlled product: x_n = T_{h(n-1)} x_{n-1} over an operator family.

    When a problem is supplied its sets define the feasibility residual in
    the trace and the feasibility half of the stopping rule; without one the
    rule reduces to displacement only (k = 1 gives plain Picard iteration).
    """
    operators = tuple(operators)
    if not operators:
        raise ValueError("operator family must be nonempty")
    dim = operators[0].dim
    for i, op in enumerate(operators):
        if op.dim != dim:
            raise DimensionMismatch(f"operator {i + 1} acts on dimension {op.dim}, expected {dim}")
    _require_range(h, len(operators), "operators")

    def next_op(n: int) -> tuple[Operator, str]:
        j = h.index_at(n - 1)
        if not 1 <= j <= len(operators):
            raise InvalidControl(
                f"control produced operator index {j} but there are operators "
                f"1..{len(operators)}"
            )
        return operators[j - 1], f"T{j}"

    # The family may hold any Operator subclass, so its outputs are copied.
    return _iterate(next_op, dim, x0, stop, problem, certifier, True)
