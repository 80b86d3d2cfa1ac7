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

The residual rule: each new iterate is measured once, and the column of
worst set distances, ``IterationTrace.max_set_distances``, is only appended
to, so its length is the measured frontier: the rows from
``len(max_set_distances)`` to the last iterate are pending. The loop
measures the pending rows at the start point, at a step that can stop the
run (every step when displacement_tol == 0, otherwise a step whose
displacement is within displacement_tol), once block rows are pending, and
when the loop ends, so a measurement takes at most block rows. The block is
``_RESIDUAL_BLOCK`` when every set is of a built-in kind (its exact type in
``convex._BUILT_IN``), and 1 when the problem holds a set of a user
``ConvexSet`` subclass; the loop reads it from the set types once per run.
A pending row that keeps the previous row's array takes that row's
distance; the others are measured by one batched
``FeasibilityProblem._distances`` call over their stacked iterates, whose
rows have the bits of single points, so the trace is the same as with every
distance computed at once. Without a problem every row reads 0.0, so a NaN
in the column only ever means that a set read NaN.

Only a set of a user subclass may read NaN or raise at a finite point: the
distance to a nonempty closed convex set is a number there, and the built-in
kinds read none. Such a problem measures each row as its step adds it, so a
failure is met at the row that has it: a NaN ends the trace there with
status ``non_finite``, and an exception leaves the loop as it is raised. No
step runs after a NaN row, and the trace columns only grow. The loop runs
with numpy's overflow and invalid flags off, since the trace reports each
value they would flag.

A step that returns its iterate unchanged, with a zero displacement and the
same bytes (-0.0 and 0.0 differ), adds a row that keeps the previous row's
array, certifier residual and worst set distance, so consecutive rows may
share one read-only array, which neither the certifier nor any set sees
again. Late in a run most windows may already hold the iterate, and their
DR steps return it bit for bit.

The stop-rule residual is the largest entry of one distance vector that
``FeasibilityProblem`` evaluates per iterate, or per row of a stack, from one
stacked family per built-in kind (``_family_distances`` of the set's type;
halfspaces and hyperplanes share one) and one of the sets of user
``ConvexSet`` subclasses, each measured by its own ``_distance``: the family
vectors, concatenated, with a stacked entry that is not finite taken again
from its set's ``_distance`` (the one fallback: for a ball or box whose
squared norm overflows it computes the family's formula scaled, and linear
and affine sets reach it only near the largest float, since the affine
family sums an out-of-range sum of squares again itself); only
``distances`` puts them in set order, by one gather.
Projections, operators and displacements never use the stacked data.

Per step the loop builds no ``Point``: ``IterationTrace`` keeps columns of
raw values (the iterate arrays, made read-only) and builds ``TraceStep``
views on demand. The DR schemes keep the array their operator returned; the
controlled product keeps a float copy, since its operators may be any
subclass.

The loop reads its steps, each an operator and its id, from an iterator in
step order, and takes none past max_iters: the composite scheme repeats Q,
the controlled product reads h(0), h(1), ... from one ``indices_from``
stream, and the DR run reads S_0, S_1, ... from one stream of operators over
the windows of ``control._windows``. The stream checks r, n and
``control._require_range`` when it is made, so a bad width or a control
whose range is not the problem's 1..m raises ``InvalidControl`` at the call
of either DR run, ``build_S`` or ``build_composite_Q``, also from a feasible
start; a set index outside 1..m, which only a user ``ControlMap`` subclass
can produce then, still raises at the step whose window first holds it.
``build_S`` takes the first operator of a stream started at step n, and
``build_composite_Q`` the first jf + 1 of one started at 0. The controlled
product checks its control's range against its operators by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import count, islice, repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from .control import ControlMap, InvalidControl, _require_range, _windows, cover_index
from .control import window  # noqa: F401  (perfbench/tracing.py wraps solver.window)
from .convex import _BUILT_IN, ConvexSet, FamilyDistances
from .operators import Composition, DrOperator, Operator, dr_operator
from .space import DimensionMismatch, Point, _checked_coords, _common_dim, _integer, _norm, norm

CONVERGED_DISPLACEMENT = "converged_displacement"
FEASIBLE = "feasible"
MAX_ITERS = "max_iters"
NON_FINITE = "non_finite"

# Declared interior points must clear every set boundary by this much,
# relative to the larger of the point's norm and the set's scale_hint.
INTERIOR_MARGIN = 1e-9


@dataclass(frozen=True)
class StopRule:
    """Finite-run stopping contract; max_iters always binds."""

    max_iters: int = 100_000
    displacement_tol: float = 1e-10
    feasibility_tol: float = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters", ValueError, 1))
        for name in ("displacement_tol", "feasibility_tol"):
            tol = getattr(self, name)
            message = f"{name} must be finite and nonnegative"
            if not (0.0 <= tol < math.inf):
                raise ValueError(message)
            try:
                object.__setattr__(self, name, float(tol))
            except OverflowError:  # an int past the largest float
                raise ValueError(message) from None


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
    iterate (the read-only array the loop produced, not a copy; consecutive
    rows of an unchanged iterate share one array and its residuals), the
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
    inside every set: its margin must be positive and at least 1e-9 times
    the larger of ||p|| and the set's scale_hint, so the test reads the same
    at every scale. This rules out declarations for empty-interior sets such
    as hyperplanes.

    At construction the sets are grouped by the stacked family their kind
    belongs to, so that the distances from x to all m sets, and the worst of
    them, come from a few numpy calls per family instead of m projections;
    sets of user subclasses form one more family, measured set by set.
    """

    __slots__ = ("sets", "interior_point", "_families", "_grouped", "_order")

    def __init__(self, sets: Sequence[ConvexSet], interior_point: Point | None = None):
        sets = tuple(sets)
        dim = _common_dim(sets, "set")
        if interior_point is not None:
            if interior_point.dim != dim:
                raise DimensionMismatch(
                    f"interior point has dimension {interior_point.dim}, expected {dim}"
                )
            size = norm(interior_point)
            for i, c in enumerate(sets):
                margin = c.interior_margin(interior_point)
                if not (margin > 0.0 and margin >= INTERIOR_MARGIN * max(size, c.scale_hint())):
                    raise ValueError(
                        f"declared interior point is not strictly inside set "
                        f"{i + 1} ({c.kind}): margin {margin:.3e}"
                    )
        self.sets = sets
        self.interior_point = interior_point
        members: dict[Callable, list[int]] = {}
        for i, c in enumerate(sets):
            family = type(c)._family_distances if type(c) in _BUILT_IN else _each_distance
            members.setdefault(family, []).append(i)
        self._families = tuple(
            family([sets[i] for i in idx]) for family, idx in members.items()
        )
        # The family vectors, concatenated, list the sets in this order. The
        # worst distance needs no other; distances() puts them in set order
        # by one gather with its inverse.
        order = [i for idx in members.values() for i in idx]
        self._grouped = tuple(sets[i] for i in order)
        self._order = np.argsort(order)

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    def distances(self, x: Point) -> list[float]:
        """Distance from x to each set, in set order."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._distances(_checked_coords(x, self.dim, "problem"))
        return out[self._order].tolist()

    def max_distance(self, x: Point) -> float:
        """Worst set distance from x: the stop-rule residual. A NaN distance
        makes it NaN, which no tolerance accepts."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self._distances(_checked_coords(x, self.dim, "problem")).max())

    def _distances(self, x: np.ndarray) -> np.ndarray:
        """Distance from a raw coordinate array to each set of self._grouped:
        from one point, a vector; from a (..., d) batch, a (..., m) array
        whose rows have the bits of their points' vectors."""
        out = np.concatenate([family(x) for family in self._families], axis=-1)
        # one reduction: NaN and +inf carry through max, and no built-in
        # entry is ever -inf
        if not math.isfinite(out.max()):
            # Overflow and NaN stay the business of each set's own _distance,
            # which gave the entries of a user subclass already.
            for *row, j in zip(*np.nonzero(~np.isfinite(out))):
                if type(self._grouped[j]) in _BUILT_IN:
                    out[(*row, j)] = self._grouped[j]._distance(x[tuple(row)])
        return out

    def sampling_scale(self) -> float:
        """Default hypercube half-width for sampled diagnostics: 4 times the
        largest scale_hint, with no floor, so it scales with the sets; 4.0
        when every hint is 0."""
        return 4.0 * (max(c.scale_hint() for c in self.sets) or 1.0)


def _each_distance(sets: Sequence[ConvexSet]) -> FamilyDistances:
    """The family of the sets with no stacked kind, each by its own _distance,
    point by point in row order. Only these sets may read NaN or raise at a
    finite point, so a run over a problem that holds one measures each row
    alone, as its step adds it."""

    def distances(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[:-1] + (len(sets),))
        for row, p in zip(out.reshape(-1, len(sets)), x.reshape(-1, x.shape[-1])):
            row[:] = [c._distance(p) for c in sets]
        return out

    return distances


# Steps over which the loop defers stop-rule residuals, to compute them in
# one batched call.
_RESIDUAL_BLOCK = 64


def _window_operators(
    problem: FeasibilityProblem, f: ControlMap, r: int, n: int = 0
) -> Iterator[DrOperator]:
    """S_n, S_{n+1}, ... in step order, S_k being the r-set DR operator over
    the sets the window at step k picks; one operator is built per distinct
    window, so quasi-periodic controls reuse a finite pool while aperiodic
    ones still run.

    A bad r or n, or a control whose range 1..f.m is not the problem's 1..m,
    raises here, at the call; a set index outside 1..m, which only a user
    ControlMap subclass can produce then, raises at the first step whose
    window holds it."""
    _require_range(f, problem.m, "sets")

    @cache  # one operator per distinct window
    def build(key: tuple[int, ...]) -> DrOperator:
        bad = [j for j in key if not 1 <= j <= problem.m]
        if bad:
            raise InvalidControl(
                f"control produced set index {bad[0]} but the problem has sets 1..{problem.m}"
            )
        return dr_operator([problem.sets[j - 1] for j in key])

    return map(build, _windows(f, r, n))


def build_S(problem: FeasibilityProblem, f: ControlMap, r: int, n: int) -> DrOperator:
    """The r-set DR operator over the sets selected by the window at step n."""
    return next(_window_operators(problem, f, r, n))


def build_composite_Q(problem: FeasibilityProblem, f: ControlMap, r: int) -> Composition:
    """Composition S_0, ..., S_jf (applied in that order), jf = cover_index(f)."""
    return Composition(islice(_window_operators(problem, f, r), cover_index(f) + 1))


def _certifier_residual(certifier: Operator | None, x: np.ndarray) -> float | None:
    return None if certifier is None else _norm(certifier._apply(x) - x)


def _iterate(
    steps: Iterator[tuple[Operator, str]],
    dim: int,
    x0: Point,
    stop: StopRule,
    problem: FeasibilityProblem | None,
    certifier: Operator | None,
    copy: bool,
) -> IterationTrace:
    """Shared loop: steps yields, in step order, the operator on R^dim
    producing x_n and its id, for n = 1, 2, ...; no item past max_iters is
    taken from it. The loop runs on raw arrays, with no dimension checks
    and no Point, so start, problem and certifier are checked against dim
    here. numpy's overflow and invalid flags are off while it runs: a value
    they would flag is reported in the trace (an inf displacement or
    distance, a non_finite status).

    The trace keeps each iterate array and makes it read-only. With copy the
    array kept is a float copy of what the operator returned, so an operator
    may reuse or keep its output buffer; without it the array kept is the
    one returned, which must be new. The library's DR operators and their
    compositions always return a new array.

    Each row's worst set distance is deferred as the module docstring's
    residual rule says: block is _RESIDUAL_BLOCK when every set is of a
    built-in kind, and 1 when a set of a user subclass may read NaN or
    raise."""
    for what, part in (("start", x0), ("problem", problem), ("certifier", certifier)):
        if part is not None and part.dim != dim:
            raise DimensionMismatch(f"{what} has dimension {part.dim}, expected {dim}")
    stacked = problem is None or all(type(c) in _BUILT_IN for c in problem.sets)
    block = _RESIDUAL_BLOCK if stacked else 1
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0.coords
        trace = IterationTrace([x], [0.0], [], ["init"], [_certifier_residual(certifier, x)])
        add_iterate, add_disp, add_id, add_residual = (
            c.append for c in (trace.iterates, trace.displacements, trace.operator_ids,
                               trace.certifier_residuals))
        iterates, dists, tol = trace.iterates, trace.max_set_distances, stop.displacement_tol

        def measure() -> bool:
            """Append the worst set distance of the rows from len(dists) on,
            by the module docstring's residual rule, and return whether the
            last row's is NaN."""
            rows = range(len(dists), len(iterates))
            if problem is None:
                dists.extend([0.0] * len(rows))
                return False
            shared = [i > 0 and iterates[i] is iterates[i - 1] for i in rows]
            if not all(shared):
                fresh = [iterates[i] for i, s in zip(rows, shared) if not s]
                worst = iter(problem._distances(np.array(fresh)).max(axis=1).tolist())
            for s in shared:
                dists.append(dists[-1] if s else next(worst))
            return dists[-1] != dists[-1]

        if measure() or problem is not None and dists[0] <= stop.feasibility_tol:
            trace.terminal_status = NON_FINITE if math.isnan(dists[0]) else FEASIBLE
            return trace
        status = MAX_ITERS
        for n, (op, op_id) in zip(range(1, stop.max_iters + 1), steps):
            x_next = op._apply(x)
            if copy:
                x_next = np.array(x_next, dtype=float)
            disp = _norm(x_next - x)
            # x is finite, so a finite displacement means a finite x_next
            if not disp < math.inf and not np.isfinite(x_next).all():
                status = NON_FINITE
                break
            # a zero displacement does not prove x_next equal to x: -0.0
            # against 0.0 gives one
            if disp == 0.0 and x_next.tobytes() == x.tobytes():
                x_next = x
                residual = trace.certifier_residuals[-1]
            else:
                x_next.setflags(write=False)
                residual = None if certifier is None else _certifier_residual(certifier, x_next)
            add_iterate(x_next)
            add_disp(disp)
            add_id(op_id)
            add_residual(residual)
            x = x_next
            settles = not 0.0 < tol < disp  # whether this step can stop the run
            if (settles or len(iterates) - len(dists) == block) and measure():
                status = NON_FINITE
                break
            if not settles:
                continue
            if dists[-1] <= stop.feasibility_tol and (problem is not None or tol > 0.0):
                status = CONVERGED_DISPLACEMENT if tol > 0.0 else FEASIBLE
                break
        if measure():
            status = NON_FINITE
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
    steps = zip(_window_operators(problem, f, r), map("S{}".format, count()))
    return _iterate(steps, problem.dim, x0, stop, problem, certifier, False)


def run_composite(
    problem: FeasibilityProblem,
    f: ControlMap,
    r: int,
    y0: Point,
    stop: StopRule = StopRule(),
    certifier: Operator | None = None,
) -> IterationTrace:
    """Fixed-operator scheme: y_n = Q y_{n-1} with Q = S_jf ... S_0."""
    Q = build_composite_Q(problem, f, r)
    return _iterate(repeat((Q, "Q")), problem.dim, y0, stop, problem, certifier, False)


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
    dim = _common_dim(operators, "operator")
    _require_range(h, len(operators), "operators")

    def steps() -> Iterator[tuple[Operator, str]]:
        for j in h.indices_from():
            if not 1 <= j <= len(operators):
                raise InvalidControl(
                    f"control produced operator index {j} but there are operators "
                    f"1..{len(operators)}"
                )
            yield operators[j - 1], f"T{j}"

    # The family may hold any Operator subclass, so its outputs are copied.
    return _iterate(steps(), dim, x0, stop, problem, certifier, True)
