"""Problem documents, run configurations, and trace/report tables.

A problem document is a single JSON object. Keys ``dimension`` and ``sets``
are required; the rest configure a run:

    {
      "dimension": 2,
      "sets": [
        {"kind": "Ball", "center": [0.0, 0.0], "radius": 1.0},
        {"kind": "Halfspace", "a": [1.0, 0.0], "b": 2.0}
      ],
      "interior_point": [0.0, 0.0],
      "scheme": "composite_q",
      "control": {"rule": "cyclic", "m": 2},
      "r": 2,
      "x0": [5.0, 5.0],
      "stop": {"max_iters": 10000, "displacement_tol": 1e-10,
               "feasibility_tol": 1e-8},
      "trace_path": "run.trace.csv"
    }

Schemes: ``unrestricted_dr`` and ``composite_q`` need ``control`` (over the
set indices) and an integer ``r`` in 2..``MAX_R``. Scheme ``product``
additionally needs an ``operators`` list and uses ``control`` over the
operator indices; operator specs that derive from control windows
(``s_window``, ``composite_q``) read ``window_control`` and ``r``. ``x0`` is a coordinate list, ``"origin"``, or
``"random(seed, scale)"``. An optional ``certifier`` operator spec adds a
residual column to the trace. Parsing builds every set, operator and the
start point once; the resulting ``RunConfig`` holds objects, not specs.

Control rules: ``{"rule": "cyclic", "m": ...}``, ``{"rule": "explicit",
"prefix": [...]}``, ``{"rule": "random_block", "m": ..., "M": ...,
"seed": ...}`` with ``M`` at most ``MAX_M``.

The control and stop fields are checked by the constructors they are passed
to (``Cyclic``, ``Explicit``, ``RandomBlock``, ``StopRule``), and a control's
range by ``control._require_range``; the parser adds the location to their
errors. It checks itself only what a document alone can get wrong: integer
``dimension`` and ``n`` (by the integer rules of ``space``), ``r``, set
indices and ``lambda``, JSON booleans in float fields, and the bounds
``MAX_R`` and ``MAX_M``.

Traces and property reports serialize to comma-separated tables with a
one-line header; floats are written in full round-trip precision, so a
fixed seed reproduces files byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .control import ControlMap, Cyclic, Explicit, RandomBlock, _require_range
from .convex import ConvexSet, InvalidSet, set_from_params
from .diagnostics import PropertyReport
from .operators import Operator, Projection, Relaxation, dr_operator
from .solver import (
    FeasibilityProblem,
    IterationTrace,
    StopRule,
    build_S,
    build_composite_Q,
    run_composite,
    run_unrestricted_dr,
    run_unrestricted_product,
)
from .space import Point, _dimension, _integer

SCHEMES = ("unrestricted_dr", "composite_q", "product")

# Widest DR window a document may ask for: each step's window is a tuple of
# r indices and its DR operator composes r reflections, so this bounds one
# window at 10k indices.
MAX_R = 10_000

# Longest random_block block a document may ask for: a block draws M int64
# indices and is kept as a tuple of M ints, so this bounds one block at
# ~50 MB while it is drawn and ~33 MB once kept. A run's index stream keeps
# only the group of blocks it is reading, whole blocks of at least 128
# indices in all (one block when M >= 128), so this bounds the run too.
MAX_M = 1_000_000

# Dimension from which format_trace compares a new iterate's bits with the
# previous one's to reformat only the changed coordinates. The comparison
# costs about five numpy calls per row, as much as ~5 reprs of a float: at
# d=32 it wins once about a third of the coordinates keep their bits, and
# at d=3 it costs more than it saves (the six seed-1 narrow_random_block
# benchmark traces format in 0.32 s with it, 0.18 s without).
_DIFF_MIN_DIM = 32

_RANDOM_X0 = re.compile(r"^random\(\s*(\d+)\s*,\s*([0-9.eE+-]+)\s*\)$")


class ParseError(ValueError):
    """Malformed problem document; the message carries the offending location."""


@dataclass
class RunConfig:
    scheme: str
    control: ControlMap
    x0: Point
    r: int | None = None
    stop: StopRule = field(default_factory=StopRule)
    trace_path: str | None = None
    operators: list[Operator] | None = None
    certifier: Operator | None = None
    window_control: ControlMap | None = None


def _is_int(value: object) -> bool:
    """True for JSON integers; bool subclasses int, but JSON true is no number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc: dict, key: str) -> object:
    if key not in doc:
        raise ParseError(f"missing required key {key!r}")
    return doc[key]


def _parse_sets(doc: dict) -> list[ConvexSet]:
    dimension = _dimension(_require(doc, "dimension"), ParseError)
    raw_sets = _require(doc, "sets")
    if not isinstance(raw_sets, list) or not raw_sets:
        raise ParseError("sets must be a nonempty list")
    sets = []
    for i, params in enumerate(raw_sets):
        if not isinstance(params, dict):
            raise ParseError(f"sets[{i}]: expected an object")
        try:
            c = set_from_params(params)
        except (InvalidSet, ValueError) as exc:
            raise ParseError(f"sets[{i}]: {exc}") from exc
        if c.dim != dimension:
            raise ParseError(
                f"sets[{i}]: set has dimension {c.dim}, document declares {dimension}"
            )
        sets.append(c)
    return sets


def parse_document(text: str) -> tuple[FeasibilityProblem, RunConfig | None]:
    """Parse a full document; the config is None when no scheme is given."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if "true" in text or "false" in text:  # ordinary documents skip the walk
        _reject_booleans(doc)

    sets = _parse_sets(doc)
    interior = None
    if doc.get("interior_point") is not None:
        try:
            interior = Point(doc["interior_point"])
        except ValueError as exc:
            raise ParseError(f"interior_point: {exc}") from exc
    try:
        problem = FeasibilityProblem(sets, interior)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    if "scheme" not in doc:
        return problem, None
    return problem, _parse_config(doc, problem)


def _holds_bool(value: object) -> bool:
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def _reject_booleans(doc: dict) -> None:
    """JSON true/false in a numeric field: bool subclasses int, so numpy
    would otherwise read them as 1.0 and 0.0."""
    fields = [(k, doc.get(k)) for k in ("interior_point", "x0")]
    sets = doc.get("sets")
    for i, params in enumerate(sets if isinstance(sets, list) else []):
        if isinstance(params, dict):
            fields += [(f"sets[{i}].{k}", v) for k, v in params.items()]
    if isinstance(doc.get("stop"), dict):
        fields += [(f"stop.{k}", v) for k, v in doc["stop"].items()]
    for where, value in fields:
        if _holds_bool(value):
            raise ParseError(f"{where}: expected numbers, got a JSON boolean")


def _parse_control(raw: object, where: str) -> ControlMap:
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object with a 'rule' key")
    rule = raw.get("rule")
    try:
        if rule == "cyclic":
            return Cyclic(raw["m"])
        if rule == "explicit":
            return Explicit(raw["prefix"])
        if rule == "random_block":
            block = RandomBlock(raw["m"], raw["M"], raw["seed"])
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc} for rule {rule!r}") from exc
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    if rule != "random_block":
        raise ParseError(f"{where}: unknown rule {rule!r}")
    if block.M > MAX_M:
        raise ParseError(f"{where}: cannot draw a block of length M={block.M}: "
                         f"a document allows M <= {MAX_M}")
    return block


def _parse_stop(raw: object) -> StopRule:
    if raw is None:
        return StopRule()
    if not isinstance(raw, dict):
        raise ParseError("stop: expected an object")
    known = {"max_iters", "displacement_tol", "feasibility_tol"}
    extra = set(raw) - known
    if extra:
        raise ParseError(f"stop: unknown fields {sorted(extra)}")
    try:
        return StopRule(**raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"stop: {exc}") from exc


def _parse_config(doc: dict, problem: FeasibilityProblem) -> RunConfig:
    scheme = doc["scheme"]
    if scheme not in SCHEMES:
        raise ParseError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    control = _parse_control(_require(doc, "control"), "control")
    r = doc.get("r")
    window_control = None
    if doc.get("window_control") is not None:
        window_control = _parse_control(doc["window_control"], "window_control")

    if scheme in ("unrestricted_dr", "composite_q"):
        _check_windows(f"scheme {scheme!r}", r, control, "control", problem.m)

    operators = None
    if scheme == "product":
        raw_ops = _require(doc, "operators")
        if not isinstance(raw_ops, list) or not raw_ops:
            raise ParseError("operators must be a nonempty list")
        operators = [
            _parse_operator(spec, problem, r, window_control, f"operators[{i}]")
            for i, spec in enumerate(raw_ops)
        ]
        _require_range(control, len(operators), "operators", ParseError)

    certifier = doc.get("certifier")
    if certifier is not None:
        certifier = _parse_operator(certifier, problem, r, window_control, "certifier")
    trace_path = doc.get("trace_path")
    if trace_path is not None and not isinstance(trace_path, str):
        raise ParseError(f"trace_path must be a string, got {trace_path!r}")

    return RunConfig(
        scheme=scheme,
        control=control,
        x0=_parse_x0(doc.get("x0", "origin"), problem.dim),
        r=r,
        stop=_parse_stop(doc.get("stop")),
        trace_path=trace_path,
        operators=operators,
        certifier=certifier,
        window_control=window_control,
    )


def _check_windows(where: str, r: object, control: ControlMap, key: str, m: int) -> None:
    """What DR windows need: an integer width r in 2..MAX_R and a control
    (document key `key`) whose range is the problem's sets 1..m."""
    if not _is_int(r) or not 1 < r <= MAX_R:
        raise ParseError(f"{where} needs an integer r > 1 and <= {MAX_R}")
    _require_range(control, m, "sets", ParseError, f"{where}: {key}")


def _parse_operator(
    spec: object,
    problem: FeasibilityProblem,
    r: int | None,
    window_control: ControlMap | None,
    where: str,
) -> Operator:
    """Check an operator spec and build it against the problem's sets."""
    def pick(idx: object) -> ConvexSet:
        if not _is_int(idx) or not (1 <= idx <= problem.m):
            raise ParseError(f"{where}: set index must lie in 1..{problem.m}")
        return problem.sets[idx - 1]

    if not isinstance(spec, dict):
        raise ParseError(f"{where}: expected an object")
    kind = spec.get("type")
    if kind in ("projection", "relaxed_projection"):
        projection = Projection(pick(spec.get("set")))
        if kind == "projection":
            return projection
        lam = spec.get("lambda")
        if not (_is_int(lam) or isinstance(lam, float)) or not (0.0 < lam < 2.0):
            raise ParseError(
                f"{where}: lambda must lie strictly inside (0, 2) for the "
                "operator to stay strongly nonexpansive"
            )
        return Relaxation(projection, float(lam))
    if kind == "dr":
        idxs = spec.get("sets")
        if not isinstance(idxs, list) or not idxs:
            raise ParseError(f"{where}: 'sets' must be a nonempty index list")
        return dr_operator([pick(i) for i in idxs])
    if kind in ("s_window", "composite_q"):
        if window_control is None:
            raise ParseError(f"{where}: {kind!r} needs document keys 'window_control' and 'r' > 1")
        _check_windows(f"{where}: {kind!r}", r, window_control, "window_control", problem.m)
        if kind == "composite_q":
            return build_composite_Q(problem, window_control, r)
        n = _integer(spec.get("n"), f"{where}: 'n'", ParseError, 0)
        return build_S(problem, window_control, r, n)
    raise ParseError(f"{where}: unknown operator type {kind!r}")


def _parse_x0(x0: object, dim: int) -> Point:
    if isinstance(x0, str):
        if x0 == "origin":
            return Point(np.zeros(dim))
        match = _RANDOM_X0.match(x0)
        if match is None:
            raise ParseError(
                f"x0 must be a coordinate list, 'origin', or 'random(seed, scale)'; "
                f"got {x0!r}"
            )
        rng = np.random.default_rng([int(match.group(1))])
        try:
            scale = float(match.group(2))
            coords = rng.uniform(-scale, scale, size=dim)
        except (OverflowError, ValueError) as exc:  # 1e999, 1e308, -3, 1.2.3
            raise ParseError(f"x0: bad scale in {x0!r}: {exc}") from exc
        return Point(coords)
    try:
        p = Point(x0)
    except ValueError as exc:
        raise ParseError(f"x0: {exc}") from exc
    if p.dim != dim:
        raise ParseError(f"x0 has dimension {p.dim}, document declares {dim}")
    return p


def execute_config(problem: FeasibilityProblem, config: RunConfig) -> IterationTrace:
    """Run the scheme a config describes and return its trace."""
    if config.scheme == "product":
        return run_unrestricted_product(
            config.operators, config.control, config.x0, config.stop, problem,
            config.certifier,
        )
    run = run_unrestricted_dr if config.scheme == "unrestricted_dr" else run_composite
    return run(problem, config.control, config.r, config.x0, config.stop, config.certifier)


def load_document(path) -> tuple[FeasibilityProblem, RunConfig | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def format_trace(trace: IterationTrace, dim: int) -> str:
    """Comma-separated trace table: one header line, then one row per step.

    Rows of an unchanged iterate share one array, and its coordinates are
    formatted once. From dimension _DIFF_MIN_DIM on, a new array reformats
    only the coordinates whose bits differ from the previous array's
    (a 64-bit integer comparison, so 0.0 and -0.0 differ) and keeps the text
    of the rest; on the seed-1 ``wide_mixed`` benchmark documents (d=1000)
    28.5% of the coordinates after each first row keep their bits. Each row
    enters the table as its prefix, the shared coordinate text and its
    certifier field, and one join builds the table.
    """
    with_certifier = any(c is not None for c in trace.certifier_residuals)
    header = ["n", "applied_operator_id", "displacement", "max_set_distance"]
    header += [f"coord_{i + 1}" for i in range(dim)]
    if with_certifier:
        header.append("certifier_residual")
    parts = [",".join(header), "\n"]
    rows = zip(trace.iterates, trace.operator_ids, trace.displacements,
               trace.max_set_distances, trace.certifier_residuals)
    last = None
    for n, (x, op_id, disp, dist, residual) in enumerate(rows):
        if x is not last:
            if last is None or dim < _DIFF_MIN_DIM:
                texts = list(map(repr, x.tolist()))
            else:
                changed = np.flatnonzero(x.view(np.int64) != last.view(np.int64))
                for i, value in zip(changed.tolist(), x[changed].tolist()):
                    texts[i] = repr(value)
            last, coords = x, ",".join(texts)
        parts += (f"{n},{op_id},{disp!r},{dist!r},", coords)
        if with_certifier:
            parts += (",", repr(residual))
        parts.append("\n")
    return "".join(parts)


def write_trace(trace: IterationTrace, dim: int, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_trace(trace, dim))


def format_reports(reports: list[PropertyReport]) -> str:
    """Property reports in the same tabular text format as traces."""
    lines = ["property_name,samples,worst_violation,tolerance,pass"]
    for rep in reports:
        lines.append(
            f"{rep.property_name},{rep.samples},{rep.worst_violation!r},"
            f"{rep.tolerance!r},{'true' if rep.passed else 'false'}"
        )
    return "\n".join(lines) + "\n"
