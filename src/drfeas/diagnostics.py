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
(samples, d) batches, the first points x and the second points y, with the
per-row max(||x||, ||y||) and x - y of the draw, also read-only. The quasi
check, which reads only x, copies out x alone.

Every firm and plain check runs through ``run_check_suite``, the public ones
as suites of one entry. A built-in operator is a chain of steps on a batch
(``Operator._steps``): projections, reflections formed in place in their
projection's images (``ConvexSet._reflect_projection``), and DR averages
formed in place in their last reflection's images (``DrOperator._average``);
a user set's reflection, and any other operator, is one step. A suite puts
its chains into one trie per dimension, where chains share their common
prefixes, draws each dimension's pairs once, and walks the trie depth
first, computing each node's images once per batch. A node's reports read
its images before any child runs, only its last child may take them over
in place, and its images are let go at their last read, so every report
has the bits of its operator's ``_apply`` on the draw. Each scaled
difference of images, (Tx - Ty) * unit, is formed in one new array: the
draws, and what a user set or operator returns, are only read. The checks
share one report function, and the firm and plain ones each one violation
function of the sample and the images.

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

import inspect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import Operator
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


class _Sample(NamedTuple):
    """A check's draw, all read-only: the batches of first points x and
    second points y, per row max(||x||, ||y||) as space._row_norms measures
    it, and x - y."""

    x: np.ndarray
    y: np.ndarray
    norms: np.ndarray
    diff: np.ndarray


def _draw(dim: int, samples: int, scale: float, seed: int) -> np.ndarray:
    """The sampled pairs of a check, after validating its parameters, as
    one (samples, 2, dim) array, which one generator draws in order, so the
    first k pairs of an n-sample draw are those of a k-sample draw."""
    samples = _integer(samples, "samples", CheckParameterError, 1)
    seed = _integer(seed, "seed", CheckParameterError, 0)
    if not (0.0 < 2.0 * scale < math.inf):  # numpy draws from a range 2 * scale wide
        raise CheckParameterError("scale must be positive, with 2 * scale finite")
    return np.random.default_rng(seed).uniform(-scale, scale, size=(samples, 2, dim))


def _pairs(dim: int, samples: int, scale: float, seed: int) -> _Sample:
    """The draw of a firm or plain check (_draw): its first and second
    points copied out once, each into a read-only C-contiguous batch, and
    their norms and difference taken once.

    x, y and x - y are the three planes of one block. One large allocation,
    not three, keeps a suite's page faults down: glibc maps a block that
    size on its own, and once one is unmapped, it keeps up to twice that of
    free heap instead of returning it to the system, so the image arrays of
    a suite reuse the pages of the last."""
    P = _draw(dim, samples, scale, seed)
    block = np.empty((3, P.shape[0], dim))
    block[:2] = P.transpose(1, 0, 2)
    np.subtract(block[0], block[1], out=block[2])
    block.setflags(write=False)
    x, y, diff = block
    sample = _Sample(x, y, _max_norms(x, y), diff)
    sample.norms.setflags(write=False)
    return sample


def _max_norms(*batches: np.ndarray, M=0.0) -> np.ndarray:
    """Per row, the largest of M and the norms of that row in the batches,
    as space._row_norms measures them. A batch of one row broadcasts."""
    for b in batches:
        M = np.maximum(M, _row_norms(b))
    return M


def _scale(M: np.ndarray, *batches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row i, M 2^-e and the column of factors 2^-e, where M, from
    _max_norms, is the largest norm of row i in any batch, and 2^e is the
    power of two with M 2^-e in [0.5, 1), or 2^-1023 if that is smaller (a
    subnormal M). Multiplying by 2^-e is exact, and inner products of rows
    so scaled cannot overflow. An all-zero row reads M = 1, so it reads 0. A
    row whose M is inf (a <v, v> overflows) takes 2^e from its largest
    |coordinate| instead, as space._scaled picks it, and M 2^-e from the
    scaled rows. A batch of one row broadcasts."""
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


def _firm_violation(sample: _Sample, Tx: np.ndarray, Ty: np.ndarray) -> np.ndarray:
    """Per pair, ||Tx - Ty||^2 - <Tx - Ty, x - y> relative to M ||x - y||."""
    M, unit = _scale(_max_norms(Tx, Ty, M=sample.norms), sample.x, sample.y, Tx, Ty)
    dT, d = _scaled_difference(Tx, Ty, unit), sample.diff * unit
    excess = _row_dots(dT, dT) - _row_dots(dT, d)
    # A pair drawn twice, or so close that ||x - y|| underflows, has
    # ||x - y|| = 0; its excess is 0 then, or NaN from a non-finite image
    bound = M * _row_norms(d)
    return np.divide(excess, bound, out=excess, where=bound > 0.0)


def _plain_violation(sample: _Sample, Tx: np.ndarray, Ty: np.ndarray) -> np.ndarray:
    """Per pair, ||Tx - Ty|| - ||x - y|| relative to M."""
    M, unit = _scale(_max_norms(Tx, Ty, M=sample.norms), sample.x, sample.y, Tx, Ty)
    return (_row_norms(_scaled_difference(Tx, Ty, unit)) - _row_norms(sample.diff * unit)) / M


def _report(name: str, violation: np.ndarray, tol: float) -> PropertyReport:
    """The worst of the violations, one per sampled pair, as a check's
    report, which keeps their count, the int that samples checked as. A
    non-finite image makes a violation inf or NaN, and np.max keeps a NaN,
    so the check fails."""
    worst = float(np.max(violation, initial=0.0))
    return PropertyReport(name, len(violation), worst, tol, worst <= tol)


class _Node:
    """A step of a check suite's trie: its (kind, object) step, the node it
    runs on, and the node whose images it also reads as x, its source (a
    reflection's is its projection's input, an average's its chain's
    input); its children in order, the (index, name, violation) reports
    that end at it, and while they live, its images of the two batches
    with the count of the reads of them still to come."""

    __slots__ = ("kind", "obj", "parent", "source", "children", "reports", "reads", "images")

    def __init__(self, kind, obj, parent, source) -> None:
        self.kind, self.obj, self.parent, self.source = kind, obj, parent, source
        self.children, self.reports, self.reads, self.images = (), (), 0, None


def _images(node: _Node) -> list:
    """The images of node's step on the two batches, by the method its kind
    names (Operator._steps), from its parent's images and, for a step with
    a source (_reflect_projection and _average), its source's as x. Such a
    step writes into its parent's images: it takes them over at their last
    read, which only the parent's last child makes, and otherwise writes
    into a copy. The last read of a node's images lets go of them."""
    inputs = [node.parent] if node.source is None else [node.parent, node.source]
    v, *x = [n.images for n in inputs]
    for n in inputs:
        n.reads -= 1
        if not n.reads:
            n.images = None
    if x and node.parent.images is not None:
        v = [a.copy() for a in v]
    return [getattr(node.obj, node.kind)(*args) for args in zip(v, *x)]


def _trie(entries) -> dict:
    """Per dimension, the root of a trie of the chains of steps
    (Operator._steps) of the (name, operator, violation) entries. A node
    stands for a chain prefix, found by the identity of each step's object
    (a user set or operator may define __eq__, or be unhashable), so chains
    share their common prefixes; an entry's report ends at the node of its
    whole chain."""
    roots, nodes = {}, {}
    for i, (name, op, violation) in enumerate(entries):
        path = [roots.setdefault(op.dim, _Node(None, None, None, None))]
        for kind, obj in op._steps():
            key = (id(path[-1]), kind, id(obj))
            if key not in nodes:
                # a reflection reads its projection's input, an average its chain's
                back = (2 if kind == "_reflect_projection"
                        else len(obj._steps()) if kind == "_average" else 0)
                nodes[key] = _Node(kind, obj, path[-1], path[-back] if back else None)
                path[-1].children += (nodes[key],)
                path[-1].reads += 1
                if back:
                    path[-back].reads += 1
            path.append(nodes[key])
        path[-1].reports += ((i, name, violation),)
    return roots


def _suite(entries, samples: int, scale: float, seed: int, tol: float) -> list[PropertyReport]:
    """The reports of (name, operator, violation) entries, in their order.
    Each dimension draws its pairs once and walks its trie depth first: a
    node's reports read its images before any child runs, and each image
    is let go at its last read, so a path's images live only while a step
    still reads them."""
    reports = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for dim, root in _trie(entries).items():
            sample = _pairs(dim, samples, scale, seed)
            root.images, stack = (sample.x, sample.y), [root]
            while stack:
                node = stack.pop()
                if node is not root:
                    node.images = _images(node)
                for i, name, violation in node.reports:
                    reports[i] = _report(name, violation(sample, *node.images), tol)
                if not node.reads:
                    node.images = None
                stack += reversed(node.children)
                node.children = ()  # the walk holds the children now
    return [reports[i] for i in range(len(reports))]


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
    return _suite([(name, T, _firm_violation)], samples, scale, seed, tol)[0]


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
    return _suite([(name, T, _plain_violation)], samples, scale, seed, tol)[0]


# The report name and the violation of each check a suite entry names.
_KINDS = {check_firmly_nonexpansive: ("firmly_nonexpansive", _firm_violation),
          check_nonexpansive: ("nonexpansive", _plain_violation)}


def run_check_suite(suite, samples: int, scale: float, seed: int) -> list[PropertyReport]:
    """The reports of a check suite, in its order: one per (label, operator,
    check) entry, where check is check_firmly_nonexpansive or
    check_nonexpansive, or a function that wraps one (functools.wraps), and
    the report is firmly_nonexpansive[label] or nonexpansive[label]. Each
    report has the bits of that check of its operator alone, which is a
    suite of one entry. `drfeas check` and AC-1 run here. The entries may
    come from an iterator: each is put into the suite's trie (_trie) as it
    comes, and its operator is kept only as far as its steps need it."""
    entries = ((f"{kind}[{label}]", op, violation) for label, op, check in suite
               for kind, violation in [_KINDS[inspect.unwrap(check)]])
    return _suite(entries, samples, scale, seed, 1e-10)


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
        M, unit = _scale(_max_norms(q[None], Tq[None]), q[None], Tq[None])
        residual = float(_row_norms((Tq - q) * unit)[0] / M[0])
    if not residual <= tol:  # a NaN residual is no fixed point either
        raise CheckParameterError(
            f"p is not a fixed point of the operator: relative residual "
            f"{residual:.3e} exceeds tol {tol:.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        # the first points alone, in a read-only C-contiguous copy
        x = _draw(T.dim, samples, scale, seed)[:, 0].copy()
        x.setflags(write=False)
        Tx = T._apply(x)
        M, unit = _scale(_max_norms(x, Tx, q[None]), x, Tx, q[None])
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
