"""Control sequences selecting set (or operator) indices per iteration.

A control map sends step numbers n = 0, 1, ... to indices in {1, ..., m}.
Three constructors are provided, each surjective by construction:

* ``Cyclic(m)``: n -> n mod m + 1.
* ``Explicit(prefix)``: a finite surjective prefix repeated forever.
* ``RandomBlock(m, M, seed)``: every aligned block of M consecutive steps
  contains all of {1, ..., m}, with uniformly random layout otherwise.

Every reader takes a control's indices in step order, from one lazy stream
per run: ``ControlMap.indices_from(start)`` yields the indices of steps
start, start + 1, ... without end, and ``_windows`` slides the DR windows
over one such stream. ``index_at`` answers a single step. A RandomBlock
stream draws each block once, in groups that grow from one block to at
least ``_GROUP`` indices, as it reaches the group, and keeps only that
group. A block's indices are those numpy draws from
``default_rng([seed, block])``, a permutation of 1..m, then M - m uniform
indices, shuffled together; ``_block_pattern`` makes the same draws with
fewer calls, so the stream is the one it always was.

``is_quasi_periodic`` verifies M-quasi-periodicity (every window of M
consecutive values covers the full range) over a finite horizon only; it is
a check, not a proof over all of N. The constructors above carry a
``quasi_period`` for which the property holds by construction.

Note on indexing: iterates and windows count steps from n = 0, while the
cover index scans arguments starting at 1 (the covering set is {1, ..., j});
both conventions are kept as-is, so cover_index(Cyclic(m)) == m.

Each parameter rule has one home: integers, bools refused, go through
``space._integer``; a step number, also a window's, through
``ControlMap._require_step``; the window width and the window formula
through ``_windows``; and the rule that a control's range 1..m matches the
family it indexes is ``_require_range``, which the solver and the document
parser call with their own error class.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain, count, islice
from typing import Iterable, Iterator

import numpy as np

from .space import _integer


class InvalidControl(ValueError):
    """Control parameters or usage violate an invariant."""


class ControlMap(ABC):
    """Deterministic mapping from step numbers onto {1, ..., m}."""

    __slots__ = ()

    #: size of the index range {1, ..., m}
    m: int
    #: an M for which the map is M-quasi-periodic by construction
    quasi_period: int

    @abstractmethod
    def index_at(self, n: int) -> int:
        """Index selected at step n >= 0."""

    def indices_from(self, start: int = 0) -> Iterator[int]:
        """The indices selected at steps start, start + 1, ..., without end:
        index_at over them. start is checked at the call. A subclass may
        override it with a faster stream of the same indices."""
        return map(self.index_at, count(self._require_step(start)))

    def _require_step(self, n: int) -> int:
        return _integer(n, "step number", InvalidControl, 0)


class Cyclic(ControlMap):
    """Round-robin control: n -> n mod m + 1."""

    __slots__ = ("m", "quasi_period")

    def __init__(self, m: int) -> None:
        self.m = self.quasi_period = _integer(m, "range size m", InvalidControl, 1)

    def index_at(self, n: int) -> int:
        return self._require_step(n) % self.m + 1

    def __repr__(self) -> str:
        return f"Cyclic({self.m})"


class Explicit(ControlMap):
    """A finite prefix of indices repeated cyclically forever.

    The prefix must itself be surjective onto {1, ..., max(prefix)}.
    """

    __slots__ = ("prefix", "m", "quasi_period")

    def __init__(self, prefix) -> None:
        try:
            prefix = tuple(_integer(i, "index", InvalidControl) for i in prefix)
        except TypeError:  # not iterable
            raise InvalidControl(f"prefix must be a sequence of integers, got {prefix!r}") from None
        if not prefix:
            raise InvalidControl("prefix must be nonempty")
        if min(prefix) < 1:
            raise InvalidControl("indices must be >= 1")
        m = max(prefix)
        # every entry lies in 1..m, so m distinct entries are all of 1..m
        if len(set(prefix)) != m:
            raise InvalidControl(
                f"prefix must cover all of 1..{m}, got values {sorted(set(prefix))}"
            )
        self.prefix = prefix
        self.m = m
        # any len(prefix) consecutive steps cover one full period
        self.quasi_period = len(prefix)

    def index_at(self, n: int) -> int:
        return self.prefix[self._require_step(n) % len(self.prefix)]

    def __repr__(self) -> str:
        return f"Explicit({list(self.prefix)})"


# Indices a RandomBlock stream's groups of blocks grow to cover.
_GROUP = 128


def _seed_words(*values: int) -> np.ndarray:
    """The uint32 array numpy's SeedSequence makes of a list of ints >= 0:
    each value's 32-bit words, lowest first, and one word for 0."""
    words = []
    for n in values:
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.array(words, np.uint32)


def _block_pattern(m: int, M: int, seed: int, block: int) -> tuple[int, ...]:
    # Counter-based: each block's content depends only on (seed, block), so
    # a block is drawn alone, in any order, with no shared RNG state. The
    # draws are default_rng([seed, block])'s permutation(m) + 1 and
    # integers(1, m + 1, size=M - m), shuffled together, by fewer calls: the
    # generator is seeded with the words SeedSequence makes of [seed, block],
    # and permutation(m) is a shuffle of arange(m), here shuffled in place.
    rng = np.random.Generator(np.random.PCG64(_seed_words(seed, block)))
    try:
        vals = np.arange(1, M + 1)
        rng.shuffle(vals[:m])
        vals[m:] = rng.integers(1, m + 1, size=M - m)
    except ValueError as exc:  # numpy refuses the size before allocating it
        raise InvalidControl(f"cannot draw a block of length M={M}: {exc}") from exc
    rng.shuffle(vals)
    return tuple(vals.tolist())


class RandomBlock(ControlMap):
    """Random control that is quasi-periodic by construction.

    Each aligned block of M steps holds a random permutation of {1, ..., m}
    plus M - m uniform indices, shuffled within the block. Deterministic for
    a fixed seed. Sliding windows of length 2M - 1 always contain a whole
    aligned block, so the map is (2M - 1)-quasi-periodic.
    """

    __slots__ = ("m", "M", "seed", "quasi_period")

    def __init__(self, m: int, M: int, seed: int) -> None:
        self.m = _integer(m, "range size m", InvalidControl, 1)
        self.M = _integer(M, "block length M", InvalidControl)
        self.seed = _integer(seed, "seed", InvalidControl, 0)
        if self.M < self.m:
            raise InvalidControl("block length M must satisfy M >= m")
        self.quasi_period = 2 * self.M - 1

    def index_at(self, n: int) -> int:
        """Index selected at step n >= 0. Each call draws the block of M
        indices that holds step n, so a reader of many steps in order takes
        indices_from, which draws each block once."""
        block, pos = divmod(self._require_step(n), self.M)
        return _block_pattern(self.m, self.M, self.seed, block)[pos]

    def indices_from(self, start: int = 0) -> Iterator[int]:
        # Blocks are drawn in groups of 1, 2, 4, ... blocks, up to at least
        # _GROUP indices, each block once, as the stream reaches its group:
        # a few draws in a row cost less per block than one draw between
        # every few DR steps, and a short read still draws few blocks.
        first, pos = divmod(self._require_step(start), self.M)
        most = -(-_GROUP // self.M)

        def groups() -> Iterator[list[int]]:
            g, k, skip = first, 1, pos
            while True:
                blocks = range(g, g + k)
                yield [i for b in blocks for i in _block_pattern(self.m, self.M, self.seed, b)][skip:]
                g, k, skip = g + k, min(2 * k, most), 0

        return chain.from_iterable(groups())

    def __repr__(self) -> str:
        return f"RandomBlock(m={self.m}, M={self.M}, seed={self.seed})"


def _windows(f: ControlMap, r: int, n: int = 0) -> Iterator[tuple[int, ...]]:
    """The windows of steps n, n + 1, ... in step order, each the tuple of
    the r indices f((r-1)k + j - 1), j = 1..r, selected at step k.

    r and n are checked at the call. Consecutive windows overlap in one
    index, since the stride is r - 1, so the windows slide over one
    indices_from stream: each step keeps the last index of the window
    before it and reads r - 1 new ones."""
    r = _integer(r, "window width r", InvalidControl)
    if r <= 1:
        raise InvalidControl("window width r must be an integer greater than 1")
    indices = f.indices_from((r - 1) * f._require_step(n))

    def slide() -> Iterator[tuple[int, ...]]:
        w = (next(indices),)
        for new in zip(*[indices] * (r - 1)):
            w = w[-1:] + new
            yield w

    return slide()


def window(f: ControlMap, r: int, n: int) -> list[int]:
    """The r indices selected at step n: f((r-1)n + j - 1) for j = 1..r,
    the first window of _windows(f, r, n)."""
    return list(next(_windows(f, r, n)))


def _require_range(f: ControlMap, size: int, what: str,
                   error: type[ValueError] = InvalidControl, name: str = "control") -> None:
    """The rule that a control's range 1..f.m is the family of size members
    it indexes (what names them, name the control in the message); a
    mismatch raises error."""
    if f.m != size:
        raise error(f"{name} range 1..{f.m} does not match the {size} {what}")


def cover_index(f: ControlMap) -> int:
    """Smallest j >= 1 such that {f(1), ..., f(j)} is all of {1, ..., m}.

    The scan starts at argument 1, not 0. A cap of min(10*m*quasi_period,
    10^6) guards against maps whose early arguments never cover the range.
    """
    target = set(range(1, f.m + 1))
    seen: set[int] = set()
    cap = min(10 * f.m * f.quasi_period, 10**6)
    for j, index in enumerate(islice(f.indices_from(1), cap), 1):
        seen.add(index)
        if seen == target:
            return j
    raise InvalidControl(
        f"arguments 1..{cap} never cover 1..{f.m}; control looks non-surjective"
    )


def _every_run_covers(values: Iterable, M: int, horizon: int, universe=None) -> bool:
    """Whether every run of M consecutive items among the first horizon of
    values contains all of universe (default: every value that occurs
    within the horizon)."""
    M, horizon = _integer(M, "M", InvalidControl, 1), _integer(horizon, "horizon", InvalidControl)
    if horizon < M:
        raise InvalidControl("horizon must be at least M")
    values = list(islice(values, horizon))
    universe = set(values) if universe is None else universe
    return all(
        set(values[start : start + M]) == universe for start in range(horizon - M + 1)
    )


def is_quasi_periodic(f: ControlMap, M: int, horizon: int) -> bool:
    """Check whether every length-M window within the horizon covers 1..m.

    Finite-horizon verification only: a True verdict holds for windows
    starting at n = 0, ..., horizon - M, not for all of N.
    """
    return _every_run_covers(f.indices_from(), M, horizon, set(range(1, f.m + 1)))


def windows_quasi_periodic(f: ControlMap, r: int, M: int, horizon: int) -> bool:
    """Quasi-periodicity of the window sequence n -> window(f, r, n).

    Windows are compared as ordered index tuples. Every length-M run of
    consecutive steps within the horizon must contain every distinct window
    tuple that occurs anywhere in the horizon.
    """
    return _every_run_covers(_windows(f, r), M, horizon)
