"""Control sequences selecting set (or operator) indices per iteration.

A control map sends step numbers n = 0, 1, ... to indices in {1, ..., m}.
Three constructors are provided, each surjective by construction:

* ``Cyclic(m)``: n -> n mod m + 1.
* ``Explicit(prefix)``: a finite surjective prefix repeated forever.
* ``RandomBlock(m, M, seed)``: every aligned block of M consecutive steps
  contains all of {1, ..., m}, with uniformly random layout otherwise.

``is_quasi_periodic`` verifies M-quasi-periodicity (every window of M
consecutive values covers the full range) over a finite horizon only; it is
a check, not a proof over all of N. The constructors above carry a
``quasi_period`` for which the property holds by construction.

Note on indexing: iterates and windows count steps from n = 0, while the
cover index scans arguments starting at 1 (the covering set is {1, ..., j});
both conventions are kept as-is, so cover_index(Cyclic(m)) == m.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

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

    def indices(self, start: int, count: int) -> list[int]:
        """Indices selected at steps start, ..., start + count - 1 (count >= 0):
        the list of index_at over them. A subclass may override it with a
        faster form that returns the same list."""
        return [self.index_at(n) for n in range(start, start + count)]

    def _require_step(self, n: int) -> int:
        n = _integer(n, "step number", InvalidControl)
        if n < 0:
            raise InvalidControl("step number must be nonnegative")
        return n


class Cyclic(ControlMap):
    """Round-robin control: n -> n mod m + 1."""

    __slots__ = ("m", "quasi_period")

    def __init__(self, m: int) -> None:
        self.m = self.quasi_period = _integer(m, "range size m", InvalidControl)
        if self.m < 1:
            raise InvalidControl("range size m must be a positive integer")

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
        prefix = tuple(_integer(i, "index", InvalidControl) for i in prefix)
        if not prefix:
            raise InvalidControl("prefix must be nonempty")
        if min(prefix) < 1:
            raise InvalidControl("indices must be >= 1")
        m = max(prefix)
        if set(prefix) != set(range(1, m + 1)):
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


@lru_cache(maxsize=1024)
def _block_pattern(m: int, M: int, seed: int, block: int) -> tuple[int, ...]:
    # Counter-based: each block's content depends only on (seed, block), so
    # lookups are order-independent and need no shared RNG state.
    rng = np.random.default_rng([seed, block])
    try:
        vals = np.concatenate(
            [rng.permutation(m) + 1, rng.integers(1, m + 1, size=M - m)]
        )
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
        self.m = _integer(m, "range size m", InvalidControl)
        self.M = _integer(M, "block length M", InvalidControl)
        self.seed = _integer(seed, "seed", InvalidControl)
        if self.m < 1:
            raise InvalidControl("range size m must be a positive integer")
        if self.M < self.m:
            raise InvalidControl("block length M must satisfy M >= m")
        if self.seed < 0:
            raise InvalidControl("seed must be a nonnegative integer")
        self.quasi_period = 2 * self.M - 1

    def index_at(self, n: int) -> int:
        n = self._require_step(n)
        block, pos = divmod(n, self.M)
        return _block_pattern(self.m, self.M, self.seed, block)[pos]

    def indices(self, start: int, count: int) -> list[int]:
        start = self._require_step(start)
        first, pos = divmod(start, self.M)
        out: list[int] = []
        for block in range(first, (start + count - 1) // self.M + 1):
            out += _block_pattern(self.m, self.M, self.seed, block)
        return out[pos : pos + count]

    def __repr__(self) -> str:
        return f"RandomBlock(m={self.m}, M={self.M}, seed={self.seed})"


def window(f: ControlMap, r: int, n: int, steps: int = 1) -> list[int]:
    """The r indices selected at step n: f((r-1)n + j - 1) for j = 1..r.

    Consecutive windows overlap because the stride is r - 1. With steps > 1
    the windows of steps n, ..., n + steps - 1 come as one run of
    (r-1) steps + 1 indices, in which the window of step n + k is the slice
    [(r-1)k, (r-1)k + r).
    """
    r = _integer(r, "window width r", InvalidControl)
    n = _integer(n, "step number", InvalidControl)
    steps = _integer(steps, "window run", InvalidControl)
    if r <= 1:
        raise InvalidControl("window width r must be an integer greater than 1")
    if n < 0:
        raise InvalidControl("step number must be nonnegative")
    if steps < 1:
        raise InvalidControl("window run must span at least one step")
    return f.indices((r - 1) * n, (r - 1) * steps + 1)


def cover_index(f: ControlMap) -> int:
    """Smallest j >= 1 such that {f(1), ..., f(j)} is all of {1, ..., m}.

    The scan starts at argument 1, not 0. A cap of min(10*m*quasi_period,
    10^6) guards against maps whose early arguments never cover the range.
    """
    target = set(range(1, f.m + 1))
    seen: set[int] = set()
    cap = min(10 * f.m * f.quasi_period, 10**6)
    for j in range(1, cap + 1):
        seen.add(f.index_at(j))
        if seen == target:
            return j
    raise InvalidControl(
        f"arguments 1..{cap} never cover 1..{f.m}; control looks non-surjective"
    )


def _every_run_covers(value_at, M: int, horizon: int, universe=None) -> bool:
    """Whether every run of M consecutive values value_at(0), ...,
    value_at(horizon - 1) contains all of universe (default: every value
    that occurs within the horizon)."""
    M, horizon = _integer(M, "M", InvalidControl), _integer(horizon, "horizon", InvalidControl)
    if M < 1:
        raise InvalidControl("M must be a positive integer")
    if horizon < M:
        raise InvalidControl("horizon must be at least M")
    values = [value_at(n) for n in range(horizon)]
    universe = set(values) if universe is None else universe
    return all(
        set(values[start : start + M]) == universe for start in range(horizon - M + 1)
    )


def is_quasi_periodic(f: ControlMap, M: int, horizon: int) -> bool:
    """Check whether every length-M window within the horizon covers 1..m.

    Finite-horizon verification only: a True verdict holds for windows
    starting at n = 0, ..., horizon - M, not for all of N.
    """
    return _every_run_covers(f.index_at, M, horizon, set(range(1, f.m + 1)))


def windows_quasi_periodic(f: ControlMap, r: int, M: int, horizon: int) -> bool:
    """Quasi-periodicity of the window sequence n -> window(f, r, n).

    Windows are compared as ordered index tuples. Every length-M run of
    consecutive steps within the horizon must contain every distinct window
    tuple that occurs anywhere in the horizon.
    """
    return _every_run_covers(lambda n: tuple(window(f, r, n)), M, horizon)
