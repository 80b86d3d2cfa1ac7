import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drfeas import control
from drfeas import (
    ControlMap,
    Cyclic,
    Explicit,
    InvalidControl,
    RandomBlock,
    cover_index,
    is_quasi_periodic,
    window,
    windows_quasi_periodic,
)


def test_cyclic_values():
    f = Cyclic(3)
    assert [f.index_at(n) for n in range(4)] == [1, 2, 3, 1]


def test_explicit_repeats_prefix():
    f = Explicit([2, 1, 2, 3])
    assert f.index_at(5) == 1  # 5 mod 4 = 1, second prefix entry
    assert [f.index_at(n) for n in range(8)] == [2, 1, 2, 3, 2, 1, 2, 3]


def test_explicit_requires_surjective_prefix():
    with pytest.raises(InvalidControl):
        Explicit([1, 3])  # never produces 2
    with pytest.raises(InvalidControl):
        Explicit([3, 1, 3])  # as long as its range, and still never 2
    with pytest.raises(InvalidControl):
        Explicit([])
    with pytest.raises(InvalidControl):
        Explicit([0, 1])


def test_explicit_coverage_check_grows_with_the_prefix_not_its_largest_entry():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidControl, match="must cover all of 1..1000000"):
            Explicit([10**6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_random_block_every_aligned_block_covers():
    for seed in (0, 1, 42):
        f = RandomBlock(3, 5, seed)
        for block in range(20):
            vals = {f.index_at(block * 5 + i) for i in range(5)}
            assert vals == {1, 2, 3}


def test_random_block_deterministic_and_seed_sensitive():
    a = [RandomBlock(5, 8, 7).index_at(n) for n in range(80)]
    b = [RandomBlock(5, 8, 7).index_at(n) for n in range(80)]
    c = [RandomBlock(5, 8, 8).index_at(n) for n in range(80)]
    assert a == b
    assert a != c


def reference_block(m, M, seed, block):
    """A RandomBlock block by numpy's public calls: a permutation of 1..m and
    M - m uniform indices from default_rng([seed, block]), shuffled."""
    rng = np.random.default_rng([seed, block])
    vals = np.concatenate([rng.permutation(m) + 1, rng.integers(1, m + 1, size=M - m)])
    rng.shuffle(vals)
    return tuple(vals.tolist())


@pytest.mark.parametrize("m, M", [(1, 1), (1, 4), (3, 3), (3, 4), (6, 12), (5, 40)])
def test_block_pattern_draws_the_reference_stream(m, M):
    # Seeds and blocks at and across the 32-bit word boundaries by which
    # numpy's SeedSequence reads an integer.
    values = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)
    for seed in values:
        for block in values:
            assert control._block_pattern(m, M, seed, block) == reference_block(m, M, seed, block)


def test_random_block_parameter_validation():
    with pytest.raises(InvalidControl):
        RandomBlock(3, 2, 0)  # M < m
    with pytest.raises(InvalidControl):
        RandomBlock(0, 2, 0)
    with pytest.raises(InvalidControl):
        RandomBlock(2, 3, -1)
    # numpy refuses these block lengths before allocating anything, and the
    # map raises its own error for them at the first lookup, also when a
    # stream starts deep inside a block
    for M in (2**62, 10**30):
        with pytest.raises(InvalidControl, match="cannot draw a block of length M="):
            RandomBlock(3, M, 1).index_at(0)
        with pytest.raises(InvalidControl, match="cannot draw a block of length M="):
            next(RandomBlock(3, M, 1).indices_from(M - 1))


def test_negative_step_rejected():
    with pytest.raises(InvalidControl):
        Cyclic(2).index_at(-1)


def test_window_examples():
    f = Cyclic(3)
    assert window(f, 2, 0) == [1, 2]
    assert window(f, 2, 1) == [2, 3]  # stride r-1: windows overlap
    assert window(f, 4, 0) == [1, 2, 3, 1]  # windows may repeat sets


def test_window_requires_r_greater_than_one():
    with pytest.raises(InvalidControl):
        window(Cyclic(2), 1, 0)


@given(
    m=st.integers(min_value=1, max_value=5),
    r=st.integers(min_value=2, max_value=5),
    n=st.integers(min_value=0, max_value=100),
)
def test_window_is_pure_indexing(m, r, n):
    f = Cyclic(m)
    w = window(f, r, n)
    assert w == [f.index_at((r - 1) * n + j - 1) for j in range(1, r + 1)]


# Small block lengths and counts up to 100, so runs cross many blocks
CONTROLS = st.one_of(
    st.integers(1, 7).map(Cyclic),
    st.lists(st.integers(1, 4), min_size=0, max_size=5).map(
        lambda extra: Explicit([1, 2, 3, 4] + extra)
    ),
    st.tuples(st.integers(1, 5), st.integers(0, 6), st.integers(0, 50)).map(
        lambda t: RandomBlock(t[0], t[0] + t[1], t[2])
    ),
)


class Pairs(ControlMap):
    """A user control over 1..3 that defines only index_at: each index twice
    in a row."""

    m, quasi_period = 3, 6

    def index_at(self, n: int) -> int:
        return n // 2 % 3 + 1


@given(f=st.one_of(CONTROLS, st.just(Pairs())), start=st.integers(0, 200),
       count=st.integers(0, 100))
def test_indices_is_index_at_over_a_run(f, start, count):
    expected = [f.index_at(n) for n in range(start, start + count)]
    assert list(islice(f.indices_from(start), count)) == expected
    assert list(islice(f.indices_from(), count)) == [f.index_at(n) for n in range(count)]


@given(
    f=CONTROLS,
    r=st.integers(2, 4),
    n=st.integers(0, 100),
    steps=st.integers(1, 40),
)
def test_window_run_slices_into_one_step_windows(f, r, n, steps):
    # item k of the stream from step n is the window of step n + k
    run = list(islice(control._windows(f, r, n), steps))
    assert [list(w) for w in run] == [window(f, r, n + k) for k in range(steps)]


def test_indices_rejects_negative_start():
    # at the call, before any index is read
    for f in (Cyclic(2), Explicit([1, 2]), RandomBlock(2, 3, 0), Pairs()):
        with pytest.raises(InvalidControl):
            f.indices_from(-1)
    with pytest.raises(InvalidControl, match="step number must be a nonnegative integer"):
        window(Cyclic(2), 2, -1)
    with pytest.raises(InvalidControl, match="step number must be a nonnegative integer"):
        control._windows(Cyclic(2), 2, -1)


def test_cyclic_windows_tile_index_set():
    # for r <= m+1, the first m windows jointly visit every set index
    for m in range(1, 6):
        f = Cyclic(m)
        for r in range(2, m + 2):
            seen = set()
            for n in range(m):
                seen.update(window(f, r, n))
            assert seen == set(range(1, m + 1))


@pytest.mark.parametrize("m", range(1, 11))
def test_cover_index_cyclic(m):
    # scan starts at argument 1: f(1)..f(m) is a full rotation
    assert cover_index(Cyclic(m)) == m


def test_cover_index_explicit_example():
    f = Explicit([1, 1, 2])
    assert f.index_at(1) == 1 and f.index_at(2) == 2
    assert cover_index(f) == 2


def test_cover_index_single_set():
    assert cover_index(Cyclic(1)) == 1


class OnlyFirst(ControlMap):
    """A control over 1..2 that never selects 2."""

    m, quasi_period = 2, 2

    def index_at(self, n: int) -> int:
        return 1


def test_cover_index_rejects_a_map_that_never_covers():
    with pytest.raises(InvalidControl, match="never cover 1..2"):
        cover_index(OnlyFirst())


def test_quasi_periodicity_needs_a_positive_period():
    with pytest.raises(InvalidControl, match="M must be a positive integer"):
        is_quasi_periodic(Cyclic(2), 0, horizon=10)


def test_cover_index_random_block_within_two_blocks():
    for seed in range(5):
        f = RandomBlock(4, 6, seed)
        jf = cover_index(f)
        assert 1 <= jf <= 2 * f.M - 1
        assert {f.index_at(j) for j in range(1, jf + 1)} == {1, 2, 3, 4}


def test_quasi_periodic_cyclic():
    assert is_quasi_periodic(Cyclic(4), 4, horizon=100)
    assert not is_quasi_periodic(Cyclic(3), 2, horizon=100)


def test_quasi_periodic_random_block_sliding_window():
    for seed in (0, 3):
        f = RandomBlock(3, 5, seed)
        assert is_quasi_periodic(f, 2 * f.M - 1, horizon=120)
        assert is_quasi_periodic(f, f.quasi_period, horizon=120)


def test_quasi_periodic_explicit_with_prefix_length():
    f = Explicit([2, 1, 2, 3])
    assert is_quasi_periodic(f, 4, horizon=100)
    assert not is_quasi_periodic(f, 2, horizon=100)


def test_quasi_periodic_requires_horizon_at_least_M():
    with pytest.raises(InvalidControl):
        is_quasi_periodic(Cyclic(2), 5, horizon=4)


def test_window_family_quasi_periodic_cyclic():
    # cyclic control, M = m: window tuples repeat with period m
    assert windows_quasi_periodic(Cyclic(3), 2, 3, horizon=60)
    assert not windows_quasi_periodic(Cyclic(3), 2, 2, horizon=60)
    for m in (2, 3, 4, 5):
        for r in range(2, m + 2):
            assert windows_quasi_periodic(Cyclic(m), r, m, horizon=20 * m)


def test_window_family_distinct_tuples_match_direct_enumeration():
    f = Cyclic(4)
    tuples = {tuple(window(f, 3, n)) for n in range(40)}
    # stride 2 on a 4-cycle: two distinct windows
    assert tuples == {(1, 2, 3), (3, 4, 1)}
    assert windows_quasi_periodic(f, 3, 2, horizon=40)


@pytest.mark.parametrize(
    "call, args",
    [
        (Cyclic, (2.7,)),
        (Cyclic, ("3",)),
        (RandomBlock, (2.5, 4, 1)),
        (RandomBlock, (3, 4.5, 1)),
        (RandomBlock, (3, 4, 1.9)),
        (Explicit, ([1, 2.5],)),
        (Cyclic(3).index_at, (1.7,)),
        (RandomBlock(3, 4, 1).indices_from, (1.5,)),
        (window, (Cyclic(3), 2.9, 0)),
        (window, (Cyclic(3), 2, 0.5)),
        (is_quasi_periodic, (Cyclic(3), 3.5, 10)),
        (is_quasi_periodic, (Cyclic(3), 3, 10.5)),
        # bool subclasses int, but True is no count or index
        (Cyclic, (True,)),
        (RandomBlock, (True, 4, 1)),
        (RandomBlock, (3, True, 1)),
        (RandomBlock, (3, 4, True)),
        (Explicit, ([1, True, 2],)),
        (Cyclic(3).index_at, (True,)),
        (RandomBlock(3, 4, 1).indices_from, (True,)),
        (window, (Cyclic(3), 2, True)),
        (is_quasi_periodic, (Cyclic(3), True, 10)),
        (is_quasi_periodic, (Cyclic(3), 3, True)),
    ],
    ids=["cyclic_m", "cyclic_str", "block_m", "block_M", "block_seed", "explicit",
         "index_at", "indices", "window_r", "window_n", "period_M",
         "period_horizon", "cyclic_m_true", "block_m_true", "block_M_true",
         "block_seed_true", "explicit_true", "index_at_true", "indices_true",
         "window_n_true", "period_M_true", "period_horizon_true"],
)
def test_non_integer_parameters_raise_invalid_control(call, args):
    # a float is not truncated to a different control than the one asked for
    with pytest.raises(InvalidControl, match="must be an integer"):
        call(*args)


def test_numpy_integer_parameters_pass():
    f = RandomBlock(np.int64(3), np.int32(4), np.uint8(1))
    assert (f.m, f.M, f.seed) == (3, 4, 1)
    assert Explicit(np.array([1, 2, 1])).prefix == (1, 2, 1)
    assert Cyclic(np.int64(3)).index_at(np.int64(4)) == 2
    assert window(Cyclic(3), np.int64(3), np.int64(1)) == [3, 1, 2]
