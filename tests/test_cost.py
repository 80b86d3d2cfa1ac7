"""Cost pins: counts of the work a run does, which, unlike its time, do not
drift with the machine. A change that raises a pin updates it in the open,
with its reason."""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import drfeas
from drfeas import control, diagnostics, problem_io, repro, solver
from drfeas.cli import _check_suite
from drfeas.convex import (
    SET_KINDS, AffineSubspace, Ball, Box, Halfspace, Hyperplane, _LinearSet,
)


@pytest.fixture
def batch_projections(monkeypatch) -> list:
    """The kinds of the sets whose _project is called on a (..., d) batch,
    one entry per call, with every built-in kind's _project wrapped where it
    is defined (halfspaces and hyperplanes share _LinearSet's)."""
    calls = []
    owners = {next(k for k in cls.__mro__ if "_project" in vars(k)) for cls in SET_KINDS.values()}
    assert _LinearSet in owners
    for owner in owners:
        def counting(self, x, real=vars(owner)["_project"]):
            if x.ndim > 1:
                calls.append(self.kind)
            return real(self, x)

        monkeypatch.setattr(owner, "_project", counting)
    return calls


@pytest.fixture
def check_norms(monkeypatch) -> list:
    """One entry per call of the row norms the sampled checks take."""
    calls, real = [], diagnostics._row_norms

    def counting(v):
        calls.append(v.shape)
        return real(v)

    monkeypatch.setattr(diagnostics, "_row_norms", counting)
    return calls


def _ac2_check_suite():
    problem, config = repro.load_bundled("ac2_three_balls.json")
    repro.run_check_suite(_check_suite(problem, config), 100, problem.sampling_scale(), 0)


@pytest.mark.parametrize("dim", repro.CATALOG_DIMS)
def test_ac1_batch_projections_per_dimension(batch_projections, dim):
    # One projection onto each of the five sets, which P(Ci) and every
    # window starting at Ci share, and the 7 further reflections of the
    # five windows' chains (1, 1, 1, 3 and 1), each on the batch of first
    # points and on the batch of second points. T12345 goes on from T12's
    # R2 R1, where a check of each window on its own made 4 further
    # reflections (26 then, 36 when each window projected onto its first
    # set again, 62 when T reflected again too).
    repro.operator_class_reports(dims=(dim,))
    assert len(batch_projections) == 2 * (5 + 7) == 24


def test_check_batch_projections_on_a_dr_document(batch_projections):
    # ac2_three_balls (composite_q, three balls, four windows of two sets,
    # the last of which is the first): one projection onto each ball, which
    # P(Ci), R(Ci) and the windows S_n / V_n starting at Ci share, the three
    # distinct windows' second reflections, and the six reflections of Q
    # after its first window, S_0, whose chain Q shares, each on two
    # batches (30 when S_3 and Q's first window reflected again, 44 when
    # R(Ci) and each window projected again, 60 when S_n reflected again).
    _ac2_check_suite()
    assert len(batch_projections) == 2 * (3 + 3 + 6) == 24


@pytest.mark.parametrize("dim", repro.CATALOG_DIMS)
def test_ac1_check_norms_per_dimension(check_norms, dim):
    # The draw's max(||x||, ||y||) is measured once, from two batches; each
    # report then measures its two images and one or two scaled
    # differences: 3 for each of the 10 firm reports (P(Ci), the windows'
    # T) and 4 for each of the 5 plain ones (V) (80 when every report
    # measured x and y, and formed x - y, again).
    repro.operator_class_reports(dims=(dim,))
    assert len(check_norms) == 2 + 10 * 3 + 5 * 4 == 52


def test_check_norms_on_a_dr_document(check_norms):
    # 7 firm reports (P(Ci), S_n) and 8 plain ones (R(Ci), V_n, Q) on one
    # draw (83 when every report measured the draw again).
    _ac2_check_suite()
    assert len(check_norms) == 2 + 7 * 3 + 8 * 4 == 55


def test_ac1_suite_memory_peak_at_d50():
    # tracemalloc's peak over one d=50 AC-1 suite of 1000 samples, after a
    # warm-up suite: 3,705,791 bytes on Python 3.11 with numpy 2.4, against
    # 3,706,697 when each set's group of checks kept its reflection images
    # alive through the group. It falls at T12's report: the draw's
    # (3, 1000, 50) block, R2's images, which T12345 reads later, T12's
    # average in a copy of them and a firm check's temporaries, about 9
    # arrays of 400 kB. Each image is let go at its last read; the suite's
    # trie nodes and report names are most of the rest.
    repro.operator_class_reports(dims=(50,))
    tracemalloc.start()
    try:
        repro.operator_class_reports(dims=(50,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_706_697


def _peak(f) -> int:
    """tracemalloc's peak over one call of f, after a warm-up call."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One set of each built-in kind at d=1000, with a point outside it and a
# member.
_D = 1000
_ALTERNATING = np.tile([1.0, -1.0], _D // 2)
REFLECT_CASES = {
    "Halfspace": (Halfspace(np.ones(_D), 0.0), np.full(_D, 2.0), -np.ones(_D)),
    "Hyperplane": (Hyperplane(np.ones(_D), 0.0), np.full(_D, 2.0), _ALTERNATING),
    "Ball": (Ball(np.zeros(_D), 1.0), np.full(_D, 2.0), np.full(_D, 0.01)),
    "Box": (Box(-np.ones(_D), np.ones(_D)), np.full(_D, 2.0), np.zeros(_D)),
    "AffineSubspace": (AffineSubspace(np.eye(3, _D), np.zeros(3)), np.full(_D, 2.0),
                       np.zeros(_D)),
}


REFLECT_PEAKS = {"Halfspace": 8_200, "Hyperplane": 8_200, "Ball": 8_224, "Box": 8_200,
                 "AffineSubspace": 9_413}


def test_reflect_cases_cover_every_kind():
    assert {type(c) for c, _, _ in REFLECT_CASES.values()} == set(SET_KINDS.values())


@pytest.mark.parametrize("kind", REFLECT_CASES)
def test_single_point_reflection_keeps_two_arrays_at_most(kind):
    # One single-point _reflect at d=1000 peaks at one d-array and its
    # header, measured on Python 3.11 with numpy 2.4 (REFLECT_PEAKS, with 64
    # bytes to spare): every projection is formed in one array and
    # reflected in place, a ball's in its own x - c, and a member's
    # 2.0 * x - x is 2.0 * x less x in place; an affine subspace's points
    # also keep the product of W with x. Each kind but the affine one
    # peaked at 16,192 while the box clipped into a temporary, the linear
    # step subtracted from x into a new array and a member took
    # 2.0 * x - x in two; when only a batch was reflected in place, at
    # 24,288 (24,384 for the affine subspace).
    c, outside, member = REFLECT_CASES[kind]
    with np.errstate(over="ignore", invalid="ignore"):
        assert c._distance(outside) > 0.0 and c._distance(member) <= 1e-12
    for x in (outside, member):
        assert _peak(lambda: c._reflect(x)) <= REFLECT_PEAKS[kind] + 64


def test_quasi_check_memory_peak_at_d50():
    # tracemalloc's peak over one quasi check of 1000 samples at d=50: the
    # (1000, 2, 50) draw and the copy of its first points, 1,291,952 bytes
    # on Python 3.11 with numpy 2.4, against 2,092,048 when the check built
    # the firm checks' (3, 1000, 50) block of x, y and x - y, with their
    # norms, and read only x.
    T = drfeas.Projection(Ball(np.zeros(50), 1.0))
    p = drfeas.Point(np.zeros(50))
    assert _peak(lambda: diagnostics.check_quasi_nonexpansive(T, p)) <= 1_300_000


PACKAGE = str(Path(drfeas.__file__).resolve().parent)

# The filenames of the package's kernels (space._kernel), which count as its
# own functions.
KERNELS = "<drfeas "

# Comprehensions that Python 3.12 runs inline, without a frame of their own.
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _ac4():
    return repro.load_bundled("ac4_random_block_three_balls.json")


def test_ac4_run_counts(monkeypatch):
    # The bundled AC-4 document: three balls in d=2, RandomBlock(3, 5, 1),
    # r=2, which converges in 5 steps.
    blocks, rows, built = [], [], []
    draw, distances, build = (control._block_pattern,
                              solver.FeasibilityProblem._distances, solver.dr_operator)

    def drawing(m, M, seed, block):
        blocks.append(block)
        return draw(m, M, seed, block)

    def measuring(self, x):
        rows.append(len(x) if x.ndim > 1 else 1)
        return distances(self, x)

    def building(sets):
        built.append(len(sets))
        return build(sets)

    monkeypatch.setattr(control, "_block_pattern", drawing)
    monkeypatch.setattr(solver.FeasibilityProblem, "_distances", measuring)
    monkeypatch.setattr(solver, "dr_operator", building)
    trace = problem_io.execute_config(*_ac4())
    assert (trace.terminal_status, trace.iterations) == ("converged_displacement", 5)
    # the windows read indices 0..5: block 0, then the group of blocks 1-2
    assert blocks == [0, 1, 2]
    # the start point alone, then the 4 rows of the 5 steps that do not
    # repeat their iterate, at the step that stops the run
    assert rows == [1, 4]
    # one two-set DR operator per distinct window, and all five differ
    assert built == [2] * 5


def test_ac4_run_python_calls():
    # Calls of Python functions of the package, its kernels and generator
    # resumptions included, in one run of the AC-4 document after a warm-up
    # run of it: 160, 32.0 per step. A step's DR operator reflects through
    # its two balls on Python floats (space._SMALL), by one ball kernel call
    # per ball and one average kernel call, and each of the five window
    # operators binds its two balls' kernels when it is built (a
    # _float_reflection and a factory call each). Before the kernels there
    # were 135 (27.0 per step): one _reflect_floats call per ball and none
    # to average or bind; before the scalar forms 150 (30.0 per step), and
    # before the leaner small-d step 157 (31.4 per step): the step ids came
    # from a generator and each new iterate called _certifier_residual
    # with no certifier, while a block draw was one call, not two.
    # Comprehensions are not counted, since Python 3.12 runs them inline.
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith((PACKAGE, KERNELS))
                and code.co_name not in INLINED):
            calls += 1

    problem, config = _ac4()
    problem_io.execute_config(problem, config)
    sys.setprofile(profile)
    try:
        trace = problem_io.execute_config(problem, config)
    finally:
        sys.setprofile(None)
    assert trace.iterations == 5
    assert calls == 160


def test_ac4_run_keeps_one_array_per_new_iterate():
    # numpy data blocks (tracemalloc's numpy domain) alive after one run of
    # the d=2 AC-4 document, with its trace, that were not before it: 4, one
    # iterate per step that moves it. The step that repeats its iterate
    # keeps none, and every temporary of a step, the scalar DR chain's
    # included, is freed.
    problem, config = _ac4()
    problem_io.execute_config(problem, config)
    numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces([numpy_data])
        trace = problem_io.execute_config(problem, config)
        after = tracemalloc.take_snapshot().filter_traces([numpy_data])
    finally:
        tracemalloc.stop()
    assert trace.iterations == 5
    assert len({id(x) for x in trace.iterates[1:]}) == 4
    assert sum(stat.count_diff for stat in after.compare_to(before, "filename")) == 4
