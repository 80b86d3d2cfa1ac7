"""Cost pins: counts of the work a run does, which, unlike its time, do not
drift with the machine. A change that raises a pin updates it in the open,
with its reason."""

import sys
from pathlib import Path

import pytest

import drfeas
from drfeas import control, diagnostics, problem_io, repro, solver
from drfeas.cli import _check_suite
from drfeas.convex import SET_KINDS, _LinearSet


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
    # window starting at Ci share, and the 8 further reflections of the
    # five windows' chains (1, 1, 1, 4 and 1), each on the batch of first
    # points and on the batch of second points (36 when each window
    # projected onto its first set again, 62 when T reflected again too).
    repro.operator_class_reports(dims=(dim,))
    assert len(batch_projections) == 2 * (5 + 8) == 26


def test_check_batch_projections_on_a_dr_document(batch_projections):
    # ac2_three_balls (composite_q, three balls, four windows of two sets):
    # one projection onto each ball, which P(Ci), R(Ci) and the windows
    # S_n / V_n starting at Ci share, the windows' second reflections and
    # Q's eight reflections, each on two batches (44 when R(Ci) and each
    # window projected again, 60 when S_n reflected again too).
    _ac2_check_suite()
    assert len(batch_projections) == 2 * (3 + 4 + 8) == 30


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


PACKAGE = str(Path(drfeas.__file__).resolve().parent)

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
    # Calls of Python functions of the package, generator resumptions
    # included, in one run of the AC-4 document after a warm-up run of it:
    # 150, 30.0 per step. Before the leaner small-d step there were 157
    # (31.4 per step): the step ids came from a generator and each new
    # iterate called _certifier_residual with no certifier, while a block
    # draw was one call, not two. Comprehensions are not counted, since
    # Python 3.12 runs them inline.
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE) and code.co_name not in INLINED:
            calls += 1

    problem, config = _ac4()
    problem_io.execute_config(problem, config)
    sys.setprofile(profile)
    try:
        trace = problem_io.execute_config(problem, config)
    finally:
        sys.setprofile(None)
    assert trace.iterations == 5
    assert calls == 150
