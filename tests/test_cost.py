"""Cost pins: counts of the work a run does, which, unlike its time, do not
drift with the machine. A change that raises a pin updates it in the open,
with its reason."""

import pytest

from drfeas import repro
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


@pytest.mark.parametrize("dim", repro.CATALOG_DIMS)
def test_ac1_batch_projections_per_dimension(batch_projections, dim):
    # Five projections and the 13 reflections of the five windows' chains,
    # each on the batch of first points and on the batch of second points:
    # a window's DR operator averages its composite reflection's images
    # instead of reflecting again (62 when it did).
    repro.operator_class_reports(dims=(dim,))
    assert len(batch_projections) == 2 * (5 + 13) == 36


def test_check_batch_projections_on_a_dr_document(batch_projections):
    # ac2_three_balls (composite_q, three balls, four windows of two sets):
    # P(Ci) and R(Ci), the four pairs S_n / V_n and Q's eight reflections,
    # each on two batches (60 when S_n reflected again).
    problem, config = repro.load_bundled("ac2_three_balls.json")
    repro.run_check_suite(_check_suite(problem, config), 100, problem.sampling_scale(), 0)
    assert len(batch_projections) == 2 * (3 + 3 + 8 + 8) == 44
