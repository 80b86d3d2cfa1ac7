"""Acceptance suite: one test per criterion AC-1..AC-9.

Each criterion is defined once, in ``drfeas.repro``; a test asserts the
verdict of the function that ``drfeas repro AC-k`` runs. Run pytest with -s
to see its verdict lines.
"""

from drfeas.repro import EXPERIMENTS, run_experiment


def test_ac1_operator_class_suite():
    assert run_experiment("AC-1")


def test_ac2_composite_scheme_converges_with_cauchy_tail():
    assert run_experiment("AC-2")


def test_ac3_cyclic_control_reaches_feasibility():
    assert run_experiment("AC-3")


def test_ac4_quasi_periodic_random_control():
    assert run_experiment("AC-4")


def test_ac5_interlaced_products():
    assert run_experiment("AC-5")


def test_ac6_fixed_point_sandwich():
    assert run_experiment("AC-6")


def test_ac7_asymptotic_regularity_and_counterexample():
    assert run_experiment("AC-7")


def test_ac8_control_law_unit_suite():
    assert run_experiment("AC-8")


def test_ac9_deterministic_traces():
    assert run_experiment("AC-9")


def test_every_criterion_has_a_test():
    # test_ac<k>_... asserts AC-<k>
    tested = {f"AC-{name[7:].split('_')[0]}" for name in globals() if name.startswith("test_ac")}
    assert tested == set(EXPERIMENTS)
