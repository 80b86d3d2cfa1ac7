import json
from importlib.resources import files

import pytest

from drfeas.cli import main
from drfeas.repro import bundled_document

THREE_BALLS_RUN = {
    "dimension": 2,
    "sets": [
        {"kind": "Ball", "center": [0.0, 0.0], "radius": 1.0},
        {"kind": "Ball", "center": [1.0, 0.0], "radius": 1.0},
        {"kind": "Ball", "center": [0.5, 0.8], "radius": 1.0},
    ],
    "scheme": "composite_q",
    "control": {"rule": "cyclic", "m": 3},
    "r": 2,
    "x0": [5.0, 5.0],
    "stop": {"max_iters": 1000, "displacement_tol": 1e-10, "feasibility_tol": 1e-8},
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "three_balls.json"
    path.write_text(json.dumps(THREE_BALLS_RUN), encoding="utf-8")
    return path


def test_run_writes_trace_and_exits_zero(problem_file, tmp_path, capsys):
    trace_path = tmp_path / "out.trace.csv"
    code = main(["run", str(problem_file), "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=converged_displacement" in out
    lines = trace_path.read_text().splitlines()
    assert lines[0].startswith("n,applied_operator_id,displacement,max_set_distance")
    assert len(lines) >= 3


def test_run_default_trace_path(problem_file, capsys):
    code = main(["run", str(problem_file)])
    assert code == 0
    assert problem_file.with_suffix(".trace.csv").exists()


def test_run_is_byte_identical_across_invocations(problem_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(problem_file), "--trace", str(a)]) == 0
    assert main(["run", str(problem_file), "--trace", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_hits_iteration_cap(problem_file, tmp_path, capsys):
    doc = json.loads(problem_file.read_text())
    doc["stop"] = {"max_iters": 1}
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["run", str(capped)])
    assert code == 1
    assert "status=max_iters" in capsys.readouterr().out


def test_run_non_finite_iterate_is_not_converged(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "sets": [
            {"kind": "Halfspace", "a": [1.0, 0.0], "b": 0.0},
            {"kind": "Ball", "center": [0.0, 0.0], "radius": 1.0},
        ],
        "scheme": "unrestricted_dr",
        "control": {"rule": "cyclic", "m": 2},
        "r": 2,
        "x0": [-1e308, 1e308],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["run", str(path)])
    assert code == 1
    assert "status=non_finite iterations=0" in capsys.readouterr().out
    assert len(path.with_suffix(".trace.csv").read_text().splitlines()) == 2


def _run_doc(sets: list, **extra) -> dict:
    doc = {"dimension": 2, "sets": sets, "scheme": "unrestricted_dr",
           "control": {"rule": "cyclic", "m": 2}, "r": 2, "x0": [0.0, 0.0]}
    return dict(doc, **extra)


UNIT_BALL = {"kind": "Ball", "center": [0.0, 0.0], "radius": 1.0}

# Documents that each read as feasible when a NaN or infinite number slips
# through: malformed ones exit 2, the rest end non_finite with exit 1.
FALSE_FEASIBILITY = {
    "nan_offset": (
        _run_doc([UNIT_BALL, {"kind": "Halfspace", "a": [1.0, 0.0], "b": float("nan")}]), 2
    ),
    "minus_inf_offset": (
        _run_doc([UNIT_BALL, {"kind": "Hyperplane", "a": [1.0, 0.0], "b": float("-inf")}]), 2
    ),
    "infinite_tolerance": (
        _run_doc([UNIT_BALL, {"kind": "Ball", "center": [0.5, 0.0], "radius": 1.0}],
                 x0=[50.0, 0.0], stop={"feasibility_tol": float("inf")}),
        2,
    ),
    "nan_set_distance": (
        # b / ||a|| overflows: the hyperplane has no finite point
        _run_doc([UNIT_BALL, {"kind": "Hyperplane", "a": [1e-10, 0.0], "b": 1e308}]), 2
    ),
    "ball_offset_overflow": (
        _run_doc([{"kind": "Halfspace", "a": [1.0, 0.0], "b": 1e308},
                  {"kind": "Ball", "center": [-1e308, 0.0], "radius": 1.0}],
                 x0=[1e308, 0.0]),
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(FALSE_FEASIBILITY))
def test_run_never_reads_non_finite_numbers_as_feasible(name, tmp_path, capsys):
    doc, code = FALSE_FEASIBILITY[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == code
    out = capsys.readouterr()
    if code == 1:
        assert "status=non_finite" in out.out
    else:
        assert "error:" in out.err


# Malformed documents, each with the message its error line must carry:
# errors that once escaped as tracebacks, and one document per check of the
# parser and of the set constructors. A str is the raw text of the document.
RANDOM_BLOCK = {"rule": "random_block", "m": 3, "seed": 1}
PRODUCT_RUN = dict(THREE_BALLS_RUN, scheme="product", control={"rule": "cyclic", "m": 1})
REALS = "must be a vector of reals"
MALFORMED = {
    "trace_path_true": (dict(THREE_BALLS_RUN, trace_path=True), "trace_path must be a string"),
    "trace_path_number": (dict(THREE_BALLS_RUN, trace_path=5), "trace_path must be a string"),
    "trace_path_list": (dict(THREE_BALLS_RUN, trace_path=["a"]), "trace_path must be a string"),
    "x0_object": (dict(THREE_BALLS_RUN, x0={"a": 1}), f"x0: coordinates {REALS}"),
    "x0_int_beyond_floats": (dict(THREE_BALLS_RUN, x0=[10**400, 0]), f"x0: coordinates {REALS}"),
    "interior_point_object": (dict(THREE_BALLS_RUN, interior_point={"a": 1}),
                              f"interior_point: coordinates {REALS}"),
    "kind_list": (dict(THREE_BALLS_RUN, sets=[dict(UNIT_BALL, kind=["Ball"])] * 3),
                  "sets[0]: unknown set kind"),
    "kind_object": (dict(THREE_BALLS_RUN, sets=[dict(UNIT_BALL, kind={"a": 1})] * 3),
                    "sets[0]: unknown set kind"),
    "radius_int_beyond_floats": (
        dict(THREE_BALLS_RUN, sets=[dict(UNIT_BALL, radius=10**400)] * 3),
        "sets[0]: bad parameters for Ball"),
    "feasibility_tol_int_beyond_floats": (
        dict(THREE_BALLS_RUN, stop=dict(THREE_BALLS_RUN["stop"], feasibility_tol=10**400)),
        "stop: feasibility_tol must be finite"),
    "displacement_tol_int_beyond_floats": (
        dict(THREE_BALLS_RUN, stop=dict(THREE_BALLS_RUN["stop"], displacement_tol=10**400)),
        "stop: displacement_tol must be finite"),
    # both block lengths are past problem_io.MAX_M, so no block is drawn
    "block_past_max_dimension": (dict(THREE_BALLS_RUN, control=dict(RANDOM_BLOCK, M=10**30)),
                                 "cannot draw a block of length M="),
    "block_too_big": (dict(THREE_BALLS_RUN, control=dict(RANDOM_BLOCK, M=2**62)),
                      "cannot draw a block of length M="),
    # a window this wide would be read and built at the first step
    "r_past_limit": (dict(THREE_BALLS_RUN, r=10**30), "needs an integer r > 1"),
    "set_not_object": (dict(THREE_BALLS_RUN, sets=[5]), "sets[0]: expected an object"),
    "document_not_object": ([1, 2], "document must be a JSON object"),
    "control_not_object": (dict(THREE_BALLS_RUN, control=5),
                           "control: expected an object with a 'rule' key"),
    "cyclic_m_zero": (dict(THREE_BALLS_RUN, control={"rule": "cyclic", "m": 0}),
                      "control: range size m must be a positive integer"),
    "stop_not_object": (dict(THREE_BALLS_RUN, stop=5), "stop: expected an object"),
    "max_iters_not_integer": (dict(THREE_BALLS_RUN, stop={"max_iters": 1.5}),
                              "stop: max_iters must be an integer"),
    "operators_empty": (dict(PRODUCT_RUN, operators=[]), "operators must be a nonempty list"),
    "operator_not_object": (dict(PRODUCT_RUN, operators=[5]),
                            "operators[0]: expected an object"),
    "dr_without_sets": (dict(PRODUCT_RUN, operators=[{"type": "dr", "sets": []}]),
                        "operators[0]: 'sets' must be a nonempty index list"),
    "operator_type_unknown": (dict(PRODUCT_RUN, operators=[{"type": "rotation"}]),
                              "operators[0]: unknown operator type 'rotation'"),
    "box_lengths_differ": (
        dict(THREE_BALLS_RUN, sets=[{"kind": "Box", "lo": [0.0, 0.0], "hi": [1.0]}]),
        "sets[0]: lo and hi must have the same dimension"),
    "affine_a_not_matrix": (
        dict(THREE_BALLS_RUN, sets=[{"kind": "AffineSubspace", "A": [1.0, 0.0], "b": [0.0]}]),
        "sets[0]: A must be a nonempty matrix"),
    "affine_a_past_floats": (
        '{"dimension": 2, "sets": [{"kind": "AffineSubspace", "A": [[1e999, 0]], "b": [0]}]}',
        "sets[0]: A must be finite"),
    "affine_b_wrong_length": (
        dict(THREE_BALLS_RUN, sets=[{"kind": "AffineSubspace", "A": [[1, 0], [0, 1]], "b": [0]}]),
        "sets[0]: b has 1 entries but A has 2 rows"),
    "ball_center_string": (dict(THREE_BALLS_RUN, sets=[dict(UNIT_BALL, center="x")]),
                           f"sets[0]: center {REALS}"),
    "interior_point_wrong_length": (dict(THREE_BALLS_RUN, interior_point=[0.5]),
                                    "interior point has dimension 1, expected 2"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_run_classifies_malformed_document_as_input_error(name, tmp_path, capsys):
    doc, message = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 2  # an escaping exception fails here instead
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not path.with_suffix(".trace.csv").exists()


def test_run_rejects_an_empty_affine_set_with_a_tiny_b(tmp_path, capsys):
    # x1 = 0 and x1 = 1e-12 have no common point, so the document is malformed;
    # held as the least-squares set x1 = 5e-13, it once ran to a
    # converged_displacement verdict with the unit ball
    doc = _run_doc([{"kind": "AffineSubspace", "A": [[1, 0], [1, 0]], "b": [0, 1e-12]},
                    UNIT_BALL], x0=[3.0, 4.0])
    path = tmp_path / "empty_affine.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "inconsistent affine system" in err


def test_run_rejects_document_without_scheme(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"dimension": 2, "sets": THREE_BALLS_RUN["sets"]}),
                    encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "scheme" in capsys.readouterr().err


def test_run_rejects_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_overflowing_random_start(tmp_path, capsys):
    path = tmp_path / "huge_scale.json"
    path.write_text(json.dumps(dict(THREE_BALLS_RUN, x0="random(1, 1e999)")),
                    encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "x0" in capsys.readouterr().err
    assert not path.with_suffix(".trace.csv").exists()


def test_run_missing_file_is_input_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def test_check_passes_on_catalog(problem_file, capsys):
    code = main(["check", str(problem_file), "--samples", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("property_name,samples,worst_violation,tolerance,pass")
    assert "firmly_nonexpansive[P(C1)]" in out
    assert "nonexpansive[Q]" in out
    assert "property reports pass" in out


def test_check_writes_report_file(problem_file, tmp_path):
    out_path = tmp_path / "reports.csv"
    code = main(["check", str(problem_file), "--samples", "50", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("property_name,")


def test_check_rejects_malformed_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 2, "sets": [
        {"kind": "Hyperplane", "a": [0.0, 0.0], "b": 1.0}]}), encoding="utf-8")
    assert main(["check", str(path)]) == 2


def test_check_fails_on_overflowing_image(tmp_path, capsys):
    # The reflection through {x1 <= -1e308} sends x1 past the largest float:
    # a failed check (exit 1), not malformed input (exit 2)
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dimension": 2, "sets": [
        {"kind": "Halfspace", "a": [1.0, 0.0], "b": -1e308}]}), encoding="utf-8")
    assert main(["check", str(path), "--samples", "10", "--scale", "1e307"]) == 1
    out = capsys.readouterr().out
    assert "nonexpansive[R(C1)],10,nan,1e-10,false" in out


def test_check_passes_a_correct_halfspace_projection(tmp_path, capsys):
    # Absolute rounding error grows with the sampling box (scale 4 * 300 /
    # ||a||); the violations are relative, so a correct projection passes
    path = tmp_path / "halfspace.json"
    path.write_text(json.dumps({"dimension": 3, "sets": [
        {"kind": "Halfspace", "a": [1, 2, -0.5], "b": 300}]}), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert "2/2 property reports pass" in capsys.readouterr().out


# Every document the package ships
BUNDLED = sorted(
    p.name for p in files("drfeas").joinpath("problems").iterdir() if p.name.endswith(".json")
)


@pytest.mark.parametrize("name", BUNDLED)
def test_check_passes_on_bundled_documents(name, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(bundled_document(name), encoding="utf-8")
    assert main(["check", str(path)]) == 0, capsys.readouterr().out


@pytest.mark.parametrize(
    "option", [["--samples", "0"], ["--seed", "-1"], ["--scale", "1e308"]],
    ids=["samples", "seed", "scale"],
)
def test_check_rejects_bad_sampling_parameters(problem_file, option, capsys):
    assert main(["check", str(problem_file), *option]) == 2
    assert option[0][2:] in capsys.readouterr().err


def test_unexpected_value_error_is_not_malformed_input(problem_file, monkeypatch):
    # Only the package's input errors mean exit 2; any other ValueError, such
    # as a numpy shape error, is a fault of the program and propagates
    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("drfeas.cli.run_check_suite", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["check", str(problem_file)])


def test_repro_ac2_passes(capsys):
    code = main(["repro", "AC-2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "AC-2: PASS" in out


def test_repro_accepts_lowercase_and_writes_traces(tmp_path, capsys):
    code = main(["repro", "ac-4", "--trace-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ac4_seed1.trace.csv").exists()


def test_repro_unknown_id(capsys):
    assert main(["repro", "AC-99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_batch_runs_directory(tmp_path, capsys):
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(THREE_BALLS_RUN), encoding="utf-8")
    code = main(["batch", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "a.trace.csv").exists()
    assert (tmp_path / "b.trace.csv").exists()
    assert out.count("status=converged_displacement") == 2


def test_batch_empty_directory_is_input_error(tmp_path, capsys):
    assert main(["batch", str(tmp_path)]) == 2


def test_batch_on_a_file_is_input_error(problem_file, capsys):
    assert main(["batch", str(problem_file)]) == 2
    assert "is not a directory" in capsys.readouterr().err


def test_batch_reports_nonconverged(tmp_path):
    doc = dict(THREE_BALLS_RUN, stop={"max_iters": 1})
    (tmp_path / "slow.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["batch", str(tmp_path)]) == 1


def test_bundled_documents_parse():
    # the shipped experiment documents stay loadable
    from drfeas import parse_document

    for name in BUNDLED:
        problem, config = parse_document(bundled_document(name))
        assert config is not None
