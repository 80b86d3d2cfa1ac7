import json

import numpy as np
import pytest

from drfeas import (
    Cyclic,
    ParseError,
    Point,
    RandomBlock,
    execute_config,
    format_reports,
    format_trace,
    load_document,
    parse_document,
    check_nonexpansive,
)
from drfeas.operators import Operator
from drfeas.problem_io import MAX_M, MAX_R


class Identity(Operator):
    def _apply(self, x):
        return x


TWO_BALLS = {
    "dimension": 2,
    "sets": [
        {"kind": "Ball", "center": [0.0, 0.0], "radius": 1.0},
        {"kind": "Ball", "center": [1.5, 0.0], "radius": 1.0},
    ],
}


def doc(**extra) -> str:
    d = dict(TWO_BALLS)
    d.update(extra)
    return json.dumps(d)


def parse_problem(text: str):
    return parse_document(text)[0]


def test_parse_problem_two_balls():
    problem = parse_problem(doc())
    assert problem.m == 2
    assert problem.dim == 2


def test_parse_rejects_degenerate_normal():
    text = doc(sets=[{"kind": "Hyperplane", "a": [0.0, 0.0], "b": 1.0}])
    with pytest.raises(ParseError, match=r"sets\[0\].*degenerate"):
        parse_problem(text)


def test_parse_rejects_interior_point_not_strictly_inside():
    text = doc(interior_point=[1.0, 0.0])  # boundary of ball 1
    with pytest.raises(ParseError, match="strictly inside"):
        parse_problem(text)


def test_parse_rejects_dimension_inconsistency():
    text = doc(sets=[{"kind": "Ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}])
    with pytest.raises(ParseError, match=r"sets\[0\]"):
        parse_problem(text)


def test_parse_rejects_bad_json_and_missing_keys():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_problem("{nope")
    with pytest.raises(ParseError, match="dimension"):
        parse_problem(json.dumps({"sets": []}))
    with pytest.raises(ParseError, match="sets"):
        parse_problem(json.dumps({"dimension": 2}))
    with pytest.raises(ParseError, match="dimension must be"):
        parse_problem(doc(dimension=True))
    # JSON true is no number, although numpy would read it as 1.0
    for sets, field in (
        ([{"kind": "Ball", "center": [0.0, 0.0], "radius": True}], r"sets\[0\]\.radius"),
        ([{"kind": "Ball", "center": [True, 0.0], "radius": 1.0}], r"sets\[0\]\.center"),
        ([{"kind": "Halfspace", "a": [1.0, 0.0], "b": True}], r"sets\[0\]\.b"),
        ([{"kind": "AffineSubspace", "A": [[1.0, False]], "b": [0.0]}], r"sets\[0\]\.A"),
        # JSON NaN and Infinity are no finite numbers either
        ([{"kind": "Ball", "center": [0.0, 0.0], "radius": float("inf")}], r"sets\[0\]: radius"),
        ([{"kind": "Ball", "center": [0.0, 0.0], "radius": float("nan")}], r"sets\[0\]: radius"),
        (TWO_BALLS["sets"][:1] + [{"kind": "Halfspace", "a": [1.0, 0.0], "b": float("nan")}],
         r"sets\[1\]: b must be finite"),
        (TWO_BALLS["sets"][:1] + [{"kind": "Hyperplane", "a": [1.0, 0.0], "b": float("-inf")}],
         r"sets\[1\]: b must be finite"),
    ):
        with pytest.raises(ParseError, match=field):
            parse_problem(doc(sets=sets))
    with pytest.raises(ParseError, match="interior_point"):
        parse_problem(doc(interior_point=[0.5, False]))
    with pytest.raises(ParseError, match="sets must be"):
        parse_problem(json.dumps({"dimension": 2, "sets": 5, "note": True}))


def test_roundtrip_preserves_parameters_exactly():
    # awkward decimals survive the round trip bit for bit
    sets = [
        {"kind": "Ball", "center": [0.1 + 0.2, -1.0 / 3.0], "radius": 0.7},
        {"kind": "Halfspace", "a": [1.0, 2.0 / 7.0], "b": 1e-3},
        {"kind": "Box", "lo": [-1.1, -2.2], "hi": [3.3, 4.4]},
        {"kind": "Hyperplane", "a": [0.0, 1.0], "b": 0.123456789012345678},
        {"kind": "AffineSubspace", "A": [[1.0, 0.5]], "b": [0.25]},
    ]
    problem = parse_problem(json.dumps({"dimension": 2, "sets": sets}))
    for spec, c in zip(sets, problem.sets):
        assert c.kind == spec.pop("kind")
        for key, value in spec.items():
            assert np.asarray(getattr(c, key)).tolist() == value, (c.kind, key)


def test_config_parsing_and_execution():
    text = doc(
        scheme="unrestricted_dr",
        control={"rule": "cyclic", "m": 2},
        r=2,
        x0=[5.0, 5.0],
        stop={"max_iters": 1000, "displacement_tol": 1e-10, "feasibility_tol": 1e-8},
    )
    problem, config = parse_document(text)
    assert config.scheme == "unrestricted_dr"
    assert isinstance(config.control, Cyclic)
    trace = execute_config(problem, config)
    assert problem.max_distance(trace.final.iterate) <= 1e-8


def test_document_without_scheme_has_no_config():
    problem, config = parse_document(doc())
    assert config is None
    assert problem.m == 2


def test_x0_forms():
    text = doc(scheme="composite_q", control={"rule": "cyclic", "m": 2}, r=2, x0="origin")
    _, config = parse_document(text)
    assert config.x0 == Point([0.0, 0.0])

    text = doc(scheme="composite_q", control={"rule": "cyclic", "m": 2}, r=2,
               x0="random(3, 2.5)")
    a = parse_document(text)[1].x0
    b = parse_document(text)[1].x0
    assert a == b  # deterministic for a fixed seed
    assert max(abs(v) for v in a) <= 2.5

    # scales that overflow the sampling range, negative or malformed scales
    for x0 in ("random(1, 1e999)", "random(1, 1e308)", "random(1, -3)",
               "random(1, 1.2.3)", [True, 0.0]):
        with pytest.raises(ParseError, match="x0"):
            parse_document(doc(scheme="composite_q", control={"rule": "cyclic", "m": 2},
                               r=2, x0=x0))

    with pytest.raises(ParseError, match="x0"):
        parse_document(doc(scheme="composite_q", control={"rule": "cyclic", "m": 2},
                           r=2, x0="sideways"))
    with pytest.raises(ParseError, match="x0"):
        parse_document(doc(scheme="composite_q", control={"rule": "cyclic", "m": 2},
                           r=2, x0=[1.0, 2.0, 3.0]))


def test_control_parsing_variants():
    base = dict(scheme="unrestricted_dr", r=2)
    _, config = parse_document(doc(control={"rule": "explicit", "prefix": [2, 1]}, **base))
    assert config.control.index_at(0) == 2
    _, config = parse_document(
        doc(control={"rule": "random_block", "m": 2, "M": 3, "seed": 5}, **base)
    )
    assert isinstance(config.control, RandomBlock)
    with pytest.raises(ParseError, match="unknown rule"):
        parse_document(doc(control={"rule": "fancy", "m": 2}, **base))
    with pytest.raises(ParseError, match="missing field"):
        parse_document(doc(control={"rule": "random_block", "m": 2}, **base))
    # JSON true is not an integer, although Python's bool subclasses int
    for control in (
        {"rule": "cyclic", "m": True},
        {"rule": "cyclic", "m": 2.0},
        {"rule": "explicit", "prefix": [2, True]},
        {"rule": "explicit", "prefix": "12"},
        {"rule": "random_block", "m": 2, "M": True, "seed": 5},
        {"rule": "random_block", "m": 2, "M": 3, "seed": True},
    ):
        with pytest.raises(ParseError, match="integer"):
            parse_document(doc(control=control, **base))


def test_random_block_length_is_bounded_before_a_block_is_drawn():
    # a block of 10^9 indices would ask for 8 GB as it is drawn; parsing
    # draws no block, so the bound refuses the document first
    control = {"rule": "random_block", "m": 2, "M": MAX_M, "seed": 1}
    _, config = parse_document(doc(scheme="unrestricted_dr", r=2, control=control))
    assert config.control.M == MAX_M
    with pytest.raises(ParseError, match="cannot draw a block of length M=1000000000"):
        parse_document(doc(scheme="unrestricted_dr", r=2, control=dict(control, M=1_000_000_000)))


def test_scheme_validation():
    with pytest.raises(ParseError, match="scheme"):
        parse_document(doc(scheme="magic", control={"rule": "cyclic", "m": 2}, r=2))
    with pytest.raises(ParseError, match="r > 1"):
        parse_document(doc(scheme="unrestricted_dr", control={"rule": "cyclic", "m": 2}, r=1))
    with pytest.raises(ParseError, match="does not match"):
        parse_document(doc(scheme="composite_q", control={"rule": "cyclic", "m": 3}, r=2))
    with pytest.raises(ParseError, match="stop"):
        parse_document(doc(scheme="composite_q", control={"rule": "cyclic", "m": 2},
                           r=2, stop={"max_iters": 10, "typo_tol": 1.0}))
    with pytest.raises(ParseError, match="max_iters"):
        parse_document(doc(scheme="composite_q", control={"rule": "cyclic", "m": 2},
                           r=2, stop={"max_iters": True}))
    with pytest.raises(ParseError, match="r > 1"):
        parse_document(doc(scheme="composite_q", control={"rule": "cyclic", "m": 2},
                           r=True))
    # r is bounded, so that each window is too
    _, config = parse_document(doc(scheme="unrestricted_dr",
                                   control={"rule": "cyclic", "m": 2}, r=MAX_R))
    assert config.r == MAX_R
    with pytest.raises(ParseError, match=f"<= {MAX_R}"):
        parse_document(doc(scheme="unrestricted_dr", control={"rule": "cyclic", "m": 2},
                           r=MAX_R + 1))
    with pytest.raises(ParseError, match="feasibility_tol"):
        parse_document(doc(scheme="composite_q", control={"rule": "cyclic", "m": 2},
                           r=2, stop={"feasibility_tol": True}))
    for stop in ({"feasibility_tol": float("inf")}, {"displacement_tol": float("nan")}):
        with pytest.raises(ParseError, match=f"stop: {next(iter(stop))} must be finite"):
            parse_document(doc(scheme="composite_q", control={"rule": "cyclic", "m": 2},
                               r=2, stop=stop))


def test_product_scheme_operator_specs():
    text = doc(
        scheme="product",
        control={"rule": "cyclic", "m": 3},
        window_control={"rule": "cyclic", "m": 2},
        r=2,
        operators=[
            {"type": "projection", "set": 1},
            {"type": "relaxed_projection", "set": 2, "lambda": 1.5},
            {"type": "s_window", "n": 0},
        ],
        x0=[4.0, 4.0],
    )
    problem, config = parse_document(text)
    assert len(config.operators) == 3
    trace = execute_config(problem, config)
    assert problem.max_distance(trace.final.iterate) <= 1e-8


def test_product_scheme_rejects_out_of_range_set_index():
    for spec in (
        {"type": "projection", "set": 7},
        {"type": "projection", "set": True},
        {"type": "relaxed_projection", "set": True, "lambda": 1.5},
        {"type": "relaxed_projection", "set": 1, "lambda": True},
        {"type": "dr", "sets": [1, True]},
    ):
        text = doc(scheme="product", control={"rule": "cyclic", "m": 1}, operators=[spec])
        with pytest.raises(ParseError, match=r"operators\[0\]"):
            parse_document(text)


def test_product_scheme_rejects_boundary_lambda():
    text = doc(
        scheme="product",
        control={"rule": "cyclic", "m": 1},
        operators=[{"type": "relaxed_projection", "set": 1, "lambda": 2.0}],
    )
    with pytest.raises(ParseError, match="lambda"):
        parse_document(text)


def test_product_scheme_rejects_boolean_window_step():
    text = doc(
        scheme="product",
        control={"rule": "cyclic", "m": 1},
        window_control={"rule": "cyclic", "m": 2},
        r=2,
        operators=[{"type": "s_window", "n": True}],
    )
    with pytest.raises(ParseError, match="'n'"):
        parse_document(text)


def test_product_scheme_window_ops_need_window_control():
    text = doc(
        scheme="product",
        control={"rule": "cyclic", "m": 1},
        operators=[{"type": "s_window", "n": 0}],
    )
    with pytest.raises(ParseError, match="window_control"):
        parse_document(text)


def test_product_control_range_must_match_operator_count():
    text = doc(
        scheme="product",
        control={"rule": "cyclic", "m": 2},
        operators=[{"type": "projection", "set": 1}],
    )
    with pytest.raises(ParseError, match="does not match"):
        parse_document(text)


def test_certifier_spec_adds_residual_column():
    text = doc(
        scheme="unrestricted_dr",
        control={"rule": "cyclic", "m": 2},
        r=2,
        x0=[4.0, -4.0],
        certifier={"type": "dr", "sets": [1, 2]},
    )
    problem, config = parse_document(text)
    trace = execute_config(problem, config)
    table = format_trace(trace, problem.dim)
    header = table.splitlines()[0]
    assert header.endswith("certifier_residual")
    assert trace.final.certifier_residual <= 1e-6


def test_trace_format_shape(three_ball_problem):
    from drfeas import StopRule, run_composite

    trace = run_composite(three_ball_problem, Cyclic(3), 2, Point([5.0, 5.0]),
                          StopRule(1000, 1e-10, 1e-8))
    table = format_trace(trace, 2)
    lines = table.splitlines()
    assert lines[0] == "n,applied_operator_id,displacement,max_set_distance,coord_1,coord_2"
    assert len(lines) == len(trace.steps) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "init"
    # full precision round trip: parsing a coordinate back gives the same float
    assert float(lines[-1].split(",")[4]) == trace.final.iterate[0]


def test_trace_format_deterministic(three_ball_problem):
    from drfeas import StopRule, run_composite

    def make():
        trace = run_composite(three_ball_problem, Cyclic(3), 2, Point([5.0, 5.0]),
                              StopRule(1000, 1e-10, 1e-8))
        return format_trace(trace, 2)

    assert make() == make()


def test_report_table_format():
    rep = check_nonexpansive(Identity(2), samples=10)
    table = format_reports([rep])
    lines = table.splitlines()
    assert lines[0] == "property_name,samples,worst_violation,tolerance,pass"
    assert lines[1] == "nonexpansive,10,0.0,1e-10,true"


def test_load_document_from_disk(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(doc(), encoding="utf-8")
    problem, config = load_document(path)
    assert problem.m == 2 and config is None
