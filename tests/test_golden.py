"""Golden outputs: byte-exact traces and the check report tables.

Each fixture under tests/golden/ was written by this module and is compared
byte for byte, so a refactor that moves any iterate, distance or report by
one ulp fails here. AC-9 only compares a run with a re-run; these pin the
numbers across changes.

A change that moves a float on purpose regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and must show that every terminal status and iteration count stayed the
same. Before writing, the command prints per fixture the row counts, the
columns whose values changed and the worst absolute change in each; for
trace columns it adds the worst change relative to max(1, max |coord| of
the row).
"""

import contextlib
import functools
import io
import json
import math
import tempfile
from importlib.resources import as_file, files
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from drfeas import (
    AffineSubspace,
    Ball,
    Box,
    FeasibilityProblem,
    Halfspace,
    Hyperplane,
    Point,
    RandomBlock,
    StopRule,
    dr_operator,
    execute_config,
    format_reports,
    format_trace,
    run_unrestricted_dr,
)
from drfeas.cli import main
from drfeas.repro import load_bundled, operator_class_reports, repro_ac4

GOLDEN_DIR = Path(__file__).parent / "golden"

# Every document the package ships, by stem
BUNDLED = sorted(
    p.name.removesuffix(".json") for p in files("drfeas").joinpath("problems").iterdir()
    if p.name.endswith(".json")
)
# AC-1 prints its wall time, so its output is no fixture
REPRO_IDS = ("AC-2", "AC-3", "AC-4", "AC-5", "AC-6", "AC-7", "AC-8", "AC-9")
AC4_SEEDS = (1, 2, 3, 4, 5)
# Bundled documents whose `drfeas check` output is a fixture
CHECKED_BUNDLED = ("ac2_three_balls", "ac4_random_block_three_balls")


def _bundled_trace(stem: str) -> str:
    problem, config = load_bundled(f"{stem}.json")
    return format_trace(execute_config(problem, config), problem.dim)


@functools.cache
def _ac4_traces() -> dict[int, str]:
    # The traces `drfeas repro AC-4` writes, one per RandomBlock seed, from
    # one run of the criterion.
    with tempfile.TemporaryDirectory() as tmp:
        repro_ac4(tmp)
        return {
            s: (Path(tmp) / f"ac4_seed{s}.trace.csv").read_text(encoding="utf-8")
            for s in AC4_SEEDS
        }


def _synthetic_trace() -> str:
    """Every set kind around a common point p, with two near-tangent balls
    that make the run take a few hundred steps, and a certifier column."""
    rng = np.random.default_rng(2204)
    d = 6
    p = rng.uniform(-1.0, 1.0, size=d)
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    a_half, a_hyper = rng.normal(size=d), rng.normal(size=d)
    A = rng.normal(size=(2, d))
    sets = [
        Ball(p + u, 1.03),
        Halfspace(a_half, float(a_half @ p) + 0.5),
        Ball(p - u, 1.03),
        Hyperplane(a_hyper, float(a_hyper @ p)),
        Box(p - 1.0, p + 2.0),
        AffineSubspace(A, A @ p),
    ]
    problem = FeasibilityProblem(sets)
    trace = run_unrestricted_dr(
        problem,
        RandomBlock(len(sets), 9, 3),
        3,
        Point(rng.uniform(-5.0, 5.0, size=d)),
        StopRule(max_iters=2000, displacement_tol=1e-12, feasibility_tol=1e-9),
        certifier=dr_operator(sets),
    )
    return format_trace(trace, d)


# A product document with every operator type and a certifier, so that
# `drfeas check` classifies each of them.
EVERY_OPERATOR_PRODUCT = {
    "dimension": 2,
    "sets": [
        {"kind": "Ball", "center": [0.0, 0.0], "radius": 1.0},
        {"kind": "Ball", "center": [1.0, 0.0], "radius": 1.0},
        {"kind": "Halfspace", "a": [0.0, 1.0], "b": 0.5},
    ],
    "scheme": "product",
    "window_control": {"rule": "cyclic", "m": 3},
    "r": 2,
    "operators": [
        {"type": "projection", "set": 1},
        {"type": "relaxed_projection", "set": 2, "lambda": 1.5},
        {"type": "dr", "sets": [3, 1, 2]},
        {"type": "s_window", "n": 1},
        {"type": "composite_q"},
    ],
    "control": {"rule": "cyclic", "m": 5},
    "certifier": {"type": "dr", "sets": [1, 2]},
    "x0": [3.0, -2.0],
}


def _stdout(argv: list[str]) -> str:
    """Standard output of `drfeas <argv>`, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def _check_output() -> str:
    """Standard output of `drfeas check --samples 200` on the document above."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "every_operator_product.json"
        path.write_text(json.dumps(EVERY_OPERATOR_PRODUCT), encoding="utf-8")
        return _stdout(["check", str(path), "--samples", "200"])


def _check_bundled(stem: str) -> str:
    """Standard output of `drfeas check --samples 200` on a bundled document."""
    with as_file(files("drfeas").joinpath("problems", f"{stem}.json")) as path:
        return _stdout(["check", str(path), "--samples", "200"])


def golden_outputs() -> dict[str, Callable[[], str]]:
    """Fixture file name -> zero-argument function producing its text."""
    outputs: dict[str, Callable[[], str]] = {
        f"{stem}.trace.csv": (lambda stem=stem: _bundled_trace(stem)) for stem in BUNDLED
    }
    outputs.update(
        {f"ac4_seed{s}.trace.csv": (lambda s=s: _ac4_traces()[s]) for s in AC4_SEEDS}
    )
    outputs["ac1_reports.csv"] = lambda: format_reports(operator_class_reports())
    outputs["synthetic_mixed.trace.csv"] = _synthetic_trace
    outputs["check_every_operator_product.txt"] = _check_output
    # S_n and V_n for n = 0..jf, then Q: a composite_q and a RandomBlock DR document
    for stem in CHECKED_BUNDLED:
        outputs[f"check_{stem}.txt"] = lambda stem=stem: _check_bundled(stem)
    outputs["repro_ac2_to_ac9.txt"] = lambda: "".join(
        _stdout(["repro", ac_id]) for ac_id in REPRO_IDS
    )
    return outputs


@pytest.mark.parametrize("name", sorted(golden_outputs()))
def test_output_matches_golden_bytes(name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert golden_outputs()[name]().encode("utf-8") == expected


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a fixture, every line split at its last commas,
    one per header column after the first: a report's property name such as
    firmly_nonexpansive[P(C1),d=2] holds commas of its own."""
    lines = text.splitlines()
    width = lines[0].count(",")
    header, *rows = (line.rsplit(",", width) for line in lines)
    return header, rows


def _change(old: str, new: str) -> float:
    try:
        return abs(float(new) - float(old))
    except ValueError:  # a cell that is not a number
        return math.inf


def change_summary(name: str, old: str, new: str) -> str:
    """One line per fixture: row counts, then each changed column with the
    number of cells changed and the worst absolute change; in a trace, also
    the worst change relative to max(1, max |coord| of the row)."""
    head = f"{name}: {len(new.splitlines()) - 1} rows (was {len(old.splitlines()) - 1})"
    if old == new:
        return f"{head}, byte-identical"
    header, old_rows = _table(old)
    new_header, new_rows = _table(new)
    if new_header != header or list(map(len, new_rows)) != list(map(len, old_rows)):
        return f"{head}, header or row shape changed"
    coords = [j for j, col in enumerate(header) if col.startswith("coord_")]
    changes: dict[str, list[float]] = {}  # column -> [cells, worst abs, worst rel]
    for old_row, new_row in zip(old_rows, new_rows):
        scale = max([1.0] + [abs(float(old_row[j])) for j in coords])
        for j, (o, n) in enumerate(zip(old_row, new_row)):
            if o != n:
                entry = changes.setdefault(header[j], [0, 0.0, 0.0])
                delta = _change(o, n)
                entry[0] += 1
                entry[1] = max(entry[1], delta)
                entry[2] = max(entry[2], delta / scale)
    parts = [
        f"{col} ({cells} cells, worst abs {worst:.3g}" + (f", rel {rel:.3g})" if coords else ")")
        for col, (cells, worst, rel) in changes.items()
    ]
    return f"{head}, changed: " + "; ".join(parts)


def test_change_summary_names_each_changed_column():
    old = "n,max_set_distance,coord_1\n0,1.0,-4.0\n1,0.5,2.0\n"
    new = "n,max_set_distance,coord_1\n0,1.0000000000000004,-4.0\n1,0.5,2.0\n"
    assert change_summary("t.csv", old, old) == "t.csv: 2 rows (was 2), byte-identical"
    assert change_summary("t.csv", old, new) == (
        "t.csv: 2 rows (was 2), changed: max_set_distance (1 cells, worst abs 4.44e-16, rel 1.11e-16)"
    )
    assert change_summary("t.csv", old, old + "2,0.1,1.0\n").endswith(
        "3 rows (was 2), header or row shape changed"
    )
    old = "property_name,worst_violation,pass\nfirm[P(C1),d=2],1e-15,true\n"
    new = "property_name,worst_violation,pass\nfirm[P(C1),d=2],2e-15,true\n"
    assert change_summary("r.csv", old, new) == (
        "r.csv: 1 rows (was 1), changed: worst_violation (1 cells, worst abs 1e-15)"
    )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    produced = {name: produce() for name, produce in golden_outputs().items()}
    for name, text in produced.items():
        path = GOLDEN_DIR / name
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        print(change_summary(name, old, text) if old else f"{name}: new fixture")
    for name, text in produced.items():
        (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))
        print(f"wrote {GOLDEN_DIR / name}")
