"""Output checks that use only the generator's parameters and plain numpy.

Nothing here calls drfeas: the solve checks recompute every set distance
from the JSON document, and the report check reads the fields of the
returned reports without calling back into the library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import CHECK_REPORTS, CHECK_SAMPLES

ACCEPTED_STATUSES = ("converged_displacement", "feasible")


def _compact(params: dict) -> dict:
    """A set's parameters with every list as a float array, so that the check
    data held through a run adds little to the process's peak memory."""
    return {k: np.asarray(v, dtype=float) if isinstance(v, list) else v
            for k, v in params.items()}


def _distance(params: dict, x: np.ndarray) -> float:
    kind = params["kind"]
    if kind == "Halfspace":
        a = params["a"]
        return max(0.0, float(a @ x) - params["b"]) / float(np.linalg.norm(a))
    if kind == "Ball":
        return max(0.0, float(np.linalg.norm(x - params["center"])) - params["radius"])
    if kind == "Box":
        return float(np.linalg.norm(x - np.clip(x, params["lo"], params["hi"])))
    if kind == "AffineSubspace":
        A = params["A"]
        y = np.linalg.solve(A @ A.T, A @ x - params["b"])
        return float(np.linalg.norm(A.T @ y))
    raise ValueError(f"no reference distance for set kind {kind!r}")


@dataclass
class SolveCase:
    """What one document's run must satisfy, read from the generator's output."""

    name: str
    sets: list
    feasibility_tol: float
    point: np.ndarray

    @classmethod
    def from_files(cls, document: Path, point: Path) -> "SolveCase":
        doc = json.loads(document.read_text(encoding="utf-8"))
        p = np.asarray(json.loads(point.read_text(encoding="utf-8")))
        sets = [_compact(s) for s in doc["sets"]]
        case = cls(document.stem, sets, doc["stop"]["feasibility_tol"], p)
        worst = max(_distance(s, p) for s in case.sets)
        if worst > 1e-9:
            raise ValueError(f"{document.name}: generator point is {worst:.3e} outside a set")
        return case


def check_solve(case: SolveCase, status: str, iterations: int, final: np.ndarray,
                trace_csv: bytes) -> list[str]:
    """Problems with one document's run; an empty list means it passed."""
    problems = []
    if status not in ACCEPTED_STATUSES:
        problems.append(f"{case.name}: terminal status {status}")
    worst = max(_distance(s, final) for s in case.sets)
    if not worst <= case.feasibility_tol:
        problems.append(
            f"{case.name}: final iterate {worst:.3e} from a set, tol {case.feasibility_tol:.1e}"
        )
    rows = trace_csv.rstrip(b"\n").split(b"\n")
    last = rows[-1].decode("ascii").split(",")
    coords = np.array([float(c) for c in last[4 : 4 + final.shape[0]]])
    if len(rows) != iterations + 2 or int(last[0]) != iterations:
        problems.append(f"{case.name}: trace has {len(rows) - 1} steps for {iterations} iterations")
    if not np.array_equal(coords, final):
        problems.append(f"{case.name}: last trace row differs from the final iterate")
    return problems


def check_reports(reports) -> list[str]:
    """Problems with the AC-1 suite's reports; an empty list means it passed."""
    problems = []
    if len(reports) != CHECK_REPORTS:
        problems.append(f"{len(reports)} reports, expected {CHECK_REPORTS}")
    for rep in reports:
        if rep.samples != CHECK_SAMPLES:
            problems.append(f"{rep.property_name}: {rep.samples} samples")
        if not (rep.passed and rep.worst_violation <= rep.tolerance):
            problems.append(f"{rep.property_name}: worst violation {rep.worst_violation:.3e}")
    return problems
