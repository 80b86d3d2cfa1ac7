"""Seeded problem generators for the benchmark workloads.

Every generator is a pure function of the workload seed: the same seed gives
byte-identical JSON documents. Each document ``doc_NN.json`` is written with
the known common point p of its sets beside it in ``point_NN.json``; the
program only ever sees the documents, read through ``load_document``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DOCS_PER_JOB = 6
# AC-1 suite parameters of ``repro.operator_class_reports``.
CHECK_DIMS = (2, 5, 50)
CHECK_SAMPLES = 1000
CHECK_REPORTS = len(CHECK_DIMS) * (5 + 2 * 5)  # 5 projections + 5 windows x (T, V)

SOLVE_WORKLOADS = ("wide_mixed", "narrow_random_block")
WORKLOADS = SOLVE_WORKLOADS + ("operator_checks",)

# Distinct stream tags keep the workloads' random streams apart for one seed.
_TAGS = {"wide_mixed": 101, "narrow_random_block": 202}


def _rng(workload: str, seed: int, doc: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[workload], seed, doc])


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    u = rng.normal(size=d)
    return u / np.linalg.norm(u)


def wide_mixed_document(seed: int, doc: int) -> tuple[dict, np.ndarray]:
    """d=1000, m=50 mixed sets through a common point p, cyclic DR with r=2.

    Margins and radii are constants and the set order is a fixed interleave,
    so the seed moves directions and positions but hardly the iteration count.
    """
    d = 1000
    rng = _rng("wide_mixed", seed, doc)
    p = rng.normal(size=d)
    halfspaces = []
    for _ in range(30):
        a = _unit(rng, d)
        halfspaces.append({"kind": "Halfspace", "a": a.tolist(), "b": float(a @ p + 1.0)})
    balls = [
        {"kind": "Ball", "center": (p + 3.0 * _unit(rng, d)).tolist(), "radius": 4.0}
        for _ in range(10)
    ]
    boxes = [
        {"kind": "Box", "lo": (p - 1.0).tolist(), "hi": (p + 1.0).tolist()}
        for _ in range(5)
    ]
    affines = []
    for _ in range(5):
        A = rng.normal(size=(5, d))
        affines.append({"kind": "AffineSubspace", "A": A.tolist(), "b": (A @ p).tolist()})
    sets = []
    for k in range(5):  # each block of ten: 6 halfspaces, 2 balls, a box, an affine
        h = halfspaces[6 * k : 6 * k + 6]
        sets += h[:3] + [balls[2 * k]] + h[3:] + [balls[2 * k + 1], boxes[k], affines[k]]
    x0 = p + 20.0 * rng.normal(size=d)
    document = {
        "dimension": d,
        "sets": sets,
        "scheme": "unrestricted_dr",
        "control": {"rule": "cyclic", "m": len(sets)},
        "r": 2,
        "x0": x0.tolist(),
        "stop": {"max_iters": 20000, "displacement_tol": 1e-10, "feasibility_tol": 1e-8},
    }
    return document, p


# Fixed configuration in R^3: three near-tangent ball pairs Ball(p +- 2v, 2 + 1e-3)
# whose axes v lie in one plane, and a start at distance 10 from p.
_NARROW_AXES = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2**-0.5, 2**-0.5, 0.0]])
_NARROW_START = np.array([1.0, 2.0, 3.0]) / 14**0.5
_NARROW_RADIUS = 2.0 + 1e-3


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def narrow_random_block_document(seed: int, doc: int) -> tuple[dict, np.ndarray]:
    """A seeded rigid motion of the fixed near-tangent configuration.

    Rigid motions keep the conditioning, so the seed moves positions and the
    RandomBlock layout but not the difficulty.
    """
    rng = _rng("narrow_random_block", seed, doc)
    q = _rotation(rng)
    p = rng.uniform(-100.0, 100.0, size=3)
    sets = []
    for v in _NARROW_AXES:
        w = q @ v
        for sign in (1.0, -1.0):
            sets.append({"kind": "Ball", "center": (p + sign * 2.0 * w).tolist(),
                         "radius": _NARROW_RADIUS})
    control_seed = int(rng.integers(0, 2**31 - 1))
    document = {
        "dimension": 3,
        "sets": sets,
        "scheme": "unrestricted_dr",
        "control": {"rule": "random_block", "m": len(sets), "M": 12, "seed": control_seed},
        "r": 3,
        "x0": (p + 10.0 * (q @ _NARROW_START)).tolist(),
        "stop": {"max_iters": 100000, "displacement_tol": 1e-10, "feasibility_tol": 1e-8},
    }
    return document, p


_GENERATORS = {
    "wide_mixed": wide_mixed_document,
    "narrow_random_block": narrow_random_block_document,
}


def write_documents(workload: str, seed: int, out_dir: Path) -> list[Path]:
    """Write the workload's documents and known points; return document paths.

    ``operator_checks`` has no documents: its only input is the seed.
    """
    if workload not in _GENERATORS:
        return []
    paths = []
    for i in range(DOCS_PER_JOB):
        document, p = _GENERATORS[workload](seed, i)
        path = out_dir / f"doc_{i:02d}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        point_path(path).write_text(json.dumps(p.tolist()), encoding="utf-8")
        paths.append(path)
    return paths


def point_path(document: Path) -> Path:
    return document.with_name(document.name.replace("doc_", "point_"))
