#!/usr/bin/env python3
"""Mutation gate: each entry breaks the package in one known way, and the
tests it names must catch the break.

An entry is an id, a file under the repository root, a snippet that must
occur in that file exactly once, its replacement, and the tests to run
(files or node ids under tests/). The runner copies src/ and tests/ to a
temporary directory, applies one mutant at a time to the copy, and runs
that mutant's tests there with ``pytest -x -q -W error::RuntimeWarning``,
as the tier-1 run treats numpy's warnings. A mutant is killed when its
tests fail. Every test an entry names first runs once, in one pytest run,
on the clean copy and must pass there, so a test that fails for another
reason cannot count as a kill. The gate exits 1 when the clean copy fails,
when a mutant survives, when its tests cannot run (none collected, a usage
error), or when a snippet no longer occurs exactly once, so a refactor
that moves the code re-aims the entry in the open.

Usage:
    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    # Integer, dimension, step and range rules.
    Mutant("integer_accepts_bool", "src/drfeas/space.py",
           "    if not isinstance(value, bool):\n", "    if True:\n",
           ("tests/test_control.py::test_non_integer_parameters_raise_invalid_control",)),
    Mutant("integer_sign_bound_off_by_one", "src/drfeas/space.py",
           "if least is None or n >= least:", "if least is None or n >= least - 1:",
           ("tests/test_solver.py::test_non_integer_parameters_raise",)),
    Mutant("stream_without_range_check", "src/drfeas/solver.py",
           '    _require_range(f, problem.m, "sets")\n', "",
           ("tests/test_solver.py::test_non_integer_parameters_raise",)),
    Mutant("window_without_require_step", "src/drfeas/control.py",
           "f.indices_from((r - 1) * f._require_step(n))", "f.indices_from((r - 1) * n)",
           ("tests/test_control.py::test_non_integer_parameters_raise_invalid_control",)),
    Mutant("operator_truncates_dim", "src/drfeas/operators.py",
           "self._dim = _dimension(dim)", "self._dim = int(dim)",
           ("tests/test_solver.py::test_non_integer_parameters_raise",)),
    Mutant("block_pattern_lets_value_error_out", "src/drfeas/control.py",
           "    except ValueError as exc:", "    except TypeError as exc:",
           ("tests/test_control.py::test_random_block_parameter_validation",)),
    Mutant("no_max_m", "src/drfeas/problem_io.py",
           "    if block.M > MAX_M:\n", "    if False:\n",
           ("tests/test_problem_io.py::test_random_block_length_is_bounded_before_a_block_is_drawn",)),
    # Controls as in-order streams: one window formula, eager checks.
    Mutant("slide_rereads_boundary_index", "src/drfeas/control.py",
           "        w = (next(indices),)\n        for new in zip(*[indices] * (r - 1)):\n"
           "            w = w[-1:] + new\n            yield w\n",
           "        for w in zip(*[indices] * r):\n            yield w\n",
           ("tests/test_control.py::test_window_run_slices_into_one_step_windows",)),
    Mutant("block_groups_overlap", "src/drfeas/control.py",
           "g, k, skip = g + k,", "g, k, skip = g + 1,",
           ("tests/test_control.py::test_indices_is_index_at_over_a_run",)),
    Mutant("windows_without_width_check", "src/drfeas/control.py",
           '    r = _integer(r, "window width r", InvalidControl)\n    if r <= 1:\n'
           '        raise InvalidControl("window width r must be an integer greater than 1")\n',
           "",
           ("tests/test_solver.py::test_non_integer_parameters_raise",)),
    Mutant("explicit_coverage_by_length", "src/drfeas/control.py",
           "if len(set(prefix)) != m:", "if len(prefix) < m:",
           ("tests/test_control.py::test_explicit_requires_surjective_prefix",)),
    Mutant("explicit_coverage_by_range_set", "src/drfeas/control.py",
           "if len(set(prefix)) != m:", "if set(prefix) != set(range(1, m + 1)):",
           ("tests/test_control.py::"
            "test_explicit_coverage_check_grows_with_the_prefix_not_its_largest_entry",)),
    # In-place batches: outputs are new arrays, inputs are only read.
    Mutant("ball_reflect_returns_x", "src/drfeas/convex.py",
           "return x + 0.0 if self._doubles else", "return x if self._doubles else",
           ("tests/test_in_place.py",)),
    Mutant("ball_reflect_always_x_plus_zero", "src/drfeas/convex.py",
           "return x + 0.0 if self._doubles else 2.0 * x - x", "return x + 0.0",
           ("tests/test_in_place.py",)),
    Mutant("reflect_in_place_without_type_test", "src/drfeas/convex.py",
           "if x.ndim > 1 and type(self) in _BUILT_IN:", "if x.ndim > 1:",
           ("tests/test_in_place.py",)),
    Mutant("linear_step_into_x", "src/drfeas/convex.py",
           "* self._sa\n        np.subtract(x, out, out=out)",
           "* self._sa\n        out = np.subtract(x, out, out=x)",
           ("tests/test_in_place.py", "tests/test_scales.py")),
    Mutant("relaxation_scales_inner_output", "src/drfeas/operators.py",
           "        out = self.lam * self.inner_op._apply(x)\n",
           "        out = self.inner_op._apply(x)\n        out *= self.lam\n",
           ("tests/test_in_place.py",)),
    Mutant("check_difference_into_a", "src/drfeas/diagnostics.py",
           "    out = a - b\n", "    a -= b\n    out = a\n",
           ("tests/test_in_place.py", "tests/test_diagnostics.py")),
    Mutant("dr_average_0_55", "src/drfeas/operators.py",
           "v *= 0.5", "v *= 0.55",
           ("tests/test_in_place.py", "tests/test_operators.py")),
    # The residual rule and the one built-in registry.
    Mutant("trigger_at_block_plus_one", "src/drfeas/solver.py",
           "len(iterates) - len(dists) == block", "len(iterates) - len(dists) == block + 1",
           ("tests/test_solver.py",)),
    Mutant("measure_never_nan", "src/drfeas/solver.py",
           "            return dists[-1] != dists[-1]\n", "            return False\n",
           ("tests/test_solver.py",)),
    Mutant("grouping_by_isinstance", "src/drfeas/solver.py",
           "if type(c) in _BUILT_IN else _each_distance",
           "if isinstance(c, ConvexSet) else _each_distance",
           ("tests/test_solver.py", "tests/test_convex.py")),
    Mutant("fallback_by_isinstance", "src/drfeas/solver.py",
           "if type(self._grouped[j]) in _BUILT_IN:",
           "if isinstance(self._grouped[j], ConvexSet):",
           ("tests/test_convex.py", "tests/test_solver.py")),
    Mutant("block_rule_by_isinstance", "src/drfeas/solver.py",
           "all(type(c) in _BUILT_IN for c in problem.sets)",
           "all(isinstance(c, ConvexSet) for c in problem.sets)",
           ("tests/test_solver.py",)),
    Mutant("shared_row_takes_next_fresh", "src/drfeas/solver.py",
           "dists.append(dists[-1] if s else next(worst))", "dists.append(next(worst))",
           ("tests/test_solver.py",)),
    Mutant("shared_row_takes_next_fresh_or_zero", "src/drfeas/solver.py",
           "dists.append(dists[-1] if s else next(worst))", "dists.append(next(worst, 0.0))",
           ("tests/test_solver.py", "tests/test_golden.py")),
    Mutant("shared_rows_measured_again", "src/drfeas/solver.py",
           "shared = [i > 0 and iterates[i] is iterates[i - 1] for i in rows]",
           "shared = [False for i in rows]",
           ("tests/test_solver.py",)),
    Mutant("no_block_flush", "src/drfeas/solver.py",
           "if (settles or len(iterates) - len(dists) == block) and measure():",
           "if settles and measure():",
           ("tests/test_solver.py",)),
    Mutant("no_stop_row_trigger", "src/drfeas/solver.py",
           "if (settles or len(iterates) - len(dists) == block) and measure():",
           "if len(iterates) - len(dists) == block and measure():",
           ("tests/test_solver.py",)),
    Mutant("block_always_64", "src/drfeas/solver.py",
           "block = _RESIDUAL_BLOCK if stacked else 1", "block = _RESIDUAL_BLOCK",
           ("tests/test_solver.py",)),
    # Floating-point flags and the affine step's scaled fallback.
    Mutant("iterate_with_flags_on", "src/drfeas/solver.py",
           '    with np.errstate(over="ignore", invalid="ignore"):\n        x = x0.coords\n',
           '    with np.errstate(over="warn", invalid="warn"):\n        x = x0.coords\n',
           ("tests/test_solver.py",)),
    Mutant("project_with_flags_on", "src/drfeas/convex.py",
           'with np.errstate(over="ignore", invalid="ignore"):\n'
           "            return Point(self._project(",
           'with np.errstate(over="warn", invalid="warn"):\n'
           "            return Point(self._project(",
           ("tests/test_convex.py",)),
    Mutant("apply_with_flags_on", "src/drfeas/operators.py",
           'with np.errstate(over="ignore", invalid="ignore"):\n'
           "            return Point(self._apply(",
           'with np.errstate(over="warn", invalid="warn"):\n'
           "            return Point(self._apply(",
           ("tests/test_operators.py",)),
    Mutant("affine_floor_zero", "src/drfeas/convex.py",
           "self._floor = np.finfo(float).tiny / np.min(nonzero, initial=math.inf)",
           "self._floor = 0.0",
           ("tests/test_convex.py", "tests/test_scales.py")),
    Mutant("affine_trigger_without_floor_test", "src/drfeas/convex.py",
           "np.minimum.reduce(a, axis=None, initial=math.inf) >= self._floor\n"
           "                and np.maximum",
           "np.maximum",
           ("tests/test_convex.py", "tests/test_scales.py")),
    # Trace text compares coordinates by their bits, so 0.0 and -0.0 differ.
    Mutant("trace_diff_by_float_compare", "src/drfeas/problem_io.py",
           "x.view(np.int64) != last.view(np.int64)", "x != last",
           ("tests/test_solver.py", "tests/test_problem_io.py")),
]


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's snippet occurs in its file."""
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet)


def pytest(tests: tuple[str, ...], copy: Path) -> subprocess.CompletedProcess:
    """Run the tests in the copy with ``pytest -x -q``, numpy's warnings
    raised as errors."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-W", "error::RuntimeWarning", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=300,
    )


def tail(done: subprocess.CompletedProcess) -> str:
    return f"pytest exit {done.returncode}: {done.stdout[-500:]}{done.stderr[-500:]}"


def run(mutant: Mutant, copy: Path) -> str:
    """Apply the mutant to the copy, run its tests there and restore the
    file: 'killed by' the first failing test, 'survived', or the error that
    kept the tests from running."""
    target = copy / mutant.file
    original = target.read_text(encoding="utf-8")
    target.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    try:
        done = pytest(mutant.tests, copy)
    finally:
        target.write_text(original, encoding="utf-8")
    if done.returncode == 1:
        failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
        return "killed by " + (failed[0][len("FAILED "):] if failed else "a failing test")
    if done.returncode == 0:
        return "survived"
    return f"error ({tail(done)})"


def main() -> int:
    stale = [m.id for m in MUTANTS if occurrences(m) != 1]
    if stale:
        print(f"snippets that no longer occur exactly once: {stale}")
        return 1
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        # one run of every named test: it passes when each set of tests does
        done = pytest(tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)), copy)
        if done.returncode != 0:
            print(f"unmutated copy fails its tests ({tail(done)})")
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            verdict = run(mutant, copy)
            failed += not verdict.startswith("killed")
            print(f"{mutant.id} ({time.perf_counter() - start:.1f} s): {verdict}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
