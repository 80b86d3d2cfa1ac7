#!/usr/bin/env python3
"""Mutation gate: each entry breaks the package in one known way, and the
tests it names must catch the break.

An entry is an id, a file under the repository root, a snippet that must
occur in that file exactly once, its replacement, and the tests to run
(files or node ids under tests/). The runner runs the mutants on
``os.cpu_count()`` worker threads, each with its own copy of src/ and tests/
in a temporary directory: a worker applies one mutant at a time to its copy
and runs that mutant's tests there with ``pytest -x -q --assert=plain -W
error::RuntimeWarning``, as the tier-1 run treats numpy's warnings, and the
verdicts are printed in entry order. A mutant is killed when its tests
fail. Every test an entry names first runs once, in one pytest run, on a
clean copy and must pass there, so a test that fails for another
reason cannot count as a kill. The gate exits 1 when the clean copy fails,
when a mutant survives, when its tests cannot run (none collected, a usage
error), or when a snippet no longer occurs exactly once, so a refactor
that moves the code re-aims the entry in the open.

Usage:
    python scripts/mutants.py
"""

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
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
    # A RandomBlock block keeps the draws of numpy's public calls.
    Mutant("block_shuffles_short_prefix", "src/drfeas/control.py",
           "rng.shuffle(vals[:m])", "rng.shuffle(vals[:m - 1])",
           ("tests/test_control.py::test_block_pattern_draws_the_reference_stream",)),
    Mutant("block_without_final_shuffle", "src/drfeas/control.py",
           "    rng.shuffle(vals)\n", "",
           ("tests/test_control.py::test_block_pattern_draws_the_reference_stream",)),
    Mutant("seed_words_low_word_only", "src/drfeas/control.py",
           "        while n := n >> 32:\n            words.append(n & 0xFFFFFFFF)\n", "",
           ("tests/test_control.py::test_block_pattern_draws_the_reference_stream",)),
    Mutant("block_arange_outside_try", "src/drfeas/control.py",
           "    try:\n        vals = np.arange(1, M + 1)\n",
           "    vals = np.arange(1, M + 1)\n    try:\n",
           ("tests/test_control.py::test_random_block_parameter_validation",)),
    Mutant("block_groups_overlap", "src/drfeas/control.py",
           "g, k, skip = g + k,", "g, k, skip = g + 1,",
           ("tests/test_control.py::test_indices_is_index_at_over_a_run",)),
    Mutant("index_at_reads_the_next_step", "src/drfeas/control.py",
           "return next(self.indices_from(n))", "return next(self.indices_from(n + 1))",
           ("tests/test_control.py::test_random_block_every_aligned_block_covers",)),
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
    # In place: a projection is x or a new array, which a reflection doubles
    # in; outputs are new arrays, inputs are only read.
    Mutant("reflect_in_place_without_type_test", "src/drfeas/convex.py",
           "if p is not x and type(self) in _BUILT_IN:", "if p is not x:",
           ("tests/test_in_place.py",)),
    Mutant("reflect_in_place_into_x", "src/drfeas/convex.py",
           "if p is not x and type(self) in _BUILT_IN:", "if type(self) in _BUILT_IN:",
           ("tests/test_in_place.py::test_reflection_has_the_bits_of_twice_the_projection_minus_x",)),
    Mutant("ball_center_before_scaling", "src/drfeas/convex.py",
           "        v *= self.radius / d\n        v += self.center\n",
           "        v += self.center\n        v *= self.radius / d\n",
           ("tests/test_in_place.py::test_dr_and_relaxation_keep_the_bits_of_their_formulas",)),
    Mutant("ball_project_without_scaled_branch", "src/drfeas/convex.py",
           "        if d == math.inf:\n            # x - center overflowed, or its norm does: take",
           "        if False:\n            # x - center overflowed, or its norm does: take",
           ("tests/test_in_place.py::"
            "test_ball_reflects_a_point_whose_offset_overflows_at_a_power_of_two",)),
    Mutant("halfspace_rows_without_member_copy", "src/drfeas/convex.py",
           "        if self._one_sided:  # x - 0 a would turn a -0.0 into 0.0\n"
           "            np.copyto(out, x, where=(g <= 0.0)[..., None])\n", "",
           ("tests/test_small_d.py::test_batch_rows_have_the_bits_of_single_point_projections",)),
    Mutant("linear_step_into_x", "src/drfeas/convex.py",
           "t[..., None] * self._sa\n        np.subtract(x, out, out=out)",
           "t[..., None] * self._sa\n        out = np.subtract(x, out, out=x)",
           ("tests/test_in_place.py", "tests/test_scales.py")),
    Mutant("linear_point_step_into_x", "src/drfeas/convex.py",
           "out = t * self._sa\n        np.subtract(x, out, out=out)",
           "out = t * self._sa\n        out = np.subtract(x, out, out=x)",
           ("tests/test_in_place.py",)),
    Mutant("box_clip_into_x", "src/drfeas/convex.py",
           "np.minimum(out, self.hi, out=out)", "np.minimum(out, self.hi, out=x)",
           ("tests/test_in_place.py",)),
    Mutant("member_reflection_in_two_arrays", "src/drfeas/convex.py",
           "        r = 2.0 * p\n        r -= x\n", "        r = 2.0 * p - x\n",
           ("tests/test_cost.py::test_single_point_reflection_keeps_two_arrays_at_most",)),
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
    # One trie walk per draw in a check suite: chains share their common
    # prefixes, found by object identity; a node's reports read its images
    # before its children run, a step that writes in place takes its
    # parent's images only at their last read, and each image lives until
    # the last step that reads it.
    Mutant("non_last_in_place_child_without_copy", "src/drfeas/diagnostics.py",
           "    if x and node.parent.images is not None:\n        v = [a.copy() for a in v]\n", "",
           ("tests/test_diagnostics.py::test_suite_reports_equal_standalone_checks_on_the_catalog",)),
    Mutant("reports_read_after_the_children", "src/drfeas/diagnostics.py",
           "            while stack:\n"
           "                node = stack.pop()\n"
           "                if node is not root:\n"
           "                    node.images = _images(node)\n"
           "                for i, name, violation in node.reports:\n"
           "                    reports[i] = _report(name, violation(sample, *node.images), tol)\n",
           "            late = []\n"
           "            while stack or late:\n"
           "                if not stack:\n"
           "                    for i, name, violation, images in late:\n"
           "                        reports[i] = _report(name, violation(sample, *images), tol)\n"
           "                    break\n"
           "                node = stack.pop()\n"
           "                if node is not root:\n"
           "                    node.images = _images(node)\n"
           "                late += [(*r, node.images) for r in node.reports]\n",
           ("tests/test_diagnostics.py::test_grouped_suites_equal_standalone_checks",)),
    # Each step declares its second input, back places behind it.
    Mutant("average_reads_the_sample", "src/drfeas/operators.py",
           "        steps = [step for op in self.factors for step in op._steps()]\n",
           "        steps = []\n"
           "        for op in self.factors:\n"
           "            steps += [(k, o, b + len(steps) if k == '_average' else b)\n"
           "                      for k, o, b in op._steps()]\n",
           ("tests/test_diagnostics.py::test_grouped_suites_equal_standalone_checks",)),
    Mutant("reflection_reads_its_projection", "src/drfeas/operators.py",
           '("_reflect_projection", c, 2)] if split', '("_reflect_projection", c, 1)] if split',
           ("tests/test_diagnostics.py::test_steps_declare_their_second_input",)),
    Mutant("average_back_one_short", "src/drfeas/operators.py",
           '("_average", self, len(steps) + 1)', '("_average", self, len(steps))',
           ("tests/test_diagnostics.py::"
            "test_chains_of_steps_have_the_bits_of_apply_on_the_catalog",)),
    Mutant("trie_keys_by_type", "src/drfeas/diagnostics.py",
           "key = (id(path[-1]), kind, id(obj))", "key = (id(path[-1]), kind, type(obj))",
           ("tests/test_diagnostics.py::test_equal_sets_are_distinct_steps",)),
    Mutant("release_ignores_a_later_average", "src/drfeas/diagnostics.py",
           "                if back:\n                    path[-back].reads += 1\n",
           '                if kind == "_reflect_projection":\n                    path[-back].reads += 1\n',
           ("tests/test_diagnostics.py::test_grouped_suites_equal_standalone_checks",)),
    Mutant("images_never_let_go", "src/drfeas/diagnostics.py",
           "        if not n.reads:\n            n.images = None\n", "",
           ("tests/test_cost.py::test_ac1_suite_memory_peak_at_d50",)),
    Mutant("composition_subclass_split", "src/drfeas/operators.py",
           "return steps if type(self) is Composition else super()._steps()", "return steps",
           ("tests/test_diagnostics.py::test_subclasses_of_built_in_operators_are_one_step",)),
    Mutant("quasi_batch_writeable", "src/drfeas/diagnostics.py",
           "        x.setflags(write=False)\n", "",
           ("tests/test_diagnostics.py::test_operators_see_shared_read_only_contiguous_batches",)),
    Mutant("draw_norms_from_x_alone", "src/drfeas/diagnostics.py",
           "_Sample(x, y, _max_norms(x, y), diff)", "_Sample(x, y, _max_norms(x), diff)",
           ("tests/test_diagnostics.py::test_violations_are_relative_to_the_largest_norm_of_a_pair",)),
    # The residual rule and the one built-in registry.
    Mutant("trigger_at_block_plus_one", "src/drfeas/solver.py",
           "len(iterates) - len(dists) == block", "len(iterates) - len(dists) == block + 1",
           ("tests/test_solver.py",)),
    Mutant("measure_never_nan", "src/drfeas/solver.py",
           "            return dists[-1] != dists[-1]\n", "            return False\n",
           ("tests/test_solver.py",)),
    Mutant("finite_check_misses_nan", "src/drfeas/solver.py",
           "if not math.isfinite(out.max()):", "if out.max() == math.inf:",
           ("tests/test_convex.py::test_a_stacked_entry_that_is_not_finite_is_taken_again_from_its_set",)),
    Mutant("finite_check_by_min", "src/drfeas/solver.py",
           "if not math.isfinite(out.max()):", "if not math.isfinite(out.min()):",
           ("tests/test_convex.py", "tests/test_solver.py")),
    Mutant("certifier_residual_skipped", "src/drfeas/solver.py",
           "residual = None if certifier is None else _certifier_residual(certifier, x_next)",
           "residual = None",
           ("tests/test_solver.py::test_certifier_residual_reported",)),
    Mutant("step_ids_from_one", "src/drfeas/solver.py",
           'map("S{}".format, count())', 'map("S{}".format, count(1))',
           ("tests/test_golden.py",)),
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
    # The dot rule below 8 coordinates, and the scalar reflections on it.
    Mutant("norm_by_blas_dot_below_small", "src/drfeas/space.py",
           "        sq = 0.0  # 0.0 + c * c is c * c: the sum from the first square\n"
           "        for c in x.tolist():\n            sq += c * c\n",
           "        sq = float(x.dot(x))\n",
           ("tests/test_space.py::test_norm_follows_the_dot_rule_on_each_side_of_8",)),
    Mutant("small_is_9", "src/drfeas/space.py",
           "_SMALL = 8\n", "_SMALL = 9\n",
           ("tests/test_space.py::test_norm_follows_the_dot_rule_on_each_side_of_8",)),
    Mutant("row_dots_from_zero", "src/drfeas/space.py",
           "        s = p[..., 0]  # a view of p, which is summed into it\n"
           "        for j in range(1, p.shape[-1]):\n",
           "        s = np.zeros(p.shape[:-1])\n        for j in range(p.shape[-1]):\n",
           ("tests/test_space.py::test_row_dots_follow_the_dot_rule",)),
    Mutant("ball_floats_without_fallback", "src/drfeas/convex.py",
           "        if sq == inf or sq < TINY and ({ or |v#}):\n            return None\n", "",
           ("tests/test_small_d.py",)),
    Mutant("ball_square_sum_from_last", "src/drfeas/convex.py",
           "        sq = {; sq += |v# * v#}\n",
           "        sq = 0.0\n        for t in ({, |v#},)[::-1]:\n            sq += t * t\n",
           ("tests/test_small_d.py::test_single_points_have_the_bits_of_batch_rows",)),
    Mutant("ball_member_returns_x", "src/drfeas/convex.py",
           "        if d <= r:\n            return [{, |2.0 * x# - x#}]\n",
           "        if d <= r:\n            return [{, |x#}]\n",
           ("tests/test_small_d.py::test_cases_reach_their_branches",)),
    Mutant("linear_floats_without_member_branch", "src/drfeas/convex.py",
           "        if one_sided and g <= 0.0:\n            return [{, |2.0 * x# - x#}]\n", "",
           ("tests/test_small_d.py::test_scalar_reflection_has_the_bits_of_the_array_path",)),
    Mutant("average_halves_each_term", "src/drfeas/operators.py",
           "(v# + x#) * 0.5", "v# * 0.5 + x# * 0.5",
           ("tests/test_small_d.py::test_dr_operator_over_each_case_has_the_bits_of_the_array_path",)),
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
    raised as errors. The gate reads only which tests fail, so assertions
    are left plain: with no bytecode written, pytest would otherwise
    rewrite every module of its plugins again in each run, about half a
    second of it."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--assert=plain",
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
    failed, workers = 0, os.cpu_count() or 1
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.SimpleQueue()  # the copies no worker is using
        for k in range(workers):
            copy = Path(tmp) / str(k)
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            copies.put(copy)
        # one run of every named test: it passes when each set of tests does
        done = pytest(tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)), copy)
        if done.returncode != 0:
            print(f"unmutated copy fails its tests ({tail(done)})")
            return 1

        def timed(mutant: Mutant) -> tuple[str, float]:
            copy = copies.get()
            try:
                start = time.perf_counter()
                return run(mutant, copy), time.perf_counter() - start
            finally:
                copies.put(copy)

        with ThreadPoolExecutor(workers) as pool:
            for mutant, (verdict, seconds) in zip(MUTANTS, pool.map(timed, MUTANTS)):
                failed += not verdict.startswith("killed")
                print(f"{mutant.id} ({seconds:.1f} s): {verdict}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
