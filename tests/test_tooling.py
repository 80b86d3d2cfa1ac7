"""The benchmark's tracing hooks, the example scripts and the mutation
gate still find the package names and code they use, and every public name
has a caller outside the tests."""

import ast
import importlib
import importlib.util
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # Resolves each wrapper target the way Tracer.prepare does, without patching.
    for module_name, attr, _ in _tracing_module().PROGRAM_WRAPPERS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_every_mutant_snippet_matches_once():
    # The gate itself (scripts/mutants.py) runs in CI; here each entry is
    # only checked to still aim at one place, with distinct ids.
    gate = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))
    mutants = gate["MUTANTS"]
    assert len({m.id for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.snippet != m.replacement and m.tests, m.id
        assert gate["occurrences"](m) == 1, m.id


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/three_ball_schemes.py"],
        ["scripts/operator_checks.py", "--dims", "2", "--samples", "100"],
        ["scripts/code_lines.py"],
    ],
    ids=["three_ball_schemes", "operator_checks", "code_lines"],
)
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_every_export_has_a_caller():
    # A name counts as called where it is loaded, as a Name or an Attribute,
    # in the package (apart from __init__.py), the scripts or the benchmark.
    import drfeas

    files = [p for p in (ROOT / "src" / "drfeas").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    uncalled = set(drfeas.__all__) - used
    assert not uncalled, sorted(uncalled)
