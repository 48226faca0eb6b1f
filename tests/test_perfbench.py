"""The names of the package that the benchmark in `perfbench/` reaches.

`perfbench/child.py setup` resolves every workload's configs through
`cli.resolve_config` and builds its spikes through `cli._spec_for`; the
tracer wraps the functions of the modules in `tracing.MODULES`; the
self-test patches the functions named in `selftest.INJECTED`.  Renaming any
of them breaks the benchmark while every other test still passes.  These
tests only read `perfbench/`: its names are taken from the source text, and
the set-up child runs without writing bytecode.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(filename: str, name: str) -> ast.expr:
    """The value assigned to the module-level `name` of a perfbench file."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.value
    raise AssertionError(f"perfbench/{filename} assigns no {name}")


WORKLOADS = ast.literal_eval(_assigned("workloads.py", "WORKLOADS"))


def test_workloads_are_the_declared_ones():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert WORKLOADS == tuple(w["name"] for w in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_child_runs(tmp_path, workload):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "setup", workload, "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_traced_modules_import():
    modules = ast.literal_eval(_assigned("tracing.py", "MODULES"))
    assert modules
    for module in modules:
        importlib.import_module(f"spikedtensor.{module}")


def test_selftest_injection_targets_exist():
    injected = _assigned("selftest.py", "INJECTED")
    targets = [(value.elts[0].value, value.elts[1].value) for value in injected.values]
    assert targets == [("rate", "_rate_stack"), ("moment", "_mean_from_exponents")]
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"spikedtensor.{module}"), name))
