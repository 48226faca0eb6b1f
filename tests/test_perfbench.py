"""The names of the package that the benchmark in `perfbench/` reaches.

`perfbench/child.py setup` resolves every workload's configs through
`cli.resolve_config` and builds its spikes through `cli._spec_for`; the
tracer wraps the functions of the modules in `tracing.MODULES`; the
self-test patches the functions named in `selftest.INJECTED`.  Renaming any
of them breaks the benchmark while every other test still passes.  These
tests only read `perfbench/`: its names are taken from the source text, and
the set-up child, the tracer and the self-test run without writing
bytecode.
"""

import ast
import importlib
import importlib.util
import json
import math
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


# One small command per workload, the kinds of the benchmark's rounds.
TRACED_OPS = {
    "cloud": ["cloud", "--d", "3", "--lambdas", "1.0,1.0", "--gram", "identity", "--n", "4",
              "--samples", "300", "--bins", "10"],
    "moment": ["moment", "--d", "3", "--lambdas", "0.3", "--n", "4", "--samples", "200"],
    "observe": ["roc", "--d", "3", "--lambdas", "0.4", "--n", "3", "--trials", "8", "--inner", "10"],
    "tails": ["xi-tail", "--n", "4", "--t", "0.3,0.5", "--samples", "1000"],
}


def test_traced_round_gives_declared_finite_metrics(tmp_path, monkeypatch, capsys):
    # the benchmark's per-layer pass: a full tracer over one round at one
    # thread, which must still run and read only declared, finite metrics
    import spikedtensor.cli as cli

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tuple(TRACED_OPS) == WORKLOADS
    tracer = tracing.Tracer(full=True).install()
    try:
        for workload, argv in TRACED_OPS.items():
            out = str(tmp_path / workload)
            assert cli.main([*argv, "--seed", "1", "--threads", "1", "--out", out]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    metrics = tracer.layer_metrics(1)
    assert metrics and set(metrics) <= {m["name"] for m in declared}
    assert all(math.isfinite(value) for value in metrics.values())


def test_selftest_passes():
    # the benchmark's own self-test: every workload's outputs pass its
    # checks, doctored outputs and injected faults are caught, and the
    # printed metrics are the declared ones; it writes only under the
    # gitignored perfbench/_out/ and perfbench/_trace/
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=BENCH.parent, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
