"""Runs workload ops through `spikedtensor.cli.main` in-process.

Kept free of numpy and scipy imports so that the set-up child measures the
program's own import cost and nothing of the benchmark's.
"""

from __future__ import annotations

import io
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_cli():
    """Import the CLI from this checkout's `src/`, or exit with code 1."""
    if not (SRC / "spikedtensor" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no spikedtensor sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from spikedtensor import cli

    return cli


def run_ops(cli, ops, threads: int, outdir: Path) -> list[tuple[float, int]]:
    """Run each op once at `threads` with `outdir` as working directory, so
    the `--out` stem is the same in every directory.  Returns (wall seconds,
    exit code) per op; an exception inside the CLI counts as exit code -1."""
    outdir.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(outdir)
    results = []
    try:
        for op in ops:
            argv = [*op.argv, "--threads", str(threads)]
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the run goes on; the op counts as failed
                code = -1
                print(f"perfbench: {op.name} raised\n{traceback.format_exc()}", file=sys.stderr)
            results.append((time.perf_counter() - start, code))
    finally:
        os.chdir(previous)
    return results
