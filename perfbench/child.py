"""Fresh-process measurements of one workload.

    python3 perfbench/child.py setup WORKLOAD SEED
        Import `spikedtensor.cli`, resolve the workload's configs and build
        its spikes, then exit; the parent times the whole process.
    python3 perfbench/child.py rss WORKLOAD SEED THREADS OUTDIR
        Run one round of the workload at THREADS and print the peak RSS of
        this process in MB (10^6 bytes).

The peak RSS is VmHWM from /proc/self/status, the high-water mark of this
process image.  `ru_maxrss` would not do: Linux carries it across execve,
so a child started from the benchmark's own process would report at least
that process's RSS.
"""

from __future__ import annotations

import sys
from pathlib import Path

import harness
from workloads import build_ops


def setup(workload: str, seed: int) -> None:
    """Resolve every op's config as `cli.main` does and build its spikes
    through the CLI's own `_spec_for`, at each n the op asks for."""
    cli = harness.import_cli()
    for op in build_ops(workload, seed):
        kind = op.argv[0]
        config = cli.resolve_config(kind, {}, op.flags())
        if kind == "xi-tail":
            continue
        for n in (config.r,) if kind == "threshold" else config.n:
            cli._spec_for(config, n)


def peak_rss(workload: str, seed: int, threads: int, outdir: Path) -> None:
    cli = harness.import_cli()
    harness.run_ops(cli, build_ops(workload, seed), threads, outdir)
    status = Path("/proc/self/status").read_text(encoding="ascii")
    kib = next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:"))
    print(kib * 1024 / 1e6)


if __name__ == "__main__":
    mode, workload, seed, *rest = sys.argv[1:]
    if mode == "setup":
        setup(workload, int(seed))
    else:
        peak_rss(workload, int(seed), int(rest[0]), Path(rest[1]))
