"""Span tracing of the `spikedtensor` modules, installed from outside.

The tracer replaces every function a traced module defines (module-level
functions and the methods of its classes) with a wrapper that records a
span: name, module, start, end and the index of the enclosing span.  The
replacement is made in every namespace of the package that binds the
function, and in the module-level dicts that hold it (the CLI's runner
table), so calls between modules go through the wrappers too.  Nothing in
the package changes on disk, and `uninstall` restores every binding.

Self time is a span's duration minus the durations of its child spans, so
the self times of all spans add up to the durations of the root spans,
which are the `cli.main` calls.

Per-element helpers stay unwrapped: a span around each of them would cost
more than their work.  Their time counts toward their callers.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict
from math import prod
from pathlib import Path

PACKAGE = "spikedtensor"
MODULES = ("rng", "spike", "rate", "moment", "thresholds", "config", "cli")
UNWRAPPED = {"rate.grf_lower_bound", "cli._fmt"}

# Self-time spans of the observation-side code: the two per-draw loops
# (chunk functions passed to rng.map_streams) and the helpers they call.
OBSERVE_SPANS = (
    "moment.simulate_observation",
    "moment.log_lr_mc",
    "moment._rotated_spike_stack",
    "moment.second_moment_direct_mc.<locals>.worker",
    "moment.roc_experiment.<locals>.worker",
)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans (full mode) or only per-chunk durations (chunk mode).

    Full mode is meant for `--threads 1`: spans nest on one stack per
    thread.  Chunk mode wraps only the per-chunk functions passed to
    `rng.map_streams` and is safe at any thread count.
    """

    def __init__(self, full: bool = True):
        self.full = full
        self.spans: list = []  # (name, module, start, end, parent index)
        self.counters: dict[str, float] = defaultdict(float)
        self.chunk_times: list[float] = []
        self._local = threading.local()
        self._restore: list = []

    # ------------------------------------------------------------ wrappers

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, fn, name: str, module: str):
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, module, start, end, parent)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def _chunk_span(self, fn):
        module = fn.__module__.rsplit(".", 1)[-1]
        return self._span(fn, f"{module}.{fn.__qualname__}", module)

    def _chunk_timer(self, fn):
        times, clock = self.chunk_times, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(clock() - start)

        return timed

    def _wrap(self, fn, name: str, module: str):
        """The replacement for one function: a span, plus the probes that
        read work counts from the call arguments."""
        counters = self.counters
        if name == "rng.map_streams":
            wrap_chunk = self._chunk_span if self.full else self._chunk_timer

            def map_streams(*args, **kwargs):
                if "fn" in kwargs:
                    kwargs["fn"] = wrap_chunk(kwargs["fn"])
                else:
                    args = (wrap_chunk(args[0]),) + args[1:]
                return fn(*args, **kwargs)

            return self._span(map_streams, name, module) if self.full else map_streams
        traced = self._span(fn, name, module)
        if name == "rng.sample_haar_unitaries":
            def haar(*args, **kwargs):
                counters["rng.haar_matrices"] += _arg(args, kwargs, 1, "count")
                return traced(*args, **kwargs)
            return haar
        if name == "rng.complex_normal":
            def gaussian(*args, **kwargs):
                shape = _arg(args, kwargs, 1, "shape")
                cells = prod(shape) if isinstance(shape, tuple) else int(shape)
                counters["rng.gaussian_mb"] += 2 * 8 * cells / 1e6  # two float64 normals per cell
                return traced(*args, **kwargs)
            return gaussian
        if name in ("cli._write_csv", "cli._write_json"):
            def write(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                finally:
                    path = Path(_arg(args, kwargs, 0, "path"))
                    counters["cli.bytes_written"] += path.stat().st_size if path.is_file() else 0
            return write
        return traced

    # ------------------------------------------------------------ install

    def _targets(self):
        """(owner, attribute, original, span name, module) for every function
        the traced modules define."""
        for module in MODULES:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    yield mod, attr, value, f"{module}.{attr}", module
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        if cattr.startswith("__") and cattr != "__post_init__":
                            continue
                        if inspect.isfunction(cvalue) or isinstance(cvalue, (classmethod, staticmethod)):
                            yield value, cattr, cvalue, f"{module}.{value.__name__}.{cattr}", module

    def install(self) -> "Tracer":
        replaced = {}
        for owner, attr, original, name, module in self._targets():
            if name in UNWRAPPED or (not self.full and name != "rng.map_streams"):
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(self._wrap(original.__func__, name, module))
            else:
                wrapper = self._wrap(original, name, module)
            replaced[id(original)] = wrapper
            if inspect.isclass(owner):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        package_modules = [m for key, m in list(sys.modules.items())
                           if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            self._restore.append((value, key, item))
                            value[key] = replaced[id(item)]
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ metrics

    def durations(self) -> tuple[dict[str, float], dict[str, float], dict[str, float], dict[str, int]]:
        """Totals by span name (duration, self time) and by module (self
        time, call count)."""
        child = [0.0] * len(self.spans)
        for name, module, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        dur, self_by_name = defaultdict(float), defaultdict(float)
        self_by_module, calls = defaultdict(float), defaultdict(int)
        for i, (name, module, start, end, parent) in enumerate(self.spans):
            own = end - start - child[i]
            dur[name] += end - start
            self_by_name[name] += own
            self_by_module[module] += own
            calls[module] += 1
        return dur, self_by_name, self_by_module, calls

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round of CLI calls."""
        dur, own, self_by_module, calls = self.durations()
        m = {}
        for module in MODULES:
            m[f"{module}.self_s"] = self_by_module[module] / rounds
            m[f"{module}.calls"] = calls[module] / rounds
        m["rng.haar_s"] = dur["rng.sample_haar_unitaries"] / rounds
        m["rng.haar_matrices"] = self.counters["rng.haar_matrices"] / rounds
        m["rng.gaussian_mb"] = self.counters["rng.gaussian_mb"] / rounds
        m["rate.psi_sample_s"] = dur["rate._sample_psi_stack"] / rounds
        m["rate.hadamard_s"] = dur["rate._eta_hadamard_stack"] / rounds
        m["rate.block_rate_s"] = dur["rate._rate_stack"] / rounds
        m["rate.envelope_s"] = own["rate.sample_grf_cloud"] / rounds
        m["rate.bound_check_s"] = dur["rate.cloud_bound_violations"] / rounds
        m["moment.overlap_s"] = own["moment._eta_chunk"] / rounds
        m["moment.lse_s"] = (dur["moment._mean_from_exponents"] + own["moment.e1_e2_split"]) / rounds
        m["moment.observe_s"] = sum(own[name] for name in OBSERVE_SPANS) / rounds
        m["moment.xi_s"] = dur["moment.xi_empirical_tail"] / rounds
        m["cli.write_s"] = (dur["cli._write_csv"] + dur["cli._write_json"]) / rounds
        m["cli.bytes_written"] = self.counters["cli.bytes_written"] / rounds
        return m
