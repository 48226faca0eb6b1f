"""Experiment configuration: key=value files, flag overrides, Gram presets."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .rng import _U64
from .spike import GramSet

KINDS = ("threshold", "cloud", "moment", "split", "xi-tail", "roc")
# the kinds that run at one n: `moment` loops over a list, `threshold` reads none
_ONE_N_KINDS = ("cloud", "split", "xi-tail", "roc")

_DEFAULTS = {
    "d": "3",
    "r": "",  # derived from lambdas when empty
    "lambdas": "1.0",
    "gram": "identity",
    "n": "8",
    "samples": "20000",
    "outer": "500",
    "inner": "500",
    "method": "haar",
    "epsilon": "",  # empty -> estimator default
    "bins": "60",
    "trials": "500",
    "t": "0.3,0.5,0.7",
    "seed": "0",
    "stream": "0",
    "out": "",
    "format": "",  # empty -> per-kind default
    "threads": "",  # empty -> core count
}

_DEFAULT_FORMAT = {
    "threshold": "json",
    "cloud": "csv",
    "moment": "json",
    "split": "json",
    "xi-tail": "csv",
    "roc": "csv",
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    d: int
    r: int
    lambdas: tuple
    gram: str
    n: tuple
    samples: int
    outer: int
    inner: int
    method: str
    epsilon: float | None
    bins: int
    trials: int
    t: tuple
    seed: int
    stream: int
    out: str
    format: str
    threads: int

    def canonical_items(self) -> list[tuple[str, str]]:
        """Sorted (key, value) pairs identifying the experiment.

        `threads` is excluded: it only schedules work and never changes the
        results, so files produced with different thread counts stay
        byte-identical.
        """
        items = []
        for f in sorted(fld.name for fld in fields(self)):
            if f == "threads":
                continue
            value = getattr(self, f)
            if isinstance(value, tuple):
                text = ",".join(_fmt_scalar(v) for v in value)
            elif value is None:
                text = ""
            else:
                text = _fmt_scalar(value)
            items.append((f, text))
        return items

    def serialize(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.canonical_items()) + "\n"

    def one_line(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.canonical_items())


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _DEFAULTS and key != "kind":
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _parse_int(field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"field {field!r}: expected integer, got {text!r}") from None


def _parse_float(field: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"field {field!r}: expected number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"field {field!r}: expected a finite number, got {text!r}")
    return value


def _parse_seq(field: str, text: str, parse_one) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"field {field!r}: expected a comma-separated list, got {text!r}")
    return tuple(parse_one(field, p) for p in parts)


def resolve_config(kind: str, file_values: dict[str, str] | None = None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge defaults <- config file <- flags and validate field by field,
    building nothing d-sized: `cli.main` checks the Gram spec after its caps."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {KINDS}")
    merged = dict(_DEFAULTS)
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key == "kind":
                if value != kind:
                    raise ConfigError(f"field 'kind': config says {value!r} but the subcommand is {kind!r}")
                continue
            if key not in merged:
                raise ConfigError(f"unknown field {key!r}")
            if value is not None:
                merged[key] = str(value)

    # zero amplitudes are allowed as a degenerate test mode for the
    # Monte-Carlo drivers; negative ones never are
    lambdas = _parse_seq("lambdas", merged["lambdas"], _parse_float)
    if any(v < 0 for v in lambdas):
        raise ConfigError("field 'lambdas': amplitudes must be non-negative")
    r = _parse_int("r", merged["r"]) if merged["r"] else len(lambdas)
    if r != len(lambdas):
        raise ConfigError(f"field 'r': got r={r} but {len(lambdas)} amplitudes")
    d = _parse_int("d", merged["d"])
    if d < 2:
        raise ConfigError(f"field 'd': order must be >= 2, got {d}")
    n = _parse_seq("n", merged["n"], _parse_int)
    if any(v < 1 for v in n):
        raise ConfigError(f"field 'n': dimensions must be >= 1, got {n}")
    if len(n) > 1 and kind in _ONE_N_KINDS:
        raise ConfigError(f"field 'n': {kind} takes one dimension, got {len(n)}")
    fmt = merged["format"] or _DEFAULT_FORMAT[kind]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"field 'format': expected csv or json, got {fmt!r}")
    if kind == "cloud" and fmt == "json":
        raise ConfigError("field 'format': cloud writes csv only")
    method = merged["method"]
    if method not in ("haar", "direct"):
        raise ConfigError(f"field 'method': expected haar or direct, got {method!r}")
    epsilon = _parse_float("epsilon", merged["epsilon"]) if merged["epsilon"] else None
    if epsilon is not None and epsilon <= 0:
        raise ConfigError(f"field 'epsilon': must be positive, got {epsilon}")
    threads = _parse_int("threads", merged["threads"]) if merged["threads"] else (os.cpu_count() or 1)
    if threads < 1:
        raise ConfigError(f"field 'threads': must be >= 1, got {threads}")
    for f in ("seed", "stream"):
        if not 0 <= _parse_int(f, merged[f]) < _U64:
            raise ConfigError(f"field {f!r}: must be an unsigned 64-bit integer, got {merged[f]}")
    out = merged["out"] or f"{kind.replace('-', '_')}_result"
    stem = Path(out)
    if not stem.name:
        raise ConfigError(f"field 'out': {out!r} names no file")
    if not stem.parent.is_dir():  # found before any sampling, not at the first write
        raise ConfigError(f"field 'out': {str(stem.parent)!r} is not a directory")

    return ExperimentConfig(
        kind=kind,
        d=d,
        r=r,
        lambdas=lambdas,
        gram=merged["gram"],
        n=n,
        samples=_parse_int("samples", merged["samples"]),
        outer=_parse_int("outer", merged["outer"]),
        inner=_parse_int("inner", merged["inner"]),
        method=method,
        epsilon=epsilon,
        bins=_parse_int("bins", merged["bins"]),
        trials=_parse_int("trials", merged["trials"]),
        t=_parse_seq("t", merged["t"], _parse_float),
        seed=_parse_int("seed", merged["seed"]),
        stream=_parse_int("stream", merged["stream"]),
        out=out,
        format=fmt,
        threads=threads,
    )


def gram_matrices(gram_spec: str, r: int, d: int) -> GramSet:
    """Build the d Gram matrices from a preset name or a JSON literal.

    Presets: "identity", "all-ones", "two-eigenvalue:a,b" (r=2, a+b=2).
    A JSON literal may be one r x r matrix (used for every mode) or a list
    of d matrices.
    """
    text = gram_spec.strip()
    try:
        if text == "identity":
            g = np.eye(r)
        elif text == "all-ones":
            g = np.ones((r, r))
        elif text.startswith("two-eigenvalue:"):
            g = _two_eigenvalue_gram(text, r)
        elif text.startswith("["):
            return _literal_grams(text, r, d)
        else:
            raise ConfigError(f"field 'gram': unknown preset {gram_spec!r}")
        return GramSet(tuple(g.copy() for _ in range(d)))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"field 'gram': {exc}") from exc


def _two_eigenvalue_gram(text: str, r: int) -> np.ndarray:
    if r != 2:
        raise ConfigError(f"field 'gram': two-eigenvalue preset requires r=2, got r={r}")
    body = text.removeprefix("two-eigenvalue:")
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"field 'gram': expected two-eigenvalue:a,b, got {text!r}")
    a, b = (_parse_float("gram", p) for p in parts)
    if abs(a + b - 2.0) > 1e-9:
        raise ConfigError(f"field 'gram': eigenvalues must sum to 2 to keep a unit diagonal, got {a}+{b}")
    if b < 0 or a < 0:
        raise ConfigError(f"field 'gram': eigenvalues must be non-negative, got {a}, {b}")
    off = (a - b) / 2.0
    return np.array([[1.0, off], [off, 1.0]])


def _literal_grams(text: str, r: int, d: int) -> GramSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"field 'gram': invalid JSON literal ({exc})") from exc
    arr = np.asarray(data, dtype=complex)
    if arr.ndim == 2:
        if arr.shape != (r, r):
            raise ConfigError(f"field 'gram': matrix must be {r}x{r}, got {arr.shape}")
        return GramSet(tuple(arr.copy() for _ in range(d)))
    if arr.ndim == 3:
        if arr.shape != (d, r, r):
            raise ConfigError(f"field 'gram': need {d} matrices of shape {r}x{r}, got {arr.shape}")
        return GramSet(tuple(arr))
    raise ConfigError(f"field 'gram': expected a matrix or a list of matrices, got ndim={arr.ndim}")
