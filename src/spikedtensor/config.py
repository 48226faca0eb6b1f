"""Experiment configuration: key=value files, flag overrides, Gram presets."""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields, make_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError
from .rng import _U64
from .spike import GramSet

KINDS = ("threshold", "cloud", "moment", "split", "xi-tail", "roc")
# the kinds that run at one n: `moment` loops over a list, `threshold` reads none
_ONE_N_KINDS = ("cloud", "split", "xi-tail", "roc")
# The largest mode dimension, in every kind: 2^53 is the last n exact as a
# float, and every driver takes n into float arithmetic (2 n eta, the
# Gamma(n - r - i) shapes of `rate._haar_corner_sets`).  What a run at a
# given n costs is capped by `cli._LIMITS`, not here.
_N_MAX = 2**53

# The field parsers: (text, kind) -> value, the generic ones ignoring the
# kind.  A ValueError refuses the text; `resolve_config` puts the field's
# name in front of its message.


def _integer(text: str, kind: str = "") -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected integer, got {text!r}") from None


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _list(text: str, kind: str = "", parse_one=_float) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return tuple(parse_one(p) for p in parts)


def _gram_spec(text: str, kind: str) -> str:
    return text  # `gram_matrices` checks it, once r and d are known


def _order(text: str, kind: str) -> int:
    d = _integer(text)
    if d < 2:
        raise ValueError(f"order must be >= 2, got {d}")
    return d


def _rank(text: str, kind: str) -> int | None:
    return _integer(text) if text else None  # `resolve_config` matches it to the amplitudes


def _amplitudes(text: str, kind: str) -> tuple:
    # zero amplitudes are allowed as a degenerate test mode for the
    # Monte-Carlo drivers; negative ones never are
    lambdas = _list(text)
    if any(v < 0 for v in lambdas):
        raise ValueError("amplitudes must be non-negative")
    return lambdas


def _dimensions(text: str, kind: str) -> tuple:
    n = _list(text, parse_one=_integer)
    if any(v < 1 for v in n):
        raise ValueError(f"dimensions must be >= 1, got {n}")
    if any(v > _N_MAX for v in n):
        raise ValueError(f"dimensions must be <= 2^53, got {max(n)}")
    if len(n) > 1 and kind in _ONE_N_KINDS:
        raise ValueError(f"{kind} takes one dimension, got {len(n)}")
    return n


def _method(text: str, kind: str) -> str:
    if text not in ("haar", "direct"):
        raise ValueError(f"expected haar or direct, got {text!r}")
    return text


def _epsilon(text: str, kind: str) -> float | None:
    epsilon = _float(text) if text else None  # None: the estimator's default rule
    if epsilon is not None and epsilon <= 0:
        raise ValueError(f"must be positive, got {epsilon}")
    return epsilon


def _u64(text: str, kind: str) -> int:
    value = _integer(text)
    if not 0 <= value < _U64:
        raise ValueError(f"must be an unsigned 64-bit integer, got {text}")
    return value


def _out(text: str, kind: str) -> str:
    out = text or f"{kind.replace('-', '_')}_result"
    stem = Path(out)
    if not stem.name:
        raise ValueError(f"{out!r} names no file")
    if "\0" in out:  # a config file can carry one; no path can
        raise ValueError(f"{out!r} holds a NUL byte")
    if not stem.parent.is_dir():  # found before any sampling, not at the first write
        raise ValueError(f"{str(stem.parent)!r} is not a directory")
    return out


def _format(text: str, kind: str) -> str:
    fmt = text or ("json" if kind in ("threshold", "moment", "split") else "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"expected csv or json, got {fmt!r}")
    if kind == "cloud" and fmt == "json":
        raise ValueError("cloud writes csv only")
    return fmt


def _threads(text: str, kind: str) -> int:
    threads = _integer(text) if text else (os.cpu_count() or 1)
    if threads < 1:
        raise ValueError(f"must be >= 1, got {threads}")
    return threads


class Field(NamedTuple):
    default: str  # the text an unset field parses
    parse: Callable[[str, str], object]
    help: str  # the line `--help` prints for its flag


# Every experiment field, in `--help` order, which is the order
# `resolve_config` parses them in: the attributes of `ExperimentConfig`, the
# keys of a config file and the flags of the CLI.  Only r, epsilon, out,
# format and threads read an empty text as unset; every other parser refuses it.
FIELDS = {
    "d": Field("3", _order, "tensor order"),
    "r": Field("", _rank, "spike rank (defaults to the number of amplitudes)"),
    "lambdas": Field("1.0", _amplitudes, "comma-separated spike amplitudes"),
    "gram": Field("identity", _gram_spec, "gram preset (identity | all-ones | two-eigenvalue:a,b) or JSON matrix"),
    "n": Field("8", _dimensions, "mode dimension(s), comma-separated"),
    "samples": Field("20000", _integer, "Monte-Carlo sample count"),
    "outer": Field("500", _integer, "outer sample count (direct moment method)"),
    "inner": Field("500", _integer, "inner sample count (direct moment / likelihood ratio)"),
    "method": Field("haar", _method, "moment estimator: haar | direct"),
    "epsilon": Field("", _epsilon, "split level (default: estimator rule)"),
    "bins": Field("60", _integer, "envelope bin count"),
    "trials": Field("500", _integer, "ROC trials per hypothesis"),
    "t": Field("0.3,0.5,0.7", _list, "tail threshold(s), comma-separated"),
    "seed": Field("0", _u64, "master seed (u64)"),
    "stream": Field("0", _u64, "stream id (u64)"),
    "out": Field("", _out, "output path stem"),
    "format": Field("", _format, "output format: csv | json"),
    "threads": Field("", _threads, "worker threads (results do not depend on this)"),
}


class ExperimentConfig(make_dataclass("ExperimentConfig", ["kind", *FIELDS], frozen=True)):
    """A resolved experiment: its `kind`, then one attribute per `FIELDS`
    entry, the value that field's parser returned."""

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
                text = ",".join(map(str, value))
            elif value is None:
                text = ""
            else:
                text = str(value)
            items.append((f, text))
        return items

    def serialize(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.canonical_items()) + "\n"

    def one_line(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.canonical_items())


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in FIELDS and key != "kind":
            raise ParameterError(f"line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def resolve_config(kind: str, file_values: dict[str, str] | None = None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge defaults <- config file <- flags and parse field by field,
    building nothing d-sized: `cli.main` checks the Gram spec after its caps."""
    if kind not in KINDS:
        raise ParameterError(f"unknown experiment kind {kind!r}; expected one of {KINDS}")
    merged = {name: field.default for name, field in FIELDS.items()}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key == "kind":
                if value != kind:
                    raise ParameterError(f"field 'kind': config says {value!r} but the subcommand is {kind!r}")
                continue
            if key not in merged:
                raise ParameterError(f"unknown field {key!r}")
            if value is not None:
                merged[key] = str(value)
    values = {}
    for name, field in FIELDS.items():
        try:
            values[name] = field.parse(merged[name], kind)
        except ValueError as exc:
            raise ParameterError(f"field {name!r}: {exc}") from None
    amplitudes = len(values["lambdas"])
    if values["r"] is None:
        values["r"] = amplitudes
    if values["r"] != amplitudes:
        raise ParameterError(f"field 'r': got r={values['r']} but {amplitudes} amplitudes")
    return ExperimentConfig(kind=kind, **values)


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
            g = _literal_grams(text, r, d)
        else:
            raise ValueError(f"unknown preset {gram_spec!r}")
        return GramSet(tuple(g) if g.ndim == 3 else tuple(g.copy() for _ in range(d)))
    # TypeError: a JSON literal with an entry that is no number, such as null
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"field 'gram': {exc}") from None


def _two_eigenvalue_gram(text: str, r: int) -> np.ndarray:
    if r != 2:
        raise ValueError(f"two-eigenvalue preset requires r=2, got r={r}")
    body = text.removeprefix("two-eigenvalue:")
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected two-eigenvalue:a,b, got {text!r}")
    a, b = (_float(p) for p in parts)
    if abs(a + b - 2.0) > 1e-9:
        raise ValueError(f"eigenvalues must sum to 2 to keep a unit diagonal, got {a}+{b}")
    if b < 0 or a < 0:
        raise ValueError(f"eigenvalues must be non-negative, got {a}, {b}")
    off = (a - b) / 2.0
    return np.array([[1.0, off], [off, 1.0]])


def _literal_grams(text: str, r: int, d: int) -> np.ndarray:
    """One r x r matrix, for every mode, or a (d, r, r) stack of them."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON literal ({exc})") from None
    arr = np.asarray(data, dtype=complex)
    if arr.ndim == 2 and arr.shape != (r, r):
        raise ValueError(f"matrix must be {r}x{r}, got {arr.shape}")
    if arr.ndim == 3 and arr.shape != (d, r, r):
        raise ValueError(f"need {d} matrices of shape {r}x{r}, got {arr.shape}")
    if arr.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a list of matrices, got ndim={arr.ndim}")
    return arr
