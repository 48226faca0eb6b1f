"""Property test of the command line over all six subcommands at small,
bounded sizes: every run ends with exit code 0, 1 or 2, raises nothing,
lets no NumPy RuntimeWarning through, and writes only strict JSON."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from spikedtensor.cli import main

_SIZE = hst.integers(2, 200)

# one out-of-range value per field, for the runs that break one field
_INVALID = {
    "d": "1",
    "lambdas": "1e200",
    "gram": "mystery",
    "n": "0",
    "samples": "1",
    "outer": "1",
    "inner": "0",
    "trials": "1",
    "bins": "0",
    "t": "-0.1,1.5",
    "method": "bogus",
    "format": "xml",
    "epsilon": "-1",
    "seed": "-1",
    "threads": "0",
}


def _strict_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@hst.composite
def commands(draw):
    """A valid command line, or one with a single field out of range."""
    kind = draw(hst.sampled_from(["threshold", "cloud", "moment", "split", "xi-tail", "roc"]))
    lambdas = draw(hst.lists(hst.sampled_from(["0.05", "0.3", "0.7", "1.2", "3", "30"]), min_size=1, max_size=3))
    r = len(lambdas)
    flags = {
        "d": draw(hst.integers(2, 4)),
        "lambdas": ",".join(lambdas),
        "gram": draw(hst.sampled_from(["identity", "all-ones"] + (["two-eigenvalue:1.8,0.2"] if r == 2 else []))),
        "n": ",".join(str(v) for v in draw(hst.lists(hst.integers(max(r, 2), 4), min_size=1, max_size=2))),
        "samples": draw(_SIZE),
        "outer": draw(_SIZE),
        "inner": draw(_SIZE),
        "trials": draw(_SIZE),
        "bins": draw(hst.integers(1, 40)),
        "t": ",".join(draw(hst.lists(hst.sampled_from(["0", "0.3", "0.9", "1"]), min_size=1, max_size=3))),
        "method": draw(hst.sampled_from(["haar", "direct"])),
        "format": draw(hst.sampled_from(["csv", "json"])),
        "epsilon": draw(hst.sampled_from([None, "0.01", "1e9"])),
        "seed": draw(hst.integers(0, 3)),
        "threads": draw(hst.sampled_from([1, 2])),
    }
    if draw(hst.booleans()):
        broken = draw(hst.sampled_from(sorted(_INVALID)))
        flags[broken] = _INVALID[broken]
    # --flag=value: a value such as "-0.1,1.5" would otherwise parse as a flag
    return [kind] + [f"--{key}={value}" for key, value in flags.items() if value is not None]


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(commands())
def test_cli_exits_cleanly_on_any_small_command(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(Path(tmp) / "o")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        for path in Path(tmp).glob("*.json"):
            json.loads(path.read_text(), parse_constant=_strict_constant)
