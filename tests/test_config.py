import numpy as np
import pytest

import spikedtensor as st
from spikedtensor.config import gram_matrices, parse_config_text, resolve_config
from spikedtensor.errors import ParameterError


def test_parse_key_value_lines():
    text = "d=3\nlambdas = 0.5, 0.2  # amplitudes\n\n# comment line\nseed=7\n"
    values = parse_config_text(text)
    assert values == {"d": "3", "lambdas": "0.5, 0.2", "seed": "7"}


def test_parse_reports_line_numbers():
    with pytest.raises(ParameterError, match="line 2"):
        parse_config_text("d=3\nnot a pair\n")
    with pytest.raises(ParameterError, match="line 1"):
        parse_config_text("mystery=1\n")


def test_serialize_round_trip_is_normalizing():
    text = "seed=5\nd=3\nlambdas=0.5,0.25\n"
    config = resolve_config("threshold", parse_config_text(text))
    normalized = config.serialize()
    again = resolve_config("threshold", parse_config_text(normalized))
    assert again.serialize() == normalized
    assert again == config


def test_flags_override_file_values():
    file_values = parse_config_text("seed=5\nlambdas=0.5\n")
    config = resolve_config("moment", file_values, {"seed": "9"})
    assert config.seed == 9
    assert config.lambdas == (0.5,)


def test_resolve_validates_fields():
    with pytest.raises(ParameterError, match="'d'"):
        resolve_config("threshold", {"d": "1"})
    with pytest.raises(ParameterError, match="'lambdas'"):
        resolve_config("threshold", {"lambdas": "0.5,-0.1"})
    with pytest.raises(ParameterError, match="'r'"):
        resolve_config("threshold", {"lambdas": "0.5,0.2", "r": "3"})
    with pytest.raises(ParameterError, match="'format'"):
        resolve_config("threshold", {"format": "xml"})
    with pytest.raises(ParameterError, match="kind"):
        resolve_config("nonsense")


def test_gram_presets():
    identity = gram_matrices("identity", 3, 2)
    assert all(np.array_equal(g, np.eye(3)) for g in identity.grams)

    ones = gram_matrices("all-ones", 2, 3)
    assert all(np.array_equal(g, np.ones((2, 2))) for g in ones.grams)

    two = gram_matrices("two-eigenvalue:1.8,0.2", 2, 3)
    for g in two.grams:
        assert np.allclose(np.linalg.eigvalsh(g), [0.2, 1.8])
        assert np.allclose(np.diagonal(g), 1.0)


def test_gram_literal_json():
    single = gram_matrices("[[1.0, 0.5], [0.5, 1.0]]", 2, 3)
    assert len(single.grams) == 3
    per_mode = gram_matrices("[[[1.0,0.0],[0.0,1.0]],[[1.0,0.5],[0.5,1.0]]]", 2, 2)
    assert not np.array_equal(per_mode.grams[0], per_mode.grams[1])


def test_gram_errors():
    with pytest.raises(ParameterError, match="gram"):
        gram_matrices("mystery", 2, 3)
    with pytest.raises(ParameterError, match="sum to 2"):
        gram_matrices("two-eigenvalue:1.5,0.2", 2, 3)
    with pytest.raises(ParameterError, match="r=2"):
        gram_matrices("two-eigenvalue:1.8,0.2", 3, 3)
    with pytest.raises(ParameterError, match="JSON"):
        gram_matrices("[[1.0, 0.5]", 2, 3)
    with pytest.raises(ParameterError, match="2x2"):
        gram_matrices("[[1.0]]", 2, 3)
    with pytest.raises(ParameterError):
        gram_matrices("[[1.0, 1.5], [1.5, 1.0]]", 2, 3)  # not PSD


@pytest.mark.parametrize("literal", ['[[{"a": 1}]]', "[[null]]"])
def test_gram_literal_of_non_numbers_is_a_config_error(literal):
    with pytest.raises(ParameterError, match="field 'gram'"):
        gram_matrices(literal, 1, 3)


def test_two_eigenvalue_preset_matches_eta_max():
    grams = gram_matrices("two-eigenvalue:1.8,0.2", 2, 3)
    emax = st.eta_max([1.0, 1.0], grams)
    assert emax == pytest.approx(2 + 2 * 0.8**3, rel=1e-12)
