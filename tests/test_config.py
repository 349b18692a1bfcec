import numpy as np
import pytest

from steerdist.config import ConfigError, load_config, parse_grid


def test_defaults_validate():
    config = load_config(env={})
    assert config.squeeze_db == -4.2
    assert config.mode == "analytic"
    assert config.cutoff_source == "table"


def test_parse_grid_forms():
    assert np.allclose(parse_grid("0:1:0.25"), [0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(parse_grid("1.0:1.25:0.05"), [1.0, 1.05, 1.1, 1.15, 1.2, 1.25])
    assert np.allclose(parse_grid("0.1, 0.3, 0.9"), [0.1, 0.3, 0.9])
    with pytest.raises(ConfigError):
        parse_grid("1:0:0.1")
    with pytest.raises(ConfigError):
        parse_grid("a:b:c")


@pytest.mark.parametrize("text", ["nan,1.1", "1.0, inf", "0:nan:0.1", "0:inf:0.1", "-inf:0:1"])
def test_parse_grid_refuses_non_finite_values(text):
    with pytest.raises(ConfigError, match="finite"):
        parse_grid(text)


@pytest.mark.parametrize("name", ["gain", "cutoff", "excess_noise", "squeeze_db",
                                  "antisqueeze_db"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_refuses_non_finite_values(name, value):
    with pytest.raises(ConfigError, match="finite"):
        load_config(None, env={}, overrides={name: value})
    with pytest.raises(ConfigError, match="loss_grid must be finite"):
        load_config(None, env={}, overrides={"loss_grid": np.array([0.1, value])})


def test_file_parsing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[state]\n"
        "squeeze_db = -6.0\n"
        "antisqueeze_db = 6.0\n"
        "[run]\n"
        "seed = 42\n"
        "svg = yes\n"
        "[grids]\n"
        "loss_grid = 0:0.5:0.1\n"
    )
    config = load_config(str(path), env={})
    assert config.squeeze_db == -6.0
    assert config.seed == 42
    assert config.svg is True
    assert len(config.loss_grid) == 6


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    for text in ("[run]\nwarp_speed = 9\n", "[channel]\nloss = 0.1\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path), env={})


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("does_not_exist.ini", env={})


def test_env_overrides_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 1\n")
    config = load_config(str(path), env={"STEERDIST_RUN_SEED": "7",
                                         "STEERDIST_FILTER_GAIN": "1.15"})
    assert config.seed == 7
    assert config.gain == 1.15


def test_cli_overrides_env(tmp_path):
    config = load_config(None, env={"STEERDIST_RUN_SEED": "7"},
                         overrides={"seed": 11, "samples": None})
    assert config.seed == 11
    assert config.samples == 1_000_000  # None overrides are ignored


def test_mc_sample_floor():
    with pytest.raises(ConfigError, match="samples"):
        load_config(None, env={}, overrides={"mode": "monte_carlo", "samples": 500})
    load_config(None, env={}, overrides={"mode": "analytic", "samples": 500})


def test_mode_and_source_validation():
    with pytest.raises(ConfigError, match="mode"):
        load_config(None, env={}, overrides={"mode": "quantum"})
    with pytest.raises(ConfigError, match="cutoff_source"):
        load_config(None, env={}, overrides={"cutoff_source": "oracle"})


def test_bad_env_value_reports_variable():
    with pytest.raises(ConfigError, match="STEERDIST_RUN_SEED"):
        load_config(None, env={"STEERDIST_RUN_SEED": "not-a-number"})


@pytest.mark.parametrize("key, value", [("channel.noise_model", "foo"),
                                        ("state.squeeze_db", 0.5),
                                        ("state.antisqueeze_db", -0.5)])
def test_validate_refuses_bad_noise_model_and_db_sign(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        load_config(None, env={}, overrides={key.split(".")[1]: value})


@pytest.mark.parametrize("command", ["fig4", "fig3a"])
def test_cli_unknown_noise_model_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # fig4 never builds a channel, so only validation can refuse the key
    from steerdist.cli import main

    monkeypatch.setenv("STEERDIST_CHANNEL_NOISE_MODEL", "foo")
    out = tmp_path / "o"
    assert main([command, "--out", str(out)]) == 2
    assert "config error: channel.noise_model must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_config_checks_itself_on_construction():
    # a config that never passed the rules cannot exist: replace() and the
    # constructor refuse as load_config does
    from dataclasses import replace

    from steerdist.config import ExperimentConfig

    config = load_config(None, env={})
    with pytest.raises(ConfigError, match="^run.mode must be one of"):
        replace(config, mode="bogus")
    with pytest.raises(ConfigError, match="^run.threads must be >= 1, got 0"):
        ExperimentConfig(threads=0, mode="both", samples=20000)
