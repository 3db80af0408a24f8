"""Parsing and validation of the flat key = value experiment config."""

import pytest

from spavg.config import ConfigError, ExperimentConfig, load_config, parse_config_text


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.slow_kind == "burgers"
    assert cfg.fast_kind == "linear"
    assert cfg.epsilon_grid == (0.1, 0.05, 0.02, 0.01)
    assert cfg.dt_macro == 1.0 / 512.0
    assert cfg.T == 1.0
    assert cfg.replicas == 100
    assert cfg.master_seed == 2026


def test_parse_round_trip_with_comments():
    text = """
    # reference run, smaller grid
    slow_kind = porous_medium
    p = 3.0
    n_interior = 16   # inline comment
    epsilon_grid = 0.2, 0.1, 0.05
    replicas = 12

    master_seed = 7
    """
    cfg = parse_config_text(text)
    assert cfg.slow_kind == "porous_medium"
    assert cfg.n_interior == 16
    assert cfg.epsilon_grid == (0.2, 0.1, 0.05)
    assert cfg.replicas == 12
    assert cfg.master_seed == 7
    # untouched keys keep their defaults
    assert cfg.fast_kind == "linear"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config_text("\nwibble = 3\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config_text("T = 1.0\n# fine\nT = 2.0\n")
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="bad value for replicas"):
        parse_config_text("replicas = soon\n")


def test_validation_rejects_bad_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig(slow_kind="heat")
    with pytest.raises(ConfigError):
        ExperimentConfig(fast_kind="rough")
    with pytest.raises(ConfigError):
        ExperimentConfig(fbar_source="guess")
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon_grid=(0.1, -0.05))
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon_grid=(0.05, 0.1))
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon_grid=(0.1, 0.1, 0.05))
    with pytest.raises(ConfigError):
        ExperimentConfig(T=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(replicas=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(condition_samples=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(dt_fast_target=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(master_seed=-1)


def test_horizon_must_be_whole_macro_steps():
    # The rule is integrators.whole_steps, applied before any run starts.
    with pytest.raises(ConfigError, match="horizon T = 0.3 is not a positive multiple of dt_macro"):
        ExperimentConfig(T=0.3)
    with pytest.raises(ConfigError, match="horizon T"):
        parse_config_text("T = 0.5\ndt_macro = 0.3\n")
    assert ExperimentConfig(T=0.3, dt_macro=0.1).T == 0.3


@pytest.mark.parametrize(
    "line", ["delta_rule = power", "delta_c = 1.0", "delta_a = 0.5", "delta_fixed = 0.125"]
)
def test_removed_block_length_keys_are_unknown(line):
    # The diagnostics fix their block lengths at T * 2^-k, so these keys
    # set nothing and are rejected like any other unknown key.
    with pytest.raises(ConfigError, match="line 1: unknown key"):
        parse_config_text(line + "\n")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_interior = 8\nT = 0.5\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.n_interior == 8
    assert cfg.T == 0.5
    assert load_config(None) == ExperimentConfig()
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "absent.cfg"))
