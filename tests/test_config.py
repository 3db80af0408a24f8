"""Parsing and validation of the flat key = value experiment config."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spavg.config import ConfigError, ExperimentConfig, load_config, parse_config_text

FLOAT_KEYS = [
    f.name
    for f in dataclasses.fields(ExperimentConfig)
    if f.type in ("float", "tuple[float, ...]")
]
NUMERIC_KEYS = [
    f.name for f in dataclasses.fields(ExperimentConfig) if f.type in ("int", "float")
]


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
    with pytest.raises(ConfigError, match="fbar_replicas must be at least 2"):
        ExperimentConfig(fbar_replicas=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(condition_samples=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(dt_fast_target=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(master_seed=-1)


@pytest.mark.parametrize("diag_epsilon", [0.0, -0.5])
def test_nonpositive_diag_epsilon_is_rejected_at_load(diag_epsilon):
    # Caught before diagnose runs the epsilon grid, like epsilon_grid itself.
    with pytest.raises(ConfigError, match="diag_epsilon must be positive"):
        parse_config_text(f"diag_epsilon = {diag_epsilon}\n")


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


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(FLOAT_KEYS),
    value=st.sampled_from(["nan", "inf", "-inf", "NaN", "+Infinity", "1e400"]),
    position=st.integers(0, 2),
)
def test_non_finite_float_values_are_config_errors(key, value, position):
    # Every float key and every epsilon_grid entry must be finite; a
    # non-finite one is refused before any run, whatever its position.
    if key == "epsilon_grid":
        grid = ["0.2", "0.1", "0.05"]
        grid[position] = value
        value = ", ".join(grid)
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config_text(f"{key} = {value}\n")


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_any_text_parses_or_raises_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


@settings(max_examples=100, deadline=None)
@given(
    line=st.one_of(
        st.text(alphabet=st.characters(blacklist_characters="=#\n\r"), max_size=30).filter(
            str.strip
        ),
        st.builds("{} = 1".format, st.from_regex(r"[a-z_]{1,12}", fullmatch=True)).filter(
            lambda line: line[:-4] not in {f.name for f in dataclasses.fields(ExperimentConfig)}
        ),
        st.builds(
            "{} = {}".format,
            st.sampled_from(NUMERIC_KEYS),
            st.from_regex(r"[a-z][a-z ]{0,10}", fullmatch=True),
        ),
    )
)
def test_malformed_lines_raise_config_error(line):
    # No '=' at all, an unknown key, or a word where a number belongs.
    with pytest.raises(ConfigError):
        parse_config_text(line + "\n")
