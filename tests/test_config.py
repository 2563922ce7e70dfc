"""Scenario-file parsing: strict keys, type errors, and seed policy."""
import math

import pytest

from entscope import config as cfg
from entscope.errors import ConfigError


def parse(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return cfg.load_config(path)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[telescope\]"):
        parse(tmp_path, "[telescope]\nkind = point\n")


def test_unknown_field_rejected_with_suggestions(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown field \[scheme\] knid"):
        parse(tmp_path, "[scheme]\nknid = entangled\n")


def test_unparseable_value_names_the_field(tmp_path):
    parser = parse(tmp_path, "[run]\nseed = soon\n")
    with pytest.raises(ConfigError, match=r"\[run\] seed: cannot parse"):
        cfg.run_options(parser)


def test_seed_must_be_explicit(tmp_path):
    parser = parse(tmp_path, "[run]\nout_dir = out\n")
    with pytest.raises(ConfigError, match="never clock-seeded"):
        cfg.run_options(parser)
    assert cfg.run_options(parser, 99) == (99, "out", "monte-carlo", 100_000)
    assert cfg.run_options(parse(tmp_path, "[scheme]\nkind = direct\n"), 99) == \
        (99, "out", "monte-carlo", 100_000)


def test_overrides_beat_config_values(tmp_path):
    parser = parse(tmp_path, "[run]\nseed = 1\nout_dir = a\n"
                             "mode = analytic\nn_slots = 5\n")
    assert cfg.run_options(parser) == (1, "a", "analytic", 5)
    assert cfg.run_options(parser, 7, "b", "monte-carlo") == \
        (7, "b", "monte-carlo", 5)


def test_threads_key_is_unknown(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown field \[run\] threads"):
        parse(tmp_path, "[run]\nseed = 1\nthreads = 2\n")


@pytest.mark.parametrize("n_trials", ["0", "-5"])
def test_repeater_n_trials_must_be_positive(tmp_path, n_trials):
    parser = parse(tmp_path, f"[repeater]\nsegments = 2\nn_trials = {n_trials}\n")
    with pytest.raises(ConfigError, match=r"\[repeater\] n_trials: must be >= 1"):
        cfg.build_chain(parser)


def test_mode_validated(tmp_path):
    parser = parse(tmp_path, "[run]\nseed = 1\nmode = exact\n")
    with pytest.raises(ConfigError, match=r"\[run\] mode"):
        cfg.run_options(parser)


def test_delta_schedule_count_or_list(tmp_path):
    parser = parse(tmp_path, "[scheme]\nkind = entangled\ndeltas = 4\n")
    scheme = cfg.build_scheme(parser)
    assert scheme.delta_schedule == tuple(
        2.0 * math.pi * k / 4 for k in range(4))
    parser = parse(tmp_path, "[scheme]\nkind = entangled\n"
                             "deltas = 0.0, 1.5708\n")
    assert cfg.build_scheme(parser).delta_schedule == (0.0, 1.5708)


def test_w_state_phases_default_to_zero(tmp_path):
    parser = parse(tmp_path, "[scheme]\nkind = w_state\nn_telescopes = 5\n")
    scheme = cfg.build_scheme(parser)
    assert scheme.w_phases == (0.0,) * 5


def test_budget_overrides_on_named_preset(tmp_path):
    parser = parse(tmp_path, "[sensitivity]\nbudget = improved\n"
                             "aperture_diameter = 2.0\n")
    budget = cfg.build_budget(parser)
    assert budget.n_channels == 100
    assert budget.aperture_diameter == 2.0
    with pytest.raises(ConfigError, match="unknown preset"):
        cfg.budget_preset("nope")


def test_budget_override_validation_is_attributed(tmp_path):
    parser = parse(tmp_path, "[sensitivity]\nrate = 1.5\n")
    with pytest.raises(ConfigError, match=r"\[sensitivity\] rate"):
        cfg.build_budget(parser)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        cfg.load_config(tmp_path / "absent.ini")
