"""Scenario-file parsing: strict keys, type errors, and seed policy."""
import math

import pytest

from entscope import config as cfg
from entscope.errors import ConfigError
from entscope.fock import DetectorModel
from entscope.repeater import ChainPolicy, LinkModel
from entscope.schemes import SchemeConfig


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
    assert cfg.run_options(parser, 7, "b") == (7, "b", "analytic", 5)


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


def test_field_keys_reach_their_dataclasses(tmp_path):
    parser = parse(tmp_path, "[scheme]\nkind = entangled\ndeltas = 0.0, 1.0\np_a = 0.5\n"
                             "p_e = 0.25\ndouble_pair_prob = 0.01\ncoherence_time = 1e-12\n"
                             "jitter_sigma = 2e-12\narrival_offset = 3e-12\n"
                             "[detector]\nefficiency = 0.5\ndark_prob_per_window = 0.01\n"
                             "photon_number_resolving = yes\n"
                             "[repeater]\nsegments = 2\nlength_km = 3\n"
                             "attenuation_db_per_km = 0.3\nextra_transmission = 0.5\n"
                             "satellite = on\nphase_noise_sigma = 0.1\n"
                             "distill_rounds = 1, 2\ndouble_excitation_weight = 0.05\n")
    detector = DetectorModel(0.5, 0.01, True)
    assert cfg.build_detector(parser) == detector
    assert cfg.build_scheme(parser) == SchemeConfig(
        "entangled", (0.0, 1.0), 0.5, 0.25, detector=detector, double_pair_prob=0.01,
        coherence_time=1e-12, jitter_sigma=2e-12, arrival_offset=3e-12)
    _, links, policy, *_ = cfg.build_chain(parser)
    assert links == [LinkModel(3.0, 0.3, 0.5 * 0.01, 0.1)] * 2
    assert policy == ChainPolicy((1, 2), True, 0.05)
    assert type(links[0].length_km) is float and type(policy.distill_rounds[0]) is int
    # Absent keys take the dataclass defaults.
    empty = parse(tmp_path, "[scheme]\nkind = direct\n[repeater]\nsegments = 1\n")
    assert cfg.build_scheme(empty) == SchemeConfig("direct")
    assert cfg.build_chain(empty)[1:3] == ([LinkModel()], ChainPolicy())


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        cfg.load_config(tmp_path / "absent.ini")


# Every accepted key, as the unknown-field message lists it.  [detector],
# [scheme], [repeater] and [sensitivity] keys come from dataclass fields, so a
# field added there must show up here before it becomes a config knob.
KNOWN_KEYS = {
    "run": "mode, n_slots, out_dir, seed",
    "scheme": "arrival_offset, bell_complete, coherence_time, deltas, double_pair_prob, "
              "jitter_sigma, kind, n_telescopes, p_a, p_e, w_phases",
    "detector": "dark_prob_per_window, efficiency, photon_number_resolving",
    "source": "kind, pgm, pixel_scale, points, ratio, separation",
    "baseline": "positions, vector, wavelength",
    "repeater": "attenuation_db_per_km, bandwidth_nm, distill_rounds, "
                "double_excitation_weight, efficiency, extra_transmission, length_km, "
                "n_trials, phase_noise_sigma, satellite, schedule, segments",
    "sensitivity": "aperture_diameter, atmospheric_coherence_time, bandwidth_nm, budget, "
                   "dark_counts_per_s, efficiency, min_events, n_channels, rate, "
                   "timing_fwhm, wavelength, zero_point",
    "reconstruct": "grid, pixel_scale",
}


@pytest.mark.parametrize("section", sorted(KNOWN_KEYS))
def test_each_section_accepts_exactly_its_keys(tmp_path, section):
    with pytest.raises(ConfigError) as info:
        parse(tmp_path, f"[{section}]\nnot_a_key = 1\n")
    assert str(info.value).endswith(
        f": unknown field [{section}] not_a_key (known: {KNOWN_KEYS[section]})")
    keys = KNOWN_KEYS[section].split(", ")
    parse(tmp_path, f"[{section}]\n" + "".join(f"{key} = 1\n" for key in keys))
