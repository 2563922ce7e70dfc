"""End-to-end command-line runs against the bundled presets."""
import configparser
import contextlib
import gc
import hashlib
import math
import os
import re
import resource
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entscope
from entscope import config as cfg
from entscope import eventlog, schemes
from entscope.cli import (
    BUDGET_CSV_SCHEMA,
    CHAIN_CSV_SCHEMA,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_LOW_STATISTICS,
    FIT_CSV_SCHEMA,
    IMAGE_PGM_SCHEMA,
    PAIR_CSV_SCHEMA,
    SUMMARY_CSV_SCHEMA,
    main,
)
from entscope.eventlog import EventLog, FringeCounter, fringe_counts, pair_counts
from entscope.sky import load_pgm, save_pgm

PRESETS = Path(entscope.__file__).parent / "presets"


def preset(name: str) -> str:
    return str(PRESETS / name)


def first_line(path: Path) -> str:
    return path.read_text().splitlines()[0]


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(["simulate", "--config", preset("entangled_demo.ini"),
                     "--n-slots", "2000", "--out-dir", str(d)])
        assert code == 0
    out = capsys.readouterr().out
    assert "simulated 2000 slots (entangled)" in out
    logs = [(d / "events.jsonl").read_bytes() for d in dirs]
    assert logs[0] == logs[1]
    assert first_line(dirs[0] / "summary.csv") == f"# {SUMMARY_CSV_SCHEMA}"


def test_simulate_demo_log_matches_recorded_sha256(tmp_path, capsys):
    # The bytes of the per-record json.dumps writer; criterion 9 only
    # compares two reruns of the current code with each other.
    assert main(["simulate", "--config", preset("entangled_demo.ini"),
                 "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "events.jsonl").read_bytes()).hexdigest()
    assert digest == "2b56bba6b9a4f22c8060911ca7c8f107917a9a15e6b6d46c75431833f1a1deeb"


# Small runs of the other circuit schemes: a lossy, noisy weak-coherent run
# with double-pair background, an intensity-correlation run and a direct run
# with empty slots, each pinned to the bytes of its two artifacts.
PINNED_SCHEMES = {
    "weak_coherent": (
        "kind = weak_coherent\ndeltas = 16\np_a = 0.1\np_e = 0.08\n"
        "double_pair_prob = 0.05\n",
        "c8b6cdea0a97fc6e469b0eb9a60f5c7a909404d90bcdee0eaf71aeb117560adf",
        "ad720d166154d8d9ca2f0647c67bc6b81c28ffe2a605762d2f4385459af57bd8"),
    "hbt": (
        "kind = hbt\ndeltas = 4\np_a = 0.15\n",
        "58717274a7494cd8f02c299c4be9d05f34387ca186fe71b69955725f1840c416",
        "ff60c8c7bb0a11be80d6a2fcacbd95af6e82f55669aa7dd2ae1edbbe8886c6a5"),
    "direct": (
        "kind = direct\ndeltas = 8\np_a = 0.6\n",
        "57914b5366707bda703881141a576711139b680acfe3658c3d57c38683f2df5c",
        "5a52ec35b8b4a2c84dfc4a25c049cee318073c67e508a723c66b6787a3146079"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_SCHEMES))
def test_simulate_scheme_artifacts_match_recorded_sha256(tmp_path, capsys, kind):
    scheme, events_sha, summary_sha = PINNED_SCHEMES[kind]
    config = tmp_path / f"{kind}.ini"
    config.write_text(
        "[run]\nseed = 11\nn_slots = 30000\nmode = monte-carlo\n"
        f"[scheme]\n{scheme}"
        "[detector]\nefficiency = 0.7\ndark_prob_per_window = 2e-3\n"
        "[source]\nkind = binary\nseparation = 2.5e-9\nratio = 0.8\n"
        "[baseline]\nvector = 100.0\nwavelength = 800e-9\n")
    assert main(["simulate", "--config", str(config),
                 "--out-dir", str(tmp_path / "run")]) == 0
    digests = [hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
               for name in ("events.jsonl", "summary.csv")]
    assert digests == [events_sha, summary_sha]


# Ideal-detector runs whose tables skip the Fock circuits: a lossless
# three-telescope array over three sampling chunks, and a complete Bell
# measurement.  Each is pinned to the bytes of its two artifacts.
PINNED_IDEAL_SCHEMES = {
    "w_state": (
        "[run]\nseed = 11\nn_slots = 150000\nmode = monte-carlo\n"
        "[scheme]\nkind = w_state\nn_telescopes = 3\nw_phases = 0.0 0.7 1.9\n"
        "[baseline]\npositions = 0.0 60.0 150.0\nwavelength = 800e-9\n",
        "847a516cb7c9d915b5b61e32c3eb55d94809063b42150248a6df0dd49ac652dc",
        "a3411b53a63a2a189ddbce0c438d8abd522f2018aa8ff2fbf7a4e4a469afa030"),
    "bell_complete": (
        "[run]\nseed = 11\nn_slots = 30000\nmode = monte-carlo\n"
        "[scheme]\nkind = entangled\ndeltas = 8\nbell_complete = true\n"
        "[baseline]\nvector = 100.0\nwavelength = 800e-9\n",
        "1b24704225b23dad4b379b7d2978d72fd09f537e9608b12c9a94e90231c0d878",
        "b760b0c5729b28d7c107eb1a09a5c4b4c4e60daed4fb86b9b05f65dbfc68acfb"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_IDEAL_SCHEMES))
def test_simulate_ideal_scheme_artifacts_match_recorded_sha256(tmp_path, capsys, kind):
    run, events_sha, summary_sha = PINNED_IDEAL_SCHEMES[kind]
    config = tmp_path / f"{kind}.ini"
    config.write_text(run + "[source]\nkind = binary\nseparation = 2.5e-9\nratio = 0.8\n")
    assert main(["simulate", "--config", str(config),
                 "--out-dir", str(tmp_path / "run")]) == 0
    digests = [hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
               for name in ("events.jsonl", "summary.csv")]
    assert digests == [events_sha, summary_sha]


def test_estimate_w_state_log_is_input_error(tmp_path, capsys):
    config = tmp_path / "w_state.ini"
    config.write_text(PINNED_IDEAL_SCHEMES["w_state"][0].replace("150000", "600")
                      + "[source]\nkind = point\n")
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "events.jsonl"
    assert main(["estimate", "--log", str(log), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"input error: cannot fit event log {log}: fringe_counts handles "
        "two-telescope schemes; use pair_counts for telescope arrays\n")


def test_simulate_zero_slots_is_config_error(tmp_path, capsys):
    code = main(["simulate", "--config", preset("entangled_demo.ini"),
                 "--n-slots", "0", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: n_slots")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--threads", "2"], ["--analytic"],
                                   ["--monte-carlo"]])
def test_simulate_rejects_run_knobs_it_has_no_use_for(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", preset("entangled_demo.ini"),
              "--n-slots", "40", "--out-dir", str(tmp_path)] + flags)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "events.jsonl").exists()


def test_simulate_analytic_mode_is_config_error(tmp_path, capsys):
    ini = tmp_path / "analytic.ini"
    ini.write_text(Path(preset("entangled_demo.ini")).read_text()
                   .replace("mode = monte-carlo", "mode = analytic"))
    code = main(["simulate", "--config", str(ini), "--n-slots", "40",
                 "--out-dir", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: [run] mode")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("n_trials", ["0", "-5"])
def test_repeater_nonpositive_n_trials_is_config_error(tmp_path, capsys, n_trials):
    ini = tmp_path / "trials.ini"
    ini.write_text(Path(preset("repeater_demo.ini")).read_text()
                   .replace("n_trials = 20000", f"n_trials = {n_trials}")
                   .replace("mode = analytic", "mode = monte-carlo"))
    code = main(["repeater", "--config", str(ini),
                 "--out-dir", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: [repeater] n_trials: must be >= 1\n"


def _set_key(tmp_path, base: str, section: str, key: str, value: str) -> Path:
    """An INI from base (a preset name or INI text) with [section] key = value."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(base if base.startswith("[") else Path(preset(base)).read_text())
    parser.set(section, key, value)
    ini = tmp_path / "edited.ini"
    with open(ini, "w") as fh:
        parser.write(fh)
    return ini


@pytest.mark.parametrize("key, value, message", [
    ("efficiency", "2", "efficiency must be in [0, 1], got 2.0"),
    ("efficiency", "-1", "efficiency must be in [0, 1], got -1.0"),
    ("bandwidth_nm", "-1", "bandwidth_nm must be >= 0, got -1.0"),
    ("distill_rounds", "-1", "distill_rounds entries must be >= 0"),
    ("schedule", "memoryless",
     "distillation requires with_memory=True (schedule = memory): pairs must wait for each other"),
], ids=["efficiency-above-1", "efficiency-negative", "bandwidth-negative",
        "negative-rounds", "memoryless-distillation"])
def test_repeater_out_of_range_value_is_config_error(tmp_path, capsys, key, value, message):
    ini = _set_key(tmp_path, "repeater_demo.ini", "repeater", key, value)
    err = _config_error(capsys, "repeater", ini, tmp_path)
    assert err == f"config error: [repeater] {message}\n"


@pytest.mark.parametrize("mode, keys, message", [
    ("monte-carlo", "segments = 1\nlength_km = 1000\n",
     "monte-carlo: success probability 1.000000e-20 per geometric draw is below "
     "2**-56, where int64 draws saturate; use mode = analytic"),
    ("monte-carlo", "segments = 16\nlength_km = 50\nschedule = memoryless\n",
     "monte-carlo: success probability 3.051758e-21 per geometric draw is below "
     "2**-56, where int64 draws saturate; use mode = analytic"),
    ("analytic", "segments = 16\nlength_km = 1500\nschedule = memoryless\n",
     "memoryless chain: the per-slot success probability underflows to 0"),
], ids=["mc-saturated-leaf", "mc-memoryless-sum-wraps", "memoryless-underflow"])
def test_repeater_rate_beyond_the_draws_is_config_error(tmp_path, capsys, mode, keys, message):
    """Geometric draws saturate at 2**63 - 1, and their int64 sum wraps:
    the Monte Carlo refuses success probabilities below 2**-56 rather than
    report a rate from such draws."""
    ini = tmp_path / "chain.ini"
    ini.write_text(f"[run]\nseed = 1\nmode = {mode}\n[repeater]\nn_trials = 50\n{keys}")
    assert _config_error(capsys, "repeater", ini, tmp_path) == f"config error: {message}\n"


def test_repeater_mode_flags_override_the_config(tmp_path, capsys):
    """[run] mode picks the repeater mode; the two modes write different rates."""
    rates = {}
    for mode in ("analytic", "monte-carlo"):
        ini = tmp_path / f"{mode}.ini"
        ini.write_text(Path(preset("repeater_demo.ini")).read_text()
                       .replace("n_trials = 20000", "n_trials = 50")
                       .replace("mode = analytic", f"mode = {mode}"))
        assert main(["repeater", "--config", str(ini),
                     "--out-dir", str(tmp_path / mode)]) == 0
        rates[mode] = (tmp_path / mode / "chain.csv").read_text()
    capsys.readouterr()
    assert rates["analytic"] != rates["monte-carlo"]
    with pytest.raises(SystemExit) as exc:  # no command-line mode switch
        main(["repeater", "--config", str(ini), "--analytic"])
    assert exc.value.code == EXIT_CONFIG


def _cut_mid_line(text: str) -> str:
    return text[:text.rindex("\n", 0, len(text) // 2) + 20]


def _corrupt_line(text: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[len(lines) // 2] = lines[len(lines) // 2].replace(":", "=", 1)
    return "".join(lines)


def _single_delta(text: str) -> str:
    lines = [re.sub(r'"delta":[-0-9.e]+', '"delta":0.0', line)
             for line in text.splitlines(keepends=True)]
    return "".join(lines).replace(lines[0], re.sub(
        r'"deltas":\[[^]]*\]', '"deltas":[0.0]', lines[0]), 1)


@pytest.mark.parametrize("edit, message", [
    (_cut_mid_line, "unreadable event log .*JSONDecodeError"),
    (_corrupt_line, "unreadable event log .*JSONDecodeError"),
    (lambda t: t.replace("entscope.eventlog.v1", "entscope.eventlog.v0", 1),
     "unreadable event log .*unsupported schema"),
    (lambda t: t.replace('"delta":0.0,', '"delta":0.1,'),
     "unreadable event log .*KeyError: 0.1"),
    (_single_delta, "cannot fit event log .*two distinct delta"),
    (lambda t: t.replace('"deltas":[0.0,', '"deltas":[-0.0,0.0,', 1),
     "unreadable event log .*ValueError: .*repeated delta values"),
    (lambda t: t.replace('"det":2', '"det":\u00e9', 1),
     "unreadable event log .*UnicodeDecodeError: 'ascii' codec"),
    (lambda t: t.replace('"slot":0,', f'"slot":{10 ** 20},', 1),
     "unreadable event log .*ValueError: slot must be an integer within int64"),
    (lambda t: t.replace('"acc":false', '"acc":"false"', 1),
     "unreadable event log .*ValueError: acc must be a boolean"),
    (lambda t: t.replace('"delta":0.0,', '"delta":false,', 1),
     "unreadable event log .*ValueError: delta must be a number, got False"),
    (lambda t: t.replace('"tel":1}', '"tel":-7}', 1),
     "unreadable event log .*ValueError: telescope ids must be non-negative"),
], ids=["truncated", "corrupt", "bad-schema", "unknown-delta", "one-delta",
        "repeated-delta", "non-ascii", "slot-beyond-int64", "acc-string",
        "delta-boolean", "telescope-negative"])
def test_estimate_bad_log_is_input_error(tmp_path, capsys, edit, message):
    assert main(["simulate", "--config", preset("entangled_demo.ini"),
                 "--n-slots", "2000", "--out-dir", str(tmp_path)]) == 0
    log = tmp_path / "events.jsonl"
    log.write_text(edit(log.read_text()), encoding="utf-8")
    capsys.readouterr()
    assert main(["estimate", "--log", str(log),
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.match("input error: " + message, err), err
    assert err.count("\n") == 1


def test_estimate_missing_log_is_input_error(tmp_path, capsys):
    code = main(["estimate", "--log", str(tmp_path / "absent.jsonl"),
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "input error: unreadable event log" in capsys.readouterr().err


@pytest.mark.parametrize("under", ["", "sub"])
@pytest.mark.parametrize("command", ["simulate", "estimate", "repeater",
                                     "sensitivity", "reconstruct"])
def test_out_dir_naming_a_file_is_input_error(tmp_path, capsys, command, under):
    """--out-dir naming a file, or a path under one, stops before writing."""
    log = tmp_path / "run" / "events.jsonl"
    assert main(["simulate", "--config", preset("entangled_demo.ini"),
                 "--n-slots", "2000", "--out-dir", str(log.parent)]) == 0
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    args = {"simulate": ["--config", preset("entangled_demo.ini"), "--n-slots", "40"],
            "estimate": ["--log", str(log)],
            "repeater": ["--config", preset("repeater_demo.ini")],
            "sensitivity": ["--budget", "default"],
            "reconstruct": ["--config", preset("reconstruct_demo.ini")]}[command]
    capsys.readouterr()
    assert main([command, *args, "--out-dir", str(taken / under)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot make output directory {taken / under}: "), err
    assert err.count("\n") == 1
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize("command, artifact", [
    ("simulate", "events.jsonl"), ("simulate", "summary.csv"),
    ("estimate", "fringe_fit.csv"), ("repeater", "chain.csv"),
    ("sensitivity", "budget.csv"), ("reconstruct", "image.pgm")])
def test_artifact_path_that_is_a_directory_is_input_error(tmp_path, capsys,
                                                          command, artifact):
    """A directory where an artifact goes stops the run with one line."""
    log = tmp_path / "run" / "events.jsonl"
    assert main(["simulate", "--config", preset("entangled_demo.ini"),
                 "--n-slots", "2000", "--out-dir", str(log.parent)]) == 0
    args = {"simulate": ["--config", preset("entangled_demo.ini"), "--n-slots", "40"],
            "estimate": ["--log", str(log)],
            "repeater": ["--config", preset("repeater_demo.ini")],
            "sensitivity": ["--budget", "default"],
            "reconstruct": ["--config", preset("reconstruct_demo.ini")]}[command]
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    capsys.readouterr()
    assert main([command, *args, "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out / artifact}: "), err
    assert err.count("\n") == 1
    assert not any((out / artifact).iterdir())


def test_simulate_seed_changes_the_log(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d, seed in zip(dirs, ("1", "2")):
        assert main(["simulate", "--config", preset("entangled_demo.ini"),
                     "--n-slots", "2000", "--seed", seed,
                     "--out-dir", str(d)]) == 0
    assert (dirs[0] / "events.jsonl").read_bytes() != \
        (dirs[1] / "events.jsonl").read_bytes()


def test_simulate_then_estimate_recovers_fringe(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", preset("entangled_demo.ini"),
                 "--n-slots", "20000", "--out-dir", str(run_dir)]) == 0
    assert main(["estimate", "--log", str(run_dir / "events.jsonl"),
                 "--out-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    match = re.search(r"\|V\| = ([0-9.]+) \+- ([0-9.]+)", out)
    assert match, out
    amplitude, error = float(match.group(1)), float(match.group(2))
    # 100 m baseline, 2.5e-9 rad equal binary at 800 nm.
    expected = abs(math.cos(math.pi * 100.0 * 2.5e-9 / 800e-9))
    assert abs(amplitude - expected) < 5.0 * error
    assert first_line(run_dir / "fringe_fit.csv") == f"# {FIT_CSV_SCHEMA}"


def test_estimate_low_statistics_exit_code(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", preset("entangled_demo.ini"),
                 "--n-slots", "40", "--out-dir", str(run_dir)]) == 0
    code = main(["estimate", "--log", str(run_dir / "events.jsonl"),
                 "--out-dir", str(run_dir)])
    assert code == EXIT_LOW_STATISTICS
    assert "low statistics:" in capsys.readouterr().err


def test_simulate_w_state_pair_summary(tmp_path, capsys):
    config = tmp_path / "array.ini"
    config.write_text(
        "[run]\nseed = 5\nn_slots = 600\nmode = monte-carlo\n"
        "[scheme]\nkind = w_state\nn_telescopes = 3\n"
        "[source]\nkind = point\n"
        "[baseline]\npositions = 0, 40, 100\nwavelength = 800e-9\n")
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(config),
                 "--out-dir", str(run_dir)]) == 0
    assert "(w_state)" in capsys.readouterr().out
    lines = (run_dir / "summary.csv").read_text().splitlines()
    assert lines[0] == f"# {PAIR_CSV_SCHEMA}"
    assert lines[1] == "tel_i,tel_j,correlated,accepted"
    pairs = [tuple(row.split(",")[:2]) for row in lines[2:]]
    assert pairs == [("0", "1"), ("0", "2"), ("1", "2")]


def test_config_error_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text(
        "[run]\nseed = 1\nn_slots = 10\n"
        "[scheme]\nkind = w_state\nn_telescopes = 1\n"
        "[source]\nkind = point\n"
        "[baseline]\npositions = 0\nwavelength = 800e-9\n")
    code = main(["simulate", "--config", str(config), "--out-dir",
                 str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "n_telescopes" in err


_W_STATE_INI = ("[run]\nseed = 5\n[scheme]\nkind = w_state\nn_telescopes = 3\n"
                "[baseline]\npositions = 0, 40, 100\n")

_RECONSTRUCT_INI = ("[source]\nkind = binary\nseparation = 2e-9\n[baseline]\n"
                    "wavelength = 800e-9\n[reconstruct]\ngrid = 8\npixel_scale = 1e-9\n")


@pytest.mark.parametrize("command,base,section,key,value,message", [
    ("repeater", "repeater_demo.ini", "repeater", "length_km", "1e5",
     "[repeater] transmission must be positive, got 0.0"),
    ("repeater", "repeater_demo.ini", "repeater", "length_km", "inf", None),
    ("repeater", "repeater_demo.ini", "repeater", "length_km", "nan", None),
    ("repeater", "repeater_demo.ini", "repeater", "attenuation_db_per_km", "inf", None),
    ("repeater", "repeater_demo.ini", "repeater", "phase_noise_sigma", "nan", None),
    ("simulate", "entangled_demo.ini", "scheme", "coherence_time", "nan", None),
    ("simulate", "entangled_demo.ini", "scheme", "jitter_sigma", "nan", None),
    ("simulate", "entangled_demo.ini", "scheme", "arrival_offset", "nan", None),
    ("simulate", "entangled_demo.ini", "baseline", "vector", "nan", None),
    ("simulate", _W_STATE_INI, "scheme", "w_phases", "0 nan 0", None),
    ("simulate", _W_STATE_INI, "baseline", "positions", "1e308, -1e308, 0",
     "[baseline] positions: pairwise differences must be finite, got 1e+308 - -1e+308"),
    ("sensitivity", "chara_like.ini", "sensitivity", "wavelength", "nan", None),
    ("sensitivity", "chara_like.ini", "sensitivity", "dark_counts_per_s", "nan", None),
    # Finite values whose derived values overflow.
    ("repeater", "repeater_demo.ini", "repeater", "phase_noise_sigma", "1e200",
     "[repeater] phase_noise_sigma: sigma ** 2 overflows, got 1e+200"),
    ("reconstruct", _RECONSTRUCT_INI, "baseline", "wavelength", "1e300",
     "[baseline] wavelength: grid * wavelength / pixel_scale overflows at wavelength 1e+300, "
     "grid 8, pixel_scale 1e-09"),
    ("sensitivity", "chara_like.ini", "sensitivity", "aperture_diameter", "1e200",
     "[sensitivity] aperture_diameter: the area pi * d ** 2 / 4 is not finite, got 1e+200"),
])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, command, base,
                                                 section, key, value, message):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(base if base.startswith("[") else Path(preset(base)).read_text())
    parser.set(section, key, value)
    config = tmp_path / "bad.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    args = ["--n-slots", "40"] if command == "simulate" else []
    if command != "sensitivity":
        args += ["--out-dir", str(tmp_path / "run")]
    assert main([command, "--config", str(config), *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    expected = message or f"[{section}] {key}: must be finite, got {value!r}"
    assert err.startswith(f"config error: {expected}")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("base, key, value, vector", [
    ("entangled_demo.ini", "vector", "1e300", "1e+300"),
    ("[run]\nseed = 5\n[scheme]\nkind = w_state\nn_telescopes = 3\n[source]\nkind = binary\n"
     "separation = 2.5e-9\n[baseline]\npositions = 0, 40, 100\n",
     "positions", "0, 1e300, 2e300", "-1e+300"),
], ids=["two-telescope", "w_state"])
def test_non_finite_visibility_is_config_error(tmp_path, capsys, base, key, value, vector):
    """A phase 2 pi b sin(theta) / lambda that overflows would make the
    visibilities nan: the two-telescope table would have no outcomes, and a
    telescope array would sample garbage."""
    ini = _set_key(tmp_path, base, "baseline", key, value)
    ini = _set_key(tmp_path, ini.read_text(), "baseline", "wavelength", "1e-300")
    err = _config_error(capsys, "simulate", ini, tmp_path)
    assert err == (f"config error: [baseline] visibility is not finite at baseline vector "
                   f"{vector} and wavelength 1e-300: the phase 2*pi*b*theta/lambda overflows\n")


@pytest.mark.parametrize("command, base, section, key, value, message", [
    ("simulate", "entangled_demo.ini", "scheme", "coherence_time", "1e-320", None),
    ("simulate", "entangled_demo.ini", "scheme", "coherence_time", "1e-200",
     "coherence_time^2 + jitter_sigma^2 underflows to 0 at coherence_time 1e-200, "
     "jitter_sigma 0.0"),
    ("repeater", "repeater_demo.ini", "repeater", "extra_transmission", "1e-320", None),
    ("simulate", "entangled_demo.ini", "baseline", "wavelength", "1e-320", None),
    ("reconstruct", _RECONSTRUCT_INI, "reconstruct", "pixel_scale", "1e-320", None),
], ids=["coherence-time", "coherence-time-squared", "extra-transmission", "wavelength",
        "pixel-scale"])
def test_underflowing_config_value_is_config_error(tmp_path, capsys, command, base,
                                                   section, key, value, message):
    """Subnormal values, and a coherence time whose square underflows, stop
    where they enter instead of dividing by zero later."""
    ini = _set_key(tmp_path, base, section, key, value)
    err = _config_error(capsys, command, ini, tmp_path)
    message = message or (f"{key}: must be 0 or at least 2.22507e-308 in magnitude, "
                          f"got {value!r}")
    assert err == f"config error: [{section}] {message}\n"


@pytest.mark.parametrize("deltas", ["0.0, 1.5707963267948966, 0.0, 3.141592653589793",
                                    "-0.0, 1.0, 0.0"])
def test_repeated_deltas_are_config_error(tmp_path, capsys, deltas):
    config = tmp_path / "repeated.ini"
    config.write_text(Path(preset("entangled_demo.ini")).read_text().replace(
        "deltas = 8", f"deltas = {deltas}"))
    assert main(["simulate", "--config", str(config), "--n-slots", "100",
                 "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.match(r"config error: \[scheme\] delta_schedule entries must be distinct", err)
    assert not (tmp_path / "run" / "events.jsonl").exists()


def test_repeater_demo_chain_csv(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["repeater", "--config", preset("repeater_demo.ini"),
                 "--out-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    match = re.search(r"r=([0-9.e+-]+) F=([0-9.]+) s=([0-9.e+-]+) nm", out)
    assert match, out
    rate, fidelity, merit = map(float, match.groups())
    assert merit == pytest.approx(rate * 0.5 * 0.1, rel=1e-6)
    assert 0.5 < fidelity < 1.0
    lines = (run_dir / "chain.csv").read_text().splitlines()
    assert lines[0] == f"# {CHAIN_CSV_SCHEMA}"
    assert lines[1] == "segments,policy,rate,fidelity,merit_nm"
    assert lines[2].startswith("4,memory/distill=1,")


def test_repeater_demo_is_deterministic(tmp_path, capsys):
    for d in ("a", "b"):
        assert main(["repeater", "--config", preset("repeater_demo.ini"),
                     "--out-dir", str(tmp_path / d)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "chain.csv").read_bytes() == \
        (tmp_path / "b" / "chain.csv").read_bytes()


def test_repeater_demo_monte_carlo_matches_recorded_sha256(tmp_path, capsys):
    # Recorded from the recursive scalar sampler; the table evaluator must
    # draw the same doubles.
    ini = tmp_path / "demo_mc.ini"
    ini.write_text(Path(preset("repeater_demo.ini")).read_text()
                   .replace("mode = analytic", "mode = monte-carlo")
                   .replace("n_trials = 20000", "n_trials = 2000"))
    assert main(["repeater", "--config", str(ini),
                 "--out-dir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "run" / "chain.csv").read_bytes()).hexdigest()
    assert digest == "0057c6a046b07fa9d78e8c01583c0f7e42f06f6f3bb1aeccb45c5c253afb34a6"


def test_sensitivity_presets(tmp_path, capsys):
    assert main(["sensitivity", "--config", preset("chara_like.ini"),
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"limiting_magnitude\s+7\.44", out)
    assert re.search(r"merit_nm\s+0\.025", out)
    assert first_line(tmp_path / "budget.csv") == f"# {BUDGET_CSV_SCHEMA}"

    assert main(["sensitivity", "--budget", "improved"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"limiting_magnitude\s+12\.02", out)
    assert re.search(r"merit_nm\s+1\.69883", out)
    assert re.search(r"n_channels\s+100", out)


def test_sensitivity_infeasible_exit_code(tmp_path, capsys):
    config = tmp_path / "noisy.ini"
    config.write_text("[sensitivity]\ndark_counts_per_s = 1e12\n")
    assert main(["sensitivity", "--config", str(config)]) == EXIT_INFEASIBLE
    assert "infeasible budget:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("aperture_diameter", "1e100"), ("aperture_diameter", "1e150"),
    ("aperture_diameter", "1e153"), ("bandwidth_nm", "1e200"), ("bandwidth_nm", "1e300"),
])
def test_sensitivity_overflowing_rates_are_infeasible(tmp_path, capsys, key, value):
    """Accidentals beyond the float range exceed any finite signal."""
    config = tmp_path / "huge.ini"
    config.write_text(f"[sensitivity]\n{key} = {value}\n")
    assert main(["sensitivity", "--config", str(config),
                 "--out-dir", str(tmp_path / "run")]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible budget: ") and err.count("\n") == 1, err


def test_sensitivity_unknown_preset_is_config_error(capsys):
    assert main(["sensitivity", "--budget", "miracle"]) == EXIT_CONFIG
    assert "unknown preset" in capsys.readouterr().err


def test_reconstruct_demo_pgm(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["reconstruct", "--config", preset("reconstruct_demo.ini"),
                 "--out-dir", str(run_dir)]) == 0
    assert "peak at pixel (4, 8)" in capsys.readouterr().out
    pgm = run_dir / "image.pgm"
    header = pgm.read_text().splitlines()[:2]
    assert header[0] == "P2"
    assert header[1] == f"# {IMAGE_PGM_SCHEMA}"
    image = load_pgm(pgm)
    # Two points, intensities 1.0 and 0.6, at pixels (4, 8) and (12, 8).
    assert image[4, 8] == 1.0
    assert image[12, 8] == pytest.approx(0.6, abs=0.01)
    rest = image.copy()
    rest[4, 8] = rest[12, 8] = 0.0
    assert np.max(rest) < 0.01


def test_oracle_check_passes(capsys):
    assert main(["oracle-check"]) == 0
    out = capsys.readouterr().out
    assert "all oracle comparisons passed" in out
    assert out.count("PASS") >= 6


def test_reconstruct_demo_matches_recorded_sha256(tmp_path, capsys):
    # Recorded with the per-sample forward model and gridding loops.
    assert main(["reconstruct", "--config", preset("reconstruct_demo.ini"),
                 "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "image.pgm").read_bytes()).hexdigest()
    assert digest == "96d40e12986c3c08658346b5b80670cce5a03f5f0317838eb87c86f831900501"


def test_reconstruct_one_dimensional_points_match_recorded_sha256(tmp_path, capsys):
    # Off-pixel 1-D points on an odd grid, so every pixel carries sidelobes;
    # recorded with the per-sample forward model and gridding loops.
    (tmp_path / "points.txt").write_text(
        "# theta intensity\n-2.1e-9 1.0\n1.37e-9 0.6\n3.3e-9 0.25\n")
    ini = tmp_path / "oned.ini"
    ini.write_text("[source]\nkind = points\npoints = points.txt\n"
                   "[baseline]\nwavelength = 800e-9\n"
                   "[reconstruct]\ngrid = 41\npixel_scale = 0.625e-9\n")
    assert main(["reconstruct", "--config", str(ini),
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert "1x41 image" in capsys.readouterr().out
    digest = hashlib.sha256((tmp_path / "run" / "image.pgm").read_bytes()).hexdigest()
    assert digest == "eadb7529bb5762aa725e45aa1cc60b260552949dfeaa14093225b270c3ac8ee2"


def _config_with(tmp_path, command: str, source: str, baseline: str = "") -> Path:
    """An INI for command with the given [source] body (and [baseline]
    lines, for reconstruct)."""
    ini = tmp_path / f"{command}.ini"
    if command == "simulate":
        text = re.sub(r"\[source\][^[]*", f"[source]\n{source}\n",
                      Path(preset("entangled_demo.ini")).read_text())
    else:
        text = (f"[source]\n{source}\n[baseline]\n{baseline or 'wavelength = 800e-9'}\n"
                "[reconstruct]\ngrid = 8\npixel_scale = 1e-9\n")
    ini.write_text(text)
    return ini


def _config_error(capsys, command: str, ini: Path, tmp_path) -> str:
    args = [command, "--config", str(ini), "--out-dir", str(tmp_path / "run")]
    if command == "simulate":
        args += ["--n-slots", "40"]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()
    return err


@pytest.mark.parametrize("points, message", [
    (None, r"\[source\] .*No such file"),
    ("1e-9 bright\n", r"\[source\] .*points.txt:1: non-numeric field"),
    ("1e-9 1.0\n1e-9 2e-9 0.5\n", r"\[source\] point list mixes 1-D"),
    ("2.0 1.0\n", r"\[source\] source angle must satisfy \|theta\| < pi/2, got 2.0"),
    ("nan 0.0 1.0\n", r"\[source\] 2-D source angle must be finite, got \(nan, 0.0\)"),
    ("1e-9 nan\n", r"\[source\] intensities must be finite and non-negative, got nan"),
    ("0 0 1e-320\n", r"\[source\] total intensity must be positive and finite, "
                     r"at least 2.22507e-308, got 1e-320$"),
], ids=["missing-file", "non-numeric", "mixed-columns", "wide-angle", "nan-angle",
        "nan-intensity", "subnormal-total"])
@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_bad_points_file_is_config_error(tmp_path, capsys, command, points, message):
    if points is not None:
        (tmp_path / "points.txt").write_text(points)
    ini = _config_with(tmp_path, command, "kind = points\npoints = points.txt")
    err = _config_error(capsys, command, ini, tmp_path)
    assert re.match("config error: " + message, err), err


def test_bad_detector_is_config_error(tmp_path, capsys):
    ini = tmp_path / "detector.ini"
    ini.write_text(Path(preset("entangled_demo.ini")).read_text()
                   .replace("efficiency = 1.0", "efficiency = 1.5"))
    err = _config_error(capsys, "simulate", ini, tmp_path)
    assert err == "config error: [detector] efficiency must be in [0, 1], got 1.5\n"


@pytest.mark.parametrize("edits, label", [
    ({"kind = entangled": "kind = w_state\nn_telescopes = 3",
      "deltas = 8": "# deltas = 8",  # kind=w_state does not use it
      "vector = 100.0 ": "positions = 0 50 100 "}, "kind=w_state"),
    ({"kind = entangled": "kind = entangled\nbell_complete = true"}, "bell_complete"),
], ids=["w_state", "bell_complete"])
def test_ideal_detector_schemes_reject_detector_settings(tmp_path, capsys, edits, label):
    text = Path(preset("entangled_demo.ini")).read_text()
    for old, new in {**edits, "efficiency = 1.0": "efficiency = 0.3"}.items():
        text = text.replace(old, new)
    ini = tmp_path / "ideal.ini"
    ini.write_text(text)
    err = _config_error(capsys, "simulate", ini, tmp_path)
    assert err.startswith(f"config error: [scheme] detector: {label} models "
                          f"ideal detectors only"), err
    # The same scheme runs with the default (ideal) detector.
    ini.write_text(text.replace("efficiency = 0.3", "efficiency = 1.0"))
    assert main(["simulate", "--config", str(ini), "--n-slots", "40",
                 "--out-dir", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_nonpositive_wavelength_is_config_error(tmp_path, capsys, command):
    ini = _config_with(tmp_path, command, "kind = binary\nseparation = 2e-9",
                       baseline="wavelength = -8e-7")
    if command == "simulate":
        ini.write_text(ini.read_text().replace("wavelength = 800e-9", "wavelength = -8e-7"))
    err = _config_error(capsys, command, ini, tmp_path)
    assert err == "config error: [baseline] wavelength: must be positive, got -8e-07\n"


def test_simulate_source_and_baseline_dimensions_must_match(tmp_path, capsys):
    ini = tmp_path / "mismatch.ini"
    ini.write_text(Path(preset("entangled_demo.ini")).read_text()
                   .replace("vector = 100.0 ", "vector = 100.0, 20.0 "))
    err = _config_error(capsys, "simulate", ini, tmp_path)
    assert err == ("config error: [baseline] vector: a 1-D source needs "
                   "1-D baselines\n")


def test_reconstruct_non_hermitian_nyquist_is_config_error(tmp_path, capsys):
    # On an even grid the Nyquist samples of a point between pixels are not
    # real, so the dirty image is not real either.
    (tmp_path / "points.txt").write_text("1.3e-9 1.0\n")
    ini = _config_with(tmp_path, "reconstruct", "kind = points\npoints = points.txt")
    err = _config_error(capsys, "reconstruct", ini, tmp_path)
    assert err.startswith("config error: [reconstruct] reconstruction not real"), err


@pytest.mark.parametrize("source, grid, pixel_scale", [
    ("kind = binary\nseparation = 2e-9", 9, "1e-11"),
    ("kind = binary\nseparation = 2e-9", 9, "1e-300"),
    ("kind = pgm\npgm = field.pgm\npixel_scale = 1e-9", 8, "1e-9"),
], ids=["points-past-the-edge", "tiny-pixels", "pgm-pixel-past-the-edge"])
def test_reconstruct_source_outside_the_field_of_view_is_config_error(
        tmp_path, capsys, source, grid, pixel_scale):
    """A point or nonzero PGM pixel more than half a pixel beyond the outermost
    pixel centre would alias into the image, so the run stops instead."""
    field = np.zeros((16, 16))
    field[0, 8] = 1.0  # pixel (0, 8) sits at (-8e-9, 0) rad, past the edge at -4.5e-9
    save_pgm(tmp_path / "field.pgm", field)
    ini = _config_with(tmp_path, "reconstruct", source)
    ini.write_text(ini.read_text().replace("grid = 8\npixel_scale = 1e-9",
                                           f"grid = {grid}\npixel_scale = {pixel_scale}"))
    err = _config_error(capsys, "reconstruct", ini, tmp_path)
    assert re.match(r"config error: \[reconstruct\] source at \[?-[0-9.e-]+(, 0\.0\])? rad "
                    r"lies outside the field of view", err), err
    assert f"(grid {grid}, pixel_scale {float(pixel_scale):g})" in err


@contextlib.contextmanager
def _address_space_headroom(extra: int):
    """Cap this process's address space at its current size plus extra bytes,
    so that a huge request fails at once even where the OS would grant it."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    limit = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("grid, size", [(1_000_000, "7.28 TiB"), (10_000_000_000, "74.5 GiB")])
def test_reconstruct_grid_too_large_to_allocate_is_config_error(tmp_path, capsys, grid, size):
    """numpy's first request for a grid-sized array is refused whole, so no
    memory is touched; reconstruct stops with one config error line."""
    ini = _config_with(tmp_path, "reconstruct", "kind = point")
    ini.write_text(ini.read_text().replace("grid = 8", f"grid = {grid}"))
    with _address_space_headroom(1 << 30):
        err = _config_error(capsys, "reconstruct", ini, tmp_path)
    assert err.startswith(f"config error: [reconstruct] grid: {grid} is too large to image: "
                          f"Unable to allocate {size} "), err


# Per kind, a [scheme] body and its [baseline] that simulate runs as they are.
_KIND_SCHEMES = {
    "direct": ("kind = direct\ndeltas = 4\n", "vector = 100.0"),
    "hbt": ("kind = hbt\ndeltas = 4\np_a = 0.1\n", "vector = 100.0"),
    "entangled": ("kind = entangled\ndeltas = 4\n", "vector = 100.0"),
    "weak_coherent": ("kind = weak_coherent\ndeltas = 4\np_a = 0.1\np_e = 0.1\n",
                      "vector = 100.0"),
    "bell_complete": ("kind = entangled\ndeltas = 4\nbell_complete = true\n",
                      "vector = 100.0"),
    "w_state": ("kind = w_state\nn_telescopes = 3\n", "positions = 0, 40, 100"),
}
_IGNORED_VALUES = {"p_a": "0.1", "p_e": "0.1", "double_pair_prob": "0.01",
                   "w_phases": "0 0", "deltas": "4"}


@pytest.mark.parametrize("kind, key", [
    ("direct", "p_e"), ("direct", "double_pair_prob"), ("direct", "w_phases"),
    ("hbt", "p_e"), ("hbt", "w_phases"),
    ("entangled", "w_phases"), ("weak_coherent", "w_phases"),
    ("bell_complete", "p_a"), ("bell_complete", "p_e"),
    ("bell_complete", "double_pair_prob"), ("bell_complete", "w_phases"),
    ("w_state", "deltas"), ("w_state", "p_a"), ("w_state", "p_e"),
    ("w_state", "double_pair_prob"),
])
def test_scheme_key_the_kind_does_not_use_is_config_error(tmp_path, capsys, kind, key):
    """A [scheme] key that leaves the run's bytes as they are is rejected, not
    silently ignored."""
    scheme, baseline = _KIND_SCHEMES[kind]
    ini = tmp_path / "scheme.ini"
    ini.write_text(f"[run]\nseed = 1\n[scheme]\n{scheme}{key} = {_IGNORED_VALUES[key]}\n"
                   f"[baseline]\n{baseline}\n")
    err = _config_error(capsys, "simulate", ini, tmp_path)
    label = "bell_complete" if kind == "bell_complete" else f"kind={kind}"
    assert err == f"config error: [scheme] {key}: {label} does not use it\n"


@pytest.mark.parametrize("jitter", [None, "1e160"], ids=["alone", "with-jitter"])
def test_overflowing_coherence_time_is_config_error(tmp_path, capsys, jitter):
    """A coherence time whose square overflows would give an overlap factor of
    0 and flat fringes; it stops where it enters."""
    ini = _set_key(tmp_path, "entangled_demo.ini", "scheme", "coherence_time", "1e160")
    if jitter:
        ini = _set_key(tmp_path, ini.read_text(), "scheme", "jitter_sigma", jitter)
    err = _config_error(capsys, "simulate", ini, tmp_path)
    assert err == ("config error: [scheme] coherence_time^2 + jitter_sigma^2 overflows at "
                   f"coherence_time 1e+160, jitter_sigma {float(jitter or 0.0)!r}\n")


_STREAM_SCHEMES = {
    "direct": "kind = direct\ndeltas = {n}\n[detector]\nefficiency = 0.6\n"
              "dark_prob_per_window = 0.01\n[baseline]\nvector = 100.0\n",
    "entangled": "kind = entangled\ndeltas = {n}\n[detector]\nefficiency = 0.8\n"
                 "dark_prob_per_window = 0.02\n[baseline]\nvector = 100.0\n",
    "weak_coherent": "kind = weak_coherent\ndeltas = {n}\np_a = 0.1\np_e = 0.1\n"
                     "[baseline]\nvector = 100.0\n",
    "w_state": "kind = w_state\nn_telescopes = {n}\n"
               "[baseline]\npositions = {positions}\n",
}


def _stream_ini(path: Path, kind: str, n: int) -> Path:
    scheme = _STREAM_SCHEMES[kind].format(
        n=n, positions=", ".join(str(40.0 * i * i) for i in range(n)))
    path.write_text(f"[run]\nseed = 11\n[scheme]\n{scheme}wavelength = 800e-9\n"
                    "[source]\nkind = binary\nseparation = 2.5e-9\nratio = 0.7\n")
    return path


@st.composite
def _stream_runs(draw):
    kind = draw(st.sampled_from(sorted(_STREAM_SCHEMES)))
    chunk = draw(st.sampled_from([1, 7, 64, schemes.CHUNK_SLOTS]))
    piece = draw(st.sampled_from([1, 7, schemes.PIECE_SLOTS]))
    return (kind, draw(st.integers(2, 5)), chunk, piece,
            draw(st.integers(1, min(60 * chunk, 3000))))


@settings(max_examples=40, deadline=None)
@given(run=_stream_runs(), write_block=st.sampled_from([1, 7, eventlog.WRITE_BLOCK_RECORDS]),
       read_block=st.sampled_from([40, 1000, 1 << 20]), seed=st.integers(0, 2**63 - 1))
def test_streamed_simulate_equals_the_whole_log(tmp_path_factory, run, write_block,
                                                read_block, seed):
    """simulate writes and counts piece by piece; estimate counts read block
    by block.  Both equal the whole-log path at any chunk, piece and block
    size."""
    kind, n, chunk, piece, n_slots = run
    tmp = tmp_path_factory.mktemp("stream")
    ini = _stream_ini(tmp / "run.ini", kind, n)
    with mock.patch.object(schemes, "CHUNK_SLOTS", chunk), \
            mock.patch.object(schemes, "PIECE_SLOTS", piece), \
            mock.patch.object(eventlog, "WRITE_BLOCK_RECORDS", write_block), \
            mock.patch.object(eventlog, "READ_BLOCK_CHARS", read_block):
        assert main(["simulate", "--config", str(ini), "--n-slots", str(n_slots),
                     "--seed", str(seed), "--out-dir", str(tmp / "run")]) == 0
        parser = cfg.load_config(ini)
        scheme = cfg.build_scheme(parser)
        source = cfg.build_source(parser, str(tmp))
        log = schemes.simulate_run(scheme, source, cfg.build_geometry(parser, scheme, source),
                                   n_slots, seed)
        log.write_jsonl(tmp / "whole.jsonl")
        path = tmp / "run" / "events.jsonl"
        assert path.read_bytes() == (tmp / "whole.jsonl").read_bytes()
        if kind == "w_state":
            rows = [f"{i},{j},{c},{t}" for (i, j), (c, t) in sorted(pair_counts(log, n).items())]
        else:
            _, successes, totals = fringe_counts(log)
            rows = [f"{d:.12g},{s},{t - s},{t}" for d, s, t in zip(log.deltas, successes, totals)]
            streamed = FringeCounter.from_jsonl(path).counts()
            whole = fringe_counts(EventLog.read_jsonl(path))
            assert [c.tolist() for c in streamed] == [c.tolist() for c in whole]
    assert (tmp / "run" / "summary.csv").read_text().splitlines()[2:] == rows


def _traced_peak(run, sites: list | None = None) -> int:
    """Traced peak bytes of run(); with sites, also appends the top five
    allocation sites still held when it returns, for a failure message."""
    tracemalloc.start()
    try:
        run()
        if sites is not None:
            sites += [str(stat) for stat in
                      tracemalloc.take_snapshot().statistics("lineno")[:5]]
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_is_set_by_the_piece_not_the_chunk(tmp_path, capsys):
    """At the default CHUNK_SLOTS a chunk's draws span many pieces; simulate's
    traced peak stays within 1.5x of its peak when each chunk is one piece,
    at the same slot count, so a piece, not an RNG chunk, sets the memory."""
    args = ["simulate", "--config", preset("entangled_demo.ini"),
            "--out-dir", str(tmp_path / "run")]
    n_slots, peaks = str(2 * schemes.CHUNK_SLOTS), {}
    # Fill the outcome-table caches and import numpy.random first.
    assert main([*args, "--n-slots", "2000"]) == 0
    for chunk in (schemes.CHUNK_SLOTS, schemes.PIECE_SLOTS):
        with mock.patch.object(schemes, "CHUNK_SLOTS", chunk):
            gc.collect()
            peaks[chunk] = _traced_peak(lambda: main([*args, "--n-slots", n_slots]))
    capsys.readouterr()
    assert peaks[schemes.CHUNK_SLOTS] < 1.5 * peaks[schemes.PIECE_SLOTS], peaks


def test_reconstruct_memory_is_a_few_grids(tmp_path, capsys):
    """At grid 256, reconstruct's traced peak stays within 8 complex 256 x 256
    grids: each imaging stage's temporaries die with the stage, and the
    baselines and visibilities are dropped before the inverse DFT."""
    n = 256
    (tmp_path / "points.txt").write_text("-3e-09 5e-09 1.0\n4e-08 -1.7e-08 0.5\n")
    ini = tmp_path / "reconstruct.ini"
    ini.write_text("[source]\nkind = points\npoints = points.txt\n"
                   "[baseline]\nwavelength = 800e-9\n"
                   f"[reconstruct]\ngrid = {n}\npixel_scale = 1e-9\n")
    args = ["reconstruct", "--config", str(ini), "--out-dir", str(tmp_path / "run")]
    assert main(args) == 0  # import lazily loaded code first
    gc.collect()
    peak = _traced_peak(lambda: main(args))
    capsys.readouterr()
    grid_bytes = n * n * np.dtype(complex).itemsize
    assert peak <= 8 * grid_bytes, f"{peak / grid_bytes:.2f} grids"


def test_simulate_and_estimate_memory_is_flat_in_slot_count(tmp_path, capsys):
    """Small chunks and blocks, so both commands' traced peak is set by one
    block, not by the slot count."""
    ini = preset("entangled_demo.ini")
    peaks, sites = {}, {"simulate": [], "estimate": []}
    with mock.patch.object(schemes, "CHUNK_SLOTS", 1 << 12), \
            mock.patch.object(eventlog, "WRITE_BLOCK_RECORDS", 1 << 10), \
            mock.patch.object(eventlog, "READ_BLOCK_CHARS", 1 << 14):
        # Fill the outcome-table caches and import lazily loaded code first.
        warm = tmp_path / "warm"
        assert main(["simulate", "--config", ini, "--n-slots", "2000",
                     "--out-dir", str(warm)]) == 0
        assert main(["estimate", "--log", str(warm / "events.jsonl"),
                     "--out-dir", str(warm)]) == 0
        for n_slots in (10_000, 100_000):
            out = tmp_path / str(n_slots)
            larger = n_slots == 100_000
            peaks["simulate", n_slots] = _traced_peak(lambda: main(
                ["simulate", "--config", ini, "--n-slots", str(n_slots),
                 "--out-dir", str(out)]), sites["simulate"] if larger else None)
            peaks["estimate", n_slots] = _traced_peak(lambda: main(
                ["estimate", "--log", str(out / "events.jsonl"), "--out-dir", str(out)]),
                sites["estimate"] if larger else None)
    capsys.readouterr()
    for command in ("simulate", "estimate"):
        assert peaks[command, 100_000] < 1.5 * peaks[command, 10_000], "\n".join(
            [f"{peaks}", f"top {command} allocation sites held after the 1e5-slot run:",
             *sites[command]])
