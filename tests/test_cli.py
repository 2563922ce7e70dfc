"""End-to-end command-line runs against the bundled presets."""
import configparser
import contextlib
import gc
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entscope
from entscope import config as cfg
from entscope import eventlog, repeater, schemes
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


def with_run(tmp_path, base: str = "entangled_demo.ini", **keys) -> str:
    """A copy of base (a preset name or INI text) with [run] keys set, such as
    n_slots = 40 or a seed, as the path a --config takes."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(base if "\n" in base else Path(preset(base)).read_text())
    for key, value in keys.items():
        parser.set("run", key, str(value))
    ini = tmp_path / ("run_" + "_".join(f"{key}{value}" for key, value in keys.items()) + ".ini")
    with open(ini, "w") as fh:
        parser.write(fh)
    return str(ini)


def first_line(path: Path) -> str:
    return path.read_text().splitlines()[0]


# The command each bundled preset is for.
PRESET_COMMANDS = {"chara_like.ini": "sensitivity", "entangled_demo.ini": "simulate",
                   "improved.ini": "sensitivity", "reconstruct_demo.ini": "reconstruct",
                   "repeater_demo.ini": "repeater"}


@pytest.mark.parametrize("name", sorted(p.name for p in PRESETS.glob("*.ini")))
def test_every_bundled_preset_runs(tmp_path, capsys, name):
    """Each shipped preset passes its command's config checks and runs whole;
    a preset missing from PRESET_COMMANDS fails here."""
    assert main([PRESET_COMMANDS[name], "--config", preset(name),
                 "--out-dir", str(tmp_path / "run")]) == 0


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(["simulate", "--config", with_run(tmp_path, n_slots=2000),
                     "--out-dir", str(d)])
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
    err = _config_error(capsys, "simulate", with_run(tmp_path, n_slots=0), tmp_path)
    assert err.startswith("config error: n_slots")


@pytest.mark.parametrize("n_slots", [2**63, 10**30])
def test_simulate_slots_beyond_int64_is_config_error(tmp_path, capsys, n_slots):
    """The log's slots are int64, so a larger n_slots stops before anything
    is written, instead of writing a log whose header no reader takes."""
    err = _config_error(capsys, "simulate", with_run(tmp_path, n_slots=n_slots), tmp_path)
    assert err == f"config error: n_slots: must be in [1, 2**63 - 1], got {n_slots}\n"


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
@pytest.mark.parametrize("command", ["simulate", "repeater"])
def test_seed_beyond_64_bits_is_config_error(tmp_path, capsys, command, seed):
    """Philox takes a seed's low 64 bits, so -1 and 2**64 + 1 would replay
    the runs of 2**64 - 1 and 1; they stop before anything is written."""
    base = {"simulate": "entangled_demo.ini", "repeater": "repeater_demo.ini"}[command]
    err = _config_error(capsys, command, with_run(tmp_path, base, seed=seed), tmp_path)
    assert err == f"config error: [run] seed: must be in [0, 2**64 - 1], got {seed}\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", preset("entangled_demo.ini"), "--seed", "1"],
    ["simulate", "--config", preset("entangled_demo.ini"), "--n-slots", "40"],
    ["repeater", "--config", preset("repeater_demo.ini"), "--seed", "1"],
    ["sensitivity", "--config", preset("chara_like.ini"), "--budget", "improved"],
    ["sensitivity", "--budget", "improved"],
    ["sensitivity"],
], ids=["simulate-seed", "simulate-n-slots", "repeater-seed", "sensitivity-budget",
        "sensitivity-budget-alone", "sensitivity-no-config"])
def test_scenario_file_is_the_only_run_setting(tmp_path, capsys, argv):
    """The seed, the slot count and the budget preset come from the scenario
    file; argparse refuses a flag that would override one, and sensitivity
    without --config, before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == EXIT_CONFIG
    assert re.search("unrecognized arguments|required: --config", capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags", [["--threads", "2"], ["--analytic"],
                                   ["--monte-carlo"]])
def test_simulate_rejects_run_knobs_it_has_no_use_for(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", with_run(tmp_path, n_slots=40),
              "--out-dir", str(tmp_path)] + flags)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "events.jsonl").exists()


def test_simulate_analytic_mode_is_config_error(tmp_path, capsys):
    ini = tmp_path / "analytic.ini"
    ini.write_text(Path(preset("entangled_demo.ini")).read_text()
                   .replace("mode = monte-carlo", "mode = analytic"))
    code = main(["simulate", "--config", with_run(tmp_path, ini.read_text(), n_slots=40),
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


# The chain's own rules are refused by chain_simulate, which names no section.
@pytest.mark.parametrize("key, value, message", [
    ("efficiency", "2", "[repeater] efficiency must be in [0, 1], got 2.0"),
    ("efficiency", "-1", "[repeater] efficiency must be in [0, 1], got -1.0"),
    ("bandwidth_nm", "-1", "[repeater] bandwidth_nm must be >= 0, got -1.0"),
    ("distill_rounds", "-1", "[repeater] distill_rounds entries must be >= 0"),
    ("schedule", "memoryless", "[repeater] distillation requires with_memory=True "
                               "(schedule = memory): pairs must wait for each other"),
    ("distill_rounds", "1,0,0,7",
     "distill_rounds: a chain of 4 segments has 3 nesting levels, got 4 entries"),
    ("segments", "0", "segments must be >= 1, got 0"),
], ids=["efficiency-above-1", "efficiency-negative", "bandwidth-negative",
        "negative-rounds", "memoryless-distillation", "rounds-beyond-levels",
        "no-segments"])
def test_repeater_out_of_range_value_is_config_error(tmp_path, capsys, key, value, message):
    ini = _set_key(tmp_path, "repeater_demo.ini", "repeater", key, value)
    err = _config_error(capsys, "repeater", ini, tmp_path)
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("mode, keys, message", [
    ("monte-carlo", "segments = 1\nlength_km = 1000\n",
     "monte-carlo: success probability 1.000000e-20 per geometric draw is below "
     "2**-56, where int64 draws saturate; use mode = analytic"),
    ("monte-carlo", "segments = 16\nlength_km = 50\nschedule = memoryless\n",
     "monte-carlo: success probability 3.051758e-21 per geometric draw is below "
     "2**-56, where int64 draws saturate; use mode = analytic"),
    ("analytic", "segments = 16\nlength_km = 1500\nschedule = memoryless\n",
     "memoryless chain: the per-slot success probability underflows to 0"),
    ("analytic", "segments = 3\nextra_transmission = 3e-308\n",
     "the expected delivery time of a chain of 3 segments overflows a float"),
    ("analytic", f"segments = {10**200}\n",
     f"the expected delivery time of a chain of {10**200} segments overflows a float"),
    ("monte-carlo", f"segments = {10**300}\n",
     f"the expected delivery time of a chain of {10**300} segments overflows a float"),
], ids=["mc-saturated-leaf", "mc-memoryless-sum-wraps", "memoryless-underflow",
        "slots-overflow", "201-digit-segments", "301-digit-segments"])
def test_repeater_rate_beyond_the_draws_is_config_error(tmp_path, capsys, mode, keys, message):
    """Geometric draws saturate at 2**63 - 1, and their int64 sum wraps:
    the Monte Carlo refuses success probabilities below 2**-56 rather than
    report a rate from such draws.  A chain whose expected delivery time
    overflows a float is refused in either mode, at any segment count."""
    ini = tmp_path / "chain.ini"
    ini.write_text(f"[run]\nseed = 1\nmode = {mode}\n[repeater]\nn_trials = 50\n{keys}")
    assert _config_error(capsys, "repeater", ini, tmp_path) == f"config error: {message}\n"


def test_repeater_monte_carlo_is_bounded_before_it_starts(tmp_path, capsys):
    """n_trials times the root's expected reads may reach MC_MAX_READS but
    not pass it: with the bound patched down to 20 trials of the demo chain,
    20 trials run and 21 stop with one config error naming the analytic mode."""
    ini = tmp_path / "chain.ini"
    demo = Path(preset("repeater_demo.ini")).read_text().replace("mode = analytic",
                                                                  "mode = monte-carlo")
    segments, link, policy, *_ = cfg.build_chain(cfg.load_config(preset("repeater_demo.ini")))
    reads = repeater._chain_plan(segments, link, policy)[-1].reads
    with mock.patch.object(repeater, "MC_MAX_READS", 20 * reads):
        ini.write_text(demo.replace("n_trials = 20000", "n_trials = 20"))
        assert main(["repeater", "--config", str(ini), "--out-dir", str(tmp_path / "ok")]) == 0
        ini.write_text(demo.replace("n_trials = 20000", "n_trials = 21"))
        err = _config_error(capsys, "repeater", ini, tmp_path)
    assert err.startswith("config error: monte-carlo: n_trials = 21 would read about ")
    assert err.endswith("; use mode = analytic\n")


def test_repeater_billion_segment_chain_has_a_finite_rate(tmp_path, capsys):
    """The plan is keyed by segment count, so 10**9 segments build about
    two nodes per nesting level, not a list of 10**9 links."""
    ini = tmp_path / "chain.ini"
    ini.write_text("[run]\nseed = 1\nmode = analytic\n[repeater]\nsegments = 1000000000\n")
    assert main(["repeater", "--config", str(ini), "--out-dir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    row = (tmp_path / "run" / "chain.csv").read_text().splitlines()[2].split(",")
    assert row[0] == "1000000000"
    assert 0.0 < float(row[2]) < math.inf


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


def _header_deltas(deltas: str):
    return lambda text: re.sub(r'"deltas":\[[^]]*\]', f'"deltas":{deltas}', text, count=1)


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
    (lambda t: t.replace('"scheme":"entangled"', '"scheme":"entangl\u00e9d"', 1),
     "unreadable event log .*UnicodeDecodeError: 'ascii' codec"),
    (lambda t: t.replace('"slot":0,', f'"slot":{10 ** 20},', 1),
     "unreadable event log .*ValueError: slot must be an integer within int64"),
    (lambda t: t.replace('"acc":false', '"acc":"false"', 1),
     "unreadable event log .*ValueError: acc must be a boolean"),
    (lambda t: t.replace('"delta":0.0,', '"delta":false,', 1),
     "unreadable event log .*ValueError: delta must be a number, got False"),
    (lambda t: t.replace('"tel":1}', '"tel":-7}', 1),
     "unreadable event log .*ValueError: telescope ids must be non-negative"),
    (lambda t: t.replace('"scheme":"entangled"', '"scheme":"bogus"', 1),
     "unreadable event log .*ValueError: scheme must be one of .*, got 'bogus'"),
    (lambda t: re.sub(r'("acc":true[^\n]*"tel":)1}', r'\g<1>0}', t, count=1),
     "cannot fit event log .*: accepted pair records must come from two telescopes"),
    (_header_deltas("[false,true]"),
     "unreadable event log .*ValueError: deltas must be an array of numbers"),
    (_header_deltas('"12"'),
     "unreadable event log .*ValueError: deltas must be an array of numbers"),
    (_header_deltas('["0.5"]'),
     "unreadable event log .*ValueError: deltas must be an array of numbers"),
    (_header_deltas("[1" + "0" * 400 + "]"),
     "unreadable event log .*OverflowError: int too large to convert to float"),
    (lambda t: t.replace("\n", "\r"),
     "unreadable event log .*JSONDecodeError: Extra data: line 1 column"),
    (lambda t: "[" * 200_000 + t[t.index("\n"):],
     "unreadable event log .*RecursionError: maximum recursion depth"),
    (lambda t: t + "[" * 200_000 + "\n",
     "unreadable event log .*RecursionError: maximum recursion depth"),
], ids=["truncated", "corrupt", "bad-schema", "unknown-delta", "one-delta",
        "repeated-delta", "non-ascii", "non-ascii-header", "slot-beyond-int64", "acc-string",
        "delta-boolean", "telescope-negative", "unknown-scheme", "pair-one-telescope",
        "deltas-boolean", "deltas-string", "deltas-string-element", "deltas-beyond-float",
        "lone-cr", "nested-header", "nested-record"])
def test_estimate_bad_log_is_input_error(tmp_path, capsys, edit, message):
    assert main(["simulate", "--config", with_run(tmp_path, n_slots=2000),
                 "--out-dir", str(tmp_path)]) == 0
    log = tmp_path / "events.jsonl"
    log.write_text(edit(log.read_text()), encoding="utf-8")
    capsys.readouterr()
    assert main(["estimate", "--log", str(log),
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.match("input error: " + message, err), err
    assert err.count("\n") == 1


def test_event_log_is_written_without_newline_translation(tmp_path):
    """simulate and EventLog.write_jsonl open events.jsonl in binary mode,
    so that no platform translates its LF line ends, which the sha256 pins
    record."""
    ini = with_run(tmp_path, n_slots=40)
    with mock.patch("builtins.open", side_effect=open) as opened:
        assert main(["simulate", "--config", ini, "--out-dir", str(tmp_path)]) == 0
        EventLog.read_jsonl(tmp_path / "events.jsonl").write_jsonl(tmp_path / "events.jsonl")
    modes = [c.args[1] if len(c.args) > 1 else c.kwargs.get("mode", "r")
             for c in opened.call_args_list if str(c.args[0]).endswith("events.jsonl")]
    assert [m for m in modes if set(m) & set("wax+")] == ["wb", "wb"]


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
    assert main(["simulate", "--config", with_run(tmp_path, n_slots=2000),
                 "--out-dir", str(log.parent)]) == 0
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    args = {"simulate": ["--config", with_run(tmp_path, n_slots=40)],
            "estimate": ["--log", str(log)],
            "repeater": ["--config", preset("repeater_demo.ini")],
            "sensitivity": ["--config", preset("chara_like.ini")],
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
    assert main(["simulate", "--config", with_run(tmp_path, n_slots=2000),
                 "--out-dir", str(log.parent)]) == 0
    args = {"simulate": ["--config", with_run(tmp_path, n_slots=40)],
            "estimate": ["--log", str(log)],
            "repeater": ["--config", preset("repeater_demo.ini")],
            "sensitivity": ["--config", preset("chara_like.ini")],
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
    for d, seed in zip(dirs, (1, 2)):
        assert main(["simulate", "--config", with_run(tmp_path, n_slots=2000, seed=seed),
                     "--out-dir", str(d)]) == 0
    assert (dirs[0] / "events.jsonl").read_bytes() != \
        (dirs[1] / "events.jsonl").read_bytes()


def test_simulate_then_estimate_recovers_fringe(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", with_run(tmp_path, n_slots=20000),
                 "--out-dir", str(run_dir)]) == 0
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
    assert main(["simulate", "--config", with_run(tmp_path, n_slots=40),
                 "--out-dir", str(run_dir)]) == 0
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
    if command == "simulate":
        parser.set("run", "n_slots", "40")
    config = tmp_path / "bad.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    args = [] if command == "sensitivity" else ["--out-dir", str(tmp_path / "run")]
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
        "deltas = 8", f"deltas = {deltas}").replace("n_slots = 200000", "n_slots = 100"))
    assert main(["simulate", "--config", str(config),
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

    assert main(["sensitivity", "--config", preset("improved.ini")]) == 0
    out = capsys.readouterr().out
    assert re.search(r"limiting_magnitude\s+12\.02", out)
    assert re.search(r"merit_nm\s+1\.69883", out)
    assert re.search(r"n_channels\s+100", out)


def test_sensitivity_infeasible_exit_code(tmp_path, capsys):
    config = tmp_path / "noisy.ini"
    config.write_text("[sensitivity]\ndark_counts_per_s = 1e12\n")
    assert main(["sensitivity", "--config", str(config)]) == EXIT_INFEASIBLE
    assert "infeasible budget:" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (b"[sensitivity]\nbudget = def%ault\n",
     "[sensitivity] budget: unknown preset 'def%ault' (known: default, improved)"),
    (b"[DEFAULT]\nbudget = improved\n[sensitivity]\n", "{ini}: unknown section [DEFAULT]"),
    (b"[sensitivity]\nbudget = d\xe9fault\n",
     "cannot read config {ini}: 'utf-8' codec can't decode byte 0xe9 in position 24: "
     "invalid continuation byte"),
    (b"[sensitivity]\nbudget default\nfoo\n",
     "{ini}: line 2: not a [section] header, key = value or comment: 'budget default'"),
    (b"budget = default\n", "{ini}: line 1: line before any [section] header: 'budget = default'"),
    (b"[sensitivity]\nbudget = default\n[sensitivity]\n",
     "{ini}: line 3: section given twice: '[sensitivity]'"),
    (b"[sensitivity]\r\nbudget = default\r\nbudget = improved\r\n",
     "{ini}: line 3: key given twice in its section: 'budget = improved'"),
], ids=["percent", "default-section", "non-utf8", "no-equals", "no-header", "section-twice",
        "key-twice"])
def test_config_is_read_literally_or_refused(tmp_path, capsys, text, message):
    ini = tmp_path / "literal.ini"
    ini.write_bytes(text)
    assert main(["sensitivity", "--config", str(ini)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message.format(ini=ini)}\n"


def test_config_byte_order_mark_is_skipped(tmp_path, capsys):
    """A config saved with a UTF-8 byte-order mark runs as the plain file does."""
    text = Path(preset("chara_like.ini")).read_bytes()
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        (tmp_path / f"{name}.ini").write_bytes(data)
        assert main(["sensitivity", "--config", str(tmp_path / f"{name}.ini"),
                     "--out-dir", str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "bom" / "budget.csv").read_bytes() == \
        (tmp_path / "plain" / "budget.csv").read_bytes()


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


def test_sensitivity_config_without_section_is_config_error(tmp_path, capsys):
    """A config without [sensitivity] has no budget to report, not the default one."""
    err = _config_error(capsys, "sensitivity", Path(preset("repeater_demo.ini")), tmp_path)
    assert err == "config error: missing [sensitivity] section\n"


@pytest.mark.parametrize("budget", ["miracle", ""])
def test_sensitivity_unknown_preset_is_config_error(tmp_path, capsys, budget):
    config = tmp_path / "unknown.ini"
    config.write_text(f"[sensitivity]\nbudget = {budget}\n")
    assert main(["sensitivity", "--config", str(config)]) == EXIT_CONFIG
    assert "unknown preset" in capsys.readouterr().err


# What each command may execute besides the CLI: a module counts once its
# stub has run, i.e. once it is a plain module object in sys.modules.
_LOADED = """
import json, runpy, sys, types
sys.argv = ["entscope", *json.loads(sys.argv[1])]
try:
    runpy.run_module("entscope.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, "numpy": "numpy" in sys.modules,
                  "numpy.ma": "numpy.ma" in sys.modules,
                  "executed": [n.split(".", 1)[1] for n, m in sys.modules.items()
                               if n.startswith("entscope.") and type(m) is types.ModuleType]}))
"""


_OUT = ("--out-dir", "{out}")


@pytest.mark.parametrize("command, args, only, never", [
    # A config file's key check reads the dataclasses of its own sections only.
    ("sensitivity", ["--config", preset("chara_like.ini"), *_OUT],
     {"config", "errors", "sensitivity"}, None),
    ("estimate", ["--log", "{log}", *_OUT], None,
     {"schemes", "repeater", "oracle", "sky", "fock"}),
    ("repeater", ["--config", preset("repeater_demo.ini"), *_OUT], None,
     {"schemes", "eventlog", "estimation", "oracle", "sky"}),
    ("reconstruct", ["--config", preset("reconstruct_demo.ini"), *_OUT], None,
     {"schemes", "repeater", "oracle", "eventlog", "fock"}),
    ("oracle-check", [], None, {"eventlog", "estimation", "config"}),
])
def test_each_command_executes_only_its_layers(tmp_path, capsys, command, args, only, never):
    log = tmp_path / "run" / "events.jsonl"
    if command == "estimate":
        assert main(["simulate", "--config", with_run(tmp_path, n_slots=2000),
                     "--out-dir", str(log.parent)]) == 0
    argv = [command, *(a.format(log=log, out=tmp_path / "out") for a in args)]
    src = str(Path(entscope.__file__).resolve().parents[1])
    # -W error: runpy warns, as `python -m entscope.cli` would, if the CLI
    # module were in sys.modules before it runs.
    child = subprocess.run([sys.executable, "-W", "error", "-c", _LOADED, json.dumps(argv)],
                           check=True, capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src})
    assert child.stderr == ""
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["exit"] == 0
    executed = set(report["executed"])
    # numpy.ma costs about 15 ms to load (np.unique loads it); no command needs it.
    assert not report["numpy.ma"], report
    if only is not None:
        assert executed <= only and not report["numpy"], report
    if never is not None:
        assert not executed & never, report


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


def _config_error(capsys, command: str, ini: Path | str, tmp_path) -> str:
    assert main([command, "--config", str(ini), "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
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
    assert err == f"config error: [scheme] detector: {label} does not use it\n"
    # A [detector] key is refused at its default value too, as in [scheme].
    ini.write_text(text.replace("efficiency = 0.3", "efficiency = 1.0"))
    err = _config_error(capsys, "simulate", ini, tmp_path)
    assert err == f"config error: [detector] efficiency: {label} does not use it\n"
    # The same scheme runs with no [detector] section: the ideal detector.
    ini = with_run(tmp_path, re.sub(r"\[detector\][^[]*", "", text), n_slots=40)
    assert main(["simulate", "--config", ini, "--out-dir", str(tmp_path / "run")]) == 0


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


@pytest.mark.parametrize("grid, size", [(1_000_000, "7.28 TiB"), (10_000_000_000, "74.5 GiB"),
                                        (2**62, None), (2**63 - 1, None), (2**63, None),
                                        (10**20, None)])
def test_reconstruct_grid_too_large_to_allocate_is_config_error(tmp_path, capsys, grid, size):
    """numpy's first request for a grid-sized array is refused whole, so no
    memory is touched; reconstruct stops with one config error line.  Grids
    whose samples pass numpy's array size limit (size None), where numpy
    would raise a ValueError or make an empty array, are refused before
    numpy is asked."""
    ini = _config_with(tmp_path, "reconstruct", "kind = point")
    ini.write_text(ini.read_text().replace("grid = 8", f"grid = {grid}"))
    with _address_space_headroom(1 << 30):
        err = _config_error(capsys, "reconstruct", ini, tmp_path)
    reason = (f"Unable to allocate {size} " if size else
              f"{grid} complex samples pass numpy's array size limit\n")
    assert err.startswith(f"config error: [reconstruct] grid: {grid} is too large to image: "
                          f"{reason}"), err


def test_telescope_array_too_large_to_allocate_is_config_error(tmp_path, capsys):
    """The check of the telescope pairs i < j first asks numpy for an n x n
    mask, which is refused whole at 40,000 telescopes, so no memory is
    touched; simulate stops with one config error line, not a traceback."""
    n = 40_000
    ini = tmp_path / "array.ini"
    ini.write_text(f"[run]\nseed = 1\nn_slots = 10\n[scheme]\nkind = w_state\n"
                   f"n_telescopes = {n}\n[baseline]\npositions = {' '.join(map(str, range(n)))}\n")
    with _address_space_headroom(1 << 30):
        err = _config_error(capsys, "simulate", ini, tmp_path)
    assert err.startswith(f"config error: [scheme] n_telescopes: {n} telescopes are too many "
                          f"to simulate: Unable to allocate "), err


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
                   "w_phases": "0 0", "deltas": "4", "n_telescopes": "2", "bell_complete": "false"}


@pytest.mark.parametrize("kind, key", [
    ("direct", "p_e"), ("direct", "double_pair_prob"), ("direct", "w_phases"),
    ("hbt", "p_e"), ("hbt", "w_phases"),
    ("entangled", "w_phases"), ("weak_coherent", "w_phases"),
    ("bell_complete", "p_a"), ("bell_complete", "p_e"),
    ("bell_complete", "double_pair_prob"), ("bell_complete", "w_phases"),
    ("w_state", "deltas"), ("w_state", "p_a"), ("w_state", "p_e"),
    ("w_state", "double_pair_prob"),
    ("direct", "n_telescopes"), ("entangled", "n_telescopes"), ("bell_complete", "n_telescopes"),
    ("hbt", "bell_complete"), ("weak_coherent", "bell_complete"), ("w_state", "bell_complete"),
])
def test_scheme_key_the_kind_does_not_use_is_config_error(tmp_path, capsys, kind, key):
    """A [scheme] key that leaves the run's bytes as they are is rejected, not
    silently ignored, even at its default value (n_telescopes, bell_complete)."""
    scheme, baseline = _KIND_SCHEMES[kind]
    ini = tmp_path / "scheme.ini"
    ini.write_text(f"[run]\nseed = 1\n[scheme]\n{scheme}{key} = {_IGNORED_VALUES[key]}\n"
                   f"[baseline]\n{baseline}\n")
    err = _config_error(capsys, "simulate", ini, tmp_path)
    label = "bell_complete" if kind == "bell_complete" else f"kind={kind}"
    assert err == f"config error: [scheme] {key}: {label} does not use it\n"


@pytest.mark.parametrize("key, value", [("jitter_sigma", "1e-9"), ("arrival_offset", "5e-9")])
@pytest.mark.parametrize("coherence_time", [None, "0"], ids=["no-coherence-time", "zero"])
def test_timing_key_without_coherence_time_is_config_error(tmp_path, capsys, key, value,
                                                          coherence_time):
    """Jitter and arrival offset enter only the overlap factor, which a
    coherence time of 0 switches off; the same key runs with one set."""
    ini = _set_key(tmp_path, "entangled_demo.ini", "scheme", key, value)
    if coherence_time is not None:
        ini = _set_key(tmp_path, ini.read_text(), "scheme", "coherence_time", coherence_time)
    err = _config_error(capsys, "simulate", ini, tmp_path)
    assert err == (f"config error: [scheme] {key}: kind=entangled does not use it "
                   f"unless coherence_time > 0\n")
    ini = _set_key(tmp_path, ini.read_text(), "scheme", "coherence_time", "1e-9")
    assert main(["simulate", "--config", with_run(tmp_path, ini.read_text(), n_slots=40),
                 "--out-dir", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("scheme", ["kind = directt\n", "kind = bogus\np_e = 0.1\n",
                                    "kind = bogus\nbell_complete = true\n"],
                         ids=["typo", "with-p_e", "with-bell_complete"])
def test_unknown_scheme_kind_is_config_error(tmp_path, capsys, scheme):
    """An unknown kind reads every [scheme] key, so the kind itself is what
    the one error line names."""
    ini = tmp_path / "scheme.ini"
    ini.write_text(f"[run]\nseed = 1\n[scheme]\n{scheme}[baseline]\nvector = 100.0\n")
    err = _config_error(capsys, "simulate", ini, tmp_path)
    kind = scheme.split("\n")[0].split(" = ")[1]
    assert err.startswith("config error: [scheme] kind must be one of ("), err
    assert err.endswith(f"got {kind!r}\n"), err


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


def _stream_ini(path: Path, kind: str, n: int, n_slots: int, seed: int) -> Path:
    scheme = _STREAM_SCHEMES[kind].format(
        n=n, positions=", ".join(str(40.0 * i * i) for i in range(n)))
    path.write_text(f"[run]\nseed = {seed}\nn_slots = {n_slots}\n[scheme]\n{scheme}"
                    "wavelength = 800e-9\n"
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
    ini = _stream_ini(tmp / "run.ini", kind, n, n_slots, seed)
    with mock.patch.object(schemes, "CHUNK_SLOTS", chunk), \
            mock.patch.object(schemes, "PIECE_SLOTS", piece), \
            mock.patch.object(eventlog, "WRITE_BLOCK_RECORDS", write_block), \
            mock.patch.object(eventlog, "READ_BLOCK_CHARS", read_block):
        assert main(["simulate", "--config", str(ini), "--out-dir", str(tmp / "run")]) == 0
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
    out, peaks = ["--out-dir", str(tmp_path / "run")], {}
    ini = with_run(tmp_path, n_slots=2 * schemes.CHUNK_SLOTS)
    # Fill the outcome-table caches and import numpy.random first.
    assert main(["simulate", "--config", with_run(tmp_path, n_slots=2000), *out]) == 0
    for chunk in (schemes.CHUNK_SLOTS, schemes.PIECE_SLOTS):
        with mock.patch.object(schemes, "CHUNK_SLOTS", chunk):
            gc.collect()
            peaks[chunk] = _traced_peak(lambda: main(["simulate", "--config", ini, *out]))
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


# Traced peaks of simulate and estimate at 2e3 (the warm-up: it fills the
# outcome-table caches and imports lazily loaded code), 1e4 and 1e5 slots,
# with small chunks and blocks, and the top five allocation sites still held
# after each 1e5-slot run.  Prints them as one JSON line.
_FLAT_IN_SLOTS = """
import json, sys, tracemalloc
from unittest import mock
from entscope import eventlog, schemes
from entscope.cli import main

root, inis = sys.argv[1], sys.argv[2:]
peaks, sites = {}, {}
with mock.patch.object(schemes, "CHUNK_SLOTS", 1 << 12), \\
        mock.patch.object(eventlog, "WRITE_BLOCK_RECORDS", 1 << 10), \\
        mock.patch.object(eventlog, "READ_BLOCK_CHARS", 1 << 14):
    for n_slots, ini in zip((2_000, 10_000, 100_000), inis):
        out = f"{root}/{n_slots}"
        for command, args in (("simulate", ["--config", ini]),
                              ("estimate", ["--log", f"{out}/events.jsonl"])):
            tracemalloc.start()
            assert main([command, *args, "--out-dir", out]) == 0
            peaks[f"{command} {n_slots}"] = tracemalloc.get_traced_memory()[1]
            sites[command] = [str(stat) for stat in
                              tracemalloc.take_snapshot().statistics("lineno")[:5]]
            tracemalloc.stop()
print(json.dumps({"peaks": peaks, "sites": sites}))
"""


def test_simulate_and_estimate_memory_is_flat_in_slot_count(tmp_path):
    """Small chunks and blocks, so both commands' traced peak is set by one
    block, not by the slot count.  The runs are made in a fresh interpreter,
    so no earlier test's state enters a peak."""
    src = str(Path(entscope.__file__).resolve().parents[1])
    inis = [with_run(tmp_path, n_slots=n_slots) for n_slots in (2_000, 10_000, 100_000)]
    child = subprocess.run([sys.executable, "-c", _FLAT_IN_SLOTS, str(tmp_path), *inis],
                           check=True, capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src})
    report = json.loads(child.stdout.splitlines()[-1])
    peaks = report["peaks"]
    for command in ("simulate", "estimate"):
        assert peaks[f"{command} 100000"] < 1.5 * peaks[f"{command} 10000"], "\n".join(
            [f"{peaks}", f"top {command} allocation sites held after the 1e5-slot run:",
             *report["sites"][command]])
