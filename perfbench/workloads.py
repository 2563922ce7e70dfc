"""Seeded inputs and output checks for the entscope benchmark.

Each workload writes its INI files (and, for imaging, its point-source file)
from the benchmark seed; the program sees only those files.  A workload's
reason for being in the benchmark sits next to its definition, and every
command's output check sits next to the command.

Only configuration keys and CLI flags that are meant to outlive planned
deletions are used: no `threads` key or `--threads` flag, and Monte Carlo
mode is chosen by `[run] mode`, never by `--monte-carlo`.
"""
from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Seed at which the artifact hashes in references.json were recorded.
DEFAULT_SEED = 1

N_SLOTS = 1_000_000
REPEATER_TRIALS = 3000
IMAGE_GRID = 256
IMAGE_PIXEL_SCALE = 0.3125e-9  # rad/pixel
WAVELENGTH = 800e-9
BASELINE_M = 100.0
MAGNITUDE_WINDOWS = {"default": (6.0, 9.0), "improved": (10.5, 13.5)}


@dataclass(frozen=True)
class Command:
    """One `entscope` CLI invocation.

    argv uses "{out}" for the artifact root, so the same command can write
    into different roots (plain and traced runs).  check(root, stdout)
    returns a failure message or None.  metric names the per-command
    end-to-end timing the command adds to, if any.
    """

    label: str
    argv: tuple[str, ...]
    artifacts: tuple[str, ...]
    check: Callable[[Path, str], str | None]
    metric: str | None = None

    def args(self, root: Path) -> list[str]:
        return [a.replace("{out}", str(root)) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple[Path, ...]  # INI files whose loading setup_s times
    commands: tuple[Command, ...]


def _write_ini(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="ascii")
    return path


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="ascii", newline="") as fh:
        schema = fh.readline()
        if not schema.startswith("# entscope."):
            raise ValueError(f"{path.name}: missing schema line")
        return list(csv.DictReader(fh))


def _checked(fn: Callable[[Path, str], str | None]) -> Callable[[Path, str], str | None]:
    """Turn a missing or malformed artifact into a failure message."""
    def check(root: Path, stdout: str) -> str | None:
        try:
            return fn(root, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return check


def _entscope():
    """The package under test, imported lazily for checks that need it."""
    import entscope
    return entscope


# ---------------------------------------------------------------------------
# Event-log pipelines: simulate then estimate
# ---------------------------------------------------------------------------

def _source(rng: random.Random) -> dict[str, object]:
    # Separations keep |V| well away from 0 so the fitted phase is defined.
    return {"kind": "binary", "separation": repr(rng.uniform(1.5e-9, 3.0e-9)),
            "ratio": repr(rng.uniform(0.5, 1.0))}


def _pipeline(name: str, why: str, work: Path, seed: int, scheme: dict,
              detector: dict, n_deltas: int, fit_check) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    source = _source(rng)
    ini = _write_ini(work / f"{name}.ini", {
        "run": {"seed": rng.randrange(1, 2**31), "n_slots": N_SLOTS},
        "scheme": dict(scheme, deltas=n_deltas),
        "detector": detector,
        "source": source,
        "baseline": {"vector": BASELINE_M, "wavelength": WAVELENGTH},
    })

    @_checked
    def check_simulate(root: Path, stdout: str) -> str | None:
        rows = _read_csv(root / "summary.csv")
        if len(rows) != n_deltas:
            return f"summary.csv has {len(rows)} rows, expected {n_deltas}"
        if not (root / "events.jsonl").stat().st_size:
            return "events.jsonl is empty"
        return None

    @_checked
    def check_estimate(root: Path, stdout: str) -> str | None:
        fit = _read_csv(root / "fringe_fit.csv")
        summary = _read_csv(root / "summary.csv")
        fitted = sum(int(r["accepted"]) for r in fit)
        simulated = sum(int(r["accepted"]) for r in summary)
        if fitted != simulated:
            return f"fit saw {fitted} accepted events, simulate wrote {simulated}"
        return fit_check(source, stdout)

    return Workload(name, why, (ini,), (
        Command("simulate", ("simulate", "--config", str(ini), "--out-dir", "{out}"),
                ("events.jsonl", "summary.csv"), check_simulate, "simulate_s"),
        Command("estimate", ("estimate", "--log", "{out}/events.jsonl", "--out-dir", "{out}"),
                ("fringe_fit.csv",), check_estimate, "estimate_s"),
    ))


_FIT_LINE = re.compile(r"\|V\| = (\S+) \+- (\S+)\s+arg V = (\S+) \+- (\S+)")


def _fit_within_5_sigma(source: dict, stdout: str) -> str | None:
    """Fitted V against sky.visibility for the generated source/baseline."""
    match = _FIT_LINE.search(stdout)
    if not match:
        return "estimate printed no fit"
    amp, amp_err, phase, phase_err = map(float, match.groups())
    es = _entscope()
    v = es.visibility(es.SourceModel.binary(float(source["separation"]),
                                            float(source["ratio"])),
                      es.Baseline(BASELINE_M, WAVELENGTH))
    d_amp = abs(amp - abs(v))
    d_phase = abs(math.remainder(phase - math.atan2(v.imag, v.real), 2 * math.pi))
    if d_amp > 5 * amp_err or d_phase > 5 * phase_err:
        return (f"fit |V|={amp} arg={phase} is not within 5 sigma of "
                f"V={v:.6f} (sigma {amp_err}, {phase_err})")
    return None


def _fit_present(source: dict, stdout: str) -> str | None:
    return None if _FIT_LINE.search(stdout) else "estimate printed no fit"


def entangled_1e6(work: Path, seed: int) -> Workload:
    # The log is ~100 MB (about 1.5e6 records), so writing and parsing it
    # dominate: this is where event-log I/O work must show.
    return _pipeline(
        "entangled-1e6",
        "I/O-bound: 1e6 slots, ~1.5e6 records, ~100 MB log; eventlog write/read dominate",
        work, seed, {"kind": "entangled"},
        {"efficiency": 1.0, "dark_prob_per_window": 0.0}, 8, _fit_within_5_sigma)


def faint_wc_128(work: Path, seed: int) -> Workload:
    # Same layers as entangled-1e6, used differently: a ~10x smaller log per
    # slot, and sampling scans each chunk once per delay, so the time moves
    # into schemes (outcome tables, sampling) instead of I/O.
    return _pipeline(
        "faint-wc-128",
        "sampling-bound: weak-coherent, 128 delays, lossy noisy detectors; small log, time in schemes",
        work, seed, {"kind": "weak_coherent", "p_a": 0.1, "p_e": 0.1},
        {"efficiency": 0.7, "dark_prob_per_window": 1e-4}, 128, _fit_present)


# ---------------------------------------------------------------------------
# Repeater chains
# ---------------------------------------------------------------------------

# (label, segments, distill_rounds)
CHAINS = (("seg16_d1", 16, "1"), ("seg8_d11", 8, "1,1"))


def _chain_row(root: Path, label: str) -> dict[str, str]:
    rows = _read_csv(root / label / "chain.csv")
    if len(rows) != 1:
        raise ValueError(f"{label}/chain.csv has {len(rows)} rows")
    return rows[0]


def repeater_mc(work: Path, seed: int) -> Workload:
    # Repeater only: no event log and no Fock sampling, so a change to the
    # chain sampler shows here and nowhere else.  Link physics is fixed; the
    # seed drives the Monte Carlo draws, so the work per run is comparable.
    rng = random.Random(f"repeater-mc/{seed}")
    configs, commands = [], []
    for label, segments, rounds in CHAINS:
        chain_seed = rng.randrange(1, 2**31)
        for mode in ("monte-carlo", "analytic"):
            tag = "mc" if mode == "monte-carlo" else "analytic"
            ini = _write_ini(work / f"{label}_{tag}.ini", {
                "run": {"seed": chain_seed, "mode": mode},
                "repeater": {"segments": segments, "length_km": 10.0,
                             "attenuation_db_per_km": 0.2,
                             "phase_noise_sigma": 0.35, "schedule": "memory",
                             "distill_rounds": rounds,
                             "n_trials": REPEATER_TRIALS,
                             "efficiency": 0.5, "bandwidth_nm": 0.1},
            })
            configs.append(ini)
            commands.append(Command(
                f"repeater.{label}.{tag}",
                ("repeater", "--config", str(ini), "--out-dir", f"{{out}}/{label}_{tag}"),
                (f"{label}_{tag}/chain.csv",),
                _check_chain(label, tag),
                "repeater_mc_s" if tag == "mc" else None))
    return Workload(
        "repeater-mc",
        "repeater only: Monte Carlo chains at 16 and 8 segments plus analytic twins; no log, no Fock sampling",
        tuple(configs), tuple(commands))


def _check_chain(label: str, tag: str):
    @_checked
    def check(root: Path, stdout: str) -> str | None:
        row = _chain_row(root, f"{label}_{tag}")
        if not 0.0 < float(row["rate"]) <= 1.0:
            return f"rate {row['rate']} out of (0, 1]"
        if tag == "analytic":
            mc = _chain_row(root, f"{label}_mc")
            if mc["fidelity"] != row["fidelity"]:
                return (f"fidelity differs: Monte Carlo {mc['fidelity']}, "
                        f"analytic {row['fidelity']}")
        return None
    return check


# ---------------------------------------------------------------------------
# Verification and imaging
# ---------------------------------------------------------------------------

def verify_image(work: Path, seed: int) -> Workload:
    # Covers the Fock engine without sampling (oracle), plus sky,
    # estimation.reconstruct_image and sensitivity; without it these layers
    # go unmeasured.
    rng = random.Random(f"verify-image/{seed}")
    half = IMAGE_GRID // 2
    bright = (rng.randint(-48, 48), rng.randint(-48, 48))
    faint = bright
    while faint == bright:
        faint = (rng.randint(-48, 48), rng.randint(-48, 48))
    points = work / "points.txt"
    points.write_text(
        "# theta_x [rad]  theta_y [rad]  intensity\n"
        f"{bright[0] * IMAGE_PIXEL_SCALE!r} {bright[1] * IMAGE_PIXEL_SCALE!r} 1.0\n"
        f"{faint[0] * IMAGE_PIXEL_SCALE!r} {faint[1] * IMAGE_PIXEL_SCALE!r} "
        f"{rng.uniform(0.3, 0.7)!r}\n", encoding="ascii")
    image_ini = _write_ini(work / "reconstruct.ini", {
        "source": {"kind": "points", "points": points.name},
        "baseline": {"wavelength": WAVELENGTH},
        "reconstruct": {"grid": IMAGE_GRID, "pixel_scale": repr(IMAGE_PIXEL_SCALE)},
    })
    expected_peak = (half + bright[0], half + bright[1])

    @_checked
    def check_oracle(root: Path, stdout: str) -> str | None:
        passed = sum(line.rstrip().endswith("PASS") for line in stdout.splitlines())
        if "all oracle comparisons passed" not in stdout or passed != 6:
            return f"oracle-check reported {passed} of 6 groups passed"
        return None

    @_checked
    def check_image(root: Path, stdout: str) -> str | None:
        import numpy as np
        image = _entscope().load_pgm(root / "image.pgm")
        peak = tuple(int(i) for i in np.unravel_index(np.argmax(image), image.shape))
        if image.shape != (IMAGE_GRID, IMAGE_GRID) or peak != expected_peak:
            return f"image {image.shape} peaks at {peak}, expected {expected_peak}"
        return None

    configs, commands = [image_ini], [
        Command("oracle-check", ("oracle-check",), (), check_oracle, "oracle_check_s"),
        Command("reconstruct", ("reconstruct", "--config", str(image_ini), "--out-dir", "{out}"),
                ("image.pgm",), check_image, "reconstruct_s"),
    ]
    for budget, window in MAGNITUDE_WINDOWS.items():
        ini = _write_ini(work / f"sensitivity_{budget}.ini", {"sensitivity": {"budget": budget}})
        configs.append(ini)
        commands.append(Command(
            f"sensitivity.{budget}",
            ("sensitivity", "--config", str(ini), "--out-dir", f"{{out}}/{budget}"),
            (f"{budget}/budget.csv",), _check_magnitude(window)))
    return Workload(
        "verify-image",
        "oracle grids, 256x256 two-point reconstruction and both sensitivity budgets; Fock without sampling, sky, imaging",
        tuple(configs), tuple(commands))


def _check_magnitude(window: tuple[float, float]):
    @_checked
    def check(root: Path, stdout: str) -> str | None:
        match = re.search(r"^limiting_magnitude\s+(\S+)$", stdout, re.MULTILINE)
        if not match:
            return "sensitivity printed no limiting magnitude"
        m_lim = float(match.group(1))
        if not window[0] <= m_lim <= window[1]:
            return f"limiting magnitude {m_lim} outside {window}"
        return None
    return check


WORKLOADS = {
    "entangled-1e6": entangled_1e6,
    "faint-wc-128": faint_wc_128,
    "repeater-mc": repeater_mc,
    "verify-image": verify_image,
}
