"""Command-line interface: simulate, estimate, repeater, sensitivity,
reconstruct, oracle-check.

Every emitted file starts with a schema-version line: JSON-lines logs carry
it in the header object, CSV files as a leading '# <schema>' comment line,
and graymaps as the comment line right after the P2 magic (the magic has to
come first for the format to stay readable by standard tools).

All randomness flows from the configured master seed through named
substreams; nothing reads the clock, so equal (config, seed) pairs give
byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from . import config as cfg
from .errors import ConfigError, InfeasibleBudgetError, LowStatisticsError
from .estimation import dirty_image, fit_fringe, grid_visibilities
from .eventlog import FringeCounter, JsonlWriter
from .repeater import chain_simulate, figure_of_merit
from .rng import stream
from .schemes import simulate_chunks
from .sensitivity import limiting_magnitude
from .sky import save_pgm, visibilities

SUMMARY_CSV_SCHEMA = "entscope.delta-summary-csv.v1"
PAIR_CSV_SCHEMA = "entscope.pair-summary-csv.v1"
FIT_CSV_SCHEMA = "entscope.fringe-fit-csv.v1"
CHAIN_CSV_SCHEMA = "entscope.chain-csv.v1"
BUDGET_CSV_SCHEMA = "entscope.budget-csv.v1"
IMAGE_PGM_SCHEMA = "entscope.image-pgm.v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LOW_STATISTICS = 3
EXIT_INFEASIBLE = 4


class InputError(ValueError):
    """An input file, such as an event log, cannot be read or fitted."""


@contextlib.contextmanager
def _writing(path):
    """Report an OSError while writing the artifact at path as an input error."""
    try:
        yield
    except OSError as exc:  # a directory in the way, no permission, a full disk
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path, schema: str, header: list[str], rows) -> None:
    with _writing(path), open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"# {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _ensure_out_dir(out_dir: str) -> str:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise InputError(f"cannot make output directory {out_dir}: {exc.strerror}") from exc
    return out_dir


def _delta_summary_rows(deltas, successes, totals):
    return [[f"{float(d):.12g}", int(s), int(t - s), int(t)]
            for d, s, t in zip(deltas, successes, totals)]


def cmd_simulate(args) -> int:
    parser = cfg.load_config(args.config)
    scheme = cfg.build_scheme(parser)
    source = cfg.build_source(parser, os.path.dirname(os.path.abspath(args.config)))
    geometry = cfg.build_geometry(parser, scheme, source)
    seed, out_dir, mode, n_slots = cfg.run_options(parser, args.seed, args.out_dir)
    if mode != "monte-carlo":
        raise ConfigError(f"[run] mode: simulate samples events; {mode!r} "
                          f"applies to repeater only")
    if args.n_slots is not None:
        n_slots = args.n_slots
    if n_slots <= 0:
        raise ConfigError(f"n_slots: must be positive, got {n_slots}")
    out_dir = _ensure_out_dir(out_dir)
    fields, blocks = simulate_chunks(scheme, source, geometry, n_slots, seed)
    counter = FringeCounter(scheme.kind, scheme.delta_schedule,
                            scheme.n_telescopes if scheme.kind == "w_state" else None)
    log_path = os.path.join(out_dir, "events.jsonl")
    with _writing(log_path), open(log_path, "w", encoding="ascii") as fh:
        writer = JsonlWriter(fh, **fields)
        for block in blocks:
            writer.write(*block)
            counter.add(*block)
    if scheme.kind == "w_state":
        rows = [[i, j, c, t] for (i, j), (c, t) in counter.pairs().items()]
        _write_csv(os.path.join(out_dir, "summary.csv"), PAIR_CSV_SCHEMA,
                   ["tel_i", "tel_j", "correlated", "accepted"], rows)
    else:
        _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_CSV_SCHEMA,
                   ["delta", "correlated", "anticorrelated", "accepted"],
                   _delta_summary_rows(*counter.counts()))
    print(f"simulated {n_slots} slots ({scheme.kind}); {int(counter.total.sum())} accepted "
          f"coincidences -> {log_path}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    try:
        counter = FringeCounter.from_jsonl(args.log)
    except (OSError, TypeError, ValueError, KeyError) as exc:
        raise InputError(f"unreadable event log {args.log}: "
                         f"{type(exc).__name__}: {exc}") from exc
    try:
        fit = fit_fringe(*counter.counts())
    except ValueError as exc:
        raise InputError(f"cannot fit event log {args.log}: {exc}") from exc
    out_dir = _ensure_out_dir(args.out_dir or "out")
    rows = [[f"{d:.12g}", s, t] for d, s, t in fit.table]
    _write_csv(os.path.join(out_dir, "fringe_fit.csv"), FIT_CSV_SCHEMA,
               ["delta", "correlated", "accepted"], rows)
    print(f"V_hat = {fit.visibility.real:+.6f}{fit.visibility.imag:+.6f}j  "
          f"|V| = {fit.amplitude:.6f} +- {fit.amplitude_error:.6f}  "
          f"arg V = {fit.phase:+.6f} +- {fit.phase_error:.6f}  "
          f"({fit.accepted} accepted events)")
    return EXIT_OK


def cmd_repeater(args) -> int:
    parser = cfg.load_config(args.config)
    segments, links, policy, n_trials, efficiency, bandwidth = cfg.build_chain(parser)
    seed, out_dir, mode, _ = cfg.run_options(parser, args.seed, args.out_dir)
    rng = stream(seed) if mode == "monte-carlo" else None
    result = chain_simulate(segments, links, policy, rng=rng, n_trials=n_trials)
    out_dir = _ensure_out_dir(out_dir)
    merit = figure_of_merit(result.rate, efficiency, bandwidth)
    policy_label = (f"{'memory' if policy.with_memory else 'memoryless'}"
                    f"/distill={','.join(map(str, policy.distill_rounds)) or 'none'}")
    _write_csv(os.path.join(out_dir, "chain.csv"), CHAIN_CSV_SCHEMA,
               ["segments", "policy", "rate", "fidelity", "merit_nm"],
               [[segments, policy_label, f"{result.rate:.9e}",
                 f"{result.fidelity:.9f}", f"{merit:.9e}"]])
    print(f"segments={segments} policy={policy_label} r={result.rate:.6e} "
          f"F={result.fidelity:.6f} s={merit:.6e} nm")
    return EXIT_OK


def _budget_rows(budget) -> list[list[str]]:
    m_lim = limiting_magnitude(budget)
    rows = [
        ["wavelength_nm", f"{budget.wavelength * 1e9:.6g}"],
        ["bandwidth_nm", f"{budget.bandwidth_nm:.6g}"],
        ["aperture_diameter_m", f"{budget.aperture_diameter:.6g}"],
        ["rate", f"{budget.rate:.6g}"],
        ["efficiency", f"{budget.efficiency:.6g}"],
        ["dark_counts_per_s", f"{budget.dark_counts_per_s:.6g}"],
        ["timing_fwhm_ps", f"{budget.timing_fwhm * 1e12:.6g}"],
        ["atmospheric_coherence_time_ms",
         f"{budget.atmospheric_coherence_time * 1e3:.6g}"],
        ["min_events", str(budget.min_events)],
        ["n_channels", str(budget.n_channels)],
        ["merit_nm", f"{budget.merit_nm:.6g}"],
        ["limiting_magnitude", f"{m_lim:.2f}"],
    ]
    return rows


def cmd_sensitivity(args) -> int:
    if args.config:
        parser = cfg.load_config(args.config)
        budget = cfg.build_budget(parser)
        out_dir = cfg.out_dir(parser, args.out_dir, None)
    else:
        budget = cfg.budget_preset(args.budget)
        out_dir = args.out_dir
    rows = _budget_rows(budget)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if out_dir:
        out_dir = _ensure_out_dir(out_dir)
        _write_csv(os.path.join(out_dir, "budget.csv"), BUDGET_CSV_SCHEMA,
                   ["quantity", "value"], rows)
    return EXIT_OK


def _check_field_of_view(source, grid: int, pixel_scale: float) -> None:
    """Raise unless every source point, or nonzero pgm pixel, lies within half
    a pixel of the outermost pixel centres, (i - grid//2) * pixel_scale."""
    if source.points is not None:
        angles = np.array([t for t, _ in source.points], dtype=float)
    else:  # the nonzero pixels
        angles = (np.argwhere(source.grid) - np.array(source.grid.shape) // 2) * source.pixel_scale
    lo, hi = (-(grid // 2) - 0.5) * pixel_scale, (grid - 1 - grid // 2 + 0.5) * pixel_scale
    outside = angles[((angles < lo) | (angles > hi)).reshape(len(angles), -1).any(axis=1)]
    if len(outside):
        raise ConfigError(f"[reconstruct] source at {outside[0].tolist()} rad lies outside the "
                          f"field of view [{lo:.6g}, {hi:.6g}] rad per axis "
                          f"(grid {grid}, pixel_scale {pixel_scale:g})")


def _full_grid_image(source, grid: int, pixel_scale: float, wavelength: float) -> np.ndarray:
    """The dirty image of the source's visibilities on every baseline of the
    grid; the baselines and visibilities are dropped before the inverse DFT."""
    unit = wavelength / (grid * pixel_scale)
    axis = np.arange(-(grid // 2), grid - grid // 2) * unit
    vectors = axis
    if source.two_d:  # row i * grid + j is (axis[i], axis[j])
        vectors = np.empty((grid, grid, 2))
        vectors[..., 0] = axis[:, None]
        vectors[..., 1] = axis
        vectors = vectors.reshape(-1, 2)
    try:
        values = visibilities(source, vectors, wavelength)
    except ValueError as exc:  # a phase overflows
        raise ConfigError(f"[baseline] wavelength: {exc}") from exc
    try:
        samples = grid_visibilities(vectors, wavelength, values, grid, pixel_scale)
        del vectors, values
        return dirty_image(samples).reshape(-1, grid)
    except ValueError as exc:
        # An even grid's Nyquist samples are real only for a source on the
        # pixel grid.
        raise ConfigError(f"[reconstruct] {exc}") from exc


def cmd_reconstruct(args) -> int:
    parser = cfg.load_config(args.config)
    source = cfg.build_source(parser, os.path.dirname(os.path.abspath(args.config)))
    grid, pixel_scale, wavelength = cfg.build_reconstruct(parser)
    _check_field_of_view(source, grid, pixel_scale)
    try:
        image = _full_grid_image(source, grid, pixel_scale, wavelength)
    except MemoryError as exc:  # numpy's request for a grid-sized array was refused
        raise ConfigError(f"[reconstruct] grid: {grid} is too large to image: {exc}") from exc
    out_dir = _ensure_out_dir(cfg.out_dir(parser, args.out_dir))
    path = os.path.join(out_dir, "image.pgm")
    with _writing(path):
        save_pgm(path, image, comment=IMAGE_PGM_SCHEMA)
    peak = np.unravel_index(np.argmax(image), image.shape)
    print(f"reconstructed {image.shape[0]}x{image.shape[1]} image -> {path} "
          f"(peak at pixel {tuple(int(p) for p in peak)})")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    from . import oracle

    failures, lines = oracle.run_all()
    for line in lines:
        print(line)
    if failures:
        print(f"{failures} oracle comparison group(s) FAILED")
        return 1
    print("all oracle comparisons passed")
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--config", required=True, help="INI scenario file")
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (overrides [run] seed)")
    sub.add_argument("--out-dir", default=None,
                     help="artifact directory (overrides [run] out_dir)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entscope",
        description="Entangled-state interferometry: simulation, estimation, "
                    "repeater chains, sensitivity budgets, imaging.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run a measurement scheme, write "
                                           "event log + per-delta summary")
    _add_common(sim)
    sim.add_argument("--n-slots", type=int, default=None,
                     help="override [run] n_slots")
    sim.set_defaults(func=cmd_simulate)

    est = subs.add_parser("estimate", help="fit a visibility from an event log")
    est.add_argument("--log", required=True, help="events.jsonl from simulate")
    est.add_argument("--out-dir", default=None)
    est.set_defaults(func=cmd_estimate)

    rep = subs.add_parser("repeater", help="chain rate/fidelity + figure of merit")
    _add_common(rep)
    rep.set_defaults(func=cmd_repeater)

    sen = subs.add_parser("sensitivity", help="detection budget table")
    sen.add_argument("--config", default=None, help="INI file with [sensitivity]")
    sen.add_argument("--budget", default="default",
                     help="preset name when no config given (default, improved)")
    sen.add_argument("--out-dir", default=None)
    sen.set_defaults(func=cmd_sensitivity)

    rec = subs.add_parser("reconstruct", help="forward-model visibilities on a "
                                              "full grid and invert to an image")
    rec.add_argument("--config", required=True)
    rec.add_argument("--out-dir", default=None)
    rec.set_defaults(func=cmd_reconstruct)

    orc = subs.add_parser("oracle-check", help="run analytic-vs-circuit "
                                               "verification grids")
    orc.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LowStatisticsError as exc:
        print(f"low statistics: {exc}", file=sys.stderr)
        return EXIT_LOW_STATISTICS
    except InfeasibleBudgetError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
