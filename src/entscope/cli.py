"""Command-line interface: simulate, estimate, repeater, sensitivity,
reconstruct, oracle-check.

Every emitted file starts with a schema-version line: JSON-lines logs carry
it in the header object, CSV files as a leading '# <schema>' comment line,
and graymaps as the comment line right after the P2 magic (the magic has to
come first for the format to stay readable by standard tools).

All randomness flows from the scenario file's master seed through named
substreams; nothing reads the clock and no flag overrides the file, so
equal scenario files give byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

from . import config as cfg, estimation, eventlog, oracle, repeater, rng, schemes, sensitivity, sky
from .errors import ConfigError, InfeasibleBudgetError, LowStatisticsError

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
    seed, out_dir, mode, n_slots = cfg.run_options(parser, args.out_dir)
    if mode != "monte-carlo":
        raise ConfigError(f"[run] mode: simulate samples events; {mode!r} "
                          f"applies to repeater only")
    if not 0 < n_slots < 2**63:  # the event log's slots are int64
        raise ConfigError(f"n_slots: must be in [1, 2**63 - 1], got {n_slots}")
    try:
        geometry = cfg.build_geometry(parser, scheme, source)
        fields, blocks = schemes.simulate_chunks(scheme, source, geometry, n_slots, seed)
    except MemoryError as exc:  # numpy's request for a pair-sized array was refused
        raise ConfigError(f"[scheme] n_telescopes: {scheme.n_telescopes} telescopes are too "
                          f"many to simulate: {exc}") from exc
    out_dir = _ensure_out_dir(out_dir)
    counter = eventlog.FringeCounter(scheme.kind, scheme.delta_schedule,
                                     scheme.n_telescopes if scheme.kind == "w_state" else None)
    log_path = os.path.join(out_dir, "events.jsonl")
    with _writing(log_path), open(log_path, "wb") as fh:
        writer = eventlog.JsonlWriter(fh, **fields)
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
        counter = eventlog.FringeCounter.from_jsonl(args.log)
    except (OSError, TypeError, ValueError, KeyError, OverflowError, RecursionError) as exc:
        raise InputError(f"unreadable event log {args.log}: "
                         f"{type(exc).__name__}: {exc}") from exc
    try:
        fit = estimation.fit_fringe(*counter.counts())
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
    segments, link, policy, n_trials, efficiency, bandwidth = cfg.build_chain(parser)
    seed, out_dir, mode, _ = cfg.run_options(parser, args.out_dir)
    generator = rng.stream(seed) if mode == "monte-carlo" else None
    result = repeater.chain_simulate(segments, link, policy, rng=generator,
                                     n_trials=n_trials)
    out_dir = _ensure_out_dir(out_dir)
    merit = repeater.figure_of_merit(result.rate, efficiency, bandwidth)
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
    m_lim = sensitivity.limiting_magnitude(budget)
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
    parser = cfg.load_config(args.config)
    budget = cfg.build_budget(parser)
    out_dir = cfg.out_dir(parser, args.out_dir, None)
    rows = _budget_rows(budget)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if out_dir:
        out_dir = _ensure_out_dir(out_dir)
        _write_csv(os.path.join(out_dir, "budget.csv"), BUDGET_CSV_SCHEMA,
                   ["quantity", "value"], rows)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    parser = cfg.load_config(args.config)
    source = cfg.build_source(parser, os.path.dirname(os.path.abspath(args.config)))
    grid, pixel_scale, wavelength = cfg.build_reconstruct(parser)
    try:
        estimation.check_field_of_view(source, grid, pixel_scale)
    except ValueError as exc:
        raise ConfigError(f"[reconstruct] {exc}") from exc
    try:
        try:
            samples = estimation.full_grid_samples(source, grid, pixel_scale, wavelength)
        except ValueError as exc:  # a phase overflows
            raise ConfigError(f"[baseline] wavelength: {exc}") from exc
        try:
            image = estimation.dirty_image(samples).reshape(-1, grid)
        except ValueError as exc:
            # An even grid's Nyquist samples are real only for a source on the
            # pixel grid.
            raise ConfigError(f"[reconstruct] {exc}") from exc
        del samples  # the complex grid, before the image is written
    except MemoryError as exc:  # numpy's request for a grid-sized array was refused
        raise ConfigError(f"[reconstruct] grid: {grid} is too large to image: {exc}") from exc
    out_dir = _ensure_out_dir(cfg.out_dir(parser, args.out_dir))
    path = os.path.join(out_dir, "image.pgm")
    with _writing(path):
        sky.save_pgm(path, image, comment=IMAGE_PGM_SCHEMA)
    peak = divmod(int(image.argmax()), image.shape[1])
    print(f"reconstructed {image.shape[0]}x{image.shape[1]} image -> {path} "
          f"(peak at pixel {peak})")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    failures, lines = oracle.run_all()
    for line in lines:
        print(line)
    if failures:
        print(f"{failures} oracle comparison group(s) FAILED")
        return 1
    print("all oracle comparisons passed")
    return EXIT_OK


def _add_common(sub, func):
    sub.add_argument("--config", required=True, help="INI scenario file")
    sub.add_argument("--out-dir", default=None,
                     help="artifact directory (overrides [run] out_dir)")
    sub.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entscope",
        description="Entangled-state interferometry: simulation, estimation, "
                    "repeater chains, sensitivity budgets, imaging.")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("simulate", help="run a measurement scheme, write "
                                                 "event log + per-delta summary"), cmd_simulate)

    est = subs.add_parser("estimate", help="fit a visibility from an event log")
    est.add_argument("--log", required=True, help="events.jsonl from simulate")
    est.add_argument("--out-dir", default=None)
    est.set_defaults(func=cmd_estimate)

    _add_common(subs.add_parser("repeater", help="chain rate/fidelity + figure of merit"),
                cmd_repeater)
    _add_common(subs.add_parser("sensitivity", help="detection budget table"), cmd_sensitivity)
    _add_common(subs.add_parser("reconstruct", help="forward-model visibilities on a full "
                                                    "grid and invert to an image"),
                cmd_reconstruct)

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
