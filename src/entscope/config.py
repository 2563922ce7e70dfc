"""INI configuration loading for the command-line tools.

One file can describe a whole scenario; each section feeds one module:

    [run]        seed, out_dir, mode, n_slots
    [scheme]     kind, deltas, p_a, p_e, n_telescopes, w_phases, ...
    [detector]   efficiency, dark_prob_per_window, photon_number_resolving
    [source]     point | binary | points file | pgm file (+ pixel_scale)
    [baseline]   vector, wavelength (or positions for telescope arrays)
    [repeater]   segments, length_km, distill_rounds, schedule, ...
    [sensitivity] budget preset name plus field overrides
    [reconstruct] grid, pixel_scale

Unknown keys raise ConfigError naming the section and field, so typos do
not silently fall back to defaults.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import fields as dataclass_fields, replace

from .errors import ConfigError
from .fock import DetectorModel
from .repeater import ChainPolicy, LinkModel
from .schemes import SchemeConfig
from .sensitivity import SensitivityBudget
from .sky import Baseline, SourceModel, load_pgm, load_point_sources

_KNOWN_KEYS = {
    "run": {"seed", "out_dir", "mode", "n_slots"},
    "scheme": {"kind", "deltas", "p_a", "p_e", "n_telescopes", "w_phases",
               "double_pair_prob", "coherence_time", "jitter_sigma",
               "arrival_offset", "bell_complete"},
    "detector": {"efficiency", "dark_prob_per_window",
                 "photon_number_resolving"},
    "source": {"kind", "separation", "ratio", "points", "pgm", "pixel_scale"},
    "baseline": {"vector", "wavelength", "positions"},
    "repeater": {"segments", "length_km", "attenuation_db_per_km",
                 "extra_transmission", "satellite", "phase_noise_sigma",
                 "distill_rounds", "schedule", "double_excitation_weight",
                 "n_trials", "efficiency", "bandwidth_nm"},
    "sensitivity": {"budget", "wavelength", "bandwidth_nm",
                    "aperture_diameter", "rate", "efficiency",
                    "dark_counts_per_s", "timing_fwhm",
                    "atmospheric_coherence_time", "min_events", "zero_point",
                    "n_channels"},
    "reconstruct": {"grid", "pixel_scale"},
}


def load_config(path) -> configparser.ConfigParser:
    """Parse an INI file, turning parser problems into ConfigError with
    file/line context and rejecting unknown sections or keys."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(
                    f"{path}: unknown field [{section}] {key} "
                    f"(known: {', '.join(sorted(_KNOWN_KEYS[section]))})")
    return parser


def _get(parser, section, key, conv, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] {key}: required field is missing")
        return default
    raw = parser.get(section, key)
    try:
        value = conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc
    # One check for every float field and float list: nan and inf are never valid.
    if any(isinstance(v, float) and not math.isfinite(v)
           for v in (value if isinstance(value, tuple) else (value,))):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _deltas(raw: str) -> tuple[float, ...]:
    toks = raw.replace(",", " ").split()
    if len(toks) == 1 and "." not in toks[0] and toks[0].isdigit():
        n = int(toks[0])
        return tuple(2.0 * math.pi * k / n for k in range(n))
    return tuple(float(tok) for tok in toks)


def build_detector(parser) -> DetectorModel:
    if not parser.has_section("detector"):
        return DetectorModel()
    efficiency = _get(parser, "detector", "efficiency", float, 1.0)
    dark = _get(parser, "detector", "dark_prob_per_window", float, 0.0)
    resolving = _get(parser, "detector", "photon_number_resolving", _bool, False)
    try:
        return DetectorModel(efficiency=efficiency, dark_prob_per_window=dark,
                             photon_number_resolving=resolving)
    except ValueError as exc:
        raise ConfigError(f"[detector] {exc}") from exc


def build_scheme(parser) -> SchemeConfig:
    if not parser.has_section("scheme"):
        raise ConfigError("missing [scheme] section")
    kind = _get(parser, "scheme", "kind", str, required=True)
    n_telescopes = _get(parser, "scheme", "n_telescopes", int, 2)
    default_phases = (0.0,) * n_telescopes if kind == "w_state" else ()
    detector = build_detector(parser)
    # _get errors name [scheme] already; SchemeConfig's checks need the prefix.
    settings = dict(
        kind=kind,
        delta_schedule=_get(parser, "scheme", "deltas", _deltas, (0.0,)),
        p_a=_get(parser, "scheme", "p_a", float, 1.0),
        p_e=_get(parser, "scheme", "p_e", float, 1.0),
        n_telescopes=n_telescopes,
        w_phases=_get(parser, "scheme", "w_phases", _float_list, default_phases),
        detector=detector,
        double_pair_prob=_get(parser, "scheme", "double_pair_prob", float, 0.0),
        coherence_time=_get(parser, "scheme", "coherence_time", float, 0.0),
        jitter_sigma=_get(parser, "scheme", "jitter_sigma", float, 0.0),
        arrival_offset=_get(parser, "scheme", "arrival_offset", float, 0.0),
        bell_complete=_get(parser, "scheme", "bell_complete", _bool, False),
    )
    try:
        return SchemeConfig(**settings)
    except ConfigError as exc:
        raise ConfigError(f"[scheme] {exc}") from exc


def build_source(parser, base_dir) -> SourceModel:
    if not parser.has_section("source"):
        return SourceModel.point()
    kind = _get(parser, "source", "kind", str, "point")
    try:
        if kind == "point":
            return SourceModel.point()
        if kind == "binary":
            separation = _get(parser, "source", "separation", float, required=True)
            ratio = _get(parser, "source", "ratio", float, 1.0)
            return SourceModel.binary(separation, ratio)
        if kind == "points":
            rel = _get(parser, "source", "points", str, required=True)
            return load_point_sources(os.path.join(base_dir, rel))
        if kind == "pgm":
            rel = _get(parser, "source", "pgm", str, required=True)
            pixel_scale = _get(parser, "source", "pixel_scale", float, required=True)
            return SourceModel(grid=load_pgm(os.path.join(base_dir, rel)),
                               pixel_scale=pixel_scale)
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[source] {exc}") from exc
    raise ConfigError(f"[source] kind: unknown source kind {kind!r}")


def _wavelength(parser) -> float:
    wavelength = _get(parser, "baseline", "wavelength", float, 800e-9)
    if not wavelength > 0:
        raise ConfigError(f"[baseline] wavelength: must be positive, got {wavelength}")
    return wavelength


def build_geometry(parser, scheme: SchemeConfig, source: SourceModel | None = None):
    """Baseline for two-telescope schemes, (positions, wavelength) for
    telescope arrays.  With a source, its 1-D or 2-D angles must match the
    baselines' dimension."""
    if not parser.has_section("baseline"):
        raise ConfigError("missing [baseline] section")
    wavelength = _wavelength(parser)
    if scheme.kind == "w_state":
        key = "positions"
        positions = _get(parser, "baseline", key, _float_list, required=True)
        if len(positions) != scheme.n_telescopes:
            raise ConfigError("[baseline] positions: need one position per "
                              "telescope")
        geometry, two_d = (positions, wavelength), False
    else:
        key = "vector"
        vector = _get(parser, "baseline", key, _float_list, required=True)
        if len(vector) not in (1, 2):
            raise ConfigError("[baseline] vector: expected one or two components")
        two_d = len(vector) == 2
        geometry = Baseline(tuple(vector) if two_d else vector[0], wavelength)
    if source is not None and source.two_d != two_d:
        dims = "2-D" if source.two_d else "1-D"
        raise ConfigError(f"[baseline] {key}: a {dims} source needs {dims} baselines")
    return geometry


def build_chain(parser):
    """(segments, links, policy, n_trials, efficiency, bandwidth_nm)."""
    if not parser.has_section("repeater"):
        raise ConfigError("missing [repeater] section")
    segments = _get(parser, "repeater", "segments", int, required=True)
    if segments < 1:
        raise ConfigError("[repeater] segments: must be >= 1")
    length = _get(parser, "repeater", "length_km", float, 0.0)
    attenuation = _get(parser, "repeater", "attenuation_db_per_km", float, 0.2)
    extra = _get(parser, "repeater", "extra_transmission", float, 1.0)
    if _get(parser, "repeater", "satellite", _bool, False):
        extra = extra * LinkModel.satellite(0.0).extra_transmission
    sigma = _get(parser, "repeater", "phase_noise_sigma", float, 0.0)
    try:
        link = LinkModel(length_km=length, attenuation_db_per_km=attenuation,
                         extra_transmission=extra, phase_noise_sigma=sigma)
    except ConfigError as exc:
        raise ConfigError(f"[repeater] {exc}") from exc
    schedule = _get(parser, "repeater", "schedule", str, "memory")
    if schedule not in ("memory", "memoryless"):
        raise ConfigError("[repeater] schedule: expected 'memory' or "
                          "'memoryless'")
    policy = ChainPolicy(
        distill_rounds=_get(parser, "repeater", "distill_rounds", _int_list, ()),
        with_memory=(schedule == "memory"),
        double_excitation_weight=_get(parser, "repeater",
                                      "double_excitation_weight", float, 0.0),
    )
    n_trials = _get(parser, "repeater", "n_trials", int, 2000)
    if n_trials < 1:
        raise ConfigError("[repeater] n_trials: must be >= 1")
    efficiency = _get(parser, "repeater", "efficiency", float, 0.5)
    bandwidth = _get(parser, "repeater", "bandwidth_nm", float, 0.1)
    return segments, [link] * segments, policy, n_trials, efficiency, bandwidth


def build_budget(parser) -> SensitivityBudget:
    base_name = "default"
    if parser.has_section("sensitivity"):
        base_name = _get(parser, "sensitivity", "budget", str, "default")
    budget = budget_preset(base_name)
    if not parser.has_section("sensitivity"):
        return budget
    overrides = {}
    for f in dataclass_fields(SensitivityBudget):
        if not parser.has_option("sensitivity", f.name):
            continue
        conv = int if f.type == "int" else float
        overrides[f.name] = _get(parser, "sensitivity", f.name, conv)
    try:
        return replace(budget, **overrides)
    except ConfigError as exc:
        raise ConfigError(f"[sensitivity] {exc}") from exc


def budget_preset(name: str) -> SensitivityBudget:
    if name == "default":
        return SensitivityBudget()
    if name == "improved":
        return SensitivityBudget.improved()
    raise ConfigError(f"[sensitivity] budget: unknown preset {name!r} "
                      f"(known: default, improved)")


def build_reconstruct(parser) -> tuple[int, float, float]:
    """(grid, pixel_scale, wavelength); the wavelength comes from [baseline]."""
    if not parser.has_section("reconstruct"):
        raise ConfigError("missing [reconstruct] section")
    grid = _get(parser, "reconstruct", "grid", int, required=True)
    if grid < 2:
        raise ConfigError("[reconstruct] grid: must be >= 2")
    pixel_scale = _get(parser, "reconstruct", "pixel_scale", float,
                       required=True)
    if pixel_scale <= 0:
        raise ConfigError("[reconstruct] pixel_scale: must be positive")
    return grid, pixel_scale, _wavelength(parser)


def run_options(parser, seed_override=None, out_dir_override=None,
                mode_override=None):
    """(seed, out_dir, mode, n_slots); the seed must come from the config or
    the command line, never from the clock."""
    seed = seed_override
    if seed is None:
        seed = _get(parser, "run", "seed", int)
    if seed is None:
        raise ConfigError("[run] seed: required (pass it in the config or "
                          "with --seed; runs are never clock-seeded)")
    out_dir = out_dir_override or _get(parser, "run", "out_dir", str, "out")
    mode = mode_override or _get(parser, "run", "mode", str, "monte-carlo")
    if mode not in ("monte-carlo", "analytic"):
        raise ConfigError("[run] mode: expected 'monte-carlo' or 'analytic'")
    n_slots = _get(parser, "run", "n_slots", int, 100_000)
    return seed, out_dir, mode, n_slots
