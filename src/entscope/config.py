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
import sys
from dataclasses import fields as dataclass_fields, replace

from .errors import ConfigError
from .fock import DetectorModel
from .repeater import ChainPolicy, LinkModel, figure_of_merit
from .schemes import SchemeConfig
from .sensitivity import SensitivityBudget
from .sky import Baseline, SourceModel, load_pgm, load_point_sources, visibilities


def _names(*classes) -> set[str]:
    return {f.name for cls in classes for f in dataclass_fields(cls)}


# [detector], [scheme], [repeater] and [sensitivity] keys are their dataclasses'
# fields, less those set another way, plus the keys that are no field.
_KNOWN_KEYS = {
    "run": {"seed", "out_dir", "mode", "n_slots"},
    "scheme": _names(SchemeConfig) - {"delta_schedule", "detector"} | {"deltas"},
    "detector": _names(DetectorModel),
    "source": {"kind", "separation", "ratio", "points", "pgm", "pixel_scale"},
    "baseline": {"vector", "wavelength", "positions"},
    "repeater": (_names(LinkModel, ChainPolicy) - {"with_memory"}
                 | {"segments", "satellite", "schedule", "n_trials", "efficiency",
                    "bandwidth_nm"}),
    "sensitivity": _names(SensitivityBudget) | {"budget"},
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
    # One check for every float field and float list: nan and inf are never
    # valid, nor subnormals, which the formulas (1 / x, x * x) take to inf or 0.
    for v in (value if isinstance(value, tuple) else (value,)):
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
        if isinstance(v, float) and 0.0 < abs(v) < sys.float_info.min:
            raise ConfigError(f"[{section}] {key}: must be 0 or at least "
                              f"{sys.float_info.min:.6g} in magnitude, got {raw!r}")
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


# Parser for each field annotation a config key can have.
_CONVERTERS = {
    "float": float, "int": int, "bool": _bool, "str": str,
    "tuple[float, ...]": _float_list,
    "tuple[int, ...]": lambda raw: tuple(map(int, raw.replace(",", " ").split())),
}


def _fields(parser, section, cls) -> dict:
    """The keys of [section] that name fields of cls, parsed by annotation;
    an absent key is left out, so its default stays cls's."""
    return {f.name: _get(parser, section, f.name, _CONVERTERS[f.type])
            for f in dataclass_fields(cls) if parser.has_option(section, f.name)}


def _build(section, factory, *args, **settings):
    """factory(*args, **settings), its ValueError naming the section."""
    try:
        return factory(*args, **settings)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _deltas(raw: str) -> tuple[float, ...]:
    toks = raw.replace(",", " ").split()
    if len(toks) == 1 and "." not in toks[0] and toks[0].isdigit():
        n = int(toks[0])
        return tuple(2.0 * math.pi * k / n for k in range(n))
    return tuple(float(tok) for tok in toks)


def build_detector(parser) -> DetectorModel:
    return _build("detector", DetectorModel, **_fields(parser, "detector", DetectorModel))


# The [scheme] keys each kind reads besides those every kind reads or checks;
# bell_complete = true counts as a kind, and an unknown kind reads every key.
_EVERY_KIND = {"kind", "n_telescopes", "bell_complete", "coherence_time",
               "jitter_sigma", "arrival_offset"}
_SCHEME_KEYS = {
    "kind=direct": {"deltas", "p_a"},
    "kind=hbt": {"deltas", "p_a", "double_pair_prob"},
    "kind=entangled": {"deltas", "p_a", "p_e", "double_pair_prob"},
    "kind=weak_coherent": {"deltas", "p_a", "p_e", "double_pair_prob"},
    "kind=w_state": {"w_phases"},
    "bell_complete": {"deltas"},
}


def build_scheme(parser) -> SchemeConfig:
    if not parser.has_section("scheme"):
        raise ConfigError("missing [scheme] section")
    kind = _get(parser, "scheme", "kind", str, required=True)
    settings = _fields(parser, "scheme", SchemeConfig)
    reader = ("bell_complete" if kind == "entangled" and settings.get("bell_complete")
              else f"kind={kind}")
    used = _EVERY_KIND | _SCHEME_KEYS.get(reader, _KNOWN_KEYS["scheme"])
    for key in parser["scheme"]:
        if key not in used:
            raise ConfigError(f"[scheme] {key}: {reader} does not use it")
    if parser.has_option("scheme", "deltas"):
        settings["delta_schedule"] = _get(parser, "scheme", "deltas", _deltas)
    if kind == "w_state" and "w_phases" not in settings:
        n_telescopes = settings.get("n_telescopes", SchemeConfig.n_telescopes)
        settings["w_phases"] = (0.0,) * n_telescopes
    return _build("scheme", SchemeConfig, detector=build_detector(parser), **settings)


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
    baselines' dimension, and its visibilities on them must be finite."""
    if not parser.has_section("baseline"):
        raise ConfigError("missing [baseline] section")
    wavelength = _wavelength(parser)
    if scheme.kind == "w_state":
        key = "positions"
        positions = _get(parser, "baseline", key, _float_list, required=True)
        if len(positions) != scheme.n_telescopes:
            raise ConfigError("[baseline] positions: need one position per "
                              "telescope")
        if not math.isfinite(max(positions) - min(positions)):
            raise ConfigError(f"[baseline] positions: pairwise differences must be finite, "
                              f"got {max(positions)!r} - {min(positions)!r}")
        geometry, two_d = (positions, wavelength), False
        vectors = [a - b for a in positions for b in positions]
    else:
        key = "vector"
        vector = _get(parser, "baseline", key, _float_list, required=True)
        if len(vector) not in (1, 2):
            raise ConfigError("[baseline] vector: expected one or two components")
        two_d = len(vector) == 2
        geometry = Baseline(tuple(vector) if two_d else vector[0], wavelength)
        vectors = [geometry.vector]
    if source is not None:
        if source.two_d != two_d:
            dims = "2-D" if source.two_d else "1-D"
            raise ConfigError(f"[baseline] {key}: a {dims} source needs {dims} baselines")
        _build("baseline", visibilities, source, vectors, wavelength)
    return geometry


def build_chain(parser):
    """(segments, links, policy, n_trials, efficiency, bandwidth_nm)."""
    if not parser.has_section("repeater"):
        raise ConfigError("missing [repeater] section")
    segments = _get(parser, "repeater", "segments", int, required=True)
    if segments < 1:
        raise ConfigError("[repeater] segments: must be >= 1")
    link = _fields(parser, "repeater", LinkModel)
    if _get(parser, "repeater", "satellite", _bool, False):
        extra = link.get("extra_transmission", LinkModel.extra_transmission)
        link["extra_transmission"] = extra * LinkModel.satellite().extra_transmission
    link = _build("repeater", LinkModel, **link)
    schedule = _get(parser, "repeater", "schedule", str, "memory")
    if schedule not in ("memory", "memoryless"):
        raise ConfigError("[repeater] schedule: expected 'memory' or "
                          "'memoryless'")
    policy = _build("repeater", ChainPolicy, with_memory=(schedule == "memory"),
                    **_fields(parser, "repeater", ChainPolicy))
    n_trials = _get(parser, "repeater", "n_trials", int, 2000)
    if n_trials < 1:
        raise ConfigError("[repeater] n_trials: must be >= 1")
    efficiency = _get(parser, "repeater", "efficiency", float, 0.5)
    bandwidth = _get(parser, "repeater", "bandwidth_nm", float, 0.1)
    _build("repeater", figure_of_merit, 0.0, efficiency, bandwidth)  # its range checks
    return segments, [link] * segments, policy, n_trials, efficiency, bandwidth


def build_budget(parser) -> SensitivityBudget:
    budget = budget_preset(_get(parser, "sensitivity", "budget", str, "default"))
    return _build("sensitivity", replace, budget,
                  **_fields(parser, "sensitivity", SensitivityBudget))


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
    wavelength = _wavelength(parser)
    # Imaging baselines reach grid // 2 * wavelength / (grid * pixel_scale),
    # and their grid indices are those times grid * pixel_scale / wavelength.
    if not math.isfinite(grid * wavelength / pixel_scale):
        raise ConfigError(f"[baseline] wavelength: grid * wavelength / pixel_scale overflows "
                          f"at wavelength {wavelength!r}, grid {grid}, "
                          f"pixel_scale {pixel_scale!r}")
    return grid, pixel_scale, wavelength


def out_dir(parser, override=None, default="out"):
    """The artifact directory: the command-line override, else [run] out_dir,
    else default."""
    return override or _get(parser, "run", "out_dir", str, default)


def run_options(parser, seed_override=None, out_dir_override=None):
    """(seed, out_dir, mode, n_slots); the seed must come from the config or
    the command line, never from the clock."""
    seed = seed_override
    if seed is None:
        seed = _get(parser, "run", "seed", int)
    if seed is None:
        raise ConfigError("[run] seed: required (pass it in the config or "
                          "with --seed; runs are never clock-seeded)")
    mode = _get(parser, "run", "mode", str, "monte-carlo")
    if mode not in ("monte-carlo", "analytic"):
        raise ConfigError("[run] mode: expected 'monte-carlo' or 'analytic'")
    n_slots = _get(parser, "run", "n_slots", int, 100_000)
    return seed, out_dir(parser, out_dir_override), mode, n_slots

