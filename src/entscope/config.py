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
not silently fall back to defaults, and so does a [scheme] or [detector] key
that the scheme's run does not read (schemes.FIELDS_READ), even at its default.
"""
from __future__ import annotations

import configparser
import math
import os
import sys
from dataclasses import fields as dataclass_fields, replace

from . import fock, repeater, schemes, sensitivity, sky
from .errors import ConfigError


def _names(*classes) -> set[str]:
    return {f.name for cls in classes for f in dataclass_fields(cls)}


# The keys of each section.  [detector], [scheme], [repeater] and [sensitivity]
# keys are their dataclasses' fields, less those set another way, plus the keys
# that are no field.  Each entry is called only for a section a file has, so
# loading a file runs the model modules of its own sections only.
_KNOWN_KEYS = {
    "run": lambda: {"seed", "out_dir", "mode", "n_slots"},
    "scheme": lambda: _names(schemes.SchemeConfig) - {"delta_schedule", "detector"} | {"deltas"},
    "detector": lambda: _names(fock.DetectorModel),
    "source": lambda: {"kind", "separation", "ratio", "points", "pgm", "pixel_scale"},
    "baseline": lambda: {"vector", "wavelength", "positions"},
    "repeater": lambda: (_names(repeater.LinkModel, repeater.ChainPolicy) - {"with_memory"}
                         | {"segments", "schedule", "n_trials", "efficiency", "bandwidth_nm"}),
    "sensitivity": lambda: _names(sensitivity.SensitivityBudget) | {"budget"},
    "reconstruct": lambda: {"grid", "pixel_scale"},
}


# What each error configparser raises on reading means, most specific first.
_PARSE_PROBLEMS = (
    (configparser.MissingSectionHeaderError, "line before any [section] header"),
    (configparser.ParsingError, "not a [section] header, key = value or comment"),
    (configparser.DuplicateSectionError, "section given twice"),
    (configparser.DuplicateOptionError, "key given twice in its section"),
)


def load_config(path) -> configparser.ConfigParser:
    """Parse an INI file, turning parser problems into one-line ConfigErrors
    naming the file and line, and rejecting unknown sections or keys.  A
    leading UTF-8 byte-order mark is skipped.  Values are literal, and the
    default section is "", which no header spells, so [DEFAULT] is an
    unknown section too."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        lineno = exc.lineno if hasattr(exc, "lineno") else exc.errors[0][0]
        problem = next(what for kind, what in _PARSE_PROBLEMS if isinstance(exc, kind))
        line = text.split("\n")[lineno - 1].strip()
        raise ConfigError(f"{path}: line {lineno}: {problem}: {line!r}") from exc
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = _KNOWN_KEYS[section]()
        for key in parser[section]:
            if key not in known:
                raise ConfigError(
                    f"{path}: unknown field [{section}] {key} "
                    f"(known: {', '.join(sorted(known))})")
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


def build_detector(parser) -> fock.DetectorModel:
    return _build("detector", fock.DetectorModel,
                  **_fields(parser, "detector", fock.DetectorModel))


def build_scheme(parser) -> schemes.SchemeConfig:
    if not parser.has_section("scheme"):
        raise ConfigError("missing [scheme] section")
    kind = _get(parser, "scheme", "kind", str, required=True)
    settings = _fields(parser, "scheme", schemes.SchemeConfig)
    for key in parser["scheme"]:
        why = schemes.unread(kind, settings.get("bell_complete", False),
                             settings.get("coherence_time", 0.0),
                             "delta_schedule" if key == "deltas" else key)
        if why:
            raise ConfigError(f"[scheme] {key}: {why}")
    if parser.has_option("scheme", "deltas"):
        settings["delta_schedule"] = _get(parser, "scheme", "deltas", _deltas)
    scheme = _build("scheme", schemes.SchemeConfig, detector=build_detector(parser), **settings)
    # [detector] keys set the field detector, refused like [scheme] keys even at
    # their defaults; SchemeConfig above already refused an off-default detector.
    keys = list(parser["detector"]) if parser.has_section("detector") else []
    why = schemes.unread(kind, scheme.bell_complete, scheme.coherence_time, "detector")
    if keys and why:
        raise ConfigError(f"[detector] {keys[0]}: {why}")
    return scheme


def build_source(parser, base_dir) -> sky.SourceModel:
    if not parser.has_section("source"):
        return sky.SourceModel.point()
    kind = _get(parser, "source", "kind", str, "point")
    try:
        if kind == "point":
            return sky.SourceModel.point()
        if kind == "binary":
            separation = _get(parser, "source", "separation", float, required=True)
            ratio = _get(parser, "source", "ratio", float, 1.0)
            return sky.SourceModel.binary(separation, ratio)
        if kind == "points":
            rel = _get(parser, "source", "points", str, required=True)
            return sky.load_point_sources(os.path.join(base_dir, rel))
        if kind == "pgm":
            rel = _get(parser, "source", "pgm", str, required=True)
            pixel_scale = _get(parser, "source", "pixel_scale", float, required=True)
            return sky.SourceModel(grid=sky.load_pgm(os.path.join(base_dir, rel)),
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


def build_geometry(parser, scheme: schemes.SchemeConfig, source: sky.SourceModel | None = None):
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
    else:
        key = "vector"
        vector = _get(parser, "baseline", key, _float_list, required=True)
        if len(vector) not in (1, 2):
            raise ConfigError("[baseline] vector: expected one or two components")
        two_d = len(vector) == 2
        geometry = sky.Baseline(tuple(vector) if two_d else vector[0], wavelength)
    if source is not None:
        if source.two_d != two_d:
            dims = "2-D" if source.two_d else "1-D"
            raise ConfigError(f"[baseline] {key}: a {dims} source needs {dims} baselines")
        # The telescope pairs i < j, in one array, as simulate samples them.
        vectors = schemes.pair_baselines(positions)[2] if key == "positions" else [geometry.vector]
        _build("baseline", sky.visibilities, source, vectors, wavelength)
    return geometry


def build_chain(parser):
    """(segments, link, policy, n_trials, efficiency, bandwidth_nm), parsed only;
    the chain's rules, and the link on every segment, are chain_simulate's."""
    if not parser.has_section("repeater"):
        raise ConfigError("missing [repeater] section")
    segments = _get(parser, "repeater", "segments", int, required=True)
    link = _build("repeater", repeater.LinkModel,
                  **_fields(parser, "repeater", repeater.LinkModel))
    schedule = _get(parser, "repeater", "schedule", str, "memory")
    if schedule not in ("memory", "memoryless"):
        raise ConfigError("[repeater] schedule: expected 'memory' or "
                          "'memoryless'")
    policy = _build("repeater", repeater.ChainPolicy, with_memory=(schedule == "memory"),
                    **_fields(parser, "repeater", repeater.ChainPolicy))
    n_trials = _get(parser, "repeater", "n_trials", int, 2000)
    if n_trials < 1:
        raise ConfigError("[repeater] n_trials: must be >= 1")
    efficiency = _get(parser, "repeater", "efficiency", float, 0.5)
    bandwidth = _get(parser, "repeater", "bandwidth_nm", float, 0.1)
    _build("repeater", repeater.figure_of_merit, 0.0, efficiency, bandwidth)  # its range checks
    return segments, link, policy, n_trials, efficiency, bandwidth


def build_budget(parser) -> sensitivity.SensitivityBudget:
    if not parser.has_section("sensitivity"):
        raise ConfigError("missing [sensitivity] section")
    budget = budget_preset(_get(parser, "sensitivity", "budget", str, "default"))
    return _build("sensitivity", replace, budget,
                  **_fields(parser, "sensitivity", sensitivity.SensitivityBudget))


def budget_preset(name: str) -> sensitivity.SensitivityBudget:
    if name == "default":
        return sensitivity.SensitivityBudget()
    if name == "improved":
        return sensitivity.SensitivityBudget.improved()
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
    # below this bound, so they are finite where it is; so are their grid
    # indices b * grid * pixel_scale / wavelength in `reconstruct_image`.
    if not math.isfinite(grid * wavelength / pixel_scale):
        raise ConfigError(f"[baseline] wavelength: grid * wavelength / pixel_scale overflows "
                          f"at wavelength {wavelength!r}, grid {grid}, "
                          f"pixel_scale {pixel_scale!r}")
    return grid, pixel_scale, wavelength


def out_dir(parser, override=None, default="out"):
    """The artifact directory: the command-line override, else [run] out_dir,
    else default."""
    return override or _get(parser, "run", "out_dir", str, default)


def run_options(parser, out_dir_override=None):
    """(seed, out_dir, mode, n_slots); the seed is a 64-bit [run] seed, never
    the clock, and each seed keys its own Philox stream."""
    seed = _get(parser, "run", "seed", int)
    if seed is None:
        raise ConfigError("[run] seed: required (runs are never clock-seeded)")
    if not 0 <= seed < 2**64:  # rng.stream keys Philox with the seed's low 64 bits
        raise ConfigError(f"[run] seed: must be in [0, 2**64 - 1], got {seed}")
    mode = _get(parser, "run", "mode", str, "monte-carlo")
    if mode not in ("monte-carlo", "analytic"):
        raise ConfigError("[run] mode: expected 'monte-carlo' or 'analytic'")
    n_slots = _get(parser, "run", "n_slots", int, 100_000)
    return seed, out_dir(parser, out_dir_override), mode, n_slots
