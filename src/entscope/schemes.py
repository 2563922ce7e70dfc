"""Interferometric measurement schemes and their event statistics.

Covers four ways of turning starlight into fringe data:

* direct detection -- recombine the two collection modes on one beam splitter,
* entangled coincidence -- interfere each collection mode with one arm of a
  distributed single-photon resource and post-select on one click per site,
* weak coherent reference -- same optics with faint laser light standing in
  for the shared single photon,
* intensity correlation (photon bunching across the two sites).

Each scheme has closed-form per-slot probabilities plus a Monte Carlo
(`simulate_chunks`, whose record blocks `simulate_run` joins) that samples
the exact click-pattern distribution of the corresponding few-mode circuit,
so analytic and sampled statistics agree by construction and both can be
checked against the Fock simulator.  One builder (`_circuit_outcomes`) makes
the per-delay outcome lists of every scheme but the telescope array, as
(probability, records, accepted) tuples; accepted = one click per telescope,
read off the (telescope, detector) records.

Per-slot event model for faint sources: time is discretized into coherence
slots.  Leading-order photon-number cases (single astronomical photon, single
reference photon, one of each, two of a kind) are mutually exclusive
alternatives with the stated rates; the two-of-a-kind astronomical case
carries the bunching enhancement of chaotic light.  Case rates assume
p_a, p_e << 1 and are enforced below 0.2.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from . import eventlog, rng as rngmod
from .errors import ConfigError
from .fock import (
    DensityOperator,
    DetectorModel,
    EntangledPairState,
    IDEAL_DETECTOR,
    apply_beam_splitter,
    apply_phase,
    outcome_distribution,
)
from .sky import (Baseline, SourceModel, arrival_density_matrix, check_visibility,
                  visibilities, visibility)

MAX_FAINT_PROB = 0.2
WARN_FAINT_PROB = 0.1

# Slots per deterministic sampling partition (one RNG substream each).
CHUNK_SLOTS = 1 << 16
# Slots per record block simulate_chunks yields; bounds its memory, changes no draw.
PIECE_SLOTS = 1 << 12


# ---------------------------------------------------------------------------
# Closed-form per-slot statistics
# ---------------------------------------------------------------------------

def _fringe(v: complex, delta: float) -> float:
    """Re(v e^{-i delta}), the fringe term of the closed forms below."""
    return (v * np.exp(-1j * delta)).real


def direct_detection_probs(v: complex, delta: float) -> tuple[float, float]:
    """Single-photon interferometer port probabilities.

    Port 1 fires with probability [1 + Re(v e^{-i delta})]/2.
    """
    v = check_visibility(v)
    p1 = 0.5 * (1.0 + _fringe(v, delta))
    return float(p1), float(1.0 - p1)


@dataclass(frozen=True)
class CoincidenceProbs:
    acceptance: float
    correlated: float
    anticorrelated: float


def entangled_coincidence_probs(v: complex, delta: float) -> CoincidenceProbs:
    """Shared-single-photon scheme: acceptance and conditional correlations.

    Half of all slots put one photon on each side (acceptance 1/2); given
    acceptance, the two sites fire matching detectors with probability
    [1 + Re(v e^{-i delta})]/2.
    """
    v = check_visibility(v)
    corr = 0.5 * (1.0 + _fringe(v, delta))
    return CoincidenceProbs(acceptance=0.5, correlated=float(corr),
                            anticorrelated=float(1.0 - corr))


def _check_faint(name: str, p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= MAX_FAINT_PROB:
        raise ValueError(f"{name} must be in [0, {MAX_FAINT_PROB}] "
                         f"(faint-source regime), got {p}")
    if p > WARN_FAINT_PROB:
        warnings.warn(f"{name}={p} is large for the leading-order faint-source "
                      f"statistics", stacklevel=3)
    return p


@dataclass(frozen=True)
class WeakCoherentStats:
    p_total_coincidence: float
    p_correlated: float
    p_anticorrelated: float
    visibility_factor: float


def weak_coherent_stats(p_a: float, p_e: float, v: complex, delta: float) -> WeakCoherentStats:
    """Leading-order coincidence statistics with a weak coherent reference.

    Per slot, with mean astronomical/reference photon numbers p_a and p_e
    (split between the two sites), the one-click-per-side cases are: one of
    each (p_a p_e / 2, carrying the fringe), two reference photons (p_e^2/4),
    and two astronomical photons (p_a^2 (1 + Re v)/4, bunching-enhanced).
    The fringe amplitude is suppressed by visibility_factor
    = 2 p_a p_e / [p_e^2 + p_a^2 (1 + Re v) + 2 p_a p_e].
    """
    p_a = _check_faint("p_a", p_a)
    p_e = _check_faint("p_e", p_e)
    v = check_visibility(v)
    fringe = _fringe(v, delta)
    background = p_e**2 + p_a**2 * (1.0 + v.real) + 2.0 * p_a * p_e
    p_total = p_a * p_e / 2.0 + p_e**2 / 4.0 + p_a**2 * (1.0 + v.real) / 4.0
    p_corr = (background + 2.0 * p_a * p_e * fringe) / 8.0
    vf = 0.0 if background == 0.0 else 2.0 * p_a * p_e / background
    return WeakCoherentStats(
        p_total_coincidence=float(p_total),
        p_correlated=float(p_corr),
        p_anticorrelated=float(p_total - p_corr),
        visibility_factor=float(vf),
    )


def optimal_p_e(p_a: float, v: complex) -> float:
    """Reference brightness maximizing the visibility factor at fixed p_a.

    The factor 2 p_a p_e / [p_e^2 + p_a^2 (1 + Re v) + 2 p_a p_e] peaks at
    p_e = p_a sqrt(1 + Re v), clamped to the faint-source domain.
    """
    p_a = float(p_a)
    if not 0.0 < p_a <= MAX_FAINT_PROB:
        raise ValueError(f"p_a must be in (0, {MAX_FAINT_PROB}], got {p_a}")
    v = check_visibility(v)
    return float(min(p_a * math.sqrt(max(1.0 + v.real, 0.0)), MAX_FAINT_PROB))


def hbt_coincidence_prob(p_a: float, v: complex) -> float:
    """Two-site intensity-correlation (bunching) coincidence probability.

    p_a^2 (1 + Re v) / 4 per slot for chaotic light of mean photon number
    p_a split between the sites.
    """
    p_a = _check_faint("p_a", p_a)
    v = check_visibility(v)
    return float(p_a**2 * (1.0 + v.real) / 4.0)


@dataclass(frozen=True)
class WStateProbs:
    discard: float
    correlated: float
    anticorrelated: float


def w_state_probs(n: int, v_ij: complex, delta_i: float, delta_j: float) -> WStateProbs:
    """Telescope-array statistics with a shared single photon over n sites.

    Both photons land on the same site (discard) with probability 1/n.
    Conditional on occupying the pair (i, j), the sites correlate with
    probability [1 + Re(v_ij e^{-i(delta_i - delta_j)})]/2.
    """
    if n < 2:
        raise ValueError(f"need at least 2 telescopes, got {n}")
    v_ij = check_visibility(v_ij)
    corr = 0.5 * (1.0 + _fringe(v_ij, delta_i - delta_j))
    return WStateProbs(discard=1.0 / n, correlated=float(corr),
                       anticorrelated=float(1.0 - corr))


def temporal_overlap_factor(coherence_time: float, jitter_sigma: float,
                            arrival_offset: float = 0.0) -> float:
    """Interference-visibility multiplier for imperfect temporal mode overlap.

    Gaussian wavepacket model: photons of coherence time tau_c with relative
    timing jitter sigma_t and mean offset dt overlap with amplitude
    exp(-dt^2 / (2 (tau_c^2 + sigma_t^2))) * tau_c / sqrt(tau_c^2 + sigma_t^2).
    Equals 1 for perfectly matched photons and 1/sqrt(2) at sigma_t = tau_c.
    """
    tau = float(coherence_time)
    sig = float(jitter_sigma)
    dt = float(arrival_offset)
    if tau <= 0.0:
        raise ValueError(f"coherence_time must be positive, got {tau}")
    if sig < 0.0:
        raise ValueError(f"jitter_sigma must be non-negative, got {sig}")
    width2 = tau * tau + sig * sig
    if not 0.0 < width2 < math.inf:
        raise ValueError(f"coherence_time^2 + jitter_sigma^2 "
                         f"{'underflows to 0' if width2 == 0.0 else 'overflows'} at "
                         f"coherence_time {tau!r}, jitter_sigma {sig!r}")
    return float(math.exp(-dt * dt / (2.0 * width2)) * tau / math.sqrt(width2))


# ---------------------------------------------------------------------------
# Exact few-mode circuits (the oracle route for everything above)
# ---------------------------------------------------------------------------

def resource_state(delta: float) -> DensityOperator:
    """Distributed single photon (|0,1> + e^{i delta}|1,0>)/sqrt(2), site-L arm
    delayed: the perfect pair of the pair family at phase delta."""
    return EntangledPairState(phase=delta).to_density()


def lab_pair_state(delta: float) -> DensityOperator:
    """Two-photon component of the split coherent reference (L arm delayed)."""
    return DensityOperator.pure(2, 2, {
        (0, 2): 0.5,
        (1, 1): np.exp(1j * delta) / math.sqrt(2.0),
        (2, 0): np.exp(2j * delta) * 0.5,
    })


def hbt_pair_state(v: complex) -> DensityOperator:
    """Two chaotic-light photons shared between the sites, visibility v.

    Built from independent-emission pairs c+(phi) c+(0)|0> with the site-L
    phase phi drawn from a two-point distribution of mean v, weighted by the
    bosonic pair-production rate (no per-pair renormalization), then
    normalized.  The one-photon-per-site weight is (1 + Re v)/(3 + Re v).
    """
    v = check_visibility(v)
    spread = math.acos(min(abs(v), 1.0))
    phases = [np.angle(v) + spread, np.angle(v) - spread] if abs(v) > 0 else [
        math.pi / 2.0, -math.pi / 2.0]
    terms = []
    total = 0.0
    for phi in phases:
        ket = {
            (0, 2): math.sqrt(2.0) / 2.0,
            (1, 1): (1.0 + np.exp(1j * phi)) / 2.0,
            (2, 0): math.sqrt(2.0) * np.exp(1j * phi) / 2.0,
        }
        weight = 0.5
        terms.append(weight * DensityOperator.pure(2, 2, ket).matrix)
        # sqrt(sum) ** 2 and the bare sum round differently; this keeps the tables' bits.
        total += weight * math.sqrt(sum(abs(a) ** 2 for a in ket.values())) ** 2
    # Not summed onto zeros: 0.0 + -0.0 is +0.0, which would flip sign bits.
    return DensityOperator(2, 2, (terms[0] + terms[1]) / total)


def astro_pair_rate(p_a: float, v: complex) -> float:
    """Per-slot rate of two-astronomical-photon events (bunching included)."""
    return float(p_a**2 * (3.0 + complex(v).real) / 4.0)


def two_telescope_distribution(rho_astro: DensityOperator | None,
                               rho_ref: DensityOperator | None,
                               detector: DetectorModel = IDEAL_DETECTOR,
                               ) -> dict[tuple[int, ...], float]:
    """Click-pattern table of the two-site interference circuit.

    Mode order (astro_L, astro_R, ref_L, ref_R); each site mixes its astro and
    reference modes on a balanced splitter, all four outputs are detected.
    Detector ids per site: 1 = astro-port output, 2 = reference-port output.
    None inputs mean vacuum.
    """
    astro = rho_astro if rho_astro is not None else DensityOperator.vacuum(2, 0)
    ref = rho_ref if rho_ref is not None else DensityOperator.vacuum(2, 0)
    joint = astro.tensor(ref)
    joint = apply_beam_splitter(joint, 0, 2, 0.5)
    joint = apply_beam_splitter(joint, 1, 3, 0.5)
    return outcome_distribution(joint, detector)


def direct_distribution(v: complex, delta: float,
                        detector: DetectorModel = IDEAL_DETECTOR,
                        ) -> dict[tuple[int, ...], float]:
    """Click-pattern table of the direct-detection circuit (modes = 2 ports).

    The recombining splitter carries a fixed pi/2 internal phase so that port
    1 realizes [1 + Re(v e^{-i delta})]/2 under the package splitter
    convention.
    """
    rho = arrival_density_matrix(v)
    rho = apply_phase(rho, 1, delta)
    rho = apply_beam_splitter(rho, 0, 1, 0.5, phase=math.pi / 2.0)
    return outcome_distribution(rho, detector)


def classify_pattern(pattern: tuple[int, ...]) -> tuple[bool, bool]:
    """(accepted, correlated) for a 4-mode two-site click pattern."""
    l_astro, r_astro, l_ref, r_ref = (c > 0 for c in pattern)
    accepted = (l_astro ^ l_ref) and (r_astro ^ r_ref)
    correlated = (l_astro and r_astro) or (l_ref and r_ref)
    return accepted, accepted and correlated


# ---------------------------------------------------------------------------
# Scheme configuration and Monte Carlo
# ---------------------------------------------------------------------------

# The SchemeConfig fields each scheme's run reads besides kind and
# coherence_time, which every run reads; bell_complete = true on
# kind=entangled is a scheme of its own.  SchemeConfig refuses an unread
# field off its default, config.build_scheme an unread [scheme] key.
FIELDS_READ = {
    "kind=direct": {"delta_schedule", "p_a", "detector"},
    "kind=hbt": {"delta_schedule", "p_a", "detector", "double_pair_prob"},
    "kind=entangled": {"delta_schedule", "p_a", "p_e", "detector", "double_pair_prob",
                       "bell_complete"},
    "kind=weak_coherent": {"delta_schedule", "p_a", "p_e", "detector", "double_pair_prob"},
    "kind=w_state": {"n_telescopes", "w_phases"},
    "bell_complete": {"delta_schedule", "bell_complete"},
}


def unread(kind: str, bell_complete: bool, coherence_time: float, name: str) -> str | None:
    """Why the run of this scheme does not read the field name, or None; it
    reads jitter_sigma and arrival_offset where coherence_time > 0, and an
    unknown kind reads every field."""
    scheme = "bell_complete" if kind == "entangled" and bell_complete else f"kind={kind}"
    if scheme not in FIELDS_READ or name in FIELDS_READ[scheme] | {"kind", "coherence_time"}:
        return None
    if name in ("jitter_sigma", "arrival_offset"):
        return None if coherence_time > 0 else f"{scheme} does not use it unless coherence_time > 0"
    return f"{scheme} does not use it"


@dataclass(frozen=True)
class SchemeConfig:
    """Per-run measurement configuration.

    p_a / p_e are per-slot source and reference photon probabilities
    (1.0 = ideal deterministic source, allowed for the single-photon
    schemes; the weak-coherent scheme requires the faint regime <= 0.2).
    delta_schedule is cycled slot by slot.  w_phases are the per-telescope
    delay phases of the telescope-array scheme (length n_telescopes, zeros
    when left empty).  double_pair_prob adds uncorrelated reference-pair
    background events.  coherence_time/jitter_sigma/arrival_offset feed the
    temporal overlap factor applied to the visibility (coherence_time 0
    disables it).  bell_complete models a complete two-photon parity
    measurement; it removes the one-click-per-side acceptance loss.
    A field its scheme's run does not read (`unread`) must keep its default,
    so kind=w_state and bell_complete model ideal detectors.
    """

    kind: str
    delta_schedule: tuple[float, ...] = (0.0,)
    p_a: float = 1.0
    p_e: float = 1.0
    n_telescopes: int = 2
    w_phases: tuple[float, ...] = ()
    detector: DetectorModel = IDEAL_DETECTOR
    double_pair_prob: float = 0.0
    coherence_time: float = 0.0
    jitter_sigma: float = 0.0
    arrival_offset: float = 0.0
    bell_complete: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_schedule",
                           tuple(float(d) for d in self.delta_schedule))
        zeros = (0.0,) * self.n_telescopes if self.kind == "w_state" else ()
        object.__setattr__(self, "w_phases", tuple(float(d) for d in self.w_phases) or zeros)
        self.validate()

    def validate(self) -> None:
        if self.kind not in eventlog.SCHEME_KINDS:
            raise ConfigError(f"kind must be one of {eventlog.SCHEME_KINDS}, got {self.kind!r}")
        for f in fields(self):
            why = unread(self.kind, self.bell_complete, self.coherence_time, f.name)
            if why and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name}: {why}")
        if not self.delta_schedule:
            raise ConfigError("delta_schedule must not be empty")
        if not all(math.isfinite(d) for d in self.delta_schedule):
            raise ConfigError("delta_schedule entries must be finite")
        if len(set(self.delta_schedule)) != len(self.delta_schedule):
            raise ConfigError(f"delta_schedule entries must be distinct (-0.0 equals 0.0), "
                              f"got {self.delta_schedule}")
        if not 0.0 <= self.p_a <= 1.0:
            raise ConfigError(f"p_a must be in [0, 1], got {self.p_a}")
        if not 0.0 <= self.p_e <= 1.0:
            raise ConfigError(f"p_e must be in [0, 1], got {self.p_e}")
        if self.kind in ("weak_coherent", "hbt") and self.p_a > MAX_FAINT_PROB:
            raise ConfigError(f"p_a must be <= {MAX_FAINT_PROB} for kind={self.kind}")
        if self.kind == "weak_coherent" and self.p_e > MAX_FAINT_PROB:
            raise ConfigError(f"p_e must be <= {MAX_FAINT_PROB} for kind=weak_coherent")
        if self.kind == "w_state":
            if self.n_telescopes < 2:
                raise ConfigError("n_telescopes must be >= 2 for kind=w_state")
            if len(self.w_phases) != self.n_telescopes:
                raise ConfigError("w_phases must have one entry per telescope")
        if not 0.0 <= self.double_pair_prob < 1.0:
            raise ConfigError("double_pair_prob must be in [0, 1)")
        if self.coherence_time < 0 or self.jitter_sigma < 0:
            raise ConfigError("temporal parameters must be non-negative")
        self.overlap_factor()  # raises where the overlap underflows

    def overlap_factor(self) -> float:
        if self.coherence_time <= 0.0:
            return 1.0
        return temporal_overlap_factor(self.coherence_time, self.jitter_sigma,
                                       self.arrival_offset)


def _pair_outcomes(tel_i: int, tel_j: int, weight: float, correlated: float,
                   anticorrelated: float) -> list[tuple]:
    """Accepted one-click-per-site outcomes of the telescope pair (i < j)."""
    return [(weight * frac, ((tel_i, d_i), (tel_j, d_j)), True) for d_i, d_j, frac in (
        (1, 1, correlated / 2.0), (2, 2, correlated / 2.0),
        (1, 2, anticorrelated / 2.0), (2, 1, anticorrelated / 2.0))]


def _circuit_outcomes(config: SchemeConfig, v: complex, schedule: tuple[float, ...]
                      ) -> list[list[tuple]]:
    """Per-slot outcomes of every scheme but the telescope array, one list
    per delay in schedule.

    Each outcome is (probability, records, accepted): records are the
    (telescope, detector) clicks in that order, and accepted holds when
    every telescope of the layout has exactly one record.  A circuit slot
    mixes exclusive cases, each a click-pattern table (a function of the
    delay where it depends on it); the rest is an empty slot (dark counts).
    """
    det = config.detector
    v_eff = v * config.overlap_factor()
    if config.bell_complete:
        return [_pair_outcomes(0, 1, 1.0, probs.correlated, probs.anticorrelated)
                for probs in (entangled_coincidence_probs(v_eff, d) for d in schedule)]

    if config.kind == "direct":
        # One site; its two ports are detectors 1 and 2.
        mode_records = ((0, 1), (0, 2))
        cases = [(config.p_a, lambda delta: direct_distribution(v_eff, delta, det))]
    else:
        # Detected modes (astro_L, astro_R, ref_L, ref_R) of the two-site
        # circuit.  Inputs are (probability, astro, reference); None is
        # vacuum, and a reference that depends on the delay is a function.
        mode_records = ((0, 1), (1, 1), (0, 2), (1, 2))
        p_a, p_e = config.p_a, config.p_e
        astro, ref = arrival_density_matrix(v_eff), resource_state
        if config.kind == "entangled":
            inputs = [(p_a * p_e, astro, ref)]
            if p_a < 1.0 and p_e > 0.0:
                inputs.append((p_e * (1.0 - p_a), None, ref))
            if p_e < 1.0 and p_a > 0.0:
                inputs.append((p_a * (1.0 - p_e), astro, None))
        elif config.kind == "weak_coherent":
            inputs = [(p_a * p_e, astro, ref),
                      (p_e**2 / 2.0, None, lab_pair_state),
                      (astro_pair_rate(p_a, v_eff), hbt_pair_state(v_eff), None),
                      (p_a * (1.0 - p_e), astro, None),
                      (p_e * (1.0 - p_a), None, ref)]
        else:  # hbt
            inputs = [(astro_pair_rate(p_a, v_eff), hbt_pair_state(v_eff), None),
                      (p_a, astro, None)]
        if config.double_pair_prob > 0.0:
            inputs.append((config.double_pair_prob, None,
                           EntangledPairState(0.0, 0.0, 0.0, 0.0, 1.0).to_density()))

        def table(astro, ref):
            if callable(ref):
                return lambda delta: two_telescope_distribution(astro, ref(delta), det)
            return two_telescope_distribution(astro, ref, det)

        cases = [(p, table(a, r)) for p, a, r in inputs]

    total_case = sum(p for p, _ in cases)
    if total_case > 1.0 + 1e-9:
        raise ConfigError(f"per-slot case probabilities sum to {total_case:.4f} > 1")
    if total_case < 1.0:
        cases.append((1.0 - total_case, outcome_distribution(
            DensityOperator.vacuum(len(mode_records), 0), det)))
    sites = tuple(sorted({tel for tel, _ in mode_records}))

    per_delta = []
    for delta in schedule:
        combined: dict[tuple[int, ...], float] = {}
        for case_prob, dist in cases:
            for pattern, p in (dist(delta) if callable(dist) else dist).items():
                combined[pattern] = combined.get(pattern, 0.0) + case_prob * p
        outcomes = []
        for pattern in sorted(combined):
            if combined[pattern] > 0.0:
                records = tuple(sorted(rec for rec, c in zip(mode_records, pattern) if c))
                outcomes.append((combined[pattern], records,
                                 tuple(tel for tel, _ in records) == sites))
        per_delta.append(outcomes)
    return per_delta


def _w_state_outcomes(config: SchemeConfig, vis: dict[tuple[int, int], complex]
                      ) -> list[tuple]:
    """Per-slot outcomes for the telescope-array scheme (ideal detectors).

    Both photons land on one site with probability 1/n (single merged click,
    not accepted); otherwise the occupied pair is uniform over the n(n-1)/2
    unordered pairs with the pairwise fringe statistics.
    """
    n = config.n_telescopes
    outcomes = [(1.0 / (2.0 * n * n), ((i, d),), False)
                for i in range(n) for d in (1, 2)]
    for (i, j), v_ij in vis.items():
        probs = w_state_probs(n, v_ij * config.overlap_factor(),
                              config.w_phases[i], config.w_phases[j])
        outcomes += _pair_outcomes(i, j, 2.0 / (n * n), probs.correlated,
                                   probs.anticorrelated)
    return outcomes


def pair_baselines(positions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, positions[i] - positions[j]) over the telescope pairs i < j."""
    positions = np.asarray(positions, dtype=float)
    i, j = np.triu_indices(len(positions), 1)
    return i, j, positions[i] - positions[j]


def _pairwise_visibilities(source: SourceModel, positions,
                           wavelength: float) -> dict[tuple[int, int], complex]:
    """{(i, j): V} over the telescope pairs i < j, baseline positions[i] - positions[j]."""
    i, j, vectors = pair_baselines(positions)
    vis = visibilities(source, vectors, wavelength)
    return dict(zip(zip(i.tolist(), j.tolist()), vis.tolist()))


def _outcome_table(per_delta: list[list[tuple]]):
    """Flatten the per-delta outcome lists into one outcome table.

    Returns the per-delta cumulative probabilities, the first outcome id of
    each delta, each outcome's record count and first record, and the record
    columns (telescope, detector, accepted, delta index).  An outcome's
    records are one run of the columns, in (telescope, detector) order.
    """
    cdfs, first_ids, counts, records = [], [], [], []
    for delta_idx, outcomes in enumerate(per_delta):
        cdf = np.cumsum([p for p, _, _ in outcomes])
        cdf[-1] = max(cdf[-1], 1.0)  # guard roundoff; tail mass goes to the last outcome
        cdfs.append(cdf)
        first_ids.append(len(counts))
        for _, recs, accepted in outcomes:
            counts.append(len(recs))
            records += [(tel, det, accepted, delta_idx) for tel, det in recs]
    n_records = np.array(counts, dtype=np.int64)
    tel, det, acc, delta_index = np.array(records, dtype=np.int64).reshape(-1, 4).T
    return (cdfs, first_ids, n_records, np.cumsum(n_records) - n_records,
            (tel, det, acc.astype(bool), delta_index))


def simulate_chunks(config: SchemeConfig, source: SourceModel, geometry,
                    n_slots: int, seed: int) -> tuple[dict, Iterator[tuple[np.ndarray, ...]]]:
    """Monte Carlo event log for a measurement run, as (fields, blocks).

    geometry: a Baseline for the two-telescope schemes, or a sequence of
    telescope positions (same units as baseline vectors) plus a wavelength
    via a (positions, wavelength) tuple for the telescope-array scheme.
    Slots cycle through the delay schedule round-robin.  CHUNK_SLOTS is only
    the RNG partition: each chunk of that many slots draws its outcome ids
    from one RNG substream derived from (seed, chunk index), so a run
    depends only on its seed.  PIECE_SLOTS bounds the memory: only a
    chunk's outcome ids, one small integer per slot, live at chunk scope;
    its uniforms are drawn, and its ids expanded into records, at most
    PIECE_SLOTS slots at a time, and each such slot range's records are one
    block of COLUMNS-ordered arrays.  fields are the log's scheme, n_slots,
    deltas and meta.  The outcome table is built, and bad input raises,
    before this returns; each chunk is then sampled when its first block is
    asked for.
    """
    if n_slots <= 0:
        raise ValueError(f"n_slots must be positive, got {n_slots}")
    if config.kind == "w_state":
        positions, wavelength = geometry
        if len(positions) != config.n_telescopes:
            raise ConfigError("geometry must list one position per telescope")
        vis = _pairwise_visibilities(source, positions, wavelength)
        per_delta = [_w_state_outcomes(config, vis)]
        schedule = (0.0,)
    else:
        if not isinstance(geometry, Baseline):
            raise TypeError("two-telescope schemes take a Baseline geometry")
        v = visibility(source, geometry)
        schedule = config.delta_schedule
        per_delta = _circuit_outcomes(config, v, schedule)
    cdfs, first_ids, n_records, first_record, columns = _outcome_table(per_delta)
    n_deltas, step, piece_step = len(schedule), CHUNK_SLOTS, PIECE_SLOTS

    def draw(chunk_idx: int, start: int) -> np.ndarray:
        # One outcome id per slot, in the smallest dtype that holds every id:
        # each delta draws one uniform per slot of its residue class, in delta
        # order.  The uniforms of one delta are drawn at most a piece at a
        # time; consecutive draws continue one stream, so the ids are the same.
        rng = rngmod.stream(seed, chunk_idx)
        ids = np.empty(min(step, n_slots - start), dtype=np.min_scalar_type(len(n_records)))
        for delta_idx in range(n_deltas):
            block = ids[(delta_idx - start) % n_deltas::n_deltas]
            for lo in range(0, len(block), piece_step):
                part = block[lo:lo + piece_step]
                part[:] = first_ids[delta_idx] + np.searchsorted(
                    cdfs[delta_idx], rng.random(len(part)), side="right")
        return ids

    def expand(ids: np.ndarray, start: int) -> tuple[np.ndarray, ...]:
        # Expand each slot into its outcome's run of records.  Slots ascend
        # and every outcome lists its records in (telescope, detector) order,
        # so the log comes out canonical without a sort.
        counts = n_records[ids]
        ends = np.cumsum(counts)
        record = np.repeat(first_record[ids] - (ends - counts), counts)
        record += np.arange(len(record))
        slot = np.repeat(np.arange(start, start + len(ids), dtype=np.int64), counts)
        return (slot, *(column[record] for column in columns))

    def blocks() -> Iterator[tuple[np.ndarray, ...]]:
        for chunk_idx, start in enumerate(range(0, n_slots, step)):
            ids = draw(chunk_idx, start)
            for lo in range(0, len(ids), piece_step):
                yield expand(ids[lo:lo + piece_step], start + lo)

    return dict(scheme=config.kind, n_slots=n_slots, deltas=schedule,
                meta={"seed": int(seed), "kind": config.kind}), blocks()


def simulate_run(config: SchemeConfig, source: SourceModel, geometry,
                 n_slots: int, seed: int) -> eventlog.EventLog:
    """The whole event log of simulate_chunks(config, source, geometry,
    n_slots, seed), its blocks joined in slot order."""
    return eventlog.EventLog.joined(*simulate_chunks(config, source, geometry, n_slots, seed))
