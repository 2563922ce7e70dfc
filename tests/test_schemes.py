"""Measurement schemes: closed forms, circuit agreement, Monte Carlo."""
import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscope import oracle, schemes
from entscope.errors import ConfigError
from entscope.eventlog import SCHEME_KINDS, EventLog, fringe_counts, pair_counts
from entscope.fock import (
    DensityOperator,
    DetectorModel,
    EntangledPairState,
    apply_beam_splitter,
    apply_phase,
    outcome_distribution,
)
from entscope.rng import stream
from entscope.schemes import (
    SchemeConfig,
    astro_pair_rate,
    classify_pattern,
    direct_detection_probs,
    direct_distribution,
    entangled_coincidence_probs,
    hbt_coincidence_prob,
    hbt_pair_state,
    lab_pair_state,
    optimal_p_e,
    simulate_run,
    temporal_overlap_factor,
    two_telescope_distribution,
    w_state_probs,
    weak_coherent_stats,
    _pairwise_visibilities,
)
from entscope.sky import Baseline, SourceModel, arrival_density_matrix, visibility
from entscope.schemes import resource_state

WAVELENGTH = 800e-9


def binary_with_visibility(v: float) -> SourceModel:
    """Equal binary whose fringe at a 100 m baseline has Re V = v, Im V = 0."""
    x = math.acos(v)
    separation = 2.0 * math.asin(x * WAVELENGTH / (2.0 * math.pi * 100.0))
    return SourceModel.binary(separation)


def five_sigma(p: float, n: int) -> float:
    return 5.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_direct_probs_anchor_values():
    p1, p2 = direct_detection_probs(1.0, 0.0)
    assert (p1, p2) == (1.0, 0.0)
    p1, p2 = direct_detection_probs(0.7, math.pi)
    assert p1 == pytest.approx(0.15, abs=1e-15)
    p1, _ = direct_detection_probs(0.5j, math.pi / 2.0)
    assert p1 == pytest.approx(0.75, abs=1e-15)


def test_entangled_probs():
    probs = entangled_coincidence_probs(0.7, 0.0)
    assert probs.acceptance == 0.5
    assert probs.correlated == pytest.approx(0.85, abs=1e-15)
    assert probs.correlated + probs.anticorrelated == pytest.approx(1.0)
    with pytest.raises(ValueError):
        entangled_coincidence_probs(1.5, 0.0)


def test_weak_coherent_anchor():
    stats = weak_coherent_stats(0.02, 0.02, 1.0, 0.0)
    assert stats.visibility_factor == pytest.approx(0.4, abs=1e-15)
    assert stats.p_total_coincidence == pytest.approx(5.0 * 0.02**2 / 4.0,
                                                      abs=1e-15)
    with pytest.raises(ValueError):
        weak_coherent_stats(0.5, 0.02, 1.0, 0.0)


def test_optimal_p_e_formula_and_clamp():
    assert optimal_p_e(0.02, 0.0) == pytest.approx(0.02, abs=1e-15)
    assert optimal_p_e(0.02, 1.0) == pytest.approx(0.02 * math.sqrt(2.0),
                                                   abs=1e-15)
    assert optimal_p_e(0.19, 1.0) == 0.2


def test_hbt_anchor():
    assert hbt_coincidence_prob(0.02, 1.0) == pytest.approx(0.02**2 / 2.0,
                                                            abs=1e-15)
    assert hbt_coincidence_prob(0.02, 0.0) == pytest.approx(0.02**2 / 4.0,
                                                            abs=1e-15)


def test_w_state_probs():
    for n in (2, 5, 10):
        probs = w_state_probs(n, 0.6, 0.3, 0.3)
        assert probs.discard == pytest.approx(1.0 / n, abs=1e-15)
        assert probs.correlated == pytest.approx(0.8, abs=1e-12)
    probs = w_state_probs(4, 0.6, 0.0, math.pi / 2.0)
    assert probs.correlated == pytest.approx(0.5, abs=1e-12)


def test_temporal_overlap_factor():
    assert temporal_overlap_factor(1.0, 0.0, 0.0) == 1.0
    tau = 2.0
    got = temporal_overlap_factor(tau, tau, 0.0)
    assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    got = temporal_overlap_factor(tau, 0.0, 3.0)
    assert got == pytest.approx(math.exp(-9.0 / 8.0), abs=1e-15)
    assert temporal_overlap_factor(1.0, 1.0, 10.0) < 1e-10
    with pytest.raises(ValueError):
        temporal_overlap_factor(0.0, 1.0, 0.0)


def test_scheme_config_validation():
    with pytest.raises(ConfigError):
        SchemeConfig(kind="unknown")
    with pytest.raises(ConfigError):
        SchemeConfig(kind="weak_coherent", p_a=0.5)
    with pytest.raises(ConfigError):
        SchemeConfig(kind="w_state", n_telescopes=1, w_phases=(0.0,))
    with pytest.raises(ConfigError):
        SchemeConfig(kind="w_state", n_telescopes=3, w_phases=(0.0,))
    with pytest.raises(ConfigError):
        SchemeConfig(kind="direct", n_telescopes=3)
    with pytest.raises(ConfigError):
        SchemeConfig(kind="direct", delta_schedule=())
    with pytest.raises(ConfigError):
        SchemeConfig(kind="weak_coherent", bell_complete=True)


# Per scheme, the arguments that make it and the settings its run reads
# besides coherence_time (jitter_sigma and arrival_offset are read where
# coherence_time > 0).  bell_complete = true on kind=entangled makes the
# bell_complete scheme.
_SCHEMES = {
    "kind=direct": ({"kind": "direct"}, {"delta_schedule", "p_a", "detector"}),
    "kind=hbt": ({"kind": "hbt"}, {"delta_schedule", "p_a", "detector", "double_pair_prob"}),
    "kind=entangled": ({"kind": "entangled", "bell_complete": False},
                       {"delta_schedule", "p_a", "p_e", "detector", "double_pair_prob"}),
    "kind=weak_coherent": ({"kind": "weak_coherent"},
                           {"delta_schedule", "p_a", "p_e", "detector", "double_pair_prob"}),
    "bell_complete": ({"kind": "entangled", "bell_complete": True}, {"delta_schedule"}),
    "kind=w_state": ({"kind": "w_state", "n_telescopes": 3}, {"w_phases"}),
}
# A value off the default for each setting, valid for every scheme that reads it.
_OFF_DEFAULT = {"delta_schedule": (0.0, 1.0), "p_a": 0.1, "p_e": 0.1, "n_telescopes": 3,
                "w_phases": (0.0, 0.5, 1.0), "detector": DetectorModel(efficiency=0.6),
                "double_pair_prob": 0.05, "jitter_sigma": 0.3, "arrival_offset": 0.2,
                "bell_complete": True}


@pytest.mark.parametrize("scheme, name", [
    (scheme, name) for scheme, (args, reads) in _SCHEMES.items()
    for name in _OFF_DEFAULT if name not in reads and name not in args])
def test_scheme_config_refuses_a_field_its_scheme_does_not_read(scheme, name):
    """A setting the run ignores, off its default, is an error naming the
    field and the scheme; the timing fields name the coherence time too."""
    args, _ = _SCHEMES[scheme]
    with pytest.raises(ConfigError) as err:
        SchemeConfig(**args, **{name: _OFF_DEFAULT[name]})
    unless = " unless coherence_time > 0" if name in ("jitter_sigma", "arrival_offset") else ""
    assert str(err.value) == f"{name}: {scheme} does not use it{unless}"


@pytest.mark.parametrize("scheme", _SCHEMES)
def test_scheme_config_accepts_every_field_its_scheme_reads(scheme):
    args, reads = _SCHEMES[scheme]
    settings = {**{name: _OFF_DEFAULT[name] for name in reads}, "coherence_time": 1.0,
                "jitter_sigma": 0.3, "arrival_offset": 0.2}
    config = SchemeConfig(**args, **settings)
    assert {name: getattr(config, name) for name in settings} == settings


# ---------------------------------------------------------------------------
# Analytic vs circuit (the documented verification grids)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", [
    oracle.check_direct,
    oracle.check_entangled,
    oracle.check_weak_coherent,
    oracle.check_hbt,
])
def test_oracle_grid(group):
    report = group()
    assert report.passed, report.line()


def test_acceptance_pattern_classifier():
    assert classify_pattern((1, 0, 0, 1)) == (True, False)
    assert classify_pattern((1, 1, 0, 0)) == (True, True)
    assert classify_pattern((0, 0, 1, 1)) == (True, True)
    assert classify_pattern((1, 0, 1, 0)) == (False, False)
    assert classify_pattern((0, 0, 0, 0)) == (False, False)
    assert classify_pattern((2, 1, 0, 0)) == (True, True)


def _reference_hbt_pair_matrix(v: complex, bare_sum: bool = False) -> np.ndarray:
    """hbt_pair_state's matrix from numpy alone: kets on (0, 2), (1, 1) and
    (2, 0) at indices 2, 4 and 5 of the cutoff-2 two-mode basis, normalized
    by sqrt(sum |a|^2) ** 2 per component (or by the bare sum)."""
    v = complex(v)
    spread = math.acos(min(abs(v), 1.0))
    phases = ([np.angle(v) + spread, np.angle(v) - spread] if abs(v) > 0
              else [math.pi / 2.0, -math.pi / 2.0])
    acc, total = None, 0.0
    for phi in phases:
        amps = (math.sqrt(2.0) / 2.0, (1.0 + np.exp(1j * phi)) / 2.0,
                math.sqrt(2.0) * np.exp(1j * phi) / 2.0)
        ket = np.zeros(6, dtype=complex)
        ket[[2, 4, 5]] = amps
        term = 0.5 * np.outer(ket, ket.conjugate())
        acc = term if acc is None else acc + term
        norm = sum(abs(a) ** 2 for a in amps)
        total += 0.5 * (norm if bare_sum else math.sqrt(norm) ** 2)
    return acc / total


# At each of these the bare-sum normalization gives other bits, so a change
# of hbt_pair_state's rounding fails here even when no sampled artifact moves.
@pytest.mark.parametrize("v", [0.05, 0.1, 0.5, 0.7, 0.9, 1.0, 0.1 - 0.7j])
def test_hbt_pair_state_bits_match_reference(v):
    expected = _reference_hbt_pair_matrix(v)
    assert hbt_pair_state(v).matrix.tobytes() == expected.tobytes()
    assert _reference_hbt_pair_matrix(v, bare_sum=True).tobytes() != expected.tobytes()


# ---------------------------------------------------------------------------
# Shared-photon states: one pair family
# ---------------------------------------------------------------------------

# Rows of |0,1>, |1,0> and |1,1> in the cutoff-2 two-mode basis
# (0,0), (0,1), (0,2), (1,0), (1,1), (2,0).
I01, I10, I11 = 1, 3, 4
LOSSY = DetectorModel(efficiency=0.7, dark_prob_per_window=0.01)


def _hand_filled_arrival(v: complex) -> DensityOperator:
    """The arrival state as a matrix filled entry by entry: 1/2 on the
    one-photon diagonal, v/2 and its conjugate off it."""
    v = complex(v)
    mat = np.zeros((6, 6), dtype=complex)
    mat[I01, I01] = mat[I10, I10] = 0.5
    mat[I10, I01] = v / 2.0
    mat[I01, I10] = v.conjugate() / 2.0
    return DensityOperator(2, 2, mat)


def _pure_reference(delta: float) -> DensityOperator:
    """The reference photon as the ket (|0,1> + e^{i delta}|1,0>)/sqrt(2)."""
    ket = np.zeros(6, dtype=complex)
    ket[I01] = 1.0 / math.sqrt(2.0)
    ket[I10] = np.exp(1j * delta) / math.sqrt(2.0)
    return DensityOperator(2, 2, np.outer(ket, ket.conjugate()))


def test_shared_photon_states_are_pair_family_densities_bit_for_bit():
    for v in oracle.VISIBILITY_GRID:
        family = EntangledPairState(0.0, 1.0, abs(v), cmath.phase(v)).to_density()
        assert arrival_density_matrix(v).matrix.tobytes() == family.matrix.tobytes()
    for delta in oracle.DELTA_GRID:
        family = EntangledPairState(phase=delta).to_density()
        assert resource_state(delta).matrix.tobytes() == family.matrix.tobytes()
    # The |11> reference-pair background, as _circuit_outcomes passes it on.
    seen = []
    real = schemes.two_telescope_distribution

    def spy(astro, ref, detector):
        seen.append((astro, ref))
        return real(astro, ref, detector)

    with mock.patch.object(schemes, "two_telescope_distribution", spy):
        schemes._circuit_outcomes(SchemeConfig("entangled", p_a=0.9, p_e=0.9,
                                               double_pair_prob=0.01), 0.5, (0.0,))
    (background,) = [ref for _, ref in seen if ref is not None and ref.matrix[I11, I11]]
    family = EntangledPairState(0.0, 0.0, 0.0, 0.0, 1.0).to_density()
    assert background.matrix.tobytes() == family.matrix.tobytes()


def test_arrival_state_reads_back_its_visibility():
    for v in (*oracle.VISIBILITY_GRID, 1j, -1.0, 0.3 - 0.4j, 1e-300):
        back = EntangledPairState.from_density(arrival_density_matrix(v))
        assert abs(back.visibility - v) <= 1e-15, v


@pytest.mark.parametrize("detector", [DetectorModel(), LOSSY])
def test_pair_family_tables_match_the_pure_state_construction(detector):
    """Every table entry is within 1e-16 of the hand-filled arrival matrix
    and pure-ket reference.  Only at |v| = 1 and delta in {0, pi} may a
    pattern of probability exactly 0 there appear, at a roundoff value."""
    gained = []
    for v in oracle.VISIBILITY_GRID:
        for delta in oracle.DELTA_GRID:
            new = two_telescope_distribution(arrival_density_matrix(v),
                                             resource_state(delta), detector)
            old = two_telescope_distribution(_hand_filled_arrival(v),
                                             _pure_reference(delta), detector)
            assert set(old) <= set(new)
            for key, p in new.items():
                assert abs(p - old.get(key, 0.0)) <= 1e-16, (v, delta, key)
                if key not in old:
                    assert abs(v) == 1.0 and delta in (0.0, math.pi), (v, delta, key)
                    gained.append(key)
            rho = apply_phase(_hand_filled_arrival(v), 1, delta)
            rho = apply_beam_splitter(rho, 0, 1, 0.5, phase=math.pi / 2.0)
            old = outcome_distribution(rho, detector)
            new = direct_distribution(v, delta, detector)
            assert new.keys() == old.keys()
            assert all(abs(new[key] - old[key]) <= 1e-16 for key in new), (v, delta)
    assert len(gained) <= 2


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_entangled_monte_carlo_statistics():
    deltas = tuple(2.0 * math.pi * k / 4.0 for k in range(4))
    config = SchemeConfig(kind="entangled", delta_schedule=deltas)
    log = simulate_run(config, binary_with_visibility(0.7),
                       Baseline(100.0, WAVELENGTH), 200_000, seed=42)
    got_deltas, successes, totals = fringe_counts(log)
    slots_per_delta = 50_000
    for k, delta in enumerate(deltas):
        expected = entangled_coincidence_probs(0.7, delta)
        acceptance = totals[k] / slots_per_delta
        assert abs(acceptance - 0.5) < five_sigma(0.5, slots_per_delta)
        corr = successes[k] / totals[k]
        assert abs(corr - expected.correlated) < five_sigma(
            expected.correlated, int(totals[k]))


def test_direct_monte_carlo_statistics():
    config = SchemeConfig(kind="direct", delta_schedule=(0.0, math.pi))
    log = simulate_run(config, binary_with_visibility(0.7),
                       Baseline(100.0, WAVELENGTH), 100_000, seed=9)
    _, successes, totals = fringe_counts(log)
    for k, delta in enumerate((0.0, math.pi)):
        p1, _ = direct_detection_probs(0.7, delta)
        frac = successes[k] / totals[k]
        assert abs(frac - p1) < five_sigma(p1, int(totals[k]))


def test_monte_carlo_with_lossy_detector_matches_table():
    """Sampled acceptance equals the exact pattern-table acceptance."""
    det = DetectorModel(efficiency=0.6, dark_prob_per_window=1e-3)
    config = SchemeConfig(kind="entangled", delta_schedule=(0.4,), detector=det)
    dist = two_telescope_distribution(
        arrival_density_matrix(1.0), resource_state(0.4), det)
    acceptance = sum(p for pattern, p in dist.items()
                     if classify_pattern(pattern)[0])
    n = 150_000
    log = simulate_run(config, SourceModel.point(),
                       Baseline(10.0, WAVELENGTH), n, seed=5)
    _, _, totals = fringe_counts(log)
    assert abs(totals[0] / n - acceptance) < five_sigma(acceptance, n)


def test_w_state_monte_carlo_discard_and_fringe():
    n_tel = 4
    config = SchemeConfig(kind="w_state", n_telescopes=n_tel,
                          w_phases=(0.0,) * n_tel)
    positions = (0.0, 40.0, 90.0, 160.0)
    n = 120_000
    log = simulate_run(config, binary_with_visibility(0.8),
                       (positions, WAVELENGTH), n, seed=21)
    discard = 1.0 - log.n_accepted_slots() / n
    assert abs(discard - 1.0 / n_tel) < five_sigma(1.0 / n_tel, n)

    counts = pair_counts(log, n_tel)
    assert set(counts) == {(i, j) for i in range(n_tel)
                           for j in range(i + 1, n_tel)}
    vis = _pairwise_visibilities(binary_with_visibility(0.8), positions,
                                 WAVELENGTH)
    for (i, j), (succ, tot) in counts.items():
        expected = w_state_probs(n_tel, vis[(i, j)], 0.0, 0.0).correlated
        assert abs(succ / tot - expected) < five_sigma(expected, tot)


@pytest.mark.parametrize("n_tel", [11, 32])
def test_w_state_log_is_canonical_for_many_telescopes(n_tel):
    config = SchemeConfig(kind="w_state", n_telescopes=n_tel,
                          w_phases=(0.0,) * n_tel)
    positions = tuple(float(p) for p in np.linspace(0.0, 300.0, n_tel))
    log = simulate_run(config, binary_with_visibility(0.8),
                       (positions, WAVELENGTH), 3000, seed=4)
    assert log.telescope.max() >= 10
    order = np.lexsort((log.detector, log.telescope, log.slot))
    assert np.array_equal(order, np.arange(len(log)))
    assert sum(t for _, t in pair_counts(log, n_tel).values()) == \
        np.count_nonzero(log.accepted) // 2


def test_simulate_run_deterministic_per_seed():
    config = SchemeConfig(kind="entangled", delta_schedule=(0.0, 1.0, 2.0))
    src = binary_with_visibility(0.5)
    base = Baseline(100.0, WAVELENGTH)
    a = simulate_run(config, src, base, 70_000, seed=17)
    b = simulate_run(config, src, base, 70_000, seed=17)
    c = simulate_run(config, src, base, 70_000, seed=18)
    for name in ("slot", "telescope", "detector", "accepted", "delta_index"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.slot, c.slot) or not np.array_equal(
        a.detector, c.detector)


def test_simulate_run_covers_full_delta_schedule():
    config = SchemeConfig(kind="entangled",
                          delta_schedule=tuple(np.linspace(0.0, 5.0, 7)))
    log = simulate_run(config, SourceModel.point(),
                       Baseline(10.0, WAVELENGTH), 7_000, seed=1)
    assert sorted(set(log.delta_index.tolist())) == list(range(7))
    # slot -> delta assignment is round robin
    assert np.all(log.delta_index == log.slot % 7)


def test_double_pair_background_dilutes_fringe():
    clean = SchemeConfig(kind="entangled", delta_schedule=(0.0,),
                         p_a=0.6, p_e=0.6)
    noisy = SchemeConfig(kind="entangled", delta_schedule=(0.0,),
                         p_a=0.6, p_e=0.6, double_pair_prob=0.15)
    src = SourceModel.point()
    base = Baseline(10.0, WAVELENGTH)
    log_c = simulate_run(clean, src, base, 60_000, seed=3)
    log_n = simulate_run(noisy, src, base, 60_000, seed=3)
    _, s_c, t_c = fringe_counts(log_c)
    _, s_n, t_n = fringe_counts(log_n)
    assert t_n[0] > t_c[0]
    assert s_n[0] / t_n[0] < s_c[0] / t_c[0] - 0.02

    overfull = SchemeConfig(kind="entangled", delta_schedule=(0.0,),
                            double_pair_prob=0.3)
    with pytest.raises(ConfigError):
        simulate_run(overfull, src, base, 100, seed=3)


def test_temporal_mismatch_washes_out_fringe():
    config = SchemeConfig(kind="entangled", delta_schedule=(0.0,),
                          coherence_time=1.0, jitter_sigma=0.2,
                          arrival_offset=5.0)
    log = simulate_run(config, SourceModel.point(),
                       Baseline(10.0, WAVELENGTH), 50_000, seed=4)
    _, succ, tot = fringe_counts(log)
    assert abs(succ[0] / tot[0] - 0.5) < five_sigma(0.5, int(tot[0]))


def test_bell_complete_removes_acceptance_loss():
    config = SchemeConfig(kind="entangled", delta_schedule=(0.0,),
                          bell_complete=True)
    log = simulate_run(config, SourceModel.point(),
                       Baseline(10.0, WAVELENGTH), 30_000, seed=6)
    _, succ, tot = fringe_counts(log)
    assert tot[0] == 30_000
    assert succ[0] / tot[0] > 1.0 - five_sigma(0.999, 30_000) - 1e-9


# ---------------------------------------------------------------------------
# Monte Carlo sampler against the per-outcome column sampler
# ---------------------------------------------------------------------------

def _reference_outcomes(config, v, delta):
    """(probability, records, accepted) per click pattern of one delta, as
    the per-scheme pattern tables built them; records are (tel, det)."""
    det = config.detector
    v_eff = complex(v) * config.overlap_factor()
    if config.kind == "entangled" and config.bell_complete:
        probs = entangled_coincidence_probs(v_eff, delta)
        return [(p, ((0, d_l), (1, d_r)), True) for d_l, d_r, p in (
            (1, 1, probs.correlated / 2.0), (2, 2, probs.correlated / 2.0),
            (1, 2, probs.anticorrelated / 2.0), (2, 1, probs.anticorrelated / 2.0))]
    p_a, p_e = config.p_a, config.p_e
    if config.kind == "direct":
        cases = [(p_a, direct_distribution(v_eff, delta, det))]
        n_modes = 2
    else:
        n_modes = 4
        astro, ref = arrival_density_matrix(v_eff), resource_state(delta)
        if config.kind == "entangled":
            cases = [(p_a * p_e, two_telescope_distribution(astro, ref, det))]
            if p_a < 1.0 and p_e > 0.0:
                cases.append((p_e * (1.0 - p_a), two_telescope_distribution(None, ref, det)))
            if p_e < 1.0 and p_a > 0.0:
                cases.append((p_a * (1.0 - p_e), two_telescope_distribution(astro, None, det)))
        elif config.kind == "weak_coherent":
            cases = [(p_a * p_e, two_telescope_distribution(astro, ref, det)),
                     (p_e**2 / 2.0, two_telescope_distribution(None, lab_pair_state(delta), det)),
                     (astro_pair_rate(p_a, v_eff),
                      two_telescope_distribution(hbt_pair_state(v_eff), None, det)),
                     (p_a * (1.0 - p_e), two_telescope_distribution(astro, None, det)),
                     (p_e * (1.0 - p_a), two_telescope_distribution(None, ref, det))]
        else:
            cases = [(astro_pair_rate(p_a, v_eff),
                      two_telescope_distribution(hbt_pair_state(v_eff), None, det)),
                     (p_a, two_telescope_distribution(astro, None, det))]
        if config.double_pair_prob > 0.0:
            pair = DensityOperator.pure(2, 2, {(1, 1): 1.0 + 0.0j})
            cases.append((config.double_pair_prob,
                          two_telescope_distribution(None, pair, det)))
    total_case = sum(p for p, _ in cases)
    if total_case > 1.0 + 1e-9:
        raise ConfigError("per-slot case probabilities sum to more than 1")
    cases.append((max(1.0 - total_case, 0.0),
                  outcome_distribution(DensityOperator.vacuum(n_modes, 0), det)))
    combined = {}
    for case_prob, dist in cases:
        if case_prob <= 0.0:
            continue
        for pattern, p in dist.items():
            combined[pattern] = combined.get(pattern, 0.0) + case_prob * p
    outcomes = []
    for pattern in sorted(combined):
        if combined[pattern] <= 0.0:
            continue
        if n_modes == 2:
            modes = ((0, (0, 1)), (1, (0, 2)))
            accepted = (pattern[0] > 0) + (pattern[1] > 0) == 1
        else:
            modes = ((0, (0, 1)), (2, (0, 2)), (1, (1, 1)), (3, (1, 2)))
            accepted = classify_pattern(pattern)[0]
        records = tuple(rec for mode, rec in modes if pattern[mode])
        outcomes.append((combined[pattern], records, accepted))
    return outcomes


def _reference_w_state_outcomes(config, vis):
    n = config.n_telescopes
    outcomes = [(1.0 / (2.0 * n * n), ((i, d),), False)
                for i in range(n) for d in (1, 2)]
    for i in range(n):
        for j in range(i + 1, n):
            v_ij = complex(vis[(i, j)]) * config.overlap_factor()
            probs = w_state_probs(n, v_ij, config.w_phases[i], config.w_phases[j])
            for d_i, d_j, frac in (
                (1, 1, probs.correlated / 2.0), (2, 2, probs.correlated / 2.0),
                (1, 2, probs.anticorrelated / 2.0), (2, 1, probs.anticorrelated / 2.0),
            ):
                outcomes.append((2.0 / (n * n) * frac, ((i, d_i), (j, d_j)), True))
    return outcomes


def _reference_simulate_run(config, source, geometry, n_slots, seed):
    """Per-outcome record columns appended chunk by chunk and delta by
    delta, then one stable sort by (slot, telescope, detector)."""
    if config.kind == "w_state":
        positions, wavelength = geometry
        per_delta = [_reference_w_state_outcomes(
            config, _pairwise_visibilities(source, positions, wavelength))]
        schedule = (0.0,)
    else:
        v = visibility(source, geometry)
        schedule = config.delta_schedule
        per_delta = [_reference_outcomes(config, v, d) for d in schedule]
    n_deltas = len(schedule)
    cols = {k: [np.zeros(0, dtype=np.int64)] for k in ("slot", "tel", "det", "acc", "di")}
    for chunk_idx, start in enumerate(range(0, n_slots, schemes.CHUNK_SLOTS)):
        chunk = np.arange(start, min(start + schemes.CHUNK_SLOTS, n_slots))
        rng = stream(seed, chunk_idx)
        for delta_idx, outcomes in enumerate(per_delta):
            slots = chunk[chunk % n_deltas == delta_idx]
            if not len(slots):
                continue
            cdf = np.cumsum([p for p, _, _ in outcomes])
            cdf[-1] = max(cdf[-1], 1.0)
            draw = np.searchsorted(cdf, rng.random(len(slots)), side="right")
            for idx in np.unique(draw):  # the outcomes drawn, in outcome order
                _, records, accepted = outcomes[idx]
                sel = slots[draw == idx]
                for tel, det in records:
                    for name, value in (("slot", sel), ("tel", tel), ("det", det),
                                        ("acc", accepted), ("di", delta_idx)):
                        cols[name].append(np.broadcast_to(value, sel.shape))
    slot, tel, det, acc, di = (np.concatenate(cols[k]) for k in cols)
    order = np.lexsort((det, tel, slot))
    return EventLog(scheme=config.kind, n_slots=n_slots, deltas=schedule,
                    meta={"seed": seed, "kind": config.kind}, slot=slot[order],
                    telescope=tel[order], detector=det[order],
                    accepted=acc[order], delta_index=di[order])


_DETECTORS = (
    DetectorModel(),
    DetectorModel(efficiency=0.6, dark_prob_per_window=1e-3),
    DetectorModel(efficiency=0.8, dark_prob_per_window=0.02,
                  photon_number_resolving=True),
)


@st.composite
def _runs(draw):
    """(config, geometry) with only the fields its scheme reads set."""
    kind = draw(st.sampled_from(SCHEME_KINDS))
    n_deltas = draw(st.integers(1, 9))
    settings = {"coherence_time": draw(st.sampled_from((0.0, 1.0)))}
    if settings["coherence_time"]:
        settings["jitter_sigma"] = 0.3
    if kind == "w_state":
        n_tel = draw(st.integers(2, 32))
        config = SchemeConfig(
            kind=kind, n_telescopes=n_tel,
            w_phases=draw(st.lists(st.floats(-4.0, 4.0), min_size=n_tel, max_size=n_tel)),
            **settings)
        geometry = (tuple(float(x) for x in np.linspace(0.0, 300.0, n_tel)), WAVELENGTH)
    else:
        faint = kind in ("weak_coherent", "hbt")
        probs = st.sampled_from((0.0, 0.05, 0.2) if faint else (0.0, 0.6, 1.0))
        settings["delta_schedule"] = draw(st.lists(st.floats(-7.0, 7.0), min_size=n_deltas,
                                                   max_size=n_deltas, unique=True))
        if kind == "entangled" and draw(st.booleans()):
            # Bell-complete detection reads only the schedule and the timing.
            settings["bell_complete"] = True
        else:
            settings.update(p_a=draw(probs), detector=draw(st.sampled_from(_DETECTORS)))
            if kind in ("entangled", "weak_coherent"):
                settings["p_e"] = draw(probs)
            if kind != "direct":
                settings["double_pair_prob"] = draw(st.sampled_from((0.0, 0.05, 0.15)))
        config = SchemeConfig(kind=kind, **settings)
        geometry = Baseline(100.0, WAVELENGTH)
    return config, geometry


@st.composite
def _chunkings(draw):
    """(CHUNK_SLOTS, PIECE_SLOTS, n_slots) with at most ~60 chunks."""
    chunk = draw(st.sampled_from([1, 7, 64, schemes.CHUNK_SLOTS]))
    piece = draw(st.sampled_from([1, 7, schemes.PIECE_SLOTS]))
    return chunk, piece, draw(st.integers(1, min(60 * chunk, 3000)))


@settings(max_examples=80, deadline=None)
@given(run=_runs(), chunking=_chunkings(), seed=st.integers(0, 2**63 - 1))
def test_simulate_run_matches_per_outcome_sampler(run, chunking, seed):
    """Same columns as the column sampler for every kind, lossy, noisy and
    photon-number-resolving detectors, Bell-complete detection, pair
    background, up to 32 telescopes, any slot count against the delta count
    (fewer slots than deltas included) and chunk and piece sizes down to one
    slot."""
    config, geometry = run
    chunk, piece, n_slots = chunking
    source = SourceModel.binary(2.0e-9, 0.7)
    with mock.patch.object(schemes, "CHUNK_SLOTS", chunk), \
            mock.patch.object(schemes, "PIECE_SLOTS", piece):
        try:
            expected = _reference_simulate_run(config, source, geometry, n_slots, seed)
        except ConfigError:
            with pytest.raises(ConfigError):
                simulate_run(config, source, geometry, n_slots, seed)
            return
        log = simulate_run(config, source, geometry, n_slots, seed)
    for name in ("slot", "telescope", "detector", "accepted", "delta_index"):
        got, want = getattr(log, name), getattr(expected, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert (log.scheme, log.n_slots, log.deltas, log.meta) == \
        (expected.scheme, expected.n_slots, expected.deltas, expected.meta)
    order = np.lexsort((log.detector, log.telescope, log.slot))
    np.testing.assert_array_equal(order, np.arange(len(log)))


@pytest.mark.parametrize("kind", ["direct", "entangled", "weak_coherent", "hbt"])
def test_simulate_run_matches_per_outcome_sampler_over_chunks(kind):
    """Three default-size chunks, the last one partial, with 7 deltas."""
    p = 0.2 if kind in ("weak_coherent", "hbt") else 0.9
    p_e = {"p_e": p} if kind in ("entangled", "weak_coherent") else {}
    config = SchemeConfig(kind=kind, delta_schedule=tuple(np.linspace(0.0, 6.0, 7)),
                          p_a=p, detector=_DETECTORS[1], **p_e)
    source, base = SourceModel.binary(2.0e-9, 0.7), Baseline(100.0, WAVELENGTH)
    n_slots = 2 * schemes.CHUNK_SLOTS + 3
    log = simulate_run(config, source, base, n_slots, 8)
    expected = _reference_simulate_run(config, source, base, n_slots, 8)
    for name in ("slot", "telescope", "detector", "accepted", "delta_index"):
        np.testing.assert_array_equal(getattr(log, name), getattr(expected, name))


@settings(max_examples=60, deadline=None)
@given(run=_runs().filter(lambda run: run[0].kind != "w_state"))
def test_per_run_outcome_tables_equal_the_per_delta_ones(run):
    """Case tables that do not depend on the delay, built once per run, give
    every delay the outcomes of building all its cases afresh, bit for bit:
    every kind, detector, pair background and empty-slot share."""
    config, base = run
    v = visibility(SourceModel.binary(2.0e-9, 0.7), base)
    outcomes = schemes._circuit_outcomes
    try:
        want = [_reference_outcomes(config, v, d) for d in config.delta_schedule]
    except ConfigError:
        with pytest.raises(ConfigError):
            outcomes(config, v, config.delta_schedule)
        return
    got = outcomes(config, v, config.delta_schedule)
    assert [[(float(p).hex(), records, acc) for p, records, acc in per] for per in got] \
        == [[(float(p).hex(), records, acc) for p, records, acc in per] for per in want]
