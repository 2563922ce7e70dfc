"""Repeater links, pair family, distillation, swapping, chains."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entscope
from entscope import fock, oracle, repeater
from entscope.errors import ConfigError
from entscope.fock import apply_loss
from entscope.repeater import (
    ChainPolicy,
    EntangledPairState,
    LinkModel,
    chain_simulate,
    entanglement_swap,
    figure_of_merit,
    heralded_pair_state,
    optimize_distill_splitter,
    pair_family_projection,
    sscg_distill,
    transmit_pair,
    _expected_max_geometric,
    _GeometricTable,
    _geometric_search_sums,
)
from entscope.rng import stream

# Transmissivity at which the default distillation circuit is exact for
# perfect inputs: the lower root of 8 t^2 - 8 t + 1 = 0.
T_MAGIC = (2.0 - math.sqrt(2.0)) / 4.0


def loss_mixed(w1: float, c: float = 1.0, psi: float = 0.0) -> EntangledPairState:
    return EntangledPairState(1.0 - w1, w1, c, psi)


# ---------------------------------------------------------------------------
# Pair family and links
# ---------------------------------------------------------------------------

def test_pair_state_round_trip():
    pair = EntangledPairState(0.2, 0.7, 0.6, 0.9, 0.1)
    back = EntangledPairState.from_density(pair.to_density())
    for field in ("vacuum_weight", "one_photon_weight", "coherence", "phase",
                  "two_photon_weight"):
        assert getattr(back, field) == pytest.approx(getattr(pair, field),
                                                     abs=1e-12)
    assert pair.fidelity() == pytest.approx(0.35 * (1.0 + 0.6 * math.cos(0.9)),
                                            abs=1e-15)
    assert EntangledPairState.perfect().fidelity() == 1.0


def test_pair_state_validation():
    with pytest.raises(ValueError):
        EntangledPairState(0.5, 0.6, 1.0, 0.0)
    with pytest.raises(ValueError):
        EntangledPairState(0.0, 1.0, 1.4, 0.0)


def test_pair_family_is_one_class_owned_by_the_fock_layer():
    assert entscope.EntangledPairState is EntangledPairState is fock.EntangledPairState
    assert repeater.FORM_TOL is fock.FORM_TOL


@pytest.mark.parametrize("kwargs, name", [
    (dict(vacuum_weight=math.nan), "vacuum_weight"),
    (dict(one_photon_weight=math.inf), "one_photon_weight"),
    (dict(coherence=math.nan), "coherence"),
    (dict(phase=math.nan), "phase"),
    (dict(phase=math.inf), "phase"),
    (dict(phase=-math.inf), "phase"),
    (dict(two_photon_weight=math.nan), "two_photon_weight"),
])
def test_pair_state_rejects_non_finite_fields(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        EntangledPairState(**kwargs)


def test_pair_state_from_a_zero_matrix_raises_value_error():
    zero = fock.DensityOperator(2, 2, np.zeros((6, 6)))
    with pytest.raises(ValueError, match="weights must have a positive sum"):
        EntangledPairState.from_density(zero)


def test_link_transmission():
    assert LinkModel(length_km=15.0).transmission() == pytest.approx(
        10.0 ** -0.3, abs=1e-15)
    assert LinkModel(attenuation_db_per_km=0.0, extra_transmission=0.01).transmission() \
        == pytest.approx(0.01)
    with pytest.raises(ConfigError):
        LinkModel(length_km=-1.0)
    with pytest.raises(ConfigError):
        LinkModel(extra_transmission=0.0)
    # 10^(-0.2 * 1e5 / 10) underflows to 0, and nan compares false.
    for length in (1e5, math.nan):
        with pytest.raises(ConfigError, match="transmission must be positive"):
            LinkModel(length_km=length)


def test_transmit_pair_matches_loss_channel():
    """Family loss law vs a per-arm Fock loss channel."""
    link = LinkModel(length_km=13.0)
    eta = link.transmission()
    pair = EntangledPairState(0.1, 0.6, 0.7, 0.4, 0.3)
    sent = transmit_pair(pair, link)

    rho = pair.to_density()
    rho = apply_loss(apply_loss(rho, 0, eta), 1, eta)
    routed, leakage = pair_family_projection(rho)
    assert leakage < 1e-12
    for field in ("vacuum_weight", "one_photon_weight", "coherence",
                  "two_photon_weight"):
        assert getattr(sent, field) == pytest.approx(getattr(routed, field),
                                                     abs=1e-12)


def test_transmit_pair_dephasing_modes():
    link = LinkModel(phase_noise_sigma=0.5)
    pair = EntangledPairState.perfect()
    sent = transmit_pair(pair, link)
    assert sent.coherence == pytest.approx(math.exp(-0.125), abs=1e-15)
    assert sent.one_photon_weight == 1.0

    kicked = transmit_pair(pair, link, rng=stream(3))
    assert kicked.coherence == 1.0
    assert kicked.phase != 0.0


def test_heralded_generation():
    state = heralded_pair_state(LinkModel(length_km=50.0, phase_noise_sigma=0.3))
    assert state.vacuum_weight == 0.0
    assert state.coherence == pytest.approx(math.exp(-0.045), abs=1e-15)


# ---------------------------------------------------------------------------
# Distillation
# ---------------------------------------------------------------------------

def test_distill_perfect_inputs_at_magic_splitter():
    perfect = EntangledPairState.perfect()
    result = sscg_distill(perfect, perfect, t_low=T_MAGIC, t_high=1.0 - T_MAGIC)
    assert result.output.fidelity() == pytest.approx(1.0, abs=1e-12)
    assert result.success_probability == pytest.approx(0.5, abs=1e-12)
    assert result.leakage < 1e-12


def test_distill_default_splitters_frozen_fidelity():
    """At the 0.15/0.85 defaults the perfect-input fidelity is slightly
    below 1; the closed form is (|2 t1 - 1| + 2 sqrt(t1 t2))^2 / 4 here
    since the two herald amplitudes have unit norm when t2 = 1 - t1."""
    perfect = EntangledPairState.perfect()
    result = sscg_distill(perfect, perfect)
    expected = (0.7 + 2.0 * math.sqrt(0.15 * 0.85)) ** 2 / 2.0
    assert result.output.fidelity() == pytest.approx(expected, abs=1e-12)
    assert result.output.fidelity() == pytest.approx(0.99990, abs=1e-5)
    assert result.success_probability == pytest.approx(0.5, abs=1e-12)


def test_distill_canonical_loss_mixed_example():
    """Vacuum weight 0.3: rate drops to w1^2/2 but fidelity still climbs."""
    pair = loss_mixed(0.7)
    result = sscg_distill(pair, pair)
    assert result.success_probability == pytest.approx(0.245, abs=1e-12)
    assert result.output.fidelity() > pair.fidelity()
    assert result.output.fidelity() == pytest.approx(0.99990, abs=1e-4)


def test_distill_dephasing_law_at_magic_splitter():
    """Pure dephasing inputs map c -> 4c / (3 + c^2) exactly."""
    for c in (0.2, 0.5, 0.9):
        pair = EntangledPairState(0.0, 1.0, c, 0.0)
        result = sscg_distill(pair, pair, t_low=T_MAGIC, t_high=1.0 - T_MAGIC)
        assert result.output.coherence == pytest.approx(
            4.0 * c / (3.0 + c * c), abs=1e-12)
        assert result.output.coherence > c


def test_distill_monotone_on_noisy_inputs():
    """Strict gain over the useful-fidelity range; inputs already above the
    default circuit's perfect-input ceiling (0.9999) are excluded."""
    ceiling = sscg_distill(EntangledPairState.perfect(),
                           EntangledPairState.perfect()).output.fidelity()
    violations = []
    for w0 in (0.0, 0.1, 0.3, 0.5):
        for c in (0.2, 0.6, 0.9, 1.0):
            pair = EntangledPairState(w0, 1.0 - w0, c, 0.0)
            if not 0.5 < pair.fidelity() < ceiling:
                continue
            result = sscg_distill(pair, pair)
            if result.output.fidelity() <= pair.fidelity():
                violations.append((w0, c))
    assert violations == []


def test_distill_oracle_grid():
    report = oracle.check_distillation()
    assert report.passed, report.line()


def test_distill_asymmetric_splitters_stay_physical():
    pair = loss_mixed(0.8, c=0.9)
    result = sscg_distill(pair, pair, t_low=0.2, t_high=0.6)
    result.output_density.validate()
    assert 0.0 <= result.output.fidelity() <= 1.0
    assert result.leakage >= 0.0


def test_optimize_distill_splitter_finds_magic_region():
    pair = EntangledPairState(0.0, 1.0, 0.7, 0.0)
    t_best, result = optimize_distill_splitter(pair, pair)
    assert 0.1 < t_best < 0.25
    baseline = sscg_distill(pair, pair, t_low=0.15, t_high=0.85)
    assert result.output.fidelity() >= baseline.output.fidelity() - 1e-12


def test_splitter_search_leaves_fock_caches_bounded():
    # Every (t, phi) the search tries is a new dense splitter unitary.
    pair = EntangledPairState(0.1, 0.9, 0.8, 0.0)
    optimize_distill_splitter(pair, pair)
    for cached in (fock._bs_unitary, fock._bs_output_amplitudes):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert info.misses > info.maxsize


@settings(max_examples=25, deadline=None)
@given(
    w0=st.floats(0.0, 0.5),
    c=st.floats(0.05, 1.0),
)
def test_distill_output_is_physical(w0, c):
    pair = EntangledPairState(w0, 1.0 - w0, c, 0.0)
    result = sscg_distill(pair, pair)
    assert 0.0 <= result.success_probability <= 1.0
    if result.output is not None:
        assert -1e-12 <= result.output.fidelity() <= 1.0 + 1e-12
        result.output_density.validate()


# ---------------------------------------------------------------------------
# Swapping
# ---------------------------------------------------------------------------

def test_swap_perfect_inputs():
    result = entanglement_swap(EntangledPairState.perfect(),
                               EntangledPairState.perfect())
    assert result.success_probability == pytest.approx(0.5, abs=1e-12)
    assert result.output.fidelity() == pytest.approx(1.0, abs=1e-12)


def test_swap_adds_phases():
    a = EntangledPairState(0.0, 1.0, 1.0, 0.8)
    b = EntangledPairState(0.0, 1.0, 1.0, -0.3)
    result = entanglement_swap(a, b)
    assert result.output.phase == pytest.approx(0.5, abs=1e-12)
    assert result.output.coherence == pytest.approx(1.0, abs=1e-12)


def test_swap_multiplies_coherences():
    a = EntangledPairState(0.0, 1.0, 0.8, 0.0)
    b = EntangledPairState(0.0, 1.0, 0.5, 0.0)
    result = entanglement_swap(a, b)
    assert result.output.coherence == pytest.approx(0.4, abs=1e-12)


def test_swap_propagates_vacuum():
    """A heralding click from a lone photon empties the register, so vacuum
    on the inputs lands in the output (no post-selection at the swap).

    Against a perfect partner the vacuum fraction is reproduced exactly
    (herald probability 1/2 in both sectors); two lossy inputs lose ground.
    """
    a = loss_mixed(0.6)
    result = entanglement_swap(a, EntangledPairState.perfect())
    assert result.output.vacuum_weight == pytest.approx(0.4, abs=1e-12)
    assert result.output.fidelity() == pytest.approx(0.6, abs=1e-12)

    both = entanglement_swap(loss_mixed(0.6), loss_mixed(0.8))
    assert both.success_probability == pytest.approx(0.46, abs=1e-12)
    assert both.output.fidelity() == pytest.approx(0.24 / 0.46, abs=1e-12)
    assert both.output.fidelity() < 0.6


def test_swap_oracle_grid():
    report = oracle.check_swap()
    assert report.passed, report.line()


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

def test_expected_max_geometric():
    assert _expected_max_geometric(1.0, 1.0) == pytest.approx(1.0)
    assert _expected_max_geometric(2.0, 2.0) == pytest.approx(8.0 / 3.0)


def test_two_lossless_segments():
    result = chain_simulate(2, LinkModel(), ChainPolicy(with_memory=False))
    assert result.rate == pytest.approx(0.5, abs=1e-15)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_figure_of_merit_anchor():
    assert figure_of_merit(0.5, 0.5, 0.1) == 0.025
    with pytest.raises(ValueError):
        figure_of_merit(1.5, 0.5, 0.1)


def test_memoryless_cannot_distill():
    with pytest.raises(ConfigError):
        ChainPolicy(distill_rounds=(1,), with_memory=False)


def test_chain_memory_beats_memoryless():
    link = LinkModel(length_km=10.0)
    with_memory = chain_simulate(4, link, ChainPolicy())
    without = chain_simulate(4, link, ChainPolicy(with_memory=False))
    assert with_memory.rate > without.rate


def test_chain_rate_decreases_with_segments():
    link = LinkModel(length_km=10.0)
    rates = [chain_simulate(n, link, ChainPolicy()).rate for n in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_chain_distillation_trades_rate_for_fidelity():
    link = LinkModel(length_km=10.0, phase_noise_sigma=0.35)
    plain = chain_simulate(4, link, ChainPolicy())
    distilled = chain_simulate(4, link, ChainPolicy(distill_rounds=(1,)))
    assert distilled.fidelity > plain.fidelity
    assert distilled.rate < plain.rate
    assert distilled.distill_rounds_used == 4


def test_chain_fidelity_decreases_with_noise():
    fids = [chain_simulate(4, LinkModel(length_km=10.0, phase_noise_sigma=s),
                           ChainPolicy()).fidelity
            for s in (0.0, 0.2, 0.5)]
    assert fids[0] == pytest.approx(1.0, abs=1e-12)
    assert fids[0] > fids[1] > fids[2]


@pytest.mark.parametrize("with_memory", [True, False])
@pytest.mark.parametrize("n_trials", [0, -3])
def test_chain_monte_carlo_rejects_n_trials_below_one(with_memory, n_trials):
    rng = stream(1)
    with pytest.raises(ConfigError, match=f"n_trials must be >= 1, got {n_trials}"):
        chain_simulate(2, LinkModel(), ChainPolicy(with_memory=with_memory),
                       rng=rng, n_trials=n_trials)
    assert rng.random() == stream(1).random()  # nothing was drawn
    # The analytic mode draws nothing and reads no n_trials.
    policy = ChainPolicy(with_memory=with_memory)
    assert chain_simulate(2, LinkModel(), policy, n_trials=n_trials) \
        == chain_simulate(2, LinkModel(), policy)


def test_chain_monte_carlo_agrees_with_analytic():
    link = LinkModel(length_km=12.0)
    analytic = chain_simulate(4, link, ChainPolicy())
    mc = chain_simulate(4, link, ChainPolicy(), rng=stream(2024), n_trials=4000)
    assert mc.fidelity == analytic.fidelity
    assert mc.rate == pytest.approx(analytic.rate, rel=0.15)


def test_chain_memoryless_analytic_vs_monte_carlo():
    """The memoryless schedule is exactly geometric, so MC must agree."""
    link = LinkModel(length_km=5.0)
    analytic = chain_simulate(2, link, ChainPolicy(with_memory=False))
    mc = chain_simulate(2, link, ChainPolicy(with_memory=False),
                        rng=stream(77), n_trials=20000)
    assert mc.rate == pytest.approx(analytic.rate, rel=0.05)


def test_chain_satellite_links():
    sat = LinkModel(attenuation_db_per_km=0.0, extra_transmission=0.01)
    result = chain_simulate(1, sat, ChainPolicy(with_memory=False))
    assert result.rate == pytest.approx(0.01, abs=1e-15)


def test_chain_validation():
    with pytest.raises(ConfigError):
        chain_simulate(0, LinkModel())


@pytest.mark.parametrize("segments, levels", [(1, 1), (4, 3), (16, 5)])
@pytest.mark.parametrize("seed", [None, 3])
def test_chain_refuses_distill_levels_it_would_not_read(segments, levels, seed):
    """A chain of n segments distills at ceil(log2 n) + 1 nesting levels; an
    entry beyond them is refused in both modes, before anything is drawn."""
    def fresh():
        return None if seed is None else stream(seed)

    link = LinkModel(length_km=10.0, phase_noise_sigma=0.35)
    rng = fresh()
    surplus = ChainPolicy((1,) + (0,) * (levels - 1) + (7,))
    with pytest.raises(ConfigError, match=rf"^distill_rounds: a chain of {segments} segments "
                                          rf"has {levels} nesting levels, got {levels + 1} "
                                          rf"entries$"):
        chain_simulate(segments, link, surplus, rng=rng, n_trials=50)
    if rng is not None:
        assert rng.random() == stream(seed).random()
    # One entry per level runs, and trailing zeros are the missing levels.
    full = ChainPolicy((1,) + (0,) * (levels - 1))
    assert chain_simulate(segments, link, full, rng=fresh(), n_trials=50) \
        == chain_simulate(segments, link, ChainPolicy((1,)), rng=fresh(), n_trials=50)


def test_nesting_level_is_exact_beside_every_power_of_two():
    """ceil(log2 n) from the count's bits: a float log2 rounds 2**k + 1
    down to level k from k = 49 on, and a chain that long is built."""
    for k in range(2, 1101):
        assert [repeater._depth_of(2**k + d) for d in (-1, 0, 1)] == [k, k, k + 1], k
    # One distill_rounds entry per level: 51 levels at 2**49 + 1 segments.
    policy = ChainPolicy((0,) * 51)
    assert chain_simulate(2**49 + 1, LinkModel(), policy).rate > 0.0


# ---------------------------------------------------------------------------
# Monte Carlo evaluator against the recursive scalar sampler
# ---------------------------------------------------------------------------

def _level(n_segments):
    """Nesting level of a chain of n segments: ceil(log2 n)."""
    return (n_segments - 1).bit_length()


def _reference_chain(links, policy, rng, n_trials):
    """The nested schedule as a recursive closure sampler: one
    rng.geometric per generation and one rng.random per coin, depth first.
    The analytic part repeats the same tree walk in the same float order."""

    def distill(state, slots, rounds):
        used = 0
        for _ in range(rounds):
            step = sscg_distill(state, state)
            if step.output is None or step.success_probability <= 0.0:
                break
            slots = _expected_max_geometric(slots, slots) / step.success_probability
            state = step.output
            used += 1
        return state, slots, used

    def analytic(segment_links):
        if len(segment_links) == 1:
            link = segment_links[0]
            state = heralded_pair_state(link, policy.double_excitation_weight)
            q = link.transmission()
            state, slots, used = distill(state, 1.0 / q, policy.rounds_at(0))
            return state, slots, used, q
        mid = (len(segment_links) + 1) // 2
        left, right = analytic(segment_links[:mid]), analytic(segment_links[mid:])
        swap = entanglement_swap(left[0], right[0])
        if swap.output is None or swap.success_probability <= 0.0:
            raise ConfigError("chain cannot produce entanglement")
        slots = _expected_max_geometric(left[1], right[1]) / swap.success_probability
        prob_slot = left[3] * right[3] * swap.success_probability
        state, slots, used = distill(swap.output, slots,
                                     policy.rounds_at(_level(len(segment_links))))
        return state, slots, left[2] + right[2] + used, prob_slot

    def attach_distill(sample, state, rounds):
        for _ in range(rounds):
            step = sscg_distill(state, state)
            if step.output is None or step.success_probability <= 0.0:
                break
            inner, p_d = sample, step.success_probability

            def rounded(inner=inner, p_d=p_d):
                t = max(inner(), inner())
                while rng.random() >= p_d:
                    t += max(inner(), inner())
                return t
            sample = rounded
            state = step.output
        return state, sample

    def build(segment_links):
        if len(segment_links) == 1:
            link = segment_links[0]
            q = link.transmission()

            def raw():
                return float(rng.geometric(q))
            return attach_distill(
                raw, heralded_pair_state(link, policy.double_excitation_weight),
                policy.rounds_at(0))
        mid = (len(segment_links) + 1) // 2
        left_state, left_sample = build(segment_links[:mid])
        right_state, right_sample = build(segment_links[mid:])
        swap = entanglement_swap(left_state, right_state)
        p_swap = swap.success_probability

        def sample():
            t = max(left_sample(), right_sample())
            while rng.random() >= p_swap:
                t += max(left_sample(), right_sample())
            return t
        return attach_distill(sample, swap.output,
                              policy.rounds_at(_level(len(segment_links))))

    state, slots, used, _ = analytic(links)
    if rng is not None:
        _, sampler = build(links)
        slots = float(sum(sampler() for _ in range(n_trials))) / n_trials
    return repeater.ChainResult(rate=min(1.0 / slots, 1.0), fidelity=state.fidelity(),
                                distill_rounds_used=used, final_state=state,
                                expected_slots=slots)


# Per-attempt herald probabilities: numpy's geometric searches at
# q >= 1/3 (one double per draw) and inverts an exponential below.
_LINKS = {
    "q0.631": LinkModel(length_km=10.0),
    "q0.398": LinkModel(length_km=20.0, phase_noise_sigma=0.2),
    "q1/3": LinkModel(attenuation_db_per_km=0.0, extra_transmission=1.0 / 3.0),
    "q0.316": LinkModel(length_km=25.0),
}


@settings(max_examples=60, deadline=None)
@given(
    segments=st.integers(1, 16),
    name=st.sampled_from(sorted(_LINKS)),
    rounds=st.lists(st.integers(0, 1), max_size=3),
    double=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**32 - 1),
    n_trials=st.integers(1, 500),
    window=st.sampled_from([1, 2, 7, 64, repeater.MC_WINDOW]),
)
# The benchmark's two chains: tables through the third nesting level and
# the descent above it, at the full window.
@example(segments=16, name="q0.631", rounds=[1], double=0.0,
         seed=1, n_trials=500, window=repeater.MC_WINDOW)
@example(segments=8, name="q0.631", rounds=[1, 1], double=0.0,
         seed=7, n_trials=500, window=repeater.MC_WINDOW)
# Nodes over the leaf twice: a swap of two single-link segments, and
# level-0 distillation under a swap, down to one uniform.
@example(segments=2, name="q0.398", rounds=[], double=0.0,
         seed=3, n_trials=500, window=1)
@example(segments=2, name="q0.398", rounds=[], double=0.0,
         seed=3, n_trials=500, window=2)
@example(segments=2, name="q0.398", rounds=[], double=0.0,
         seed=3, n_trials=500, window=3)
@example(segments=2, name="q0.398", rounds=[], double=0.0,
         seed=3, n_trials=500, window=repeater.MC_WINDOW)
@example(segments=2, name="q0.398", rounds=[1], double=0.0,
         seed=3, n_trials=500, window=1)
@example(segments=2, name="q0.398", rounds=[1], double=0.0,
         seed=3, n_trials=500, window=2)
@example(segments=2, name="q0.398", rounds=[1], double=0.0,
         seed=3, n_trials=500, window=3)
@example(segments=2, name="q0.398", rounds=[1], double=0.0,
         seed=3, n_trials=500, window=repeater.MC_WINDOW)
def test_monte_carlo_matches_scalar_sampler(segments, name, rounds,
                                            double, seed, n_trials, window):
    """Same ChainResult and the same next draw as the closure sampler, for
    uneven trees, links on both sides of numpy's search/inversion switch,
    distillation at levels 0-2 and every window size down to one uniform."""
    link = _LINKS[name]
    links = [link] * segments
    # The chain refuses more entries than its nesting levels.
    policy = ChainPolicy(distill_rounds=tuple(rounds[:_level(segments) + 1]),
                         double_excitation_weight=double)
    assert chain_simulate(segments, link, policy) == \
        _reference_chain(links, policy, None, 0)
    # Keep the scalar reference near 2e5 draws per example.
    reads = repeater._chain_plan(segments, link, policy)[-1].reads
    n_trials = max(1, min(n_trials, int(2e5 / reads)))
    ref_rng, rng = stream(seed), stream(seed)
    expected = _reference_chain(links, policy, ref_rng, n_trials)
    with mock.patch.object(repeater, "MC_WINDOW", window):
        result = chain_simulate(segments, link, policy, rng=rng, n_trials=n_trials)
    assert result == expected
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("rounds", [(), (1,), (1, 1)])
def test_plan_has_one_leaf_and_counts_reads_per_node(rounds):
    """Subtrees of a segment count share a node: plan[0] is the only leaf,
    a nesting level holds at most two segment counts, children come before
    parents, and each node's reads is the mean number of uniforms per
    sample, 1 at the leaf and (children's + coin) / p above."""
    for segments in range(1, 65):
        plan = repeater._chain_plan(segments, _LINKS["q0.631"], ChainPolicy(rounds))
        assert [i for i, node in enumerate(plan) if node.children is None] == [0]
        assert len(plan) <= (2 * _level(segments) + 1) * (1 + max(rounds, default=0))
        reads = []
        for node in plan:
            if node.children is None:
                reads.append(1.0)
            else:
                a, b = node.children
                assert max(a, b) < len(reads)
                reads.append((reads[a] + reads[b] + 1.0) / node.p)
        assert [node.reads for node in plan] == reads


def _search_draws(sums, u):
    """numpy's sequential-search geometric for next doubles u: the first k
    with u <= sums[k - 1]."""
    return np.searchsorted(sums, u) + 1


def _walk_tables(plan, u):
    """Per-offset end and delivery time of every plan node over the window
    u, attempt by attempt in plain Python.  Offsets len(u) and len(u) + 1
    are invalid starts; a sample that would read past the window ends at
    len(u) + 1 with no value."""
    w = len(u)
    ends, vals = [], []
    for node in plan:
        end, val = [w + 1] * (w + 2), [None] * (w + 2)
        if node.children is None:
            draws = _search_draws(_geometric_search_sums(node.p), u)
            for j in range(w):
                end[j], val[j] = j + 1, int(draws[j])
        else:
            a, b = node.children
            for j in range(w):
                at, total = j, 0
                while True:
                    mid = ends[a][at]
                    coin = ends[b][mid]
                    if coin >= w:  # a child or the coin runs past the window
                        break
                    total += max(vals[a][at], vals[b][mid])
                    at = coin + 1
                    if u[coin] < node.p:
                        end[j], val[j] = at, total
                        break
        ends.append(end)
        vals.append(val)
    return ends, vals


# (link, segments, distill_rounds): a swap of two leaves, level-0
# distillation of the leaf, a swap of two distilled leaves, and a swap of a
# swap with the leaf.
_TABLE_PLANS = {
    "leaf-pair": ("q0.398", 2, ()),
    "distill-leaf": ("q0.631", 1, (1,)),
    "swap-of-nodes": ("q0.631", 2, (1,)),
    "swap-of-node-and-leaf": ("q0.631", 3, ()),
}


@pytest.mark.parametrize("window", [1, 2, 3, 7, 64, repeater.MC_WINDOW])
@pytest.mark.parametrize("plan_name", sorted(_TABLE_PLANS))
def test_block_tables_match_a_walk_at_every_offset(plan_name, window):
    """After one _slide, every node's end[j] equals an attempt-by-attempt
    walk from offset j over the same uniforms, and so does val[j] wherever
    end[j] <= W; a sample that runs past the window reads end[j] = W + 1.
    TABLE_SPAN 0 tables every node at every window, so the offsets near the
    window's edge, which the sampler seldom reads, are all checked."""
    name, segments, rounds = _TABLE_PLANS[plan_name]
    plan = repeater._chain_plan(segments, _LINKS[name], ChainPolicy(distill_rounds=rounds))
    # Seed 12 has retry chains long enough at the full window that the
    # rounds over the offsets still running read pointers they wrote.
    with mock.patch.object(repeater, "TABLE_SPAN", 0):
        draws = repeater._BlockDraws(plan, stream(12), window)
    assert draws.tabled == list(range(len(plan)))
    draws._slide()
    ends, vals = _walk_tables(plan, draws.u[:window])
    for idx in draws.tabled:
        end, val = draws.end[idx], draws.val[idx]
        assert end.tolist() == ends[idx], idx
        valid = np.flatnonzero(end <= window)
        assert val[valid].tolist() == [vals[idx][j] for j in valid], idx


@pytest.mark.parametrize("q", [0.3333333333333333, 0.4, 0.631, 0.999])
def test_geometric_table_matches_numpy(q):
    table = _GeometricTable(q)
    assert table.sums[-1] >= 1.0 - 2.0 ** -53
    rng, twin = stream(5), stream(5)
    expected = rng.geometric(q, size=200_000)
    got = np.zeros(200_000, dtype=np.int64)
    table.draw(twin.random(200_000), got)
    np.testing.assert_array_equal(got, expected)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("q", [0.3333333333333333, 0.4, 0.631, 0.999, 1.0])
def test_bucket_table_matches_search_at_edges(q):
    """The bucket table draws what the search draws at every running sum,
    every bucket edge and both of their neighbouring doubles."""
    table = _GeometricTable(q)
    edges = np.arange(repeater._BUCKETS + 1) / repeater._BUCKETS
    points = np.concatenate([table.sums, edges])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 2.0),
                        [0.0, 1.0 - 2.0 ** -53]])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = np.zeros(len(u), dtype=np.int64)
    table.draw(u, got)
    np.testing.assert_array_equal(got, _search_draws(table.sums, u))
