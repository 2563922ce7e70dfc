"""End-to-end release gates, one test per shipped guarantee.

Each test is self-contained: it builds its own scenario, states the expected
value next to the assertion, and uses five-sigma binomial windows for Monte
Carlo comparisons so a pass/fail line maps directly onto one guarantee.
"""
import cmath
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import entscope
from entscope import oracle
from entscope.cli import main
from entscope.estimation import (
    closure_phase,
    estimate_visibility,
    inject_telescope_phases,
    reconstruct_image,
)
from entscope.eventlog import fringe_counts
from entscope.repeater import EntangledPairState, figure_of_merit, sscg_distill
from entscope.schemes import SchemeConfig, optimal_p_e, simulate_run, weak_coherent_stats
from entscope.sensitivity import SensitivityBudget, limiting_magnitude
from entscope.sky import Baseline, SourceModel, visibility

WAVELENGTH = 800e-9
BASELINE_M = 100.0
PRESETS = Path(entscope.__file__).parent / "presets"


def binary_with_visibility(v: float) -> SourceModel:
    """Equal binary whose fringe contrast at the 100 m baseline is v."""
    x = math.acos(v)
    separation = 2.0 * math.asin(x * WAVELENGTH / (2.0 * math.pi * BASELINE_M))
    return SourceModel.binary(separation)


def five_sigma(p: float, n: int) -> float:
    return 5.0 * math.sqrt(p * (1.0 - p) / n)


def test_criterion_1_closed_forms_match_circuit_oracle():
    # The per-scheme closed-form probabilities and the full photonic-circuit
    # evaluation agree to 1e-9 across the documented grids, in under 10 s.
    start = time.perf_counter()
    reports = [oracle.check_direct(), oracle.check_entangled(),
               oracle.check_weak_coherent(), oracle.check_hbt()]
    elapsed = time.perf_counter() - start
    for report in reports:
        assert report.tolerance <= 1e-9
        assert report.max_error < 1e-9, report.line()
        assert report.cases > 0
    assert elapsed < 10.0


def test_criterion_2_entangled_fringe_at_a_million_slots():
    # 1e6 slots, contrast 0.7, ideal detectors: each of the 8 delay settings
    # reproduces the conditional fringe [1 + 0.7 cos(delta)]/2 within five
    # sigma, and the acceptance probability sits within five sigma of 1/2.
    n_slots = 1_000_000
    deltas = tuple(2.0 * math.pi * i / 8.0 for i in range(8))
    config = SchemeConfig(kind="entangled", delta_schedule=deltas)
    start = time.perf_counter()
    log = simulate_run(config, binary_with_visibility(0.7),
                       Baseline(BASELINE_M, WAVELENGTH), n_slots, seed=101)
    elapsed = time.perf_counter() - start
    grid, successes, totals = fringe_counts(log)
    for delta, s, t in zip(grid, successes, totals):
        expected = 0.5 * (1.0 + 0.7 * math.cos(delta))
        assert abs(s / t - expected) < five_sigma(expected, int(t))
    acceptance = totals.sum() / n_slots
    assert abs(acceptance - 0.5) < five_sigma(0.5, n_slots)
    assert elapsed < 60.0


def test_criterion_3_weak_coherent_amplitude_factor_and_optimal_reference():
    # At p_a = p_e = 0.02 and unit source contrast the fitted fringe
    # amplitude is suppressed to 2 p_a p_e / (p_e^2 + 2 p_a^2 + 2 p_a p_e)
    # = 0.4; checked at 1e7 slots against the fit's own error bar.
    deltas = tuple(2.0 * math.pi * i / 8.0 for i in range(8))
    config = SchemeConfig(kind="weak_coherent", p_a=0.02, p_e=0.02,
                          delta_schedule=deltas)
    log = simulate_run(config, SourceModel.point(),
                       Baseline(BASELINE_M, WAVELENGTH), 10_000_000, seed=202)
    fit = estimate_visibility(log)
    assert abs(fit.amplitude - 0.4) < 5.0 * fit.amplitude_error

    # For a contrast-free source the reference brightness maximizing that
    # suppression factor equals p_a; located numerically to 1e-6 and
    # cross-checked against the closed form.
    p_a = 0.02
    def negative_factor(p_e: float) -> float:
        return -weak_coherent_stats(p_a, p_e, 0.0, 0.0).visibility_factor
    coarse = np.linspace(1e-4, 0.1, 2000)
    best = coarse[np.argmin([negative_factor(p) for p in coarse])]
    refined = minimize_scalar(negative_factor,
                              bounds=(best / 2.0, min(2.0 * best, 0.1)),
                              method="bounded", options={"xatol": 1e-9})
    assert abs(refined.x - p_a) <= 1e-6
    assert abs(optimal_p_e(p_a, 0.0) - refined.x) <= 1e-6


def test_criterion_4_telescope_array_discard_fraction():
    # Sharing one photon over n telescopes discards the slot with
    # probability 1/n (the click lands back in the reference port).
    n_slots = 50_000
    for n_tel, seed in ((2, 31), (4, 32), (10, 33)):
        config = SchemeConfig(kind="w_state", n_telescopes=n_tel,
                              w_phases=(0.0,) * n_tel)
        positions = tuple(40.0 * i for i in range(n_tel))
        log = simulate_run(config, SourceModel.point(),
                           (positions, WAVELENGTH), n_slots, seed=seed)
        discard = 1.0 - log.n_accepted_slots() / n_slots
        assert abs(discard - 1.0 / n_tel) < five_sigma(1.0 / n_tel, n_slots)


def test_criterion_5_distillation_improves_loss_mixed_pairs():
    # One round on two copies of {30% vacuum, 70% shared photon} with the
    # default 0.15/0.85 splitters raises the fidelity, and the protocol
    # circuit matches the independent two-photon closed form to 1e-9.
    pair = EntangledPairState(0.3, 0.7, 1.0, 0.0)
    f_in = pair.fidelity()
    result = sscg_distill(pair, pair)
    assert result.output.fidelity() > f_in
    assert result.success_probability > 0.0
    report = oracle.check_distillation()
    assert report.tolerance <= 1e-9
    assert report.max_error < 1e-9, report.line()


def test_criterion_6_figure_of_merit_exact_value():
    assert figure_of_merit(0.5, 0.5, 0.1) == 0.025


def test_criterion_7_limiting_magnitudes_in_band():
    assert 6.0 <= limiting_magnitude(SensitivityBudget()) <= 9.0
    assert 10.5 <= limiting_magnitude(SensitivityBudget.improved()) <= 13.5


def test_criterion_8_imaging_round_trip_and_closure_invariance():
    # Forward-model visibilities of a random 16x16 field on the full spatial
    # frequency grid, invert, and land back on the source to 1e-8.
    n, pixel_scale = 16, 0.4e-9
    rng = np.random.default_rng(808)
    truth = rng.random((n, n))
    source = SourceModel(grid=truth, pixel_scale=pixel_scale)
    unit = WAVELENGTH / (n * pixel_scale)
    vectors = np.array([(kx * unit, ky * unit) for kx in range(n) for ky in range(n)])
    values = [visibility(source, Baseline(tuple(v), WAVELENGTH)) for v in vectors.tolist()]
    image = reconstruct_image(vectors, WAVELENGTH, values, (n, n), pixel_scale)
    assert np.max(np.abs(image - truth / truth.sum())) < 1e-8

    # Closure phases survive arbitrary per-telescope phase errors to 1e-12.
    vis = {(0, 1): 0.8 * cmath.exp(0.7j),
           (1, 2): 0.4 * cmath.exp(-2.1j),
           (0, 2): 0.9 * cmath.exp(1.3j)}
    def closure(v):
        return closure_phase(v[(0, 1)], v[(1, 2)], v[(0, 2)].conjugate())
    reference = closure(vis)
    for phases in ([0.0, 0.0, 0.0], [0.5, -1.7, 2.9], [3.1, 0.2, -0.4]):
        shifted = inject_telescope_phases(vis, phases)
        assert abs(closure(shifted) - reference) < 1e-12


def test_criterion_9_bundled_scenario_reruns_are_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(["simulate", "--config",
                     str(PRESETS / "entangled_demo.ini"), "--out-dir", str(d)])
        assert code == 0
    first = (dirs[0] / "events.jsonl").read_bytes()
    second = (dirs[1] / "events.jsonl").read_bytes()
    assert first == second
    assert len(first) > 0
    assert (dirs[0] / "summary.csv").read_bytes() == \
        (dirs[1] / "summary.csv").read_bytes()
