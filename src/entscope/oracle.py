"""Dual-route verification grids.

Every measurement scheme and repeater protocol in this package exists twice:
as a closed-form probability formula and as an exact few-mode circuit
evaluated by the Fock simulator.  The functions here sweep documented
parameter grids and report the worst disagreement between the two routes.
`run_all` backs the ``entscope oracle-check`` subcommand; the test suite
calls the group functions directly.

The distillation and swap groups do not reuse the repeater circuit: they
recompute the heralded two-photon statistics from the 4x4 single-particle
unitary with hand-expanded bosonic combinatorics, so a bug in the Fock
machinery cannot cancel against itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityOperator, EntangledPairState, pair_rows
from .repeater import entanglement_swap, sscg_distill
from .schemes import (
    astro_pair_rate,
    direct_detection_probs,
    direct_distribution,
    entangled_coincidence_probs,
    classify_pattern,
    hbt_coincidence_prob,
    hbt_pair_state,
    lab_pair_state,
    resource_state,
    two_telescope_distribution,
    weak_coherent_stats,
)
from .sky import arrival_density_matrix

TOLERANCE = 1e-9

VISIBILITY_GRID = (0.0, 0.3, 0.7, 1.0,
                   0.5 * np.exp(1.1j), 0.9 * np.exp(-2.4j))
DELTA_GRID = tuple(2.0 * math.pi * k / 16.0 for k in range(16))
FAINT_GRID = (0.005, 0.02, 0.1)


@dataclass(frozen=True)
class GridReport:
    name: str
    cases: int
    max_error: float
    tolerance: float = TOLERANCE

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<34} {self.cases:>5} cases  "
                f"max error {self.max_error:.3e}  "
                f"[tol {self.tolerance:.0e}] {verdict}")


def _site_sums(dist):
    """Aggregate a 4-mode pattern table into (acceptance, correlated)."""
    accepted = 0.0
    correlated = 0.0
    for pattern, prob in dist.items():
        acc, corr = classify_pattern(pattern)
        if acc:
            accepted += prob
        if corr:
            correlated += prob
    return accepted, correlated


def check_direct() -> GridReport:
    worst = 0.0
    cases = 0
    for v in VISIBILITY_GRID:
        for delta in DELTA_GRID:
            p1, p2 = direct_detection_probs(v, delta)
            dist = direct_distribution(v, delta)
            worst = max(worst,
                        abs(dist.get((1, 0), 0.0) - p1),
                        abs(dist.get((0, 1), 0.0) - p2))
            cases += 1
    return GridReport("direct detection", cases, worst)


def check_entangled() -> GridReport:
    worst = 0.0
    cases = 0
    for v in VISIBILITY_GRID:
        for delta in DELTA_GRID:
            probs = entangled_coincidence_probs(v, delta)
            dist = two_telescope_distribution(
                arrival_density_matrix(v), resource_state(delta))
            accepted, correlated = _site_sums(dist)
            worst = max(worst,
                        abs(accepted - probs.acceptance),
                        abs(correlated - probs.acceptance * probs.correlated))
            cases += 1
    return GridReport("entangled coincidence", cases, worst)


def check_weak_coherent() -> GridReport:
    """Recompose the faint-source cases from their individual circuits.

    Case weights: one astronomical and one reference photon p_a*p_e,
    two reference photons p_e^2/2 (Poissonian), two astronomical photons
    with the chaotic bunching enhancement (astro_pair_rate).
    """
    worst = 0.0
    cases = 0
    for v in VISIBILITY_GRID:
        pair_rate = astro_pair_rate(1.0, v)
        acc_aa, corr_aa = _site_sums(
            two_telescope_distribution(hbt_pair_state(v), None))
        for delta in DELTA_GRID[::2]:
            acc_ae, corr_ae = _site_sums(two_telescope_distribution(
                arrival_density_matrix(v), resource_state(delta)))
            acc_ee, corr_ee = _site_sums(two_telescope_distribution(
                None, lab_pair_state(delta)))
            for p_a in FAINT_GRID:
                for p_e in FAINT_GRID:
                    stats = weak_coherent_stats(p_a, p_e, v, delta)
                    weights = (p_a * p_e, p_e**2 / 2.0, p_a**2 * pair_rate)
                    total = (weights[0] * acc_ae + weights[1] * acc_ee
                             + weights[2] * acc_aa)
                    corr = (weights[0] * corr_ae + weights[1] * corr_ee
                            + weights[2] * corr_aa)
                    worst = max(worst,
                                abs(total - stats.p_total_coincidence),
                                abs(corr - stats.p_correlated))
                    cases += 1
    return GridReport("weak-coherent recomposition", cases, worst)


def check_hbt() -> GridReport:
    worst = 0.0
    cases = 0
    for v in VISIBILITY_GRID:
        dist = two_telescope_distribution(hbt_pair_state(v), None)
        cross = sum(prob for pattern, prob in dist.items()
                    if (pattern[0] + pattern[2] > 0)
                    and (pattern[1] + pattern[3] > 0))
        for p_a in FAINT_GRID:
            analytic = hbt_coincidence_prob(p_a, v)
            circuit = p_a**2 * astro_pair_rate(1.0, v) * cross
            worst = max(worst, abs(analytic - circuit))
            cases += 1
    return GridReport("HBT cross-site coincidence", cases, worst)


# ---------------------------------------------------------------------------
# Repeater protocols, recomputed from single-particle unitaries
# ---------------------------------------------------------------------------

def _splitter_unitary(n_modes: int, i: int, j: int, t: float,
                      phase: float = 0.0) -> np.ndarray:
    u = np.eye(n_modes, dtype=complex)
    root_t = math.sqrt(t)
    root_r = math.sqrt(1.0 - t)
    u[i, i] = root_t
    u[j, j] = root_t
    u[j, i] = 1j * np.exp(1j * phase) * root_r
    u[i, j] = 1j * np.exp(-1j * phase) * root_r
    return u


def _qubit_components(pair: EntangledPairState, mode_lo: int, mode_hi: int,
                      n_modes: int):
    """Pure one-photon eigencomponents (weight, coefficient vector).

    The one-photon block of the pair family diagonalizes into
    (|01> +- e^{i psi}|10>)/sqrt(2) with weights w1 (1 +- c)/2.
    """
    out = []
    for sign in (+1.0, -1.0):
        weight = pair.one_photon_weight * (1.0 + sign * pair.coherence) / 2.0
        if weight <= 0.0:
            continue
        vec = np.zeros(n_modes, dtype=complex)
        vec[mode_hi] = 1.0 / math.sqrt(2.0)
        vec[mode_lo] = sign * np.exp(1j * pair.phase) / math.sqrt(2.0)
        out.append((weight, vec))
    return out


def _two_photon_conditionals(a: EntangledPairState, b: EntangledPairState,
                             unitary: np.ndarray, kept: tuple[int, int],
                             monitors: tuple[int, int],
                             phase_on_kept0) -> tuple[float, np.ndarray]:
    """Herald statistics of the two-photon sector.

    Returns (success probability of the sector weighted by both one-photon
    weights, 2x2 unnormalized one-photon density block on the kept modes in
    order (kept[0], kept[1])).  `phase_on_kept0(monitor)` gives the
    feed-forward phase applied to the kept[0] amplitude for each herald.
    """
    n = unitary.shape[0]
    prob = 0.0
    block = np.zeros((2, 2), dtype=complex)
    for wa, alpha in _qubit_components(a, 0, 1, n):
        alpha_out = unitary @ alpha
        for wb, beta in _qubit_components(b, 2, 3, n):
            beta_out = unitary @ beta
            weight = wa * wb
            for monitor in monitors:
                ket = np.array([
                    alpha_out[k] * beta_out[monitor]
                    + alpha_out[monitor] * beta_out[k]
                    for k in kept])
                ket[0] *= np.exp(1j * phase_on_kept0(monitor))
                prob += weight * float(np.vdot(ket, ket).real)
                block += weight * np.outer(ket, ket.conj())
    return prob, block


def _herald_click_prob(pair: EntangledPairState, pair_modes: tuple[int, int],
                       unitary: np.ndarray, monitors: tuple[int, int]) -> float:
    """Probability that a lone photon from one pair clicks a monitor."""
    n = unitary.shape[0]
    total = 0.0
    for weight, vec in _qubit_components(pair, *pair_modes, n):
        out = unitary @ vec
        total += weight * sum(abs(out[m])**2 for m in monitors)
    return total


def _entry_error(rho: DensityOperator, kept_block: np.ndarray,
                 vacuum_weight: float) -> float:
    """Worst difference between a 2-mode density matrix and the closed form.

    kept_block is ordered (mode0, mode1), i.e. occupations (1,0), (0,1).
    Every other entry must be zero, except the vacuum/one-photon coherences,
    which are not compared.
    """
    vac, i01, i10 = pair_rows(rho.photon_cutoff)[:3]
    kept = [i10, i01]
    diff = rho.matrix.copy()
    diff[vac, vac] -= vacuum_weight
    diff[np.ix_(kept, kept)] -= kept_block
    compared = np.ones(diff.shape, dtype=bool)
    compared[vac, kept] = compared[kept, vac] = False
    diff = diff[compared]
    # hypot, not np.abs: numpy's vectorized complex abs can differ from the
    # scalar abs by an ulp.
    return float(np.hypot(diff.real, diff.imag).max())


DISTILL_WEIGHT_GRID = (0.0, 0.15, 0.3, 0.5)
DISTILL_COHERENCE_GRID = (0.4, 0.8, 1.0)
DISTILL_SPLITTERS = ((0.15, 0.85), (0.3, 0.7),
                     ((2.0 - math.sqrt(2.0)) / 4.0, (2.0 + math.sqrt(2.0)) / 4.0))


def check_distillation() -> GridReport:
    """Unbalanced-splitter distillation vs the independent closed form.

    Success keeps only the two-photon sector (lone-photon heralds empty the
    kept register and are excluded), so the closed-form success probability
    is the heralded two-photon weight alone.
    """
    worst = 0.0
    cases = 0
    monitors = (2, 3)
    kept = (0, 1)
    for t_low, t_high in DISTILL_SPLITTERS:
        unitary = (_splitter_unitary(4, 1, 3, t_high, phase=math.pi)
                   @ _splitter_unitary(4, 0, 2, t_low))
        for w0_a in DISTILL_WEIGHT_GRID:
            for w0_b in DISTILL_WEIGHT_GRID:
                for c in DISTILL_COHERENCE_GRID:
                    for psi in (0.0, 0.7):
                        pair_a = EntangledPairState(w0_a, 1.0 - w0_a, c, psi)
                        pair_b = EntangledPairState(w0_b, 1.0 - w0_b, c, 0.0)
                        prob, block = _two_photon_conditionals(
                            pair_a, pair_b, unitary, kept, monitors,
                            lambda m: math.pi if m == 2 else 0.0)
                        result = sscg_distill(pair_a, pair_b,
                                              t_low=t_low, t_high=t_high)
                        worst = max(worst,
                                    abs(result.success_probability - prob))
                        if prob > 1e-12:
                            worst = max(worst, _entry_error(
                                result.output_density, block / prob, 0.0))
                        cases += 1
    return GridReport("distillation closed form", cases, worst)


def check_swap() -> GridReport:
    """Linear-optics swap vs the closed form, vacuum propagation included.

    A lone surviving photon that heralds leaves the kept register empty; the
    swap keeps those events, so the closed-form conditional carries their
    weight as vacuum.
    """
    worst = 0.0
    cases = 0
    monitors = (1, 2)
    kept = (0, 3)
    unitary = _splitter_unitary(4, 1, 2, 0.5)

    def feed_forward(monitor: int) -> float:
        correction = math.pi if monitor == 2 else 0.0
        return correction - math.pi / 2.0

    for w0_a in (0.0, 0.2, 0.4):
        for w0_b in (0.0, 0.3):
            for c in (0.5, 1.0):
                for psi_a, psi_b in ((0.0, 0.0), (0.8, -0.3)):
                    pair_a = EntangledPairState(w0_a, 1.0 - w0_a, c, psi_a)
                    pair_b = EntangledPairState(w0_b, 1.0 - w0_b, c, psi_b)
                    prob2, block = _two_photon_conditionals(
                        pair_a, pair_b, unitary, kept, monitors, feed_forward)
                    vac = (pair_b.vacuum_weight * _herald_click_prob(
                               pair_a, (0, 1), unitary, monitors)
                           + pair_a.vacuum_weight * _herald_click_prob(
                               pair_b, (2, 3), unitary, monitors))
                    prob = prob2 + vac
                    result = entanglement_swap(pair_a, pair_b)
                    worst = max(worst,
                                abs(result.success_probability - prob))
                    if prob > 1e-12:
                        worst = max(worst, _entry_error(
                            result.output_density, block / prob, vac / prob))
                    cases += 1
    return GridReport("entanglement swap closed form", cases, worst)


GROUPS = (check_direct, check_entangled, check_weak_coherent, check_hbt,
          check_distillation, check_swap)


def run_all() -> tuple[int, list[str]]:
    """Run every verification grid; returns (failure count, report lines)."""
    failures = 0
    lines = []
    for group in GROUPS:
        report = group()
        lines.append(report.line())
        if not report.passed:
            failures += 1
    return failures, lines
