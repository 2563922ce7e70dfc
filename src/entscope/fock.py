"""Exact few-mode Fock-space simulation.

States live in a truncated occupation-number basis (all occupation vectors
with total photon number <= photon_cutoff).  Every state, pure or mixed, is
one `DensityOperator`: a dense matrix over that basis.  Kets enter through
`DensityOperator.pure`, which takes a sparse occupation -> amplitude map and
builds |psi><psi|, so every circuit runs on the one matrix path.  The module
provides the linear-optics primitives (beam splitters, phase shifters), loss
channels, and click-pattern detection used as the ground-truth reference by
the higher-level interferometry and repeater modules.

Beam splitter convention (fixed throughout the package), acting on creation
operators of the two coupled modes::

    a+  ->  sqrt(t) a+ + i e^{+i phi} sqrt(1-t) b+
    b+  ->  i e^{-i phi} sqrt(1-t) a+ + sqrt(t) b+

so a single photon |1,0> with t = 1/2, phi = 0 becomes (|1,0> + i|0,1>)/sqrt(2).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Occupation = tuple[int, ...]

DEFAULT_CUTOFF = 4
MAX_MODES = 8

# Numerical tolerances for density-operator validation.
TRACE_TOL = 1e-10
HERM_TOL = 1e-12
EIG_TOL = 1e-10


class EmptyPostSelectionError(ValueError):
    """Raised when a post-selection predicate accepts probability zero."""


def _check_mode(mode: int, mode_count: int) -> None:
    if not isinstance(mode, (int, np.integer)) or not 0 <= mode < mode_count:
        raise ValueError(f"mode index {mode!r} out of range for {mode_count} modes")


def _check_dims(mode_count: int, photon_cutoff: int) -> None:
    if not 1 <= mode_count <= MAX_MODES:
        raise ValueError(f"mode_count must be in [1, {MAX_MODES}], got {mode_count}")
    if photon_cutoff < 0:
        raise ValueError(f"photon_cutoff must be >= 0, got {photon_cutoff}")


@lru_cache(maxsize=None)
def basis_states(mode_count: int, photon_cutoff: int) -> tuple[Occupation, ...]:
    """All occupation vectors with sum <= photon_cutoff, in lexicographic order."""
    _check_dims(mode_count, photon_cutoff)
    return tuple(
        occ
        for occ in itertools.product(range(photon_cutoff + 1), repeat=mode_count)
        if sum(occ) <= photon_cutoff
    )


@lru_cache(maxsize=None)
def basis_index(mode_count: int, photon_cutoff: int) -> dict[Occupation, int]:
    return {occ: i for i, occ in enumerate(basis_states(mode_count, photon_cutoff))}


@lru_cache(maxsize=64)
def _basis_array(mode_count: int, photon_cutoff: int) -> np.ndarray:
    """basis_states as a read-only (dimension, mode_count) integer array."""
    occs = np.array(basis_states(mode_count, photon_cutoff), dtype=np.intp)
    occs.flags.writeable = False
    return occs


def dimension(mode_count: int, photon_cutoff: int) -> int:
    return len(basis_states(mode_count, photon_cutoff))


@dataclass(frozen=True)
class DetectorModel:
    """Per-mode detector: binomial efficiency thinning plus dark counts.

    A dark event adds one extra count in the detection window with probability
    dark_prob_per_window, independently of the incident light.  Threshold
    (non-photon-number-resolving) detectors report click/no-click only.
    """

    efficiency: float = 1.0
    dark_prob_per_window: float = 0.0
    photon_number_resolving: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_prob_per_window < 1.0:
            raise ValueError(
                f"dark_prob_per_window must be in [0, 1), got {self.dark_prob_per_window}"
            )

    def count_probabilities(self, n_photons: int, max_count: int) -> np.ndarray:
        """P(reported count = k | n incident photons), k = 0..max_count."""
        eta, dark = self.efficiency, self.dark_prob_per_window
        detected = np.zeros(max_count + 2)
        for j in range(n_photons + 1):
            detected[j] += math.comb(n_photons, j) * eta**j * (1.0 - eta) ** (n_photons - j)
        probs = (1.0 - dark) * detected[: max_count + 1]
        probs[1:] += dark * detected[:max_count]
        if not self.photon_number_resolving:
            clicked = probs[1:].sum() + dark * detected[max_count]
            out = np.zeros(max_count + 1)
            out[0] = probs[0]
            out[1] = clicked
            return out
        # Counts beyond max_count cannot occur: n_photons <= cutoff <= max_count - 1.
        return probs


IDEAL_DETECTOR = DetectorModel()


@lru_cache(maxsize=64)
def _count_table(detector: DetectorModel, photon_cutoff: int) -> np.ndarray:
    """Read-only count_probabilities rows for n = 0..photon_cutoff incident photons."""
    max_count = photon_cutoff + 1  # light counts + at most one dark count
    table = np.array([detector.count_probabilities(n, max_count)
                      for n in range(photon_cutoff + 1)])
    table.flags.writeable = False
    return table


class DensityOperator:
    """Pure or mixed state as a dense matrix over the truncated occupation basis."""

    __slots__ = ("mode_count", "photon_cutoff", "matrix")

    def __init__(self, mode_count: int, photon_cutoff: int, matrix: np.ndarray) -> None:
        _check_dims(mode_count, photon_cutoff)
        dim = dimension(mode_count, photon_cutoff)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match basis size {dim}")
        self.mode_count = mode_count
        self.photon_cutoff = photon_cutoff
        self.matrix = matrix

    @classmethod
    def pure(cls, mode_count: int, photon_cutoff: int,
             amplitudes: dict[Occupation, complex]) -> "DensityOperator":
        """The pure state |psi><psi| of a sparse ket occupation -> amplitude."""
        _check_dims(mode_count, photon_cutoff)
        index = basis_index(mode_count, photon_cutoff)
        vec = np.zeros(len(index), dtype=complex)
        for occ, amp in amplitudes.items():
            if occ not in index:
                raise ValueError(f"occupation {occ} outside basis "
                                 f"({mode_count} modes, cutoff {photon_cutoff})")
            vec[index[occ]] = amp
        return cls(mode_count, photon_cutoff, np.outer(vec, vec.conjugate()))

    @classmethod
    def from_mixture(cls, pairs) -> "DensityOperator":
        """Weighted mixture of DensityOperator components."""
        acc = None
        for weight, rho in pairs:
            term = weight * rho.matrix
            if acc is None:
                acc = (rho.mode_count, rho.photon_cutoff, term.copy())
            else:
                if (rho.mode_count, rho.photon_cutoff) != acc[:2]:
                    raise ValueError("mixture components live in different spaces")
                acc[2][...] += term
        if acc is None:
            raise ValueError("empty mixture")
        return cls(*acc)

    @classmethod
    def vacuum(cls, mode_count: int, photon_cutoff: int) -> "DensityOperator":
        return cls.pure(mode_count, photon_cutoff, {(0,) * mode_count: 1.0 + 0.0j})

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def validate(self) -> None:
        """Raise if the matrix is not a physical state (trace/hermiticity/positivity)."""
        if abs(self.trace() - 1.0) > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {abs(self.trace() - 1.0):.3e}")
        herm_dev = np.max(np.abs(self.matrix - self.matrix.conjugate().T))
        if herm_dev > HERM_TOL:
            raise ValueError(f"hermiticity violated by {herm_dev:.3e}")
        eigs = np.linalg.eigvalsh(self.matrix)
        if eigs.min() < -EIG_TOL:
            raise ValueError(f"negative eigenvalue {eigs.min():.3e}")

    def diagonal_probabilities(self) -> dict[Occupation, float]:
        states = basis_states(self.mode_count, self.photon_cutoff)
        diag = np.real(np.diag(self.matrix))
        return {occ: float(p) for occ, p in zip(states, diag)}

    def photon_support(self) -> int:
        """Highest total photon number whose basis row or column holds a
        nonzero entry (0 for the zero matrix)."""
        nonzero = self.matrix != 0
        live = nonzero.any(axis=0) | nonzero.any(axis=1)
        totals = _basis_array(self.mode_count, self.photon_cutoff).sum(axis=1)
        return int(totals[live].max(initial=0))

    def tensor(self, other: "DensityOperator", photon_cutoff: int | None = None) -> "DensityOperator":
        """Joint state, truncated at photon_cutoff (default: the sum of the
        operands' cutoffs) and sized by the photons the operands carry.

        Splitters and phases conserve photon number and loss and
        conditioning only lower it, so no circuit on the joint state reaches
        an occupation above the operands' summed photon support.
        """
        cutoff = min(
            self.photon_cutoff + other.photon_cutoff if photon_cutoff is None else photon_cutoff,
            self.photon_support() + other.photon_support(),
        )
        modes = self.mode_count + other.mode_count
        dim = dimension(modes, cutoff)
        out = np.zeros((dim, dim), dtype=complex)
        rows_a, rows_b, rows_out = _tensor_rows(self.mode_count, self.photon_cutoff,
                                                other.mode_count, other.photon_cutoff, cutoff)
        block = self.matrix[np.ix_(rows_a, rows_a)] * other.matrix[np.ix_(rows_b, rows_b)]
        out[np.ix_(rows_out, rows_out)] = block
        return DensityOperator(modes, cutoff, out)

    def __repr__(self) -> str:
        return (f"DensityOperator({self.mode_count} modes, cutoff {self.photon_cutoff}, "
                f"trace {self.trace():.6f})")


@lru_cache(maxsize=64)
def _tensor_rows(modes_a: int, cutoff_a: int, modes_b: int, cutoff_b: int,
                 cutoff: int) -> np.ndarray:
    """Read-only (3, n) rows of A, of B and of the joint basis, one column per
    pair of basis states whose joint occupation fits the joint cutoff."""
    index = basis_index(modes_a + modes_b, cutoff)
    rows = np.array([
        (ia, ib, index[occ_a + occ_b])
        for ia, occ_a in enumerate(basis_states(modes_a, cutoff_a))
        for ib, occ_b in enumerate(basis_states(modes_b, cutoff_b))
        if sum(occ_a) + sum(occ_b) <= cutoff
    ], dtype=np.intp).T
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=256)
def _bs_output_amplitudes(n_a: int, n_b: int, t: float, phi: float) -> dict[int, complex]:
    """Amplitudes <m_a, m_b|U|n_a, n_b> keyed by m_a (m_b = n_a + n_b - m_a)."""
    alpha = math.sqrt(t)
    beta = 1j * np.exp(1j * phi) * math.sqrt(1.0 - t)
    gamma = 1j * np.exp(-1j * phi) * math.sqrt(1.0 - t)
    delta = math.sqrt(t)
    total = n_a + n_b
    out: dict[int, complex] = {}
    for m_a in range(total + 1):
        m_b = total - m_a
        amp = 0.0 + 0.0j
        for j in range(max(0, m_a - n_b), min(n_a, m_a) + 1):
            k = m_a - j
            amp += (
                math.comb(n_a, j)
                * math.comb(n_b, k)
                * alpha**j
                * beta ** (n_a - j)
                * gamma**k
                * delta ** (n_b - k)
            )
        amp *= math.sqrt(math.factorial(m_a) * math.factorial(m_b)
                         / (math.factorial(n_a) * math.factorial(n_b)))
        if amp != 0:
            out[m_a] = amp
    return out


# Bounded: every distinct (t, phi) is a new dense matrix, and splitter
# optimizations try hundreds of them.
@lru_cache(maxsize=64)
def _bs_unitary(mode_count: int, photon_cutoff: int, mode_a: int, mode_b: int,
                t: float, phi: float) -> np.ndarray:
    states = basis_states(mode_count, photon_cutoff)
    index = basis_index(mode_count, photon_cutoff)
    dim = len(states)
    u = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(states):
        n_a, n_b = occ[mode_a], occ[mode_b]
        for m_a, amp in _bs_output_amplitudes(n_a, n_b, t, phi).items():
            new = list(occ)
            new[mode_a] = m_a
            new[mode_b] = n_a + n_b - m_a
            u[index[tuple(new)], col] = amp
    return u


def apply_beam_splitter(state: DensityOperator, mode_a: int, mode_b: int,
                        transmissivity: float, phase: float = 0.0) -> DensityOperator:
    """Couple mode_a and mode_b with the package beam-splitter convention.

    Total photon number is conserved, so the truncated basis is closed under
    this operation and no renormalization is needed.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {transmissivity}")
    _check_mode(mode_a, state.mode_count)
    _check_mode(mode_b, state.mode_count)
    if mode_a == mode_b:
        raise ValueError("beam splitter requires two distinct modes")
    u = _bs_unitary(state.mode_count, state.photon_cutoff, mode_a, mode_b,
                    float(transmissivity), float(phase))
    return DensityOperator(state.mode_count, state.photon_cutoff,
                           u @ state.matrix @ u.conjugate().T)


def apply_phase(state: DensityOperator, mode: int, delta: float) -> DensityOperator:
    """Phase shifter: |n> on the given mode picks up exp(i n delta)."""
    _check_mode(mode, state.mode_count)
    states = basis_states(state.mode_count, state.photon_cutoff)
    phases = np.exp(1j * delta * np.array([occ[mode] for occ in states]))
    return DensityOperator(state.mode_count, state.photon_cutoff,
                           state.matrix * np.outer(phases, phases.conjugate()))


def apply_loss(rho: DensityOperator, mode: int, transmission: float) -> DensityOperator:
    """Pure loss on one mode, Kraus form of a vacuum-ancilla beam splitter.

    K_k = sum_n sqrt(C(n, k) eta^(n-k) (1-eta)^k) |n-k><n|  on the lossy mode.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    _check_mode(mode, rho.mode_count)
    eta = float(transmission)
    states = basis_states(rho.mode_count, rho.photon_cutoff)
    index = basis_index(rho.mode_count, rho.photon_cutoff)
    dim = len(states)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(rho.photon_cutoff + 1):
        rows, cols, vals = [], [], []
        for i, occ in enumerate(states):
            n = occ[mode]
            if n < k:
                continue
            new = list(occ)
            new[mode] = n - k
            rows.append(index[tuple(new)])
            cols.append(i)
            vals.append(math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k))
        if not rows:
            continue
        kraus = np.zeros((dim, dim))
        kraus[rows, cols] = vals
        out += kraus @ rho.matrix @ kraus.T
    return DensityOperator(rho.mode_count, rho.photon_cutoff, out)


def partial_trace(rho: DensityOperator, keep_modes: tuple[int, ...]) -> DensityOperator:
    """Trace out all modes not in keep_modes (order of keep_modes is preserved)."""
    keep = tuple(keep_modes)
    for m in keep:
        _check_mode(m, rho.mode_count)
    if len(set(keep)) != len(keep) or not keep:
        raise ValueError("keep_modes must be a non-empty set of distinct modes")
    traced = tuple(m for m in range(rho.mode_count) if m not in keep)
    states = basis_states(rho.mode_count, rho.photon_cutoff)
    new_index = basis_index(len(keep), rho.photon_cutoff)
    dim_new = dimension(len(keep), rho.photon_cutoff)
    out = np.zeros((dim_new, dim_new), dtype=complex)
    # Group basis indices by the traced-mode occupation; each group contributes
    # a sub-block mapped onto the reduced basis.
    groups: dict[Occupation, list[tuple[int, int]]] = {}
    for i, occ in enumerate(states):
        env = tuple(occ[m] for m in traced)
        sys = tuple(occ[m] for m in keep)
        groups.setdefault(env, []).append((new_index[sys], i))
    for pairs in groups.values():
        new_rows = np.array([p[0] for p in pairs])
        old_rows = np.array([p[1] for p in pairs])
        out[np.ix_(new_rows, new_rows)] += rho.matrix[np.ix_(old_rows, old_rows)]
    return DensityOperator(len(keep), rho.photon_cutoff, out)


@lru_cache(maxsize=64)
def _conditioned_rows(mode_count: int, photon_cutoff: int,
                      counts: tuple[tuple[int, int], ...], keep: tuple[int, ...]
                      ) -> np.ndarray:
    """Read-only (2, n): the basis rows with the given (mode, count) pairs and
    their rows in the basis of the kept modes."""
    index = basis_index(len(keep), photon_cutoff)
    rows = np.array([
        (i, index[tuple(occ[m] for m in keep)])
        for i, occ in enumerate(basis_states(mode_count, photon_cutoff))
        if all(occ[m] == c for m, c in counts)
    ], dtype=np.intp).reshape(-1, 2).T
    rows.flags.writeable = False
    return rows


def condition_on_counts(rho: DensityOperator, counts: dict[int, int]
                        ) -> tuple[float, DensityOperator | None]:
    """Project the given modes onto exact photon counts and trace them out.

    Returns (probability, normalized conditional state on the remaining modes).
    The conditional state is None when the probability is zero.
    """
    for m in counts:
        _check_mode(m, rho.mode_count)
    keep = tuple(m for m in range(rho.mode_count) if m not in counts)
    if not keep:
        raise ValueError("conditioning on all modes leaves no state")
    sel, new_rows = _conditioned_rows(rho.mode_count, rho.photon_cutoff,
                                      tuple(sorted(counts.items())), keep)
    prob = float(np.real(rho.matrix[sel, sel].sum()))
    if prob <= 0.0:
        return 0.0, None
    dim_new = dimension(len(keep), rho.photon_cutoff)
    out = np.zeros((dim_new, dim_new), dtype=complex)
    out[np.ix_(new_rows, new_rows)] = rho.matrix[np.ix_(sel, sel)]
    return prob, DensityOperator(len(keep), rho.photon_cutoff, out / prob)


def _detector_list(state: DensityOperator, detectors) -> list[DetectorModel]:
    if detectors is None:
        detectors = IDEAL_DETECTOR
    if isinstance(detectors, DetectorModel):
        return [detectors] * state.mode_count
    detectors = list(detectors)
    if len(detectors) != state.mode_count:
        raise ValueError(f"need one detector per mode ({state.mode_count}), got {len(detectors)}")
    return detectors


# Upper bound on the elements of one block of the occupation x click-pattern
# product, so that many modes of photon-number-resolving detectors stay small.
_BLOCK_ELEMENTS = 1 << 18


def outcome_distribution(state: DensityOperator, detectors=None) -> dict[Occupation, float]:
    """Exact probability table over click patterns, one detector per mode.

    Threshold detectors report 0/1 per mode; photon-number-resolving ones
    report counts (light counts possibly +1 from a dark event).  The table
    sums to 1 up to floating-point roundoff.

    Each occupation of positive probability p spreads over the patterns its
    detectors can report as ((p * q_0) * q_1) * ..., and a pattern's value
    adds those terms one by one in the state's occupation order.  Patterns
    are listed in the order the occupations first reach them,
    lexicographically within one occupation.
    """
    dets = _detector_list(state, detectors)
    occs = _basis_array(state.mode_count, state.photon_cutoff)
    probs = np.real(np.diag(state.matrix))
    live = ~(probs <= 0.0)  # skips p <= 0 only: a NaN entry shows in the table
    occs, probs = occs[live], probs[live]
    n_occs = len(probs)
    if not n_occs:
        return {}
    # Per mode, each occupation's probabilities of the counts any one of them can report.
    rows, counts = [], []
    for det, photons in zip(dets, occs.T):
        q = _count_table(det, state.photon_cutoff)[photons]
        reported = np.flatnonzero((q > 0.0).any(axis=0))
        rows.append(q[:, reported])
        counts.append(reported)
    shape = tuple(len(c) for c in counts)
    total = np.zeros(math.prod(shape))
    first = np.full(len(total), n_occs)  # first occupation reaching each pattern
    step = max(1, _BLOCK_ELEMENTS // len(total))
    for start in range(0, n_occs, step):
        block = slice(start, start + step)
        weight = probs[block]
        reach = np.ones(len(weight), dtype=bool)
        for mode, q in enumerate(rows):
            q = q[block].reshape((len(weight),) + (1,) * mode + (shape[mode],))
            weight = weight[..., None] * q
            reach = reach[..., None] & (q > 0.0)
        weight = weight.reshape(len(weight), -1)
        reach = reach.reshape(len(reach), -1)
        total = np.cumsum(np.vstack((total, weight)), axis=0)[-1]
        first = np.minimum(first, np.where(reach.any(axis=0), start + reach.argmax(axis=0),
                                           n_occs))
    order = np.flatnonzero(first < n_occs)
    order = order[np.argsort(first[order], kind="stable")]
    keys = np.column_stack([c[i] for c, i in zip(counts, np.unravel_index(order, shape))])
    return dict(zip(map(tuple, keys.tolist()), total[order]))


def post_select(distribution: dict[Occupation, float], predicate
                ) -> tuple[dict[Occupation, float], float]:
    """Condition a click-pattern table on a predicate over patterns.

    Returns (renormalized accepted table, acceptance probability).
    """
    accepted = {k: v for k, v in distribution.items() if predicate(k)}
    acceptance = sum(accepted.values())
    if acceptance <= 0.0:
        raise EmptyPostSelectionError("post-selection accepts probability zero")
    return {k: v / acceptance for k, v in accepted.items()}, acceptance
