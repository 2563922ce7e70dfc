"""Exact few-mode Fock-space simulation.

States live in a truncated occupation-number basis (all occupation vectors
with total photon number <= photon_cutoff).  Every state, pure or mixed, is
one `DensityOperator`: a dense matrix over that basis.  Kets enter through
`DensityOperator.pure`, which takes a sparse occupation -> amplitude map and
builds |psi><psi|, so every circuit runs on the one matrix path.  The module
provides the linear-optics primitives (beam splitters, phase shifters), loss
channels, and click-pattern detection used as the ground-truth reference by
the higher-level interferometry and repeater modules.

A joint state's cutoff is the photons its operands carry (`tensor`), a
click-pattern table puts one `DetectorModel` on every mode, and the one basis
representation is the occupation array `_basis_array`, where every index map
(kets, splitters, tensor, loss, trace, conditioning, `pair_rows`) finds its rows.

The two-mode pair family `EntangledPairState` (vacuum, a balanced one-photon
sector, |11>) is the one builder of the shared photon: the starlight's
arrival state, the entangled scheme's reference photon, the |11>
reference-pair background and the repeater's pairs all come from its
`to_density`.

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

MAX_MODES = 8

# Numerical tolerances for density-operator validation.
TRACE_TOL = 1e-10
HERM_TOL = 1e-12
EIG_TOL = 1e-10
# Tolerance of the pair family's field checks and of reading a matrix back into it.
FORM_TOL = 1e-12


class EmptyPostSelectionError(ValueError):
    """Raised when a post-selection predicate accepts probability zero."""


def _check_mode(mode: int, mode_count: int) -> None:
    if not isinstance(mode, (int, np.integer)) or not 0 <= mode < mode_count:
        raise ValueError(f"mode index {mode!r} out of range for {mode_count} modes")


@lru_cache(maxsize=64)
def _basis_array(mode_count: int, photon_cutoff: int) -> np.ndarray:
    """The basis: every occupation vector with sum <= photon_cutoff, in
    lexicographic order, as a read-only (dimension, mode_count) integer array."""
    if not 1 <= mode_count <= MAX_MODES:
        raise ValueError(f"mode_count must be in [1, {MAX_MODES}], got {mode_count}")
    if photon_cutoff < 0:
        raise ValueError(f"photon_cutoff must be >= 0, got {photon_cutoff}")
    occs = np.array([occ for occ in itertools.product(range(photon_cutoff + 1), repeat=mode_count)
                     if sum(occ) <= photon_cutoff], dtype=np.intp)
    occs.flags.writeable = False
    return occs


def _basis_rows(mode_count: int, photon_cutoff: int, occs: np.ndarray) -> np.ndarray:
    """Basis rows of the occupations in an (n, mode_count) array, all in the
    basis; the lexicographic basis has sorted mixed-radix codes."""
    radix = (photon_cutoff + 1) ** np.arange(mode_count - 1, -1, -1)
    return np.searchsorted(_basis_array(mode_count, photon_cutoff) @ radix, occs @ radix)


@lru_cache(maxsize=None)
def pair_rows(photon_cutoff: int) -> np.ndarray:
    """Read-only two-mode basis rows of (0, 0), (0, 1), (1, 0) and, at cutoff >= 2, (1, 1)."""
    occs = ((0, 0), (0, 1), (1, 0), (1, 1))[:4 if photon_cutoff >= 2 else 3]
    rows = _basis_rows(2, photon_cutoff, np.array(occs))
    rows.flags.writeable = False
    return rows


def dimension(mode_count: int, photon_cutoff: int) -> int:
    return len(_basis_array(mode_count, photon_cutoff))


@lru_cache(maxsize=16)
def _entry_support(mode_count: int, photon_cutoff: int) -> np.ndarray:
    """Read-only dim x dim: the larger total photon number of each entry's row and column."""
    totals = _basis_array(mode_count, photon_cutoff).sum(axis=1)
    support = np.maximum.outer(totals, totals)
    support.flags.writeable = False
    return support


def _flat_block(rows: np.ndarray, dim: int) -> np.ndarray:
    """Read-only flat indices of the rows x rows block of a dim x dim matrix,
    shaped as that block."""
    flat = rows[:, None] * dim + rows
    flat.flags.writeable = False
    return flat


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
        dim = dimension(mode_count, photon_cutoff)  # raises on a bad basis shape
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
        vec = np.zeros(dimension(mode_count, photon_cutoff), dtype=complex)
        for occ in amplitudes:
            if len(occ) != mode_count or min(occ) < 0 or sum(occ) > photon_cutoff:
                raise ValueError(f"occupation {occ} outside basis "
                                 f"({mode_count} modes, cutoff {photon_cutoff})")
        occs = np.array(list(amplitudes), dtype=np.intp).reshape(-1, mode_count)
        vec[_basis_rows(mode_count, photon_cutoff, occs)] = list(amplitudes.values())
        return cls(mode_count, photon_cutoff, np.outer(vec, vec.conjugate()))

    @classmethod
    def vacuum(cls, mode_count: int, photon_cutoff: int) -> "DensityOperator":
        dim = dimension(mode_count, photon_cutoff)
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[0, 0] = 1.0  # the vacuum is the first occupation in lexicographic order
        return cls(mode_count, photon_cutoff, matrix)

    def trace(self) -> float:
        return float(self.matrix.trace().real)

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

    def photon_support(self) -> int:
        """Highest total photon number whose basis row or column holds a
        nonzero entry (0 for the zero matrix)."""
        support = _entry_support(self.mode_count, self.photon_cutoff)
        return int(support.max(where=self.matrix != 0, initial=0))

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        """Joint state, its cutoff the operands' summed photon support.

        Splitters and phases conserve photon number and loss and
        conditioning only lower it, so no circuit on the joint state reaches
        an occupation above the photons the operands carry.
        """
        cutoff = self.photon_support() + other.photon_support()
        modes = self.mode_count + other.mode_count
        out = np.zeros((dimension(modes, cutoff),) * 2, dtype=complex)
        flat_a, flat_b, flat_out = _tensor_rows(self.mode_count, self.photon_cutoff,
                                                other.mode_count, other.photon_cutoff, cutoff)
        out.put(flat_out, self.matrix.take(flat_a) * other.matrix.take(flat_b))
        return DensityOperator(modes, cutoff, out)

    def __repr__(self) -> str:
        return (f"DensityOperator({self.mode_count} modes, cutoff {self.photon_cutoff}, "
                f"trace {self.trace():.6f})")


@lru_cache(maxsize=64)
def _tensor_rows(modes_a: int, cutoff_a: int, modes_b: int, cutoff_b: int,
                 cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of A, of B and of the joint basis, one per pair of basis
    states whose joint occupation fits the joint cutoff, as flat indices of
    their block in A's, B's and the joint matrix."""
    occ_a, occ_b = _basis_array(modes_a, cutoff_a), _basis_array(modes_b, cutoff_b)
    ia, ib = np.nonzero(occ_a.sum(axis=1)[:, None] + occ_b.sum(axis=1) <= cutoff)
    joint = _basis_rows(modes_a + modes_b, cutoff, np.hstack((occ_a[ia], occ_b[ib])))
    return (_flat_block(ia, len(occ_a)), _flat_block(ib, len(occ_b)),
            _flat_block(joint, dimension(modes_a + modes_b, cutoff)))


@dataclass(frozen=True)
class EntangledPairState:
    """Two-mode single-rail pair in the vacuum/one-photon/double-excitation family.

    The one-photon sector is (|01><01| + |10><10| + c e^{i psi}|10><01| + h.c.)/2
    scaled by one_photon_weight; the double excitation is |11><11|.
    """

    vacuum_weight: float = 0.0
    one_photon_weight: float = 1.0
    coherence: float = 1.0
    phase: float = 0.0
    two_photon_weight: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        w = (self.vacuum_weight, self.one_photon_weight, self.two_photon_weight)
        if min(w) < -FORM_TOL:
            raise ValueError(f"weights must be non-negative, got {w}")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(w)}")
        if not -FORM_TOL <= self.coherence <= 1.0 + FORM_TOL:
            raise ValueError(f"coherence must be in [0, 1], got {self.coherence}")

    @classmethod
    def perfect(cls) -> "EntangledPairState":
        return cls()

    @property
    def visibility(self) -> complex:
        return self.coherence * np.exp(1j * self.phase)

    def fidelity(self) -> float:
        """Overlap with (|01> + |10>)/sqrt(2)."""
        return self.one_photon_weight * (1.0 + self.coherence * math.cos(self.phase)) / 2.0

    def to_density(self) -> DensityOperator:
        """The pair at cutoff 2, which holds the |11> sector."""
        rows = pair_rows(2)
        mat = np.zeros((dimension(2, 2),) * 2, dtype=complex)
        half = self.one_photon_weight / 2.0
        mat[rows, rows] = (self.vacuum_weight, half, half, self.two_photon_weight)
        off = half * self.coherence * np.exp(1j * self.phase)
        mat[rows[2], rows[1]] = off
        mat[rows[1], rows[2]] = np.conj(off)
        return DensityOperator(2, 2, mat)

    @classmethod
    def from_density(cls, rho: DensityOperator, atol: float = FORM_TOL
                     ) -> "EntangledPairState":
        """Read a density matrix back into the family; off-form entries must
        be below atol (in particular the one-photon sector must be balanced).
        """
        block, outside = _pair_block(rho.photon_cutoff)
        m = rho.matrix
        return cls.from_pair_block(m.take(block), float(np.abs(m.take(outside)).max(initial=0.0)),
                                   atol)

    @classmethod
    def from_pair_block(cls, block: np.ndarray, outside: float = 0.0, atol: float = FORM_TOL
                        ) -> "EntangledPairState":
        """from_density of a matrix given by its block over `pair_rows` and its
        largest |entry| outside that block."""
        w0, p01, p10, w2 = (block.diagonal().real.tolist() + [0.0])[:4]  # no (1, 1) below cutoff 2
        off = complex(block[2, 1])
        stray = float(np.abs(block[_OFF_FORM[:len(block), :len(block)]]).max(initial=outside))
        if stray > atol:
            raise ValueError(f"density matrix is not of pair-family form "
                             f"(off-form entry {stray:.3e} > {atol:.0e})")
        if abs(p01 - p10) > atol:
            raise ValueError(f"one-photon sector unbalanced by {abs(p01 - p10):.3e}")
        w1 = p01 + p10
        if w1 > atol:
            c = min(abs(off) / (w1 / 2.0), 1.0)
            psi = float(np.angle(off))
        else:
            w1, c, psi = 0.0, 0.0, 0.0
        total = w0 + w1 + w2
        if not total > 0.0:
            raise ValueError(f"weights must have a positive sum, got {total} "
                             f"(vacuum {w0}, one-photon {w1}, |11> {w2})")
        return cls(w0 / total, w1 / total, c, psi, w2 / total)


# The entries of a block over pair_rows that the pair family holds at zero:
# all but its diagonal and its one-photon coherences.
_OFF_FORM = ~np.eye(4, dtype=bool)
_OFF_FORM[1, 2] = _OFF_FORM[2, 1] = False
_OFF_FORM.flags.writeable = False


@lru_cache(maxsize=None)
def _pair_block(photon_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat indices of a two-mode matrix's block over pair_rows,
    shaped as that block, and of every entry outside it."""
    dim = dimension(2, photon_cutoff)
    block = _flat_block(pair_rows(photon_cutoff), dim)
    outside = np.ones(dim * dim, dtype=bool)
    outside[block] = False
    outside = np.flatnonzero(outside)
    outside.flags.writeable = False
    return block, outside


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
                t: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only splitter unitary and its adjoint, a transposed view of
    its conjugate."""
    occs = _basis_array(mode_count, photon_cutoff)
    cols, m_a, m_b, amps = zip(*[
        (col, m, n_a + n_b - m, amp)
        for col, (n_a, n_b) in enumerate(occs[:, [mode_a, mode_b]].tolist())
        for m, amp in _bs_output_amplitudes(n_a, n_b, t, phi).items()])
    outputs = occs[list(cols)]
    outputs[:, mode_a], outputs[:, mode_b] = m_a, m_b
    u = np.zeros((len(occs),) * 2, dtype=complex)
    u[_basis_rows(mode_count, photon_cutoff, outputs), cols] = amps
    adjoint = u.conjugate()
    u.flags.writeable = adjoint.flags.writeable = False
    return u, adjoint.T


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
    u, adjoint = _bs_unitary(state.mode_count, state.photon_cutoff, mode_a, mode_b,
                             float(transmissivity), float(phase))
    return DensityOperator(state.mode_count, state.photon_cutoff, u @ state.matrix @ adjoint)


def apply_phase(state: DensityOperator, mode: int, delta: float) -> DensityOperator:
    """Phase shifter: |n> on the given mode picks up exp(i n delta)."""
    _check_mode(mode, state.mode_count)
    return DensityOperator(state.mode_count, state.photon_cutoff, state.matrix
                           * _phase_factors(state.mode_count, state.photon_cutoff, mode, delta))


@lru_cache(maxsize=64)
def _phase_factors(mode_count: int, photon_cutoff: int, mode: int, delta: float) -> np.ndarray:
    """Read-only exp(i delta (n_row - n_col)) of the mode's occupations."""
    phases = np.exp(1j * delta * _basis_array(mode_count, photon_cutoff)[:, mode])
    factors = np.outer(phases, phases.conjugate())
    factors.flags.writeable = False
    return factors


def apply_loss(rho: DensityOperator, mode: int, transmission: float) -> DensityOperator:
    """Pure loss on one mode: a splitter of that transmissivity onto a
    vacuum ancilla, which is then traced out; the result keeps rho's cutoff."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    _check_mode(mode, rho.mode_count)
    joint = apply_beam_splitter(rho.tensor(DensityOperator.vacuum(1, 0)), mode,
                                rho.mode_count, transmission)
    lossy = partial_trace(joint, tuple(range(rho.mode_count)))
    rows = _basis_rows(rho.mode_count, rho.photon_cutoff,
                       _basis_array(rho.mode_count, lossy.photon_cutoff))
    out = np.zeros_like(rho.matrix)
    out[np.ix_(rows, rows)] = lossy.matrix
    return DensityOperator(rho.mode_count, rho.photon_cutoff, out)


def partial_trace(rho: DensityOperator, keep_modes: tuple[int, ...]) -> DensityOperator:
    """Trace out all modes not in keep_modes (order of keep_modes is preserved)."""
    keep = tuple(keep_modes)
    for m in keep:
        _check_mode(m, rho.mode_count)
    if len(set(keep)) != len(keep) or not keep:
        raise ValueError("keep_modes must be a non-empty set of distinct modes")
    traced = [m for m in range(rho.mode_count) if m not in keep]
    occs = _basis_array(rho.mode_count, rho.photon_cutoff)
    new_rows = _basis_rows(len(keep), rho.photon_cutoff, occs[:, list(keep)])
    out = np.zeros((dimension(len(keep), rho.photon_cutoff),) * 2, dtype=complex)
    # Each pair of rows with equal traced modes adds its entry in row-major
    # order, so one reduced entry sums its traced occupations lexicographically.
    i, j = np.nonzero((occs[:, None, traced] == occs[None, :, traced]).all(axis=2))
    np.add.at(out, (new_rows[i], new_rows[j]), rho.matrix[i, j])
    return DensityOperator(len(keep), rho.photon_cutoff, out)


@lru_cache(maxsize=64)
def _conditioned_rows(mode_count: int, photon_cutoff: int,
                      counts: tuple[tuple[int, int], ...], keep: tuple[int, ...]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis rows with the given (mode, count) pairs, as flat indices of
    their diagonal and of their block, and the flat indices of that block in
    the matrix over the kept modes."""
    occs = _basis_array(mode_count, photon_cutoff)
    sel = np.flatnonzero((occs[:, [m for m, _ in counts]] == [c for _, c in counts]).all(axis=1))
    new_rows = _basis_rows(len(keep), photon_cutoff, occs[sel][:, keep])
    block = _flat_block(sel, len(occs))
    return block.diagonal(), block, _flat_block(new_rows, dimension(len(keep), photon_cutoff))


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
    diagonal, block, new_block = _conditioned_rows(rho.mode_count, rho.photon_cutoff,
                                                   tuple(sorted(counts.items())), keep)
    prob = float(rho.matrix.take(diagonal).sum().real)
    if prob <= 0.0:
        return 0.0, None
    dim_new = dimension(len(keep), rho.photon_cutoff)
    out = np.zeros((dim_new, dim_new), dtype=complex)
    out.put(new_block, rho.matrix.take(block))
    return prob, DensityOperator(len(keep), rho.photon_cutoff, out / prob)


# Upper bound on the elements of one block of the occupation x click-pattern
# product, so that many modes of photon-number-resolving detectors stay small.
_BLOCK_ELEMENTS = 1 << 18


@lru_cache(maxsize=64)
def _outcome_structure(mode_count: int, photon_cutoff: int, detector: DetectorModel,
                       live: bytes) -> tuple[tuple[np.ndarray, ...], int, np.ndarray, list]:
    """What outcome_distribution's table depends on besides the probabilities.

    live is the bool mask of the occupations of positive probability, as
    bytes.  Returns, per mode, each live occupation's probabilities of the
    counts any one of them can report, shaped (occupations, 1, ..., counts)
    to broadcast over the earlier modes; the size of the flattened product
    of those counts; the reached patterns' indices into it, in first-reach
    order; and the patterns themselves in that order.
    """
    occs = _basis_array(mode_count, photon_cutoff)[np.frombuffer(live, dtype=bool)]
    n_occs = len(occs)
    table = _count_table(detector, photon_cutoff)
    rows, counts = [], []
    for mode, photons in enumerate(occs.T):
        q = table[photons]
        reported = np.flatnonzero((q > 0.0).any(axis=0))
        q = q[:, reported].reshape((n_occs,) + (1,) * mode + (len(reported),))
        q.flags.writeable = False
        rows.append(q)
        counts.append(reported)
    shape = tuple(len(c) for c in counts)
    first = np.full(math.prod(shape), n_occs)  # first occupation reaching each pattern
    step = max(1, _BLOCK_ELEMENTS // len(first))
    for start in range(0, n_occs, step):
        block = slice(start, start + step)
        reach = np.ones(len(occs[block]), dtype=bool)
        for q in rows:
            reach = reach[..., None] & (q[block] > 0.0)
        reach = reach.reshape(len(reach), -1)
        first = np.minimum(first, np.where(reach.any(axis=0), start + reach.argmax(axis=0),
                                           n_occs))
    order = np.flatnonzero(first < n_occs)
    order = order[np.argsort(first[order], kind="stable")]
    keys = np.column_stack([c[i] for c, i in zip(counts, np.unravel_index(order, shape))])
    return tuple(rows), len(first), order, list(map(tuple, keys.tolist()))


def outcome_distribution(state: DensityOperator, detector: DetectorModel = IDEAL_DETECTOR
                         ) -> dict[Occupation, float]:
    """Exact probability table over click patterns, the same detector on every mode.

    Threshold detectors report 0/1 per mode; photon-number-resolving ones
    report counts (light counts possibly +1 from a dark event).  The table
    sums to 1 up to floating-point roundoff.

    Each occupation of positive probability p spreads over the patterns its
    detectors can report as ((p * q_0) * q_1) * ..., and a pattern's value
    adds those terms one by one in the state's occupation order.  Patterns
    are listed in the order the occupations first reach them,
    lexicographically within one occupation.  Which patterns, and in which
    order, is cached per set of occupations of positive probability.
    """
    probs = state.matrix.diagonal().real
    live = ~(probs <= 0.0)  # skips p <= 0 only: a NaN entry shows in the table
    probs = probs[live]
    if not len(probs):
        return {}
    rows, size, order, keys = _outcome_structure(state.mode_count, state.photon_cutoff,
                                                 detector, live.tobytes())
    total = None
    step = max(1, _BLOCK_ELEMENTS // size)
    for start in range(0, len(probs), step):
        block = slice(start, start + step)
        weight = probs[block]
        for q in rows:
            weight = weight[..., None] * q[block]
        weight = weight.reshape(len(weight), -1)
        if total is not None:  # the sums so far, then this block's terms
            weight = np.vstack((total, weight))
        total = weight.cumsum(axis=0)[-1]
    return dict(zip(keys, total[order].tolist()))


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
