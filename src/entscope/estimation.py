"""Turn event logs back into science: visibilities, closure phases, images.

The fringe model throughout is correlated-fraction(delta) =
[1 + Re(V e^{-i delta})]/2, which is linear in (Re V, Im V), so the
visibility fit is an exact linear least-squares problem.  The fitted
amplitude is deliberately NOT clipped to [0, 1]: clipping would bias
averages of repeated fits, and the error bars carry the information
instead.

Image reconstruction is a plain inverse discrete Fourier transform of
gridded visibility samples (a dirty image with zero-filling, no
deconvolution), matching the forward convention of `sky.visibility`:
V(b_k) = sum_p I_p exp(+2 pi i k (p - n//2) / n) for baselines
b_k = k * wavelength / (n * pixel_scale).
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import eventlog, sky
from .errors import LowStatisticsError

MIN_EVENTS_PER_DELTA = 10
_QUADRATURE_TOL = 1e-6
_GRID_TOL = 1e-6


@dataclass(frozen=True)
class FringeFit:
    """Result of a visibility fit over a delta sweep.

    amplitude_error and phase_error are one-standard-error sizes on |V| and
    arg V propagated from binomial counting noise; table rows are
    (delta, correlated, accepted) per schedule entry.
    """

    visibility: complex
    amplitude_error: float
    phase_error: float
    accepted: int
    table: tuple[tuple[float, int, int], ...]

    @property
    def amplitude(self) -> float:
        return abs(self.visibility)

    @property
    def phase(self) -> float:
        return cmath.phase(self.visibility)


def _has_quadrature_pair(deltas: np.ndarray) -> bool:
    for i in range(len(deltas)):
        for j in range(len(deltas)):
            gap = (deltas[j] - deltas[i]) % (2.0 * math.pi)
            if abs(gap - math.pi / 2.0) < _QUADRATURE_TOL:
                return True
    return False


def estimate_visibility(log: eventlog.EventLog) -> FringeFit:
    """fit_fringe over the log's fringe_counts."""
    return fit_fringe(*eventlog.fringe_counts(log))


def fit_fringe(deltas: np.ndarray, successes: np.ndarray, totals: np.ndarray) -> FringeFit:
    """Least-squares visibility from the per-delta correlated fractions.

    Takes fringe_counts' (deltas, n_success, n_total) arrays.  Requires at
    least two distinct delta values including a quadrature pair
    (delta, delta + pi/2); otherwise Re V and Im V are not separable.
    Raises LowStatisticsError when any schedule entry has fewer than
    MIN_EVENTS_PER_DELTA accepted events.
    """
    # A set, not np.unique, which loads numpy.ma; every NaN counts as one value, as there.
    if len({d if d == d else math.nan for d in np.round(deltas, 12).tolist()}) < 2:
        raise ValueError("need at least two distinct delta values")
    if not _has_quadrature_pair(np.asarray(deltas, dtype=float)):
        raise ValueError("delta schedule must contain a quadrature pair "
                         "(delta, delta + pi/2)")
    if np.any(totals < MIN_EVENTS_PER_DELTA):
        worst = int(np.argmin(totals))
        raise LowStatisticsError(
            f"only {int(totals[worst])} accepted events at delta="
            f"{float(deltas[worst]):.4f}; need >= {MIN_EVENTS_PER_DELTA}")

    fractions = successes / totals
    y = 2.0 * fractions - 1.0                       # Re(V e^{-i delta})
    design = np.column_stack([np.cos(deltas), np.sin(deltas)])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    re_v, im_v = float(coeffs[0]), float(coeffs[1])

    # Binomial variance of y = 2f - 1, with a rule-of-succession floor so
    # observed fractions of exactly 0 or 1 keep a nonzero variance.
    f_floor = (successes + 1.0) / (totals + 2.0)
    var_y = 4.0 * f_floor * (1.0 - f_floor) / totals
    normal = np.linalg.inv(design.T @ design)
    cov = normal @ (design.T * var_y) @ design @ normal

    amp = math.hypot(re_v, im_v)
    if amp > 1e-12:
        g_amp = np.array([re_v, im_v]) / amp
        g_phase = np.array([-im_v, re_v]) / amp ** 2
        amp_err = float(np.sqrt(g_amp @ cov @ g_amp))
        phase_err = float(np.sqrt(g_phase @ cov @ g_phase))
    else:
        amp_err = float(np.sqrt(0.5 * (cov[0, 0] + cov[1, 1])))
        phase_err = math.pi
    table = tuple((float(d), int(s), int(t))
                  for d, s, t in zip(deltas, successes, totals))
    return FringeFit(complex(re_v, im_v), amp_err, phase_err,
                     int(totals.sum()), table)


def closure_phase(v_ij: complex, v_jk: complex, v_ki: complex) -> float:
    """arg(V_ij V_jk V_ki) wrapped to (-pi, pi].

    Immune to per-telescope phase errors: a phase e_i on telescope i enters
    as V_ij -> V_ij e^{i(e_i - e_j)} and cancels around the triangle.
    """
    for name, v in (("v_ij", v_ij), ("v_jk", v_jk), ("v_ki", v_ki)):
        if abs(v) == 0.0:
            raise ValueError(f"{name} has zero amplitude; closure phase undefined")
    angle = cmath.phase(v_ij * v_jk * v_ki)
    if angle <= -math.pi:
        angle += 2.0 * math.pi
    return angle


def inject_telescope_phases(visibilities: dict[tuple[int, int], complex],
                            phases) -> dict[tuple[int, int], complex]:
    """Apply per-telescope phase errors e_i: V_ij -> V_ij e^{i(e_i - e_j)}.

    Models uncalibrated instrumental or atmospheric path errors; closure
    phases built from the result are unchanged.
    """
    out = {}
    for (i, j), v in visibilities.items():
        out[(i, j)] = v * cmath.exp(1j * (phases[i] - phases[j]))
    return out


def reconstruct_image(vectors, wavelength: float, values, grid_size, pixel_scale: float):
    """Inverse DFT of gridded visibilities; returns a real, unit-flux image.

    vectors is an (m,) array of 1-D or an (m, 2) array of 2-D baseline
    vectors, all at one wavelength, with m complex values.  grid_size is an
    integer n, Python or numpy (n x n for 2-D baselines), or an (nx, ny) pair
    for 2-D; pixel i sits at angle (i - n//2) * pixel_scale per axis, like
    `sky.SourceModel` grids.
    Unsampled grid points are zero-filled after Hermitian completion
    V(-k) = conj(V(k)).  Raises on a duplicate baseline or an off-grid
    sample; the arrays are read, never written.
    """
    vectors = sky.checked_baselines(vectors, wavelength)
    m = len(vectors)
    values = np.asarray(values, dtype=complex)
    if values.shape != (m,):
        raise ValueError(f"expected {m} values, got shape {values.shape}")
    if m == 0:
        raise ValueError("cannot reconstruct from an empty baseline set")
    if pixel_scale <= 0.0:
        raise ValueError("pixel_scale must be positive")
    two_d = vectors.ndim == 2
    if np.ndim(grid_size) == 0:
        shape = (operator.index(grid_size),) * (2 if two_d else 1)
    else:
        shape = tuple(int(n) for n in grid_size)
    if two_d and len(shape) != 2:
        raise ValueError("2-D baselines need an (nx, ny) grid size")
    if not two_d and len(shape) != 1:
        raise ValueError("1-D baselines need a scalar grid size")
    vectors = vectors.reshape(m, -1)
    _check_distinct(vectors, two_d)

    # Fractional grid index of each sample; the first off-grid sample
    # raises, naming its first off-grid axis.
    index = vectors * np.array(shape) * pixel_scale / wavelength
    nearest = np.rint(index)
    off_grid = ~(np.abs(index - nearest) <= _GRID_TOL)
    failed = np.flatnonzero(off_grid.any(axis=1))
    if failed.size:
        row = failed[0]
        axis = int(np.argmax(off_grid[row]))
        raise ValueError(
            f"baseline component {float(vectors[row, axis])!r} is off the "
            f"reconstruction grid (index {index[row, axis]:.6f} not within "
            f"{_GRID_TOL} of an integer)")
    cells = np.ravel_multi_index(tuple(np.mod(nearest, shape).astype(np.intp).T), shape)

    # A later sample on the same grid point replaces an earlier one.
    cells, first = np.unique(cells[::-1], return_index=True)
    grid = np.zeros(shape, dtype=complex)
    filled = np.zeros(shape, dtype=bool)
    grid.flat[cells] = values[::-1][first]
    filled.flat[cells] = True

    # Hermitian completion: fill missing conjugate samples.
    mirror = np.ix_(*[(-np.arange(n)) % n for n in shape])
    missing = np.nonzero(~filled & filled[mirror])
    grid[missing] = np.conj(grid[tuple((-i) % n for i, n in zip(missing, shape))])
    return dirty_image(grid)


def _check_distinct(vectors: np.ndarray, two_d: bool) -> None:
    """Raise naming the first row of vectors that repeats an earlier one."""
    # Equal rows sort next to each other.
    order = np.lexsort(vectors.T[::-1])
    ordered = vectors[order]
    repeats = np.all(ordered[1:] == ordered[:-1], axis=1)
    if repeats.any():
        row = int(order[1:][repeats].min())
        vector = tuple(vectors[row].tolist()) if two_d else float(vectors[row, 0])
        raise ValueError(f"duplicate baseline {vector!r}")


def _dft_ramp(n: int) -> np.ndarray:
    """exp(-2 pi i k (p - n//2) / n) / n for frequency k (row), pixel p (column)."""
    k = np.arange(n)
    pix = np.arange(n) - n // 2
    ramp = -2j * math.pi * np.outer(k, pix)
    ramp /= n
    np.exp(ramp, out=ramp)
    ramp /= n
    return ramp


def dirty_image(grid: np.ndarray) -> np.ndarray:
    """Real, unit-flux inverse DFT of a complex visibility grid, cell k of an
    axis holding baseline k (mod n) grid units.

    A 2-D grid is overwritten with the complex image, which saves a
    grid-sized array; a square grid's two axes share one ramp.
    """
    ramps = {n: _dft_ramp(n) for n in set(grid.shape)}
    if grid.ndim == 2:
        np.matmul(ramps[grid.shape[0]].T @ grid, ramps[grid.shape[1]], out=grid)
        image = grid
    else:
        image = grid @ ramps[grid.shape[0]]
    worst_imag = float(np.abs(image.imag).max())
    if worst_imag > 1e-10:
        raise ValueError(f"reconstruction not real (max imaginary part "
                         f"{worst_imag:.3e}); visibility data not Hermitian")
    image = image.real
    flux = image.sum()
    if flux <= 1e-12 * float(np.abs(image).max(initial=0.0)):
        raise ValueError("reconstructed image has no usable total flux; "
                         "was the zero baseline sampled?")
    return image / flux


def check_field_of_view(source, grid: int, pixel_scale: float) -> None:
    """Raise ValueError unless every source point, or nonzero pgm pixel, lies
    within half a pixel of the outermost pixel centres, (i - grid//2) * pixel_scale."""
    if source.points is not None:
        angles = np.array([t for t, _ in source.points], dtype=float)
    else:  # the nonzero pixels
        angles = (np.argwhere(source.grid) - np.array(source.grid.shape) // 2) * source.pixel_scale
    lo, hi = (-(grid // 2) - 0.5) * pixel_scale, (grid - 1 - grid // 2 + 0.5) * pixel_scale
    outside = angles[((angles < lo) | (angles > hi)).reshape(len(angles), -1).any(axis=1)]
    if len(outside):
        raise ValueError(f"source at {outside[0].tolist()} rad lies outside the "
                         f"field of view [{lo:.6g}, {hi:.6g}] rad per axis "
                         f"(grid {grid}, pixel_scale {pixel_scale:g})")


def full_grid_samples(source, grid: int, pixel_scale: float, wavelength: float) -> np.ndarray:
    """The source's visibilities on every baseline of the grid, laid out for
    `dirty_image`; the baselines and visibilities are dropped on return.
    Raises `sky.visibilities`' ValueError where a phase overflows, and
    MemoryError where the complex samples would pass numpy's array size
    limit, which numpy reports as a ValueError or, in `np.arange`, not at all."""
    samples = grid ** (2 if source.two_d else 1)
    if samples * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"{samples} complex samples pass numpy's array size limit")
    unit = wavelength / (grid * pixel_scale)
    axis = np.arange(-(grid // 2), grid - grid // 2) * unit
    vectors = axis
    if source.two_d:  # row i * grid + j is (axis[i], axis[j])
        vectors = np.empty((grid, grid, 2))
        vectors[..., 0] = axis[:, None]
        vectors[..., 1] = axis
        vectors = vectors.reshape(-1, 2)
    values = sky.visibilities(source, vectors, wavelength)
    # Sample k of an axis is baseline (k - grid//2) * unit, so it belongs in
    # cell (k - grid//2) mod grid.
    return np.roll(values.reshape((grid,) * vectors.ndim), -(grid // 2),
                   axis=tuple(range(vectors.ndim)))
