"""Visibility fitting, closure phases, and dirty-image reconstruction."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscope.errors import LowStatisticsError
from entscope.estimation import (
    BaselineSet,
    FringeFit,
    closure_phase,
    estimate_visibility,
    inject_telescope_phases,
    reconstruct_image,
)
from entscope.eventlog import EventLog
from entscope.sky import Baseline, SourceModel, visibilities, visibility


def coincidence_log(deltas, successes, totals, scheme="entangled") -> EventLog:
    """Fabricate a log with the given per-delta coincidence counts.

    One accepted slot per coincidence; within a slot the two telescopes hit
    the same detector for a success and different detectors otherwise.
    """
    totals = np.asarray(totals, dtype=int)
    di = np.repeat(np.arange(len(deltas)), totals)
    same = np.concatenate([np.arange(t) < s for s, t in zip(successes, totals)])
    n = di.size
    detector = np.ones(2 * n, dtype=np.int64)
    detector[1::2][~same] = 2
    return EventLog(
        scheme=scheme,
        n_slots=int(n),
        deltas=tuple(float(d) for d in deltas),
        slot=np.repeat(np.arange(n), 2),
        telescope=np.tile([0, 1], n),
        detector=detector,
        accepted=np.ones(2 * n, dtype=bool),
        delta_index=np.repeat(di, 2),
    )


QUAD_DELTAS = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)


def expected_fraction(v: complex, delta: float) -> float:
    return 0.5 * (1.0 + (v * cmath.exp(-1j * delta)).real)


# ---------------------------------------------------------------------------
# Visibility fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_fractions():
    # Counts that realize the fringe model exactly for V = 0.3 + 0.4i.
    v = 0.3 + 0.4j
    totals = [1000] * 4
    successes = [round(1000 * expected_fraction(v, d)) for d in QUAD_DELTAS]
    assert successes == [650, 700, 350, 300]
    fit = estimate_visibility(coincidence_log(QUAD_DELTAS, successes, totals))
    assert fit.visibility.real == pytest.approx(0.3, abs=1e-12)
    assert fit.visibility.imag == pytest.approx(0.4, abs=1e-12)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-12)
    assert fit.phase == pytest.approx(math.atan2(0.4, 0.3), abs=1e-12)
    assert fit.accepted == 4000
    assert fit.table == tuple(
        (d, s, t) for d, s, t in zip(QUAD_DELTAS, successes, totals))


def test_fit_zero_visibility_branch():
    # Exactly balanced counts give V = 0 and the degenerate error bars.
    log = coincidence_log((0.0, math.pi / 2.0), (500, 500), (1000, 1000))
    fit = estimate_visibility(log)
    assert fit.visibility == 0.0
    assert fit.phase_error == math.pi
    # f_floor = 501/1002 = 1/2 exactly, so var(y) = 1/1000 per point.
    assert fit.amplitude_error == pytest.approx(math.sqrt(1e-3), rel=1e-6)


def test_fit_requires_two_deltas():
    log = coincidence_log((0.0,), (60,), (100,))
    with pytest.raises(ValueError, match="two distinct delta"):
        estimate_visibility(log)


def test_fit_requires_quadrature_pair():
    log = coincidence_log((0.0, math.pi), (80, 20), (100, 100))
    with pytest.raises(ValueError, match="quadrature pair"):
        estimate_visibility(log)


def test_fit_low_statistics():
    log = coincidence_log(QUAD_DELTAS, (60, 3, 30, 40), (100, 5, 100, 100))
    with pytest.raises(LowStatisticsError, match="need >= 10"):
        estimate_visibility(log)


def test_fit_unbiased_components_and_honest_errors():
    rng = np.random.default_rng(20240817)
    true_v = 0.6 * cmath.exp(0.8j)
    deltas = tuple(i * math.pi / 4.0 for i in range(8))
    n, reps = 2000, 150
    probs = [expected_fraction(true_v, d) for d in deltas]
    fits = []
    for _ in range(reps):
        successes = [rng.binomial(n, p) for p in probs]
        fits.append(estimate_visibility(
            coincidence_log(deltas, successes, [n] * len(deltas))))
    re = np.array([f.visibility.real for f in fits])
    im = np.array([f.visibility.imag for f in fits])
    assert abs(re.mean() - true_v.real) < 3.0 * re.std(ddof=1) / math.sqrt(reps)
    assert abs(im.mean() - true_v.imag) < 3.0 * im.std(ddof=1) / math.sqrt(reps)
    # Reported one-sigma sizes should match the observed scatter.
    amps = np.array([f.amplitude for f in fits])
    phases = np.array([f.phase for f in fits])
    assert np.mean([f.amplitude_error for f in fits]) == pytest.approx(
        amps.std(ddof=1), rel=0.35)
    assert np.mean([f.phase_error for f in fits]) == pytest.approx(
        phases.std(ddof=1), rel=0.35)


def test_fit_error_scales_with_events():
    v = 0.5 + 0.0j
    def err(n):
        successes = [round(n * expected_fraction(v, d)) for d in QUAD_DELTAS]
        fit = estimate_visibility(coincidence_log(QUAD_DELTAS, successes, [n] * 4))
        return fit.amplitude_error
    # Four times the counts per delta halves the error bar.
    assert err(500) / err(2000) == pytest.approx(2.0, rel=0.02)


def test_fringe_fit_properties():
    fit = FringeFit(visibility=-0.3 + 0.4j, amplitude_error=0.01,
                    phase_error=0.02, accepted=10, table=())
    assert fit.amplitude == pytest.approx(0.5)
    assert fit.phase == pytest.approx(cmath.phase(-0.3 + 0.4j))


# ---------------------------------------------------------------------------
# Closure phases
# ---------------------------------------------------------------------------

def test_closure_phase_adds_angles():
    got = closure_phase(cmath.exp(0.4j), 0.5 * cmath.exp(0.5j),
                        2.0 * cmath.exp(0.6j))
    assert got == pytest.approx(1.5, abs=1e-12)


def test_closure_phase_wraps():
    got = closure_phase(cmath.exp(2.0j), cmath.exp(2.5j), cmath.exp(2.0j))
    assert got == pytest.approx(6.5 - 2.0 * math.pi, abs=1e-12)
    assert -math.pi < got <= math.pi


def test_closure_phase_rejects_zero():
    with pytest.raises(ValueError, match="v_jk"):
        closure_phase(1.0 + 0j, 0j, 1.0 + 0j)


def test_closure_invariant_under_telescope_phases():
    vis = {(0, 1): 0.7 * cmath.exp(0.3j),
           (1, 2): 0.5 * cmath.exp(-1.1j),
           (0, 2): 0.6 * cmath.exp(0.9j)}
    def closure(v):
        return closure_phase(v[(0, 1)], v[(1, 2)], v[(0, 2)].conjugate())
    before = closure(vis)
    shifted = inject_telescope_phases(vis, [0.3, -1.1, 2.4])
    assert shifted[(0, 1)] != vis[(0, 1)]
    assert closure(shifted) == pytest.approx(before, abs=1e-12)


# ---------------------------------------------------------------------------
# Baseline sets
# ---------------------------------------------------------------------------

def test_baseline_set_accepts_fits_and_complex():
    samples = BaselineSet()
    samples.add(Baseline(10.0, 800e-9), 0.5 + 0.1j)
    samples.add(Baseline(20.0, 800e-9),
                FringeFit(0.3 + 0j, 0.01, 0.02, 100, ()))
    assert len(samples) == 2
    values = {b.vector: v for b, v in samples}
    assert values[20.0] == 0.3 + 0j


def test_baseline_set_rejects_duplicates():
    samples = BaselineSet()
    samples.add(Baseline(10.0, 800e-9), 0.5)
    with pytest.raises(ValueError, match="duplicate baseline"):
        samples.add(Baseline(10.0, 800e-9), 0.6)
    # Same vector at a different wavelength is a different sample.
    samples.add(Baseline(10.0, 550e-9), 0.6)
    assert len(samples) == 2


# ---------------------------------------------------------------------------
# Image reconstruction
# ---------------------------------------------------------------------------

WAVELENGTH = 800e-9


def grid_baseline(k, n, pixel_scale):
    unit = WAVELENGTH / (n * pixel_scale)
    if isinstance(k, tuple):
        return Baseline((k[0] * unit, k[1] * unit), WAVELENGTH)
    return Baseline(k * unit, WAVELENGTH)


def test_point_source_lands_on_its_pixel():
    # Pure convention check with hand-written samples, no forward model:
    # a point at pixel p has V(k) = exp(+2 pi i k (p - n//2) / n).
    n, p, pixel_scale = 8, 6, 1e-9
    samples = BaselineSet()
    for k in range(n):
        samples.add(grid_baseline(k, n, pixel_scale),
                    cmath.exp(2j * math.pi * k * (p - n // 2) / n))
    image = reconstruct_image(samples, n, pixel_scale)
    expected = np.zeros(n)
    expected[p] = 1.0
    assert np.max(np.abs(image - expected)) < 1e-12


def test_one_dimensional_round_trip_with_hermitian_completion():
    # Forward visibilities from the sky model on the half grid only; the
    # missing conjugate half is completed internally.
    n, pixel_scale = 8, 1e-9
    intensities = {2: 1.0, 5: 2.0}
    source = SourceModel(points=tuple(
        ((p - n // 2) * pixel_scale, i) for p, i in intensities.items()))
    samples = BaselineSet()
    for k in range(n // 2 + 1):
        samples.add(grid_baseline(k, n, pixel_scale),
                    visibility(source, grid_baseline(k, n, pixel_scale)))
    image = reconstruct_image(samples, n, pixel_scale)
    expected = np.zeros(n)
    for p, i in intensities.items():
        expected[p] = i / 3.0
    assert np.max(np.abs(image - expected)) < 1e-8


def test_two_dimensional_round_trip():
    n, pixel_scale = 16, 0.4e-9
    rng = np.random.default_rng(7)
    grid = rng.random((n, n))
    source = SourceModel(grid=grid, pixel_scale=pixel_scale)
    samples = BaselineSet()
    for kx in range(n):
        for ky in range(n):
            b = grid_baseline((kx, ky), n, pixel_scale)
            samples.add(b, visibility(source, b))
    image = reconstruct_image(samples, n, pixel_scale)
    assert image.shape == (n, n)
    assert np.max(np.abs(image - grid / grid.sum())) < 1e-8
    assert image.sum() == pytest.approx(1.0, abs=1e-12)


def test_reconstruction_scale_invariant():
    # The forward amplitudes carry an arbitrary scale; the image is
    # normalized to unit flux either way.
    n, pixel_scale = 8, 1e-9
    def build(scale):
        samples = BaselineSet()
        for k in range(n):
            samples.add(grid_baseline(k, n, pixel_scale),
                        scale * cmath.exp(2j * math.pi * k * 2 / n))
        return reconstruct_image(samples, n, pixel_scale)
    assert np.max(np.abs(build(1.0) - build(3.0))) < 1e-12


def test_reconstruction_rejects_off_grid_baseline():
    samples = BaselineSet()
    samples.add(Baseline(1.3 * WAVELENGTH / (8 * 1e-9), WAVELENGTH), 0.5)
    with pytest.raises(ValueError, match="off the reconstruction grid"):
        reconstruct_image(samples, 8, 1e-9)


def test_reconstruction_rejects_mixed_wavelengths():
    samples = BaselineSet()
    samples.add(grid_baseline(0, 8, 1e-9), 1.0)
    samples.add(Baseline(550e-9 / (8 * 1e-9), 550e-9), 0.5)
    with pytest.raises(ValueError, match="share one wavelength"):
        reconstruct_image(samples, 8, 1e-9)


def test_reconstruction_rejects_mixed_dimensions():
    samples = BaselineSet()
    samples.add(grid_baseline(0, 8, 1e-9), 1.0)
    samples.add(grid_baseline((1, 1), 8, 1e-9), 0.5)
    with pytest.raises(ValueError, match="mixed 1-D and 2-D"):
        reconstruct_image(samples, 8, 1e-9)


def test_reconstruction_rejects_non_hermitian_data():
    samples = BaselineSet()
    samples.add(grid_baseline(0, 8, 1e-9), 1.0)
    samples.add(grid_baseline(1, 8, 1e-9), 0.5j)
    samples.add(grid_baseline(7, 8, 1e-9), 0.5j)  # should be -0.5j
    with pytest.raises(ValueError, match="not Hermitian"):
        reconstruct_image(samples, 8, 1e-9)


def test_reconstruction_rejects_missing_zero_baseline():
    # Without the DC sample the image is a zero-mean fringe; normalizing it
    # would divide by roundoff.
    samples = BaselineSet()
    samples.add(grid_baseline(1, 8, 1e-9), 1.0)
    with pytest.raises(ValueError, match="total flux"):
        reconstruct_image(samples, 8, 1e-9)


def test_reconstruction_grid_shape_validation():
    one_d = BaselineSet()
    one_d.add(grid_baseline(0, 8, 1e-9), 1.0)
    with pytest.raises(ValueError, match="scalar grid size"):
        reconstruct_image(one_d, (8, 8), 1e-9)
    two_d = BaselineSet()
    two_d.add(grid_baseline((0, 0), 8, 1e-9), 1.0)
    with pytest.raises(ValueError, match=r"\(nx, ny\) grid size"):
        reconstruct_image(two_d, (8,), 1e-9)
    with pytest.raises(ValueError, match="empty baseline set"):
        reconstruct_image(BaselineSet(), 8, 1e-9)
    with pytest.raises(ValueError, match="pixel_scale"):
        reconstruct_image(one_d, 8, 0.0)


# ---------------------------------------------------------------------------
# Columnar baseline sets against the per-sample gridding loop
# ---------------------------------------------------------------------------

def _reference_reconstruct(entries, grid_size, pixel_scale):
    """The per-sample gridding loop that the array gridding replaced."""
    def axis_index(component, n, wavelength):
        exact = component * n * pixel_scale / wavelength
        k = round(exact)
        if abs(exact - k) > 1e-6:
            raise ValueError(
                f"baseline component {component!r} is off the reconstruction grid "
                f"(index {exact:.6f} not within 1e-06 of an integer)")
        return k % n

    wavelength = entries[0][0].wavelength
    two_d = isinstance(entries[0][0].vector, tuple)
    if isinstance(grid_size, int):
        shape = (grid_size,) if not two_d else (grid_size, grid_size)
    else:
        shape = tuple(int(n) for n in grid_size)
    if two_d and len(shape) != 2:
        raise ValueError("2-D baselines need an (nx, ny) grid size")
    if not two_d and len(shape) != 1:
        raise ValueError("1-D baselines need a scalar grid size")
    grid = np.zeros(shape, dtype=complex)
    filled = np.zeros(shape, dtype=bool)
    for baseline, vis in entries:
        if isinstance(baseline.vector, tuple) != two_d:
            raise ValueError("mixed 1-D and 2-D baselines in one set")
        if not math.isclose(baseline.wavelength, wavelength, rel_tol=1e-12):
            raise ValueError("all baselines must share one wavelength")
        vector = baseline.vector if two_d else (baseline.vector,)
        idx = tuple(axis_index(c, n, wavelength) for c, n in zip(vector, shape))
        grid[idx] = vis
        filled[idx] = True
    for idx in np.argwhere(filled):
        conj_idx = tuple((-i) % n for i, n in zip(idx, shape))
        if not filled[conj_idx]:
            grid[conj_idx] = np.conj(grid[tuple(idx)])
            filled[conj_idx] = True
    ramps = []
    for n in shape:
        k = np.arange(n)
        pix = np.arange(n) - n // 2
        ramps.append(np.exp(-2j * math.pi * np.outer(k, pix) / n) / n)
    image = ramps[0].T @ grid @ ramps[1] if two_d else grid @ ramps[0]
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def _grid_samples(draw):
    """Baselines on a reconstruction grid, some of them sampling one grid
    point twice, with the visibilities of on-pixel points; up to two edits
    then move a baseline off the grid, change its wavelength or value, or
    insert a baseline of the other dimension."""
    two_d = draw(st.booleans())
    n = draw(st.integers(2, 9))
    dims = 2 if two_d else 1
    pixel = st.integers(0, n - 1)
    points = draw(st.lists(st.tuples(st.tuples(*[pixel] * dims), st.floats(0.1, 2.0)),
                           min_size=1, max_size=3))
    source = SourceModel(points=tuple(
        (tuple(float((p - n // 2) * 1e-9) for p in pix) if two_d
         else float((pix[0] - n // 2) * 1e-9), i) for pix, i in points))
    ks = draw(st.lists(st.tuples(*[st.integers(-n, 2 * n - 1)] * dims),
                       min_size=1, max_size=3 * n * dims, unique=True))
    zero = (0,) * dims
    if zero not in ks and draw(st.integers(0, 4)):  # mostly sample the flux
        ks.insert(draw(st.integers(0, len(ks))), zero)
    unit = WAVELENGTH / (n * 1e-9)
    vectors = np.array(ks, dtype=float) * unit if two_d else np.array(ks)[:, 0] * unit
    values = visibilities(source, vectors, WAVELENGTH)
    rows = [(tuple(v) if two_d else float(v), WAVELENGTH, complex(x))
            for v, x in zip(vectors.tolist(), values.tolist())]
    for edit in draw(st.lists(st.sampled_from(["off-grid", "wavelength", "mixed", "value"]),
                              max_size=2)):
        at = draw(st.integers(0, len(rows) - 1))
        vector, wavelength, value = rows[at]
        row_2d = isinstance(vector, tuple)
        if edit == "off-grid":
            vector = (vector[0], vector[1] + 0.3 * unit) if row_2d else vector + 0.3 * unit
        elif edit == "wavelength":
            wavelength *= 1 + 1e-9
        elif edit == "mixed":
            vector = vector[0] if row_2d else (vector, 0.0)
        else:
            rows[at] = (vector, wavelength, value * 1.5j)
            continue
        if any(v == vector and w == wavelength for v, w, _ in rows):
            continue  # keep the baselines distinct
        if edit == "mixed":
            rows.insert(at, (vector, wavelength, value))
        else:
            rows[at] = (vector, wavelength, value)
    return rows, (n, n) if two_d else n


@settings(max_examples=200, deadline=None)
@given(case=_grid_samples())
def test_reconstruct_image_matches_per_sample_loop(case):
    rows, grid_size = case
    samples = BaselineSet()
    for vector, wavelength, value in rows:
        samples.add(Baseline(vector, wavelength), value)
    expected = _outcome(_reference_reconstruct, list(samples), grid_size, 1e-9)
    got = _outcome(reconstruct_image, samples, grid_size, 1e-9)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert np.array_equal(got, expected)
    if len({(isinstance(v, tuple), w) for v, w, _ in rows}) == 1:
        bulk = BaselineSet.from_arrays([v for v, _, _ in rows], rows[0][1],
                                       [x for _, _, x in rows])
        assert list(bulk) == list(samples)
        bulk_image = _outcome(reconstruct_image, bulk, grid_size, 1e-9)
        assert bulk_image == got if isinstance(got, str) else np.array_equal(bulk_image, got)


def test_bulk_and_added_sets_give_the_same_image():
    n, pixel_scale = 32, 0.5e-9
    source = SourceModel(points=(((2e-9, -3e-9), 1.0), ((-4.5e-9, 1e-9), 0.4)))
    k = np.arange(-(n // 2), n - n // 2) * (WAVELENGTH / (n * pixel_scale))
    vectors = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    values = visibilities(source, vectors, WAVELENGTH)
    added = BaselineSet()
    for vector, value in zip(vectors.tolist(), values.tolist()):
        added.add(Baseline(tuple(vector), WAVELENGTH), value)
    bulk = BaselineSet.from_arrays(vectors, WAVELENGTH, values)
    assert len(bulk) == len(added) == n * n
    image = reconstruct_image(bulk, (n, n), pixel_scale)
    assert np.array_equal(image, reconstruct_image(added, (n, n), pixel_scale))
    assert np.array_equal(image, _reference_reconstruct(list(added), (n, n), pixel_scale))


def test_bulk_constructor_rejects_duplicates():
    with pytest.raises(ValueError, match=r"^duplicate baseline 20.0$"):
        BaselineSet.from_arrays([10.0, 20.0, 30.0, 20.0, 10.0], 800e-9, np.ones(5))
    with pytest.raises(ValueError, match=r"^duplicate baseline \(1.0, 2.0\)$"):
        BaselineSet.from_arrays([(1.0, 2.0), (2.0, 1.0), (1.0, 2.0)], 800e-9, np.ones(3))
    samples = BaselineSet.from_arrays([10.0, -0.0], 800e-9, [0.5, 0.6])
    assert [(b.vector, b.wavelength, v) for b, v in samples] == [
        (10.0, 800e-9, 0.5 + 0j), (-0.0, 800e-9, 0.6 + 0j)]
    # add() checks against the bulk rows too; the same vector at another
    # wavelength is a different sample.
    with pytest.raises(ValueError, match="duplicate baseline 0.0"):
        samples.add(Baseline(0.0, 800e-9), 0.1)
    samples.add(Baseline(10.0, 550e-9), 0.1)
    assert len(samples) == 3
    with pytest.raises(ValueError, match="positive"):
        BaselineSet.from_arrays([1.0], 0.0, [1.0])
    with pytest.raises(ValueError, match="values"):
        BaselineSet.from_arrays([1.0, 2.0], 800e-9, [1.0])
