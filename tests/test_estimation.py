"""Visibility fitting, closure phases, and dirty-image reconstruction."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscope.errors import ConfigError, LowStatisticsError
from entscope.estimation import (
    FringeFit,
    check_field_of_view,
    closure_phase,
    dirty_image,
    estimate_visibility,
    full_grid_samples,
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
# Image reconstruction
# ---------------------------------------------------------------------------

WAVELENGTH = 800e-9


def grid_vectors(ks, n, pixel_scale):
    """Baseline vectors at grid indices ks: (m,) for integer indices, (m, 2)
    for index pairs."""
    return np.array(ks, dtype=float) * (WAVELENGTH / (n * pixel_scale))


def test_point_source_lands_on_its_pixel():
    # Pure convention check with hand-written samples, no forward model:
    # a point at pixel p has V(k) = exp(+2 pi i k (p - n//2) / n).
    n, p, pixel_scale = 8, 6, 1e-9
    values = [cmath.exp(2j * math.pi * k * (p - n // 2) / n) for k in range(n)]
    image = reconstruct_image(grid_vectors(range(n), n, pixel_scale), WAVELENGTH,
                              values, n, pixel_scale)
    expected = np.zeros(n)
    expected[p] = 1.0
    assert np.max(np.abs(image - expected)) < 1e-12
    # A numpy integer grid size is the same n.
    assert np.array_equal(reconstruct_image(grid_vectors(range(n), n, pixel_scale), WAVELENGTH,
                                            values, np.int64(n), pixel_scale), image)


def test_one_dimensional_round_trip_with_hermitian_completion():
    # Forward visibilities from the sky model on the half grid only; the
    # missing conjugate half is completed internally.
    n, pixel_scale = 8, 1e-9
    intensities = {2: 1.0, 5: 2.0}
    source = SourceModel(points=tuple(
        ((p - n // 2) * pixel_scale, i) for p, i in intensities.items()))
    vectors = grid_vectors(range(n // 2 + 1), n, pixel_scale)
    values = [visibility(source, Baseline(v, WAVELENGTH)) for v in vectors.tolist()]
    image = reconstruct_image(vectors, WAVELENGTH, values, n, pixel_scale)
    expected = np.zeros(n)
    for p, i in intensities.items():
        expected[p] = i / 3.0
    assert np.max(np.abs(image - expected)) < 1e-8


def test_two_dimensional_round_trip():
    n, pixel_scale = 16, 0.4e-9
    rng = np.random.default_rng(7)
    grid = rng.random((n, n))
    source = SourceModel(grid=grid, pixel_scale=pixel_scale)
    vectors = grid_vectors([(kx, ky) for kx in range(n) for ky in range(n)],
                           n, pixel_scale)
    values = [visibility(source, Baseline(tuple(v), WAVELENGTH)) for v in vectors.tolist()]
    image = reconstruct_image(vectors, WAVELENGTH, values, n, pixel_scale)
    assert image.shape == (n, n)
    assert np.max(np.abs(image - grid / grid.sum())) < 1e-8
    assert image.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(reconstruct_image(vectors, WAVELENGTH, values, np.int64(n),
                                            pixel_scale), image)


def test_reconstruction_scale_invariant():
    # The forward amplitudes carry an arbitrary scale; the image is
    # normalized to unit flux either way.
    n, pixel_scale = 8, 1e-9
    def build(scale):
        values = [scale * cmath.exp(2j * math.pi * k * 2 / n) for k in range(n)]
        return reconstruct_image(grid_vectors(range(n), n, pixel_scale), WAVELENGTH,
                                 values, n, pixel_scale)
    assert np.max(np.abs(build(1.0) - build(3.0))) < 1e-12


def test_reconstruction_rejects_off_grid_baseline():
    # The first off-grid row is named, at its first off-grid axis.
    unit = WAVELENGTH / (8 * 1e-9)
    first = r"off the reconstruction grid \(index 1\.300000 "
    with pytest.raises(ValueError, match=first):
        reconstruct_image([0.0, 1.3 * unit, 3.3 * unit], WAVELENGTH, np.ones(3), 8, 1e-9)
    with pytest.raises(ValueError, match=first):
        reconstruct_image([(0.0, 0.0), (1.3 * unit, 2.6 * unit), (3.3 * unit, 0.0)],
                          WAVELENGTH, np.ones(3), (8, 8), 1e-9)


def test_reconstruction_rejects_non_hermitian_data():
    vectors = grid_vectors([0, 1, 7], 8, 1e-9)
    with pytest.raises(ValueError, match="not Hermitian"):
        reconstruct_image(vectors, WAVELENGTH, [1.0, 0.5j, 0.5j], 8, 1e-9)  # V(7) = -0.5j


def test_reconstruction_rejects_missing_zero_baseline():
    # Without the DC sample the image is a zero-mean fringe; normalizing it
    # would divide by roundoff.
    with pytest.raises(ValueError, match="total flux"):
        reconstruct_image(grid_vectors([1], 8, 1e-9), WAVELENGTH, [1.0], 8, 1e-9)


def test_reconstruction_grid_shape_validation():
    one_d = grid_vectors([0], 8, 1e-9)
    with pytest.raises(ValueError, match="scalar grid size"):
        reconstruct_image(one_d, WAVELENGTH, [1.0], (8, 8), 1e-9)
    with pytest.raises(ValueError, match=r"\(nx, ny\) grid size"):
        reconstruct_image(grid_vectors([(0, 0)], 8, 1e-9), WAVELENGTH, [1.0], (8,), 1e-9)
    with pytest.raises(ValueError, match="empty baseline set"):
        reconstruct_image([], WAVELENGTH, [], 8, 1e-9)
    with pytest.raises(ValueError, match="pixel_scale"):
        reconstruct_image(one_d, WAVELENGTH, [1.0], 8, 0.0)
    with pytest.raises(TypeError, match="integer"):
        reconstruct_image(one_d, WAVELENGTH, [1.0], 8.5, 1e-9)


def test_baseline_set_rejects_duplicates():
    # Duplicates are found before the grid check; the reported row is the
    # first one that repeats an earlier row, and -0.0 repeats 0.0.
    with pytest.raises(ValueError, match=r"^duplicate baseline 20.0$"):
        reconstruct_image([10.0, 20.0, 30.0, 20.0, 10.0], WAVELENGTH, np.ones(5), 8, 1e-9)
    with pytest.raises(ValueError, match=r"^duplicate baseline 0.0$"):
        reconstruct_image([10.0, -0.0, 0.0], WAVELENGTH, np.ones(3), 8, 1e-9)


def test_bulk_constructor_rejects_duplicates():
    # The array arguments are checked as a whole: 2-D duplicate rows, the
    # vectors' shape, the wavelength and the number of values.
    with pytest.raises(ValueError, match=r"^duplicate baseline \(1.0, 2.0\)$"):
        reconstruct_image([(1.0, 2.0), (2.0, 1.0), (1.0, 2.0)], WAVELENGTH, np.ones(3),
                          (8, 8), 1e-9)
    for shape in ((3, 3), (2, 2, 2)):
        with pytest.raises(ValueError, match=r"shape \(m,\) or \(m, 2\)"):
            reconstruct_image(np.zeros(shape), WAVELENGTH, np.ones(shape[0]), 8, 1e-9)
    for wavelength in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError, match="wavelength must be positive"):
            reconstruct_image([0.0], wavelength, [1.0], 8, 1e-9)
    with pytest.raises(ValueError, match=r"expected 2 values, got shape \(1,\)"):
        reconstruct_image([0.0, 1.0], WAVELENGTH, [1.0], 8, 1e-9)


# ---------------------------------------------------------------------------
# Array gridding against the per-sample gridding loop
# ---------------------------------------------------------------------------

def _reference_reconstruct(vectors, values, grid_size, pixel_scale):
    """The per-sample gridding loop that the array gridding replaced."""
    def axis_index(component, n):
        exact = component * n * pixel_scale / WAVELENGTH
        k = round(exact)
        if abs(exact - k) > 1e-6:
            raise ValueError(
                f"baseline component {component!r} is off the reconstruction grid "
                f"(index {exact:.6f} not within 1e-06 of an integer)")
        return k % n

    two_d = vectors.ndim == 2
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
    for vector, vis in zip(vectors.tolist(), values.tolist()):
        vector = vector if two_d else (vector,)
        idx = tuple(axis_index(c, n) for c, n in zip(vector, shape))
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
    """Distinct baselines on a reconstruction grid, some of them sampling one
    grid point twice, with the visibilities of on-pixel points; up to two
    edits then move a baseline off the grid or change its value."""
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
    for edit in draw(st.lists(st.sampled_from(["off-grid", "value"]), max_size=2)):
        at = draw(st.integers(0, len(values) - 1))
        if edit == "value":
            values[at] *= 1.5j
            continue
        moved = vectors.copy()
        moved[(at, 1) if two_d else at] += 0.3 * unit
        rows = moved.reshape(len(moved), -1).tolist()
        if rows.count(rows[at]) == 1:  # keep the baselines distinct
            vectors = moved
    return vectors, values, (n, n) if two_d else n


@settings(max_examples=200, deadline=None)
@given(case=_grid_samples())
def test_reconstruct_image_matches_per_sample_loop(case):
    vectors, values, grid_size = case
    expected = _outcome(_reference_reconstruct, vectors, values, grid_size, 1e-9)
    got = _outcome(reconstruct_image, vectors, WAVELENGTH, values, grid_size, 1e-9)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("two_d", [False, True], ids=["1-D", "2-D"])
def test_full_grid_image_matches_per_sample_loop(two_d, n):
    pixel_scale = 0.5e-9
    if two_d:
        source = SourceModel(points=(((2e-9, -3e-9), 1.0), ((-4.5e-9, 1e-9), 0.4)))
    else:
        source = SourceModel(points=((2e-9, 1.0), (-4.5e-9, 0.4)))
    k = np.arange(-(n // 2), n - n // 2) * (WAVELENGTH / (n * pixel_scale))
    vectors = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2) if two_d else k
    grid_size = (n, n) if two_d else n
    values = visibilities(source, vectors, WAVELENGTH)
    # The arrays are read in place, never written.
    vectors.flags.writeable = values.flags.writeable = False
    image = reconstruct_image(vectors, WAVELENGTH, values, grid_size, pixel_scale)
    assert np.array_equal(image, _reference_reconstruct(vectors, values, grid_size, pixel_scale))
    # The reconstruct command's route builds the same samples itself.
    samples = full_grid_samples(source, n, pixel_scale, WAVELENGTH)
    assert np.array_equal(dirty_image(samples), image)


def test_check_field_of_view_raises_a_plain_value_error():
    """The library names no config key; the CLI adds the [reconstruct] prefix."""
    check_field_of_view(SourceModel(points=((-4.5e-9, 1.0),)), 8, 1e-9)  # on the edge
    with pytest.raises(ValueError, match=r"^source at 4e-09 rad lies outside the field of "
                                         r"view \[-4\.5e-09, 3\.5e-09\] rad per axis") as info:
        check_field_of_view(SourceModel(points=((4e-9, 1.0),)), 8, 1e-9)
    assert not isinstance(info.value, ConfigError)
