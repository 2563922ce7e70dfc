"""Source models, visibilities, and image file I/O."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscope.fock import _basis_array
from entscope.sky import (
    Baseline,
    SourceModel,
    arrival_density_matrix,
    check_visibility,
    load_pgm,
    load_point_sources,
    save_pgm,
    visibilities,
    visibility,
)

WAVELENGTH = 800e-9


def test_point_source_has_unit_visibility():
    src = SourceModel.point()
    v = visibility(src, Baseline(120.0, WAVELENGTH))
    assert v == pytest.approx(1.0, abs=1e-15)


def test_offset_point_carries_pure_phase():
    theta = 3e-9
    b = Baseline(50.0, WAVELENGTH)
    v = visibility(SourceModel.point(theta=theta), b)
    expected = np.exp(2j * math.pi * 50.0 * math.sin(theta) / WAVELENGTH)
    assert v == pytest.approx(expected, abs=1e-12)
    assert abs(v) == pytest.approx(1.0, abs=1e-12)


def test_equal_binary_cosine_fringe():
    sep = 2.5e-9
    src = SourceModel.binary(sep)
    for b_len in (10.0, 60.0, 150.0):
        b = Baseline(b_len, WAVELENGTH)
        v = visibility(src, b)
        expected = math.cos(
            2.0 * math.pi * b_len * math.sin(sep / 2.0) / WAVELENGTH)
        assert v.real == pytest.approx(expected, abs=1e-12)
        assert v.imag == pytest.approx(0.0, abs=1e-12)


def test_unequal_binary_amplitude():
    """|V| of a ratio-r binary: sqrt(1 + r^2 + 2r cos x) / (1 + r)."""
    sep, ratio, b_len = 2.0e-9, 0.4, 80.0
    v = visibility(SourceModel.binary(sep, ratio=ratio),
                   Baseline(b_len, WAVELENGTH))
    x = 2.0 * math.pi * b_len * 2.0 * math.sin(sep / 2.0) / WAVELENGTH
    expected = math.sqrt(1.0 + ratio**2 + 2.0 * ratio * math.cos(x)) / (1.0 + ratio)
    assert abs(v) == pytest.approx(expected, abs=1e-12)


def test_grid_visibility_matches_direct_sum():
    rng = np.random.default_rng(3)
    grid = rng.random((5, 7))
    scale = 1e-9
    src = SourceModel(grid=grid, pixel_scale=scale)
    b = Baseline((40.0, -25.0), WAVELENGTH)
    bx, by = b.vector

    total = 0.0 + 0.0j
    for ix in range(5):
        for iy in range(7):
            theta = ((ix - 2) * scale, (iy - 3) * scale)
            phase = 2.0 * math.pi * (bx * theta[0] + by * theta[1]) / WAVELENGTH
            total += grid[ix, iy] * np.exp(1j * phase)
    expected = total / grid.sum()

    assert visibility(src, b) == pytest.approx(expected, abs=1e-12)


def test_two_dimensional_points():
    pts = (((1e-9, -2e-9), 1.0), ((-1e-9, 0.5e-9), 2.0))
    src = SourceModel(points=pts)
    b = Baseline((30.0, 55.0), WAVELENGTH)
    expected = sum(
        i * np.exp(2j * math.pi * (30.0 * t[0] + 55.0 * t[1]) / WAVELENGTH)
        for t, i in pts) / 3.0
    assert visibility(src, b) == pytest.approx(expected, abs=1e-12)


def test_visibility_modulus_bounded():
    rng = np.random.default_rng(11)
    src = SourceModel(grid=rng.random((4, 4)), pixel_scale=2e-9)
    for bx, by in rng.uniform(-500.0, 500.0, size=(10, 2)):
        b = Baseline((float(bx), float(by)), WAVELENGTH)
        assert abs(visibility(src, b)) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        visibility(src, Baseline(100.0, WAVELENGTH))


def _reference_visibility(source: SourceModel, baseline: Baseline) -> complex:
    """The per-point scalar forward model that `visibilities` replaced."""
    if source.points is not None:
        def phase(theta):
            if isinstance(baseline.vector, tuple):
                bx, by = baseline.vector
                return 2.0 * math.pi * (bx * theta[0] + by * theta[1]) / baseline.wavelength
            return 2.0 * math.pi * baseline.vector * math.sin(theta) / baseline.wavelength
        total = sum(i for _, i in source.points)
        acc = sum(i * np.exp(1j * phase(t)) for t, i in source.points)
        return complex(acc / total)
    grid = source.grid
    nx, ny = grid.shape
    tx = (np.arange(nx) - nx // 2) * source.pixel_scale
    ty = (np.arange(ny) - ny // 2) * source.pixel_scale
    bx, by = baseline.vector
    px = np.exp(2j * math.pi * bx * tx / baseline.wavelength)
    py = np.exp(2j * math.pi * by * ty / baseline.wavelength)
    return complex((px @ grid @ py) / grid.sum())


def _assert_same_as_scalar(source, vectors, wavelength):
    values = visibilities(source, np.array(vectors), wavelength)
    assert values.dtype == complex and values.shape == (len(vectors),)
    scalar = [visibility(source, Baseline(v, wavelength)) for v in vectors]
    reference = [_reference_visibility(source, Baseline(v, wavelength)) for v in vectors]
    assert np.array_equal(values, np.array(scalar))
    assert np.array_equal(values, np.array(reference))


def test_visibilities_equal_scalar_path_for_every_source_kind():
    rng = np.random.default_rng(5)
    vectors_1d = [float(b) for b in rng.uniform(-400.0, 400.0, 64)]
    vectors_2d = [(float(x), float(y)) for x, y in rng.uniform(-400.0, 400.0, (64, 2))]
    _assert_same_as_scalar(SourceModel.binary(2.5e-9, 0.4), vectors_1d, WAVELENGTH)
    _assert_same_as_scalar(SourceModel(points=(((1e-9, -2e-9), 1.0), ((-3e-9, 5e-10), 0.7),
                                               ((0.0, 4e-9), 0.2))), vectors_2d, WAVELENGTH)
    _assert_same_as_scalar(SourceModel(grid=rng.random((5, 4)), pixel_scale=1e-9),
                           vectors_2d, WAVELENGTH)


_ANGLES = st.floats(-1e-8, 1e-8) | st.floats(-1.5, 1.5)


@st.composite
def _point_sources(draw):
    two_d = draw(st.booleans())
    angle = st.tuples(_ANGLES, _ANGLES) if two_d else _ANGLES
    intensity = st.just(0.0) | st.floats(1e-3, 10.0)
    points = draw(st.lists(st.tuples(angle, intensity), min_size=1, max_size=6))
    if sum(i for _, i in points) <= 0:
        points[0] = (points[0][0], 1.0)
    component = st.floats(-1e3, 1e3)
    vector = st.tuples(component, component) if two_d else component
    vectors = draw(st.lists(vector, min_size=1, max_size=40))
    return SourceModel(points=tuple(points)), vectors


@settings(max_examples=150, deadline=None)
@given(case=_point_sources(), wavelength=st.floats(1e-7, 1e-5))
def test_visibilities_match_scalar_visibility_bit_for_bit(case, wavelength):
    source, vectors = case
    _assert_same_as_scalar(source, vectors, wavelength)


def test_visibilities_reject_mismatched_vectors():
    with pytest.raises(ValueError, match="1-D sources require 1-D"):
        visibilities(SourceModel.point(), np.zeros((3, 2)), WAVELENGTH)
    with pytest.raises(ValueError, match="2-D sources require 2-D"):
        visibilities(SourceModel(grid=np.ones((2, 2)), pixel_scale=1e-9),
                     np.zeros(3), WAVELENGTH)
    with pytest.raises(ValueError, match="shape"):
        visibilities(SourceModel.point(), np.zeros((3, 3)), WAVELENGTH)
    with pytest.raises(ValueError, match="wavelength"):
        visibilities(SourceModel.point(), np.zeros(3), 0.0)


@pytest.mark.parametrize("source, vectors, bad", [
    (SourceModel.binary(2.5e-9), [1.0, 1e300], r"1e\+300"),
    (SourceModel(points=(((1e-9, 2e-9), 1.0),)), [(1.0, 0.0), (0.0, -1e300)],
     r"\(0.0, -1e\+300\)"),
    (SourceModel(grid=np.ones((3, 3)), pixel_scale=1e-9), [(1e300, 0.0)], r"\(1e\+300, 0.0\)"),
], ids=["1d-points", "2d-points", "grid"])
def test_visibilities_reject_an_overflowing_phase(source, vectors, bad):
    """Raised without a numpy RuntimeWarning, which the suite makes an error."""
    with pytest.raises(ValueError, match=f"visibility is not finite at baseline vector {bad} "):
        visibilities(source, vectors, 1e-300)


def test_check_visibility_rejects_nan():
    for v in (math.nan, complex(0.5, math.nan), 1.5):
        with pytest.raises(ValueError, match="must be <= 1"):
            check_visibility(v)


def test_source_model_rejects_mixed_or_wide_angles():
    with pytest.raises(ValueError, match="mixes 1-D"):
        SourceModel(points=((1e-9, 1.0), ((1e-9, 2e-9), 1.0)))
    with pytest.raises(ValueError, match="pi/2"):
        SourceModel(points=((0.0, 1.0), (-math.pi / 2, 1.0)))
    with pytest.raises(ValueError, match="pair"):
        SourceModel(points=(((1e-9, 2e-9, 3e-9), 1.0),))
    # 2-D angles are small-angle offsets and carry no such bound.
    assert SourceModel(points=(((2.0, 0.0), 1.0),)).two_d


@pytest.mark.parametrize("kwargs, message", [
    ({"points": ((0.0, math.nan),)}, "intensities must be finite and non-negative, got nan"),
    ({"points": ((0.0, 1.0), (1e-9, math.inf))}, "intensities must be finite"),
    ({"points": ((0.0, 1e308), (1e-9, 1e308))}, "total intensity must be positive and finite"),
    ({"points": (((math.nan, 0.0), 1.0),)}, r"2-D source angle must be finite, got \(nan, 0.0\)"),
    ({"points": (((0.0, -math.inf), 1.0),)}, "2-D source angle must be finite"),
    ({"points": ((math.nan, 1.0),)}, "pi/2"),
    ({"points": ((math.inf, 1.0),)}, "pi/2"),
    ({"grid": np.array([[1.0, math.nan]]), "pixel_scale": 1e-9}, "grid intensities must be finite"),
    ({"grid": np.array([[1.0, math.inf]]), "pixel_scale": 1e-9}, "grid intensities must be finite"),
    ({"grid": np.ones((2, 2)), "pixel_scale": math.nan}, "pixel_scale must be positive and finite"),
    ({"grid": np.ones((2, 2)), "pixel_scale": math.inf}, "pixel_scale must be positive and finite"),
], ids=["nan-intensity", "inf-intensity", "overflowing-total", "nan-2d-angle", "inf-2d-angle",
        "nan-1d-angle", "inf-1d-angle", "nan-pixel", "inf-pixel", "nan-pixel-scale",
        "inf-pixel-scale"])
def test_source_model_rejects_non_finite_data(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SourceModel(**kwargs)


@pytest.mark.parametrize("kwargs, total", [
    ({"grid": np.array([[1e308, 1e308]]), "pixel_scale": 1e-9}, "inf"),
    ({"grid": np.array([[5e-324, 0.0]]), "pixel_scale": 1e-9}, "5e-324"),
    ({"grid": np.zeros((2, 2)), "pixel_scale": 1e-9}, "0.0"),
    ({"points": (((0.0, 0.0), 1e-320),)}, "1e-320"),
    ({"points": ((0.0, 0.0),)}, "0.0"),
], ids=["grid-overflowing-total", "grid-subnormal-total", "grid-zero-total",
        "points-subnormal-total", "points-zero-total"])
def test_source_model_total_intensity_must_be_a_normal_float(kwargs, total):
    """The total divides every visibility: an infinite one zeroes them, and
    a subnormal one overflows the quotient at the zero baseline."""
    with pytest.raises(ValueError, match=f"^total intensity must be positive and finite, "
                                         f"at least 2.22507e-308, got {total}$"):
        SourceModel(**kwargs)


@pytest.mark.parametrize("source", [
    SourceModel(points=(((0.0, 0.0), sys.float_info.min),)),
    SourceModel(grid=np.array([[sys.float_info.min, 0.0]]), pixel_scale=1e-9),
], ids=["points", "grid"])
def test_smallest_normal_total_intensity_gives_unit_visibility(source):
    assert visibility(source, Baseline((0.0, 0.0), WAVELENGTH)) == 1.0


@pytest.mark.parametrize("vector, wavelength, message", [
    (100.0, math.nan, "wavelength must be positive, got nan"),
    ((100.0, 20.0), math.nan, "wavelength must be positive, got nan"),
    (math.nan, WAVELENGTH, "baseline vector must be finite, got nan"),
    (-math.inf, WAVELENGTH, "baseline vector must be finite, got -inf"),
    ((math.nan, 20.0), WAVELENGTH, r"baseline vector must be finite, got \(nan, 20.0\)"),
    ((100.0, math.inf), WAVELENGTH, r"baseline vector must be finite, got \(100.0, inf\)"),
], ids=["nan-wavelength-1d", "nan-wavelength-2d", "nan-1d", "inf-1d", "nan-2d", "inf-2d"])
def test_baseline_rejects_non_finite_values(vector, wavelength, message):
    with pytest.raises(ValueError, match=message):
        Baseline(vector, wavelength)


def test_arrival_density_matrix_structure():
    v = 0.6 * np.exp(0.8j)
    rho = arrival_density_matrix(v)
    rho.validate()
    probs = dict(zip(map(tuple, _basis_array(rho.mode_count, rho.photon_cutoff).tolist()),
                     rho.matrix.diagonal().real.tolist()))
    assert probs[(0, 1)] == pytest.approx(0.5, abs=1e-15)
    assert probs[(1, 0)] == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        arrival_density_matrix(1.2)


def test_source_model_validation():
    with pytest.raises(ValueError):
        SourceModel()
    with pytest.raises(ValueError):
        SourceModel(points=((0.0, -1.0),))
    with pytest.raises(ValueError):
        SourceModel(grid=np.ones((3, 3)), pixel_scale=0.0)
    with pytest.raises(ValueError):
        Baseline((1.0, 2.0, 3.0), WAVELENGTH)
    with pytest.raises(ValueError):
        Baseline(10.0, -1.0)


def test_load_point_sources_one_and_two_dimensional(tmp_path):
    p1 = tmp_path / "oned.txt"
    p1.write_text("# theta intensity\n1e-9 1.0\n-1e-9 0.5\n")
    src = load_point_sources(p1)
    assert src.points == ((1e-9, 1.0), (-1e-9, 0.5))

    p2 = tmp_path / "twod.txt"
    p2.write_text("1e-9 2e-9 1.0\n0.0 0.0 3.0\n")
    src = load_point_sources(p2)
    assert src.points[0] == ((1e-9, 2e-9), 1.0)

    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3 4\n")
    with pytest.raises(ValueError):
        load_point_sources(bad)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    image = rng.random((6, 9))
    path = tmp_path / "field.pgm"
    save_pgm(path, image, maxval=65535, comment="round-trip check")
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "# round-trip check"
    back = load_pgm(path)
    assert back.shape == image.shape
    scaled = image / image.max()
    assert np.max(np.abs(back - scaled)) < 1.0 / 65535


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_pgm_rejects_a_non_finite_image(tmp_path, bad):
    """A nan or inf pixel has no grey level; the file is not written."""
    path = tmp_path / "field.pgm"
    with pytest.raises(ValueError, match="image must be finite"):
        save_pgm(path, np.array([[0.5, bad], [1.0, 0.0]]))
    assert not path.exists()


def test_load_pgm_binary_format(tmp_path):
    path = tmp_path / "raw.pgm"
    header = b"P5\n3 2\n255\n"
    payload = bytes([0, 128, 255, 64, 32, 16])
    path.write_bytes(header + payload)
    img = load_pgm(path)
    assert img.shape == (2, 3)
    assert img[0, 2] == pytest.approx(1.0)
    assert img[1, 0] == pytest.approx(64 / 255)
