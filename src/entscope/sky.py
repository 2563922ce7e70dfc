"""Source models, baselines, and complex fringe visibility.

The visibility of a source seen through a two-telescope baseline is the
normalized Fourier transform of its brightness distribution.  A photon
arriving from the source is shared between the two collection modes; its
one-photon density matrix carries that visibility on the off-diagonal.

Source angle conventions: 1-D point sources use the exact geometric phase
2*pi*b*sin(theta)/lambda.  2-D sources (point lists with (theta_x, theta_y)
and pixel grids) use the small-angle form 2*pi*(b . theta)/lambda.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock


@dataclass(frozen=True)
class Baseline:
    """Telescope separation vector and operating wavelength, both in meters.

    vector is a scalar for 1-D geometries or an (east, north) pair for 2-D.
    """

    vector: float | tuple[float, float]
    wavelength: float

    def __post_init__(self) -> None:
        v = checked_baselines([self.vector], self.wavelength)[0]
        object.__setattr__(self, "vector", tuple(v.tolist()) if v.ndim else float(v))


def _phases(vectors: np.ndarray, wavelength: float, theta) -> np.ndarray:
    """Geometric phase of a point at theta for each row of vectors."""
    if vectors.ndim == 2:
        tx, ty = theta
        return 2.0 * math.pi * (vectors[:, 0] * tx + vectors[:, 1] * ty) / wavelength
    return 2.0 * math.pi * vectors * math.sin(theta) / wavelength


@dataclass(frozen=True)
class SourceModel:
    """Incoherent brightness distribution: weighted points or a pixel grid.

    points: tuple of (theta, intensity) with theta a float (1-D) or an
    (theta_x, theta_y) pair (2-D).  grid: 2-D intensity array with square
    pixels of pixel_scale radians, pixel (ix, iy) at angle
    ((ix - nx//2) * pixel_scale, (iy - ny//2) * pixel_scale).
    """

    points: tuple | None = None
    grid: np.ndarray | None = None
    pixel_scale: float = 0.0

    def __post_init__(self) -> None:
        if (self.points is None) == (self.grid is None):
            raise ValueError("provide exactly one of points or grid")
        if self.points is not None:
            pts = tuple((t if np.isscalar(t) else tuple(map(float, t)), float(i))
                        for t, i in self.points)
            if not pts:
                raise ValueError("point source list is empty")
            if len({isinstance(t, tuple) for t, _ in pts}) > 1:
                raise ValueError("point list mixes 1-D angles and 2-D "
                                 "(theta_x, theta_y) pairs")
            for t, i in pts:
                if isinstance(t, tuple) and len(t) != 2:
                    raise ValueError(f"2-D source angle must be a "
                                     f"(theta_x, theta_y) pair, got {t}")
                if isinstance(t, tuple) and not np.isfinite(t).all():
                    raise ValueError(f"2-D source angle must be finite, got {t}")
                if not isinstance(t, tuple) and not abs(t) < math.pi / 2:
                    raise ValueError(f"source angle must satisfy |theta| < pi/2, got {t}")
                if not 0 <= i < math.inf:
                    raise ValueError(f"intensities must be finite and non-negative, got {i}")
            _check_total(sum(i for _, i in pts))
            object.__setattr__(self, "points", pts)
        else:
            grid = np.asarray(self.grid, dtype=float)
            if grid.ndim != 2:
                raise ValueError("grid must be 2-D")
            if not np.isfinite(grid).all() or np.any(grid < 0):
                raise ValueError("grid intensities must be finite and non-negative")
            with np.errstate(over="ignore"):  # an infinite sum is checked
                _check_total(float(grid.sum()))
            if not 0 < self.pixel_scale < math.inf:
                raise ValueError(f"pixel_scale must be positive and finite for grid "
                                 f"sources, got {self.pixel_scale}")
            object.__setattr__(self, "grid", grid)

    @property
    def two_d(self) -> bool:
        """True for pixel grids and (theta_x, theta_y) point lists."""
        return self.grid is not None or isinstance(self.points[0][0], tuple)

    @classmethod
    def point(cls, theta=0.0, intensity: float = 1.0) -> "SourceModel":
        return cls(points=((theta, intensity),))

    @classmethod
    def binary(cls, separation: float, ratio: float = 1.0) -> "SourceModel":
        """Equal-or-weighted pair at +/- separation/2 (1-D angles)."""
        return cls(points=((-separation / 2.0, 1.0), (separation / 2.0, ratio)))


def _check_total(total: float) -> None:
    """Raise unless the total intensity, which divides every visibility, is a
    normal, positive, finite float; a subnormal one overflows the quotient."""
    if not sys.float_info.min <= total < math.inf:
        raise ValueError(f"total intensity must be positive and finite, at least "
                         f"{sys.float_info.min:g}, got {total!r}")


def checked_baselines(vectors, wavelength: float) -> np.ndarray:
    """vectors as a float (m,) or (m, 2) array; raises on other shapes, a
    non-finite vector or a wavelength <= 0."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim not in (1, 2) or vectors.ndim == 2 and vectors.shape[1] != 2:
        raise ValueError(f"baseline vectors must have shape (m,) or (m, 2), "
                         f"got {vectors.shape}")
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if not np.isfinite(vectors).all():  # name the first non-finite vector
        bad = vectors[np.isfinite(vectors).reshape(len(vectors), -1).all(axis=1).argmin()].tolist()
        raise ValueError(f"baseline vector must be finite, got "
                         f"{tuple(bad) if vectors.ndim == 2 else bad}")
    return vectors


def check_visibility(v: complex) -> complex:
    """v as a complex number, raising unless |v| <= 1 (to 1e-12), so nan too."""
    v = complex(v)
    if not abs(v) <= 1.0 + 1e-12:
        raise ValueError(f"|visibility| must be <= 1, got {abs(v)}")
    return v


def visibilities(source: SourceModel, vectors, wavelength: float) -> np.ndarray:
    """Normalized complex visibility sum_k I_k e^{i phase_k} / sum_k I_k for
    each baseline vector: vectors has shape (m,) (1-D) or (m, 2) (2-D).

    Every value is computed with the same float operations whatever m is,
    so each value has the bits of the one-baseline call `visibility`.
    Raises if a phase overflows, which would make a value nan.
    """
    vectors = checked_baselines(vectors, wavelength)
    if (vectors.ndim == 2) != source.two_d:
        dims = "2-D" if source.two_d else "1-D"
        raise ValueError(f"{dims} sources require {dims} baseline vectors")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = _visibilities(source, vectors, wavelength)
    finite = np.isfinite(out)
    if not finite.all():
        bad = vectors[finite.argmin()].tolist()
        raise ValueError(f"visibility is not finite at baseline vector "
                         f"{tuple(bad) if vectors.ndim == 2 else bad} and wavelength "
                         f"{wavelength!r}: the phase 2*pi*b*theta/lambda overflows")
    return out


def _visibilities(source: SourceModel, vectors: np.ndarray, wavelength: float) -> np.ndarray:
    if source.points is not None:
        # In place, with each element's float operations those of
        # 0 + i_1 e^{i phase_1} + i_2 e^{i phase_2} + ... then / total.
        out = np.zeros(len(vectors), dtype=complex)
        for theta, i in source.points:
            term = 1j * _phases(vectors, wavelength, theta)
            np.exp(term, out=term)
            np.multiply(i, term, out=term)
            out += term
        out /= sum(i for _, i in source.points)
        return out
    grid = source.grid
    nx, ny = grid.shape
    tx = (np.arange(nx) - nx // 2) * source.pixel_scale
    ty = (np.arange(ny) - ny // 2) * source.pixel_scale
    out = np.empty(len(vectors), dtype=complex)
    for k, (bx, by) in enumerate(vectors.tolist()):
        px = np.exp(2j * math.pi * bx * tx / wavelength)
        py = np.exp(2j * math.pi * by * ty / wavelength)
        out[k] = (px @ grid @ py) / grid.sum()
    return out


def visibility(source: SourceModel, baseline: Baseline) -> complex:
    """Normalized complex visibility of one baseline (see `visibilities`)."""
    return complex(visibilities(source, [baseline.vector], baseline.wavelength)[0])


def arrival_density_matrix(v: complex) -> fock.DensityOperator:
    """One-photon two-mode state of an astronomical photon with visibility v.

    The pair-family member with coherence |v| and phase arg v: basis
    (n_left, n_right), diagonal 1/2 on |0,1> and |1,0>, off-diagonal
    <1,0|rho|0,1> = v/2 (and conjugate).  |v| <= 1 required.
    """
    v = check_visibility(v)
    return fock.EntangledPairState(0.0, 1.0, abs(v), cmath.phase(v)).to_density()


def load_point_sources(path) -> SourceModel:
    """Read a plain-text point list: 'theta_x theta_y intensity' per line.

    Lines starting with '#' are comments.  Two-column lines are read as
    'theta intensity' (1-D source).
    """
    points = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split()
            try:
                vals = [float(c) for c in cols]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from exc
            if len(vals) == 2:
                points.append((vals[0], vals[1]))
            elif len(vals) == 3:
                points.append(((vals[0], vals[1]), vals[2]))
            else:
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 columns, got {len(vals)}")
    return SourceModel(points=tuple(points))


def load_pgm(path) -> np.ndarray:
    """Read a portable graymap (P2 ASCII or P5 binary) into a float array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        # Tokenize the header, skipping whitespace and '#' comment lines.
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a P2/P5 portable graymap")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval <= 0 or maxval > 65535:
        raise ValueError(f"{path}: bad maxval {maxval}")
    if tokens[0] == b"P2":
        vals = np.array(data[pos:].split(), dtype=float)
    else:
        pos += 1  # single whitespace after maxval
        dtype = np.uint8 if maxval < 256 else ">u2"
        vals = np.frombuffer(data[pos:], dtype=dtype, count=width * height).astype(float)
    if vals.size != width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, got {vals.size}")
    return vals.reshape(height, width) / maxval


def save_pgm(path, image: np.ndarray, maxval: int = 255, comment: str | None = None) -> None:
    """Write a float image (scaled to its max) as an ASCII P2 graymap."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("image must be 2-D")
    if not np.isfinite(image).all():  # no grey level stands for nan or inf
        raise ValueError("image must be finite")
    top = image.max()
    scaled = np.zeros_like(image, dtype=int) if top <= 0 else np.rint(
        np.clip(image / top, 0.0, 1.0) * maxval).astype(int)
    levels = np.array([str(v) for v in range(maxval + 1)], dtype=object)
    lines = [b"P2"]
    if comment:
        lines.append(f"# {comment}".encode("ascii"))
    lines.append(f"{image.shape[1]} {image.shape[0]}".encode("ascii"))
    lines.append(str(maxval).encode("ascii"))
    for row in scaled:
        lines.append(" ".join(levels[row].tolist()).encode("ascii"))
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
