"""Independent few-mode simulator used as the test oracle.

Deliberately different construction from the package: modes are truncated
per-mode (dim = max photons per mode + 1) instead of by total photon number,
states are dense Kronecker-product vectors/matrices, and every linear-optics
element is the matrix exponential of its quadratic generator rather than a
closed-form amplitude table.  Both routes are exact whenever the total photon
number fits inside both truncations, so any disagreement beyond roundoff is
a bug on one side.

Convention matched to the package::

    a+  ->  sqrt(t) a+ + i e^{+i phi} sqrt(1-t) b+
    b+  ->  i e^{-i phi} sqrt(1-t) a+ + sqrt(t) b+
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm


def destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def embed(op: np.ndarray, n_modes: int, dim: int, mode: int) -> np.ndarray:
    full = np.eye(1, dtype=complex)
    for m in range(n_modes):
        full = np.kron(full, op if m == mode else np.eye(dim, dtype=complex))
    return full


def index_of(occ, dim: int) -> int:
    i = 0
    for n in occ:
        if not 0 <= n < dim:
            raise ValueError(f"occupation {occ} does not fit dim {dim}")
        i = i * dim + n
    return i


def ket(n_modes: int, dim: int, amplitudes: dict) -> np.ndarray:
    vec = np.zeros(dim**n_modes, dtype=complex)
    for occ, amp in amplitudes.items():
        vec[index_of(occ, dim)] = amp
    return vec


def density(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conjugate())


def beam_splitter(n_modes: int, dim: int, mode_a: int, mode_b: int,
                  t: float, phase: float = 0.0) -> np.ndarray:
    """exp(i theta (e^{-i phi} a+ b + e^{+i phi} b+ a)), cos theta = sqrt(t)."""
    theta = math.acos(min(1.0, math.sqrt(t)))
    a = embed(destroy(dim), n_modes, dim, mode_a)
    b = embed(destroy(dim), n_modes, dim, mode_b)
    h = theta * (np.exp(-1j * phase) * a.conjugate().T @ b
                 + np.exp(1j * phase) * b.conjugate().T @ a)
    return expm(1j * h)


def phase_shift(n_modes: int, dim: int, mode: int, delta: float) -> np.ndarray:
    number = embed(destroy(dim), n_modes, dim, mode)
    number = number.conjugate().T @ number
    return expm(1j * delta * number)


def trace_last_mode(rho: np.ndarray, n_modes: int, dim: int) -> np.ndarray:
    rest = dim ** (n_modes - 1)
    return np.einsum("ikjk->ij", rho.reshape(rest, dim, rest, dim))


def loss(rho: np.ndarray, n_modes: int, dim: int, mode: int,
         eta: float) -> np.ndarray:
    """Mix the mode with a vacuum ancilla on a t = eta splitter, trace it out."""
    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    ext = np.kron(rho, vac)
    u = beam_splitter(n_modes + 1, dim, mode, n_modes, eta)
    ext = u @ ext @ u.conjugate().T
    return trace_last_mode(ext, n_modes + 1, dim)


def occupation_probabilities(rho: np.ndarray, n_modes: int, dim: int,
                             tol: float = 1e-15) -> dict:
    diag = np.real(np.diag(rho))
    out = {}
    for occ in np.ndindex(*(dim,) * n_modes):
        p = float(diag[index_of(occ, dim)])
        if p > tol:
            out[tuple(int(n) for n in occ)] = p
    return out

