"""Cyclic Jacobi diagonalization of a real symmetric matrix.

Each sweep visits every strict upper-triangle pair (p, q) and applies the
Givens rotation that zeroes A[p, q], its tangent the smaller root of the
usual quadratic for stability. Off-diagonal Frobenius mass decreases
monotonically; iteration stops once it falls below TOL * ||A||_F.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

TOL = 1e-13
MAX_SWEEPS = 100


def _offdiag_frobenius(a: np.ndarray) -> float:
    # summed directly; ||A||^2 - ||diag||^2 would cancel catastrophically
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    theta = (a[p, p] - a[q, q]) / (2.0 * a[p, q])
    t = -math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    for m in (a, v):
        col_p = m[:, p].copy()
        m[:, p] = c * col_p - s * m[:, q]
        m[:, q] = s * col_p + c * m[:, q]
    row_p = a[p, :].copy()
    a[p, :] = c * row_p - s * a[q, :]
    a[q, :] = s * row_p + c * a[q, :]
    a[p, q] = a[q, p] = 0.0  # zero by construction


def _symmetric_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    real symmetric matrix. Raises ConvergenceError if MAX_SWEEPS sweeps
    leave off-diagonal mass above the threshold."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    threshold = TOL * float(np.linalg.norm(matrix))
    skip = threshold / (10.0 * n)
    for _ in range(MAX_SWEEPS):
        if _offdiag_frobenius(a) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > skip:
                    _rotate(a, v, p, q)
    else:
        if _offdiag_frobenius(a) > threshold:
            raise ConvergenceError(
                f"Jacobi sweeps exhausted ({MAX_SWEEPS}) with off-diagonal mass "
                f"{_offdiag_frobenius(a)!r}"
            )
    # Rayleigh quotients against the untouched input shed the roundoff
    # accumulated across sweeps (worth ~10x on the extreme eigenvalues)
    eigenvalues = np.einsum("ij,ij->j", v, matrix @ v)
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]
