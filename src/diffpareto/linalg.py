"""Dense linear algebra, a thin layer over LAPACK through ``numpy.linalg``.

Everything operates on plain float64 numpy arrays. Matrices stay small
(at most a few hundred rows), so direct methods are used everywhere: an
LU solve behind a QR singularity test. The spectral radius of the
error-propagation matrix is taken where that matrix is built (see
``bias``): from ``numpy.linalg.eigvalsh`` of a symmetric matrix similar to
it when one exists, and from ``numpy.linalg.eigvals`` otherwise.
"""

from __future__ import annotations

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when a matrix is singular to working precision; carries the
    smallest diagonal magnitude of its QR factor."""

    def __init__(self, message: str, pivot: float):
        super().__init__(message)
        self.pivot = pivot


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.array(a, dtype=float, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting non-finite entries."""
    x = np.array(v, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={x.ndim}")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def solve_linear(a, b) -> np.ndarray:
    """Solve a @ x = b with LAPACK's LU solver.

    The matrix counts as singular when a diagonal entry of its QR factor
    R is at most n * eps * max|a|; SingularMatrixError then names the
    column and carries that magnitude."""
    a = as_matrix(a)
    b = as_vector(b)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix must be square, got {n}x{a.shape[1]}")
    if b.shape[0] != n:
        raise ValueError(f"matrix is {n}x{n} but right-hand side has length {b.shape[0]}")
    threshold = n * np.finfo(float).eps * np.abs(a).max()
    pivots = np.abs(np.diagonal(np.linalg.qr(a, mode="r")))
    k = int(np.argmin(pivots))
    if pivots[k] <= threshold:
        raise SingularMatrixError(
            f"matrix is singular to working precision at column {k}"
            f" (pivot magnitude {pivots[k]:.3e})",
            pivot=float(pivots[k]),
        )
    return np.linalg.solve(a, b)
