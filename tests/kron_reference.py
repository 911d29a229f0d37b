"""Independent dense references for the error propagation matrix B, every
factor lifted with np.kron. ``eigvals`` is bound here at import, so a test
that counts the package's ``np.linalg.eigvals`` calls does not count these."""

import numpy as np
from numpy.linalg import eigvals

from diffpareto.costs import global_optimum, stacked_gradient


def kron_reference(cfg, ens) -> tuple[np.ndarray, np.ndarray]:
    """B and the closed-form right-hand side."""
    n, m = ens.n, ens.dim
    eye_m = np.eye(m)
    r = np.zeros((n * m, n * m))
    for k in range(n):
        block = sum(cfg.c.matrix[l, k] * ens.costs[l].hessian() for l in range(n))
        r[k * m : (k + 1) * m, k * m : (k + 1) * m] = block
    a1t = np.kron(cfg.a1.matrix.T, eye_m)
    a2t = np.kron(cfg.a2.matrix.T, eye_m)
    mu = np.kron(np.diag(cfg.step_sizes), eye_m)
    b = a2t @ (np.eye(n * m) - mu @ r) @ a1t
    g0 = stacked_gradient(ens, global_optimum(ens))
    rhs = a2t @ mu @ np.kron(cfg.c.matrix.T, eye_m) @ g0
    return b, rhs


def reference_radius(cfg, ens) -> float:
    """The largest |eigvals| of the reference B."""
    return float(np.abs(eigvals(kron_reference(cfg, ens)[0])).max())


def reference_answers(cfg, ens) -> tuple[np.ndarray, float]:
    """The closed form and the largest |eigvals| of the reference B."""
    b, rhs = kron_reference(cfg, ens)
    return np.linalg.solve(np.eye(len(rhs)) - b, rhs), float(np.abs(eigvals(b)).max())
