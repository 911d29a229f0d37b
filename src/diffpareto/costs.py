"""Quadratic least-squares cost ensembles.

Each node k owns the cost ``|X_k w - y_k|^2`` with exact gradient
``2 X_k^T (X_k w - y_k)`` and constant Hessian ``2 X_k^T X_k``. The module
also provides the global optimum of the aggregate cost, the stacked
gradient across nodes, per-node Hessian eigenvalue bounds, and the
checkers for the curvature assumption (Assumption 1) and the induced
step-size upper bounds.

The cost surface is kept small and duck-typed (value / gradient /
hessian) so a non-quadratic model could slot in later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError, as_matrix, as_vector, solve_linear
from .network import AssumptionError, CombinationMatrix
from .rng import SplitMix64


@dataclass(frozen=True, eq=False)
class QuadraticCost:
    """Least-squares cost with data matrix ``x_matrix`` and target ``y_vector``."""

    x_matrix: np.ndarray
    y_vector: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.x_matrix)
        y = as_vector(self.y_vector)
        if x.shape[0] < 1:
            raise ValueError("cost needs at least one data row")
        if y.shape[0] != x.shape[0]:
            raise ValueError(
                f"data matrix has {x.shape[0]} rows but target has {y.shape[0]} entries"
            )
        object.__setattr__(self, "x_matrix", x)
        object.__setattr__(self, "y_vector", y)
        x.setflags(write=False)
        y.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.x_matrix.shape[1]

    def value(self, w) -> float:
        r = self.x_matrix @ as_vector(w) - self.y_vector
        return float(r @ r)

    def gradient(self, w) -> np.ndarray:
        w = as_vector(w)
        if w.shape[0] != self.dim:
            raise ValueError(f"point has dim {w.shape[0]}, cost has dim {self.dim}")
        return 2.0 * self.x_matrix.T @ (self.x_matrix @ w - self.y_vector)

    def hessian(self) -> np.ndarray:
        # constant in w for a quadratic
        return 2.0 * self.x_matrix.T @ self.x_matrix

    def linear_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(H, b) with gradient(w) = H @ w - b; exact for quadratics."""
        return self.hessian(), 2.0 * self.x_matrix.T @ self.y_vector


@dataclass(frozen=True, eq=False)
class CostEnsemble:
    """One quadratic cost per node, all sharing the parameter dimension."""

    costs: tuple[QuadraticCost, ...]
    dim: int
    data_seed: int = 0

    def __post_init__(self):
        if not self.costs:
            raise ValueError("ensemble needs at least one cost")
        for i, cost in enumerate(self.costs):
            if cost.dim != self.dim:
                raise ValueError(f"cost {i} has dim {cost.dim}, expected {self.dim}")
        object.__setattr__(self, "costs", tuple(self.costs))

    @property
    def n(self) -> int:
        return len(self.costs)


@dataclass(frozen=True)
class HessianBounds:
    """Extreme Hessian eigenvalues of one node's cost."""

    lambda_min: float
    lambda_max: float


@dataclass(frozen=True)
class Assumption1Report:
    """Per-node weighted curvature lower bounds and the overall verdict."""

    satisfied: bool
    weighted_lambda_min: np.ndarray


def sample_ensemble(n: int, m: int, rows: int, data_seed: int) -> CostEnsemble:
    """Ensemble of n costs with i.i.d. standard-normal data entries.

    The entries come from one seeded stream consumed node by node (X_k row
    major, then y_k), so the result is a deterministic function of the
    arguments."""
    if n < 1 or m < 1 or rows < 1:
        raise ValueError("n, m, and rows must all be positive")
    rng = SplitMix64(data_seed)
    costs = []
    for _ in range(n):
        x = np.array(rng.normals(rows * m)).reshape(rows, m)
        y = np.array(rng.normals(rows))
        costs.append(QuadraticCost(x_matrix=x, y_vector=y))
    return CostEnsemble(costs=tuple(costs), dim=m, data_seed=data_seed)


def hessian_bounds(cost: QuadraticCost) -> HessianBounds:
    """Extreme eigenvalues of the (symmetric PSD) Hessian, from LAPACK's
    symmetric eigensolver.

    A bottom eigenvalue at or below M * eps * lambda_max is rounding noise
    of a singular Hessian (fewer data rows than dimensions) and is
    reported as exactly zero."""
    eigs = np.linalg.eigvalsh(cost.hessian())
    lambda_max = float(eigs[-1])
    lambda_min = float(eigs[0])
    if lambda_min <= cost.dim * np.finfo(float).eps * lambda_max:
        lambda_min = 0.0
    return HessianBounds(lambda_min=lambda_min, lambda_max=lambda_max)


def global_optimum(ensemble: CostEnsemble) -> np.ndarray:
    """Minimizer of the equally weighted aggregate cost (global LS solution)."""
    gram = np.zeros((ensemble.dim, ensemble.dim))
    rhs = np.zeros(ensemble.dim)
    for cost in ensemble.costs:
        gram += cost.x_matrix.T @ cost.x_matrix
        rhs += cost.x_matrix.T @ cost.y_vector
    try:
        return solve_linear(gram, rhs)
    except SingularMatrixError as exc:
        raise AssumptionError(
            "Assumption 1 violated: the aggregate normal matrix is singular"
            f" ({exc})"
        ) from exc


def stacked_gradient(ensemble: CostEnsemble, w) -> np.ndarray:
    """All per-node gradients at w, stacked into one vector of length N*M."""
    w = as_vector(w)
    return np.concatenate([cost.gradient(w) for cost in ensemble.costs])


def _bounds_per_node(ensemble: CostEnsemble) -> tuple[np.ndarray, np.ndarray]:
    bounds = [hessian_bounds(cost) for cost in ensemble.costs]
    return (
        np.array([b.lambda_min for b in bounds]),
        np.array([b.lambda_max for b in bounds]),
    )


def step_size_bounds(c: CombinationMatrix, ensemble: CostEnsemble) -> np.ndarray:
    """Per-node strict step-size upper bounds, as one vector."""
    lo, hi = _bounds_per_node(ensemble)
    weighted_lo = c.matrix.T @ lo
    if (weighted_lo <= 0.0).any():
        bad = int(np.argmin(weighted_lo))
        raise AssumptionError(
            "Assumption 1 violated: the weighted lower curvature bound of node"
            f" {bad} is not positive"
        )
    return 2.0 / (c.matrix.T @ hi)


def check_assumption1(c: CombinationMatrix, ensemble: CostEnsemble) -> Assumption1Report:
    """Weighted curvature lower bounds must be positive at every node."""
    lo, _ = _bounds_per_node(ensemble)
    weighted = c.matrix.T @ lo
    return Assumption1Report(satisfied=bool((weighted > 0.0).all()), weighted_lambda_min=weighted)


def combine_hessians(c: CombinationMatrix, ensemble: CostEnsemble) -> np.ndarray:
    """Per-node combined Hessians: stack of sum_l c[l, k] * hessian_l, shape (N, M, M)."""
    h_stack = np.stack([cost.hessian() for cost in ensemble.costs])
    return np.einsum("lk,lij->kij", c.matrix, h_stack)


def combine_gradient_offsets(c: CombinationMatrix, ensemble: CostEnsemble) -> np.ndarray:
    """Per-node combined linear-form offsets, shape (N, M)."""
    b_stack = np.stack([cost.linear_form()[1] for cost in ensemble.costs])
    return np.einsum("lk,li->ki", c.matrix, b_stack)


def ensemble_to_text(ensemble: CostEnsemble) -> str:
    """Plain-text bundle: 'N M rows' header, then X_k rows and y_k per node."""
    rows = ensemble.costs[0].x_matrix.shape[0]
    for cost in ensemble.costs:
        if cost.x_matrix.shape[0] != rows:
            raise ValueError("text format requires equal row counts across nodes")
    lines = [f"{ensemble.n} {ensemble.dim} {rows}"]
    for cost in ensemble.costs:
        for row in cost.x_matrix:
            lines.append(" ".join(format(v, ".16e") for v in row))
        lines.append(" ".join(format(v, ".16e") for v in cost.y_vector))
    return "\n".join(lines) + "\n"


def ensemble_from_text(text: str) -> CostEnsemble:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty ensemble text")
    n, m, rows = (int(v) for v in lines[0].split())
    expected = 1 + n * (rows + 1)
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines for N={n} rows={rows}, got {len(lines)}")
    costs = []
    at = 1
    for _ in range(n):
        x = np.array([[float(v) for v in lines[at + r].split()] for r in range(rows)])
        y = np.array([float(v) for v in lines[at + rows].split()])
        if x.shape != (rows, m) or y.shape != (rows,):
            raise ValueError("malformed ensemble block")
        costs.append(QuadraticCost(x_matrix=x, y_vector=y))
        at += rows + 1
    return CostEnsemble(costs=tuple(costs), dim=m, data_seed=0)
