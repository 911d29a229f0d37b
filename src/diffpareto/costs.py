"""Quadratic least-squares cost ensembles.

Each node k owns the cost ``|X_k w - y_k|^2`` with exact gradient
``2 X_k^T (X_k w - y_k)`` and constant Hessian ``2 X_k^T X_k``. The module
also provides the global optimum of the aggregate cost, the stacked
gradient across nodes, the c-combined Hessians and gradient offsets the
recursion steps with, and the checkers for the curvature assumption
(Assumption 1) and the induced step-size upper bounds. The M x M
aggregate-Hessian systems that Assumption 1 makes nonsingular are solved
in one place, ``solve_assumption1``, behind a QR singularity test.

An ensemble stacks its per-node Hessians, gradient offsets and extreme
Hessian eigenvalues once, at construction; every per-node quantity
downstream is read from those stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import AssumptionError, CombinationMatrix, as_matrix, as_vector
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


@dataclass(frozen=True, eq=False)
class CostEnsemble:
    """One quadratic cost per node, all sharing the parameter dimension.

    ``hessians`` (N, M, M) and ``offsets`` (N, M) stack every node's
    Hessian and gradient offset 2 X^T y, so that gradient_k(w) =
    hessians[k] @ w - offsets[k]. ``lambda_min`` and ``lambda_max`` (N,)
    are each Hessian's extreme eigenvalues, from one batched ``eigvalsh``;
    a bottom one at or below M * eps * lambda_max is rounding noise of a
    singular Hessian (fewer data rows than dimensions) and is stored as
    zero. All four are derived from the costs and read-only."""

    costs: tuple[QuadraticCost, ...]
    dim: int
    hessians: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    lambda_min: np.ndarray = field(init=False, repr=False)
    lambda_max: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.costs:
            raise ValueError("ensemble needs at least one cost")
        for i, cost in enumerate(self.costs):
            if cost.dim != self.dim:
                raise ValueError(f"cost {i} has dim {cost.dim}, expected {self.dim}")
        object.__setattr__(self, "costs", tuple(self.costs))
        hessians = np.stack([cost.hessian() for cost in self.costs])
        offsets = np.stack([2.0 * cost.x_matrix.T @ cost.y_vector for cost in self.costs])
        eigs = np.linalg.eigvalsh(hessians)
        lo, hi = eigs[:, 0], eigs[:, -1]
        lo = np.where(lo <= self.dim * np.finfo(float).eps * hi, 0.0, lo)
        stacks = {"hessians": hessians, "offsets": offsets, "lambda_min": lo, "lambda_max": hi}
        for name, stack in stacks.items():
            object.__setattr__(self, name, stack)
            stack.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.costs)


@dataclass(frozen=True)
class Assumption1Report:
    """Per-node weighted curvature lower bounds, the overall verdict, and
    the strict step-size upper bounds two over the weighted upper bounds."""

    satisfied: bool
    weighted_lambda_min: np.ndarray
    step_bounds: np.ndarray

    def require(self) -> np.ndarray:
        """The step bounds, once every weighted lower bound is positive."""
        if not self.satisfied:
            bad = int(np.argmin(self.weighted_lambda_min))
            raise AssumptionError(
                "Assumption 1 violated: the weighted lower curvature bound of node"
                f" {bad} is not positive"
            )
        return self.step_bounds


def sample_ensemble(n: int, m: int, rows: int, data_seed: int) -> CostEnsemble:
    """Ensemble of n costs with i.i.d. standard-normal data entries.

    The entries come from one seeded stream consumed node by node (X_k row
    major, then y_k), so the result is a deterministic function of the
    arguments. Each of X_k and y_k starts on a fresh Box-Muller pair: an odd
    count drops the second draw of its last pair. All of them are drawn in
    one batch."""
    if n < 1 or m < 1 or rows < 1:
        raise ValueError("n, m, and rows must all be positive")
    x_span, y_span = rows * m + rows * m % 2, rows + rows % 2
    draws = np.array(SplitMix64(data_seed).normals(n * (x_span + y_span))).reshape(n, -1)
    costs = tuple(
        QuadraticCost(x_matrix=d[: rows * m].reshape(rows, m), y_vector=d[x_span : x_span + rows])
        for d in draws
    )
    return CostEnsemble(costs=costs, dim=m)


def solve_assumption1(matrix: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """Solve an aggregate-Hessian system that Assumption 1 makes nonsingular,
    with LAPACK's LU solver; ``rhs`` is a vector or has one column per system.

    The M x M ``matrix`` counts as singular when a diagonal entry of its QR
    factor R is at most M * eps * max|matrix|; AssumptionError then names
    the matrix, the column and that magnitude."""
    a = as_matrix(matrix)
    threshold = a.shape[0] * np.finfo(float).eps * np.abs(a).max()
    pivots = np.abs(np.diagonal(np.linalg.qr(a, mode="r")))
    k = int(np.argmin(pivots))
    if pivots[k] <= threshold:
        raise AssumptionError(
            f"Assumption 1 violated: the {name} is singular (matrix is singular to"
            f" working precision at column {k} (pivot magnitude {pivots[k]:.3e}))"
        )
    return np.linalg.solve(a, rhs)


def global_optimum(ensemble: CostEnsemble) -> np.ndarray:
    """Minimizer of the equally weighted aggregate cost (global LS solution)."""
    return solve_assumption1(
        ensemble.hessians.sum(axis=0), ensemble.offsets.sum(axis=0), "aggregate normal matrix"
    )


def stacked_gradient(ensemble: CostEnsemble, w) -> np.ndarray:
    """All per-node gradients at w, stacked into one vector of length N*M."""
    return (ensemble.hessians @ as_vector(w) - ensemble.offsets).ravel()


def step_size_bounds(c: CombinationMatrix, ensemble: CostEnsemble) -> np.ndarray:
    """Per-node strict step-size upper bounds, as one vector."""
    return check_assumption1(c, ensemble).require()


def check_assumption1(c: CombinationMatrix, ensemble: CostEnsemble) -> Assumption1Report:
    """Weighted curvature lower bounds must be positive at every node.

    Both the lower bounds and the step bounds are c-combinations of the
    ensemble's stacked Hessian eigenvalues, so no eigenvalue is computed
    here."""
    weighted = c.matrix.T @ ensemble.lambda_min
    with np.errstate(divide="ignore"):  # a node with no curvature has no bound
        bounds = 2.0 / (c.matrix.T @ ensemble.lambda_max)
    return Assumption1Report(
        satisfied=bool((weighted > 0.0).all()), weighted_lambda_min=weighted, step_bounds=bounds
    )


def combine_hessians(c: CombinationMatrix, ensemble: CostEnsemble) -> np.ndarray:
    """Per-node combined Hessians: stack of sum_l c[l, k] * hessian_l, shape (N, M, M)."""
    return np.einsum("lk,lij->kij", c.matrix, ensemble.hessians)
