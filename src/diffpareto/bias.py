"""Asymptotic-bias analytics for the diffusion recursion.

Two complementary routes to the per-node bias (global optimum minus the
node's fixed point):

* the exact closed form at finite step sizes, obtained by solving one
  dense linear system whose operator is the identity minus the error
  propagation matrix of the recursion;
* the small-step-size limit, which depends only on the shape of the step
  sizes (not their scale) and is the same vector at every node.

The error propagation matrix is the linear part of the diffusion step,
lifted to N*M x N*M by ``diffusion``. The limit is built from the Perron
vector of the composite combination matrix: node weights z (normalized
step sizes applied to the combined Perron vector), the weighted aggregate
Hessian and gradient at the optimum, and one small solve. The module
also exposes the supporting operators (mixing gap, scaled curvature, the
rank-M resolvent limit) so their defining identities can be verified
numerically, plus a spectral diagnostic certifying that the closed form
applies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .costs import CostEnsemble, combine_hessians, global_optimum, stacked_gradient
from .diffusion import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DiffusionConfig,
    _StepOperator,
    run_to_fixed_point,
    validate_step_condition,
)
from .linalg import SingularMatrixError, solve_linear, spectral_radius
from .network import (
    Assumption3Report,
    AssumptionError,
    CombinationMatrix,
    check_assumption3,
    perron_theta,
)


@dataclass(frozen=True, eq=False)
class LimitOperators:
    """Operators behind the small-step-size limit.

    mixing_gap        identity minus the transposed composite mixing map
    curvature         mixing-conjugated, step-shape-scaled block Hessians
    agg_hessian_inv   inverse of the z-weighted aggregate Hessian (M x M)
    node_weights      z: normalized step sizes applied to a2 @ theta
    resolvent_limit   limit of mu * inverse(mixing_gap + mu * curvature),
                      rank M, factoring through agg_hessian_inv
    """

    mixing_gap: np.ndarray
    curvature: np.ndarray
    agg_hessian_inv: np.ndarray
    node_weights: np.ndarray
    resolvent_limit: np.ndarray

    def __post_init__(self):
        if (self.node_weights < 0.0).any():
            raise ValueError("node weights must be nonnegative")


@dataclass(frozen=True, eq=False)
class BiasReport:
    """Empirical, closed-form, and limit bias plus the certifying diagnostics."""

    empirical_bias: np.ndarray
    closed_form_bias: np.ndarray
    limit_bias: np.ndarray
    spectral_radius: float
    assumption3: Assumption3Report


def normalized_step_shape(step_sizes) -> np.ndarray:
    """Step sizes divided by their maximum; entries in (0, 1] with max one."""
    steps = np.asarray(step_sizes, dtype=float)
    return steps / steps.max()


def error_propagation_matrix(
    a1: CombinationMatrix,
    a2: CombinationMatrix,
    c: CombinationMatrix,
    step_sizes,
    ensemble: CostEnsemble,
) -> np.ndarray:
    """One-iteration error map of the recursion, lifted to size N*M: the
    linear part of the diffusion step, the per-node gains I - mu_k * R_k
    mixed through a1 and a2."""
    return _StepOperator(a1, a2, c, step_sizes, ensemble).lifted()


def spectral_check(config: DiffusionConfig, ensemble: CostEnsemble) -> float:
    """Spectral radius of the error propagation matrix.

    Below one whenever the curvature and step-size conditions hold; a
    value at or above one flags an unstable configuration with a
    RuntimeWarning."""
    rho = spectral_radius(
        error_propagation_matrix(config.a1, config.a2, config.c, config.step_sizes, ensemble)
    )
    if rho >= 1.0:
        warnings.warn(
            f"error-propagation spectral radius {rho:.6g} is not below one;"
            " the fixed point may not exist",
            RuntimeWarning,
            stacklevel=2,
        )
    return rho


def closed_form_bias(config: DiffusionConfig, ensemble: CostEnsemble) -> np.ndarray:
    """Exact stacked bias at the configured step sizes (length N*M).

    Solves (I - B) x = rhs where B is the error propagation matrix and
    rhs applies the step sizes and gradient-exchange weights to the
    stacked gradient at the optimum. The right-hand side is formed on the
    N x M gradient array, without Kronecker lifts."""
    n, m = ensemble.n, ensemble.dim
    g0 = stacked_gradient(ensemble, global_optimum(ensemble)).reshape(n, m)
    b = error_propagation_matrix(config.a1, config.a2, config.c, config.step_sizes, ensemble)
    mu = config.step_sizes[:, None]
    rhs = (config.a2.matrix.T @ (mu * (config.c.matrix.T @ g0))).ravel()
    try:
        return solve_linear(np.eye(n * m) - b, rhs)
    except SingularMatrixError as exc:
        rho = spectral_radius(b)
        raise AssumptionError(
            "closed-form bias system is singular; the error-propagation spectral"
            f" radius is {rho:.6g} (must be below one). {exc}"
        ) from exc


def _weighted_aggregate(config: DiffusionConfig, ensemble: CostEnsemble):
    """Perron vector, z weights, their c-combination, and the z-weighted
    aggregate Hessian."""
    theta = perron_theta(config.a1, config.a2).theta
    omega0 = normalized_step_shape(config.step_sizes)
    z = omega0 * (config.a2.matrix @ theta)
    weights = config.c.matrix @ z
    hbar = np.einsum("l,lij->ij", weights, ensemble.hessians)
    return theta, z, weights, hbar


def _solve_aggregate(hbar: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return solve_linear(hbar, rhs)
    except SingularMatrixError as exc:
        raise AssumptionError(
            "Assumption 1 violated: the z-weighted aggregate Hessian is singular"
            f" ({exc})"
        ) from exc


def limit_operators(config: DiffusionConfig, ensemble: CostEnsemble) -> LimitOperators:
    """Build the limit operators and their rank-M factorization explicitly.

    The aggregate Hessian is the z-weighted sum of the node Hessians, which
    equals (theta^T kron I) curvature (1 kron I) because a1 is
    left-stochastic, so the resolvent limit is kron(1 theta^T, D)."""
    n, m = ensemble.n, ensemble.dim
    theta, z, _, hbar = _weighted_aggregate(config, ensemble)
    omega0 = normalized_step_shape(config.step_sizes)
    op = _StepOperator(config.a1, config.a2, config.c, omega0, ensemble)
    mixing_gap = np.eye(n * m) - op.lifted(np.broadcast_to(np.eye(m), (n, m, m)))
    curvature = op.lifted(omega0[:, None, None] * combine_hessians(config.c, ensemble))
    d = np.column_stack([_solve_aggregate(hbar, e) for e in np.eye(m)])
    return LimitOperators(
        mixing_gap=mixing_gap,
        curvature=curvature,
        agg_hessian_inv=d,
        node_weights=z,
        resolvent_limit=np.kron(np.outer(np.ones(n), theta), d),
    )


def limit_bias(config: DiffusionConfig, ensemble: CostEnsemble) -> np.ndarray:
    """Small-step-size bias, identical at every node (length M).

    Solves the z-weighted aggregate Hessian against the z-weighted
    aggregate gradient at the optimum. Depends only on the shape of the
    step sizes, so rescaling them all by one factor changes nothing."""
    _, _, weights, hbar = _weighted_aggregate(config, ensemble)
    gradients = stacked_gradient(ensemble, global_optimum(ensemble)).reshape(ensemble.n, -1)
    return _solve_aggregate(hbar, np.einsum("l,li->i", weights, gradients))


def verify_limit_convergence(
    config: DiffusionConfig, ensemble: CostEnsemble, mu_schedule
) -> list[tuple[float, float]]:
    """Closed-form bias against the replicated limit along a step-size sweep.

    The step-size shape is frozen; only the largest step size walks down
    the strictly decreasing schedule. Returns (mu_max, deviation) pairs,
    where deviation is the stacked two-norm distance to the limit."""
    schedule = [float(mu) for mu in mu_schedule]
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(mu <= 0.0 for mu in schedule):
        raise ValueError("schedule entries must be positive")
    if any(later >= earlier for earlier, later in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    omega0 = normalized_step_shape(config.step_sizes)
    validate_step_condition(config.with_step_sizes(schedule[0] * omega0), ensemble)
    limit = limit_bias(config, ensemble)
    replicated = np.tile(limit, ensemble.n)
    table = []
    for mu in schedule:
        scaled = config.with_step_sizes(mu * omega0)
        deviation = float(np.linalg.norm(closed_form_bias(scaled, ensemble) - replicated))
        table.append((mu, deviation))
    return table


def bias_report(
    config: DiffusionConfig,
    ensemble: CostEnsemble,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    assumption3_tol: float = 1e-8,
    init=None,
) -> BiasReport:
    """Run the recursion and assemble every bias quantity and diagnostic."""
    w_star = global_optimum(ensemble)
    result = run_to_fixed_point(config, ensemble, init=init, tol=tol, max_iter=max_iter)
    empirical = w_star[None, :] - result.w_infinity
    closed = closed_form_bias(config, ensemble)
    limit = limit_bias(config, ensemble)
    rho = spectral_check(config, ensemble)
    theta = perron_theta(config.a1, config.a2).theta
    report3 = check_assumption3(
        theta,
        config.a2,
        normalized_step_shape(config.step_sizes),
        config.c,
        tol=assumption3_tol,
    )
    return BiasReport(
        empirical_bias=empirical,
        closed_form_bias=closed,
        limit_bias=limit,
        spectral_radius=rho,
        assumption3=report3,
    )


def _fmt(x: float) -> str:
    """A real at 17 significant digits, as in the JSON report and the sweep CSV."""
    return format(float(x), ".16e")


def report_to_json(report: BiasReport) -> str:
    """Fixed-schema JSON document with reals at 17 significant digits."""

    def vector(values) -> str:
        return "[" + ", ".join(_fmt(v) for v in np.asarray(values).ravel()) + "]"

    def matrix(values) -> str:
        return "[" + ", ".join(vector(row) for row in np.asarray(values)) + "]"

    a3 = report.assumption3
    return (
        "{\n"
        f'  "empirical_bias": {matrix(report.empirical_bias)},\n'
        f'  "closed_form_bias": {vector(report.closed_form_bias)},\n'
        f'  "limit_bias": {vector(report.limit_bias)},\n'
        f'  "spectral_radius": {_fmt(report.spectral_radius)},\n'
        '  "assumption3": {'
        f'"satisfied": {"true" if a3.satisfied else "false"}, '
        f'"c0": {_fmt(a3.c0_estimate)}, '
        f'"max_deviation": {_fmt(a3.max_deviation)}'
        "}\n"
        "}\n"
    )
