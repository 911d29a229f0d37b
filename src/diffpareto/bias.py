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
Hessian and gradient at the optimum, and one small solve.

Everything that does not depend on the step scale (the optimum, the
Perron vector, the limit, the Assumption 1 and 3 verdicts, the step-size
margins) is analysed once per scenario. Each step scale then goes through
``analyse_scale``: the recursion iterated from the optimum, the spectral
radius of B, B lifted once for the closed form, and the two biases
compared.

The spectral radius comes from a symmetric matrix with the spectrum of B
(see ``_symmetric_radius``) whenever the composite mixing matrix is
reversible and every gain block I - mu_k R_k is positive definite, which
holds for the built-in rules below half of each step bound. Otherwise it
is taken from ``numpy.linalg.eigvals`` on B itself.

The module also exposes
the supporting operators (mixing gap, scaled curvature, the rank-M
resolvent limit) so their defining identities can be verified
numerically, plus a spectral diagnostic certifying that the closed form
applies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .costs import (
    Assumption1Report,
    CostEnsemble,
    check_assumption1,
    combine_hessians,
    global_optimum,
    stacked_gradient,
)
from .diffusion import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DiffusionConfig,
    FixedPointResult,
    _StepOperator,
    run_to_fixed_point,
)
from .linalg import SingularMatrixError, solve_linear
from .network import (
    Assumption3Report,
    AssumptionError,
    CombinationMatrix,
    Topology,
    check_assumption3,
    perron_theta,
)

# a converged iterate's gap to the closed form may reach this multiple of
# the error its stopping rule allows
GAP_FACTOR = 10.0

# P diag(pi) counts as symmetric when no entry is farther from its transpose
# than this share of its largest entry. For a reversible P the residue is
# the rounding in pi alone, 1e-15 to 2e-13 on the built-in rules at N = 50
# and 200. That residue is a diagonal similarity of S: it moves no eigenvalue
# and reaches the symmetrised S only at second order. A P that is not
# reversible misses by a share of order one. One that passes with an
# asymmetry t moves rho by up to about N * t * max(pi) / min(pi).
REVERSIBLE_TOL = 1e-10


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
class Scenario:
    """Everything about a scenario that does not depend on the step scale.

    ``shape`` is the diffusion config at the normalized step shape (largest
    step one); ``node_weights`` are z, the shape applied to a2 @ theta, and
    ``agg_hessian`` is the Hessian sum weighted by their c-combination;
    ``margins`` are the per-node step bounds over the shape, so
    ``margins[tightest]`` is the largest usable mu_max. ``topology`` is set
    when the scenario was generated from one."""

    shape: DiffusionConfig
    ensemble: CostEnsemble
    w_star: np.ndarray
    theta: np.ndarray
    node_weights: np.ndarray
    agg_hessian: np.ndarray
    limit_bias: np.ndarray
    assumption1: Assumption1Report
    assumption3: Assumption3Report
    margins: np.ndarray
    tightest: int
    topology: Topology | None = None

    def at_scale(self, mu_max: float) -> DiffusionConfig:
        return self.shape.with_step_sizes(mu_max * self.shape.step_sizes)


@dataclass(frozen=True, eq=False)
class BiasReport:
    """Empirical, closed-form, and limit bias plus the certifying diagnostics;
    the empirical bias is checked against the closed form only if converged."""

    empirical_bias: np.ndarray
    closed_form_bias: np.ndarray
    limit_bias: np.ndarray
    spectral_radius: float
    assumption3: Assumption3Report
    iterations: int
    converged: bool


def normalized_step_shape(step_sizes) -> np.ndarray:
    """Step sizes divided by their maximum; entries in (0, 1] with max one."""
    steps = np.asarray(step_sizes, dtype=float)
    return steps / steps.max()


def _solve_aggregate(hbar: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return solve_linear(hbar, rhs)
    except SingularMatrixError as exc:
        raise AssumptionError(
            "Assumption 1 violated: the z-weighted aggregate Hessian is singular"
            f" ({exc})"
        ) from exc


def analyse_scenario(
    config: DiffusionConfig,
    ensemble: CostEnsemble,
    topology: Topology | None = None,
) -> Scenario:
    """The scale-free analysis of a config's matrices and step shape.

    The small-step limit solves the z-weighted aggregate Hessian against
    the z-weighted aggregate gradient at the optimum; it depends only on
    the shape of the step sizes. A violated Assumption 1 is recorded, not
    raised, unless the limit cannot be formed."""
    omega0 = normalized_step_shape(config.step_sizes)
    theta = perron_theta(config.a1, config.a2).theta
    w_star = global_optimum(ensemble)
    z = omega0 * (config.a2.matrix @ theta)
    weights = config.c.matrix @ z
    hbar = np.einsum("l,lij->ij", weights, ensemble.hessians)
    gradients = stacked_gradient(ensemble, w_star).reshape(ensemble.n, -1)
    report1 = check_assumption1(config.c, ensemble)
    margins = report1.step_bounds / omega0
    return Scenario(
        shape=config.with_step_sizes(omega0),
        ensemble=ensemble,
        w_star=w_star,
        theta=theta,
        node_weights=z,
        agg_hessian=hbar,
        limit_bias=_solve_aggregate(hbar, np.einsum("l,li->i", weights, gradients)),
        assumption1=report1,
        assumption3=check_assumption3(theta, config.a2, omega0, config.c),
        margins=margins,
        tightest=int(np.argmin(margins)),
        topology=topology,
    )


def _reversible_mixing(config: DiffusionConfig, theta: np.ndarray) -> np.ndarray | None:
    """S = D^-1/2 P D^1/2 for P = a2 a1 and D = diag(pi), pi = a2 theta the
    Perron vector of P, made exactly symmetric as (S + S^T) / 2. None when
    pi has a zero entry or P diag(pi) is not symmetric to REVERSIBLE_TOL,
    that is, when P is not reversible."""
    pi = config.a2.matrix @ theta
    if not (pi > 0.0).all():
        return None
    flow = (config.a2.matrix @ config.a1.matrix) * pi
    if np.abs(flow - flow.T).max() > REVERSIBLE_TOL * flow.max():
        return None
    root = np.sqrt(pi)
    s = flow / np.outer(root, root)
    return 0.5 * (s + s.T)


def _symmetric_radius(gain: np.ndarray, s: np.ndarray) -> float | None:
    """Spectral radius of B from one symmetric eigenvalue computation.

    B = (a2^T kron I) G (a1^T kron I), with G the block diagonal of the
    gains, has the spectrum of G (P^T kron I) (cyclic permutation), which
    is similar to G (S kron I) because D kron I commutes with G. With
    G = L L^T blockwise, that is similar to C = L^T (S kron I) L, whose
    block (k, l) is S[k, l] L_k^T L_l. None when a gain block is not
    positive definite."""
    try:
        chol = np.linalg.cholesky(gain)
    except np.linalg.LinAlgError:
        return None
    n, m, _ = gain.shape
    left = chol.transpose(0, 2, 1).reshape(n * m, m)
    right = chol.transpose(1, 0, 2).reshape(m, n * m)
    c = (left @ right).reshape(n, m, n, m)
    c *= s[:, None, :, None]
    eigs = np.linalg.eigvalsh(c.reshape(n * m, n * m))
    return float(max(-eigs[0], eigs[-1]))


def _spectral_radius(
    op: _StepOperator, config: DiffusionConfig, theta: np.ndarray | None
) -> tuple[float, np.ndarray | None]:
    """Spectral radius of B at the operator's step sizes, and B when it had
    to be lifted for it.

    The symmetric route (``_symmetric_radius``) lifts nothing, and its
    N*M x N*M matrix is dropped before the caller lifts B. It falls back to
    ``eigvals`` on B when P is not reversible, when a gain block is not
    positive definite (a step above half of its bound), or when theta is
    not given and the composite has no Perron vector."""
    if theta is None:
        try:
            theta = perron_theta(config.a1, config.a2).theta
        except AssumptionError:
            pass
    s = None if theta is None else _reversible_mixing(config, theta)
    rho = None if s is None else _symmetric_radius(op.gain, s)
    if rho is not None:
        return rho, None
    b = op.lifted()
    return float(np.abs(np.linalg.eigvals(b)).max()), b


def scale_analysis(
    config: DiffusionConfig,
    ensemble: CostEnsemble,
    w_star: np.ndarray,
    theta: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Closed-form stacked bias (length N*M) and spectral radius at one scale.

    Solves (I - B) x = rhs, where rhs applies the step sizes and
    gradient-exchange weights to the gradients at the optimum w_star. With
    the spectral radius of B below one, I - B is nonsingular; it is formed
    in B's own storage. A radius at or above one raises AssumptionError.

    theta is the Perron vector of a1 a2 (``Scenario.theta``), computed here
    when not given. The radius is read from a symmetric matrix similar to B
    when the mixing is reversible and every gain block is positive
    definite, and from ``eigvals`` on B otherwise (``_spectral_radius``)."""
    op = _StepOperator(config.a1, config.a2, config.c, config.step_sizes, ensemble)
    rho, b = _spectral_radius(op, config, theta)
    if rho >= 1.0:
        raise AssumptionError(
            f"error-propagation spectral radius {rho:.6g} is not below one;"
            " the recursion has no stable fixed point for the closed form to describe"
        )
    if b is None:
        b = op.lifted()
    np.negative(b, out=b)
    b.flat[:: b.shape[0] + 1] += 1.0
    g0 = stacked_gradient(ensemble, w_star).reshape(ensemble.n, -1)
    mu = config.step_sizes[:, None]
    rhs = (config.a2.matrix.T @ (mu * (config.c.matrix.T @ g0))).ravel()
    return np.linalg.solve(b, rhs), rho


def analyse_scale(
    scenario: Scenario, config: DiffusionConfig, tol: float, max_iter: int
) -> tuple[FixedPointResult, np.ndarray, float]:
    """Iterated fixed point, closed-form stacked bias and spectral radius at
    one scale of a scenario. The recursion starts at the optimum, which only
    trims iterations. A converged iterate farther from the closed form than
    GAP_FACTOR times the error its stopping rule allows, about
    tol * (1 + |w*|) * sqrt(N) / (1 - rho), raises RuntimeError; one that
    exhausted max_iter is returned unchecked."""
    w_star, ensemble = scenario.w_star, scenario.ensemble
    init = np.tile(w_star, (config.n, 1))
    result = run_to_fixed_point(config, ensemble, init=init, tol=tol, max_iter=max_iter)
    closed, rho = scale_analysis(config, ensemble, w_star, scenario.theta)
    gap = float(np.linalg.norm(closed - (w_star[None, :] - result.w_infinity).ravel()))
    bound = GAP_FACTOR * tol * (1.0 + np.linalg.norm(w_star)) * math.sqrt(config.n) / (1.0 - rho)
    if result.converged and gap > bound:
        raise RuntimeError(
            "iterated fixed point disagrees with the closed-form bias"
            f" (gap {gap:.3e}, bound {bound:.3e}) at mu_max {config.step_sizes.max():.6g}"
        )
    return result, closed, rho


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


def spectral_check(
    config: DiffusionConfig, ensemble: CostEnsemble, theta: np.ndarray | None = None
) -> float:
    """Spectral radius of the error propagation matrix.

    Below one whenever the curvature and step-size conditions hold; a
    value at or above one flags an unstable configuration with a
    RuntimeWarning. theta and the route taken are as in ``scale_analysis``;
    on the symmetric route B is never lifted."""
    op = _StepOperator(config.a1, config.a2, config.c, config.step_sizes, ensemble)
    rho, _ = _spectral_radius(op, config, theta)
    if rho >= 1.0:
        warnings.warn(
            f"error-propagation spectral radius {rho:.6g} is not below one;"
            " the fixed point may not exist",
            RuntimeWarning,
            stacklevel=2,
        )
    return rho


def closed_form_bias(config: DiffusionConfig, ensemble: CostEnsemble) -> np.ndarray:
    """Exact stacked bias at the configured step sizes (length N*M); raises
    AssumptionError when the error propagation matrix is not stable."""
    return scale_analysis(config, ensemble, global_optimum(ensemble))[0]


def limit_operators(config: DiffusionConfig, ensemble: CostEnsemble) -> LimitOperators:
    """Build the limit operators and their rank-M factorization explicitly.

    The aggregate Hessian is the z-weighted sum of the node Hessians, which
    equals (theta^T kron I) curvature (1 kron I) because a1 is
    left-stochastic, so the resolvent limit is kron(1 theta^T, D)."""
    n, m = ensemble.n, ensemble.dim
    scenario = analyse_scenario(config, ensemble)
    omega0 = scenario.shape.step_sizes
    op = _StepOperator(config.a1, config.a2, config.c, omega0, ensemble)
    mixing_gap = np.eye(n * m) - op.lifted(np.broadcast_to(np.eye(m), (n, m, m)))
    curvature = op.lifted(omega0[:, None, None] * combine_hessians(config.c, ensemble))
    d = np.column_stack([_solve_aggregate(scenario.agg_hessian, e) for e in np.eye(m)])
    return LimitOperators(
        mixing_gap=mixing_gap,
        curvature=curvature,
        agg_hessian_inv=d,
        node_weights=scenario.node_weights,
        resolvent_limit=np.kron(np.outer(np.ones(n), scenario.theta), d),
    )


def limit_bias(config: DiffusionConfig, ensemble: CostEnsemble) -> np.ndarray:
    """Small-step-size bias, identical at every node (length M). Depends
    only on the shape of the step sizes, so rescaling them all by one
    factor changes nothing."""
    return analyse_scenario(config, ensemble).limit_bias


def bias_report(
    config: DiffusionConfig,
    ensemble: CostEnsemble,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BiasReport:
    """Run the recursion at the config's own step sizes through
    ``analyse_scale`` and assemble every bias quantity and diagnostic."""
    scenario = analyse_scenario(config, ensemble)
    result, closed, rho = analyse_scale(scenario, config, tol, max_iter)
    return BiasReport(
        empirical_bias=scenario.w_star[None, :] - result.w_infinity,
        closed_form_bias=closed,
        limit_bias=scenario.limit_bias,
        spectral_radius=rho,
        assumption3=scenario.assumption3,
        iterations=result.iterations_used,
        converged=result.converged,
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
        f'  "iterations": {report.iterations},\n'
        f'  "converged": {"true" if report.converged else "false"},\n'
        '  "assumption3": {'
        f'"satisfied": {"true" if a3.satisfied else "false"}, '
        f'"c0": {_fmt(a3.c0_estimate)}, '
        f'"max_deviation": {_fmt(a3.max_deviation)}'
        "}\n"
        "}\n"
    )
