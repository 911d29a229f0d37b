"""Asymptotic-bias analytics for the diffusion recursion.

The per-node bias (global optimum minus the node's fixed point) comes two
ways: exactly at finite step sizes, from one solve with I - B, B the
error-propagation matrix (the gains lifted by ``diffusion.lift``); and in
the small-step limit, the same vector at every node, which depends only on
the shape of the step sizes, from the Perron vector of the composite
combination matrix and one M x M solve with the weighted aggregate Hessian.

A ``Scenario`` holds what does not depend on the step scale, analysed once.
``scale_analysis(scenario, mu_max)`` forms the gains I - mu_k R_k of
``scenario.at_scale(mu_max)``, the spectral radius of B and the closed form;
``analyse_scale`` adds the fixed point, and models a long row whole from its
closed form (``_SlowModes.model``). When the composite mixing is reversible
and every gain block is positive definite, ``_SlowModes`` answers: a
symmetric C with the spectrum of B, whose rho comes from a certified basis
of B's slow subspace, from block Lanczos at N*M of MATRIX_FREE_NM and up, or
from ``eigvalsh`` of C, and whose closed form comes from CG deflated by C's
slow Ritz vectors or one dense solve. Otherwise B is lifted once for
``eigvals`` and one dense solve. The functions of a bare config
(``closed_form_bias``, ``spectral_check``, ``limit_bias``,
``limit_operators``) take the same path at its largest step size, where
``at_scale`` gives back the config itself.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .costs import (
    Assumption1Report,
    CostEnsemble,
    check_assumption1,
    combine_hessians,
    global_optimum,
    solve_assumption1,
    stacked_gradient,
)
from .diffusion import (
    _LONG_RUN,
    DiffusionConfig,
    FixedPointResult,
    _StepOperator,
    check_stopping_rule,
    lift,
    run_to_fixed_point,
    validate_step_condition,
)
from .network import (
    NOT_PRIMITIVE,
    Assumption3Report,
    AssumptionError,
    Topology,
    check_assumption3,
    mixing_product,
    perron_theta,
)
from .tail import _NOISE, ModalTail, _invariant_basis

# a converged iterate's gap to the closed form may reach this multiple of
# the error its stopping rule allows
GAP_FACTOR = 10.0

# the Assumption 1 system the small-step limit solves
AGGREGATE_HESSIAN = "z-weighted aggregate Hessian"

# P diag(pi) counts as symmetric when no entry is farther from its transpose
# than this share of its largest entry. For a reversible P the residue is
# the rounding in pi alone, 1e-15 to 2e-13 on the built-in rules at N = 50
# and 200. That residue is a diagonal similarity of S: it moves no eigenvalue
# and reaches the symmetrised S only at second order. A P that is not
# reversible misses by a share of order one. One that passes with an
# asymmetry t moves rho by up to about N * t * max(pi) / min(pi).
REVERSIBLE_TOL = 1e-10

# N*M from which a reversible scenario takes rho and the closed form from the
# matrix-free route (``_SlowModes``) when every gain block is positive
# definite. Per scale, with M = 4 and one BLAS thread on a 2-core x86 box, the
# dense route took 5 ms at N = 50 against 11-14 ms, and 19-21 ms at N = 100
# against 15-16 ms
MATRIX_FREE_NM = 400
# a matrix-free run that reaches either cap falls back to the dense route
LANCZOS_STEPS = 120
CG_STEPS = 300
# share of 1 - b by which a modelled row's slow modes clear b (``analyse_scale``)
SLOW_MARGIN = 0.15


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

    ``config`` is the diffusion config the scenario was built from; its
    normalized step shape (largest step one) applied to a2 @ theta gives
    ``node_weights`` z, and ``agg_hessian`` is the Hessian sum weighted by
    their c-combination; ``margins`` are the per-node step bounds over the
    shape, so ``margins[tightest]`` is the largest usable mu_max.
    ``topology`` is set when the scenario was generated from one.
    ``combined_hessians`` R and ``combined_gradients`` (at w_star) are
    c-combined per node, and ``mixing`` is S, the symmetrised P = a2 a1,
    None when P is not reversible: every step scale is formed from these
    three. The fields from ``theta`` on are None when a1 a2 is not
    primitive (Assumption 2)."""

    config: DiffusionConfig
    ensemble: CostEnsemble
    w_star: np.ndarray
    assumption1: Assumption1Report
    margins: np.ndarray
    tightest: int
    combined_hessians: np.ndarray
    combined_gradients: np.ndarray
    topology: Topology | None = None
    theta: np.ndarray | None = None
    node_weights: np.ndarray | None = None
    agg_hessian: np.ndarray | None = None
    limit_bias: np.ndarray | None = None
    assumption3: Assumption3Report | None = None
    mixing: np.ndarray | None = None

    def at_scale(self, mu_max: float) -> DiffusionConfig:
        """The config with its steps scaled to a largest step of mu_max;
        the config itself at its own largest step."""
        steps = self.config.step_sizes
        return self.config.with_step_sizes(steps * (mu_max / steps.max()))

    @functools.cached_property
    def mixing_bound(self) -> float:
        """A lower bound on lambda_min(S) from Gershgorin's theorem on the
        columns of D^1/2 S D^-1/2, D = diag(pi): that matrix is P up to the
        rounding in S, so the bound is min_k (2 P_kk - 1) with the column sums
        of the S at hand in place of one. It takes one product of S with
        sqrt(pi) and allows 4 N eps for the rounding of that sum, of the
        division and of the difference."""
        root = np.sqrt(self.config.a2.matrix @ self.theta)
        column_sums = (self.mixing @ root) / root
        slack = 4 * len(root) * np.finfo(float).eps
        return float((2.0 * self.mixing.diagonal() - column_sums).min() - slack)

    @functools.cached_property
    def mixing_spectrum(self) -> np.ndarray:
        """The eigenvalues of S, ascending, from one ``eigvalsh``, taken for the
        first long row on C's route (``slow_interval``) or when
        ``mixing_bound`` first fails to certify a Lanczos radius."""
        return np.linalg.eigvalsh(self.mixing)

    @functools.cached_property
    def agg_spectrum(self) -> np.ndarray:
        """Hbar's eigenvalues, ascending, for the row test of ``analyse_scale``."""
        return np.linalg.eigvalsh(self.agg_hessian)

    def slow_interval(self) -> tuple[float, float]:
        """[a, b] = [min(lambda_min(S), 0), max(lambda_2(S), 0)]. Where every
        gain block is positive definite, it holds every eigenvalue of C, and so
        of B, but the M slow ones (see ``_SlowModes._tail_ritz``)."""
        spectrum = self.mixing_spectrum
        return min(float(spectrum[0]), 0.0), float(spectrum[:-1].max(initial=0.0))

    def limit_floor(self) -> float:
        """Rounding floor of ``|limit_bias|``: N eps |Hbar^-1|_2 sum_l |weights_l| s_l,
        weights = c z, s_l = |g_l(w*)| + lambda_max(H_l) |w*| (|H_l|_2, H_l being PSD),
        g_l node l's gradient at w_star; the second term is the rounding of w* that every
        g_l inherits. It is the sum's error carried through the solve."""
        weights = self.config.c.matrix @ self.node_weights
        ens = self.ensemble
        grads = np.linalg.norm(ens.hessians @ self.w_star - ens.offsets, axis=1)
        sizes = grads + ens.lambda_max * np.linalg.norm(self.w_star)
        total = np.abs(weights) @ sizes
        return ens.n * np.finfo(float).eps * total / np.linalg.norm(self.agg_hessian, -2)

    def require_primitive(self) -> Scenario:
        """The scenario, once its composite has a Perron vector (Assumption 2)."""
        if self.theta is None:
            raise AssumptionError(NOT_PRIMITIVE)
        return self


def normalized_step_shape(step_sizes) -> np.ndarray:
    """Step sizes divided by their maximum; entries in (0, 1] with max one."""
    steps = np.asarray(step_sizes, dtype=float)
    return steps / steps.max()


def analyse_scenario(
    config: DiffusionConfig,
    ensemble: CostEnsemble,
    topology: Topology | None = None,
) -> Scenario:
    """The scale-free analysis of a config's matrices and step shape.

    The small-step limit solves the z-weighted aggregate Hessian against
    the z-weighted aggregate gradient at the optimum; it depends only on
    the shape of the step sizes. A violated Assumption 1 is recorded, not
    raised, unless the limit cannot be formed; so is a violated Assumption 2."""
    omega0 = normalized_step_shape(config.step_sizes)
    w_star = global_optimum(ensemble)
    gradients = stacked_gradient(ensemble, w_star).reshape(ensemble.n, -1)
    report1 = check_assumption1(config.c, ensemble)
    margins = report1.step_bounds / omega0
    scale_free = dict(
        config=config,
        ensemble=ensemble,
        w_star=w_star,
        assumption1=report1,
        margins=margins,
        tightest=int(np.argmin(margins)),
        combined_hessians=combine_hessians(config.c, ensemble),
        combined_gradients=config.c.matrix.T @ gradients,
        topology=topology,
    )
    try:
        theta = perron_theta(config.a1, config.a2).theta
    except AssumptionError:
        return Scenario(**scale_free)
    z = omega0 * (config.a2.matrix @ theta)
    weights = config.c.matrix @ z
    hbar = np.einsum("l,lij->ij", weights, ensemble.hessians)
    return Scenario(
        **scale_free,
        theta=theta,
        node_weights=z,
        agg_hessian=hbar,
        limit_bias=solve_assumption1(
            hbar, np.einsum("l,li->i", weights, gradients), AGGREGATE_HESSIAN
        ),
        assumption3=check_assumption3(theta, config.a2, omega0, config.c),
        mixing=_reversible_mixing(config, theta),
    )


def _reversible_mixing(config: DiffusionConfig, theta: np.ndarray) -> np.ndarray | None:
    """S = D^-1/2 P D^1/2 for P = a2 a1 and D = diag(pi), pi = a2 theta the
    Perron vector of P, made exactly symmetric as (S + S^T) / 2. None when
    pi has a zero entry or P diag(pi) is not symmetric to REVERSIBLE_TOL,
    that is, when P is not reversible."""
    pi = config.a2.matrix @ theta
    if not (pi > 0.0).all():
        return None
    # two N x N arrays: the flow P diag(pi), divided into S in place, and one
    # scratch that holds the asymmetry, then the outer product of sqrt(pi),
    # then the symmetrised S
    flow = mixing_product(config.a2, config.a1)
    flow *= pi
    scratch = np.subtract(flow, flow.T)
    if np.abs(scratch, out=scratch).max() > REVERSIBLE_TOL * flow.max():
        return None
    root = np.sqrt(pi)
    np.divide(flow, np.multiply.outer(root, root, out=scratch), out=flow)
    np.add(flow, flow.T, out=scratch)
    scratch *= 0.5
    return scratch


class _SlowModes:
    """C = L^T (S kron I) L at one step scale, a symmetric matrix with the
    spectrum of B. B = (a2^T kron I) G (a1^T kron I), with G the block diagonal
    of the gains, has the spectrum of G (P^T kron I) (cyclic permutation), which
    is similar to G (S kron I) because D kron I commutes with G; with G = L L^T
    blockwise, that is similar to C, whose block (k, l) is S[k, l] L_k^T L_l.
    ``apply`` takes C blockwise (L, then S on the node axis, then L^T:
    O(N^2 M + N M^2) a product) and ``form`` builds it as one N*M x N*M array.
    ``root`` is sqrt(pi), the Perron vector of S."""

    def __init__(self, gain: np.ndarray, s: np.ndarray, root: np.ndarray):
        # raises LinAlgError when a gain block is not positive definite
        self.chol, self.s, self.root = np.linalg.cholesky(gain), s, root

    def apply(self, y: np.ndarray) -> np.ndarray:
        n, m, _ = self.chol.shape
        u = self.chol @ y.reshape(n, m, -1)
        v = (self.s @ u.reshape(n, -1)).reshape(u.shape)
        return (self.chol.transpose(0, 2, 1) @ v).reshape(y.shape)

    def form(self) -> np.ndarray:
        n, m, _ = self.chol.shape
        left = self.chol.transpose(0, 2, 1).reshape(n * m, m)
        right = self.chol.transpose(1, 0, 2).reshape(m, n * m)
        c = (left @ right).reshape(n, m, n, m)
        c *= self.s[:, None, :, None]
        return c.reshape(n * m, n * m)

    def radius(self, scenario: Scenario) -> tuple[float, np.ndarray | None]:
        """rho and C's M slow Ritz vectors from ``_lanczos`` at N*M of
        MATRIX_FREE_NM and above; failing that, rho alone, the largest
        |lambda| of one ``eigvalsh`` of C."""
        n, m, _ = self.chol.shape
        found = self._lanczos(scenario) if n * m >= MATRIX_FREE_NM else None
        if found is not None:
            return found
        eigs = np.linalg.eigvalsh(self.form())
        return float(max(-eigs[0], eigs[-1])), None

    def _lanczos(self, scenario: Scenario) -> tuple[float, np.ndarray] | None:
        """lambda_max(C) and C's M top Ritz vectors by block Lanczos from
        sqrt(pi) kron I_M, with full reorthogonalisation, stopped once the top
        Ritz value's residual bound min(res, res^2 / gap) is 1e-11 (1 - theta).
        It is rho because every R_k is positive semidefinite, so the gains
        have eigenvalues in (0, 1] and lambda_min(C) >= min(lambda_min(S), 0)
        lies above -theta: by the scenario's Gershgorin ``mixing_bound``, or
        failing that by the exact lambda_min(S) of its ``slow_interval``. None
        when either test fails within LANCZOS_STEPS.

        Each check takes theta from ``eigvalsh`` of the block tridiagonal T and
        the top M Ritz vectors from ``_top_ritz_block`` (unconverged when its
        solve fails); only the steps taken touch memory."""
        n, m, _ = self.chol.shape
        steps = min(LANCZOS_STEPS, n)
        basis = np.empty((n * m, steps * m), order="F")
        alphas, betas = np.empty((steps, m, m)), np.empty((steps, m, m))
        q = np.kron(self.root[:, None] / np.linalg.norm(self.root), np.eye(m))
        for j in range(steps):
            lo, hi = j * m, (j + 1) * m
            basis[:, lo:hi] = q
            w = self.apply(q)
            alphas[j] = q.T @ w
            local = alphas[j] if j == 0 else np.vstack((betas[j - 1].T, alphas[j]))
            w -= basis[:, max(lo - m, 0) : hi] @ local
            w -= basis[:, :hi] @ (basis[:, :hi].T @ w)
            q, betas[j] = np.linalg.qr(w)
            # a Ritz check every eighth step, on the last, and on a breakdown
            if (j + 1) % 8 and j + 1 < steps and np.abs(np.diagonal(betas[j])).min() > 1e-8:
                continue
            t = _block_tridiagonal(alphas[: j + 1], betas[:j])
            theta = np.linalg.eigvalsh(t)
            try:
                block = _top_ritz_block(t, theta, m)
            except np.linalg.LinAlgError:
                continue
            res = float(np.linalg.norm(betas[j] @ block[-m:, -1]))
            gap = theta[-1] - theta[-2 if hi > 1 else -1]
            if (res * min(1.0, res / gap) if gap > 0.0 else res) <= 1e-11 * (1.0 - theta[-1]):
                # the exact lambda_min(S) only when the bound cannot certify
                floor = -min(scenario.mixing_bound, 0.0)
                if theta[-1] <= floor and theta[-1] <= -scenario.slow_interval()[0]:
                    return None
                return float(theta[-1]), basis[:, :hi] @ block
        return None

    def _tail_ritz(
        self, scenario: Scenario, a1: np.ndarray, basis: np.ndarray
    ) -> tuple[float, np.ndarray] | None:
        """lambda_max(C) as the top Rayleigh-Ritz value of C on Y, a basis of
        B's slow subspace taken into C's coordinates (``_to_c``) and
        orthonormalised, and the Ritz vectors Y V, V the eigenvectors of H.

        The value is certified. Every gain is at most I, so by Ostrowski's
        theorem at most M eigenvalues of C lie above beta = max(lambda_2(S), 0).
        With H = Y^T C Y and r = |CY - YH|_F, every Ritz value must clear beta by more than r;
        by Kahan's bound, M eigenvalues of C then lie within r of them, so
        they are the top M. The quadratic residual bound
        r^2 / (theta_min - beta) must then be at most 1e-11 (1 - theta_max),
        as in ``_lanczos``, and theta_max must exceed -min(lambda_min(S), 0),
        so that it is rho. Both eigenvalues of S come from the scenario's
        ``slow_interval``. None when a test fails."""
        y = np.linalg.qr(self._to_c(a1, basis))[0]
        cy = self.apply(y)
        h = y.T @ cy
        h = 0.5 * (h + h.T)
        theta, v = np.linalg.eigh(h)
        res = float(np.linalg.norm(cy - y @ h))
        low, beta = scenario.slow_interval()
        gap = theta[0] - beta
        if not gap > res or res * res / gap > 1e-11 * (1.0 - theta[-1]) or theta[-1] <= -low:
            return None
        return float(theta[-1]), y @ v

    def closed_form(
        self, a1: np.ndarray, a2: np.ndarray, rhs: np.ndarray, slow: np.ndarray | None
    ) -> np.ndarray:
        """Stacked x of (I - B) x = rhs, rhs of shape (N, M): writing
        (D^1/2 kron I) G (a1^T kron I) x = L y turns the system into
        (I - C) y = T rhs (``_to_c``), and x = (a2^T D^-1/2 kron I) L y + rhs.
        I - C is positive definite as rho < 1. From N*M of MATRIX_FREE_NM up,
        ``_deflated_cg`` solves it on C's slow Ritz vectors ``slow``; without
        them, below the crossover, or when CG fails, one dense solve in the
        storage of C formed now does."""
        n, m, _ = self.chol.shape
        b = self._to_c(a1, rhs)
        y = self._deflated_cg(b, slow) if slow is not None and n * m >= MATRIX_FREE_NM else None
        if y is None:
            c = self.form()
            np.negative(c, out=c)
            c.flat[:: n * m + 1] += 1.0
            y = np.linalg.solve(c, b)
        ly = (self.chol @ y.reshape(n, m, 1))[..., 0]
        return (a2.T @ (ly / self.root[:, None]) + rhs).ravel()

    def _to_c(self, a1: np.ndarray, x: np.ndarray) -> np.ndarray:
        """T x, T = L^T (D^1/2 a1^T kron I), for node-major x of N*M rows (or
        N x M), as N*M x K. T B = C T when P is reversible."""
        n, m, _ = self.chol.shape
        u = (self.root[:, None] * (a1.T @ x.reshape(n, -1))).reshape(n, m, -1)
        return (self.chol.transpose(0, 2, 1) @ u).reshape(n * m, -1)

    def model(self, scenario: Scenario, config: DiffusionConfig, mu_max, solve, tol, max_iter):
        """The fixed point from 1 kron w*, the closed form x and rho at this
        scale with no plain step; None in place of the fixed point when the scan
        refuses, and None alone when the basis does. B's slow basis,
        filtered on [a, b] = ``slow_interval``, gives rho (``_tail_ritz``), the
        slow Ritz vectors for ``solve`` and so x, and B's slow eigenvectors
        Y = QV. T maps these onto C's, so h = (TY)^+ Tx are x's slow
        coordinates and f = Tx - TYh lies in C's other eigenspaces. As B = U T,
        U = (a2^T D^-1/2 kron I) L with |L| <= 1, the iterates w_inf + B^p x
        are within |x - Yh| of the ``ModalTail`` at p = 0 and
        |U| max(-a, b)**(p - 1) |f| after; as T u splits orthogonally, an update
        u weighted by sqrt(pi) per node is at least sigma_min(TY) / |T D^-1/2|
        times its slow part. sqrt(|.|_1 |.|_inf) bounds |U| and |T D^-1/2| through
        their N x N factors. One step of the recursion, which no solve uses, must
        keep w_inf to tail._NOISE (1 + |w_k|) at each node; RuntimeError otherwise."""
        check_stopping_rule(tol, max_iter)
        validate_step_condition(config, scenario.ensemble)
        op = _StepOperator(config.a1, config.a2, config.c, config.step_sizes, scenario.ensemble)
        a1, a2, (n, m, _) = config.a1.matrix, config.a2.matrix, self.chol.shape
        found = _invariant_basis(op, scenario.slow_interval())
        ritz = None if found is None else self._tail_ritz(scenario, a1, found[0])
        if ritz is None:
            return None
        x, rho = _solved(scenario, mu_max, ritz[0], functools.partial(solve, ritz[1]))
        w_inf = np.tile(scenario.w_star, (n, 1)) - x.reshape(n, m)
        moved = np.linalg.norm(op.apply(w_inf) - w_inf, axis=1)
        if (moved > _NOISE * (1.0 + np.linalg.norm(w_inf, axis=1))).any():
            msg = f"one step moves the closed-form fixed point by {moved.max():.3e}"
            raise RuntimeError(f"{msg} at mu_max {mu_max:.6g}, past rounding")
        q, lam, v, _ = found
        y = q @ v
        ty, tx = self._to_c(a1, y), self._to_c(a1, x)[:, 0]
        left, sv, right = np.linalg.svd(ty, full_matrices=False)
        h = right.T @ ((left.T @ tx) / sv)
        inv = 1.0 / self.root  # the N x N factors are nonnegative: their norms are sums
        u2 = math.sqrt((a2.sum(axis=1) * inv).max() * (a2.T @ inv).max())
        t2 = math.sqrt((a1 @ self.root * inv).max() * (self.root * (a1.T @ inv)).max())
        low, high = scenario.slow_interval()
        fast = u2 * float(np.linalg.norm(tx - ty @ h))
        error = (float(np.linalg.norm(x - y @ h)), fast, max(-low, high))
        tail = ModalTail(lam, y, h, w_inf.ravel(), float(sv[-1]) / t2, error, self.root)
        run = tail.run(0, max_iter, tol)
        return (None if run is None else FixedPointResult(*run, stepped=0)), x, rho

    def _deflated_cg(self, b: np.ndarray, w: np.ndarray) -> np.ndarray | None:
        """y of (I - C) y = b by CG deflated by the slow Ritz vectors W (Saad,
        Yeung, Erhel and Guyomarc'h, 2000), stopping at a residual of 1e-13 |b|
        or after CG_STEPS iterations. None when the residual recomputed from y
        then misses 1e-12 |b|."""
        aw = w - self.apply(w)
        coarse = w.T @ aw
        correct = np.linalg.solve(coarse, aw.T)
        start = np.linalg.solve(coarse, w.T @ b)
        y, r = w @ start, b - aw @ start
        p = r - w @ (correct @ r)
        rr, stop = float(np.vdot(r, r)), 1e-26 * float(np.vdot(b, b))
        for _ in range(CG_STEPS):
            if rr <= stop:
                break
            ap = p - self.apply(p)
            alpha = rr / float(np.vdot(p, ap))
            y += alpha * p
            r -= alpha * ap
            rr, last = float(np.vdot(r, r)), rr
            p = (rr / last) * p + r - w @ (correct @ r)
        if not np.linalg.norm(b - y + self.apply(y)) <= 1e-12 * np.linalg.norm(b):
            return None
        return y


def _block_tridiagonal(diagonal: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The symmetric block tridiagonal matrix with k blocks ``diagonal`` on its
    diagonal and the k - 1 blocks ``lower`` below it."""
    k, m, _ = diagonal.shape
    t = np.zeros((k, m, k, m))
    t[np.arange(k), :, np.arange(k), :] = diagonal
    t[np.arange(1, k), :, np.arange(k - 1), :] = lower
    t[np.arange(k - 1), :, np.arange(1, k), :] = lower.transpose(0, 2, 1)
    return t.reshape(k * m, k * m)


def _top_ritz_block(t: np.ndarray, theta: np.ndarray, m: int) -> np.ndarray:
    """m orthonormal Ritz vectors of the symmetric t for its m largest
    eigenvalues, ascending, given all of them in ``theta`` (ascending): two
    block inverse-iteration solves from the first m unit vectors, with t
    shifted 1e-10 |t|_2 above theta[-1] and a QR after each, then an m x m
    Rayleigh-Ritz ``eigh``. The last vector is t's top eigenvector to working
    precision; the others gain the ratio of their distance from the shift to
    theta[-m-1]'s per solve, small for Lanczos's separated slow modes. t is
    shifted in place and restored; a singular shifted t raises LinAlgError."""
    diagonal = t.diagonal().copy()
    t.flat[:: len(t) + 1] -= theta[-1] + 1e-10 * max(theta[-1], -theta[0])
    try:
        x = np.eye(len(t), m)
        for _ in range(2):
            x = np.linalg.qr(np.linalg.solve(t, x))[0]
    finally:
        np.fill_diagonal(t, diagonal)
    return x @ np.linalg.eigh(x.T @ t @ x)[1]


def _scale_operator(scenario: Scenario, mu_max: float) -> tuple[Callable | None, Callable]:
    """The operator of B at ``scenario.at_scale(mu_max)``: ``model`` and
    ``finish``. ``finish()`` gives the spectral radius of B and a function
    that solves for the stacked closed-form bias there, (I - B) x = rhs with
    rhs the step sizes and a2 applied to the combined gradients.

    When the scenario has S and every gain block is positive definite, both
    come from the ``_SlowModes`` of C, and ``model(tol, max_iter)`` gives the
    fixed point, closed form and rho with no plain step (``_SlowModes.model``).
    Otherwise ``model`` is None, and ``finish`` lifts B: ``eigvals`` gives rho
    and the solve runs in B's storage (no S, or a step above half its bound)."""
    config = scenario.at_scale(mu_max)
    a1, a2 = config.a1.matrix, config.a2.matrix
    r = scenario.combined_hessians
    n, m, _ = r.shape
    gain = np.eye(m)[None, :, :] - config.step_sizes[:, None, None] * r
    rhs = a2.T @ (config.step_sizes[:, None] * scenario.combined_gradients)
    if scenario.mixing is not None:
        try:
            modes = _SlowModes(gain, scenario.mixing, np.sqrt(a2 @ scenario.theta))
        except np.linalg.LinAlgError:
            pass
        else:
            solve = functools.partial(modes.closed_form, a1, a2, rhs)

            def finish_modes():
                rho, slow = modes.radius(scenario)
                return rho, functools.partial(solve, slow)

            return functools.partial(modes.model, scenario, config, mu_max, solve), finish_modes

    def finish():
        b = lift(config.a1, config.a2, gain)

        def solve() -> np.ndarray:
            np.negative(b, out=b)
            b.flat[:: n * m + 1] += 1.0
            return np.linalg.solve(b, rhs.ravel())

        return float(np.abs(np.linalg.eigvals(b)).max()), solve

    return None, finish


def _solved(scenario: Scenario, mu_max: float, rho: float, closed_form) -> tuple[np.ndarray, float]:
    """The closed form and rho, once rho is below one; AssumptionError otherwise.
    Below every step bound, under Assumptions 1 and 2, rho is below one, and
    there a rho of one means a step scale too small for 1 - rho to resolve."""
    if rho >= 1.0:
        valid = scenario.theta is not None and scenario.assumption1.satisfied
        if valid and mu_max < scenario.margins[scenario.tightest]:
            raise AssumptionError(
                f"step scale {mu_max:.6g} is too small to resolve: every step is below its"
                f" bound, so rho < 1, but 1 - rho rounds to {1.0 - rho:.3g}"
            )
        raise AssumptionError(
            f"error-propagation spectral radius {rho:.6g} is not below one;"
            " the recursion has no stable fixed point for the closed form to describe"
        )
    return closed_form(), rho


def scale_analysis(scenario: Scenario, mu_max: float) -> tuple[np.ndarray, float]:
    """Closed-form stacked bias (length N*M) and spectral radius of a
    scenario at ``scenario.at_scale(mu_max)``, from ``_scale_operator``. Reads
    only the scenario's operands; a radius at or above one raises AssumptionError."""
    return _solved(scenario, mu_max, *_scale_operator(scenario, mu_max)[1]())


def analyse_scale(
    scenario: Scenario, mu_max: float, tol: float, max_iter: int
) -> tuple[FixedPointResult, np.ndarray, float]:
    """Fixed point, closed-form stacked bias and spectral radius of a scenario
    at ``scenario.at_scale(mu_max)``, run from the optimum. A row is modelled
    whole (``_SlowModes.model``, ``stepped`` 0) when its slowest first-order
    mode 1 - mu_max lambda_min(Hbar), Hbar the ``agg_hessian``, takes over
    _LONG_RUN iterations to fall by tol (tested first: a short row takes no
    spectrum of S) and its modes 1 - mu_max lambda_i(Hbar) all clear
    b = ``slow_interval()[1]`` by SLOW_MARGIN (1 - b). Any other row runs
    ``run_to_fixed_point``, with the model's x and rho when only its scan
    refused; a converged iterate farther from the closed form
    than GAP_FACTOR times the error its stopping rule allows, about
    tol * (1 + |w*|) * sqrt(N) / (1 - rho), raises RuntimeError; one that
    exhausted max_iter is returned unchecked."""
    config, w_star = scenario.at_scale(mu_max), scenario.w_star
    model, finish = _scale_operator(scenario, mu_max)
    slow = None if model is None else 1.0 - mu_max * scenario.agg_spectrum
    modelled = None
    if slow is not None and slow[-1] > 0.0 and slow[0] ** _LONG_RUN > tol:
        b = scenario.slow_interval()[1]
        modelled = model(tol, max_iter) if slow[-1] >= b + SLOW_MARGIN * (1.0 - b) else None
        if modelled is not None and modelled[0] is not None:
            return modelled
    init = np.tile(w_star, (config.n, 1))
    result = run_to_fixed_point(config, scenario.ensemble, init=init, tol=tol, max_iter=max_iter)
    closed, rho = modelled[1:] if modelled else _solved(scenario, mu_max, *finish())
    gap = float(np.linalg.norm(closed - (w_star[None, :] - result.w_infinity).ravel()))
    bound = GAP_FACTOR * tol * (1.0 + np.linalg.norm(w_star)) * math.sqrt(config.n) / (1.0 - rho)
    if result.converged and gap > bound:
        raise RuntimeError(
            "iterated fixed point disagrees with the closed-form bias"
            f" (gap {gap:.3e}, bound {bound:.3e}) at mu_max {mu_max:.6g}"
        )
    return result, closed, rho


def spectral_check(config: DiffusionConfig, ensemble: CostEnsemble) -> float:
    """Spectral radius of the error propagation matrix.

    Below one whenever the curvature and step-size conditions hold; a
    value at or above one flags an unstable configuration with a
    RuntimeWarning. The route taken is as in ``scale_analysis``, at the
    config's largest step size; where C exists B is never lifted."""
    rho = _scale_operator(analyse_scenario(config, ensemble), config.step_sizes.max())[1]()[0]
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
    return scale_analysis(analyse_scenario(config, ensemble), config.step_sizes.max())[0]


def limit_operators(config: DiffusionConfig, ensemble: CostEnsemble) -> LimitOperators:
    """Build the limit operators and their rank-M factorization explicitly.

    The aggregate Hessian is the z-weighted sum of the node Hessians, which
    equals (theta^T kron I) curvature (1 kron I) because a1 is
    left-stochastic, so the resolvent limit is kron(1 theta^T, D)."""
    n, m = ensemble.n, ensemble.dim
    scenario = analyse_scenario(config, ensemble).require_primitive()
    omega0 = normalized_step_shape(config.step_sizes)
    mixing_gap = np.eye(n * m) - lift(config.a1, config.a2, np.broadcast_to(np.eye(m), (n, m, m)))
    curvature = lift(config.a1, config.a2, omega0[:, None, None] * scenario.combined_hessians)
    d = solve_assumption1(scenario.agg_hessian, np.eye(m), AGGREGATE_HESSIAN)
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
    return analyse_scenario(config, ensemble).require_primitive().limit_bias
