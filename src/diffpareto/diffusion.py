"""The diffusion recursion, run to its fixed point.

One iteration updates every node synchronously in three stages: combine
neighbor estimates (weights a1), take a gradient step on the combined
neighborhood gradient (weights c, per-node step size), then combine the
intermediate estimates again (weights a2). Because the combination
matrices are left-stochastic, both combination stages act through their
transposes on the node-major state array.

Presets cover the two classic orderings: adapt-then-combine (a1 = I,
a2 = A) and combine-then-adapt (a1 = A, a2 = I). The linear part of the
one-iteration map, lifted to N*M x N*M, is the error-propagation matrix.

run_to_fixed_point starts from an optional initial state, coerced by
``network.as_matrix`` to a finite N x M array, steps the recursion in
blocks and runs the stopping test on a whole block at once; a long run
skips its tail through the M slow modes of that matrix (see the tail
module).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .costs import CostEnsemble, combine_hessians, step_size_bounds
from .network import AssumptionError, CombinationMatrix, as_matrix, identity_combination
from .tail import ENGAGE_AT, PROBE_AT, SlowSubspace, passes, runs_long

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000
# iterations stepped before their stopping tests are run together
_BLOCK = 32


class DivergenceError(RuntimeError):
    """The iteration produced a non-finite estimate."""

    def __init__(self, message: str, node: int, iteration: int):
        super().__init__(message)
        self.node = node
        self.iteration = iteration


@dataclass(frozen=True, eq=False)
class DiffusionConfig:
    """Combination matrices and per-node step sizes.

    a1 and a2 must combine columns (left- or doubly-stochastic); c must
    combine rows (right- or doubly-stochastic). Step sizes are validated
    for positivity here; the curvature-dependent upper bound is checked
    against a cost ensemble by validate_step_condition."""

    a1: CombinationMatrix
    a2: CombinationMatrix
    c: CombinationMatrix
    step_sizes: np.ndarray

    def __post_init__(self):
        if not self.a1.combines_columns() or not self.a2.combines_columns():
            raise ValueError("a1 and a2 must be left- or doubly-stochastic")
        if self.c.kind not in ("right_stochastic", "doubly_stochastic"):
            raise ValueError("c must be right- or doubly-stochastic")
        n = self.a1.n
        if self.a2.n != n or self.c.n != n:
            raise ValueError("combination matrices must share one size")
        steps = np.array(self.step_sizes, dtype=float)
        if steps.shape != (n,):
            raise ValueError(f"need {n} step sizes, got shape {steps.shape}")
        if not np.isfinite(steps).all() or (steps <= 0.0).any():
            raise ValueError("step sizes must be finite and strictly positive")
        object.__setattr__(self, "step_sizes", steps)
        steps.setflags(write=False)

    @property
    def n(self) -> int:
        return self.a1.n

    def with_step_sizes(self, step_sizes) -> "DiffusionConfig":
        return DiffusionConfig(a1=self.a1, a2=self.a2, c=self.c, step_sizes=step_sizes)


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """Outcome of iterating to a fixed point.

    ``slow_basis`` is the orthonormal N*M x M basis of B's slow invariant
    subspace on which the tail modelled the run (see the tail module), node
    major, or None when no tail ran. ``bias.analyse_scale`` takes the
    spectral radius from it."""

    w_infinity: np.ndarray
    iterations_used: int
    converged: bool
    final_update_norm: float
    stepped: int
    slow_basis: np.ndarray | None = None


def atc_config(a: CombinationMatrix, c: CombinationMatrix, step_sizes) -> DiffusionConfig:
    """Adapt-then-combine: a1 = I, a2 = a."""
    return DiffusionConfig(a1=identity_combination(a.n), a2=a, c=c, step_sizes=step_sizes)


def cta_config(a: CombinationMatrix, c: CombinationMatrix, step_sizes) -> DiffusionConfig:
    """Combine-then-adapt: a1 = a, a2 = I."""
    return DiffusionConfig(a1=a, a2=identity_combination(a.n), c=c, step_sizes=step_sizes)


def validate_step_condition(config: DiffusionConfig, ensemble: CostEnsemble) -> None:
    """Check Assumption 1 and the strict per-node step-size upper bound.

    A violation names the offending node with the largest step-to-bound
    ratio, which for a scaled scenario config is ``Scenario.tightest``."""
    if config.n != ensemble.n:
        raise ValueError(f"config is for {config.n} nodes, ensemble has {ensemble.n}")
    bounds = step_size_bounds(config.c, ensemble)  # raises if Assumption 1 fails
    over = config.step_sizes >= bounds
    if over.any():
        node = int(np.argmax(np.where(over, config.step_sizes / bounds, 0.0)))
        raise AssumptionError(
            f"step size {config.step_sizes[node]:.6g} at node {node} is not below"
            f" its stability bound {bounds[node]:.6g}"
        )


def _mixing_transpose(a: CombinationMatrix) -> np.ndarray | None:
    """a^T, which a combination stage applies to the node-major state, or
    None when a is the identity and the stage is skipped."""
    if a.is_identity():
        return None
    return a.matrix.T.copy()


def lift(a1: CombinationMatrix, a2: CombinationMatrix, blocks: np.ndarray) -> np.ndarray:
    """The N*M x N*M matrix (a2^T kron I) blockdiag(blocks) (a1^T kron I), B itself
    when the blocks are the gains: a2^T times the matrix whose block (k, l) is
    a1[l, k] * blocks[k]."""
    n, m, _ = blocks.shape
    inner = blocks[:, :, None, :] * a1.matrix.T[:, None, :, None]
    return (a2.matrix.T @ inner.reshape(n, -1)).reshape(n * m, n * m)


class _StepOperator:
    """Precompiled one-iteration map for a quadratic ensemble.

    For quadratics the gradient stage is affine in the evaluation point,
    so the whole update per node k is (I - mu_k * R_k) phi_k + mu_k * d_k
    with R_k and d_k the c-combined Hessians and offsets. Identity
    combination factors are skipped entirely. a1, a2 and c are the
    CombinationMatrix factors; they and the step sizes are used unchecked,
    as ``validate_step_condition`` has checked them against the ensemble."""

    def __init__(self, a1, a2, c, step_sizes, ensemble: CostEnsemble):
        n, m = ensemble.n, ensemble.dim
        mu = np.asarray(step_sizes, dtype=float)
        self.gain = np.eye(m)[None, :, :] - mu[:, None, None] * combine_hessians(c, ensemble)
        self.offset = mu[:, None] * np.einsum("lk,li->ki", c.matrix, ensemble.offsets)
        self.a1t = _mixing_transpose(a1)
        self.a2t = _mixing_transpose(a2)
        self.shape = (n, m)

    def apply(self, w: np.ndarray) -> np.ndarray:
        phi = w if self.a1t is None else self.a1t @ w
        psi = np.einsum("kij,kj->ki", self.gain, phi) + self.offset
        return psi if self.a2t is None else self.a2t @ psi

    def apply_linear(self, q: np.ndarray) -> np.ndarray:
        """The linear part of apply on K states at once, q of shape (N, M, K)."""
        n = self.shape[0]
        phi = q if self.a1t is None else (self.a1t @ q.reshape(n, -1)).reshape(q.shape)
        psi = self.gain @ phi
        return psi if self.a2t is None else (self.a2t @ psi.reshape(n, -1)).reshape(q.shape)


def run_to_fixed_point(
    config: DiffusionConfig,
    ensemble: CostEnsemble,
    init=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    interval: Callable[[], tuple[float, float]] | None = None,
) -> FixedPointResult:
    """Iterate until every node's update is below tol * (1 + |w_k|).

    The mixed absolute/relative test keeps the criterion meaningful when
    the optimum is far from the origin. The fixed point is unique under
    the standing assumptions, so ``init`` (default all-zeros) only affects
    the iteration count. Exhausting ``max_iter`` is reported through
    ``converged=False`` rather than an exception; a non-finite update
    raises DivergenceError, naming the node and iteration.

    The iterate is stepped _BLOCK iterations at a time (fewer when max_iter
    is nearer), and the per-node test and the finiteness check run on the
    whole block in a few array operations. A walk over the block then acts
    on each iteration in order, exactly as a loop that stepped and tested
    one iteration at a time would: the first non-finite update raises, the
    first pass stops the run, and so does a hand-over to the tail below; the
    steps computed past the stop are discarded. The iterates, the counts and
    every value in the result are those of that loop, bit for bit.

    At any tol, a run is judged at iteration 128 from the decay of its
    largest update since iteration 64 and, if not then judged long, at 256
    from the decay since 128. A long run, whose largest update at that rate
    stays above the threshold for more than 512 further iterations, skips
    its tail (see the tail module). At the judgement it filters an N*M x M
    basis from 1 kron I_M, 64 steps at a time, until the basis is invariant
    under the error-propagation matrix B: by Chebyshev polynomials on the
    interval [a, b] that ``interval()`` returns, called then and only then,
    and by powers of B when ``interval`` is None. The caller passes it only
    when [a, b] is known to hold every eigenvalue of B but the M slow ones.
    Every 64 plain steps from then, once the run's iterates 64 steps apart
    fit the basis to within their rounding noise, every later iterate is a
    sum of M geometric sequences, and the same per-node test finds the stop
    among them without stepping. Where the last update sits within the plain
    loop's rounding noise of the threshold, as it must below about 1024 eps,
    that stop is an extended-precision loop's. A basis refused for good or
    not found in 1024 filter steps, or a model not accepted 1024 steps in, is
    dropped and the run goes on plain; it is not judged again. ``stepped``
    counts the plain steps kept; when it is smaller than ``iterations_used``,
    ``w_infinity`` and ``final_update_norm`` belong to the modelled iterate
    at ``iterations_used``, and ``slow_basis`` holds the basis.
    """
    if not math.isfinite(tol) or tol <= 0.0 or max_iter < 1:
        raise ValueError("tol must be finite and positive and max_iter at least one")
    validate_step_condition(config, ensemble)
    op = _StepOperator(config.a1, config.a2, config.c, config.step_sizes, ensemble)
    w = np.zeros(op.shape) if init is None else as_matrix(init)
    if w.shape != op.shape:
        raise ValueError(f"state must have shape {op.shape}, got {w.shape}")
    n, m = op.shape
    iterations = 0
    converged = False
    probe = 0.0
    probe_at = PROBE_AT  # where the largest update is read next; 0 once the run is judged
    tracker = None
    while not converged and iterations < max_iter:
        size = min(_BLOCK, max_iter - iterations)
        block = np.empty((size + 1, n, m))
        block[0] = w
        # a divergence is reported by the walk; the steps past it must not warn
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(size):
                block[i + 1] = op.apply(block[i])
            diff = (block[1:] - block[:-1]).reshape(-1, m)
            after = block[1:].reshape(-1, m)
            upd2 = np.einsum("ki,ki->k", diff, diff).reshape(size, n)
            norms2 = np.einsum("ki,ki->k", after, after).reshape(size, n)
            passed = passes(upd2, norms2, tol).tolist()
        worsts = upd2.max(axis=1).tolist()
        for i in range(size):
            iterations += 1
            worst = worsts[i]
            if not math.isfinite(worst):
                node = int(np.argmax(~np.isfinite(upd2[i])))
                raise DivergenceError(
                    f"iteration diverged: non-finite estimate at node {node}"
                    f" on iteration {iterations}",
                    node=node,
                    iteration=iterations,
                )
            w = block[i + 1]
            if passed[i]:
                converged = True
                break
            if tracker is not None and iterations < max_iter:
                tail = tracker.advance(w)
                if tail is not None:
                    w, used, converged, final = tail.run(iterations, max_iter, tol)
                    basis = tracker.q
                    w.setflags(write=False)
                    basis.setflags(write=False)
                    return FixedPointResult(w, used, converged, final, iterations, basis)
                if not tracker.open:
                    tracker = None
            elif iterations == probe_at:
                if iterations > PROBE_AT:
                    gate = tol * (1.0 + math.sqrt(float(norms2[i].max())))
                    if runs_long(probe, worst, gate, iterations // 2):
                        bounds = None if interval is None else interval()
                        tracker = SlowSubspace(op, w, bounds)
                probe = worst
                probe_at = 2 * iterations if tracker is None and iterations < ENGAGE_AT else 0
    w = w.copy()
    w.setflags(write=False)
    return FixedPointResult(
        w_infinity=w,
        iterations_used=iterations,
        converged=converged,
        final_update_norm=math.sqrt(worst),
        stepped=iterations,
    )
