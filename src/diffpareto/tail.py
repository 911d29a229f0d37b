"""The tail of a long fixed-point run, modelled instead of stepped.

The diffusion recursion is affine, so after j steps its error is B^j times
the initial error, with B the error-propagation matrix. At zero step size
B's eigenvalue-one eigenspace is 1 kron I_M (every node equal); at small
steps its M slow modes grow out of that subspace while every other mode
dies at about the rate of the second eigenvalue of the combination
matrix. Once those have died, every later iterate is
w_inf + Y diag(lam**p) g for the M slow eigenpairs (lam, Y) of B, and the
stopping test of the plain loop can be evaluated on thousands of such
iterates at once, starting where a closed-form bound on its update stops
excluding a pass. The pairs come from an N*M x M basis stepped from
1 kron I_M beside the plain loop, reduced to the M x M Rayleigh-Ritz
matrix S = Q^T B Q; B itself is never formed. This module is the engine
of ``diffusion.run_to_fixed_point``, which decides when to call it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

# A run is judged long at ENGAGE_AT from the decay of its largest update
# since PROBE_AT; it then tracks the slow subspace and offers it as a model
# every _PERIOD tracked steps, from the first that keeps an iterate _FIT_SPAN
# back, until _TRACK_LIMIT.
PROBE_AT = 128
ENGAGE_AT = 256
_TRACK_LIMIT = 1024
_PERIOD = 64  # also the re-orthonormalisation period of the tracked basis
# iterations between the two iterates the model is fitted to; on the
# built-in networks the fast modes fall below 1e-14 of their start within
# 150-300 iterations, before the older iterate is kept
_FIT_SPAN = 128
# predicted remaining iterations that make a run long: several times the
# plain steps a model costs
_LONG_RUN = 4 * _FIT_SPAN
_RESIDUAL = 1e-13  # |BQ - QS| allowed, relative to |BQ|
# rounding noise allowed in the fit, relative to |w|; a tol below it puts the
# stopping test itself in the noise, and such runs stay plain
_NOISE = 1024 * np.finfo(float).eps
_COND_LIMIT = 1e6  # of the eigenvectors of S
_SEPARATION = 1e-8  # smallest Ritz value gap, relative to the largest 1 - lambda
_SCAN_BYTES = 2**18  # the arrays of one scan block


def runs_long(probe: float, worst: float, gate: float, tol: float, max_iter: int) -> bool:
    """Whether a run is worth tracking: its largest squared update,
    ``probe`` at PROBE_AT and ``worst`` at ENGAGE_AT, stays above gate**2
    for more than _LONG_RUN further iterations at the rate it decayed
    between the two, max_iter leaves room for a model, and tol sits above
    the rounding noise of an update."""
    if tol < _NOISE or max_iter <= ENGAGE_AT + _FIT_SPAN + _PERIOD:
        return False
    if worst >= probe:
        return True
    rate = math.log(worst / probe) / (ENGAGE_AT - PROBE_AT)
    return math.log(gate * gate / worst) / rate > _LONG_RUN


class SlowSubspace:
    """A basis Q = B^j (1 kron I_M) of N*M x M, stepped beside the plain loop.

    The span of Q converges to the invariant subspace of B's M slow modes
    at the rate the fast modes die. Q is re-orthonormalised every _PERIOD
    steps and, once it keeps an iterate _FIT_SPAN back, offered as a model
    of the run's tail when it is invariant: ||BQ - QS|| small for
    S = Q^T B Q. Its Ritz pairs, the eigenpairs of S, must be real, slow,
    distinct and well conditioned.
    ``op`` is the run's step operator: its shape (N, M) and apply_linear."""

    def __init__(self, op):
        n, m = op.shape
        self.op = op
        self.q = np.broadcast_to(np.eye(m) / math.sqrt(n), (n, m, m)).copy()
        self.steps = 0
        # plain iterates _PERIOD apart, the oldest _FIT_SPAN before the newest
        self.iterates = deque(maxlen=_FIT_SPAN // _PERIOD + 1)
        self.open = True  # False once no model will be accepted

    def advance(self, w: np.ndarray) -> ModalTail | None:
        """Step Q along with the plain iterate w; the model of the tail from
        w on, once Q spans an invariant subspace that fits the run."""
        self.q = self.op.apply_linear(self.q)
        self.steps += 1
        if self.steps % _PERIOD:
            return None
        n, m = self.op.shape
        q = np.linalg.qr(self.q.reshape(n * m, m))[0]
        self.q = q.reshape(n, m, m)
        self.iterates.append(w.copy())  # a view of w could keep a larger array alive
        self.open = self.steps < _TRACK_LIMIT
        if len(self.iterates) < self.iterates.maxlen:
            return None
        bq = self.op.apply_linear(self.q).reshape(n * m, m)
        s = q.T @ bq
        if np.linalg.norm(bq - q @ s) > _RESIDUAL * np.linalg.norm(bq):
            return None
        # the Ritz pairs of an invariant subspace are final: a model they
        # cannot carry is refused for the rest of the run
        lam, v = np.linalg.eig(s)
        if np.iscomplexobj(lam) or not ((lam > 0.0) & (lam < 1.0)).all():
            self.open = False
            return None
        sv = np.linalg.svd(v, compute_uv=False)
        gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(m)
        if sv[-1] * _COND_LIMIT < sv[0] or gaps.min() <= _SEPARATION * (1.0 - lam).max():
            self.open = False
            return None
        span = _PERIOD * (len(self.iterates) - 1)
        return ModalTail.fit(q, lam, v, float(sv[-1]), w, self.iterates[0], span)


@dataclass(frozen=True, eq=False)
class ModalTail:
    """The run from a plain iterate w_j on, in the slow modes of B:
    w_{j+p} = w_inf + Y diag(lam**p) g with the Ritz pairs (lam, Y) of the
    tracked subspace, all stacked node-major to length N*M."""

    lam: np.ndarray
    ritz: np.ndarray
    coef: np.ndarray
    w_inf: np.ndarray
    sigma: float  # smallest singular value of Y

    @classmethod
    def fit(
        cls, q, lam, v, sigma, w: np.ndarray, w_old: np.ndarray, span: int
    ) -> ModalTail | None:
        """The model with Ritz pairs (lam, q @ v) through w and w_old,
        ``span`` iterations earlier, or None when the run leaves the span
        of q by more than the rounding noise of its iterates."""
        # the difference of two iterates far apart fits the modes far above
        # the rounding noise that a single update carries
        d = (w - w_old).ravel()
        a = q.T @ d
        if np.linalg.norm(d - q @ a) > _NOISE * np.linalg.norm(w):
            return None
        decay = lam**span
        coef = np.linalg.solve(v, a) * decay / (decay - 1.0)
        ritz = q @ v
        return cls(lam, ritz, coef, w.ravel() - ritz @ coef, sigma)

    def run(self, j: int, max_iter: int, tol: float) -> tuple[np.ndarray, int, bool, float]:
        """Continue a run that stopped stepping at iteration j < max_iter:
        the per-node stopping test of the plain loop, applied to the
        modelled iterates from the start ``_first_possible`` gives.
        Returns the last iterate, its iteration, whether it passed and its
        largest update norm."""
        m = self.lam.size
        n = self.w_inf.size // m
        lam = self.lam
        # w_{j+p} = w_inf + yw @ y and the update into it is yu @ y, for
        # y = lam**(p-1); per node both squared norms are quadratic forms in
        # z = (1, y), evaluated from the forms' coefficients on z_a z_b
        yw = self.ritz * (lam * self.coef)
        yu = self.ritz * ((lam - 1.0) * self.coef)
        rows, cols = np.triu_indices(m + 1)
        weight = np.where(rows == cols, 1.0, 2.0)

        def form(first, y):
            z = np.concatenate([first.reshape(n, m, 1), y.reshape(n, m, m)], axis=2)
            gram = np.einsum("kia,kib->kab", z, z)
            return (gram[:, rows, cols] * weight).T

        cw = form(self.w_inf, yw)
        cu = form(np.zeros(n * m), yu)

        last = max_iter - j
        block = max(16, _SCAN_BYTES // (8 * (4 * n + rows.size)))
        for start in range(self._first_possible(tol, yw, last), last + 1, block):
            p = np.arange(start, min(start + block, last + 1))
            z = np.ones((p.size, m + 1))
            z[:, 1:] = lam ** (p - 1)[:, None]
            f = z[:, rows] * z[:, cols]
            upd2 = f @ cu
            rhs = tol * (1.0 + np.sqrt(np.maximum(f @ cw, 0.0)))
            passed = (upd2 <= rhs * rhs).all(axis=1)
            done = bool(passed.any())
            stop = int(np.argmax(passed)) if done else p.size - 1
            if done or p[-1] == last:
                w = (self.w_inf + yw @ z[stop, 1:]).reshape(n, m)
                final = math.sqrt(max(upd2[stop].max(), 0.0))
                return w, j + int(p[stop]), done, final
        raise AssertionError("the scan always ends at max_iter")

    def _first_possible(self, tol: float, yw: np.ndarray, last: int) -> int:
        """Where the scan starts, at most last: no earlier p can pass.

        A pass needs the total squared update, at least sigma**2 times
        sum_i h_i**2 lam_i**(2(p-1)) with h_i = (lam_i - 1) g_i, to be at most
        the sum of the squared per-node thresholds, which |y| <= 1 bounds by
        tol**2 sum_k (1 + |w_inf_k| + sum_i |yw_k,i|)**2. ``target`` is that
        bound over sigma**2, doubled to cover rounding in both sides. Each term
        falls with p, and before 1 + floor(max_i log(target / h_i**2) /
        (2 log lam_i)) one term alone exceeds the target."""
        m = self.lam.size
        n = self.w_inf.size // m
        bound = (
            1.0
            + np.linalg.norm(self.w_inf.reshape(n, m), axis=1)
            + np.linalg.norm(yw.reshape(n, m, m), axis=1).sum(axis=1)
        )
        target = 2.0 * (tol * np.linalg.norm(bound) / self.sigma) ** 2
        h2 = ((self.lam - 1.0) * self.coef) ** 2
        with np.errstate(divide="ignore", over="ignore"):  # h_i = 0 excludes nothing
            excluded = np.log(target / h2) / (2.0 * np.log(self.lam))
        return int(np.clip(1.0 + np.floor(excluded.max()), 1, last))
