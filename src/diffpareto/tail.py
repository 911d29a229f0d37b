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
excluding a pass. The pairs come from an N*M x M basis filtered from
1 kron I_M when the run is judged long, reduced to the M x M
Rayleigh-Ritz matrix S = Q^T B Q; B itself is never formed. Where an
interval [a, b] known to hold every eigenvalue of B but the M slow ones
is given, the filter is a scaled Chebyshev polynomial on it (Rutishauser
1970; Zhou and Saad 2007), which damps those modes far faster than
powers of B; without one it is B^j. This module holds the mathematics
alone: ``diffusion.run_to_fixed_point`` judges when a run is long, searches
for its basis by ``_invariant_basis`` and offers it by ``ModalTail.fit``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# filter steps for a basis to become invariant, and plain steps it is offered over
_TRACK_LIMIT = 1024
# the filter steps between two orthonormalisations and invariance tests of
# the basis, and the plain steps between two offers: the span of the two
# iterates a model is fitted to. The fast modes, which on the built-in
# networks fall below 1e-14 of their start within 150-300 iterations, are
# waited for by the invariance and fit tests, which refuse a basis or a model
# until they are gone from it and from the older iterate
_PERIOD = 64
_RESIDUAL = 1e-13  # |BQ - QS| allowed, relative to |BQ|
# rounding noise allowed in the fit, relative to |w|; a tol below it puts the plain loop's
# stopping test in its own noise, where the tail's count is an extended-precision loop's
_NOISE = 1024 * np.finfo(float).eps
_COND_LIMIT = 1e6  # of the eigenvectors of S
_SEPARATION = 1e-8  # smallest Ritz value gap, relative to the largest 1 - lambda
_SCAN_BYTES = 2**18  # the arrays of one scan block


def passes(upd2: np.ndarray, norms2: np.ndarray, tol: float) -> np.ndarray:
    """The plain loop's stopping test on rows of per-node squared update
    norms ``upd2`` and squared iterate norms ``norms2``: whether every
    node's update is at most tol * (1 + |w_k|). The loop and the tail's
    scan both stop by it, so the tail's count is the loop's."""
    rhs = tol * (1.0 + np.sqrt(norms2))
    return (upd2 <= rhs * rhs).all(axis=1)


def _filter_steps(interval: tuple[float, float] | None) -> Iterator[tuple[float, float, float]]:
    """The coefficients (alpha, beta, gamma) of successive steps
    Q_{j+1} = alpha B Q_j + beta Q_j + gamma Q_{j-1} from Q_0 (gamma = 0 on
    the first), which make Q_j = p_j(B) Q_0 for p_j the Chebyshev polynomial
    of degree j on ``interval`` [a, b], scaled to p_j(1) = 1: the three-term
    recurrence of Zhou and Saad (2007) with its scaling point at 1. A mode in
    [a, b] shrinks against one at 1 by at least T_j((1 - c) / e), with c and
    e the centre and half-width of [a, b], where B^j shrinks one at b by
    b**j. Without an interval, or with one that is not a < b < 1, they are
    the power coefficients (1, 0, 0), and Q_j = B^j Q_0 bit for bit."""
    a, b = (0.0, 0.0) if interval is None else interval
    if not a < b < 1.0:
        while True:
            yield 1.0, 0.0, 0.0
    half, centre = (b - a) / 2.0, (b + a) / 2.0
    first = half / (1.0 - centre)
    yield first / half, -centre * first / half, 0.0
    sigma = first
    while True:
        nxt = 1.0 / (2.0 / first - sigma)
        yield 2.0 * nxt / half, -2.0 * centre * nxt / half, -sigma * nxt
        sigma = nxt


def _invariant_basis(op, interval: tuple[float, float] | None):
    """The first invariant basis of p(B) (1 kron I_M), p the filter of
    ``_filter_steps`` on ``interval`` restarted from each orthonormalised Q
    every _PERIOD steps: (Q, lam, v, sigma), Q of N*M x M node major,
    (lam, v) the eigenpairs of S = Q^T B Q and sigma the smallest singular
    value of v. Q is invariant when ||BQ - QS|| is small. None when no Q is
    by _TRACK_LIMIT steps, or when its eigenpairs are not real, slow,
    distinct and well conditioned, as a model needs them."""
    n, m = op.shape
    q = np.broadcast_to(np.eye(m) / math.sqrt(n), (n, m, m)).copy()
    for _ in range(_TRACK_LIMIT // _PERIOD):
        prev = q
        for _, (alpha, beta, gamma) in zip(range(_PERIOD), _filter_steps(interval)):
            q, prev = alpha * op.apply_linear(q) + beta * q + gamma * prev, q
        basis = np.linalg.qr(q.reshape(n * m, m))[0]
        q = basis.reshape(n, m, m)
        bq = op.apply_linear(q).reshape(n * m, m)
        s = basis.T @ bq
        if np.linalg.norm(bq - basis @ s) > _RESIDUAL * np.linalg.norm(bq):
            continue
        # the Ritz pairs of an invariant subspace are final
        lam, v = np.linalg.eig(s)
        if np.iscomplexobj(lam) or not ((lam > 0.0) & (lam < 1.0)).all():
            return None
        sv = np.linalg.svd(v, compute_uv=False)
        gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(m)
        if sv[-1] * _COND_LIMIT < sv[0] or gaps.min() <= _SEPARATION * (1.0 - lam).max():
            return None
        return basis, lam, v, float(sv[-1])
    return None


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
    def fit(cls, q, lam, v, sigma, w: np.ndarray, w_old: np.ndarray) -> ModalTail | None:
        """The model with Ritz pairs (lam, q @ v) through w and w_old,
        _PERIOD iterations earlier, or None when the run leaves the span
        of q by more than the rounding noise of its iterates."""
        # the difference of two iterates far apart fits the modes far above
        # the rounding noise that a single update carries
        d = (w - w_old).ravel()
        a = q.T @ d
        if np.linalg.norm(d - q @ a) > _NOISE * np.linalg.norm(w):
            return None
        decay = lam**_PERIOD
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
            passed = passes(upd2, np.maximum(f @ cw, 0.0), tol)
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
