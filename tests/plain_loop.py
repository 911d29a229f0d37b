"""The fixed-point loop as it was before the modal tail: every iteration
stepped and tested. It is the reference the tail must reproduce."""

import math

import numpy as np

from diffpareto.diffusion import _StepOperator


def plain_fixed_point(config, ensemble, init=None, tol=1e-12, max_iter=1_000_000, trace=None):
    """(last iterate, iterations, converged) of the plain loop."""
    op = _StepOperator(config.a1, config.a2, config.c, config.step_sizes, ensemble)
    w = np.zeros(op.shape) if init is None else np.array(init, dtype=float)
    for iterations in range(1, max_iter + 1):
        wn = op.apply(w)
        diff = wn - w
        upd2 = np.einsum("ki,ki->k", diff, diff)
        if trace is not None:
            trace(iterations, math.sqrt(float(upd2.max())))
        w = wn
        rhs = tol * (1.0 + np.sqrt(np.einsum("ki,ki->k", wn, wn)))
        if (upd2 <= rhs * rhs).all():
            return w, iterations, True
    return w, max_iter, False
