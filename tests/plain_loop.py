"""The fixed-point loop as it was before the modal tail: every iteration
stepped and tested. It is the reference the blocked loop and the tail must
reproduce."""

import math

import numpy as np

from diffpareto.diffusion import _StepOperator, run_to_fixed_point


def plain_fixed_point(
    config, ensemble, init=None, tol=1e-12, max_iter=1_000_000, trace=None, dtype=float
):
    """(last iterate, iterations, converged) of the plain loop, carried in
    ``dtype``: np.longdouble steps the same double-precision operator in
    extended precision."""
    op = _StepOperator(config.a1, config.a2, config.c, config.step_sizes, ensemble)
    for name in ("gain", "offset", "a1t", "a2t"):
        value = getattr(op, name)
        if value is not None:
            setattr(op, name, value.astype(dtype))
    w = np.zeros(op.shape, dtype) if init is None else np.array(init, dtype=dtype)
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


def assert_bit_identical(config, ensemble, init=None, interval=None, **kwargs):
    """The loop's iterate, counts and final update norm are the plain loop's
    to the last bit. A run the tail took over is compared through a second
    run to ``max_iter=stepped``, which ends plain there, because the tail is
    offered only while iterations remain. ``interval`` is handed to the
    loop's tail. Returns the first run."""
    result = run_to_fixed_point(config, ensemble, init=init, interval=interval, **kwargs)
    run = result
    if result.stepped < result.iterations_used:
        kwargs["max_iter"] = result.stepped
        run = run_to_fixed_point(config, ensemble, init=init, interval=interval, **kwargs)
    updates = []
    w, iterations, converged = plain_fixed_point(
        config, ensemble, init=init, trace=lambda _, u: updates.append(u), **kwargs
    )
    assert np.array_equal(run.w_infinity, w)
    assert (run.iterations_used, run.stepped, run.converged) == (iterations, iterations, converged)
    assert run.final_update_norm == updates[-1]
    return result
