import math
import sys
import warnings

import numpy as np
import pytest
from plain_loop import assert_bit_identical, plain_fixed_point

from diffpareto import diffusion as diffusion_module
from diffpareto import tail as tail_module
from diffpareto.bias import analyse_scale, analyse_scenario
from diffpareto.costs import CostEnsemble, QuadraticCost, sample_ensemble, step_size_bounds
from diffpareto.diffusion import (
    _BLOCK,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ENGAGE_AT,
    PROBE_AT,
    DiffusionConfig,
    DivergenceError,
    _StepOperator,
    atc_config,
    cta_config,
    run_to_fixed_point,
    runs_long,
    validate_step_condition,
)
from diffpareto.experiment import ExperimentConfig, build_scenario
from diffpareto.network import (
    AssumptionError,
    CombinationMatrix,
    build_A,
    build_C,
    generate_topology,
    identity_combination,
)
from diffpareto.tail import _PERIOD, ModalTail, _filter_steps, _invariant_basis

A22 = CombinationMatrix(np.array([[0.7, 0.4], [0.3, 0.6]]), kind="left_stochastic")


def scalar_cost(target: float) -> QuadraticCost:
    return QuadraticCost(np.array([[1.0]]), np.array([target]))


def two_scalar_ensemble() -> CostEnsemble:
    return CostEnsemble(costs=(scalar_cost(1.0), scalar_cost(3.0)), dim=1)


# --- presets and config validation -----------------------------------------


def test_preset_atc():
    cfg = atc_config(A22, identity_combination(2), np.array([0.1, 0.1]))
    assert np.array_equal(cfg.a1.matrix, np.eye(2))
    assert cfg.a2 is A22
    assert np.array_equal(cfg.a1.matrix @ cfg.a2.matrix, A22.matrix)
    right_only = CombinationMatrix(A22.matrix.T, kind="right_stochastic")
    with pytest.raises(ValueError, match="left"):
        atc_config(right_only, identity_combination(2), np.array([0.1, 0.1]))


def test_preset_cta():
    cfg = cta_config(A22, identity_combination(2), np.array([0.1, 0.1]))
    assert cfg.a1 is A22
    assert np.array_equal(cfg.a2.matrix, np.eye(2))
    assert np.array_equal(cfg.a1.matrix @ cfg.a2.matrix, A22.matrix)
    right_only = CombinationMatrix(A22.matrix.T, kind="right_stochastic")
    with pytest.raises(ValueError, match="left"):
        cta_config(right_only, identity_combination(2), np.array([0.1, 0.1]))


def test_config_validation():
    eye = identity_combination(2)
    right_only = CombinationMatrix(
        np.array([[0.6, 0.4], [0.7, 0.3]]), kind="right_stochastic"
    )
    with pytest.raises(ValueError, match="left"):
        DiffusionConfig(a1=right_only, a2=eye, c=eye, step_sizes=np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="right"):
        DiffusionConfig(a1=A22, a2=eye, c=A22, step_sizes=np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="positive"):
        DiffusionConfig(a1=A22, a2=eye, c=eye, step_sizes=np.array([0.1, 0.0]))
    with pytest.raises(ValueError, match="step sizes"):
        DiffusionConfig(a1=A22, a2=eye, c=eye, step_sizes=np.array([0.1]))
    with pytest.raises(ValueError, match="combination matrices must share one size"):
        DiffusionConfig(a1=A22, a2=identity_combination(3), c=eye, step_sizes=[0.1, 0.1])


def test_validate_step_condition():
    ens = two_scalar_ensemble()
    eye = identity_combination(2)
    config = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([0.5, 1.5]))
    with pytest.raises(AssumptionError, match="node 1"):
        validate_step_condition(config, ens)  # bound is 2/2 = 1 at every node


# --- single steps ------------------------------------------------------------


def first_iterate(cfg, ens, w):
    """The recursion's first step from w, as the fixed-point loop takes it."""
    return run_to_fixed_point(cfg, ens, init=w, max_iter=1).w_infinity


def test_step_reduces_to_gradient_descent():
    eye = identity_combination(1)
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([0.1]))
    ens = CostEnsemble(costs=(scalar_cost(1.0),), dim=1)
    out = first_iterate(cfg, ens, np.zeros((1, 1)))
    assert np.allclose(out, [[0.2]], atol=1e-15)  # 0 - 0.1 * (-2)


def test_step_fixed_at_common_minimizer():
    topo = generate_topology(6, 3.0, seed=1)
    a = build_A(topo, "metropolis")
    c = build_C(topo, "averaging")
    shared = QuadraticCost(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 4.0]))
    ens = CostEnsemble(costs=(shared,) * 6, dim=2)
    cfg = atc_config(a, c, np.full(6, 0.05))
    w_min = np.array([1.0, 2.0])
    state = np.tile(w_min, (6, 1))
    assert np.abs(first_iterate(cfg, ens, state) - state).max() <= 1e-14


def test_step_atc_two_node_hand_values():
    # psi = (0.2, 0.6); combining with the transposed weights gives
    # w = (0.7*0.2 + 0.3*0.6, 0.4*0.2 + 0.6*0.6) = (0.32, 0.44)
    cfg = atc_config(A22, identity_combination(2), np.array([0.1, 0.1]))
    out = first_iterate(cfg, two_scalar_ensemble(), np.zeros((2, 1)))
    assert np.allclose(out.ravel(), [0.32, 0.44], atol=1e-15)


@pytest.mark.parametrize("kind", ["atc", "cta", "general"])
def test_step_against_literal_recursion(kind):
    # independent oracle: evaluate the three update stages entry by entry
    topo = generate_topology(5, 3.0, seed=3)
    a = build_A(topo, "averaging")
    eye = identity_combination(5)
    a1, a2 = {
        "atc": (eye, a),
        "cta": (a, eye),
        "general": (a, build_A(topo, "metropolis")),
    }[kind]
    c = build_C(topo, "relative_degree")
    ens = sample_ensemble(5, 2, 4, data_seed=5)
    mu = 0.01 * np.linspace(0.5, 1.0, 5)
    cfg = DiffusionConfig(a1=a1, a2=a2, c=c, step_sizes=mu)
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 2))
    phi = np.array([sum(a1.matrix[l, k] * w[l] for l in range(5)) for k in range(5)])
    psi = np.array(
        [
            phi[k]
            - mu[k] * sum(c.matrix[l, k] * ens.costs[l].gradient(phi[k]) for l in range(5))
            for k in range(5)
        ]
    )
    expected = np.array([sum(a2.matrix[l, k] * psi[l] for l in range(5)) for k in range(5)])
    assert np.abs(first_iterate(cfg, ens, w) - expected).max() <= 1e-12


# --- fixed points -------------------------------------------------------------


def test_single_node_converges_quickly():
    eye = identity_combination(1)
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([0.5]))
    ens = CostEnsemble(costs=(scalar_cost(1.0),), dim=1)
    res = run_to_fixed_point(cfg, ens, tol=1e-12)
    assert res.converged
    assert res.iterations_used <= 60
    assert np.allclose(res.w_infinity, [[1.0]], atol=1e-12)


def test_identical_costs_reach_common_minimizer():
    topo = generate_topology(8, 3.0, seed=9)
    a = build_A(topo, "averaging")
    c = build_C(topo, "averaging")
    shared = QuadraticCost(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([2.0, 3.0]))
    ens = CostEnsemble(costs=(shared,) * 8, dim=2)
    cfg = atc_config(a, c, np.full(8, 0.05))
    res = run_to_fixed_point(cfg, ens, tol=1e-13)
    assert res.converged
    w_min = np.array([1.0, 3.0])
    assert np.abs(res.w_infinity - w_min).max() <= 1e-10


def test_fixed_point_independent_of_init():
    topo = generate_topology(10, 3.0, seed=15)
    a = build_A(topo, "relative_degree")
    c = build_C(topo, "averaging")
    ens = sample_ensemble(10, 3, 5, data_seed=15)
    mu = 0.2 * step_size_bounds(c, ens).min()
    cfg = atc_config(a, c, np.full(10, mu))
    tol = 1e-12
    res0 = run_to_fixed_point(cfg, ens, tol=tol)
    rng = np.random.default_rng(1)
    res1 = run_to_fixed_point(cfg, ens, init=rng.normal(size=(10, 3)), tol=tol)
    assert res0.converged and res1.converged
    assert np.abs(res0.w_infinity - res1.w_infinity).max() <= 10 * tol


def test_trajectories_bit_identical():
    topo = generate_topology(7, 3.0, seed=2)
    a = build_A(topo, "metropolis")
    c = build_C(topo, "relative_degree")
    ens = sample_ensemble(7, 2, 4, data_seed=2)
    cfg = cta_config(a, c, np.full(7, 0.01))
    res0 = run_to_fixed_point(cfg, ens, tol=1e-12)
    res1 = run_to_fixed_point(cfg, ens, tol=1e-12)
    assert np.array_equal(res0.w_infinity, res1.w_infinity)
    assert res0.iterations_used == res1.iterations_used
    assert res0.final_update_norm == res1.final_update_norm


def test_fixed_point_is_fixed_under_step():
    topo = generate_topology(6, 3.0, seed=6)
    a = build_A(topo, "averaging")
    c = build_C(topo, "identity")
    ens = sample_ensemble(6, 2, 4, data_seed=6)
    tol = 1e-13
    cfg = atc_config(a, c, np.full(6, 0.02))
    res = run_to_fixed_point(cfg, ens, tol=tol)
    assert res.converged
    moved = first_iterate(cfg, ens, res.w_infinity)
    assert np.abs(moved - res.w_infinity).max() <= 10 * tol


def test_max_iter_exhaustion_reports_not_converged():
    cfg = atc_config(A22, identity_combination(2), np.array([0.001, 0.001]))
    res = run_to_fixed_point(cfg, two_scalar_ensemble(), tol=1e-14, max_iter=10)
    assert not res.converged
    assert res.iterations_used == 10
    assert res.final_update_norm > 0.0


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_run_rejects_tol_not_finite_and_positive(tol):
    # a negative tol would square into a positive threshold and a NaN one
    # would never stop the loop
    cfg = atc_config(A22, identity_combination(2), np.array([0.01, 0.01]))
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        run_to_fixed_point(cfg, two_scalar_ensemble(), tol=tol)


@pytest.mark.parametrize("max_iter", [1e6, 10.5, math.inf])
def test_run_rejects_a_max_iter_that_is_not_an_integer(max_iter):
    # refused before the step condition is checked and the operator built
    cfg = atc_config(A22, identity_combination(2), np.array([0.01, 0.01]))
    with pytest.raises(ValueError, match="max_iter an integer"):
        run_to_fixed_point(cfg, two_scalar_ensemble(), max_iter=max_iter)


def test_run_takes_a_numpy_integer_max_iter():
    cfg = atc_config(A22, identity_combination(2), np.array([0.01, 0.01]))
    res = run_to_fixed_point(cfg, two_scalar_ensemble(), max_iter=np.int64(40))
    assert (res.iterations_used, res.converged) == (40, False)


def test_run_validates_step_condition():
    eye = identity_combination(2)
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([0.5, 1.2]))
    with pytest.raises(AssumptionError):
        run_to_fixed_point(cfg, two_scalar_ensemble())
    with pytest.raises(ValueError, match="config is for 2 nodes, ensemble has 3"):
        run_to_fixed_point(cfg, sample_ensemble(3, 1, 2, data_seed=1))


# --- the modal tail against the plain loop ------------------------------------


def sweep_row(mu_max, init_at_optimum=True, **fields):
    """(config, ensemble, init) of one row of a built-in scenario; the
    defaults are the N=50 scenario of the small-step benchmark sweep."""
    settings = dict(
        strategy="atc",
        a_rule="averaging",
        c_rule="relative_degree",
        step_mode="unequal_uniform_half",
        mu_max_schedule=(mu_max,),
    )
    settings.update(fields)
    scenario = build_scenario(ExperimentConfig(**settings))
    n = scenario.ensemble.n
    init = np.tile(scenario.w_star, (n, 1)) if init_at_optimum else None
    return scenario.at_scale(mu_max), scenario.ensemble, init


def assert_same_run(res, ref):
    w, iterations, converged = ref
    assert res.iterations_used == iterations
    assert res.converged == converged
    assert np.abs(res.w_infinity - w).max() <= 1e-12 * (1.0 + np.linalg.norm(w))


# the scenario of the cta_unequal figure family; sweep_row's default is atc_unequal's
CTA_UNEQUAL = {"strategy": "cta", "c_rule": "averaging"}


@pytest.mark.parametrize(
    "mu_max, fields, iterations",
    [
        pytest.param(1e-3, {}, 1980, id="0.001-1980"),
        pytest.param(1e-3, CTA_UNEQUAL, 2092, id="cta-0.001-2092"),
        pytest.param(10**-3.5, {}, 5875, id="0.00031622776601683794-5875"),
        pytest.param(1e-4, {}, 17350, id="0.0001-17350"),
    ],
)
def test_tail_reproduces_plain_loop_on_sweep_rows(mu_max, fields, iterations):
    config, ens, init = sweep_row(mu_max, **fields)
    res = run_to_fixed_point(config, ens, init=init)
    assert_same_run(res, plain_fixed_point(config, ens, init=init))
    assert res.iterations_used == iterations
    assert res.stepped < res.iterations_used


def test_tail_model_fits_iterates_a_period_apart():
    # an exact two-mode run w_p = w_inf + Y diag(lam**p) g of three nodes in
    # two dimensions, fitted through w_PERIOD and w_0
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    v = np.array([[1.0, 0.3], [-0.2, 1.0]])
    lam = np.array([0.99, 0.995])
    g = np.array([1e-3, -2e-3])
    w_inf = rng.standard_normal(6)

    def iterate(p):
        return (w_inf + q @ v @ (lam**p * g)).reshape(3, 2)

    tail = ModalTail.fit(q, lam, v, 1.0, iterate(_PERIOD), iterate(0))
    assert np.abs(tail.w_inf - w_inf).max() <= 1e-12
    assert np.abs(tail.coef - lam**_PERIOD * g).max() <= 1e-12


# an orthonormal basis of 1 kron I_2 over three nodes, and two slow modes
CONSENSUS = np.linalg.qr(np.tile(np.eye(2), (3, 1)))[0]
SLOW = np.array([0.5, 0.6])


def test_tail_model_refuses_a_run_that_leaves_the_basis():
    w = np.zeros((3, 2))
    w[0, 0] = 1.0  # only node 0 moves, which no consensus mode can carry
    assert ModalTail.fit(CONSENSUS, SLOW, np.eye(2), 1.0, w, np.zeros((3, 2))) is None


def test_tail_scan_can_stop_at_the_first_modelled_iterate():
    # modes too weak to move anything: the stopping test passes at once
    tail = ModalTail(SLOW, CONSENSUS, np.full(2, 1e-20), np.ones(6), 1.0)
    _, used, converged, _ = tail.run(300, 10**6, 1e-12)
    assert (used, converged) == (301, True)


def test_tail_scan_starts_where_no_single_mode_excludes_a_pass(monkeypatch):
    # two modes, the stronger one faster: before the start one mode's squared
    # update alone exceeds the target of the stopping test's bound, the start
    # is the first p that no single mode excludes or, by the floor, the one
    # before it, and a scan from p = 1 stops at the same iterate
    lam, coef, tol = np.array([0.99, 0.9]), np.array([1e-2, 1.0]), 1e-12
    tail = ModalTail(lam, CONSENSUS, coef, np.ones(6), 1.0)
    yw = tail.ritz * (lam * coef)
    per_node = 1.0 + np.linalg.norm(np.ones((3, 2)), axis=1)
    per_node += np.linalg.norm(yw.reshape(3, 2, 2), axis=1).sum(axis=1)
    target = 2.0 * (tol * np.linalg.norm(per_node)) ** 2
    p = np.arange(1, 10**4)
    excluded = ((lam - 1.0) * coef) ** 2 * lam ** (2 * (p[:, None] - 1)) > target
    free = int(p[~excluded.any(axis=1)][0])
    start = tail._first_possible(tol, yw, 10**6)
    assert excluded[: start - 1].any(axis=1).all()
    assert free - 1 <= start <= free
    assert excluded[0].all() and not excluded[start - 1, 1]  # the slow mode sets the start
    assert tail._first_possible(tol, yw, start - 10) == start - 10
    assert tail._first_possible(1.0, yw, 10**6) == 1
    run = tail.run(0, 10**6, tol)
    monkeypatch.setattr(ModalTail, "_first_possible", lambda *args: 1)
    scanned = tail.run(0, 10**6, tol)
    assert run[1:] == scanned[1:] and np.array_equal(run[0], scanned[0])
    assert run[1] > free


@pytest.mark.parametrize("rate, kept", [(0.5, True), (0.98, True), (0.985, False)])
def test_tail_scan_keeps_a_count_only_beyond_the_model_error(rate, kept):
    # the two-mode model above, given a distance from its run of 1e-3 r**(p - 1):
    # at its stop, 1692, the update passes by about 1e-14. A bound with r = 0.5
    # is below what the test resolves there, and one with r = 0.98 (3e-18) is
    # checked and cleared, so the count stands; with r = 0.985 (1.6e-14) the
    # stop no longer passes by more than the bound, and the model is refused
    lam, coef, tol = np.array([0.99, 0.9]), np.array([1e-2, 1.0]), 1e-12
    exact = ModalTail(lam, CONSENSUS, coef, np.ones(6), 1.0).run(0, 10**6, tol)
    bounded = ModalTail(lam, CONSENSUS, coef, np.ones(6), 1.0, (1e-3, 1e-3, rate))
    run = bounded.run(0, 10**6, tol)
    assert exact[1] == 1692
    if kept:
        assert run[1:] == exact[1:] and np.array_equal(run[0], exact[0])
    else:
        assert run is None


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is no wider than double"
)
@pytest.mark.parametrize("tol", [1e-16, 1e-17])
@pytest.mark.parametrize(
    "fields",
    [{"a_rule": "metropolis", "step_mode": "equal"}, {}],
    ids=["metropolis-equal", "averaging-unequal"],
)
def test_tail_count_below_the_rounding_noise_is_the_extended_precision_count(fields, tol):
    # below about 1024 eps the double loop's stopping test sits in its own
    # rounding noise, and the loop stops late where rounding stalls the
    # iterate; the modelled iterates carry no such noise
    config, ens, init = sweep_row(1e-3, **fields)
    res = run_to_fixed_point(config, ens, init=init, tol=tol)
    _, iterations, converged = plain_fixed_point(
        config, ens, init=init, tol=tol, dtype=np.longdouble
    )
    assert res.stepped < res.iterations_used
    assert (res.iterations_used, res.converged) == (iterations, converged)


def test_a_run_whose_largest_update_grows_is_long():
    assert runs_long(1.0, 2.0, 1e-12, PROBE_AT)


@pytest.mark.parametrize("tol", [1e-170, 1e-300, 5e-324])
def test_a_tol_whose_square_underflows_is_judged_and_runs_to_max_iter(tol):
    # below a tol of about 1e-162 the judgement's threshold squared is zero,
    # so it compares in logs; no update falls that low, and the tail's scan
    # ends at max_iter
    assert runs_long(1e-20, 1e-21, tol, PROBE_AT)
    config, ens, init = sweep_row(1e-4)
    res = run_to_fixed_point(config, ens, init=init, tol=tol, max_iter=3000)
    assert (res.iterations_used, res.converged) == (3000, False)
    assert res.stepped < res.iterations_used


class Rotation:
    """A step operator over three nodes in two dimensions whose linear part
    turns every node's estimate by 0.01 rad and shrinks it by 0.99: 1 kron
    I_2 is invariant from the start, and its Ritz values are complex."""

    shape = (3, 2)
    gain = 0.99 * np.array([[math.cos(0.01), -math.sin(0.01)], [math.sin(0.01), math.cos(0.01)]])

    def apply_linear(self, q):
        return self.gain @ q


class Recorded:
    """A step operator whose linear part records every basis it is applied to."""

    def __init__(self, op):
        self.op, self.shape, self.bases = op, op.shape, []

    def apply_linear(self, q):
        self.bases.append(q.copy())
        return self.op.apply_linear(q)


def test_complex_ritz_values_end_the_tracking():
    # the basis is invariant at its first test, _PERIOD steps in, and its
    # Ritz pairs are refused there: the search ends after _PERIOD + 1
    # products with no basis, so the run offers no model
    rotation = Recorded(Rotation())
    assert _invariant_basis(rotation, None) is None
    assert len(rotation.bases) == _PERIOD + 1


def powers_of_b(op, steps):
    """The search's basis under powers of B: B^j (1 kron I_M) / sqrt(N),
    orthonormalised every _PERIOD steps."""
    n, m = op.shape
    q = np.broadcast_to(np.eye(m) / math.sqrt(n), (n, m, m)).copy()
    for j in range(1, steps + 1):
        q = op.apply_linear(q)
        if j % _PERIOD == 0:
            q = np.linalg.qr(q.reshape(n * m, m))[0].reshape(n, m, m)
    return q


# no interval, the degenerate one of lambda_2(S) = lambda_min(S) = 0, a point
# and one that reaches 1: each steps the basis by the power coefficients
POWER_INTERVALS = [None, (0.0, 0.0), (0.5, 0.5), (-0.5, 1.0)]


@pytest.mark.parametrize("interval", POWER_INTERVALS)
def test_basis_without_a_usable_interval_steps_by_powers_of_b_bit_for_bit(interval):
    # this row's basis is not invariant at its first test under powers of B,
    # so the search steps on to its second: two periods of _PERIOD filter
    # steps, each followed by the product of its invariance test
    config, ens, init = sweep_row(1e-4)
    op = _StepOperator(config.a1, config.a2, config.c, config.step_sizes, ens)
    assert next(_filter_steps(interval)) == (1.0, 0.0, 0.0)
    recorded = Recorded(op)
    q, *_ = _invariant_basis(recorded, interval)
    assert len(recorded.bases) == 2 * (_PERIOD + 1)
    assert np.array_equal(q, powers_of_b(op, 2 * _PERIOD).reshape(q.shape))


def test_filter_restarts_from_the_orthonormalised_basis():
    # an interval that misses most of B's fast spectrum leaves the basis short
    # of invariant at its first test; the filter then starts again from the
    # orthonormalised basis, the one that test was applied to, with gamma = 0,
    # as a new filter would
    config, ens, _ = sweep_row(1e-4)
    op = Recorded(_StepOperator(config.a1, config.a2, config.c, config.step_sizes, ens))
    _invariant_basis(op, (0.0, 0.5))
    assert len(op.bases) > _PERIOD + 12
    q = prev = op.bases[_PERIOD]
    steps = _filter_steps((0.0, 0.5))
    for basis in op.bases[_PERIOD + 1 : _PERIOD + 12]:
        assert np.array_equal(basis, q)
        alpha, beta, gamma = next(steps)
        q, prev = alpha * op.op.apply_linear(q) + beta * q + gamma * prev, q


def test_chebyshev_filter_is_its_polynomial_scaled_to_one_at_one():
    # the recurrence's coefficients build p_j(x) = T_j((x - c) / e) / T_j((1 - c) / e),
    # c and e the centre and half-width of [a, b]
    a, b = -0.4, 0.9
    centre, half = (a + b) / 2.0, (b - a) / 2.0
    x = np.array([a, 0.1, b, 0.95, 1.0])
    steps = _filter_steps((a, b))
    prev, p = np.ones_like(x), np.ones_like(x)
    for j in range(1, 40):
        alpha, beta, gamma = next(steps)
        p, prev = alpha * x * p + beta * p + gamma * prev, p
        chebyshev = np.polynomial.chebyshev.Chebyshev.basis(j)
        expected = chebyshev((x - centre) / half) / chebyshev((1.0 - centre) / half)
        assert np.allclose(p, expected, rtol=1e-10, atol=1e-14)
    # a mode in [a, b] falls a million times further than under powers of B
    assert abs(p[:3]).max() < 1e-6 * b**39 and p[-1] == pytest.approx(1.0)


def test_tail_reproduces_plain_loop_on_zero_limit_row():
    # a zero-limit scenario: Assumption 3 holds, so the run starts close to its fixed point
    config, ens, init = sweep_row(1e-4, a_rule="metropolis", step_mode="equal")
    res = run_to_fixed_point(config, ens, init=init)
    assert_same_run(res, plain_fixed_point(config, ens, init=init))
    assert res.stepped < res.iterations_used


def test_tail_reproduces_plain_loop_with_identical_costs():
    config, ens, _ = sweep_row(
        1e-3, init_at_optimum=False, n_nodes=20, step_mode="equal", debug_identical_costs=True
    )
    res = run_to_fixed_point(config, ens)
    assert_same_run(res, plain_fixed_point(config, ens))
    assert res.stepped < res.iterations_used


def test_short_run_steps_every_iteration():
    # at 1e-2 the run is predicted at iteration 128 to end too soon to pay for a model
    config, ens, init = sweep_row(1e-2)
    res = run_to_fixed_point(config, ens, init=init)
    assert_same_run(res, plain_fixed_point(config, ens, init=init))
    assert res.stepped == res.iterations_used == 220


# the seven rows of the small-step benchmark sweep at seed 1: mu_max, the
# plain loop's iterations and the plain steps kept before the tail takes over
SWEEP_ROWS = [
    (1e-2, 220, 220),
    (10**-2.5, 664, 192),
    (1e-3, 1980, 192),
    (10**-3.5, 5875, 192),
    (1e-4, 17350, 192),
    (10**-4.5, 50973, 192),
    (1e-5, 148883, 192),
]


@pytest.mark.parametrize(
    "mu_max, iterations, stepped", SWEEP_ROWS, ids=[f"{mu:.3g}" for mu, _, _ in SWEEP_ROWS]
)
def test_sweep_rows_hand_over_as_soon_as_the_tail_allows(mu_max, iterations, stepped):
    # a long row is judged at 128, where it finds its basis, filtered by
    # powers of B; the first model, offered _PERIOD plain steps later, fits
    # the run and is accepted. The stepped
    # prefix is the plain loop's bit for bit. The plain loop's full run is
    # compared here on the two rows below 1,000 iterations and by
    # test_tail_reproduces_plain_loop_on_sweep_rows from 1e-3 to 1e-4; the two
    # longest rows would take it about 200,000 steps (some 6 s), and their
    # counts are the benchmark's reference counts of it
    config, ens, init = sweep_row(mu_max)
    res = assert_bit_identical(config, ens, init)
    assert (res.iterations_used, res.stepped, res.converged) == (iterations, stepped, True)
    if iterations < 1_000:
        assert_same_run(res, plain_fixed_point(config, ens, init=init))


def test_a_late_invariant_basis_is_fitted_against_the_iterate_a_period_back():
    # judged long at 128, this row's first two models, at 192 and 256, are
    # refused by the fit test, as the run's iterates a period apart still
    # leave the basis; the third, at 320, is fitted against the iterate at
    # 256 and accepted
    config, ens, init = sweep_row(1e-4, a_rule="metropolis", step_mode="equal")
    res = assert_bit_identical(config, ens, init)
    assert (res.iterations_used, res.stepped, res.converged) == (11_038, 320, True)


def test_the_loop_and_the_tail_share_one_stopping_test(monkeypatch):
    # the tail's count is the plain loop's because both stop by the same
    # per-node test: a plain run calls it from the loop alone, and a run that
    # hands over calls it from the loop and then from the tail's scan
    callers, passes = [], tail_module.passes

    def recorded(upd2, norms2, tol):
        callers.append(sys._getframe(1).f_code.co_name)
        return passes(upd2, norms2, tol)

    monkeypatch.setattr(diffusion_module, "passes", recorded)
    monkeypatch.setattr(tail_module, "passes", recorded)
    config, ens, init = sweep_row(1e-2)
    res = run_to_fixed_point(config, ens, init=init)
    assert res.stepped == res.iterations_used
    assert set(callers) == {"run_to_fixed_point"}
    callers.clear()
    config, ens, init = sweep_row(1e-3)
    res = run_to_fixed_point(config, ens, init=init)
    assert res.stepped < res.iterations_used
    assert set(callers) == {"run_to_fixed_point", "run"} and callers[-1] == "run"


def test_search_gives_an_orthonormal_invariant_basis():
    # orthonormal, node-major N*M x M and invariant under B to the search's
    # own residual test, by powers of B and filtered on the scenario's interval
    config, ens, _ = sweep_row(1e-3)
    op = _StepOperator(config.a1, config.a2, config.c, config.step_sizes, ens)
    n, m = ens.n, ens.dim
    for interval in (None, analyse_scenario(config, ens).slow_interval()):
        basis = _invariant_basis(op, interval)[0]
        assert basis.shape == (n * m, m)
        assert np.abs(basis.T @ basis - np.eye(m)).max() <= 1e-14
        bq = op.apply_linear(basis.reshape(n, m, m)).reshape(n * m, m)
        assert np.linalg.norm(bq - basis @ (basis.T @ bq)) <= 1e-13 * np.linalg.norm(bq)


def test_a_run_judged_short_at_128_is_judged_again_at_256(monkeypatch):
    # the acceptance-3 row at 1e-5 and tol 1e-14: its largest update falls
    # fast from iteration 64 to 128 and slowly after, so the first judgement
    # calls it short. Judged only then, it would step all of its iterations
    verdicts = []

    def judged(probe, worst, gate, span):
        verdicts.append((span, runs_long(probe, worst, gate, span)))
        return verdicts[-1][1]

    monkeypatch.setattr(diffusion_module, "runs_long", judged)
    config, ens, init = sweep_row(1e-5, a_rule="metropolis", step_mode="equal")
    res = run_to_fixed_point(config, ens, init=init, tol=1e-14)
    assert verdicts == [(PROBE_AT, False), (2 * PROBE_AT, True)]
    # judged long at 256, its basis fits the run _PERIOD plain steps on
    assert res.stepped == ENGAGE_AT + _PERIOD == 320
    assert (res.iterations_used, res.converged) == (110_303, True)


def test_a_tracker_refused_for_good_is_not_started_again(monkeypatch):
    # every search follows the Rotation operator, whose complex Ritz values
    # refuse its basis for good in the one search at the judgement, at
    # iteration 128; the run is not judged again at 256, and steps throughout
    searches = []

    def recorded(op, interval):
        searches.append(_invariant_basis(Rotation(), interval))
        return searches[-1]

    monkeypatch.setattr(diffusion_module, "_invariant_basis", recorded)
    config, ens, init = sweep_row(10**-3.5)
    res = run_to_fixed_point(config, ens, init=init)
    assert searches == [None]
    assert res.stepped == res.iterations_used == 5875


def test_repeated_slow_modes_finish_plain():
    # isotropic Hessians shared by every node repeat each slow mode M times
    topo = generate_topology(6, 3.0, seed=4)
    ens = CostEnsemble(
        costs=tuple(QuadraticCost(np.eye(2), np.array([k, 1.0 - k])) for k in range(6)), dim=2
    )
    config = atc_config(build_A(topo, "metropolis"), identity_combination(6), np.full(6, 1e-3))
    res = run_to_fixed_point(config, ens)
    assert_same_run(res, plain_fixed_point(config, ens))
    assert res.iterations_used > 4 * 1024
    assert res.stepped == res.iterations_used


def test_trace_through_the_tail():
    # the stepped prefix is the plain loop's bit for bit; the modelled final
    # update norm is the one the plain loop's trace reads at the same stop
    config, ens, init = sweep_row(1e-4)
    res = assert_bit_identical(config, ens, init)
    assert res.stepped < res.iterations_used
    updates = []
    ref = plain_fixed_point(config, ens, init=init, trace=lambda _, u: updates.append(u))
    assert_same_run(res, ref)
    assert res.final_update_norm == pytest.approx(updates[-1], rel=1e-4)


def test_tail_exhausting_max_iter():
    config, ens, init = sweep_row(1e-4)
    res = run_to_fixed_point(config, ens, init=init, max_iter=10_000)
    w, _, converged = plain_fixed_point(config, ens, init=init, max_iter=10_000)
    assert not res.converged and not converged
    assert res.iterations_used == 10_000
    assert res.stepped < res.iterations_used
    assert np.linalg.norm(res.w_infinity - w) <= 1e-10 * np.linalg.norm(w)


# --- the blocked loop against the plain loop ------------------------------------


def count_calls(monkeypatch, name):
    """A list that grows by one on every call of the step operator's ``name``."""
    calls = []
    method = getattr(_StepOperator, name)

    def counted(self, *args):
        calls.append(None)
        return method(self, *args)

    monkeypatch.setattr(_StepOperator, name, counted)
    return calls


@pytest.mark.parametrize("strategy", ["atc", "cta"])
def test_blocked_loop_is_the_plain_loop_bit_for_bit(strategy):
    config, ens, init = sweep_row(1e-2, strategy=strategy)
    res = assert_bit_identical(config, ens, init)
    assert res.converged


@pytest.mark.parametrize("max_iter", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_blocked_loop_stops_at_max_iter_inside_and_across_blocks(max_iter):
    config, ens, init = sweep_row(1e-2)
    res = assert_bit_identical(config, ens, init, max_iter=max_iter)
    assert res.iterations_used == max_iter and not res.converged


def test_every_judgement_and_offer_falls_at_a_block_end():
    # the loop reads, judges and offers only at the ends of blocks: the reads
    # at 64, 128 and 256 and the offers every _PERIOD steps from a judgement
    for at in (PROBE_AT, 2 * PROBE_AT, ENGAGE_AT, _PERIOD):
        assert at % _BLOCK == 0


@pytest.mark.parametrize(
    "mu_max, fields, tol, max_iter",
    [
        (1e-4, {}, 1e-12, 2 * PROBE_AT),
        (1e-5, dict(a_rule="metropolis", step_mode="equal"), 1e-14, ENGAGE_AT),
    ],
    ids=["judged-at-128", "judged-at-256"],
)
def test_a_run_judged_long_at_max_iter_searches_no_basis(
    monkeypatch, mu_max, fields, tol, max_iter
):
    # the judgement at max_iter itself could only serve iterations the run
    # may not take, so it takes no basis product; one iteration more and the
    # same run searches for its basis there
    products = count_calls(monkeypatch, "apply_linear")
    config, ens, init = sweep_row(mu_max, **fields)
    res = assert_bit_identical(config, ens, init, tol=tol, max_iter=max_iter)
    assert (res.iterations_used, res.converged) == (max_iter, False)
    assert products == []
    run_to_fixed_point(config, ens, init=init, tol=tol, max_iter=max_iter + 1)
    assert products


def test_result_owns_its_read_only_iterate():
    # a view would keep the whole block of iterates alive
    config, ens, init = sweep_row(1e-2)
    w = run_to_fixed_point(config, ens, init=init).w_infinity
    assert w.flags.owndata and not w.flags.writeable


SWAP22 = CombinationMatrix(np.array([[0.1, 0.9], [0.9, 0.1]]), kind="doubly_stochastic")


@pytest.mark.parametrize(
    "a, step_size, init",
    [
        # both squared updates overflow on the first step, and so does every
        # squared norm, which makes every per-node threshold infinite: the
        # divergence must be reported before the stopping test is read
        (identity_combination(2), 0.5, [[1e200], [1e155]]),
        # mixing swaps most of the two estimates, so the updates themselves
        # overflow, which numpy would warn of
        (SWAP22, 0.01, [[-1e308], [1.7e308]]),
    ],
)
def test_divergence_raises_at_the_first_non_finite_update(a, step_size, init):
    # the steps taken past the divergence must not warn either
    cfg = atc_config(a, identity_combination(2), np.full(2, step_size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as excinfo:
            run_to_fixed_point(cfg, two_scalar_ensemble(), init=init)
    assert (excinfo.value.node, excinfo.value.iteration) == (0, 1)


@pytest.mark.parametrize(
    "init, message",
    # a (1, M) state would broadcast over every node without the shape check
    [([[1.0], [np.nan]], "finite"), ([[1.0]], "state must have shape")],
)
def test_run_rejects_a_non_finite_or_misshapen_init(init, message):
    cfg = atc_config(identity_combination(2), identity_combination(2), np.full(2, 0.1))
    with pytest.raises(ValueError, match=message):
        run_to_fixed_point(cfg, two_scalar_ensemble(), init=init)


def test_blocked_loop_steps_at_most_one_block_past_the_stop(monkeypatch):
    applies = count_calls(monkeypatch, "apply")
    config, ens, init = sweep_row(1e-2)
    res = run_to_fixed_point(config, ens, init=init)
    assert res.iterations_used <= len(applies) <= res.iterations_used + _BLOCK - 1


def test_tail_spends_no_basis_products_on_the_overshoot(monkeypatch):
    # judged long at 128, the run's basis, filtered by powers of B, passes its
    # second invariance test 128 filter steps in; the first model, offered
    # _PERIOD plain steps later, at 192, is accepted. The search takes one
    # product per filter step and one per test
    products = count_calls(monkeypatch, "apply_linear")
    config, ens, init = sweep_row(1e-4)
    res = run_to_fixed_point(config, ens, init=init)
    assert res.stepped == 2 * PROBE_AT + _PERIOD
    assert len(products) == 2 * _PERIOD + 2 == 130


def test_filtered_basis_takes_no_products_once_invariant(monkeypatch):
    # the same row as the sweep runs it, its basis filtered on the scenario's
    # interval: invariant at its first test, 64 steps in, it takes 65
    # products in all, and the row is modelled with no plain step
    products = count_calls(monkeypatch, "apply_linear")
    config, ens, _ = sweep_row(1e-4)
    scenario = analyse_scenario(config, ens)
    res = analyse_scale(scenario, 1e-4, DEFAULT_TOL, DEFAULT_MAX_ITER)[0]
    assert res.stepped == 0
    assert len(products) == _PERIOD + 1 == 65


def test_a_tracked_run_takes_every_basis_product_at_the_judgement(monkeypatch):
    # the run is judged long at 128, at the end of its fourth block, and
    # there finds its basis in one search: all 130 products of the two
    # periods by powers of B come before the fifth block is stepped
    applies = count_calls(monkeypatch, "apply")
    apply_linear = _StepOperator.apply_linear
    stepped_at = []

    def counted(self, q):
        stepped_at.append(len(applies))
        return apply_linear(self, q)

    monkeypatch.setattr(_StepOperator, "apply_linear", counted)
    config, ens, init = sweep_row(1e-4)
    res = run_to_fixed_point(config, ens, init=init)
    assert stepped_at == [2 * PROBE_AT] * (2 * _PERIOD + 2)
    assert res.stepped == 2 * PROBE_AT + _PERIOD
