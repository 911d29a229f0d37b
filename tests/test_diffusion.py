import math

import numpy as np
import pytest
from plain_loop import plain_fixed_point

from diffpareto.costs import CostEnsemble, QuadraticCost, sample_ensemble, step_size_bounds
from diffpareto.diffusion import (
    DiffusionConfig,
    DivergenceError,
    atc_config,
    cta_config,
    run_to_fixed_point,
    step,
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


def test_validate_step_condition():
    ens = two_scalar_ensemble()
    eye = identity_combination(2)
    config = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([0.5, 1.5]))
    with pytest.raises(AssumptionError, match="node 1"):
        validate_step_condition(config, ens)  # bound is 2/2 = 1 at every node


# --- single steps ------------------------------------------------------------


def test_step_reduces_to_gradient_descent():
    eye = identity_combination(1)
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([0.1]))
    ens = CostEnsemble(costs=(scalar_cost(1.0),), dim=1)
    out = step(np.zeros((1, 1)), cfg, ens)
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
    assert np.abs(step(state, cfg, ens) - state).max() <= 1e-14


def test_step_atc_two_node_hand_values():
    # psi = (0.2, 0.6); combining with the transposed weights gives
    # w = (0.7*0.2 + 0.3*0.6, 0.4*0.2 + 0.6*0.6) = (0.32, 0.44)
    cfg = atc_config(A22, identity_combination(2), np.array([0.1, 0.1]))
    out = step(np.zeros((2, 1)), cfg, two_scalar_ensemble())
    assert np.allclose(out.ravel(), [0.32, 0.44], atol=1e-15)


def test_step_against_literal_recursion():
    # independent oracle: evaluate the three update stages entry by entry
    topo = generate_topology(5, 3.0, seed=3)
    a = build_A(topo, "averaging")
    c = build_C(topo, "relative_degree")
    ens = sample_ensemble(5, 2, 4, data_seed=5)
    mu = 0.01 * np.linspace(0.5, 1.0, 5)
    cfg = cta_config(a, c, mu)
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 2))
    phi = np.array([sum(a.matrix[l, k] * w[l] for l in range(5)) for k in range(5)])
    psi = np.array(
        [
            phi[k]
            - mu[k] * sum(c.matrix[l, k] * ens.costs[l].gradient(phi[k]) for l in range(5))
            for k in range(5)
        ]
    )
    expected = psi  # a2 is the identity for combine-then-adapt
    assert np.abs(step(w, cfg, ens) - expected).max() <= 1e-12


def test_step_divergence_error_reports_node():
    eye = identity_combination(1)
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([1.5]))
    ens = CostEnsemble(costs=(scalar_cost(1.0),), dim=1)
    w = np.zeros((1, 1))
    with pytest.raises(DivergenceError) as excinfo:
        for _ in range(5_000):  # |1 - 2*mu| = 2, so the iterate doubles each step
            w = step(w, cfg, ens)
    assert excinfo.value.node == 0


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
    moved = step(res.w_infinity, cfg, ens)
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


def test_run_validates_step_condition():
    eye = identity_combination(2)
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([0.5, 1.2]))
    with pytest.raises(AssumptionError):
        run_to_fixed_point(cfg, two_scalar_ensemble())


def test_trace_callback_sees_every_iteration():
    eye = identity_combination(1)
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([0.4]))
    ens = CostEnsemble(costs=(scalar_cost(1.0),), dim=1)
    seen = []
    res = run_to_fixed_point(cfg, ens, tol=1e-12, trace=lambda i, u: seen.append((i, u)))
    assert len(seen) == res.iterations_used
    assert seen[0][0] == 1
    assert all(u >= 0.0 for _, u in seen)


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


@pytest.mark.parametrize("mu_max, iterations", [(10**-3.5, 5875), (1e-4, 17350)])
def test_tail_reproduces_plain_loop_on_sweep_rows(mu_max, iterations):
    config, ens, init = sweep_row(mu_max)
    res = run_to_fixed_point(config, ens, init=init)
    assert_same_run(res, plain_fixed_point(config, ens, init=init))
    assert res.iterations_used == iterations
    assert res.stepped < res.iterations_used


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
    config, ens, init = sweep_row(1e-2)
    res = run_to_fixed_point(config, ens, init=init)
    assert_same_run(res, plain_fixed_point(config, ens, init=init))
    assert res.stepped == res.iterations_used == 220


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
    config, ens, init = sweep_row(1e-4)
    seen, plain = [], []
    res = run_to_fixed_point(config, ens, init=init, trace=lambda i, u: seen.append((i, u)))
    plain_fixed_point(config, ens, init=init, trace=lambda i, u: plain.append(u))
    assert [i for i, _ in seen] == list(range(1, res.iterations_used + 1))
    assert [u for _, u in seen[: res.stepped]] == plain[: res.stepped]
    assert seen[-1][1] == res.final_update_norm
    assert res.stepped < res.iterations_used


def test_tail_exhausting_max_iter():
    config, ens, init = sweep_row(1e-4)
    res = run_to_fixed_point(config, ens, init=init, max_iter=10_000)
    w, _, converged = plain_fixed_point(config, ens, init=init, max_iter=10_000)
    assert not res.converged and not converged
    assert res.iterations_used == 10_000
    assert res.stepped < res.iterations_used
    assert np.linalg.norm(res.w_infinity - w) <= 1e-10 * np.linalg.norm(w)
