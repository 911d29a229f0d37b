import dataclasses
import functools

import numpy as np
import pytest
from kron_reference import kron_reference, reference_answers, reference_radius

from diffpareto import bias as bias_module
from diffpareto import diffusion as diffusion_module
from diffpareto.bias import (
    analyse_scale,
    analyse_scenario,
    closed_form_bias,
    limit_bias,
    limit_operators,
    normalized_step_shape,
    scale_analysis,
    spectral_check,
)
from diffpareto.costs import (
    CostEnsemble,
    QuadraticCost,
    combine_hessians,
    global_optimum,
    sample_ensemble,
    stacked_gradient,
    step_size_bounds,
)
from diffpareto.diffusion import (
    DEFAULT_MAX_ITER,
    DiffusionConfig,
    atc_config,
    cta_config,
    lift,
    run_to_fixed_point,
)
from diffpareto.experiment import (
    ExperimentConfig,
    build_scenario,
    builtin_figure_configs,
    run_sweep,
)
from diffpareto.network import (
    A_RULES,
    C_RULES,
    AssumptionError,
    CombinationMatrix,
    build_A,
    build_C,
    generate_topology,
    identity_combination,
    perron_theta,
)

A22 = CombinationMatrix(np.array([[0.7, 0.4], [0.3, 0.6]]), kind="left_stochastic")


def scalar_cost(target: float) -> QuadraticCost:
    return QuadraticCost(np.array([[1.0]]), np.array([target]))


def two_node_config(mu: float = 0.01) -> tuple[DiffusionConfig, CostEnsemble]:
    """Analytic case: mixing by A22 only, no gradient exchange, equal steps."""
    eye = identity_combination(2)
    cfg = DiffusionConfig(a1=A22, a2=eye, c=eye, step_sizes=np.array([mu, mu]))
    ens = CostEnsemble(costs=(scalar_cost(1.0), scalar_cost(3.0)), dim=1)
    return cfg, ens


def random_valid_config(index: int) -> tuple[DiffusionConfig, CostEnsemble]:
    n = (5, 8, 10)[index % 3]
    m = (2, 3)[index % 2]
    topo = generate_topology(n, 3.0, seed=500 + index)
    ens = sample_ensemble(n, m, m + 2, data_seed=600 + index)
    a = build_A(topo, ("averaging", "relative_degree", "metropolis")[index % 3])
    c = build_C(topo, ("averaging", "relative_degree", "identity")[(index + 1) % 3])
    make = atc_config if index % 2 == 0 else cta_config
    shape = np.linspace(0.6, 1.0, n) if index % 4 < 2 else np.ones(n)
    mu = 0.25 * float((step_size_bounds(c, ens) / shape).min())
    return make(a, c, mu * shape), ens


def lifted_gains(cfg: DiffusionConfig, ens: CostEnsemble, step_sizes) -> np.ndarray:
    """B at the given step sizes: the gains I - mu_k R_k lifted through a1 and a2."""
    mu = np.asarray(step_sizes, dtype=float)[:, None, None]
    return lift(cfg.a1, cfg.a2, np.eye(ens.dim) - mu * combine_hessians(cfg.c, ens))


# --- block Hessians ----------------------------------------------------------


def test_r_infinity_identity_exchange_scalar():
    _, ens = two_node_config()
    out = combine_hessians(identity_combination(2), ens)
    assert np.array_equal(out, [[[2.0]], [[2.0]]])


def test_r_infinity_blockdiag_structure():
    # with an identity C every node keeps its own Hessian, bit for bit
    ens = sample_ensemble(4, 3, 5, data_seed=44)
    out = combine_hessians(identity_combination(4), ens)
    assert out.shape == (4, 3, 3)
    for k in range(4):
        assert np.array_equal(out[k], ens.costs[k].hessian())


def test_r_infinity_blocks_positive_definite():
    topo = generate_topology(6, 3.0, seed=8)
    c = build_C(topo, "averaging")
    ens = sample_ensemble(6, 2, 4, data_seed=8)
    out = combine_hessians(c, ens)
    for k in range(6):
        expected = sum(c.matrix[l, k] * ens.costs[l].hessian() for l in range(6))
        assert np.abs(out[k] - expected).max() <= 1e-13
        assert np.linalg.eigvalsh(out[k]).min() > 0.0


# --- closed form vs iteration -------------------------------------------------


def test_closed_form_zero_for_identical_costs():
    topo = generate_topology(5, 3.0, seed=3)
    a = build_A(topo, "averaging")
    c = build_C(topo, "averaging")
    shared = QuadraticCost(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 2.0]))
    ens = CostEnsemble(costs=(shared,) * 5, dim=2)
    cfg = atc_config(a, c, np.full(5, 0.05))
    assert np.abs(closed_form_bias(cfg, ens)).max() <= 1e-12


def test_closed_form_matches_iterated_fixed_point():
    cfg, ens = two_node_config(mu=0.01)
    res = run_to_fixed_point(cfg, ens, tol=1e-14)
    assert res.converged
    empirical = (global_optimum(ens)[None, :] - res.w_infinity).ravel()
    assert np.linalg.norm(closed_form_bias(cfg, ens) - empirical) <= 1e-10


def test_closed_form_scales_linearly_under_assumption3():
    topo = generate_topology(10, 3.0, seed=31)
    a = build_A(topo, "metropolis")
    c = build_C(topo, "relative_degree")
    ens = sample_ensemble(10, 2, 4, data_seed=31)
    lo = atc_config(a, c, np.full(10, 5e-4))
    hi = atc_config(a, c, np.full(10, 1e-3))
    ratio = np.linalg.norm(closed_form_bias(lo, ens)) / np.linalg.norm(
        closed_form_bias(hi, ens)
    )
    assert ratio == pytest.approx(0.5, rel=0.05)


@pytest.mark.parametrize("index", range(5))
def test_error_propagation_and_closed_form_match_kron_build(index):
    cfg, ens = random_valid_config(index % 4)
    if index == 4:
        # neither combination factor is the identity
        a = build_A(generate_topology(cfg.n, 3.0, seed=504), "metropolis")
        cfg = DiffusionConfig(a1=a, a2=cfg.a2, c=cfg.c, step_sizes=cfg.step_sizes)
    b, rhs = kron_reference(cfg, ens)
    built = lifted_gains(cfg, ens, cfg.step_sizes)
    if index < 4:
        # ATC and CTA: every entry of B is one product, so the build is exact
        assert np.array_equal(built, b)
    else:
        assert np.abs(built - b).max() <= 1e-14
    expected = np.linalg.solve(np.eye(rhs.shape[0]) - b, rhs)
    gap = np.linalg.norm(closed_form_bias(cfg, ens) - expected)
    assert gap <= 1e-10 * (1.0 + np.linalg.norm(expected))


@pytest.mark.parametrize("kind", ["atc", "cta", "general"])
def test_step_is_lifted_matrix_plus_offset(kind):
    # the recursion is affine: its first step from w is B vec(w) plus its
    # first step from zero, B the lifted gains
    cfg, ens = random_valid_config(0 if kind == "atc" else 1)
    if kind == "general":
        a = build_A(generate_topology(cfg.n, 3.0, seed=504), "metropolis")
        cfg = DiffusionConfig(a1=cfg.a1, a2=a, c=cfg.c, step_sizes=cfg.step_sizes)
    assert np.array_equal(cfg.a1.matrix, np.eye(cfg.n)) == (kind == "atc")
    assert np.array_equal(cfg.a2.matrix, np.eye(cfg.n)) == (kind == "cta")
    w = np.random.default_rng(7).normal(size=(ens.n, ens.dim))
    first = run_to_fixed_point(cfg, ens, init=w, max_iter=1).w_infinity
    offset = run_to_fixed_point(cfg, ens, init=np.zeros_like(w), max_iter=1).w_infinity
    expected = lifted_gains(cfg, ens, cfg.step_sizes) @ w.ravel() + offset.ravel()
    assert np.abs(first.ravel() - expected).max() <= 1e-14


# --- limit operators -----------------------------------------------------------


def test_limit_operators_two_node_hand_values():
    cfg, ens = two_node_config()
    ops = limit_operators(cfg, ens)
    assert np.allclose(ops.node_weights, [4 / 7, 3 / 7], atol=1e-12)
    assert np.allclose(ops.agg_hessian_inv, [[0.5]], atol=1e-12)
    with pytest.raises(ValueError, match="node weights must be nonnegative"):
        dataclasses.replace(ops, node_weights=np.array([-1 / 7, 8 / 7]))


def test_limit_operators_doubly_stochastic_uniform_hessians():
    topo = generate_topology(6, 3.0, seed=17)
    a = build_A(topo, "metropolis")
    ens = CostEnsemble(costs=(QuadraticCost(np.eye(2), np.zeros(2)),) * 6, dim=2)
    cfg = atc_config(a, identity_combination(6), np.full(6, 0.1))
    ops = limit_operators(cfg, ens)
    assert np.allclose(ops.agg_hessian_inv, 0.5 * np.eye(2), atol=1e-9)


@pytest.mark.parametrize("index", range(6))
def test_limit_operator_identities(index):
    cfg, ens = random_valid_config(index)
    ops = limit_operators(cfg, ens)
    assert np.abs(ops.resolvent_limit @ ops.mixing_gap).max() <= 1e-8
    assert np.abs(ops.mixing_gap @ ops.resolvent_limit).max() <= 1e-8
    m = ens.dim
    theta = perron_theta(cfg.a1, cfg.a2).theta
    ones_lift = np.kron(np.ones((ens.n, 1)), np.eye(m))
    agg = np.kron(theta[None, :], np.eye(m)) @ ops.curvature @ ones_lift
    assert np.abs(ops.agg_hessian_inv @ agg - np.eye(m)).max() <= 1e-8
    assert (ops.node_weights >= 0.0).all()
    assert np.linalg.matrix_rank(ops.resolvent_limit) == m


# --- limit bias -----------------------------------------------------------------


def test_limit_bias_zero_under_assumption3():
    topo = generate_topology(12, 3.0, seed=23)
    a = build_A(topo, "metropolis")
    c = build_C(topo, "averaging")
    ens = sample_ensemble(12, 3, 5, data_seed=23)
    cfg = atc_config(a, c, np.full(12, 0.01))
    assert np.linalg.norm(limit_bias(cfg, ens)) <= 1e-10


def test_limit_bias_two_node_exact():
    cfg, ens = two_node_config()
    value = limit_bias(cfg, ens)
    assert abs(value[0] - 1.0 / 7.0) <= 1e-12


def test_limit_bias_scale_free():
    cfg, ens = random_valid_config(1)
    scaled = cfg.with_step_sizes(0.37 * cfg.step_sizes)
    assert np.allclose(limit_bias(cfg, ens), limit_bias(scaled, ens), atol=1e-13)


@pytest.mark.parametrize("index", range(4))
def test_limit_bias_weighted_least_squares_oracle(index):
    # independent route: the limit equals w_star minus the minimizer of the
    # z-through-c weighted sum of the costs
    cfg, ens = random_valid_config(index)
    theta = perron_theta(cfg.a1, cfg.a2).theta
    z = normalized_step_shape(cfg.step_sizes) * (cfg.a2.matrix @ theta)
    weights = cfg.c.matrix @ z
    gram = sum(
        w * (c.x_matrix.T @ c.x_matrix) for w, c in zip(weights, ens.costs)
    )
    rhs = sum(w * (c.x_matrix.T @ c.y_vector) for w, c in zip(weights, ens.costs))
    weighted_min = np.linalg.solve(gram, rhs)
    expected = global_optimum(ens) - weighted_min
    assert np.linalg.norm(limit_bias(cfg, ens) - expected) <= 1e-10


def refined_solve(a, b):
    """The solution of a x = b in np.longdouble: a double solve refined twice
    with residuals taken in np.longdouble."""
    a, b = np.asarray(a, np.longdouble), np.asarray(b, np.longdouble)
    x = np.linalg.solve(a.astype(float), b.astype(float)).astype(np.longdouble)
    for _ in range(2):
        x += np.linalg.solve(a.astype(float), (b - a @ x).astype(float))
    return x


def refined_limit(scenario) -> np.ndarray:
    """The small-step limit of a scenario's double inputs, with theta (the
    bordered system), w* and the limit solve all refined in np.longdouble."""
    cfg, ens = scenario.config, scenario.ensemble
    a1, a2, c = (x.matrix.astype(np.longdouble) for x in (cfg.a1, cfg.a2, cfg.c))
    bordered = a1 @ a2 - np.eye(ens.n, dtype=np.longdouble)
    bordered[-1, :] = 1.0
    theta = refined_solve(bordered, np.eye(ens.n)[-1])
    hessians, offsets = ens.hessians.astype(np.longdouble), ens.offsets.astype(np.longdouble)
    w_star = refined_solve(hessians.sum(axis=0), offsets.sum(axis=0))
    steps = cfg.step_sizes.astype(np.longdouble)
    weights = c @ (steps / steps.max() * (a2 @ theta))
    gradients = hessians @ w_star - offsets
    return refined_solve(
        np.einsum("l,lij->ij", weights, hessians), np.einsum("l,li->i", weights, gradients)
    )


def test_limit_column_against_a_refined_reference_on_the_figures_scenarios():
    # the 12 built-in N=50 scenarios: the column, N |limit|^2, within 1e-13
    # relative where the limit is not zero (3.2e-14 at most measured); where
    # Assumption 3 makes it zero, the limit is rounding noise, at most the
    # scenario's own floor (about 5e-17 against 1.25e-14)
    zero_rows = 0
    for configs in builtin_figure_configs().values():
        for config in configs:
            scenario = build_scenario(config)
            reference = refined_limit(scenario)
            got = scenario.limit_bias
            if scenario.assumption3.satisfied:
                zero_rows += 1
                floor = scenario.limit_floor()
                assert np.linalg.norm(got) <= floor
                assert float(np.linalg.norm(got - reference)) <= floor
                continue
            column = config.n_nodes * float(got @ got)
            exact = config.n_nodes * float(reference @ reference)
            assert abs(column - exact) <= 1e-13 * exact
    assert zero_rows == 2


# --- limit convergence -----------------------------------------------------------


def limit_convergence_table(cfg, ens, schedule) -> list[tuple[float, float]]:
    """(mu_max, distance from the closed-form bias to the replicated limit),
    with the step shape frozen and mu_max walking down the schedule."""
    omega0 = normalized_step_shape(cfg.step_sizes)
    replicated = np.tile(limit_bias(cfg, ens), ens.n)
    table = []
    for mu in schedule:
        closed = closed_form_bias(cfg.with_step_sizes(mu * omega0), ens)
        table.append((mu, float(np.linalg.norm(closed - replicated))))
    return table


def test_verify_limit_convergence_two_node():
    cfg, ens = two_node_config(mu=0.01)
    table = limit_convergence_table(cfg, ens, [1e-2, 1e-3, 1e-4])
    mus = [mu for mu, _ in table]
    devs = [dev for _, dev in table]
    assert mus == [1e-2, 1e-3, 1e-4]
    assert devs[1] <= devs[0] and devs[2] <= devs[1]
    # first-order convergence: one decade in mu shrinks the gap about tenfold
    assert devs[0] / devs[1] == pytest.approx(10.0, rel=0.3)
    assert devs[1] / devs[2] == pytest.approx(10.0, rel=0.3)


def test_verify_limit_convergence_assumption3_bias_shrinks():
    topo = generate_topology(8, 3.0, seed=41)
    a = build_A(topo, "metropolis")
    c = build_C(topo, "averaging")
    ens = sample_ensemble(8, 2, 4, data_seed=41)
    cfg = atc_config(a, c, np.full(8, 1e-3))
    table = limit_convergence_table(cfg, ens, [1e-3, 1e-4, 1e-5])
    devs = [dev for _, dev in table]
    # the limit is zero here, so the deviation is the bias norm itself
    assert devs[0] / devs[1] == pytest.approx(10.0, rel=0.3)


# --- spectral diagnostics ---------------------------------------------------------


def test_spectral_check_below_one_for_valid_config():
    cfg, ens = random_valid_config(0)
    assert spectral_check(cfg, ens) < 1.0


def test_error_propagation_at_zero_steps_has_unit_radius():
    cfg, ens = random_valid_config(2)
    b = lifted_gains(cfg, ens, np.zeros(ens.n))
    assert np.abs(np.linalg.eigvals(b)).max() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu_max", [1e-4, 10**-4.5, 1e-5])
def test_spectral_radius_exact_for_clustered_small_step_spectrum(mu_max):
    # at small steps this sweep scenario's eigenvalues cluster just below
    # one; the spectral_radius CSV column must still match eigvals to 1% of 1 - rho
    config = ExperimentConfig(
        strategy="atc",
        a_rule="averaging",
        c_rule="relative_degree",
        step_mode="unequal_uniform_half",
        mu_max_schedule=(mu_max,),
    )
    scenario = build_scenario(config)
    ens = scenario.ensemble
    cfg = scenario.at_scale(mu_max)
    _, rho = scale_analysis(scenario, mu_max)
    b, _ = kron_reference(cfg, ens)
    reference = float(np.abs(np.linalg.eigvals(b)).max())
    assert abs(rho - reference) <= 0.01 * (1.0 - reference)


def test_spectral_check_warns_beyond_step_bound():
    eye = identity_combination(1)
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([1.5]))
    ens = CostEnsemble(costs=(scalar_cost(1.0),), dim=1)
    with pytest.warns(RuntimeWarning, match="spectral radius"):
        rho = spectral_check(cfg, ens)
    assert rho == pytest.approx(2.0, abs=1e-9)  # |1 - 1.5 * 2|


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Shapes of the matrices the package hands to np.linalg.eigvals."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def test_non_reversible_mixing_falls_back_to_eigvals(eigvals_calls):
    # two non-identity factors, Metropolis then averaging: P = a2 a1 is
    # not reversible, P diag(pi) is asymmetric at a tenth of its largest entry
    topo = generate_topology(8, 3.0, seed=3)
    ens = sample_ensemble(8, 2, 4, data_seed=3)
    c = build_C(topo, "averaging")
    a1, a2 = build_A(topo, "metropolis"), build_A(topo, "averaging")
    mu = 0.1 * float(step_size_bounds(c, ens).min())
    cfg = DiffusionConfig(a1=a1, a2=a2, c=c, step_sizes=np.full(8, mu))
    pi = a2.matrix @ perron_theta(a1, a2).theta
    flow = a2.matrix @ a1.matrix * pi
    assert np.abs(flow - flow.T).max() > 0.05 * flow.max()
    _, rho = scale_analysis(analyse_scenario(cfg, ens), mu)
    checked = spectral_check(cfg, ens)
    assert eigvals_calls == [(16, 16), (16, 16)]
    reference = reference_radius(cfg, ens)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert checked == rho


def test_steps_beyond_half_the_bound_fall_back_to_eigvals(eigvals_calls):
    # above half of its bound a node's gain block is not positive definite,
    # so it has no Cholesky factor; the radius is still below one
    topo = generate_topology(8, 3.0, seed=4)
    ens = sample_ensemble(8, 3, 5, data_seed=4)
    c = build_C(topo, "relative_degree")
    cfg = atc_config(build_A(topo, "metropolis"), c, 0.75 * step_size_bounds(c, ens))
    _, rho = scale_analysis(analyse_scenario(cfg, ens), cfg.step_sizes.max())
    checked = spectral_check(cfg, ens)
    assert eigvals_calls == [(24, 24), (24, 24)]
    reference = reference_radius(cfg, ens)
    assert rho < 1.0
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert checked == rho


def test_non_primitive_mixing_falls_back_to_eigvals(eigvals_calls):
    # with no mixing at all the composite has no Perron vector, so a call
    # without theta still takes its radius from eigvals on B
    ens = sample_ensemble(3, 2, 4, data_seed=5)
    eye = identity_combination(3)
    mu = 0.1 * float(step_size_bounds(eye, ens).min())
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.full(3, mu))
    rho = spectral_check(cfg, ens)
    assert eigvals_calls == [(6, 6)]
    reference = reference_radius(cfg, ens)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)


def test_non_primitive_composite_raises_only_where_theta_is_needed(eigvals_calls):
    # with a1 = a2 = I the scenario records no Perron vector; what rests on
    # it raises Assumption 2, the closed form still comes from eigvals on B
    ens = sample_ensemble(3, 2, 4, data_seed=5)
    eye = identity_combination(3)
    mu = 0.1 * float(step_size_bounds(eye, ens).min())
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.full(3, mu))
    scenario = analyse_scenario(cfg, ens)
    assert scenario.theta is None and scenario.limit_bias is None and scenario.mixing is None
    with pytest.raises(AssumptionError, match="Assumption 2"):
        scenario.require_primitive()
    for call in (limit_bias, limit_operators):
        with pytest.raises(AssumptionError, match="Assumption 2"):
            call(cfg, ens)
    assert eigvals_calls == []
    closed = closed_form_bias(cfg, ens)
    assert eigvals_calls == [(6, 6)]
    b, rhs = kron_reference(cfg, ens)
    expected = np.linalg.solve(np.eye(6) - b, rhs)
    assert np.linalg.norm(closed - expected) <= 1e-10 * (1.0 + np.linalg.norm(expected))


def test_perron_vector_with_a_zero_entry_falls_back_to_eigvals(eigvals_calls):
    # a2 sends everything to node 0, so pi = a2 theta = (1, 0): P is
    # primitive but S = D^-1/2 P D^1/2 does not exist
    a1 = CombinationMatrix(np.full((2, 2), 0.5), kind="doubly_stochastic")
    a2 = CombinationMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]), kind="left_stochastic")
    cfg = DiffusionConfig(a1=a1, a2=a2, c=identity_combination(2), step_sizes=np.full(2, 0.01))
    ens = sample_ensemble(2, 2, 4, 5)
    assert analyse_scenario(cfg, ens).mixing is None
    rho = spectral_check(cfg, ens)
    assert eigvals_calls == [(4, 4)]
    reference = reference_radius(cfg, ens)
    assert reference == pytest.approx(0.9275534, abs=1e-7)
    assert rho == pytest.approx(reference, abs=1e-12)


# --- the matrix-free route ---------------------------------------------------------


def count_dense_operands(monkeypatch) -> dict[str, list[int]]:
    """From here on, the N*M of each C that ``_SlowModes.form`` builds, under
    "form", and the N of each S whose eigenvalues ``Scenario.mixing_spectrum``
    takes, under "mixing_spectrum": the two ways a step scale of a reversible
    scenario reaches a dense eigensolver of order N*M or N."""
    calls = {"form": [], "mixing_spectrum": []}
    form, spectrum = bias_module._SlowModes.form, bias_module.Scenario.mixing_spectrum.func

    def counted_form(modes):
        c = form(modes)
        calls["form"].append(len(c))
        return c

    def counted_spectrum(scenario):
        calls["mixing_spectrum"].append(len(scenario.mixing))
        return spectrum(scenario)

    counted = functools.cached_property(counted_spectrum)
    counted.__set_name__(bias_module.Scenario, "mixing_spectrum")
    monkeypatch.setattr(bias_module._SlowModes, "form", counted_form)
    monkeypatch.setattr(bias_module.Scenario, "mixing_spectrum", counted)
    return calls


@pytest.fixture
def counts(monkeypatch):
    """``count_dense_operands``, and under "lift" the N*M of each lift."""
    calls = {"lift": [], **count_dense_operands(monkeypatch)}
    lift_ = bias_module.lift

    def counted_lift(a1, a2, blocks):
        calls["lift"].append(blocks.shape[0] * blocks.shape[1])
        return lift_(a1, a2, blocks)

    monkeypatch.setattr(bias_module, "lift", counted_lift)
    return calls


@pytest.fixture
def matrix_free(monkeypatch, counts):
    """``counts``, with every reversible step scale analysed from here on
    taking the matrix-free route, and under "slow" the slow Ritz vectors
    that deflate each CG run."""
    monkeypatch.setattr(bias_module, "MATRIX_FREE_NM", 0)
    counts["slow"] = []
    deflated_cg = bias_module._SlowModes._deflated_cg

    def recorded(modes, b, slow):
        counts["slow"].append(slow)
        return deflated_cg(modes, b, slow)

    monkeypatch.setattr(bias_module._SlowModes, "_deflated_cg", recorded)
    return counts


RULE_SCALES = (1e-2, 1e-4, 1e-5)


def rule_case(strategy: str, a_rule: str, c_rule: str) -> ExperimentConfig:
    return ExperimentConfig(
        strategy=strategy,
        a_rule=a_rule,
        c_rule=c_rule,
        step_mode="unequal_uniform_half",
        mu_max_schedule=(1e-2,),
    )


@functools.cache
def rule_case_answers(strategy: str, a_rule: str, c_rule: str, mu_max: float):
    """``reference_answers`` of a rule case at one scale, built once for both
    routes."""
    scenario = build_scenario(rule_case(strategy, a_rule, c_rule))
    return reference_answers(scenario.at_scale(mu_max), scenario.ensemble)


def rule_cases(test):
    """Parametrize a test over the 18 ATC/CTA x rule cases of ``rule_case``."""
    for name, values in (("strategy", ["atc", "cta"]), ("a_rule", A_RULES), ("c_rule", C_RULES)):
        test = pytest.mark.parametrize(name, values)(test)
    return test


def check_symmetric_route(route, strategy, a_rule, c_rule, counts, eigvals_calls) -> None:
    """Every built-in rule is reversible under ATC and CTA, so neither route
    runs eigvals or lifts B. rho stays within 1e-9 (1 - rho) of the reference
    even where the spectrum clusters just below one, and the closed form within
    1e-10 relative. On block Lanczos and deflated CG, C is never formed and the
    Gershgorin bound on lambda_min(S) certifies every radius, so neither C nor S
    goes to an eigensolver. The slow Ritz vectors that deflate CG
    are orthonormal to working precision, which takes the full
    reorthogonalisation: without it they drift to 1e-13."""
    scenario = build_scenario(rule_case(strategy, a_rule, c_rule))
    ens = scenario.ensemble
    for mu_max in RULE_SCALES:
        cfg = scenario.at_scale(mu_max)
        closed, rho = scale_analysis(scenario, mu_max)
        checked = spectral_check(cfg, ens)
        expected, reference = rule_case_answers(strategy, a_rule, c_rule, mu_max)
        assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
        assert abs(checked - reference) <= 1e-9 * (1.0 - reference)
        assert np.linalg.norm(closed - expected) <= 1e-10 * np.linalg.norm(expected)
    assert eigvals_calls == []
    assert counts["lift"] == []
    if route == "matrix_free":
        assert counts["form"] == counts["mixing_spectrum"] == []
        assert len(counts["slow"]) == len(RULE_SCALES)
        for slow in counts["slow"]:
            assert np.abs(slow.T @ slow - np.eye(ens.dim)).max() <= 1e-14


@rule_cases
def test_symmetric_radius_matches_eigvals(strategy, a_rule, c_rule, counts, eigvals_calls):
    # below the crossover: the dense route
    check_symmetric_route("dense", strategy, a_rule, c_rule, counts, eigvals_calls)


@rule_cases
def test_matrix_free_route_matches_the_kron_reference(
    strategy, a_rule, c_rule, matrix_free, eigvals_calls
):
    # the same cases forced onto block Lanczos and deflated CG
    check_symmetric_route("matrix_free", strategy, a_rule, c_rule, matrix_free, eigvals_calls)


@pytest.mark.parametrize("cap", ["LANCZOS_STEPS", "CG_STEPS"])
def test_matrix_free_run_at_its_cap_falls_back_to_the_dense_route(cap, matrix_free, monkeypatch):
    # one Lanczos step or one CG iteration cannot converge here; the answer is
    # then the dense route's, from C formed once for each answer the run could
    # not give (rho and the closed form, or the closed form alone), and B is
    # never lifted
    scenario = build_scenario(rule_case("atc", "metropolis", "relative_degree"))
    monkeypatch.setattr(bias_module, "MATRIX_FREE_NM", float("inf"))
    dense_closed, dense_rho = scale_analysis(scenario, 1e-3)
    monkeypatch.setattr(bias_module, "MATRIX_FREE_NM", 0)
    matrix_free["form"].clear()
    monkeypatch.setattr(bias_module, cap, 1)
    closed, rho = scale_analysis(scenario, 1e-3)
    assert matrix_free["lift"] == []
    assert matrix_free["form"] == {"LANCZOS_STEPS": [200, 200], "CG_STEPS": [200]}[cap]
    assert np.array_equal(closed, dense_closed)
    assert abs(rho - dense_rho) <= 1e-9 * (1.0 - dense_rho)


def negative_end_case() -> tuple[DiffusionConfig, CostEnsemble]:
    """Three nodes mixing on a triangle, so lambda_min(S) = -1/2, each gain
    nearly the projector on its own direction, the three 120 degrees apart:
    B's eigenvalue largest in modulus is -0.475, while lambda_max(C) is about
    0.32. Every step is 0.1."""
    mu, costs = 0.1, []
    for k in range(3):
        d = np.array([np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])
        gain = 0.95 * np.outer(d, d) + 0.05 * (np.eye(2) - np.outer(d, d))
        lam, vecs = np.linalg.eigh((np.eye(2) - gain) / (2 * mu))
        costs.append(QuadraticCost(vecs * np.sqrt(lam) @ vecs.T, np.array([1.0 + k, -k])))
    ens = CostEnsemble(costs=tuple(costs), dim=2)
    triangle = CombinationMatrix((np.ones((3, 3)) - np.eye(3)) / 2, kind="doubly_stochastic")
    eye = identity_combination(3)
    return DiffusionConfig(a1=triangle, a2=eye, c=eye, step_sizes=np.full(3, mu)), ens


def test_matrix_free_radius_defers_to_dense_when_the_negative_end_may_lead(matrix_free):
    # ``negative_end_case``: Lanczos finds the top end only. The Gershgorin
    # bound -1 cannot certify it, so the exact lambda_min(S) of -1/2 is taken,
    # and it cannot either; rho then comes from the dense symmetric route, on C
    # formed, and the closed form, with no Ritz vectors, forms C again
    cfg, ens = negative_end_case()
    closed, rho = scale_analysis(analyse_scenario(cfg, ens), 0.1)
    eigs = np.linalg.eigvals(kron_reference(cfg, ens)[0])
    assert eigs[np.argmax(np.abs(eigs))].real == pytest.approx(-0.475, abs=1e-9)
    assert eigs.real.max() < 0.33
    expected, reference = reference_answers(cfg, ens)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert matrix_free["mixing_spectrum"] == [3]
    assert matrix_free["form"] == [6, 6]
    assert np.linalg.norm(closed - expected) <= 1e-10 * np.linalg.norm(expected)


def test_lanczos_ritz_checks_run_no_eigh_larger_than_m(matrix_free, monkeypatch):
    # each Ritz check takes T's eigenvalues from eigvalsh and its top M Ritz
    # vectors from block inverse iteration, so the one eigh left is the M x M
    # Rayleigh-Ritz of that block, never one of T itself
    scenario = build_scenario(rule_case("atc", "metropolis", "relative_degree"))
    shapes, eigh = [], np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    for mu_max in RULE_SCALES:
        scale_analysis(scenario, mu_max)
    assert matrix_free["form"] == []
    assert len(matrix_free["slow"]) == len(RULE_SCALES)
    assert shapes and set(shapes) == {(4, 4)}


@pytest.mark.parametrize("k, m", [(3, 1), (4, 2), (20, 4)])
def test_top_ritz_block_leads_with_the_top_eigenvector_and_restores_t(k, m):
    # a random symmetric t whose top gap is 1e-6 of its spectrum's width: the
    # block is orthonormal, t's Rayleigh-Ritz projection on it is diagonal and
    # ascending, its last column is t's top eigenvector, and t is unchanged
    rng = np.random.default_rng(k)
    t = rng.standard_normal((k * m, k * m))
    theta, vecs = np.linalg.eigh(t + t.T)
    theta[-1] = theta[-2] + 1e-6 * (theta[-1] - theta[0])
    t = (vecs * theta) @ vecs.T
    t = 0.5 * (t + t.T)
    before = t.copy()
    block = bias_module._top_ritz_block(t, np.linalg.eigvalsh(t), m)
    assert np.array_equal(t, before)
    assert np.abs(block.T @ block - np.eye(m)).max() <= 1e-14
    ritz = block.T @ t @ block
    scale = np.abs(theta).max()
    assert np.abs(ritz - np.diag(ritz.diagonal())).max() <= 1e-14 * scale
    assert (np.diff(ritz.diagonal()) >= 0.0).all()
    assert abs(ritz[-1, -1] - theta[-1]) <= 1e-14 * scale
    assert abs(abs(block[:, -1] @ vecs[:, -1]) - 1.0) <= 1e-12


def test_lanczos_whose_shifted_solve_fails_falls_back_to_the_dense_route(
    matrix_free, monkeypatch
):
    # a singular shifted T leaves every Ritz check unconverged, so Lanczos
    # reaches its cap and C is formed for rho and for the closed form, as at
    # the Lanczos cap
    scenario = build_scenario(rule_case("atc", "metropolis", "relative_degree"))
    monkeypatch.setattr(bias_module, "MATRIX_FREE_NM", float("inf"))
    dense_closed, dense_rho = scale_analysis(scenario, 1e-3)
    monkeypatch.setattr(bias_module, "MATRIX_FREE_NM", 0)
    matrix_free["form"].clear()

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(bias_module, "_top_ritz_block", singular)
    closed, rho = scale_analysis(scenario, 1e-3)
    assert matrix_free["form"] == [200, 200]
    assert matrix_free["slow"] == []
    assert np.array_equal(closed, dense_closed) and rho == dense_rho


# the benchmark's N = 200 scenario (N*M = 800), above MATRIX_FREE_NM
BENCHMARK_N200 = ExperimentConfig(
    strategy="atc",
    a_rule="metropolis",
    c_rule="relative_degree",
    step_mode="unequal_uniform_half",
    mu_max_schedule=(1e-2, 1e-3),
    n_nodes=200,
    topology_seed=1,
    data_seed=2,
    step_seed=3,
)


@pytest.mark.parametrize("mu_max", BENCHMARK_N200.mu_max_schedule)
def test_lanczos_at_two_hundred_nodes_matches_the_formed_c(mu_max, counts, monkeypatch):
    # at the default crossover the scale runs matrix-free; rho stays within
    # 1e-9 (1 - rho) of the dense route's, the largest |eigvalsh| of the formed
    # C, and the closed form within 1e-10 relative of the dense solve through C
    # formed again
    scenario = build_scenario(BENCHMARK_N200)
    closed, rho = scale_analysis(scenario, mu_max)
    assert counts["form"] == counts["mixing_spectrum"] == []
    monkeypatch.setattr(bias_module, "MATRIX_FREE_NM", float("inf"))
    dense_closed, reference = scale_analysis(scenario, mu_max)
    assert counts["form"] == [800, 800]
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert np.linalg.norm(closed - dense_closed) <= 1e-10 * np.linalg.norm(dense_closed)


def test_dense_symmetric_closed_form_within_2e_12_of_a_refined_reference():
    # the worst of the 84 default figures rows for the solve through the formed
    # C, off by 9.4e-13 relative; the reference is the dense solve through B,
    # refined once with the residual of B taken in longdouble from the same gains
    scenario = build_scenario(rule_case("atc", "metropolis", "relative_degree"))
    cfg = scenario.at_scale(1e-5)
    n, m, _ = scenario.combined_hessians.shape
    gain = np.eye(m) - cfg.step_sizes[:, None, None] * scenario.combined_hessians
    rhs = (cfg.a2.matrix.T @ (cfg.step_sizes[:, None] * scenario.combined_gradients)).ravel()
    blocks = np.zeros((n, m, n, m), dtype=np.longdouble)
    blocks[np.arange(n), :, np.arange(n), :] = gain
    eye = np.eye(m, dtype=np.longdouble)
    a1t, a2t = (np.kron(a.matrix.T.astype(np.longdouble), eye) for a in (cfg.a1, cfg.a2))
    a = np.eye(n * m, dtype=np.longdouble) - a2t @ blocks.reshape(n * m, n * m) @ a1t
    x = np.linalg.solve(a.astype(float), rhs)
    x += np.linalg.solve(a.astype(float), (rhs - a @ x).astype(float))
    closed, _ = scale_analysis(scenario, 1e-5)
    assert np.linalg.norm(closed - x) <= 2e-12 * np.linalg.norm(x)


def test_closed_form_bias_rejects_unstable_steps():
    eye = identity_combination(1)
    cfg = DiffusionConfig(a1=eye, a2=eye, c=eye, step_sizes=np.array([1.5]))
    ens = CostEnsemble(costs=(scalar_cost(1.0),), dim=1)
    with pytest.raises(AssumptionError, match="spectral radius 2 is not below one"):
        closed_form_bias(cfg, ens)


def test_stacked_gradient_identity_at_optimum():
    for index in range(3):
        _, ens = random_valid_config(index)
        w_star = global_optimum(ens)
        g0 = stacked_gradient(ens, w_star).reshape(ens.n, ens.dim)
        scale = sum(np.linalg.norm(row) for row in g0)
        assert np.abs(g0.sum(axis=0)).max() <= 1e-9 * scale


def test_node_spread_shrinks_with_step_scale():
    cfg, ens = random_valid_config(3)
    omega0 = normalized_step_shape(cfg.step_sizes)
    spreads = []
    for mu in (1e-2, 1e-3, 1e-4):
        scaled = cfg.with_step_sizes(mu * omega0)
        per_node = closed_form_bias(scaled, ens).reshape(ens.n, ens.dim)
        spread = max(
            np.linalg.norm(per_node[i] - per_node[j])
            for i in range(ens.n)
            for j in range(i + 1, ens.n)
        )
        spreads.append(spread)
    assert spreads[1] < spreads[0]
    assert spreads[2] < spreads[1]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_mixing_bound_is_tight_on_an_even_cycle(n):
    # each node keeps d and sends (1 - d) / 2 to either neighbour: the cycle is
    # bipartite, so 2 d - 1 is both lambda_min(S) and the Gershgorin bound. On
    # this grid the bound without its rounding allowance lies up to 3 eps above
    # the computed lambda_min(S) (at n = 2, d = 0.15, for one); with it, the
    # bound stays at or below it, and within 1e-14
    ens = sample_ensemble(n, 2, 4, data_seed=5)
    for d in np.linspace(0.01, 0.49, 25):
        a = d * np.eye(n)
        for k in range(n):
            a[(k + 1) % n, k] += (1.0 - d) / 2.0
            a[(k - 1) % n, k] += (1.0 - d) / 2.0
        mixing = CombinationMatrix(a, "doubly_stochastic")
        cfg = cta_config(mixing, identity_combination(n), np.ones(n))
        scenario = analyse_scenario(cfg, ens)
        exact = np.linalg.eigvalsh(scenario.mixing)[0]
        assert exact == pytest.approx(2.0 * d - 1.0, abs=1e-14)
        assert exact - 1e-14 <= scenario.mixing_bound <= exact


def mixing_by_expression(config: DiffusionConfig, theta: np.ndarray) -> np.ndarray:
    """S as plain array expressions, one new array per operation, which the
    in-place build must reproduce bit for bit."""
    pi = config.a2.matrix @ theta
    flow = (config.a2.matrix @ config.a1.matrix) * pi
    root = np.sqrt(pi)
    s = flow / np.outer(root, root)
    return 0.5 * (s + s.T)


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("make", [atc_config, cta_config])
def test_in_place_mixing_equals_the_plain_expression(n, make):
    topology = generate_topology(n, 4.0, seed=n)
    for rule in A_RULES:
        config = make(build_A(topology, rule), identity_combination(n), np.ones(n))
        theta = perron_theta(config.a1, config.a2).theta
        mixing = bias_module._reversible_mixing(config, theta)
        assert np.array_equal(mixing, mixing_by_expression(config, theta))


# --- the radius from the tail's basis ------------------------------------------


@pytest.fixture
def radius_calls(monkeypatch) -> dict[str, list]:
    """From here on, the order of each single matrix ``eigvalsh`` takes, under
    "eigvalsh", and each radius ``_SlowModes._tail_ritz`` returns (None on a
    refusal), under "tail_ritz"."""
    calls = {"eigvalsh": [], "tail_ritz": []}
    eigvalsh, tail_ritz = np.linalg.eigvalsh, bias_module._SlowModes._tail_ritz

    def counted_eigvalsh(a, *args, **kwargs):
        if np.ndim(a) == 2:
            calls["eigvalsh"].append(len(a))
        return eigvalsh(a, *args, **kwargs)

    def recorded(modes, *args):
        found = tail_ritz(modes, *args)
        calls["tail_ritz"].append(None if found is None else found[0])
        return found

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(bias_module._SlowModes, "_tail_ritz", recorded)
    return calls


def test_tail_basis_gives_the_radius_with_no_eigvalsh_of_c(radius_calls):
    # a row of the small-step sweep at 1e-3 is modelled, and the top Ritz
    # value of C on its basis is certified: no N*M x N*M eigvalsh runs, only
    # the one of the 4 x 4 aggregate Hessian, for whether the row is modelled,
    # and the one of S (50 x 50) for the scenario, for the basis's Chebyshev
    # interval (the 4 x 4 Rayleigh-Ritz matrix goes to eigh). The closed form
    # keeps its dense solve, bit for bit
    scenario = build_scenario(rule_case("atc", "averaging", "relative_degree"))
    result, closed, rho = analyse_scale(scenario, 1e-3, 1e-12, DEFAULT_MAX_ITER)
    assert result.stepped == 0
    assert radius_calls["eigvalsh"] == [4, 50]
    assert radius_calls["tail_ritz"] == [rho]
    dense_closed, dense_rho = scale_analysis(scenario, 1e-3)
    assert radius_calls["eigvalsh"] == [4, 50, 200]
    assert np.array_equal(closed, dense_closed)
    reference = reference_radius(scenario.at_scale(1e-3), scenario.ensemble)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert abs(dense_rho - reference) <= 1e-9 * (1.0 - reference)


def slow_modes_at(scenario, mu_max: float):
    """The ``_SlowModes`` of a scenario at ``scenario.at_scale(mu_max)``, as
    ``_scale_operator`` builds it, and that scale's a1."""
    config = scenario.at_scale(mu_max)
    steps = config.step_sizes[:, None, None]
    gain = np.eye(scenario.ensemble.dim)[None] - steps * scenario.combined_hessians
    root = np.sqrt(config.a2.matrix @ scenario.theta)
    return bias_module._SlowModes(gain, scenario.mixing, root), config.a1.matrix


@pytest.fixture
def unfit_search(monkeypatch) -> None:
    """From here on, the model's search gives the basis the tail starts
    from, 1 kron I_M: on C it leaves a residual of order mu, far above what the
    quadratic bound allows, so ``_tail_ritz`` refuses it."""

    def start_basis(op, interval):
        n, m = op.shape
        return np.kron(np.ones((n, 1)) / np.sqrt(n), np.eye(m)), None, None, None

    monkeypatch.setattr(bias_module, "_invariant_basis", start_basis)


def test_basis_not_yet_invariant_is_refused_and_eigvalsh_answers(radius_calls, unfit_search):
    # the 1e-3 row of the small-step sweep, modelled with a basis that is not
    # yet invariant: the row runs the recursion, and its radius is eigvalsh's
    # of C, to the last bit
    scenario = build_scenario(rule_case("atc", "averaging", "relative_degree"))
    result, closed, rho = analyse_scale(scenario, 1e-3, 1e-12, DEFAULT_MAX_ITER)
    assert radius_calls["tail_ritz"] == [None]
    assert radius_calls["eigvalsh"][-1] == 200 and result.stepped > 0
    dense_closed, dense_rho = scale_analysis(scenario, 1e-3)
    assert rho == dense_rho and np.array_equal(closed, dense_closed)


def test_tail_basis_refused_above_the_crossover_falls_back_to_lanczos(
    radius_calls, unfit_search, monkeypatch
):
    # the same refusal with the crossover moved below this N*M = 200: rho
    # comes from Lanczos, the closed form from CG deflated by its Ritz
    # vectors, both as with no model at all
    monkeypatch.setattr(bias_module, "MATRIX_FREE_NM", 200)
    lanczos_runs = []
    lanczos = bias_module._SlowModes._lanczos

    def counted(modes, scenario):
        found = lanczos(modes, scenario)
        lanczos_runs.append(None if found is None else found[0])
        return found

    monkeypatch.setattr(bias_module._SlowModes, "_lanczos", counted)
    scenario = build_scenario(rule_case("atc", "averaging", "relative_degree"))
    result, closed, rho = analyse_scale(scenario, 1e-3, 1e-12, DEFAULT_MAX_ITER)
    assert radius_calls["tail_ritz"] == [None] and result.stepped > 0
    assert lanczos_runs == [rho]
    lanczos_closed, lanczos_rho = scale_analysis(scenario, 1e-3)
    assert lanczos_runs == [rho, rho] and lanczos_rho == rho
    assert np.array_equal(closed, lanczos_closed)
    assert 200 not in radius_calls["eigvalsh"]
    expected, reference = reference_answers(scenario.at_scale(1e-3), scenario.ensemble)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert np.linalg.norm(closed - expected) <= 1e-10 * np.linalg.norm(expected)


def test_tail_basis_radius_refused_when_the_negative_end_may_lead():
    # ``negative_end_case`` with the exact invariant subspace of B's two
    # largest eigenvalues, 0.32 twice: the Ritz values clear beta = 0 and their
    # residual is rounding, but they do not exceed -lambda_min(S) = 1/2, so
    # they need not be rho, and here they are not: the radius is 0.475
    cfg, ens = negative_end_case()
    eigs, vectors = np.linalg.eig(kron_reference(cfg, ens)[0])
    assert np.isrealobj(eigs)
    basis = np.linalg.qr(vectors[:, np.argsort(eigs)[-2:]])[0]
    scenario = analyse_scenario(cfg, ens)
    modes, a1 = slow_modes_at(scenario, 0.1)
    assert modes._tail_ritz(scenario, a1, basis) is None
    closed, rho = scale_analysis(scenario, 0.1)
    expected, reference = reference_answers(cfg, ens)
    assert reference == pytest.approx(0.475, abs=1e-9)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert np.linalg.norm(closed - expected) <= 1e-10 * np.linalg.norm(expected)


def test_a_model_whose_scan_refuses_keeps_its_closed_form_and_radius(radius_calls, monkeypatch):
    # the small-step sweep's 1e-3 row with the scan made to refuse: the row
    # runs the recursion, and its gap check takes the model's x and rho, with
    # no eigvalsh of C and no second solve; both are those of the modelled row
    scenario = build_scenario(rule_case("atc", "averaging", "relative_degree"))
    modelled, closed, rho = analyse_scale(scenario, 1e-3, 1e-12, DEFAULT_MAX_ITER)
    assert modelled.stepped == 0 and radius_calls["tail_ritz"] == [rho]
    solves, closed_form, run = [], bias_module._SlowModes.closed_form, bias_module.ModalTail.run

    def counted(modes, *args):
        solves.append(args[-1] is not None)
        return closed_form(modes, *args)

    monkeypatch.setattr(bias_module._SlowModes, "closed_form", counted)
    # only the model's scan starts at iteration 0; the run's tail keeps its own
    monkeypatch.setattr(
        bias_module.ModalTail, "run", lambda tail, k, *args: run(tail, k, *args) if k else None
    )
    result, again, radius = analyse_scale(scenario, 1e-3, 1e-12, DEFAULT_MAX_ITER)
    assert 0 < result.stepped < result.iterations_used
    assert (result.iterations_used, result.converged) == (modelled.iterations_used, True)
    assert radius_calls["tail_ritz"] == [rho, rho] and solves == [True]
    assert radius_calls["eigvalsh"] == [4, 50]
    assert radius == rho and np.array_equal(again, closed)


def test_slow_modes_hold_only_their_factors(monkeypatch):
    # the radius hands its Ritz vectors to the closed form, which chooses its
    # own route: after both answers a _SlowModes holds only L, S and sqrt(pi),
    # on a modelled row and a bare analysis, below and above the crossover
    held, closed_form = [], bias_module._SlowModes.closed_form

    def recorded(modes, *args):
        closed = closed_form(modes, *args)
        held.append(sorted(vars(modes)))
        return closed

    monkeypatch.setattr(bias_module._SlowModes, "closed_form", recorded)
    scenario = build_scenario(rule_case("atc", "averaging", "relative_degree"))
    for crossover in (bias_module.MATRIX_FREE_NM, 0):
        monkeypatch.setattr(bias_module, "MATRIX_FREE_NM", crossover)
        assert analyse_scale(scenario, 1e-3, 1e-12, DEFAULT_MAX_ITER)[0].stepped == 0
        scale_analysis(scenario, 1e-3)
    assert held == [["chol", "root", "s"]] * 4


def test_non_reversible_composite_tracks_by_powers_of_b(monkeypatch):
    # ``test_non_reversible_mixing_falls_back_to_eigvals``'s composite at a
    # step small enough for the tail: with no S the row is not modelled, and
    # its run, filtered by powers of B, is the bare run, bit for bit
    topo = generate_topology(8, 3.0, seed=3)
    ens = sample_ensemble(8, 2, 4, data_seed=3)
    c = build_C(topo, "averaging")
    a1, a2 = build_A(topo, "metropolis"), build_A(topo, "averaging")
    mu = 0.003 * float(step_size_bounds(c, ens).min())
    cfg = DiffusionConfig(a1=a1, a2=a2, c=c, step_sizes=np.full(8, mu))
    scenario = analyse_scenario(cfg, ens)
    assert scenario.mixing is None
    intervals, search = [], diffusion_module._invariant_basis

    def recorded(op, interval):
        intervals.append(interval)
        return search(op, interval)

    monkeypatch.setattr(diffusion_module, "_invariant_basis", recorded)
    result, _, rho = analyse_scale(scenario, mu, 1e-12, DEFAULT_MAX_ITER)
    assert intervals == [None] and 0 < result.stepped < result.iterations_used
    bare = run_to_fixed_point(cfg, ens, init=np.tile(scenario.w_star, (8, 1)))
    assert (result.iterations_used, result.stepped) == (bare.iterations_used, bare.stepped)
    assert np.array_equal(result.w_infinity, bare.w_infinity)
    reference = reference_radius(cfg, ens)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)


def mutate_one_gain_block(monkeypatch) -> None:
    """From here on, ``_SlowModes`` alone, not the step operator, sees one gain
    block scaled by 1 + 1e-9, so its closed form misses the recursion's fixed
    point."""
    init = bias_module._SlowModes.__init__

    def mutated(modes, gain, s, root):
        gain = gain.copy()
        gain[7] *= 1.0 + 1e-9
        init(modes, gain, s, root)

    monkeypatch.setattr(bias_module._SlowModes, "__init__", mutated)


def test_a_closed_form_the_recursion_moves_fails_the_residual_check(monkeypatch):
    # a modelled row's iterate is built from its closed form, so no gap check
    # can catch a wrong solve there; one step of the recursion, which no solve
    # uses, moves the mutated closed form by about 1e4 eps, past the 1024 eps
    # that rounding may
    scenario = build_scenario(rule_case("atc", "averaging", "relative_degree"))
    assert analyse_scale(scenario, 1e-3, 1e-12, DEFAULT_MAX_ITER)[0].stepped == 0
    mutate_one_gain_block(monkeypatch)
    with pytest.raises(RuntimeError, match="one step moves the closed-form fixed point"):
        analyse_scale(scenario, 1e-3, 1e-12, DEFAULT_MAX_ITER)


@pytest.mark.parametrize("mu_max", [1e-16, 1e-300])
def test_a_step_scale_too_small_to_resolve_is_named(mu_max):
    # every step is below its bound, so rho < 1, but on this built-in scenario
    # 1 - rho rounds to zero at 1e-16, and 1 - mu lambda too at 1e-300: which
    # rows are modelled, the model and the closed form neither divide by zero
    # nor warn (warnings are errors here), and the error names the step scale,
    # not an unstable recursion
    configs = builtin_figure_configs()["cta_equal"]
    scenario = build_scenario(next(c for c in configs if c.a_rule == "relative_degree"))
    for analyse in (analyse_scale, lambda s, mu, *_: scale_analysis(s, mu)):
        with pytest.raises(AssumptionError, match=f"step scale {mu_max:.6g} is too small"):
            analyse(scenario, mu_max, 1e-12, DEFAULT_MAX_ITER)


# --- the per-scale check of the sweep ------------------------

SMALL_SWEEP = ExperimentConfig(
    strategy="atc",
    a_rule="metropolis",
    c_rule="relative_degree",
    step_mode="equal",
    mu_max_schedule=(1e-2,),
    n_nodes=12,
    dim=2,
    rows=4,
)


def test_scale_analysis_answers_for_its_own_scenario():
    # two scenarios that differ only in the gradient-exchange matrix c; at
    # one step scale each gets the closed form and radius of its own config
    closed_forms = []
    for c_rule in ("relative_degree", "identity"):
        scenario = build_scenario(dataclasses.replace(SMALL_SWEEP, c_rule=c_rule))
        closed, rho = scale_analysis(scenario, 1e-2)
        cfg = scenario.at_scale(1e-2)
        b, rhs = kron_reference(cfg, scenario.ensemble)
        expected = np.linalg.solve(np.eye(rhs.shape[0]) - b, rhs)
        assert np.abs(closed - expected).max() <= 1e-10
        reference = reference_radius(cfg, scenario.ensemble)
        assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
        closed_forms.append(closed)
    gap = np.linalg.norm(closed_forms[0] - closed_forms[1])
    assert gap > 0.1 * np.linalg.norm(closed_forms[0])


def test_bare_config_calls_analyse_the_config_they_are_given(monkeypatch):
    # steps for which max * (steps / max) moves 2 of the 12 entries by an ulp:
    # the bare-config path solves at the steps themselves
    scenario = build_scenario(SMALL_SWEEP)
    steps = 3e-3 * (0.4 + 0.6 * np.random.default_rng(1).random(12))
    assert not np.array_equal(steps.max() * (steps / steps.max()), steps)
    cfg, ens = scenario.at_scale(1e-2).with_step_sizes(steps), scenario.ensemble
    assert np.array_equal(analyse_scenario(cfg, ens).at_scale(steps.max()).step_sizes, steps)
    solved, at_scale = [], bias_module.Scenario.at_scale

    def recorded(self, mu_max):
        config = at_scale(self, mu_max)
        solved.append(config.step_sizes)
        return config

    monkeypatch.setattr(bias_module.Scenario, "at_scale", recorded)
    closed = closed_form_bias(cfg, ens)
    assert len(solved) == 1 and np.array_equal(solved[0], steps)
    b, rhs = kron_reference(cfg, ens)
    assert np.abs(closed - np.linalg.solve(np.eye(rhs.shape[0]) - b, rhs)).max() <= 1e-10


# each caller of analyse_scale, run at a given max_iter; returns the converged flags
PER_SCALE_CALLERS = {
    "run_sweep": lambda max_iter: [
        row.converged for row in run_sweep(dataclasses.replace(SMALL_SWEEP, max_iter=max_iter))
    ],
}


def shift_fixed_points(monkeypatch) -> None:
    """Move every fixed point the per-scale path iterates by 1e-3."""
    original = bias_module.run_to_fixed_point

    def shifted(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, w_infinity=result.w_infinity + 1e-3)

    monkeypatch.setattr(bias_module, "run_to_fixed_point", shifted)


@pytest.mark.parametrize("caller", sorted(PER_SCALE_CALLERS))
def test_gap_check_raises_for_converged_iterate_off_the_closed_form(monkeypatch, caller):
    shift_fixed_points(monkeypatch)
    with pytest.raises(RuntimeError, match=r"gap .*bound"):
        PER_SCALE_CALLERS[caller](DEFAULT_MAX_ITER)


@pytest.mark.parametrize("caller", sorted(PER_SCALE_CALLERS))
def test_gap_check_skips_exhausted_iterate(monkeypatch, caller):
    shift_fixed_points(monkeypatch)
    assert PER_SCALE_CALLERS[caller](5) == [False]


def floor_by_svd(scenario) -> float:
    """``limit_floor``'s formula with each |H_l|_2 taken from an SVD."""
    ens = scenario.ensemble
    weights = scenario.config.c.matrix @ scenario.node_weights
    grads = np.linalg.norm(ens.hessians @ scenario.w_star - ens.offsets, axis=1)
    norms = np.linalg.norm(ens.hessians, 2, axis=(1, 2))
    total = np.abs(weights) @ (grads + norms * np.linalg.norm(scenario.w_star))
    return ens.n * np.finfo(float).eps * total / np.linalg.norm(scenario.agg_hessian, -2)


IDENTICAL_COSTS = ExperimentConfig(
    strategy="atc",
    a_rule="metropolis",
    c_rule="relative_degree",
    step_mode="equal",
    mu_max_schedule=(1e-3,),
    n_nodes=20,
    debug_identical_costs=True,
)


@pytest.mark.parametrize(
    "config",
    [*(cfg for family in builtin_figure_configs().values() for cfg in family), IDENTICAL_COSTS],
    ids=lambda cfg: f"{cfg.scenario_id}-n{cfg.n_nodes}",
)
def test_limit_floor_matches_its_formula_with_svd_norms(config):
    # each Hessian is PSD, so its top eigenvalue is its 2-norm; the identical-
    # costs scenario is the one whose check output reads the floor
    scenario = build_scenario(config)
    expected = floor_by_svd(scenario)
    assert expected > 0.0
    assert abs(scenario.limit_floor() - expected) <= 1e-14 * expected
