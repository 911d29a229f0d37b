"""Property tests over small random networks, ensembles and configs.

Every network has at most 8 nodes and 3 dimensions, except the sweep
scenarios of the modelled rows and the radius, which have at most 30 nodes (N*M at
most 90). Every config document is either malformed or tiny, so no
example allocates a large matrix or runs a long sweep."""

import json
import math

import numpy as np
import pytest
from kron_reference import kron_reference, reference_answers, reference_radius
from plain_loop import assert_bit_identical, plain_fixed_point

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diffpareto import bias as bias_module  # noqa: E402
from diffpareto.bias import (  # noqa: E402
    GAP_FACTOR,
    analyse_scale,
    analyse_scenario,
    closed_form_bias,
    limit_bias,
    normalized_step_shape,
    scale_analysis,
    spectral_check,
)
from diffpareto.cli import cli_main  # noqa: E402
from diffpareto.costs import sample_ensemble  # noqa: E402
from diffpareto.diffusion import (  # noqa: E402
    DiffusionConfig,
    atc_config,
    cta_config,
    run_to_fixed_point,
)
from diffpareto.experiment import (  # noqa: E402
    _CONFIG_FIELDS,
    STEP_MODES,
    STRATEGIES,
    ExperimentConfig,
    build_scenario,
)
from diffpareto.network import (  # noqa: E402
    A_RULES,
    C_RULES,
    CombinationMatrix,
    build_A,
    build_C,
    check_assumption3,
    design_step_sizes_for_assumption3,
    generate_topology,
    identity_combination,
    perron_theta,
)


@st.composite
def scenarios(draw, c_rules=C_RULES):
    """A diffusion config at a normalized step shape and its ensemble."""
    n = draw(st.integers(3, 8))
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    topology = generate_topology(n, 2.0, seed)
    ensemble = sample_ensemble(n, m, m + 3, data_seed=seed)
    make = draw(st.sampled_from((atc_config, cta_config)))
    a = build_A(topology, draw(st.sampled_from(A_RULES)))
    c = build_C(topology, draw(st.sampled_from(c_rules)))
    shape = np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n)))
    return make(a, c, normalized_step_shape(shape)), ensemble


@given(scenarios(), st.floats(0.1, 0.3))
def test_iterated_bias_within_derived_bound_of_closed_form(case, fraction):
    config, ensemble = case
    scenario = analyse_scenario(config, ensemble)
    scaled = scenario.at_scale(fraction * scenario.margins[scenario.tightest])
    w_star = scenario.w_star
    tol = 1e-10
    result = run_to_fixed_point(scaled, ensemble, init=np.tile(w_star, (ensemble.n, 1)), tol=tol)
    closed, rho = scale_analysis(scenario, scaled.step_sizes.max())
    bound = GAP_FACTOR * tol * (1.0 + np.linalg.norm(w_star)) * math.sqrt(ensemble.n) / (1.0 - rho)
    assert result.converged
    assert np.linalg.norm(closed - (w_star[None, :] - result.w_infinity).ravel()) <= bound


# the stated bound on |(I - B)^-1|_2 (1 - rho), which the derived bound takes
# as 1; 1.35 at most over 1,000 examples of these scenarios
RESOLVENT_FACTOR = 2.5


@given(scenarios(), st.floats(0.01, 0.95))
def test_resolvent_norm_stays_a_stated_factor_below_gap_factor(case, fraction):
    # the derived bound's 1 / (1 - rho) stands for |(I - B)^-1|_2, larger for
    # a non-normal B; GAP_FACTOR covers the difference at least 4 times over
    config, ensemble = case
    scenario = analyse_scenario(config, ensemble)
    scaled = scenario.at_scale(fraction * scenario.margins[scenario.tightest])
    b, _ = kron_reference(scaled, ensemble)
    rho = float(np.abs(np.linalg.eigvals(b)).max())
    smallest = np.linalg.svd(np.eye(len(b)) - b, compute_uv=False)[-1]
    assert 4.0 * RESOLVENT_FACTOR <= GAP_FACTOR
    assert (1.0 - rho) / smallest <= RESOLVENT_FACTOR


@given(scenarios(), st.floats(0.01, 0.95))
def test_spectral_radius_matches_kron_reference(case, fraction):
    # steps below half the bound take the symmetric route, steps above it
    # fall back to eigvals on B; both must agree with the reference
    config, ensemble = case
    scenario = analyse_scenario(config, ensemble)
    scaled = scenario.at_scale(fraction * scenario.margins[scenario.tightest])
    _, rho = scale_analysis(scenario, scaled.step_sizes.max())
    reference = reference_radius(scaled, ensemble)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert spectral_check(scaled, ensemble) == rho


@given(scenarios(), st.floats(0.01, 0.45))
def test_matrix_free_route_matches_kron_reference(case, fraction):
    # forced onto block Lanczos and deflated CG; below half the bound every
    # gain is positive definite, and a run that cannot converge or certify
    # its radius falls back to the dense route, so both bounds always hold.
    # A bias that is zero in exact arithmetic (c averaging over a complete
    # graph) is rounding noise on both routes, hence the absolute floor
    config, ensemble = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bias_module, "MATRIX_FREE_NM", 0)
        scenario = analyse_scenario(config, ensemble)
        scaled = scenario.at_scale(fraction * scenario.margins[scenario.tightest])
        closed, rho = scale_analysis(scenario, scaled.step_sizes.max())
    b, rhs = kron_reference(scaled, ensemble)
    expected = np.linalg.solve(np.eye(len(rhs)) - b, rhs)
    reference = reference_radius(scaled, ensemble)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    floor = 1e-14 * (1.0 + np.linalg.norm(scenario.w_star))
    assert np.linalg.norm(closed - expected) <= 1e-10 * np.linalg.norm(expected) + floor


@st.composite
def reversible_configs(draw):
    """A CTA config whose a1 holds random symmetric weights on a random graph,
    normalized by column: P = a1 is reversible with pi the column sums, and
    its diagonal may be small, so the Gershgorin bound may be near -1."""
    n = draw(st.integers(2, 8))
    topology = generate_topology(n, min(2.0, n - 1.0), draw(st.integers(0, 2**16)))
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n * n, max_size=n * n)))
    weights = (raw.reshape(n, n) + raw.reshape(n, n).T) * topology.adjacency
    a = CombinationMatrix(weights / weights.sum(axis=0), kind="left_stochastic")
    return cta_config(a, identity_combination(n), np.ones(n))


@given(st.one_of(scenarios().map(lambda case: case[0]), reversible_configs()))
def test_gershgorin_bound_lies_below_lambda_min_of_the_mixing(config):
    # the bound the matrix-free radius is certified by is min_k (2 P_kk - 1),
    # up to its rounding allowance, and never above the exact lambda_min(S)
    scenario = analyse_scenario(config, sample_ensemble(config.n, 2, 5, data_seed=config.n))
    assume(scenario.mixing is not None)
    p_diagonal = np.einsum("kl,lk->k", config.a2.matrix, config.a1.matrix)
    assert scenario.mixing_bound <= np.linalg.eigvalsh(scenario.mixing)[0]
    assert scenario.mixing_bound == pytest.approx((2.0 * p_diagonal - 1.0).min(), abs=1e-12)


@given(scenarios(), st.floats(0.1, 0.3))
def test_bare_config_calls_take_the_one_per_scale_path(case, fraction):
    # a bare config is analysed as a scenario and answered at its largest
    # step, so every entry point returns the per-scale closed form bit for bit
    config, ensemble = case
    scenario = analyse_scenario(config, ensemble)
    mu_max = fraction * scenario.margins[scenario.tightest]
    closed, rho = scale_analysis(scenario, mu_max)
    scaled = scenario.at_scale(mu_max)
    assert np.array_equal(closed_form_bias(scaled, ensemble), closed)
    assert spectral_check(scaled, ensemble) == rho


@given(scenarios(), st.floats(0.003, 0.01))
def test_tail_reproduces_plain_loop_iterations(case, fraction):
    config, ensemble = case
    scenario = analyse_scenario(config, ensemble)
    scaled = scenario.at_scale(fraction * scenario.margins[scenario.tightest])
    init = np.tile(scenario.w_star, (ensemble.n, 1))
    result = run_to_fixed_point(scaled, ensemble, init=init)
    _, iterations, converged = plain_fixed_point(scaled, ensemble, init=init)
    assert (result.iterations_used, result.converged) == (iterations, converged)


@given(scenarios(), st.floats(0.003, 0.3), st.integers(1, 768))
def test_blocked_loop_reproduces_plain_loop_bit_for_bit(case, fraction, max_iter):
    # the iterations stepped are the plain loop's to the last bit; a run the
    # tail took over is compared over its stepped prefix
    config, ensemble = case
    scenario = analyse_scenario(config, ensemble)
    scaled = scenario.at_scale(fraction * scenario.margins[scenario.tightest])
    init = np.tile(scenario.w_star, (ensemble.n, 1))
    assert_bit_identical(scaled, ensemble, init, max_iter=max_iter)


@st.composite
def sweep_scenarios(draw):
    """A sweep scenario of 6-30 nodes in 1-3 dimensions, either strategy,
    any rules and either step mode."""
    config = ExperimentConfig(
        strategy=draw(st.sampled_from(STRATEGIES)),
        a_rule=draw(st.sampled_from(A_RULES)),
        c_rule=draw(st.sampled_from(C_RULES)),
        step_mode=draw(st.sampled_from(STEP_MODES)),
        mu_max_schedule=(1.0,),
        n_nodes=draw(st.integers(6, 30)),
        dim=draw(st.integers(1, 3)),
        topology_seed=draw(st.integers(0, 2**16)),
        data_seed=draw(st.integers(0, 2**16)),
        step_seed=draw(st.integers(0, 2**16)),
    )
    return build_scenario(config)


@given(sweep_scenarios(), st.floats(0.003, 0.01))
def test_radius_from_the_tail_basis_matches_kron_reference(scenario, fraction):
    # at these scales a row is modelled from its basis, and below the
    # crossover its radius is the top Ritz value of C on that basis wherever
    # the certificate accepts it; every answer, that one or eigvalsh's after a
    # refusal, must match the reference
    certified = []
    tail_ritz = bias_module._SlowModes._tail_ritz

    def recorded(modes, *args):
        found = tail_ritz(modes, *args)
        certified.append(None if found is None else found[0])
        return found

    mu_max = fraction * scenario.margins[scenario.tightest]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bias_module._SlowModes, "_tail_ritz", recorded)
        result, _, rho = analyse_scale(scenario, mu_max, 1e-12, 10**6)
    reference = reference_radius(scenario.at_scale(mu_max), scenario.ensemble)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert len(certified) <= 1
    if result.stepped == 0:
        assert certified == [rho]


@given(sweep_scenarios(), st.floats(0.003, 0.01))
def test_filtered_tail_keeps_the_plain_loop_and_the_references(scenario, fraction):
    # the sweep's row, modelled from its basis filtered on the scenario's
    # interval or run: its counts are the plain loop's, and a run's stepped
    # prefix is that loop's bit for bit. With the crossover moved below every
    # N*M, rho comes from the modelled row's basis and the closed form from CG
    # deflated by its Ritz vectors (or from Lanczos where the row is run), and
    # both must match the references
    mu_max = fraction * scenario.margins[scenario.tightest]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bias_module, "MATRIX_FREE_NM", 1)
        result, closed, rho = analyse_scale(scenario, mu_max, 1e-12, 10**6)
    config, ensemble = scenario.at_scale(mu_max), scenario.ensemble
    init = np.tile(scenario.w_star, (ensemble.n, 1))
    _, iterations, converged = plain_fixed_point(config, ensemble, init=init)
    assert (result.iterations_used, result.converged) == (iterations, converged)
    if result.stepped:
        assert_bit_identical(config, ensemble, init)
    expected, reference = reference_answers(config, ensemble)
    assert abs(rho - reference) <= 1e-9 * (1.0 - reference)
    assert np.abs(closed - expected).max() <= 1e-10


@given(sweep_scenarios(), st.floats(0.002, 0.1))
def test_a_modelled_row_counts_as_the_plain_loop(scenario, fraction):
    # on C's route a row takes no plain step exactly when it is modelled, that
    # is, when it never reaches the loop, and its counts are then the plain
    # loop's
    assume(scenario.mixing is not None)
    runs = []
    run = bias_module.run_to_fixed_point

    def recorded(*args, **kwargs):
        runs.append(None)
        return run(*args, **kwargs)

    mu_max = fraction * scenario.margins[scenario.tightest]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bias_module, "run_to_fixed_point", recorded)
        result = analyse_scale(scenario, mu_max, 1e-12, 10**6)[0]
    assert (result.stepped == 0) == (not runs)
    if not runs:
        config, ensemble = scenario.at_scale(mu_max), scenario.ensemble
        init = np.tile(scenario.w_star, (ensemble.n, 1))
        _, iterations, converged = plain_fixed_point(config, ensemble, init=init)
        assert (result.iterations_used, result.converged) == (iterations, converged)


@given(scenarios(), st.floats(1e-3, 1e3))
def test_limit_bias_invariant_under_step_scaling(case, factor):
    config, ensemble = case
    limit = limit_bias(config, ensemble)
    scaled = limit_bias(config.with_step_sizes(factor * config.step_sizes), ensemble)
    assert np.allclose(scaled, limit, rtol=1e-9, atol=1e-12 * (1.0 + np.linalg.norm(limit)))


def designed(config):
    """The config's combination matrices with no gradient exchange and the
    step shape designed for Assumption 3."""
    eye = identity_combination(config.n)
    steps = design_step_sizes_for_assumption3(config.a1, config.a2, mu_max=1.0)
    return DiffusionConfig(a1=config.a1, a2=config.a2, c=eye, step_sizes=steps)


@given(scenarios(c_rules=("identity",)))
def test_designed_step_sizes_satisfy_assumption3(case):
    config = designed(case[0])
    theta = perron_theta(config.a1, config.a2).theta
    shape = normalized_step_shape(config.step_sizes)
    assert check_assumption3(theta, config.a2, shape, config.c).satisfied


@given(scenarios(c_rules=("identity",)))
def test_assumption3_implies_zero_limit(case):
    config, ensemble = designed(case[0]), case[1]
    scenario = analyse_scenario(config, ensemble)
    assert scenario.assumption3.satisfied
    assert np.linalg.norm(scenario.limit_bias) <= 1e-9 * (1.0 + np.linalg.norm(scenario.w_star))


# --- malformed config documents --------------------------------------------

TINY = {
    "strategy": "atc",
    "a_rule": "metropolis",
    "c_rule": "relative_degree",
    "step_mode": "equal",
    "mu_max_schedule": [1e-2],
    "n_nodes": 8,
    "dim": 2,
    "rows": 3,
}

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_not_int = _json.filter(lambda x: isinstance(x, bool) or not isinstance(x, int))
_not_real = _json.filter(lambda x: isinstance(x, bool) or not isinstance(x, (int, float)))
_bad_real = _not_real | st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan])

# each field's invalid values: wrong types, out-of-range numbers, unknown names
BAD_VALUES = {
    "strategy": _json.filter(lambda x: x not in ("atc", "cta")),
    "a_rule": _json.filter(lambda x: x not in A_RULES),
    "c_rule": _json.filter(lambda x: x not in C_RULES),
    "step_mode": _json.filter(lambda x: x not in ("equal", "unequal_uniform_half")),
    "mu_max_schedule": _not_real.filter(lambda x: not isinstance(x, list))
    | st.lists(_bad_real, min_size=1, max_size=3)
    | st.just([])
    | st.just([1e-2, 1e-2]),
    "n_nodes": _not_int | st.integers(max_value=5),
    "dim": _not_int | st.integers(max_value=0),
    "rows": _not_int | st.integers(max_value=0),
    "topology_seed": _not_int,
    "data_seed": _not_int,
    "step_seed": _not_int,
    "tol": _bad_real,
    "max_iter": _not_int | st.integers(max_value=0),
    "debug_identical_costs": _json.filter(lambda x: not isinstance(x, bool)),
}


@st.composite
def malformed_documents(draw):
    """The tiny document with one field made invalid or, alone, with
    unknown fields added, so that each fault is the only one."""
    doc = dict(TINY)
    name = draw(st.sampled_from([None, *sorted(BAD_VALUES)]))
    if name is None:
        unknown = st.text(min_size=1, max_size=8).filter(lambda k: k not in _CONFIG_FIELDS)
        doc.update(draw(st.dictionaries(unknown, _json, min_size=1, max_size=2)))
    else:
        doc[name] = draw(BAD_VALUES[name])
    return doc


@settings(max_examples=100)
@given(malformed_documents())
def test_malformed_config_exits_one(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(path), "--out", str(path.with_suffix(".csv"))]) == 1
    assert cli_main(["check", "--config", str(path)]) == 1
