import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from test_bias import count_dense_operands, shift_fixed_points

from diffpareto import bias as bias_module
from diffpareto import cli as cli_module
from diffpareto import diffusion as diffusion_module
from diffpareto import experiment as experiment_module
from diffpareto.cli import cli_main
from diffpareto.costs import sample_ensemble
from diffpareto.experiment import (
    CSV_HEADER,
    DEFAULT_SCHEDULE,
    ExperimentConfig,
    SweepRow,
    build_scenario,
    builtin_figure_configs,
    config_from_dict,
    draw_step_shape,
    emit_csv,
    emit_plot_script,
    fit_loglog_slope,
    load_config,
    run_sweep,
)
from diffpareto.network import generate_topology


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        strategy="atc",
        a_rule="metropolis",
        c_rule="relative_degree",
        step_mode="equal",
        mu_max_schedule=(1e-2, 3e-3),
        n_nodes=12,
        dim=2,
        rows=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def synthetic_rows(values_by_mu) -> list[SweepRow]:
    return [
        SweepRow(
            scenario_id="synthetic",
            strategy="atc",
            a_rule="metropolis",
            c_rule="identity",
            step_mode="equal",
            mu_max=mu,
            bias_sq_norm=value,
            limit_bias_sq_norm=0.0,
            assumption3_satisfied=True,
            spectral_radius=0.9,
            iterations=10,
            converged=True,
        )
        for mu, value in values_by_mu
    ]


# --- config handling ---------------------------------------------------------


def test_config_defaults():
    cfg = config_from_dict(
        {
            "strategy": "atc",
            "a_rule": "averaging",
            "c_rule": "identity",
            "step_mode": "equal",
            "mu_max_schedule": [1e-3],
        }
    )
    assert cfg.n_nodes == 50 and cfg.dim == 4 and cfg.rows == 6
    assert (cfg.topology_seed, cfg.data_seed, cfg.step_seed) == (1, 2, 3)
    assert cfg.tol == 1e-12 and cfg.max_iter == 1_000_000


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields: wat"):
        config_from_dict(
            {
                "strategy": "atc",
                "a_rule": "averaging",
                "c_rule": "identity",
                "step_mode": "equal",
                "mu_max_schedule": [1e-3],
                "wat": 1,
            }
        )


def test_config_rejects_missing_and_invalid():
    with pytest.raises(ValueError, match="missing required"):
        config_from_dict({"strategy": "atc"})
    with pytest.raises(ValueError, match="config document must be a JSON object"):
        config_from_dict(["strategy"])
    with pytest.raises(ValueError, match="unknown a_rule 'identity'"):
        small_config(a_rule="identity")
    with pytest.raises(ValueError, match="unknown c_rule 'metropolis'"):
        small_config(c_rule="metropolis")
    with pytest.raises(ValueError, match="step_mode must be one of"):
        small_config(step_mode="unequal")
    with pytest.raises(ValueError, match="strategy"):
        small_config(strategy="gossip")
    with pytest.raises(ValueError, match="distinct"):
        small_config(mu_max_schedule=(1e-3, 1e-3))
    with pytest.raises(ValueError, match="positive"):
        small_config(mu_max_schedule=(1e-3, -1e-4))
    with pytest.raises(ValueError, match="nonempty"):
        small_config(mu_max_schedule=())


def test_step_shape_contract():
    shape = draw_step_shape(10, "unequal_uniform_half", step_seed=3)
    assert shape[0] == 1.0
    assert (shape[1:] >= 0.5).all() and (shape[1:] <= 1.0).all()
    assert np.array_equal(shape, draw_step_shape(10, "unequal_uniform_half", step_seed=3))
    assert np.array_equal(draw_step_shape(4, "equal", step_seed=9), np.ones(4))


def test_step_shape_rejects_unknown_mode():
    with pytest.raises(ValueError, match="step mode must be one of"):
        draw_step_shape(4, "bogus", step_seed=3)


# --- sweeps -------------------------------------------------------------------


def test_run_sweep_row_structure():
    cfg = small_config(mu_max_schedule=(3e-3, 1e-2, 1e-3))
    rows = run_sweep(cfg)
    assert [r.mu_max for r in rows] == [1e-2, 3e-3, 1e-3]  # descending order
    assert all(r.scenario_id == "atc-metropolis-relative_degree-equal" for r in rows)
    assert all(r.converged for r in rows)
    assert all(r.spectral_radius < 1.0 for r in rows)
    # metropolis mixing with equal steps satisfies the constant-row condition
    assert all(r.assumption3_satisfied for r in rows)
    assert all(r.limit_bias_sq_norm <= 1e-18 for r in rows)


def test_run_sweep_assumption3_fails_for_averaging_unequal():
    cfg = small_config(
        a_rule="averaging", step_mode="unequal_uniform_half", mu_max_schedule=(1e-3,)
    )
    rows = run_sweep(cfg)
    assert not rows[0].assumption3_satisfied
    assert rows[0].limit_bias_sq_norm > 0.0


def test_run_sweep_monotone_under_assumption3():
    # with the constant-row condition satisfied the bias descends to zero,
    # so the squared norm is strictly decreasing along the schedule
    cfg = small_config(mu_max_schedule=(1e-2, 3e-3, 1e-3, 3e-4))
    values = [r.bias_sq_norm for r in run_sweep(cfg)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_run_sweep_descends_to_plateau_without_assumption3():
    # without the constant-row condition the curve descends onto the plateau;
    # inside the plateau the value may wiggle below the limit by a small
    # relative margin, so monotonicity is only required outside of it
    cfg = small_config(
        a_rule="relative_degree",
        step_mode="unequal_uniform_half",
        mu_max_schedule=(1e-2, 3e-3, 1e-3, 3e-4),
    )
    rows = run_sweep(cfg)
    limit = rows[0].limit_bias_sq_norm
    for earlier, later in zip(rows, rows[1:]):
        in_plateau = abs(earlier.bias_sq_norm - limit) <= 0.05 * limit
        assert later.bias_sq_norm <= earlier.bias_sq_norm or in_plateau
    assert abs(rows[-1].bias_sq_norm - limit) <= 0.05 * limit


def test_run_sweep_identical_costs_debug_flag():
    cfg = small_config(mu_max_schedule=(1e-2,), debug_identical_costs=True, tol=1e-14)
    rows = run_sweep(cfg)
    assert rows[0].bias_sq_norm <= 1e-20


def test_run_sweep_rejects_schedule_beyond_bound():
    cfg = small_config(mu_max_schedule=(0.5, 1e-3))
    with pytest.raises(ValueError, match="node"):
        run_sweep(cfg)


def test_run_sweep_records_exhausted_rows_unconverged():
    # five iterations converge at no scale; the rows say so instead of
    # failing the closed-form check, which only a converged row must pass
    rows = run_sweep(small_config(mu_max_schedule=(1e-2, 1e-3), max_iter=5))
    assert [r.mu_max for r in rows] == [1e-2, 1e-3]
    assert all(not r.converged and r.iterations == 5 for r in rows)


# the benchmark's reference counts, kept beside the benchmark harness
EXPECTED_SEED1 = Path(__file__).resolve().parents[1] / "perfbench" / "expected_seed1.json"


def count_basis_products(patch, calls: list) -> None:
    """Append to ``calls`` on every product of the step operator's linear part
    with a basis, which only the modal tail takes."""
    apply_linear = diffusion_module._StepOperator.apply_linear

    def counted(op, q):
        calls.append(None)
        return apply_linear(op, q)

    patch.setattr(diffusion_module._StepOperator, "apply_linear", counted)


@pytest.fixture(scope="module")
def seed1_rows():
    """The benchmark's reference rows at N=50 (default seeds, tol 1e-12) by
    workload, and each row's (iterations, converged, plain steps kept,
    eigvalsh calls on an N*M x N*M matrix, basis products of the modal tail),
    rebuilt from its scenario id and step scale. The N=200 rows are left out,
    as their last digits follow the BLAS thread count."""
    expected = json.loads(EXPECTED_SEED1.read_text(encoding="utf-8"))
    del expected["analysis_n200"]
    schedules: dict[str, dict[float, None]] = {}
    for scenario_id, mu_max, _, _ in expected["sweep_small_steps"] + expected["figures_coarse"]:
        schedules.setdefault(scenario_id, {})[mu_max] = None
    work, square_eigs, products = {}, [], []
    analyse_scale, eigvalsh = experiment_module.analyse_scale, np.linalg.eigvalsh

    def recorded(scenario, mu_max, tol, max_iter):
        square_eigs.clear()
        products.clear()
        result = analyse_scale(scenario, mu_max, tol, max_iter)
        work[mu_max] = result[0].stepped, len(square_eigs), len(products)
        return result

    def counted_eigvalsh(a, *args, **kwargs):
        if np.shape(a) == (50 * 4, 50 * 4):
            square_eigs.append(1)
        return eigvalsh(a, *args, **kwargs)

    counts = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment_module, "analyse_scale", recorded)
        patch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        count_basis_products(patch, products)
        for scenario_id, schedule in schedules.items():
            strategy, a_rule, c_rule, step_mode = scenario_id.split("-")
            config = ExperimentConfig(
                strategy=strategy,
                a_rule=a_rule,
                c_rule=c_rule,
                step_mode=step_mode,
                mu_max_schedule=tuple(schedule),
            )
            for row in run_sweep(config):
                counts[scenario_id, row.mu_max] = row.iterations, row.converged, *work[row.mu_max]
    return expected, counts


def test_sweep_reproduces_the_benchmark_reference_counts_at_fifty_nodes(seed1_rows):
    expected, counts = seed1_rows
    rows = expected["sweep_small_steps"] + expected["figures_coarse"]
    assert len(rows) == 31
    assert [[s, mu, *counts[s, mu][:2]] for s, mu, _, _ in rows] == rows


@pytest.mark.parametrize("workload, bound", [("sweep_small_steps", 1372), ("figures_coarse", 5324)])
def test_benchmark_rows_keep_few_plain_steps(seed1_rows, workload, bound):
    # a guard on the tail's engagement that needs no timing: a long row keeps
    # 192 plain steps when its first model is accepted at its first invariance
    # test
    expected, counts = seed1_rows
    assert sum(counts[s, mu][2] for s, mu, _, _ in expected[workload]) <= bound


@pytest.mark.parametrize(
    "a_rule, step_mode, mu_max, iterations",
    [
        ("metropolis", "equal", 10**-4.5, 42_010),  # acceptance 3 at 10^-4.5
        ("averaging", "unequal_uniform_half", 1e-5, 198_163),  # acceptance 4
    ],
)
def test_acceptance_rows_at_tol_1e_14_keep_their_counts(a_rule, step_mode, mu_max, iterations):
    # the counts of an np.longdouble plain loop (tests/plain_loop.py), reached
    # through the modal tail as the acceptance sweeps run them
    config = ExperimentConfig(
        strategy="atc",
        a_rule=a_rule,
        c_rule="relative_degree",
        step_mode=step_mode,
        mu_max_schedule=(mu_max,),
        tol=1e-14,
    )
    scenario = build_scenario(config)
    result = bias_module.analyse_scale(scenario, mu_max, config.tol, config.max_iter)[0]
    assert (result.iterations_used, result.converged) == (iterations, True)
    assert result.stepped < result.iterations_used


@pytest.mark.parametrize("workload, bound", [("sweep_small_steps", 390), ("figures_coarse", 780)])
def test_benchmark_rows_take_few_basis_products(seed1_rows, workload, bound):
    # a guard on the tail's Chebyshev filter that needs no timing: a tail row's
    # basis, filtered on the scenario's interval, is invariant at its first
    # test, 64 steps in, and takes 65 products in all; filtered by powers of B
    # the two workloads take 845 and 2080
    expected, counts = seed1_rows
    assert sum(counts[s, mu][4] for s, mu, _, _ in expected[workload]) <= bound


def test_analysis_at_two_hundred_nodes_runs_lanczos_only_without_a_tail(monkeypatch):
    # the analysis_n200 benchmark scenario: its 1e-3 row hands over to the
    # tail, whose filtered basis takes at most 65 products and gives rho and
    # the deflation vectors of CG, so Lanczos runs only on the 1e-2 row and
    # neither row forms C. With powers of B and Lanczos on every row it took
    # 389 products and 2 runs
    experiment_module._scenario_inputs.cache_clear()
    dense = count_dense_operands(monkeypatch)
    products, lanczos_rows = [], []
    count_basis_products(monkeypatch, products)
    lanczos = bias_module._SlowModes._lanczos

    def counted_lanczos(modes, scenario):
        lanczos_rows.append(scenario.config.n)
        return lanczos(modes, scenario)

    monkeypatch.setattr(bias_module._SlowModes, "_lanczos", counted_lanczos)
    config = small_config(
        a_rule="metropolis",
        step_mode="unequal_uniform_half",
        mu_max_schedule=(1e-2, 1e-3),
        n_nodes=200,
        dim=4,
        rows=6,
    )
    rows = run_sweep(config)
    assert [row.converged for row in rows] == [True, True]
    assert lanczos_rows == [200]
    assert len(products) <= 65
    # S's spectrum is taken once, for the interval of the 1e-3 row's tail
    assert dense == {"form": [], "mixing_spectrum": [200]}


@pytest.mark.parametrize("workload, bound", [("sweep_small_steps", 1), ("figures_coarse", 12)])
def test_benchmark_rows_take_few_eigvalsh_of_c(seed1_rows, workload, bound):
    # a guard on the radius from the tail's basis that needs no timing: a row
    # that hands over to the tail takes no eigvalsh of the N*M x N*M matrix C,
    # so a certificate that silently falls back to it fails here
    expected, counts = seed1_rows
    assert sum(counts[s, mu][3] for s, mu, _, _ in expected[workload]) <= bound


def test_scenario_inputs_identical_across_scales():
    # the same seeds must reproduce the same topology and data bit for bit
    cfg = small_config()
    digests = set()
    for _ in cfg.mu_max_schedule:
        topo = generate_topology(cfg.n_nodes, 4.0, cfg.topology_seed)
        ens = sample_ensemble(cfg.n_nodes, cfg.dim, cfg.rows, cfg.data_seed)
        digest = hashlib.sha256()
        for array in (topo.adjacency, ens.hessians, ens.offsets):
            digest.update(array.tobytes())
        digests.add(digest.hexdigest())
    assert len(digests) == 1


def count_calls(monkeypatch, name: str, calls: list) -> None:
    """Wrap the package function ``name`` in every diffpareto module that
    binds it, appending ``name`` to ``calls`` on each call."""
    modules = [mod for key, mod in sys.modules.items() if key.startswith("diffpareto")]
    original = next(getattr(mod, name) for mod in modules if hasattr(mod, name))

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


def test_sweep_builds_scale_free_operands_once_per_scenario(monkeypatch):
    # a scale adds one step operator (the fixed-point loop's) and one
    # symmetric eigensolve for rho: eigvalsh of C (24 x 24), or on a row that
    # hands over to the tail, eigh of the 2 x 2 Rayleigh-Ritz matrix on its
    # basis. The spectrum of S (12 x 12), taken when the scenario's first run
    # is judged long, gives the tail's Chebyshev interval and certifies that
    # radius; it, the Hessian eigenvalues, the Perron vector and the gradients
    # at the optimum are taken once for the scenario; the network and data are
    # built once for both sweeps, which differ only in a_rule. The metropolis
    # sweep hands over at 1e-3 only, the averaging one at 3e-3 and 1e-3
    experiment_module._scenario_inputs.cache_clear()
    operators, hessian_eigs, radius_eigs, scenario_calls = [], [], [], []
    input_calls = []
    init = diffusion_module._StepOperator.__init__

    def counted_init(self, *args, **kwargs):
        operators.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(diffusion_module._StepOperator, "__init__", counted_init)
    for name in ("eigvalsh", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, solver=solver, **kwargs):
            (hessian_eigs if np.ndim(a) == 3 else radius_eigs).append(np.shape(a))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    count_calls(monkeypatch, "perron_theta", scenario_calls)
    count_calls(monkeypatch, "stacked_gradient", scenario_calls)
    count_calls(monkeypatch, "sample_ensemble", input_calls)
    count_calls(monkeypatch, "generate_topology", input_calls)
    schedule = (1e-2, 3e-3, 1e-3)
    rows = run_sweep(small_config(mu_max_schedule=schedule))
    assert len(rows) == 3 and all(row.converged for row in rows)
    assert len(operators) == 3
    assert hessian_eigs == [(12, 2, 2)]
    assert radius_eigs == [(24, 24), (24, 24), (12, 12), (2, 2)]
    assert sorted(scenario_calls) == ["perron_theta", "stacked_gradient"]
    assert sorted(input_calls) == ["generate_topology", "sample_ensemble"]

    rows = run_sweep(small_config(a_rule="averaging", mu_max_schedule=schedule))
    assert len(rows) == 3 and all(row.converged for row in rows)
    assert len(operators) == 6
    assert hessian_eigs == [(12, 2, 2)]
    assert radius_eigs[4:] == [(24, 24), (12, 12), (2, 2), (2, 2)]
    assert sorted(scenario_calls) == ["perron_theta"] * 2 + ["stacked_gradient"] * 2
    assert sorted(input_calls) == ["generate_topology", "sample_ensemble"]


def test_sweep_above_the_crossover_forms_no_n_m_square_matrix(monkeypatch):
    # the counterpart at N*M = MATRIX_FREE_NM: a scale neither forms C nor
    # lifts B, as block Lanczos and deflated CG answer it matrix-free, and the
    # Gershgorin bound on lambda_min(S) certifies its radius, so S goes to no
    # eigensolver either
    experiment_module._scenario_inputs.cache_clear()
    config = small_config(n_nodes=100, dim=4, rows=6)
    assert config.n_nodes * config.dim == bias_module.MATRIX_FREE_NM
    operators, hessian_eigs, lifts = [], [], []
    dense = count_dense_operands(monkeypatch)
    init = diffusion_module._StepOperator.__init__

    def counted_init(self, *args, **kwargs):
        operators.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(diffusion_module._StepOperator, "__init__", counted_init)
    eigvalsh = np.linalg.eigvalsh

    def counted_eigvalsh(a, *args, **kwargs):
        if np.ndim(a) == 3:
            hessian_eigs.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    count_calls(monkeypatch, "lift", lifts)
    rows = run_sweep(config)
    assert len(rows) == 2 and all(row.converged for row in rows)
    assert len(operators) == 2
    assert hessian_eigs == [(100, 4, 4)]
    assert dense == {"form": [], "mixing_spectrum": []}

    rows = run_sweep(dataclasses.replace(config, a_rule="averaging"))
    assert len(rows) == 2 and all(row.converged for row in rows)
    assert len(operators) == 4
    assert hessian_eigs == [(100, 4, 4)]
    assert dense == {"form": [], "mixing_spectrum": []}
    assert lifts == []


# --- the memo of network and data ----------------------------------------------


def inputs_of(config: ExperimentConfig):
    scenario = build_scenario(config)
    return scenario.topology, scenario.ensemble


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_nodes", 13),
        ("dim", 3),
        ("rows", 5),
        ("topology_seed", 7),
        ("data_seed", 9),
        ("debug_identical_costs", True),
    ],
)
def test_each_input_field_gives_other_inputs(field, value):
    topology, ensemble = inputs_of(small_config())
    cfg = small_config(**{field: value})
    other_topology, other_ensemble = inputs_of(cfg)
    assert other_topology is not topology and other_ensemble is not ensemble
    # the memo holds what the public generators build for the changed fields
    fresh = generate_topology(cfg.n_nodes, 4.0, cfg.topology_seed)
    assert np.array_equal(other_topology.adjacency, fresh.adjacency)
    data = sample_ensemble(cfg.n_nodes, cfg.dim, cfg.rows, cfg.data_seed)
    expected = data.hessians[[0] * cfg.n_nodes] if cfg.debug_identical_costs else data.hessians
    assert np.array_equal(other_ensemble.hessians, expected)
    same_topology = np.array_equal(other_topology.adjacency, topology.adjacency)
    same_data = np.array_equal(other_ensemble.offsets, ensemble.offsets)
    assert not (same_topology and same_data)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(strategy="cta"),
        dict(a_rule="averaging"),
        dict(c_rule="averaging"),
        dict(step_mode="unequal_uniform_half"),
        dict(step_seed=11),
        dict(mu_max_schedule=(1e-2,)),
        dict(tol=1e-10),
        dict(max_iter=50),
    ],
    ids=lambda overrides: next(iter(overrides)),
)
def test_other_fields_share_the_inputs(overrides):
    topology, ensemble = inputs_of(small_config())
    other_topology, other_ensemble = inputs_of(small_config(**overrides))
    assert other_topology is topology and other_ensemble is ensemble


def test_identical_costs_never_get_the_plain_ensemble():
    for order in ((False, True), (True, False)):
        experiment_module._scenario_inputs.cache_clear()
        ensembles = {flag: inputs_of(small_config(debug_identical_costs=flag))[1] for flag in order}
        plain, identical = ensembles[False], ensembles[True]
        assert identical is not plain
        assert all(cost is identical.costs[0] for cost in identical.costs)
        assert np.array_equal(identical.hessians[0], plain.hessians[0])
        assert len({id(cost) for cost in plain.costs}) == plain.n
        assert not np.array_equal(identical.hessians, plain.hessians)


def test_memo_keeps_csv_bytes(tmp_path):
    families = list(builtin_figure_configs((1e-2, 10**-2.5)).values())[:2]

    def csv_bytes(name):
        rows = [row for configs in families for config in configs for row in run_sweep(config)]
        emit_csv(rows, tmp_path / name)
        return (tmp_path / name).read_bytes()

    experiment_module._scenario_inputs.cache_clear()
    cold = csv_bytes("cold.csv")
    info = experiment_module._scenario_inputs.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    assert csv_bytes("warm.csv") == cold
    assert experiment_module._scenario_inputs.cache_info().misses == 1


def test_memo_stays_within_its_bound():
    memo = experiment_module._scenario_inputs
    bound = memo.cache_parameters()["maxsize"]
    memo.cache_clear()
    for seed in range(bound + 4):
        build_scenario(small_config(data_seed=seed))
        assert memo.cache_info().currsize <= bound
    assert memo.cache_info().currsize == bound


# --- slope fitting --------------------------------------------------------------


def test_slope_exact_square_law():
    rows = synthetic_rows([(mu, mu**2) for mu in (1e-2, 1e-3, 1e-4)])
    assert fit_loglog_slope(rows) == pytest.approx(2.0, abs=1e-12)


def test_slope_constant_is_zero():
    rows = synthetic_rows([(mu, 3.5) for mu in (1e-2, 1e-3, 1e-4)])
    assert fit_loglog_slope(rows) == pytest.approx(0.0, abs=1e-12)


def test_slope_rejects_nonpositive_and_short_input():
    rows = synthetic_rows([(1e-2, 1.0), (1e-3, 0.0), (1e-4, 1.0)])
    with pytest.raises(ValueError, match="inapplicable"):
        fit_loglog_slope(rows)
    with pytest.raises(ValueError, match="three rows"):
        fit_loglog_slope(synthetic_rows([(1e-2, 1.0), (1e-3, 1.0)]))
    narrow = synthetic_rows([(1e-2, 1.0), (9e-3, 1.0), (8e-3, 1.0)])
    with pytest.raises(ValueError, match="decade"):
        fit_loglog_slope(narrow)


def test_slope_rejects_unconverged_rows():
    rows = synthetic_rows([(mu, mu**2) for mu in (1e-2, 1e-3, 1e-4, 1e-5)])
    rows[2:] = [dataclasses.replace(row, converged=False) for row in rows[2:]]
    with pytest.raises(ValueError, match="mu_max 0.0001 "):
        fit_loglog_slope(rows)


# --- CSV and plot script ---------------------------------------------------------


def test_csv_header_and_shape(tmp_path):
    out = tmp_path / "rows.csv"
    emit_csv([], out)
    assert out.read_bytes() == (CSV_HEADER + "\n").encode()
    emit_csv(synthetic_rows([(1e-2, 1.0)]), out)
    text = out.read_text()
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert "\r" not in text
    assert "1.0000000000000000e-02" in lines[1]
    assert lines[1].endswith(",true")


def test_csv_header_matches_documented_columns():
    assert CSV_HEADER == (
        "scenario_id,strategy,a_rule,c_rule,step_mode,mu_max,bias_sq_norm,"
        "limit_bias_sq_norm,assumption3_satisfied,spectral_radius,iterations,converged"
    )


def test_csv_byte_identical_across_runs(tmp_path):
    cfg = small_config(mu_max_schedule=(1e-2, 3e-3))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_csv(run_sweep(cfg), a)
    emit_csv(run_sweep(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_plot_script_horizontal_line_rules(tmp_path):
    out = tmp_path / "plot.gp"
    satisfied = synthetic_rows([(1e-2, 1e-4), (1e-3, 1e-6)])
    emit_plot_script(satisfied, out)
    text = out.read_text()
    assert "set logscale xy" in text
    assert "dashtype" not in text  # zero limit: no horizontal line

    unsatisfied = [
        SweepRow(
            scenario_id="plateau",
            strategy="atc",
            a_rule="averaging",
            c_rule="averaging",
            step_mode="equal",
            mu_max=mu,
            bias_sq_norm=val,
            limit_bias_sq_norm=2e-5,
            assumption3_satisfied=False,
            spectral_radius=0.9,
            iterations=5,
            converged=True,
        )
        for mu, val in [(1e-2, 1e-4), (1e-3, 3e-5)]
    ]
    emit_plot_script(unsatisfied, out)
    text = out.read_text()
    assert text.count("dashtype") == 1
    assert "2.0000000000000001e-05" in text or "2e-05" in text


def test_plot_script_empty_rows_axes_only(tmp_path):
    out = tmp_path / "empty.gp"
    emit_plot_script([], out)
    text = out.read_text()
    assert "set logscale xy" in text
    assert "\nplot" not in text


def test_plot_script_doubles_the_quotes_of_the_image_name(tmp_path):
    # gnuplot ends a single-quoted string at a lone quote; '' stands for one
    out = tmp_path / "bob's.gp"
    emit_plot_script(synthetic_rows([(1e-2, 1e-4), (1e-3, 1e-6)]), out)
    assert "set output 'bob''s.png'" in out.read_text().splitlines()


def test_builtin_figure_configs_cover_four_families():
    figures = builtin_figure_configs()
    assert set(figures) == {"atc_unequal", "cta_unequal", "atc_equal", "cta_equal"}
    for configs in figures.values():
        assert [c.a_rule for c in configs] == ["averaging", "relative_degree", "metropolis"]
        assert len({c.scenario_id for c in configs}) == 3


def test_builtin_scenarios_descend_to_their_plateaus():
    # closed-form bias stands in for the iterated value here (the sweep engine
    # cross-checks their agreement); metropolis scenarios descend strictly,
    # the rest are allowed the sub-percent wiggle inside the plateau
    import diffpareto as dp
    from diffpareto.experiment import EXPERIMENT_AVG_DEGREE

    for configs in builtin_figure_configs().values():
        for cfg in configs:
            topo = dp.generate_topology(cfg.n_nodes, EXPERIMENT_AVG_DEGREE, cfg.topology_seed)
            ens = dp.sample_ensemble(cfg.n_nodes, cfg.dim, cfg.rows, cfg.data_seed)
            a = dp.build_A(topo, cfg.a_rule)
            c = dp.build_C(topo, cfg.c_rule)
            shape = draw_step_shape(cfg.n_nodes, cfg.step_mode, cfg.step_seed)
            make = dp.atc_config if cfg.strategy == "atc" else dp.cta_config
            values = []
            for mu in sorted(cfg.mu_max_schedule, reverse=True):
                stacked = dp.closed_form_bias(make(a, c, mu * shape), ens)
                values.append(float(stacked @ stacked))
            limit = dp.limit_bias(make(a, c, cfg.mu_max_schedule[0] * shape), ens)
            limit_sq = cfg.n_nodes * float(limit @ limit)
            if cfg.a_rule == "metropolis":
                assert all(b < a_ for a_, b in zip(values, values[1:]))
            else:
                for earlier, later in zip(values, values[1:]):
                    in_plateau = abs(earlier - limit_sq) <= 0.05 * limit_sq
                    assert later <= earlier or in_plateau


# --- CLI ---------------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    doc = dict(
        strategy="atc",
        a_rule="metropolis",
        c_rule="relative_degree",
        step_mode="equal",
        mu_max_schedule=[1e-2, 3e-3],
        n_nodes=12,
        dim=2,
        rows=4,
    )
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_cli_sweep_writes_csv_and_plot(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "rows.csv"
    plot = tmp_path / "rows.gp"
    code = cli_main(
        ["sweep", "--config", str(config), "--out", str(out), "--plot", str(plot)]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER
    assert "set logscale xy" in plot.read_text()


@pytest.mark.parametrize(
    "flag, bad",
    [
        pytest.param("--out", "missing/x", id="--out"),
        pytest.param("--plot", "missing/x", id="--plot"),
        # an existing directory, which could not be opened after the sweep
        pytest.param("--out", "outdir", id="out-is-a-directory"),
        pytest.param("--plot", "outdir", id="plot-is-a-directory"),
        # the CSV's own path, which the script would replace
        pytest.param("--plot", "rows.csv", id="plot-is-out"),
    ],
)
def test_cli_sweep_checks_output_directories_before_running(
    tmp_path, monkeypatch, capsys, flag, bad
):
    (tmp_path / "outdir").mkdir()
    paths = {"--out": tmp_path / "rows.csv", "--plot": tmp_path / "rows.gp"}
    paths[flag] = tmp_path / bad
    swept = []
    monkeypatch.setattr(cli_module, "run_sweep", lambda config: swept.append(config) or [])
    argv = ["sweep", "--config", str(write_config(tmp_path))]
    assert cli_main(argv + [arg for item in paths.items() for arg in map(str, item)]) == 1
    assert swept == []
    assert {path.name for path in tmp_path.rglob("*")} == {"config.json", "outdir"}
    assert str(paths[flag]) in capsys.readouterr().err


def test_cli_sweep_deterministic(tmp_path):
    config = write_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(["sweep", "--config", str(config), "--out", str(a)]) == 0
    assert cli_main(["sweep", "--config", str(config), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_check_reports_assumption3(tmp_path, capsys):
    config = write_config(tmp_path, n_nodes=50, dim=4, rows=6, mu_max_schedule=[1e-3])
    assert cli_main(["check", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "Assumption 1: SATISFIED" in out
    assert "Assumption 2: SATISFIED" in out
    assert "Assumption 3: SATISFIED (c0=0.02)" in out
    assert "Step-size condition: SATISFIED" in out


def test_cli_check_not_satisfied_path(tmp_path, capsys):
    config = write_config(
        tmp_path, a_rule="averaging", step_mode="unequal_uniform_half"
    )
    assert cli_main(["check", "--config", str(config)]) == 0
    assert "Assumption 3: NOT SATISFIED" in capsys.readouterr().out


def test_cli_check_assumption1_violated_exits_one(tmp_path, capsys):
    # no gradient exchange and two data rows in four dimensions: every
    # node's Hessian is singular, so no weighted lower bound is positive
    config = write_config(tmp_path, c_rule="identity", n_nodes=20, dim=4, rows=2)
    assert cli_main(["check", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert "Assumption 1: VIOLATED (min weighted curvature lower bound 0)" in captured.out
    assert "error: Assumption 1 violated: " in captured.err


def test_cli_check_and_sweep_reject_the_same_node_beyond_its_step_bound(tmp_path, capsys):
    config = write_config(tmp_path, mu_max_schedule=[0.5, 1e-3], dim=4, rows=6)
    assert cli_main(["check", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert "Step-size condition: VIOLATED" in captured.out
    assert "tightest at node 8)" in captured.out
    assert captured.err.startswith("error: step size 0.5 at node 8 ")
    assert cli_main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: step size 0.5 at node 8 ")


def test_cli_check_gives_the_verdict_of_the_run_at_the_largest_usable_step(tmp_path, capsys):
    # at this scenario's printed largest usable mu_max, 0.032482232288770355,
    # mu_max < margins[tightest] is False while every step is below its bound
    doc = dict(
        strategy="atc",
        a_rule="averaging",
        c_rule="relative_degree",
        step_mode="unequal_uniform_half",
        n_nodes=20,
        step_seed=1,
    )
    scenario = build_scenario(ExperimentConfig(mu_max_schedule=(1e-3,), **doc))
    usable = float(scenario.margins[scenario.tightest])
    path = tmp_path / "config.json"
    above = np.nextafter(usable, 1.0)
    for mu_max, code, state in ((usable, 0, "SATISFIED"), (above, 1, "VIOLATED")):
        path.write_text(json.dumps(dict(doc, mu_max_schedule=[mu_max])), encoding="utf-8")
        assert cli_main(["check", "--config", str(path)]) == code
        captured = capsys.readouterr()
        assert f"Step-size condition: {state} (" in captured.out
        swept = cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert swept == code
        assert capsys.readouterr().err == captured.err
    assert captured.err.startswith("error: step size 0.0273128 at node 19 is not below")


def test_cli_check_at_a_thousand_nodes_forms_no_n_m_square_matrix(tmp_path, monkeypatch, capsys):
    # N*M = 4000: dense, B and C would take 128 MB each; the matrix-free route
    # lifts nothing and hands no dense routine an array as wide as N*M
    lifts, shapes = [], []
    count_calls(monkeypatch, "lift", lifts)
    for name in ("eigvalsh", "eigvals", "solve"):

        def counted(a, *args, _original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    config = write_config(
        tmp_path,
        step_mode="unequal_uniform_half",
        mu_max_schedule=[1e-3],
        n_nodes=1000,
        dim=4,
        rows=6,
    )
    assert cli_main(["check", "--config", str(config)]) == 0
    assert "Error-propagation spectral radius at mu_max=0.001: 0.99" in capsys.readouterr().out
    assert lifts == []
    assert (1000, 1000) in shapes
    assert max(max(shape) for shape in shapes) < 4000


def test_cli_check_honours_identical_costs_flag(tmp_path, capsys):
    def printed_limit_norm(**overrides) -> float:
        config = write_config(
            tmp_path,
            a_rule="averaging",
            step_mode="unequal_uniform_half",
            n_nodes=20,
            mu_max_schedule=[1e-2],
            **overrides,
        )
        assert cli_main(["check", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("Small-step-size bias norm"))
        return float(line.rsplit(":", 1)[1])

    # one cost at every node: the optimum is shared and the limit bias vanishes
    assert printed_limit_norm(debug_identical_costs=True) <= 1e-12
    assert printed_limit_norm() > 1e-6


@pytest.mark.parametrize(
    "strategy, c_rule, step_mode, at_floor",
    [
        ("atc", "relative_degree", "equal", True),
        ("cta", "averaging", "equal", True),
        ("atc", "relative_degree", "unequal_uniform_half", False),
    ],
)
def test_cli_check_marks_a_limit_at_its_rounding_floor(
    tmp_path, capsys, strategy, c_rule, step_mode, at_floor
):
    # the two built-in Assumption-3 scenarios have a zero limit, computed as
    # noise below the floor; unequal steps break Assumption 3 and leave a
    # limit far above it
    config = write_config(
        tmp_path,
        strategy=strategy,
        c_rule=c_rule,
        step_mode=step_mode,
        n_nodes=50,
        dim=4,
        rows=6,
        mu_max_schedule=[1e-3],
    )
    assert cli_main(["check", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("Small-step-size bias norm"))
    norm = float(lines[at].rsplit(":", 1)[1])
    zero = [ln for ln in lines if ln.startswith("Small-step-size bias: zero")]
    if at_floor:
        assert lines[at + 1 :] == zero
        floor = float(zero[0].rsplit(" ", 1)[1].rstrip(")"))
        assert norm <= floor <= 1e-13
    else:
        assert zero == [] and norm > 1e-3


def test_cli_check_marks_a_zero_limit_of_identical_costs(tmp_path, capsys):
    # identical costs make the limit exactly zero without Assumption 3; every
    # g_l(w*) is then the rounding of w*, which the floor must cover
    config = write_config(
        tmp_path,
        a_rule="averaging",
        step_mode="unequal_uniform_half",
        n_nodes=20,
        debug_identical_costs=True,
        mu_max_schedule=[1e-3],
    )
    assert cli_main(["check", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("Assumption 3: NOT SATISFIED") for ln in lines)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("Small-step-size bias norm"))
    norm = float(lines[at].rsplit(":", 1)[1])
    assert lines[at + 1].startswith("Small-step-size bias: zero to working precision")
    floor = float(lines[at + 1].rsplit(" ", 1)[1].rstrip(")"))
    assert norm <= floor <= 1e-13


def test_cli_unknown_flag_exits_one(capsys):
    assert cli_main(["sweep", "--config", "x", "--out", "y", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_no_command_exits_one(capsys):
    assert cli_main([]) == 1


def test_cli_bad_config_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["sweep", "--config", str(missing), "--out", "x.csv"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli_main(["sweep", "--config", str(bad), "--out", "x.csv"]) == 1
    unknown = write_config(tmp_path)
    doc = json.loads(unknown.read_text())
    doc["mystery"] = 1
    unknown.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(unknown), "--out", "x.csv"]) == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_nodes", "50"),
        ("n_nodes", 8.5),
        ("mu_max_schedule", 0.01),
        ("mu_max_schedule", None),
        ("mu_max_schedule", [[0.01]]),
        ("mu_max_schedule", "0.01"),
        ("mu_max_schedule", [True]),
        ("tol", "x"),
        ("tol", float("inf")),
        ("max_iter", 10.5),
        ("dim", 2.0),
        ("rows", 3.5),
        ("topology_seed", 1.5),
        ("strategy", ["atc"]),
        ("debug_identical_costs", 1),
        pytest.param("tol", 10**400, id="tol-401-digit-integer"),
        pytest.param("n_nodes", 10**400, id="n_nodes-401-digit-integer"),
        pytest.param("dim", 10**400, id="dim-401-digit-integer"),
        pytest.param("rows", 10**400, id="rows-401-digit-integer"),
    ],
)
def test_cli_malformed_config_field_exits_one(tmp_path, capsys, field, value):
    config = write_config(tmp_path, **{field: value})
    out = str(tmp_path / "x.csv")
    assert cli_main(["sweep", "--config", str(config), "--out", out]) == 1
    assert cli_main(["check", "--config", str(config)]) == 1
    assert f"error: {field} must be" in capsys.readouterr().err


def test_cli_schedule_integer_too_large_for_a_float_exits_one(tmp_path, capsys):
    # JSON carries a 401-digit integer as it is and reads it back as an int
    config = write_config(tmp_path, mu_max_schedule=[1e-2, 10**400])
    out = str(tmp_path / "x.csv")
    assert cli_main(["sweep", "--config", str(config), "--out", out]) == 1
    assert cli_main(["check", "--config", str(config)]) == 1
    message = "error: mu_max_schedule entries must be positive and finite"
    assert capsys.readouterr().err.count(message) == 2


def test_cli_topo_round_trip(tmp_path):
    out = tmp_path / "graph.edges"
    assert cli_main(["topo", "--n", "12", "--deg", "3", "--seed", "5", "--out", str(out)]) == 0
    header, *edges = out.read_text().splitlines()
    n = int(header.split()[1])
    adjacency = np.eye(n, dtype=bool)
    for line in edges:
        u, v = (int(part) for part in line.split())
        adjacency[u, v] = adjacency[v, u] = True
    assert n == 12
    assert np.array_equal(adjacency, generate_topology(12, 3.0, seed=5).adjacency)


def test_cli_topo_invalid_exits_one(tmp_path, capsys):
    out = tmp_path / "graph.edges"
    assert cli_main(["topo", "--n", "50", "--deg", "1", "--seed", "5", "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param("outdir", "cannot write {}: it is a directory", id="out-is-a-directory"),
        pytest.param("missing/x", "no directory to write {} into", id="out-in-a-missing-directory"),
    ],
)
def test_cli_topo_checks_its_output_path_before_generating(
    tmp_path, monkeypatch, capsys, bad, message
):
    (tmp_path / "outdir").mkdir()
    out = tmp_path / bad
    generated = []
    monkeypatch.setattr(cli_module, "generate_topology", lambda *args: generated.append(args))
    argv = ["topo", "--n", "12", "--deg", "3", "--seed", "5", "--out", str(out)]
    assert cli_main(argv) == 1
    assert generated == []
    assert capsys.readouterr().err == f"error: {message.format(out)}\n"
    assert {path.name for path in tmp_path.rglob("*")} == {"outdir"}


def test_cli_figures_smoke(tmp_path):
    outdir = tmp_path / "figs"
    code = cli_main(["figures", "--outdir", str(outdir), "--schedule", "1e-2,3e-3"])
    assert code == 0
    csvs = sorted(p.name for p in outdir.glob("*.csv"))
    scripts = sorted(p.name for p in outdir.glob("*.gp"))
    assert csvs == [
        "sweep_atc_equal.csv",
        "sweep_atc_unequal.csv",
        "sweep_cta_equal.csv",
        "sweep_cta_unequal.csv",
    ]
    assert len(scripts) == 4
    first = (outdir / "sweep_atc_equal.csv").read_text().splitlines()
    assert first[0] == CSV_HEADER
    assert len(first) == 1 + 3 * 2  # three scenarios, two schedule points


def test_cli_figures_runs_the_default_schedule_without_the_flag(tmp_path, monkeypatch):
    # the sweeps are stubbed: only the schedule handed to them is checked
    schedules = []

    def recorded(config):
        schedules.append(config.mu_max_schedule)
        return synthetic_rows([(mu, mu) for mu in config.mu_max_schedule])

    monkeypatch.setattr(cli_module, "run_sweep", recorded)
    assert cli_main(["figures", "--outdir", str(tmp_path)]) == 0
    assert schedules == [DEFAULT_SCHEDULE] * 12
    assert len(list(tmp_path.glob("*.csv"))) == 4


@pytest.mark.parametrize(
    "schedule, message",
    [
        pytest.param(
            "1e-2,abc",
            "error: bad --schedule value: could not convert string to float: 'abc'",
            id="not-a-number",
        ),
        pytest.param(
            "1e-2,-1", "error: mu_max_schedule entries must be positive and finite", id="negative"
        ),
    ],
)
def test_cli_figures_rejects_a_bad_schedule_before_creating_outdir(
    tmp_path, capsys, schedule, message
):
    outdir = tmp_path / "figs"
    assert cli_main(["figures", "--outdir", str(outdir), "--schedule", schedule]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not outdir.exists()


def test_cli_figures_that_fails_in_a_sweep_leaves_no_output(tmp_path, capsys):
    # mu_max 0.5 is above the first scenario's stability bound
    outdir = tmp_path / "figs"
    assert cli_main(["figures", "--outdir", str(outdir), "--schedule", "0.5"]) == 1
    assert "is not below its stability bound" in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_figures_that_fails_in_a_later_family_writes_no_earlier_family(
    tmp_path, capsys, monkeypatch
):
    # the sweeps are stubbed: the first family's three run, the fourth sweep fails
    calls = []

    def failing(config):
        calls.append(config.scenario_id)
        if len(calls) == 4:
            raise ValueError("stubbed failure")
        return synthetic_rows([(1e-2, 1e-2)])

    monkeypatch.setattr(cli_module, "run_sweep", failing)
    outdir = tmp_path / "figs"
    assert cli_main(["figures", "--outdir", str(outdir), "--schedule", "1e-2"]) == 1
    assert capsys.readouterr() == ("", "error: stubbed failure\n")
    assert len(calls) == 4
    assert not outdir.exists()


@pytest.mark.parametrize("below", [None, "sub"], ids=["outdir-is-a-file", "outdir-under-a-file"])
def test_cli_figures_checks_the_output_directory_before_running(
    tmp_path, capsys, monkeypatch, below
):
    # an --outdir that is a file, or lies under one, fails before any family
    # runs, with the path named, and creates nothing
    swept = []
    monkeypatch.setattr(cli_module, "run_sweep", lambda config: swept.append(config) or [])
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n", encoding="utf-8")
    outdir = blocker if below is None else blocker / below
    assert cli_main(["figures", "--outdir", str(outdir), "--schedule", "1e-2"]) == 1
    assert capsys.readouterr() == (
        "",
        f"error: cannot write into {outdir}: {blocker} is not a directory\n",
    )
    assert swept == []
    assert sorted(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def test_cli_figures_checks_every_output_file_before_running(tmp_path, capsys, monkeypatch):
    # an output file of the last family that is a directory fails before any
    # family runs, with the path named, and nothing is written
    swept = []
    monkeypatch.setattr(cli_module, "run_sweep", lambda config: swept.append(config) or [])
    taken = tmp_path / "sweep_cta_equal.csv"
    taken.mkdir()
    assert cli_main(["figures", "--outdir", str(tmp_path), "--schedule", "1e-2,1e-3"]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {taken}: it is a directory\n")
    assert swept == []
    assert list(tmp_path.rglob("*")) == [taken]


def test_cli_sweep_runtime_failure_exits_two_and_writes_no_csv(tmp_path, capsys, monkeypatch):
    # a converged row moved off the closed form, as a broken recursion would leave it
    shift_fixed_points(monkeypatch)
    out = tmp_path / "rows.csv"
    assert cli_main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("runtime failure: iterated fixed point disagrees")
    assert captured.out == ""
    assert not out.exists()
