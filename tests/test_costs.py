import re

import numpy as np
import pytest

from diffpareto.bias import limit_bias
from diffpareto.costs import (
    CostEnsemble,
    QuadraticCost,
    check_assumption1,
    global_optimum,
    sample_ensemble,
    stacked_gradient,
    step_size_bounds,
)
from diffpareto.diffusion import DiffusionConfig
from diffpareto.network import (
    AssumptionError,
    CombinationMatrix,
    build_C,
    generate_topology,
    identity_combination,
)
from diffpareto.rng import SplitMix64

# every data row lies along (1, 2), so its Hessian has rank one
RANK_ONE = QuadraticCost(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
SINGULAR = (
    r"Assumption 1 violated: the {} is singular \(matrix is singular to working"
    r" precision at column (\d+) \(pivot magnitude (\S+)\)\)"
)


def scalar_cost(target: float) -> QuadraticCost:
    """(w - target)^2 as a least-squares cost."""
    return QuadraticCost(np.array([[1.0]]), np.array([target]))


def two_scalar_ensemble() -> CostEnsemble:
    return CostEnsemble(costs=(scalar_cost(1.0), scalar_cost(3.0)), dim=1)


def central_difference_gradient(cost: QuadraticCost, w: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(w)
    for i in range(w.shape[0]):
        e = np.zeros_like(w)
        e[i] = h
        out[i] = (cost.value(w + e) - cost.value(w - e)) / (2.0 * h)
    return out


# --- sampling ---------------------------------------------------------------


def test_sample_ensemble_shapes():
    ens = sample_ensemble(50, 4, 6, data_seed=42)
    assert ens.n == 50
    assert all(c.x_matrix.shape == (6, 4) for c in ens.costs)
    assert all(c.y_vector.shape == (6,) for c in ens.costs)
    # the stacks hold each cost's Hessian and its offset b = -gradient(0)
    assert np.array_equal(ens.hessians, [c.hessian() for c in ens.costs])
    assert np.array_equal(ens.offsets, [-c.gradient(np.zeros(4)) for c in ens.costs])
    with pytest.raises(ValueError, match="read-only"):
        ens.hessians[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ens.offsets[0, 0] = 1.0


def test_sample_ensemble_determinism():
    a = sample_ensemble(5, 3, 4, data_seed=7)
    b = sample_ensemble(5, 3, 4, data_seed=7)
    for ca, cb in zip(a.costs, b.costs):
        assert np.array_equal(ca.x_matrix, cb.x_matrix)
        assert np.array_equal(ca.y_vector, cb.y_vector)
    c = sample_ensemble(5, 3, 4, data_seed=8)
    assert not np.array_equal(a.costs[0].x_matrix, c.costs[0].x_matrix)


@pytest.mark.parametrize(("m", "rows"), [(4, 6), (3, 5), (1, 1), (2, 3)])
def test_sample_ensemble_draws_as_the_per_node_calls_do(m, rows):
    # X_k, then y_k, each from its own call on one stream, so an odd count
    # drops the second draw of its last pair
    rng = SplitMix64(19)
    ens = sample_ensemble(7, m, rows, data_seed=19)
    for cost in ens.costs:
        assert np.array_equal(cost.x_matrix, np.reshape(rng.normals(rows * m), (rows, m)))
        assert np.array_equal(cost.y_vector, rng.normals(rows))


def test_sample_ensemble_mean_near_zero():
    ens = sample_ensemble(1000, 4, 6, data_seed=11)
    entries = np.concatenate([c.x_matrix.ravel() for c in ens.costs])
    assert abs(entries.mean()) <= 0.02


# --- gradient and Hessian ---------------------------------------------------


def test_gradient_hand_value():
    assert scalar_cost(1.0).gradient(np.array([0.0])) == pytest.approx([-2.0])


def test_gradient_zero_at_own_minimizer():
    rng = np.random.default_rng(3)
    cost = QuadraticCost(rng.normal(size=(6, 4)), rng.normal(size=6))
    w_min, *_ = np.linalg.lstsq(cost.x_matrix, cost.y_vector, rcond=None)
    assert np.abs(cost.gradient(w_min)).max() <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    for trial in range(10):
        cost = QuadraticCost(rng.normal(size=(5, 3)), rng.normal(size=5))
        w = rng.normal(size=3)
        fd = central_difference_gradient(cost, w, h=1e-6)
        g = cost.gradient(w)
        assert np.abs(fd - g).max() <= 1e-5 * max(1.0, np.abs(g).max())


def test_gradient_dimension_error():
    with pytest.raises(ValueError, match="dim"):
        scalar_cost(1.0).gradient(np.array([1.0, 2.0]))


def test_hessian_hand_values():
    assert np.allclose(scalar_cost(1.0).hessian(), [[2.0]], atol=1e-15)
    assert np.array_equal(QuadraticCost(np.eye(2), np.zeros(2)).hessian(), 2.0 * np.eye(2))


def test_hessian_independent_of_point():
    rng = np.random.default_rng(9)
    cost = QuadraticCost(rng.normal(size=(5, 3)), rng.normal(size=5))
    h = cost.hessian()
    for w in (rng.normal(size=3), rng.normal(size=3)):
        fd = np.column_stack(
            [
                (cost.gradient(w + 1e-6 * e) - cost.gradient(w - 1e-6 * e)) / 2e-6
                for e in np.eye(3)
            ]
        )
        assert np.abs(fd - h).max() <= 1e-6


def test_hessian_positive_semidefinite():
    rng = np.random.default_rng(17)
    for _ in range(5):
        cost = QuadraticCost(rng.normal(size=(3, 4)), rng.normal(size=3))
        eigs = np.linalg.eigvalsh(cost.hessian())
        assert eigs.min() >= -1e-10


def test_hessian_bounds_hand_values():
    # one node and an identity C: the bounds are the node's own eigenvalues
    eye = identity_combination(1)
    ens = CostEnsemble(costs=(QuadraticCost(np.eye(2), np.zeros(2)),), dim=2)
    assert check_assumption1(eye, ens).weighted_lambda_min == pytest.approx([2.0])
    assert step_size_bounds(eye, ens) == pytest.approx([2.0 / 2.0])
    ens = CostEnsemble(costs=(QuadraticCost(np.diag([1.0, 2.0]), np.zeros(2)),), dim=2)
    assert check_assumption1(eye, ens).weighted_lambda_min == pytest.approx([2.0], abs=1e-9)
    assert step_size_bounds(eye, ens) == pytest.approx([2.0 / 8.0], abs=1e-9)


def test_hessian_bounds_rank_deficient():
    rng = np.random.default_rng(5)
    eye = identity_combination(1)
    wide = QuadraticCost(rng.normal(size=(2, 4)), rng.normal(size=2))  # rows < dim
    report = check_assumption1(eye, CostEnsemble(costs=(wide,), dim=4))
    assert not report.satisfied
    assert report.weighted_lambda_min[0] == 0.0
    tall = QuadraticCost(rng.normal(size=(6, 4)), rng.normal(size=6))
    assert check_assumption1(eye, CostEnsemble(costs=(tall,), dim=4)).weighted_lambda_min[0] > 0.0


# --- global optimum and stacked gradient ------------------------------------


def test_global_optimum_two_scalars():
    assert global_optimum(two_scalar_ensemble()) == pytest.approx([2.0])


def test_global_optimum_interpolates_square_system():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    y = rng.normal(size=3)
    ens = CostEnsemble(costs=(QuadraticCost(x, y),), dim=3)
    assert np.allclose(global_optimum(ens), np.linalg.solve(x, y), atol=1e-10)


def test_global_optimum_stationarity_and_minimality():
    ens = sample_ensemble(10, 3, 5, data_seed=23)
    w_star = global_optimum(ens)
    agg = sum(c.gradient(w_star) for c in ens.costs)
    assert np.linalg.norm(agg) <= 1e-9
    value = sum(c.value(w_star) for c in ens.costs)
    rng = np.random.default_rng(0)
    for _ in range(100):
        delta = rng.normal(size=3)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert value <= sum(c.value(w_star + delta) for c in ens.costs)


def test_global_optimum_singular_names_assumption1():
    zero = QuadraticCost(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(AssumptionError, match="Assumption 1"):
        global_optimum(CostEnsemble(costs=(zero,), dim=2))


def test_global_optimum_singular_names_the_column_and_carries_the_pivot():
    with pytest.raises(AssumptionError) as excinfo:
        global_optimum(CostEnsemble(costs=(RANK_ONE, RANK_ONE), dim=2))
    found = re.fullmatch(SINGULAR.format("aggregate normal matrix"), str(excinfo.value))
    assert found is not None
    assert found[1] == "1"
    assert float(found[2]) <= 1e-12


def test_limit_names_a_singular_z_weighted_aggregate_hessian():
    # a2 sends everything to node 0, so z = (1, 0) and the limit weights node
    # 0's rank-one Hessian alone while the aggregate normal matrix is regular
    ens = CostEnsemble(costs=(RANK_ONE, QuadraticCost(np.eye(2), np.ones(2))), dim=2)
    a1 = CombinationMatrix(np.full((2, 2), 0.5), kind="doubly_stochastic")
    a2 = CombinationMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]), kind="left_stochastic")
    cfg = DiffusionConfig(a1=a1, a2=a2, c=identity_combination(2), step_sizes=np.full(2, 0.01))
    global_optimum(ens)
    with pytest.raises(AssumptionError) as excinfo:
        limit_bias(cfg, ens)
    found = re.fullmatch(SINGULAR.format("z-weighted aggregate Hessian"), str(excinfo.value))
    assert found is not None
    assert found[1] == "1"
    assert float(found[2]) <= 1e-12


def test_stacked_gradient_hand_value():
    ens = two_scalar_ensemble()
    assert stacked_gradient(ens, np.array([2.0])) == pytest.approx([2.0, -2.0])


def test_stacked_gradient_sums_to_zero_at_optimum():
    ens = sample_ensemble(8, 4, 6, data_seed=31)
    w_star = global_optimum(ens)
    g0 = stacked_gradient(ens, w_star).reshape(8, 4)
    total = np.abs(g0.sum(axis=0)).max()
    scale = sum(np.linalg.norm(row) for row in g0)
    assert total <= 1e-9 * scale


def test_stacked_gradient_blocks_sum_to_aggregate():
    ens = sample_ensemble(6, 3, 5, data_seed=37)
    w = np.array([0.3, -1.2, 0.8])
    stacked = stacked_gradient(ens, w).reshape(6, 3)
    agg = sum(c.gradient(w) for c in ens.costs)
    assert np.allclose(stacked.sum(axis=0), agg, atol=1e-12)


# --- step-size bounds and Assumption 1 --------------------------------------


def top_curvature_bounds(c: CombinationMatrix, ens: CostEnsemble) -> np.ndarray:
    """Independent oracle: 2 over the c-weighted top Hessian eigenvalues."""
    lambda_max = np.linalg.eigvalsh(np.stack([cost.hessian() for cost in ens.costs]))[:, -1]
    return 2.0 / (c.matrix.T @ lambda_max)


def test_max_step_size_scalar():
    ens = CostEnsemble(costs=(scalar_cost(1.0),), dim=1)
    bounds = step_size_bounds(identity_combination(1), ens)
    assert bounds == pytest.approx([1.0])
    assert bounds == pytest.approx(top_curvature_bounds(identity_combination(1), ens))


def test_max_step_size_identity_data():
    # one node whose cost has Hessian 2*I, so the bound is 2/2 = 1
    ens = CostEnsemble(costs=(QuadraticCost(np.eye(2), np.zeros(2)),), dim=2)
    assert step_size_bounds(identity_combination(1), ens) == pytest.approx([1.0])


def test_max_step_size_halves_when_rows_doubled():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=4)
    ens1 = CostEnsemble(costs=(QuadraticCost(x, y),), dim=3)
    ens2 = CostEnsemble(
        costs=(QuadraticCost(np.vstack([x, x]), np.concatenate([y, y])),), dim=3
    )
    eye = identity_combination(1)
    assert step_size_bounds(eye, ens2) == pytest.approx(step_size_bounds(eye, ens1) / 2)
    assert step_size_bounds(eye, ens2) == pytest.approx(top_curvature_bounds(eye, ens2))


def test_max_step_size_requires_positive_floor():
    zero = QuadraticCost(np.zeros((2, 2)), np.zeros(2))
    ens = CostEnsemble(costs=(zero,), dim=2)
    with pytest.raises(AssumptionError, match="Assumption 1"):
        step_size_bounds(identity_combination(1), ens)


def test_check_assumption1_cases():
    full = sample_ensemble(4, 2, 4, data_seed=3)
    eye = identity_combination(4)
    assert check_assumption1(eye, full).satisfied

    degenerate = CostEnsemble(
        costs=full.costs[:3] + (QuadraticCost(np.zeros((4, 2)), np.zeros(4)),), dim=2
    )
    report = check_assumption1(eye, degenerate)
    assert not report.satisfied
    assert report.weighted_lambda_min[3] == pytest.approx(0.0, abs=1e-12)

    averaging_like = CombinationMatrix(
        np.full((4, 4), 0.25), kind="doubly_stochastic"
    )
    assert check_assumption1(averaging_like, full).satisfied


def test_step_size_bounds_match_per_node():
    ens = sample_ensemble(5, 3, 5, data_seed=13)
    eye = identity_combination(5)
    assert step_size_bounds(eye, ens) == pytest.approx(top_curvature_bounds(eye, ens), rel=1e-14)
    topo = generate_topology(5, 3.0, seed=13)
    c = build_C(topo, "relative_degree")
    assert step_size_bounds(c, ens) == pytest.approx(top_curvature_bounds(c, ens), rel=1e-14)


def test_assumption1_rank_deficient_hessians_exact_zero():
    # two rows in four dimensions: every Hessian is singular, and the
    # bottom eigenvalue is reported as exactly zero, not rounding noise
    report = check_assumption1(identity_combination(10), sample_ensemble(10, 4, 2, 5))
    assert not report.satisfied
    assert np.array_equal(report.weighted_lambda_min, np.zeros(10))

