import numpy as np
import pytest

from diffpareto.network import (
    AssumptionError,
    CombinationMatrix,
    Topology,
    as_matrix,
    as_vector,
    build_A,
    build_C,
    check_assumption3,
    check_primitive,
    design_step_sizes_for_assumption3,
    generate_topology,
    identity_combination,
    mixing_product,
    perron_theta,
    topology_to_edge_list,
)

# left-stochastic 2x2 whose Perron vector solves 0.3*t1 = 0.4*t2, t1+t2 = 1
A22 = np.array([[0.7, 0.4], [0.3, 0.6]])
THETA22 = np.array([4.0 / 7.0, 3.0 / 7.0])


def path3() -> Topology:
    """Path 0-1-2; closed degrees are (2, 3, 2)."""
    adjacency = np.array(
        [[True, True, False], [True, True, True], [False, True, True]]
    )
    return Topology(n_nodes=3, adjacency=adjacency)


def bfs_component_size(adjacency: np.ndarray) -> int:
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in np.nonzero(adjacency[u])[0]:
            if v not in seen:
                seen.add(int(v))
                frontier.append(int(v))
    return len(seen)


# --- topology generation -------------------------------------------------


def test_two_nodes_single_edge():
    topo = generate_topology(2, 1.0, seed=99)
    assert topo.n_edges == 1
    assert topo.adjacency.all()


def test_generator_contract_n50_deg4():
    topo = generate_topology(50, 4.0, seed=7)
    assert bfs_component_size(topo.adjacency) == 50
    assert 87 <= topo.n_edges <= 113
    assert topo.n_edges == 100  # exactly 2E/N = 4 is reachable here
    open_degrees = topo.degrees - 1
    assert (open_degrees >= 1).all()


def test_generator_determinism():
    a = generate_topology(50, 4.0, seed=7)
    b = generate_topology(50, 4.0, seed=7)
    assert np.array_equal(a.adjacency, b.adjacency)
    c = generate_topology(50, 4.0, seed=8)
    assert not np.array_equal(a.adjacency, c.adjacency)


def test_generator_rejects_impossible_requests():
    with pytest.raises(ValueError):
        generate_topology(1, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_topology(10, 10.0, seed=0)  # target must be < n
    with pytest.raises(ValueError):
        generate_topology(50, 1.0, seed=0)  # connectivity forces avg degree ~2


def test_topology_validation():
    bad = np.array([[True, True], [False, True]])
    with pytest.raises(ValueError, match="symmetric"):
        Topology(n_nodes=2, adjacency=bad)
    disconnected = np.eye(3, dtype=bool)
    with pytest.raises(ValueError, match="connected"):
        Topology(n_nodes=3, adjacency=disconnected)


# each input check with an input that only it rejects: without the check the
# call returns, or fails later with another message
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: as_matrix([1.0, 2.0]), "expected a 2-D matrix", id="as_matrix-1d"),
        pytest.param(lambda: as_vector([[1.0]]), "expected a 1-D vector", id="as_vector-2d"),
        pytest.param(
            lambda: Topology(n_nodes=3, adjacency=np.eye(2, dtype=bool)),
            "does not match n_nodes",
            id="topology-shape",
        ),
        pytest.param(
            lambda: Topology(n_nodes=2, adjacency=np.array([[False, True], [True, True]])),
            "diagonal must be true",
            id="topology-open-neighborhood",
        ),
        pytest.param(
            lambda: CombinationMatrix(np.full((2, 3), 0.5), kind="left_stochastic"),
            "must be square",
            id="combination-not-square",
        ),
        pytest.param(
            lambda: CombinationMatrix(np.eye(2), kind="column_stochastic"),
            "unknown stochasticity kind",
            id="combination-kind",
        ),
        pytest.param(lambda: build_A(path3(), "identity"), "must be one of", id="build_A-rule"),
        pytest.param(lambda: build_C(path3(), "metropolis"), "must be one of", id="build_C-rule"),
        pytest.param(lambda: check_primitive(np.ones((2, 3))), "must be square", id="primitive"),
        pytest.param(
            lambda: design_step_sizes_for_assumption3(
                CombinationMatrix(A22, kind="left_stochastic"), identity_combination(2), 0.0
            ),
            "mu_max must be positive",
            id="design-mu_max",
        ),
    ],
)
def test_input_checks_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- combination matrices -------------------------------------------------


def test_averaging_rule_hand_values():
    a = build_A(path3(), "averaging").matrix
    expected = np.array(
        [[1 / 2, 1 / 3, 0.0], [1 / 2, 1 / 3, 1 / 2], [0.0, 1 / 3, 1 / 2]]
    )
    assert np.allclose(a, expected, atol=1e-15)


def test_relative_degree_rule_hand_values():
    a = build_A(path3(), "relative_degree").matrix
    expected = np.array(
        [[2 / 5, 2 / 7, 0.0], [3 / 5, 3 / 7, 3 / 5], [0.0, 2 / 7, 2 / 5]]
    )
    assert np.allclose(a, expected, atol=1e-15)


def test_metropolis_rule_hand_values():
    cm = build_A(path3(), "metropolis")
    expected = np.array(
        [[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]]
    )
    assert np.allclose(cm.matrix, expected, atol=1e-15)
    assert cm.kind == "doubly_stochastic"
    # the formula is symmetric entry by entry, so equality is exact
    assert np.array_equal(cm.matrix, cm.matrix.T)


@pytest.mark.parametrize("rule", ["averaging", "relative_degree", "metropolis"])
def test_build_a_invariants(rule):
    topo = generate_topology(30, 4.0, seed=11)
    cm = build_A(topo, rule)
    assert np.abs(cm.matrix.sum(axis=0) - 1.0).max() <= 1e-12
    assert (cm.matrix[~topo.adjacency] == 0.0).all()
    assert (np.diag(cm.matrix) > 0.0).all()


def test_build_c_identity():
    assert np.array_equal(build_C(path3(), "identity").matrix, np.eye(3))


@pytest.mark.parametrize("rule", ["averaging", "relative_degree"])
def test_build_c_is_transpose_of_rule(rule):
    topo = path3()
    c = build_C(topo, rule)
    assert np.array_equal(c.matrix, build_A(topo, rule).matrix.T)
    assert np.abs(c.matrix.sum(axis=1) - 1.0).max() <= 1e-12
    assert c.kind == "right_stochastic"


def test_combination_matrix_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CombinationMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]), kind="left_stochastic")
    with pytest.raises(ValueError, match="columns"):
        CombinationMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]), kind="left_stochastic")
    with pytest.raises(ValueError, match="rows"):
        CombinationMatrix(np.array([[0.9, 0.0], [0.1, 1.0]]), kind="right_stochastic")


# --- primitivity ----------------------------------------------------------


def test_identity_not_primitive():
    assert not check_primitive(np.eye(4))


def test_positive_matrix_primitive():
    assert check_primitive(A22)


def test_cycle_not_primitive():
    assert not check_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("n", [255, 256, 300])
def test_full_matrix_primitive_at_any_size(n):
    assert check_primitive(np.full((n, n), 1.0 / n))


def test_three_cycle_not_primitive():
    # period 3: powers cycle through three disjoint patterns
    cycle = np.roll(np.eye(3), 1, axis=1)
    assert not check_primitive(cycle)
    with_loop = cycle.copy()
    with_loop[0, 0] = 1.0
    assert check_primitive(with_loop)


def test_reducible_block_triangular_not_primitive():
    p = np.full((4, 4), 0.25)
    p[2:, :2] = 0.0  # nodes 2 and 3 never reach nodes 0 and 1
    assert not check_primitive(p)
    assert not check_primitive(p.T)


def test_single_node_primitive_iff_positive():
    assert check_primitive(np.array([[1.0]]))
    assert not check_primitive(np.array([[0.0]]))


def test_primitive_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        check_primitive(np.array([[0.5, -0.1], [0.5, 1.1]]))


@pytest.mark.parametrize("rule", ["averaging", "relative_degree", "metropolis"])
def test_built_matrices_primitive_and_transpose_invariant(rule):
    topo = generate_topology(20, 3.0, seed=4)
    a = build_A(topo, rule).matrix
    assert check_primitive(a)
    assert check_primitive(a) == check_primitive(a.T)


# --- Perron data ----------------------------------------------------------


def test_perron_uniform_for_doubly_stochastic():
    topo = generate_topology(12, 3.0, seed=21)
    a = build_A(topo, "metropolis")
    data = perron_theta(identity_combination(12), a)
    assert np.allclose(data.theta, np.full(12, 1.0 / 12.0), atol=1e-9)


def test_perron_two_by_two_hand_value():
    a1 = CombinationMatrix(A22, kind="left_stochastic")
    data = perron_theta(a1, identity_combination(2))
    assert np.allclose(data.theta, [4 / 7, 3 / 7], atol=1e-12)
    assert np.abs(A22 @ data.theta - data.theta).max() <= 1e-8
    assert data.theta.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_perron_random_column_stochastic(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=(6, 6))
    p /= p.sum(axis=0)
    data = perron_theta(CombinationMatrix(p, kind="left_stochastic"), identity_combination(6))
    values, vectors = np.linalg.eig(p)
    reference = np.real(vectors[:, np.argmax(np.real(values))])
    assert np.abs(data.theta - reference / reference.sum()).max() <= 1e-12
    assert (data.theta > 0.0).all()


def test_perron_rejects_imprimitive_composite():
    swap = CombinationMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), kind="doubly_stochastic")
    with pytest.raises(AssumptionError, match="Assumption 2"):
        perron_theta(swap, identity_combination(2))


def dominant_eigpair(p: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a left-stochastic matrix from the package API."""
    n = p.shape[0]
    data = perron_theta(CombinationMatrix(p, kind="left_stochastic"), identity_combination(n))
    return float(np.abs(np.linalg.eigvals(p)).max()), data.theta


def test_mat_mul_fixes_perron_vector():
    assert np.allclose(A22 @ THETA22, THETA22, atol=1e-15)
    _, vec = dominant_eigpair(A22)
    assert np.allclose(A22 @ vec, vec, atol=1e-12)


def test_dominant_eigpair_two_by_two():
    value, vec = dominant_eigpair(A22)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(vec, THETA22, atol=1e-10)


def test_dominant_eigpair_doubly_stochastic_uniform():
    p = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    _, vec = dominant_eigpair(p)
    assert np.allclose(vec, np.full(3, 1.0 / 3.0), atol=1e-10)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        as_vector([np.inf])


def singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("solve", [singular_solve, lambda a, b: np.full(b.shape, np.inf)])
def test_perron_reports_a_failed_bordered_solve_as_assumption2(monkeypatch, solve):
    # primitivity makes the bordered system nonsingular, so a solve that
    # fails anyway contradicts Assumption 2 to working precision
    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(AssumptionError, match="Assumption 2"):
        perron_theta(CombinationMatrix(A22, kind="left_stochastic"), identity_combination(2))


# --- Assumption 3 ---------------------------------------------------------


def test_assumption3_doubly_stochastic_equal_steps():
    topo = generate_topology(10, 3.0, seed=2)
    a = build_A(topo, "metropolis")
    c = build_C(topo, "averaging")
    theta = perron_theta(identity_combination(10), a).theta
    report = check_assumption3(theta, a, np.ones(10), c)
    assert report.satisfied
    assert report.c0_estimate == pytest.approx(0.1, abs=1e-10)


def test_assumption3_hand_failure_case():
    a1 = CombinationMatrix(A22, kind="left_stochastic")
    eye = identity_combination(2)
    theta = perron_theta(a1, eye).theta
    report = check_assumption3(theta, eye, np.ones(2), eye)
    assert not report.satisfied
    assert report.c0_estimate == pytest.approx(0.5, abs=1e-12)
    assert report.max_deviation == pytest.approx(1.0 / 14.0, abs=1e-12)


def test_assumption3_inverse_step_construction():
    a1 = CombinationMatrix(A22, kind="left_stochastic")
    eye = identity_combination(2)
    theta = perron_theta(a1, eye).theta
    steps = design_step_sizes_for_assumption3(a1, eye, mu_max=0.01)
    report = check_assumption3(theta, eye, steps / steps.max(), eye)
    assert report.satisfied and report.max_deviation <= 1e-10


def test_assumption3_rejects_bad_shapes():
    eye = identity_combination(3)
    with pytest.raises(ValueError, match="dimension"):
        check_assumption3(np.ones(2) / 2, eye, np.ones(3), eye)
    with pytest.raises(ValueError, match="step sizes"):
        check_assumption3(np.ones(3) / 3, eye, np.full(3, 0.5), eye)


# --- step-size design -----------------------------------------------------


def test_design_steps_uniform_for_doubly_stochastic():
    topo = generate_topology(8, 3.0, seed=13)
    a = build_A(topo, "metropolis")
    steps = design_step_sizes_for_assumption3(identity_combination(8), a, mu_max=0.05)
    assert np.allclose(steps, np.full(8, 0.05), atol=1e-10)


def test_design_steps_two_by_two_hand_value():
    a1 = CombinationMatrix(A22, kind="left_stochastic")
    steps = design_step_sizes_for_assumption3(a1, identity_combination(2), mu_max=0.01)
    assert np.allclose(steps, [0.0075, 0.01], atol=1e-12)


def test_design_steps_zero_entry_rejected():
    # second row of a2 is zero, so a2 @ theta has a zero entry
    a2 = CombinationMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]), kind="left_stochastic")
    a1 = CombinationMatrix(A22, kind="left_stochastic")
    with pytest.raises(ValueError, match="zero entry"):
        design_step_sizes_for_assumption3(a1, a2, mu_max=0.01)


# --- serialization --------------------------------------------------------


def parse_edge_list(text: str) -> np.ndarray:
    """Adjacency from the 'N <count>' header and the 'u v' edge lines."""
    header, *edges = text.splitlines()
    n = int(header.split()[1])
    adjacency = np.eye(n, dtype=bool)
    for line in edges:
        u, v = (int(part) for part in line.split())
        adjacency[u, v] = adjacency[v, u] = True
    return adjacency


def test_edge_list_round_trip():
    topo = generate_topology(12, 3.0, seed=5)
    text = topology_to_edge_list(topo)
    assert np.array_equal(parse_edge_list(text), topo.adjacency)
    first = text.splitlines()[0]
    assert first == "N 12"


# --- in-place builds, pinned to the plain expressions --------------------------


def rule_by_expression(topology: Topology, rule: str) -> np.ndarray:
    """Each left-stochastic rule as plain array expressions, one new array per
    operation, which the in-place builds must reproduce bit for bit."""
    adj, deg, n = topology.adjacency, topology.degrees.astype(float), topology.n_nodes
    if rule == "averaging":
        a = np.zeros((n, n))
        for k in range(n):
            for l in np.nonzero(adj[:, k])[0]:
                if l != k:
                    a[l, k] = 1.0 / deg[k]
            a[k, k] = 1.0 - a[:, k].sum()
        return a
    if rule == "relative_degree":
        weighted = deg[:, None] * adj
        return weighted / weighted.sum(axis=0)
    off = adj / np.maximum.outer(deg, deg)
    np.fill_diagonal(off, 0.0)
    np.fill_diagonal(off, 1.0 - off.sum(axis=0))
    return off


def perron_by_expression(a1: CombinationMatrix, a2: CombinationMatrix) -> np.ndarray:
    composite = a1.matrix @ a2.matrix
    n = composite.shape[0]
    bordered = composite - np.eye(n)
    bordered[-1, :] = 1.0
    return np.linalg.solve(bordered, np.eye(n)[-1])


@pytest.mark.parametrize("n", [50, 200])
def test_in_place_builds_equal_the_plain_expressions(n):
    topology = generate_topology(n, 4.0, seed=n)
    eye = identity_combination(n)
    for rule in ("averaging", "relative_degree", "metropolis"):
        expected = rule_by_expression(topology, rule)
        a = build_A(topology, rule)
        assert np.array_equal(a.matrix, expected)
        if rule != "metropolis":
            assert np.array_equal(build_C(topology, rule).matrix, expected.T)
        for a1, a2 in ((eye, a), (a, eye)):
            assert np.array_equal(perron_theta(a1, a2).theta, perron_by_expression(a1, a2))
    assert np.array_equal(build_C(topology, "identity").matrix, np.eye(n))


def test_identity_test_and_mixing_product():
    eye = identity_combination(3)
    assert eye.is_identity()
    swap = CombinationMatrix(np.eye(3)[[1, 0, 2]], "doubly_stochastic")
    assert not swap.is_identity()
    near = np.eye(3)
    near[:2, :2] = [[1.0, 1e-300], [0.0, 1.0 - 1e-300]]
    assert not CombinationMatrix(near, "left_stochastic").is_identity()
    a = build_A(path3(), "metropolis")
    for first, second in ((eye, a), (a, eye), (a, a)):
        product = mixing_product(first, second)
        assert np.array_equal(product, first.matrix @ second.matrix)
        assert product.flags.writeable
