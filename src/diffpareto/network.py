"""Network topologies and combination matrices.

A topology is an undirected connected graph with closed neighborhoods
(every node is its own neighbor). Combination matrices assign the
weights nodes place on their neighbors' messages; the three standard
constructions are the averaging, relative-degree, and Metropolis rules.
The Perron vector of the composite combination matrix drives all of the
small-step-size bias analysis, and Assumption 3 is the joint condition
on combination matrices and step sizes under which that bias vanishes.
The package's input coercion, to finite float64 matrices and vectors,
lives here too, in the lowest domain module, which ``costs`` and
``diffusion`` import.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64

LEFT_STOCHASTIC = "left_stochastic"
RIGHT_STOCHASTIC = "right_stochastic"
DOUBLY_STOCHASTIC = "doubly_stochastic"

A_RULES = ("averaging", "relative_degree", "metropolis")
C_RULES = ("averaging", "relative_degree", "identity")

STOCHASTICITY_TOL = 1e-12
ASSUMPTION3_TOL = 1e-8
NOT_PRIMITIVE = "Assumption 2 violated: the composite combination matrix is not primitive"

# generating a connected graph requires the average open degree to be
# reachable within +-0.5 of the request
_DEGREE_SLACK = 0.5


class AssumptionError(ValueError):
    """A standing assumption of the algorithm is violated."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.array(a, dtype=float, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting non-finite entries."""
    x = np.array(v, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={x.ndim}")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected connected graph over ``n_nodes`` with closed neighborhoods.

    ``adjacency`` is boolean, symmetric, with an all-true diagonal.
    """

    n_nodes: int
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n_nodes, self.n_nodes):
            raise ValueError(
                f"adjacency shape {adj.shape} does not match n_nodes={self.n_nodes}"
            )
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if not adj.diagonal().all():
            raise ValueError("neighborhoods are closed: the diagonal must be true")
        object.__setattr__(self, "adjacency", adj)
        if (_bfs_levels(adj) < 0).any():
            raise ValueError("topology must be a single connected component")
        adj.setflags(write=False)

    @property
    def degrees(self) -> np.ndarray:
        """Closed-neighborhood sizes (self included)."""
        return self.adjacency.sum(axis=0)

    @property
    def n_edges(self) -> int:
        """Undirected edges, self-loops excluded."""
        return int((self.adjacency.sum() - self.n_nodes) // 2)


@dataclass(frozen=True, eq=False)
class CombinationMatrix:
    """Nonnegative weight matrix with a declared stochasticity kind."""

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"combination matrix must be square, got {m.shape}")
        if (m < 0).any():
            raise ValueError("combination matrix entries must be nonnegative")
        if self.kind not in (LEFT_STOCHASTIC, RIGHT_STOCHASTIC, DOUBLY_STOCHASTIC):
            raise ValueError(f"unknown stochasticity kind {self.kind!r}")
        if self.kind in (LEFT_STOCHASTIC, DOUBLY_STOCHASTIC):
            dev = np.abs(m.sum(axis=0) - 1.0).max()
            if dev > STOCHASTICITY_TOL:
                raise ValueError(f"columns must sum to one (max deviation {dev:.3e})")
        if self.kind in (RIGHT_STOCHASTIC, DOUBLY_STOCHASTIC):
            dev = np.abs(m.sum(axis=1) - 1.0).max()
            if dev > STOCHASTICITY_TOL:
                raise ValueError(f"rows must sum to one (max deviation {dev:.3e})")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def combines_columns(self) -> bool:
        """True when columns are the convex combinations (left stochastic)."""
        return self.kind in (LEFT_STOCHASTIC, DOUBLY_STOCHASTIC)

    def is_identity(self) -> bool:
        """True when the matrix is the identity, tested without an N x N array:
        N nonzeros, all of them ones on the diagonal."""
        m = self.matrix
        return np.count_nonzero(m) == self.n and bool((m.diagonal() == 1.0).all())


def mixing_product(first: CombinationMatrix, second: CombinationMatrix) -> np.ndarray:
    """first @ second as a fresh array; when either factor is the identity, a
    copy of the other, which is the product bit for bit."""
    if first.is_identity():
        return second.matrix.copy()
    if second.is_identity():
        return first.matrix.copy()
    return first.matrix @ second.matrix


@dataclass(frozen=True, eq=False)
class PerronData:
    """Perron vector of the composite combination matrix."""

    theta: np.ndarray


@dataclass(frozen=True)
class Assumption3Report:
    """Result of checking that the weighted step-size row vector is constant."""

    satisfied: bool
    c0_estimate: float
    max_deviation: float


def _prufer_tree_edges(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """Uniformly random labeled spanning tree, decoded from a random sequence."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def generate_topology(n: int, target_avg_degree: float, seed: int) -> Topology:
    """Connected random graph whose average open degree is within 0.5 of target.

    Starts from a uniformly random spanning tree (connectivity for free),
    then adds distinct random edges until the edge count nearest the target
    average degree is reached. Deterministic in (n, target_avg_degree, seed).
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not (1.0 <= target_avg_degree < n):
        raise ValueError(
            f"target average degree must lie in [1, n), got {target_avg_degree}"
        )
    max_edges = n * (n - 1) // 2
    want = int(math.floor(n * target_avg_degree / 2.0 + 0.5))
    want = max(n - 1, min(want, max_edges))
    if abs(2.0 * want / n - target_avg_degree) > _DEGREE_SLACK + 1e-12:
        raise ValueError(
            f"average degree {target_avg_degree} is unreachable on a connected"
            f" graph of {n} nodes"
        )
    rng = SplitMix64(seed)
    edges = {(min(u, v), max(u, v)) for u, v in _prufer_tree_edges(n, rng)}
    while len(edges) < want:
        u = rng.below(n)
        v = rng.below(n)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    adjacency = np.eye(n, dtype=bool)
    rows, cols = np.array(list(edges)).T
    adjacency[rows, cols] = adjacency[cols, rows] = True
    return Topology(n_nodes=n, adjacency=adjacency)


def _left_stochastic_by_rule(topology: Topology, rule: str) -> np.ndarray:
    adj = topology.adjacency
    deg = topology.degrees.astype(float)
    if rule == "averaging":
        # off-diagonal neighbors get 1/n_k, the diagonal absorbs the rest; the
        # contiguous rows of a.T sum in the order a[:, k].sum() does, bit for bit
        a = adj / deg
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, 1.0 - np.ascontiguousarray(a.T).sum(axis=1))
    elif rule == "relative_degree":
        a = deg[:, None] * adj
        a /= a.sum(axis=0)
    else:  # metropolis; build_A and build_C have checked the name
        a = np.maximum.outer(deg, deg)
        np.divide(adj, a, out=a)
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, 1.0 - a.sum(axis=0))
    return a


def build_A(topology: Topology, rule: str) -> CombinationMatrix:
    """Left-stochastic combination matrix by the named rule.

    The Metropolis rule produces a symmetric, hence doubly-stochastic,
    matrix; all rules keep a strictly positive diagonal and place weight
    only inside closed neighborhoods.
    """
    if rule not in A_RULES:
        raise ValueError(f"rule must be one of {A_RULES}, got {rule!r}")
    a = _left_stochastic_by_rule(topology, rule)
    kind = DOUBLY_STOCHASTIC if rule == "metropolis" else LEFT_STOCHASTIC
    return CombinationMatrix(matrix=a, kind=kind)


def build_C(topology: Topology, rule: str) -> CombinationMatrix:
    """Right-stochastic gradient-exchange matrix.

    The averaging and relative-degree rules produce the transpose of the
    left-stochastic matrix they would build; the identity rule disables
    gradient exchange."""
    if rule not in C_RULES:
        raise ValueError(f"rule must be one of {C_RULES}, got {rule!r}")
    if rule == "identity":
        return identity_combination(topology.n_nodes)
    c = _left_stochastic_by_rule(topology, rule).T
    return CombinationMatrix(matrix=c, kind=RIGHT_STOCHASTIC)


def identity_combination(n: int) -> CombinationMatrix:
    return CombinationMatrix(matrix=np.eye(n), kind=DOUBLY_STOCHASTIC)


def _bfs_levels(pattern: np.ndarray) -> np.ndarray:
    """BFS level of every node from node 0 along the edges u -> v where
    pattern[u, v] is true; -1 marks nodes it cannot reach."""
    level = np.full(pattern.shape[0], -1)
    level[0] = 0
    frontier = level == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = pattern[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    return level


def check_primitive(p) -> bool:
    """True iff some power of the nonnegative matrix is entrywise positive.

    That holds exactly when the graph of the sparsity pattern (an edge
    u -> v wherever p[u, v] > 0) is strongly connected and aperiodic
    (Horn & Johnson, Matrix Analysis, 8.5). Strong connectivity is a BFS
    from node 0 over the pattern and over its transpose; the period is the
    gcd of level[u] + 1 - level[v] over all edges, with the forward BFS
    levels. The test is exact and needs no special case for N = 1."""
    p = as_matrix(p)
    if p.shape[0] != p.shape[1]:
        raise ValueError(f"matrix must be square, got {p.shape}")
    if (p < 0).any():
        raise ValueError("primitivity is defined for nonnegative matrices only")
    return _primitive_pattern(p > 0)


def _primitive_pattern(pattern: np.ndarray) -> bool:
    """``check_primitive`` on the boolean pattern of a square nonnegative matrix."""
    level = _bfs_levels(pattern)
    if (level < 0).any() or (_bfs_levels(pattern.T) < 0).any():
        return False
    u, v = np.nonzero(pattern)
    return int(np.gcd.reduce(level[u] + 1 - level[v])) == 1


def perron_theta(a1: CombinationMatrix, a2: CombinationMatrix) -> PerronData:
    """Perron vector of the composite combination matrix a1 @ a2.

    The composite must be primitive (Assumption 2). It is left-stochastic,
    so its eigenvalue one has a positive right eigenvector theta, unique up
    to scale. The columns of (composite - I) sum to zero, so its last row
    is redundant; replacing that row with ones and solving against e_N
    yields theta normalized so the entries sum to one. Primitivity makes
    that bordered matrix nonsingular, so it is solved by LU alone; a solve
    that fails anyway raises the same Assumption 2 error. The composite is
    bordered in its own storage."""
    bordered = mixing_product(a1, a2)
    if not _primitive_pattern(bordered > 0):
        raise AssumptionError(NOT_PRIMITIVE)
    n = bordered.shape[0]
    bordered.flat[:: n + 1] -= 1.0
    bordered[-1, :] = 1.0
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    try:
        theta = np.linalg.solve(bordered, e_last)
    except np.linalg.LinAlgError:
        theta = np.full(n, np.nan)
    if not np.isfinite(theta).all():
        raise AssumptionError(f"{NOT_PRIMITIVE} to working precision")
    return PerronData(theta=theta)


def check_assumption3(
    theta,
    a2: CombinationMatrix,
    omega0,
    c: CombinationMatrix,
) -> Assumption3Report:
    """Check that the weighted row vector built from (theta, a2, omega0, c)
    is constant, i.e. equals c0 times the all-ones row.

    ``omega0`` holds the normalized step sizes (entries in (0, 1], max one).
    The constant is estimated as the mean of the vector; the report carries
    the max-norm deviation from it, and the verdict allows a deviation of
    ASSUMPTION3_TOL."""
    theta = as_vector(theta)
    omega0 = as_vector(omega0)
    n = theta.shape[0]
    if a2.n != n or c.n != n or omega0.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: theta has {n} entries, a2 is {a2.n}x{a2.n},"
            f" omega0 has {omega0.shape[0]}, c is {c.n}x{c.n}"
        )
    if (omega0 <= 0).any() or abs(omega0.max() - 1.0) > 1e-12:
        raise ValueError("normalized step sizes must lie in (0, 1] with max one")
    z = omega0 * (a2.matrix @ theta)
    v = c.matrix @ z
    c0 = float(v.mean())
    max_dev = float(np.abs(v - c0).max())
    return Assumption3Report(
        satisfied=max_dev <= ASSUMPTION3_TOL, c0_estimate=c0, max_deviation=max_dev
    )


def design_step_sizes_for_assumption3(
    a1: CombinationMatrix, a2: CombinationMatrix, mu_max: float
) -> np.ndarray:
    """Step sizes that satisfy the constant-row condition with identity C.

    Scales each node inversely to its entry of a2 @ theta, so the weighted
    vector is constant by construction; the largest step equals mu_max."""
    if not 0.0 < mu_max < math.inf:
        raise ValueError("mu_max must be positive and finite")
    theta = perron_theta(a1, a2).theta
    u = a2.matrix @ theta
    if (u == 0.0).any():
        raise ValueError(
            "cannot design step sizes: a2 @ theta has a zero entry at node"
            f" {int(np.argmin(u != 0.0))}"
        )
    return mu_max * u.min() / u


def topology_to_edge_list(topology: Topology) -> str:
    """Plain-text edge list: 'N <count>' then one 'u v' line per edge."""
    us, vs = np.nonzero(np.triu(topology.adjacency, 1))
    edges = [f"{u} {v}" for u, v in zip(us.tolist(), vs.tolist())]
    return "\n".join([f"N {topology.n_nodes}", *edges]) + "\n"

