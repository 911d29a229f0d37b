"""Independent numpy reference for every sweep row, computed outside the timed passes.

A scenario is rebuilt from its config through the public constructors
(topology, ensemble, combination matrices, step shape). From the
resulting ``a1``/``a2``/``c``, step sizes and ``cost.hessian()`` the
error-propagation matrix B is formed with ``np.kron``; the reference
bias solves (I - B) b = rhs with ``np.linalg.solve`` and the reference
spectral radius is the largest ``|np.linalg.eigvals(B)|``.

The fixed-point loop stops once every node's update is below
tol * (1 + |w_k|). An update of size d leaves the iterate within about
d * sqrt(N) / (1 - rho) of the fixed point, so a row passes when its
iterated bias is within ten times that of the reference. A fixed relative
tolerance would flag correct rows at small step sizes, where 1 - rho is
tiny and the stopping rule allows a larger gap.
"""

from __future__ import annotations

import math

import numpy as np

from diffpareto.costs import sample_ensemble
from diffpareto.diffusion import atc_config, cta_config
from diffpareto.experiment import EXPERIMENT_AVG_DEGREE, draw_step_shape
from diffpareto.network import build_A, build_C, generate_topology

GAP_FACTOR = 10.0
# a spectral_radius column is "off" when 1 - rho misses the reference by more than this share
SPECTRAL_REL_TOL = 0.01


class Scenario:
    """One config's inputs, rebuilt through the public API, and its references."""

    def __init__(self, config):
        self.config = config
        n, m = config.n_nodes, config.dim
        topology = generate_topology(n, EXPERIMENT_AVG_DEGREE, config.topology_seed)
        ensemble = sample_ensemble(n, m, config.rows, config.data_seed)
        self.omega0 = draw_step_shape(n, config.step_mode, config.step_seed)
        make = atc_config if config.strategy == "atc" else cta_config
        dcfg = make(build_A(topology, config.a_rule), build_C(topology, config.c_rule), self.omega0)
        self.a1 = dcfg.a1.matrix
        self.a2 = dcfg.a2.matrix
        self.c = dcfg.c.matrix
        self.hessians = np.stack([cost.hessian() for cost in ensemble.costs])
        xs = [cost.x_matrix for cost in ensemble.costs]
        ys = [cost.y_vector for cost in ensemble.costs]
        self.w_star = np.linalg.lstsq(np.vstack(xs), np.concatenate(ys), rcond=None)[0]
        self.g0 = np.concatenate([2.0 * x.T @ (x @ self.w_star - y) for x, y in zip(xs, ys)])
        self._refs: dict[float, tuple[np.ndarray, float]] = {}

    def min_bound_ratio(self) -> float:
        """Smallest per-node step bound over the normalized step shape.

        The largest step size of a schedule must stay below it."""
        lambda_max = np.linalg.eigvalsh(self.hessians)[:, -1]
        bounds = 2.0 / (self.c.T @ lambda_max)
        return float((bounds / self.omega0).min())

    def reference(self, mu_max: float) -> tuple[np.ndarray, float]:
        """Stacked bias and spectral radius at one largest step size."""
        if mu_max not in self._refs:
            n, m = self.config.n_nodes, self.config.dim
            eye_m = np.eye(m)
            r = np.zeros((n * m, n * m))
            for k, block in enumerate(np.einsum("lk,lij->kij", self.c, self.hessians)):
                r[k * m : (k + 1) * m, k * m : (k + 1) * m] = block
            steps = np.repeat(mu_max * self.omega0, m)
            a2t = np.kron(self.a2.T, eye_m)
            b = a2t @ (np.eye(n * m) - steps[:, None] * r) @ np.kron(self.a1.T, eye_m)
            rhs = a2t @ (steps * (np.kron(self.c.T, eye_m) @ self.g0))
            bias = np.linalg.solve(np.eye(n * m) - b, rhs)
            rho = float(np.abs(np.linalg.eigvals(b)).max())
            self._refs[mu_max] = (bias, rho)
        return self._refs[mu_max]

    def check_row(self, row: dict) -> tuple[bool, bool]:
        """(row passes, spectral_radius column is off) for one worker row.

        ``row["w_inf"]`` is the captured fixed point, or None when the
        sweep did not go through ``run_to_fixed_point``; the CSV column
        ``bias_sq_norm`` is checked either way."""
        bias_ref, rho = self.reference(row["mu_max"])
        gap_bound = (
            GAP_FACTOR
            * self.config.tol
            * (1.0 + float(np.linalg.norm(self.w_star)))
            * math.sqrt(self.config.n_nodes)
            / (1.0 - rho)
        )
        ok = bool(row["converged"]) and (
            abs(math.sqrt(row["bias_sq_norm"]) - float(np.linalg.norm(bias_ref))) <= gap_bound
        )
        if row["w_inf"] is not None:
            bias_iter = (self.w_star[None, :] - np.asarray(row["w_inf"])).ravel()
            ok = ok and float(np.linalg.norm(bias_iter - bias_ref)) <= gap_bound
        off = abs(rho - row["spectral_radius"]) > SPECTRAL_REL_TOL * (1.0 - rho)
        return ok, off
