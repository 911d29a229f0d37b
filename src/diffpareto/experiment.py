"""Configuration-driven sweeps of bias against the largest step size.

A scenario fixes the network, the data, the combination rules, and the
step-size shape; the sweep then walks a descending schedule of largest
step sizes, runs the recursion to its fixed point at each scale, and
records the squared bias norm next to the small-step-size prediction.
Everything is seeded, so two runs of the same configuration produce
byte-identical CSV output.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .bias import Scenario, analyse_scale, analyse_scenario
from .costs import CostEnsemble, sample_ensemble
from .diffusion import DEFAULT_MAX_ITER, DEFAULT_TOL, atc_config, cta_config
from .network import A_RULES, C_RULES, build_A, build_C, generate_topology
from .rng import SplitMix64

STRATEGIES = ("atc", "cta")
STEP_MODES = ("equal", "unequal_uniform_half")

# experiment protocol: each node is connected to four others on average
EXPERIMENT_AVG_DEGREE = 4.0

DEFAULT_SCHEDULE = (1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4, 10**-4.5, 1e-5)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


# each ExperimentConfig annotation: the values it accepts and how to name them
_FIELD_TYPES = {
    "str": (lambda x: isinstance(x, str), "a string"),
    "int": (lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool), "an integer"),
    "float": (_is_real, "a real number"),
    "bool": (lambda x: isinstance(x, bool), "true or false"),
    "tuple[float, ...]": (
        lambda x: isinstance(x, (list, tuple)) and all(map(_is_real, x)),
        "a list of real numbers",
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep scenario. Field names double as the JSON config schema."""

    strategy: str
    a_rule: str
    c_rule: str
    step_mode: str
    mu_max_schedule: tuple[float, ...]
    n_nodes: int = 50
    dim: int = 4
    rows: int = 6
    topology_seed: int = 1
    data_seed: int = 2
    step_seed: int = 3
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    debug_identical_costs: bool = False

    def __post_init__(self):
        for f in fields(self):
            accepts, kind = _FIELD_TYPES[f.type]
            if not accepts(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be {kind}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.a_rule not in A_RULES:
            raise ValueError(f"unknown a_rule {self.a_rule!r}")
        if self.c_rule not in C_RULES:
            raise ValueError(f"unknown c_rule {self.c_rule!r}")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}, got {self.step_mode!r}")
        if not self.mu_max_schedule:
            raise ValueError("mu_max_schedule must be nonempty")
        # bounded before float(), which overflows on a JSON integer too large for a float
        if not all(0.0 < mu <= sys.float_info.max for mu in self.mu_max_schedule):
            raise ValueError("mu_max_schedule entries must be positive and finite")
        schedule = tuple(map(float, self.mu_max_schedule))
        if len(set(schedule)) != len(schedule):
            raise ValueError("mu_max_schedule entries must be distinct")
        # JSON integers are unbounded; beyond this, numpy's sizes and float() overflow
        for name in ("n_nodes", "dim", "rows"):
            if getattr(self, name) > sys.maxsize:
                raise ValueError(f"{name} must be at most {sys.maxsize}")
        if self.n_nodes < 6:
            raise ValueError("sweeps need at least 6 nodes for the average degree of 4")
        if self.dim < 1 or self.rows < 1:
            raise ValueError("dim and rows must be positive")
        if not 0.0 < self.tol <= sys.float_info.max or self.max_iter < 1:
            raise ValueError("tol must be finite and positive and max_iter at least one")
        object.__setattr__(self, "mu_max_schedule", schedule)

    @property
    def scenario_id(self) -> str:
        return f"{self.strategy}-{self.a_rule}-{self.c_rule}-{self.step_mode}"


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, rejecting unknown fields."""
    if not isinstance(data, dict):
        raise ValueError("config document must be a JSON object")
    unknown = sorted(set(data) - _CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(unknown)}")
    missing = sorted(
        f.name for f in fields(ExperimentConfig) if f.default is MISSING and f.name not in data
    )
    if missing:
        raise ValueError(f"missing required config fields: {', '.join(missing)}")
    return ExperimentConfig(**data)


def load_config(path) -> ExperimentConfig:
    import json

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


@dataclass(frozen=True)
class SweepRow:
    """One (scenario, mu_max) measurement."""

    scenario_id: str
    strategy: str
    a_rule: str
    c_rule: str
    step_mode: str
    mu_max: float
    bias_sq_norm: float
    limit_bias_sq_norm: float
    assumption3_satisfied: bool
    spectral_radius: float
    iterations: int
    converged: bool


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def draw_step_shape(n: int, mode: str, step_seed: int) -> np.ndarray:
    """Normalized step-size shape. Node 0 pins the maximum; in the unequal
    mode the other nodes draw once from the upper half of the unit range."""
    if mode not in STEP_MODES:
        raise ValueError(f"step mode must be one of {STEP_MODES}, got {mode!r}")
    if mode == "equal":
        return np.ones(n)
    rng = SplitMix64(step_seed)
    shape = np.ones(n)
    for k in range(1, n):
        shape[k] = 0.5 + 0.5 * rng.uniform()
    return shape


# Scenarios that differ only in strategy, rules, steps or stopping share their
# network and data, frozen over read-only arrays, so each distinct pair is built
# once per process; a run meets few pairs, and eight bound what is kept.
@functools.lru_cache(maxsize=8)
def _scenario_inputs(n, dim, rows, topology_seed, data_seed, identical):
    topology = generate_topology(n, EXPERIMENT_AVG_DEGREE, topology_seed)
    ensemble = sample_ensemble(n, dim, rows, data_seed)
    if identical:
        ensemble = CostEnsemble(costs=(ensemble.costs[0],) * n, dim=dim)
    return topology, ensemble


def build_scenario(config: ExperimentConfig) -> Scenario:
    """Build the step shape and analyse the scenario once; every step scale reuses
    the result. The topology and ensemble come from the seeds, built once per
    process for each distinct n_nodes, dim, rows, topology_seed, data_seed and
    debug_identical_costs."""
    key = (config.n_nodes, config.dim, config.rows, config.topology_seed, config.data_seed)
    topology, ensemble = _scenario_inputs(*key, config.debug_identical_costs)
    make = atc_config if config.strategy == "atc" else cta_config
    shape = make(
        build_A(topology, config.a_rule),
        build_C(topology, config.c_rule),
        draw_step_shape(config.n_nodes, config.step_mode, config.step_seed),
    )
    return analyse_scenario(shape, ensemble, topology=topology).require_primitive()


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Run one scenario over its schedule, largest step size first.

    The scenario is built and analysed once, on the network and data of its
    six input fields (``build_scenario``); each scale goes through
    ``analyse_scale``, which checks a converged row against the closed form.
    A row that exhausts max_iter is recorded with converged=False."""
    scenario = build_scenario(config)
    limit_sq = config.n_nodes * float(scenario.limit_bias @ scenario.limit_bias)
    rows: list[SweepRow] = []
    for mu_max in sorted(config.mu_max_schedule, reverse=True):
        result, _, rho = analyse_scale(scenario, mu_max, config.tol, config.max_iter)
        bias = scenario.w_star[None, :] - result.w_infinity
        rows.append(
            SweepRow(
                scenario_id=config.scenario_id,
                strategy=config.strategy,
                a_rule=config.a_rule,
                c_rule=config.c_rule,
                step_mode=config.step_mode,
                mu_max=mu_max,
                bias_sq_norm=float(np.sum(bias * bias)),
                limit_bias_sq_norm=limit_sq,
                assumption3_satisfied=scenario.assumption3.satisfied,
                spectral_radius=rho,
                iterations=result.iterations_used,
                converged=result.converged,
            )
        )
    return rows


def fit_loglog_slope(rows: list[SweepRow]) -> float:
    """Ordinary least-squares slope of log(bias_sq_norm) against log(mu_max)."""
    if len(rows) < 3:
        raise ValueError("need at least three rows for a slope fit")
    unconverged = [row.mu_max for row in rows if not row.converged]
    if unconverged:
        raise ValueError(f"cannot fit unconverged rows: mu_max {unconverged[0]:.6g} hit max_iter")
    mus = np.array([row.mu_max for row in rows])
    values = np.array([row.bias_sq_norm for row in rows])
    if (values <= 0.0).any():
        raise ValueError(
            "slope fit is inapplicable: nonpositive values present (a sweep whose"
            " bias underflows to zero has no log-log slope)"
        )
    if mus.max() / mus.min() < 10.0:
        raise ValueError("schedule must span at least one decade of mu_max")
    slope, _ = np.polyfit(np.log(mus), np.log(values), 1)
    return float(slope)


def _fmt(x: float) -> str:
    """A real at 17 significant digits, as in the sweep CSV and plot script."""
    return format(float(x), ".16e")


def _bool(x: bool) -> str:
    return "true" if x else "false"


# each CSV column's field and its formatter, chosen by the field's annotation
_CSV_COLUMNS = tuple(
    (f.name, {"float": _fmt, "bool": _bool}.get(f.type, str)) for f in fields(SweepRow)
)


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write the sweep table; byte-identical for identical inputs."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(fmt(getattr(r, name)) for name, fmt in _CSV_COLUMNS))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def emit_plot_script(rows: list[SweepRow], path) -> None:
    """Self-contained gnuplot script: log-log bias curves, one per scenario,
    plus a dashed horizontal line at the nonzero small-step limits. The image
    is named after the script, each quote doubled as gnuplot's single-quoted
    strings require."""
    path = Path(path)
    image = path.stem.replace("'", "''")
    lines = [
        "# squared bias norm against the largest step size (log-log)",
        "set terminal pngcairo size 960,640",
        f"set output '{image}.png'",
        "set logscale xy",
        "set xlabel 'largest step size'",
        "set ylabel 'squared bias norm'",
        "set key left top",
    ]
    groups: dict[str, list[SweepRow]] = {}
    for r in rows:
        groups.setdefault(r.scenario_id, []).append(r)
    for i, grp in enumerate(groups.values()):
        lines.append(f"$scenario_{i} << EOD")
        for r in grp:
            lines.append(f"{_fmt(r.mu_max)} {_fmt(r.bias_sq_norm)}")
        lines.append("EOD")
    items = []
    for i, (sid, grp) in enumerate(groups.items()):
        items.append(f"$scenario_{i} using 1:2 with linespoints title '{sid}'")
        if not grp[0].assumption3_satisfied and grp[0].limit_bias_sq_norm > 0.0:
            items.append(
                f"{_fmt(grp[0].limit_bias_sq_norm)} with lines dashtype 2"
                f" title '{sid} small-step limit'"
            )
    if items:
        lines.append("plot " + ", \\\n     ".join(items))
    else:
        lines.append("# no data: axes only")
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def builtin_figure_configs(schedule=DEFAULT_SCHEDULE) -> dict[str, list[ExperimentConfig]]:
    """The four built-in sweep families, three combination rules each."""
    schedule = tuple(schedule)
    figures: dict[str, list[ExperimentConfig]] = {}
    for name, strategy, c_rule, step_mode in (
        ("atc_unequal", "atc", "relative_degree", "unequal_uniform_half"),
        ("cta_unequal", "cta", "averaging", "unequal_uniform_half"),
        ("atc_equal", "atc", "relative_degree", "equal"),
        ("cta_equal", "cta", "averaging", "equal"),
    ):
        figures[name] = [
            ExperimentConfig(
                strategy=strategy,
                a_rule=a_rule,
                c_rule=c_rule,
                step_mode=step_mode,
                mu_max_schedule=schedule,
            )
            for a_rule in ("averaging", "relative_degree", "metropolis")
        ]
    return figures
