"""The benchmark's workloads, built from one workload seed through the public API.

Each workload is a set of sweep families. A family is a list of
`ExperimentConfig` scenarios whose rows go into one CSV file and one
gnuplot script, as `diffpareto figures` writes them. Why each workload
exists is in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import replace

from diffpareto.experiment import DEFAULT_SCHEDULE, ExperimentConfig, builtin_figure_configs

WORKLOADS = ("sweep_small_steps", "analysis_n200", "figures_coarse")

# the default seed maps to the package's default config seeds (1, 2, 3),
# the inputs `diffpareto figures` runs on
DEFAULT_SEED = 1
# The data stay the package default for every seed. How long the power
# iterations on the 4x4 Hessians and the small-step fixed-point loop run
# follows the Hessian spectra, and over data seeds that work varies by 15-25%
# (quartile spread), which would hide a change of that size. The workload
# seed varies the network and the step shape.
DATA_SEED = 2

COARSE_SCHEDULE = (1e-2, 1e-3)
# the self-test runs every workload at the largest step size only
SMOKE_SCHEDULE = (1e-2,)


def config_seeds(seed: int) -> dict[str, int]:
    """The package's three seeds for one workload seed."""
    return {"topology_seed": seed, "data_seed": DATA_SEED, "step_seed": seed + 2}


def families(workload: str, seed: int, smoke: bool = False) -> dict[str, list[ExperimentConfig]]:
    """Validated configs of one workload, grouped by output family."""
    seeds = config_seeds(seed)
    if workload == "sweep_small_steps":
        schedule = SMOKE_SCHEDULE if smoke else DEFAULT_SCHEDULE
        config = ExperimentConfig(
            strategy="atc",
            a_rule="averaging",
            c_rule="relative_degree",
            step_mode="unequal_uniform_half",
            mu_max_schedule=schedule,
            n_nodes=50,
            **seeds,
        )
        return {workload: [config]}
    if workload == "analysis_n200":
        schedule = SMOKE_SCHEDULE if smoke else COARSE_SCHEDULE
        config = ExperimentConfig(
            strategy="atc",
            a_rule="metropolis",
            c_rule="relative_degree",
            step_mode="unequal_uniform_half",
            mu_max_schedule=schedule,
            n_nodes=200,
            **seeds,
        )
        return {workload: [config]}
    if workload == "figures_coarse":
        schedule = SMOKE_SCHEDULE if smoke else COARSE_SCHEDULE
        return {
            name: [replace(config, **seeds) for config in configs]
            for name, configs in builtin_figure_configs(schedule).items()
        }
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
