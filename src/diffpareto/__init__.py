"""Deterministic simulator and bias analysis for diffusion-based distributed
Pareto optimization over networks.

Build a connected topology and combination matrices, sample quadratic
least-squares costs, run the diffusion recursion to its fixed point, and
compare the resulting per-node bias against its closed form and its
small-step-size limit.
"""

from .bias import (
    LimitOperators,
    closed_form_bias,
    limit_bias,
    limit_operators,
    normalized_step_shape,
    spectral_check,
)
from .costs import (
    Assumption1Report,
    CostEnsemble,
    QuadraticCost,
    check_assumption1,
    global_optimum,
    sample_ensemble,
    stacked_gradient,
    step_size_bounds,
)
from .diffusion import (
    DiffusionConfig,
    DivergenceError,
    FixedPointResult,
    atc_config,
    cta_config,
    run_to_fixed_point,
    validate_step_condition,
)
from .experiment import (
    ExperimentConfig,
    SweepRow,
    builtin_figure_configs,
    config_from_dict,
    emit_csv,
    emit_plot_script,
    fit_loglog_slope,
    load_config,
    run_sweep,
)
from .network import (
    Assumption3Report,
    AssumptionError,
    CombinationMatrix,
    PerronData,
    Topology,
    build_A,
    build_C,
    check_assumption3,
    check_primitive,
    design_step_sizes_for_assumption3,
    generate_topology,
    identity_combination,
    perron_theta,
    topology_to_edge_list,
)
from .rng import SplitMix64

__version__ = "0.1.0"
