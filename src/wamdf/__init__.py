"""Weighted adaptive multiple decision functions for FDR control.

Computes heterogeneity-exploiting weights for multiple hypothesis tests,
runs adaptive step-up procedures on the weighted p-values, provides
finite-sample FDR bounds, and ships a Monte Carlo harness plus a
count-data score-test pipeline.
"""

__version__ = "0.1.0"

from .counts import (
    AnalysisResult,
    CalibrationError,
    CalibrationResult,
    CountDataset,
    analyze,
    calibrate_information,
    generate_synthetic_counts,
    k_from_beta,
    score_statistic,
)
from .power import NormalLocationModel, TabulatedPowerModel, default_model
from .procedures import (
    VARIANTS,
    DecisionReport,
    alpha_star,
    estimate_m0,
    fdr_upper_bound,
    run_procedure,
    step_up_threshold,
    weighted_pvalues,
)
from .simulate import (
    SimConfig,
    SimSummary,
    evaluate,
    generate_du,
    generate_model1,
    run_simulation,
    simulation_preset,
    substream,
)
from .weights import (
    NoSolutionError,
    PriorSpec,
    WeightProfile,
    asymptotically_optimal_weights,
    fdp_approximator,
    mean_threshold,
    optimal_fixed_t_weights,
    perturb_weights,
    solve_thresholds,
)
