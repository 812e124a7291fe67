"""Weighted adaptive multiple decision functions for FDR control.

Computes heterogeneity-exploiting weights for multiple hypothesis tests,
runs adaptive step-up procedures on the weighted p-values, provides
finite-sample FDR bounds, and ships a Monte Carlo harness plus a
count-data score-test pipeline.  The package exports the three names of
README's quick start; every other name is imported from its own module.
"""

__version__ = "0.1.0"

from .procedures import run_procedure
from .weights import PriorSpec, asymptotically_optimal_weights
