"""Pre-data solves on large preset draws against the preset's population law.

Every other oracle evaluates the same finite-M approximator on the same
draws.  This one computes the answer from the law itself: the smallest
downward crossing ``log k*_inf`` of the limit FDP approximator, and the mean
threshold ``lambda_inf`` there (``oracles.population_crossing``).  A solve
on M = 10^5 draws of the law lands within O(M^-1/2) of it.

The bounds were set from the spread over seeds 0-19 at M = 10^5.  The
largest |log k* - log k*_inf| was 3.8e-3 (preset 1, a = 3), 7.5e-3 (1, 5),
8.7e-5 (2, 1), 5.0e-3 (2, 3) and 9.5e-3 (2, 5); the largest
|t_bar / lambda_inf - 1| was 4.6e-3, 4.8e-3, 8.1e-3, 8.9e-3 and 7.9e-3.
Both bounds are 0.025, 2.5 times the largest of these.  Preset 1 at a = 1
puts the law at one point, so its draw is the law and the bound is 1e-12.
The preset laws cross alpha once, so a search that returned the last
crossing would pass on them; the "dip" law crosses twice.
"""

import functools

import numpy as np
import pytest

from wamdf.simulate import generate_model1, simulation_preset, substream
from wamdf.weights import PriorSpec, asymptotically_optimal_weights

from oracles import population_crossing, population_fdp, preset_law

M = 100_000
PRESETS = [(1, 1), (1, 3), (1, 5), (2, 1), (2, 3), (2, 5)]
# the "dip" prior of the CLI tests as a law, uniform over its four pairs: its
# FDP dips below alpha from log k = -4.28 and crosses down again near 0.16.
# Over seeds 0-19 the largest |log k* - log k*_inf| was 0.12 and the largest
# |t_bar / lambda_inf - 1| 4.4e-4; the bounds are 2.5 times these.
DIP_P = np.array([0.91, 0.935, 0.916, 0.138])
DIP_GAMMA = np.array([7.68, 1.64, 1.61, 0.44])
DIP_ALPHA = 0.067


@functools.lru_cache(maxsize=None)
def preset_crossing(preset, a):
    return population_crossing(preset_law(preset, a), 0.05)


@pytest.mark.parametrize("preset, a", PRESETS)
def test_quadrature_agrees_with_twice_the_nodes(preset, a):
    log_k, lam = preset_crossing(preset, a)
    log_k2, lam2 = population_crossing(preset_law(preset, a, n_p=100, n_gamma=40), 0.05)
    assert abs(log_k - log_k2) <= 1e-10
    assert abs(lam / lam2 - 1) <= 1e-10


def test_preset_2_limit():
    # the value a 400 x 200 node quadrature gave for preset 2 at a = 5
    log_k, lam = preset_crossing(2, 5)
    assert round(log_k, 4) == 0.3848 and round(lam, 4) == 0.0349


@pytest.mark.parametrize("preset, a", PRESETS)
def test_preset_solve_lands_near_the_population_crossing(preset, a):
    config = simulation_preset(preset, a=a, M=M, n_reps=1, seed=0)
    _, p, gamma, _ = generate_model1(config, substream(config.seed, 0))
    profile = asymptotically_optimal_weights(PriorSpec(p, gamma), config.alpha)
    log_k, lam = preset_crossing(preset, a)
    bound = 1e-12 if (preset, a) == (1, 1) else 0.025
    assert abs(profile.log_k_star - log_k) <= bound
    assert abs(profile.t_bar / lam - 1) <= bound


def test_dip_law_solve_takes_the_first_crossing():
    law = (DIP_P, DIP_GAMMA, np.full(4, 0.25))
    log_k, lam = population_crossing(law, DIP_ALPHA)
    # the law's FDP is back above alpha before its last downward crossing
    assert population_fdp(log_k + 2.0, law)[0] > DIP_ALPHA
    pick = np.random.default_rng(0).integers(0, 4, M)
    profile = asymptotically_optimal_weights(PriorSpec(DIP_P[pick], DIP_GAMMA[pick]), DIP_ALPHA)
    assert abs(profile.log_k_star - log_k) <= 0.3
    assert abs(profile.t_bar / lam - 1) <= 1.1e-3
