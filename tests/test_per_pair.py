"""Per-pair thresholds, weights and powers against their per-hypothesis forms.

The weight profile takes one threshold per distinct (p, gamma) pair and
expands it to the hypotheses, and the count calibration collapses
``(p, sqrt(totals))`` once and takes one power per pair.  Every value must
keep the bits of the frozen per-hypothesis forms in ``oracles``.
"""

import numpy as np
import pytest

from wamdf import weights
from wamdf.counts import CalibrationError, calibrate_information, generate_synthetic_counts
from wamdf.power import NormalLocationModel, TabulatedPowerModel
from wamdf.simulate import substream
from wamdf.weights import PriorSpec, asymptotically_optimal_weights, optimal_fixed_t_weights

from oracles import (
    per_constant_calibration,
    per_hypothesis_fixed_t_log_k,
    per_hypothesis_profile,
    stable_sort_collapse,
)

X = np.arange(1.0, 6.0)
# knots packed toward 0 keep the first secant steep enough for the plug-in
# FDP to reach small levels
KNOTS = np.r_[0.0, np.logspace(-8, 0, 33)]
MODELS = {"normal": NormalLocationModel(), "table": TabulatedPowerModel(KNOTS, np.sqrt(KNOTS))}


def same_profile(got, want):
    assert got.log_k_star == want.log_k_star
    assert got.t_bar == want.t_bar and got.u == want.u and got.k_star == want.k_star
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.warning == want.warning


def tied_prior(seed, M):
    """p from three values and gamma from four, so most pairs repeat."""
    rng = np.random.default_rng(seed)
    return PriorSpec(rng.choice([0.2, 0.35, 0.5], M), rng.choice([0.5, 1.5, 2.5, 4.0], M))


def calibration_or_error(call, *args, **kwargs):
    try:
        k_info, achieved, profile = call(*args, **kwargs)
    except CalibrationError as exc:
        return str(exc)
    return k_info, achieved, profile


def package_calibration(*args, **kwargs):
    result = calibrate_information(*args, **kwargs)
    return result.k_info, result.achieved_power, result.profile


def p_prior(kind, n):
    rng = np.random.default_rng(n)
    return {"0.5": 0.5, "0.95": 0.95,
            "three values": rng.choice([0.3, 0.5, 0.7], n),
            "untied": rng.uniform(0.2, 0.8, n)}[kind]


class TestCollapseMap:
    @pytest.mark.parametrize("M", [1, 2, 50, 2000])
    def test_index_and_first_rebuild_the_prior(self, M):
        prior = tied_prior(M, M)
        pairs = weights._collapse(prior)
        assert pairs.p[pairs.index].tobytes() == prior.p.tobytes()
        assert pairs.gamma[pairs.index].tobytes() == prior.gamma.tobytes()
        np.testing.assert_array_equal(prior.p[pairs.first], pairs.p)
        np.testing.assert_array_equal(prior.gamma[pairs.first], pairs.gamma)
        np.testing.assert_array_equal(pairs.index[pairs.first], np.arange(pairs.p.size))
        np.testing.assert_array_equal(np.bincount(pairs.index), pairs.count)

    def test_untied_prior_maps_each_hypothesis_to_itself(self):
        prior = PriorSpec([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])
        pairs = weights._collapse(prior)
        np.testing.assert_array_equal(pairs.index, np.arange(3))
        np.testing.assert_array_equal(pairs.first, np.arange(3))
        assert pairs.p[pairs.index].tobytes() == prior.p.tobytes()

    # p drawn from 500 values ranks p in 16 bits, and from 200,000 values
    # (some 100,000 distinct in the draw) in 32 bits
    @pytest.mark.parametrize("kind, M", [("untied", 2000), ("scalar p", 2000),
                                         ("three p values", 2000), ("500 p values", 1970),
                                         ("200,000 p values", 140_000), ("fully tied", 2000),
                                         ("three p values", 1)])
    def test_matches_the_stable_sort_collapse(self, kind, M):
        rng = np.random.default_rng(M)
        # gamma as in a count prior: the square roots of log-uniform totals
        gamma = np.sqrt(np.exp(rng.uniform(np.log(6), np.log(912), M)).astype(np.int64))
        p = {"untied": lambda: rng.uniform(0.05, 0.95, M),
             "scalar p": lambda: np.full(M, 0.5),
             "three p values": lambda: rng.choice([0.3, 0.5, 0.7], M),
             "500 p values": lambda: rng.choice(rng.uniform(0.05, 0.95, 500), M),
             "200,000 p values": lambda: rng.choice(rng.uniform(0.05, 0.95, 200_000), M),
             "fully tied": lambda: np.full(M, 0.5)}[kind]()
        if kind == "fully tied":
            gamma = np.full(M, 2.0)
        prior = PriorSpec(p, gamma)
        got, want = weights._collapse(prior), stable_sort_collapse(prior)
        for field in ("p", "gamma", "count", "index", "first"):
            # the frozen collapse gives None where an untied prior maps to itself
            b = getattr(want, field)
            b = np.arange(M) if b is None else b
            assert getattr(got, field).tobytes() == b.tobytes(), field
        assert got.tied == (want.count.size < M)


class TestProfiles:
    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    @pytest.mark.parametrize("seed", range(6))
    def test_pre_data(self, model, seed):
        prior = tied_prior(seed, [30, 200, 2000][seed % 3])
        got = asymptotically_optimal_weights(prior, 0.05, model)
        same_profile(got, per_hypothesis_profile(prior, got.log_k_star, model))

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    @pytest.mark.parametrize("seed", range(6))
    def test_fixed_t(self, model, seed):
        prior = tied_prior(seed, [30, 200, 2000][seed % 3])
        t = [0.01, 0.05, 0.2][seed % 3]
        got = optimal_fixed_t_weights(prior, t, model)
        log_k = per_hypothesis_fixed_t_log_k(prior, t, model)
        same_profile(got, per_hypothesis_profile(prior, log_k, model))

    def test_clamped_weights_and_warning(self):
        # the p = 0.5 thresholds underflow beside a strong p = 0.4 effect:
        # the raised weights and the message match too
        prior = PriorSpec([0.5, 0.5, 0.4, 0.5, 0.4], [2e3, 2.2e3, 1.8e3, 2e3, 1.8e3])
        got = optimal_fixed_t_weights(prior, 0.05)
        assert got.warning
        same_profile(got, per_hypothesis_profile(prior, got.log_k_star, MODELS["normal"]))


class TestCalibration:
    # p = 0.95 puts alpha = 0.05 within rounding of 1 - max(p), where each
    # solve takes some 0.3 s at 2,000 features, and every such calibration
    # here ends at a jump: it runs at 30 features (and in the jump test)
    @pytest.mark.parametrize("n, prior_kind, target", [
        (n, kind, target) for n in (30, 300, 2000) for kind in ("0.5", "three values", "untied")
        for target in (0.5, 0.9)] + [(30, "0.95", 0.5)])
    def test_matches_a_collapse_per_constant(self, n, prior_kind, target):
        ds, _ = generate_synthetic_counts(n, X, substream(1, 0))
        prior = p_prior(prior_kind, n)
        want = calibration_or_error(per_constant_calibration, ds.totals, p_prior=prior,
                                    target_avg_power=target)
        got = calibration_or_error(package_calibration, ds.totals, p_prior=prior,
                                   target_avg_power=target)
        if isinstance(want, str):
            assert got == want
            return
        assert got[:2] == want[:2]
        same_profile(got[2], want[2])

    def test_jump_message_matches(self):
        # the case named in test_counts: average power jumps across the target
        ds, _ = generate_synthetic_counts(30, X, substream(1, 0))
        want = calibration_or_error(per_constant_calibration, ds.totals, p_prior=0.95,
                                    target_avg_power=0.9)
        assert want.startswith("achieved power 0.99999995 misses target 0.9")
        with pytest.raises(CalibrationError) as info:
            calibrate_information(ds.totals, p_prior=0.95, target_avg_power=0.9)
        assert str(info.value) == want
