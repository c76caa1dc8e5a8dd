import math

import numpy as np
import pytest

from rumornet.inoculation import make_random_plan, make_targeted_plan
from rumornet.meanfield import critical_rate
from rumornet.netgen import DegreeDistribution, sample_powerlaw_distribution
from rumornet.thresholds import (
    NO_OUTBREAK,
    REGIME_FINITE,
    REGIME_LOG,
    REGIME_VANISHING,
    size_regime,
    threshold_modified,
    threshold_random_inoc,
    threshold_targeted_inoc,
)

TWO_FOUR = DegreeDistribution([2, 4], [2 / 3, 1 / 3])


class TestThresholdModified:
    def test_classical_reduction_two_class(self):
        assert threshold_modified(TWO_FOUR, 1.0, 0.0) == pytest.approx(1 / 3, rel=1e-14)

    def test_point_mass_power(self):
        for k0 in (1, 3, 10):
            dist = DegreeDistribution([k0], [1.0])
            for alpha, beta in ((0.5, 0.0), (1.0, -1.0), (0.3, 0.7)):
                assert threshold_modified(dist, alpha, beta) == pytest.approx(k0 ** (-alpha), rel=1e-12)

    def test_against_continuum_limit(self):
        # discrete sums on the truncated support sit above the continuum-limit
        # value at this size; the gap is real (~17%) and stable
        dist = sample_powerlaw_distribution(2.4, 2, 10**5)
        discrete = threshold_modified(dist, 0.5, -0.5)
        continuum_limit = 2.0**-0.5 * 0.4 / 0.9
        assert continuum_limit == pytest.approx(0.3142696805, abs=1e-9)
        assert discrete == pytest.approx(0.3682609279, abs=1e-9)
        assert 0.10 < discrete / continuum_limit - 1.0 < 0.20

    def test_strictly_decreasing_in_alpha(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            size = int(rng.integers(2, 7))
            support = np.sort(rng.choice(np.arange(2, 50), size=size, replace=False))
            weights = rng.random(size) + 0.05
            dist = DegreeDistribution(support, weights / weights.sum())
            beta = float(rng.uniform(-1.5, 1.5))
            alphas = np.linspace(0.05, 1.0, 12)
            values = [threshold_modified(dist, a, beta) for a in alphas]
            assert all(b < a for a, b in zip(values, values[1:]))


# the sizes, a decade apart, over which the size claim follows lambda_c
DECADES = (10**3, 10**4, 10**5, 10**6)


def decade_slope_ratio(gamma, alpha, beta):
    """The last decade's log-slope of lambda_c over the first's, on the
    power law with the hard cutoff at each n of DECADES: near 0 where lambda_c
    levels off with n, near 1 where it keeps falling as a power of n."""
    rates = [critical_rate(sample_powerlaw_distribution(gamma, 2, n), alpha, beta) for n in DECADES]
    slopes = [math.log(a / b) for a, b in zip(rates, rates[1:])]
    assert all(slope > 0 for slope in slopes)
    return slopes[-1] / slopes[0]


# (gamma, alpha, beta, a2) with a2 = alpha + beta + 2 - gamma of -0.8, -0.4,
# 0.4 and 0.8; nearer the boundary the decades up to 10**6 do not separate the
# regimes (the ratio reads 0.54 at a2 = -0.2, gamma = 3, alpha = 0.8)
SIZE_ROWS = [
    (gamma, alpha, round(a2 + gamma - 2.0 - alpha, 10), a2)
    for gamma in (2.4, 2.8, 3.0)
    for alpha in (0.5, 1.0)
    for a2 in (-0.8, -0.4, 0.4, 0.8)
]


class TestClassicBounded:
    """The classic threshold (alpha=1, beta=0) on the power law with the hard
    cutoff, and the range of gamma and alpha that size_regime accepts."""

    def test_strictly_decreasing_in_n(self):
        values = [critical_rate(sample_powerlaw_distribution(2.5, 1, n), 1.0, 0.0) for n in (10**3, 10**4, 10**5)]
        assert values[0] > values[1] > values[2]

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            size_regime(2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            size_regime(3.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            size_regime(2.4, 0.0, 0.0)


class TestModifiedBounded:
    """The paper's claims on lambda_c = critical_rate on the power law with
    the hard cutoff, and the regime label size_regime gives them."""

    def test_size_independent_case(self):
        # lambda_c levels off with n where alpha + beta + 2 < gamma, and keeps
        # falling as a power of n where alpha + beta + 2 > gamma; the bound
        # each row meets is chosen by its label
        bound = {REGIME_FINITE: lambda ratio: ratio <= 0.5, REGIME_VANISHING: lambda ratio: ratio >= 0.8}
        for gamma, alpha, beta, a2 in SIZE_ROWS:
            regime = size_regime(gamma, alpha, beta)
            assert regime == (REGIME_FINITE if a2 < 0 else REGIME_VANISHING)
            ratio = decade_slope_ratio(gamma, alpha, beta)
            assert bound[regime](ratio), (gamma, alpha, beta, ratio)

    def test_log_boundary_case(self):
        assert size_regime(2.4, 0.4, 0.0) == REGIME_LOG
        assert size_regime(3.0, 1.0, 0.0) == REGIME_LOG
        assert size_regime(2.4, 0.4, 1e-13) == REGIME_LOG
        assert size_regime(2.4, 0.4, -1e-11) == REGIME_FINITE
        assert size_regime(2.4, 0.4, 1e-11) == REGIME_VANISHING
        # on the boundary lambda_c still falls with n
        decade_slope_ratio(2.4, 0.4, 0.0)

    def test_regime_trichotomy_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            gamma = float(rng.uniform(2.01, 3.0))
            alpha = float(rng.uniform(0.05, 1.0))
            beta = float(rng.uniform(-2.0, 2.0))
            sign = alpha + beta + 2.0 - gamma
            if abs(sign) < 1e-6:
                continue
            assert size_regime(gamma, alpha, beta) == (REGIME_VANISHING if sign > 0 else REGIME_FINITE)

    def test_classic_below_modified_on_finite_networks(self):
        cases = 0
        for gamma in (2.4, 2.8):
            for n in (10**3, 10**5):
                dist = sample_powerlaw_distribution(gamma, 2, n)
                classic = critical_rate(dist, 1.0, 0.0)
                for alpha in (0.3, 0.6, 0.9):
                    for beta in (-0.3, -0.1):
                        assert classic < critical_rate(dist, alpha, beta)
                        cases += 1
        assert cases == 24


class TestInoculatedThresholds:
    def test_random_law_examples(self):
        assert threshold_random_inoc(0.2, 0.5) == pytest.approx(0.4, rel=1e-14)
        assert threshold_random_inoc(0.77, 0.0) == 0.77
        assert threshold_random_inoc(1 / 3, 0.9) == pytest.approx(10 / 3, rel=1e-12)

    def test_full_inoculation_sentinel(self):
        assert threshold_random_inoc(0.2, 1.0) == NO_OUTBREAK

    def test_dominates_bare_threshold(self):
        for g in np.linspace(0.05, 0.95, 10):
            assert threshold_random_inoc(0.3, float(g)) > 0.3

    def test_targeted_zero_profile_reduces(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        plan = make_targeted_plan(dist, 0.0)
        assert threshold_targeted_inoc(dist, 0.5, -0.5, plan) == pytest.approx(
            threshold_modified(dist, 0.5, -0.5), rel=1e-12
        )

    def test_uniform_profile_reduces_to_random(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        g = 0.3
        via_profile = threshold_targeted_inoc(dist, 0.5, -0.5, make_random_plan(g))
        via_law = threshold_random_inoc(threshold_modified(dist, 0.5, -0.5), g)
        assert via_profile == pytest.approx(via_law, rel=1e-12)

    def test_two_class_arithmetic(self):
        dist = DegreeDistribution([2, 4], [0.5, 0.5])
        plan = make_targeted_plan(dist, 0.25)
        assert plan.k_t == 4 and plan.f == pytest.approx(0.5)
        targeted = threshold_targeted_inoc(dist, 1.0, 0.0, plan)
        assert targeted == pytest.approx(0.5, rel=1e-12)  # 3 / (10 - 4)
        random = threshold_random_inoc(threshold_modified(dist, 1.0, 0.0), 0.25)
        assert random == pytest.approx(0.4, rel=1e-12)
        assert targeted > random

    def test_targeted_beats_random_on_random_dists(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            size = int(rng.integers(3, 9))
            support = np.sort(rng.choice(np.arange(1, 100), size=size, replace=False))
            weights = rng.random(size) + 0.02
            dist = DegreeDistribution(support, weights / weights.sum())
            if dist.k_max == dist.k_min:
                continue
            g = float(rng.uniform(0.02, 0.5))
            alpha = float(rng.uniform(0.1, 1.0))
            beta = float(rng.uniform(-1.0, 1.0))
            plan = make_targeted_plan(dist, g)
            if plan.k_t >= dist.k_max and plan.f == 1.0:
                continue  # profile saturates the top class; no hub preference left
            targeted = threshold_targeted_inoc(dist, alpha, beta, plan)
            random = threshold_random_inoc(threshold_modified(dist, alpha, beta), g)
            assert targeted > random

    def test_denominator_collapse_sentinel(self):
        dist = DegreeDistribution([2, 4], [0.5, 0.5])
        plan = make_targeted_plan(dist, 1.0)
        assert threshold_targeted_inoc(dist, 1.0, 0.0, plan) == NO_OUTBREAK



class TestCriticalRateAccuracy:
    def test_targeted_threshold_matches_an_fsum_ratio(self):
        # each class of the denominator weighted by 1 - g_k, with no
        # cancelling difference of moments: within 1e-14 of the ratio of two
        # math.fsum sums on the n=10**5 law, where subtracting the inoculated
        # moment from the bare one was off by up to 9.2e-13
        dist = sample_powerlaw_distribution(2.4, 2, 10**5)
        worst = 0.0
        for g in (0.01, 0.05, 0.3):
            plan = make_targeted_plan(dist, g)
            free = (1.0 - plan.profile(dist)).tolist()
            for alpha in (0.5, 0.65, 0.8, 1.0):
                for beta in (-0.5, 0.0, 0.5):
                    numerator = math.fsum((dist.power(beta + 1.0) * dist.probs).tolist())
                    terms = (dist.power(alpha + beta + 1.0) * dist.probs).tolist()
                    exact = numerator / math.fsum(f * t for f, t in zip(free, terms))
                    lambda_c = critical_rate(dist, alpha, beta, plan)
                    assert threshold_targeted_inoc(dist, alpha, beta, plan) == lambda_c
                    worst = max(worst, abs(lambda_c - exact) / exact)
        assert worst <= 1e-14
