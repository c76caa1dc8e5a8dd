import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from rumornet.inoculation import make_random_plan, make_targeted_plan
from rumornet.meanfield import critical_rate
from rumornet.netgen import DegreeDistribution, sample_powerlaw_distribution
from rumornet.thresholds import (
    NO_OUTBREAK,
    REGIME_FINITE,
    REGIME_LOG,
    REGIME_VANISHING,
    threshold_modified,
    threshold_modified_bounded,
    threshold_random_inoc,
    threshold_targeted_inoc,
)

TWO_FOUR = DegreeDistribution([2, 4], [2 / 3, 1 / 3])


def continuum_ratio(gamma, k_min, n_nodes, alpha, beta):
    """Independent quadrature of the two truncated moments behind the threshold."""
    k_max = k_min * n_nodes ** (1.0 / (gamma - 1.0))
    num, _ = scipy_integrate.quad(lambda k: k ** (beta + 1.0 - gamma), k_min, k_max)
    den, _ = scipy_integrate.quad(lambda k: k ** (alpha + beta + 1.0 - gamma), k_min, k_max)
    return num / den


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


def classic_bounded(gamma, k_min, n_nodes):
    """The classic model's bounded threshold: the modified one at alpha=1, beta=0."""
    return threshold_modified_bounded(gamma, k_min, n_nodes, 1.0, 0.0).value


class TestClassicBounded:
    def test_gamma3_log_form(self):
        n = int(round(math.e**10))
        assert classic_bounded(3.0, 2, n) == pytest.approx(0.1, rel=1e-4)

    def test_strictly_decreasing_in_n(self):
        values = [classic_bounded(2.5, 1, n) for n in (10**3, 10**4, 10**5)]
        assert values[0] > values[1] > values[2]

    def test_frozen_value(self):
        expected = 0.75 * (10**5) ** (-0.6 / 1.4)  # recomputed from the power law directly
        assert expected == pytest.approx(5.3976425e-3, rel=1e-6)
        assert classic_bounded(2.4, 2, 10**5) == pytest.approx(expected, rel=1e-12)

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            classic_bounded(2.0, 2, 100)
        with pytest.raises(ValueError):
            classic_bounded(3.5, 2, 100)


class TestModifiedBounded:
    def test_size_independent_case(self):
        low = threshold_modified_bounded(2.4, 2, 10**2, 0.5, -0.5)
        high = threshold_modified_bounded(2.4, 2, 10**5, 0.5, -0.5)
        assert low.regime == high.regime == REGIME_FINITE
        assert low.value == pytest.approx(high.value, rel=0.02)
        assert low.value == pytest.approx(2.0**-0.5 * 0.4 / 0.9, rel=1e-12)

    def test_log_boundary_case(self):
        gamma, k_min, n = 2.4, 2, 10**4
        report = threshold_modified_bounded(gamma, k_min, n, 0.4, 0.0)
        k_max = k_min * n ** (1.0 / (gamma - 1.0))
        expected = k_min**-0.4 / (0.4 * math.log(k_max / k_min))
        assert report.regime == REGIME_LOG
        assert report.value == pytest.approx(expected, rel=1e-12)

    def test_close_to_exact_integrals_deep_in_each_regime(self):
        # the reported value is the leading large-n behavior of the integral ratio
        for alpha, beta in ((0.5, -0.5), (1.0, 0.0)):
            exact = continuum_ratio(2.4, 2, 10**7, alpha, beta)
            report = threshold_modified_bounded(2.4, 2, 10**7, alpha, beta)
            assert report.value == pytest.approx(exact, rel=0.1)

    def test_positive_above_gamma_minus_two(self):
        # numerator moment also diverges once beta > gamma - 2; value stays positive
        report = threshold_modified_bounded(2.4, 2, 10**5, 0.5, 1.0)
        assert report.value > 0
        assert report.regime == REGIME_VANISHING
        exact = continuum_ratio(2.4, 2, 10**9, 0.5, 1.0)
        asym = threshold_modified_bounded(2.4, 2, 10**9, 0.5, 1.0)
        assert asym.value == pytest.approx(exact, rel=0.05)

    def test_regime_trichotomy_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            gamma = float(rng.uniform(2.01, 3.0))
            alpha = float(rng.uniform(0.05, 1.0))
            beta = float(rng.uniform(-2.0, 2.0))
            sign = alpha + beta + 2.0 - gamma
            if abs(sign) < 1e-6:
                continue
            report = threshold_modified_bounded(gamma, 2, 10**4, alpha, beta)
            assert report.regime == (REGIME_VANISHING if sign > 0 else REGIME_FINITE)
            assert report.value >= 0.0

    def test_classic_below_modified_on_finite_networks(self):
        for gamma in (2.4, 2.8):
            for alpha in (0.3, 0.6, 0.9):
                for beta in (-0.3, -0.1):
                    for n in (10**3, 10**5):
                        classic = classic_bounded(gamma, 2, n)
                        modified = threshold_modified_bounded(gamma, 2, n, alpha, beta).value
                        assert classic < modified


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
