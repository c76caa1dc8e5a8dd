import dataclasses

import numpy as np
import pytest

from rumornet.inoculation import InoculationPlan, apply_plan, make_random_plan, make_targeted_plan
from rumornet.netgen import DegreeDistribution, build_configuration_network, sample_powerlaw_distribution


def random_dist(rng, max_classes=8):
    size = int(rng.integers(2, max_classes + 1))
    support = np.sort(rng.choice(np.arange(1, 80), size=size, replace=False))
    weights = rng.random(size) + 1e-3
    return DegreeDistribution(support, weights / weights.sum())


class TestRandomPlan:
    def test_zero_is_no_op(self):
        plan = make_random_plan(0.0)
        dist = sample_powerlaw_distribution(2.4, 2, 100)
        assert (plan.profile(dist) * dist.probs).sum() == 0.0

    def test_stores_fraction(self):
        assert make_random_plan(0.3).g == 0.3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_random_plan(1.2)
        with pytest.raises(ValueError):
            make_random_plan(-0.1)


class TestTargetedPlan:
    def test_two_class_example(self):
        dist = DegreeDistribution([2, 4], [0.5, 0.5])
        plan = make_targeted_plan(dist, 0.25)
        assert plan.k_t == 4
        assert plan.f == pytest.approx(0.5)

    def test_zero_fraction(self):
        dist = sample_powerlaw_distribution(2.4, 2, 500)
        plan = make_targeted_plan(dist, 0.0)
        assert np.all(plan.profile(dist) == 0.0)

    def test_full_fraction(self):
        dist = sample_powerlaw_distribution(2.4, 2, 500)
        plan = make_targeted_plan(dist, 1.0)
        assert plan.k_t == dist.k_min
        assert plan.f == pytest.approx(1.0)
        assert np.all(plan.profile(dist) == 1.0)

    def test_step_shape(self):
        dist = sample_powerlaw_distribution(2.4, 2, 2000)
        plan = make_targeted_plan(dist, 0.1)
        profile = plan.profile(dist)
        below = dist.support < plan.k_t
        above = dist.support > plan.k_t
        assert np.all(profile[below] == 0.0)
        assert np.all(profile[above] == 1.0)
        assert 0.0 < plan.f <= 1.0

    def test_reconstruction_over_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dist = random_dist(rng)
            g_bar = float(rng.random())
            plan = make_targeted_plan(dist, g_bar)
            assert (plan.profile(dist) * dist.probs).sum() == pytest.approx(g_bar, abs=1e-9)

    def test_monotone_severity(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            dist = random_dist(rng)
            g1, g2 = np.sort(rng.random(2))
            low = make_targeted_plan(dist, float(g1)).profile(dist)
            high = make_targeted_plan(dist, float(g2)).profile(dist)
            assert np.all(high >= low - 1e-12)

    def test_foreign_support_follows_the_rule(self):
        plan = make_targeted_plan(DegreeDistribution([2, 4], [0.5, 0.5]), 0.25)
        assert (plan.k_t, plan.f) == (4, 0.5)
        # 1.0 above k_t, f at k_t, 0.0 below, whichever degrees the support holds
        for support, expected in (([2, 5], [0.0, 1.0]), ([1, 3, 4, 9], [0.0, 0.0, 0.5, 1.0]), ([3], [0.0])):
            other = DegreeDistribution(support, np.full(len(support), 1.0 / len(support)))
            assert plan.profile(other).tolist() == expected

    def test_foreign_support_matches_apply_plan(self):
        # the profile of a graph's empirical distribution is the share of each
        # degree class that apply_plan picks (up to rounding at the cutoff)
        dist = sample_powerlaw_distribution(2.4, 2, 3000)
        net = build_configuration_network(dist, 3000, np.random.default_rng(8))
        empirical = net.empirical_distribution()
        plan = make_targeted_plan(dist, 0.05)
        assert not np.array_equal(empirical.support, dist.support)
        chosen = np.zeros(net.n, dtype=bool)
        chosen[apply_plan(net, plan, np.random.default_rng(9))] = True
        share = np.array([chosen[net.degrees == k].mean() for k in empirical.support])
        profile = plan.profile(empirical)
        off_cut = empirical.support != plan.k_t
        assert np.array_equal(share[off_cut], profile[off_cut])
        assert np.allclose(share[~off_cut], profile[~off_cut], atol=0.5 / (net.degrees == plan.k_t).sum())

    def test_plans_are_hashable_rules(self):
        dist = sample_powerlaw_distribution(2.4, 2, 500)
        for g_bar in (0.0, 0.1, 1.0):
            plan = make_targeted_plan(dist, g_bar)
            assert plan == make_targeted_plan(dist, g_bar)
            assert hash(plan) == hash(make_targeted_plan(dist, g_bar))
        assert make_random_plan(0.3) == make_random_plan(0.3)
        assert len({make_random_plan(0.3), make_random_plan(0.3), make_random_plan(0.4)}) == 2
        assert make_targeted_plan(dist, 0.1) != make_targeted_plan(dist, 0.2)
        assert [f.name for f in dataclasses.fields(InoculationPlan)] == ["kind", "g", "k_t", "f"]


class TestApplyPlan:
    @pytest.fixture(scope="class")
    def network(self):
        dist = sample_powerlaw_distribution(2.4, 2, 10**4)
        return build_configuration_network(dist, 10**4, np.random.default_rng(3))

    def test_none_plan_empty(self, network):
        assert apply_plan(network, None, np.random.default_rng(0)).size == 0

    def test_random_binomial_count(self, network):
        ids = apply_plan(network, make_random_plan(0.5), np.random.default_rng(4))
        # 3 sigma of Binomial(10^4, 0.5)
        assert abs(ids.size - 5000) < 3 * 50

    def test_targeted_respects_cutoff(self, network):
        dist = network.empirical_distribution()
        plan = make_targeted_plan(dist, 0.1)
        ids = apply_plan(network, plan, np.random.default_rng(5))
        chosen = np.zeros(network.n, dtype=bool)
        chosen[ids] = True
        assert np.all(chosen[network.degrees > plan.k_t])
        assert not np.any(chosen[network.degrees < plan.k_t])
        at_cut = network.degrees == plan.k_t
        assert chosen[at_cut].sum() == int(round(plan.f * at_cut.sum()))

    def test_cutoff_below_min_degree_takes_all(self, network):
        dist = network.empirical_distribution()
        plan = make_targeted_plan(dist, 1.0)
        ids = apply_plan(network, plan, np.random.default_rng(6))
        assert ids.size == network.n

    def test_deterministic_under_seed(self, network):
        plan = make_random_plan(0.2)
        a = apply_plan(network, plan, np.random.default_rng(7))
        b = apply_plan(network, plan, np.random.default_rng(7))
        assert np.array_equal(a, b)

