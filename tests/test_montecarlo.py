import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumornet import montecarlo
from rumornet.expcli.scenario import parse_scenario
from rumornet.inoculation import make_random_plan, make_targeted_plan
from rumornet.meanfield import ModelParams, final_rumor_size
from rumornet.montecarlo import (
    IGNORANT,
    SPREADER,
    STIFLER,
    _Kernel,
    ensemble,
    mean_trace,
    run,
)
from rumornet.netgen import Network, build_configuration_network, sample_powerlaw_distribution


def complete_graph(n):
    return Network(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


@pytest.fixture(scope="module")
def powerlaw_net():
    dist = sample_powerlaw_distribution(2.4, 2, 10**4)
    return build_configuration_network(dist, 10**4, np.random.default_rng(100))


def contact_counts(degree, alpha, stars, steps, seed):
    """Contacts drawn by ``_Kernel.step`` for the hubs of disjoint stars.

    With p = 1 a hub informs exactly the leaves it contacts, so counting the
    informed leaves per hub gives one contact count per hub and step.
    """
    size = degree + 1
    hubs = np.arange(stars) * size
    net = Network(stars * size, [(hub, hub + 1 + i) for hub in hubs for i in range(degree)])
    kernel = _Kernel(net, ModelParams(lam=100.0, alpha=alpha), 0.1)
    status = np.zeros(net.n, dtype=np.int8)
    status[hubs] = SPREADER
    gen = np.random.default_rng(seed)
    return np.concatenate(
        [np.bincount(kernel.step(status, hubs, gen)[1] // size, minlength=stars) for _ in range(steps)]
    )


class TestContactCount:
    def test_degree_one_always_contacts(self):
        assert np.all(contact_counts(1, 0.5, 200, 1, seed=0) == 1)

    def test_integer_power_is_exact(self):
        assert np.all(contact_counts(4, 0.5, 200, 1, seed=1) == 2)
        assert np.all(contact_counts(3, 1.0, 200, 1, seed=1) == 3)

    def test_mean_preserved(self):
        draws = contact_counts(7, 0.6, 400, 100, seed=2)
        mean = 7.0**0.6
        se = np.sqrt(0.25 / draws.size)  # Bernoulli variance bound on the fraction
        assert abs(draws.mean() - mean) < 5 * se

    def test_never_exceeds_degree(self):
        for k in (1, 2, 3, 9):
            assert np.all(contact_counts(k, 1.0, 50, 1, seed=3) <= k)


class TestRunBasics:
    def test_lambda_zero_only_seed_informed(self):
        net = complete_graph(20)
        trace = run(net, ModelParams(lam=0.0, alpha=1.0), seeds=1, rng=5)
        assert trace.final_r == pytest.approx(1 / 20)
        assert trace.spreader[-1] == 0.0

    def test_everyone_inoculated_but_seed(self):
        net = complete_graph(20)
        trace = run(net, ModelParams(lam=10.0, alpha=1.0), plan=make_random_plan(1.0), seeds=1, rng=6)
        assert trace.inoculated_fraction == pytest.approx(19 / 20)
        assert trace.final_r == pytest.approx(1 / 20)

    def test_seed_count_validation(self):
        net = complete_graph(5)
        params = ModelParams(lam=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            run(net, params, seeds=0)
        with pytest.raises(ValueError):
            run(net, params, seeds=6)

    def test_fraction_seeding(self, tmp_path):
        # a seed fraction s0 becomes a spreader count when the scenario is parsed
        path = tmp_path / "fraction.cfg"
        path.write_text("[network]\nn = 50\n\n[model]\nlambda = 0.0\ns0 = 0.1\n")
        seeds = parse_scenario(path).mc_seeds
        assert seeds == 5
        trace = run(complete_graph(50), ModelParams(lam=0.0, alpha=1.0), seeds=seeds, rng=7)
        assert trace.final_r == pytest.approx(5 / 50)

    def test_fractions_sum_to_one(self):
        net = complete_graph(30)
        trace = run(net, ModelParams(lam=1.0, alpha=0.7, beta=-0.4),
                    plan=make_random_plan(0.3), seeds=2, rng=8)
        total = trace.ignorant + trace.spreader + trace.stifler + trace.inoculated_fraction
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_stifler_fraction_nondecreasing(self):
        net = complete_graph(40)
        trace = run(net, ModelParams(lam=2.0, alpha=1.0), seeds=1, rng=9)
        assert np.all(np.diff(trace.stifler) >= 0.0)

    def test_determinism_bitwise(self):
        dist = sample_powerlaw_distribution(2.4, 2, 500)
        net = build_configuration_network(dist, 500, np.random.default_rng(10))
        params = ModelParams(lam=1.0, alpha=0.5, beta=-0.5)
        a = run(net, params, seeds=3, rng=123)
        b = run(net, params, seeds=3, rng=123)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.stifler, b.stifler)
        assert np.array_equal(a.spreader, b.spreader)
        assert a.final_r == b.final_r

    def test_one_directional_status_flow(self):
        net = complete_graph(25)
        trace = run(net, ModelParams(lam=3.0, alpha=1.0), seeds=2, rng=11, record_events=True)
        allowed = {(IGNORANT, SPREADER), (SPREADER, STIFLER)}
        assert trace.events
        per_node: dict[int, list] = {}
        for t, node, old, new in trace.events:
            assert (old, new) in allowed
            per_node.setdefault(node, []).append((t, old, new))
        for transitions in per_node.values():
            assert len(transitions) <= 2
            if len(transitions) == 2:
                assert transitions[0][2] == SPREADER and transitions[1][2] == STIFLER


class TestStepKernel:
    def test_star_hubs_inform_uniform_distinct_leaves(self):
        # disjoint stars whose hubs spread together; with p = 1 each hub
        # informs exactly the leaves it contacts, and only its own.  A degree-1
        # hub always contacts its leaf, and an integral d**alpha (4**0.5 = 2,
        # 3**1 = 3) is drawn exactly
        for sizes, alpha in (((12, 7, 1), 0.7), ((4, 1), 0.5), ((3,), 1.0)):
            self.check_stars(sizes, alpha)

    @staticmethod
    def check_stars(sizes, alpha, dt=0.1, trials=4000):
        hubs = np.cumsum([0, *sizes[:-1]]) + np.arange(len(sizes))
        leaves = [np.arange(hub + 1, hub + 1 + d) for hub, d in zip(hubs, sizes)]
        stars = Network(sum(sizes) + len(sizes), [(hub, leaf) for hub, own in zip(hubs, leaves) for leaf in own])
        kernel = _Kernel(stars, ModelParams(lam=100.0, alpha=alpha), dt)
        status = np.zeros(stars.n, dtype=np.int8)
        status[hubs] = SPREADER
        gen = np.random.default_rng(4)
        hits = np.zeros(stars.n)
        counts = np.empty((trials, len(sizes)))
        for j in range(trials):
            _, informed = kernel.step(status, hubs, gen)
            counts[j] = [np.isin(informed, own).sum() for own in leaves]
            hits[informed] += 1
        assert hits[hubs].sum() == 0
        for d, column, own in zip(sizes, counts.T, leaves):
            mean = d**alpha
            assert set(column.tolist()) == {math.floor(mean), math.ceil(mean)}
            assert abs(column.mean() - mean) < 5 * 0.5 / math.sqrt(trials)
            p = mean / d
            se = math.sqrt(p * (1 - p) / trials)
            assert np.all(np.abs(hits[own] / trials - p) <= 5 * se)
        assert np.all(status[hubs] == SPREADER) and status.sum() == len(sizes)  # left unchanged


@st.composite
def small_runs(draw):
    """A random graph on at most 10 nodes, model parameters, a plan and seeds."""
    n = draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    network = Network(n, [pair for pair, kept in zip(pairs, keep) if kept])
    params = ModelParams(
        lam=draw(st.floats(0.0, 20.0)),
        alpha=draw(st.floats(0.05, 1.0)),
        beta=draw(st.floats(-1.0, 1.0)),
        sigma=draw(st.floats(0.1, 3.0)),
    )
    g = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    plan = make_random_plan(g) if g else None
    return network, params, plan, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


def run_recording_plan(network, params, plan, seeds, rng):
    """``run`` with record_events, plus the node ids ``apply_plan`` returned to it."""
    picked = []
    real = montecarlo.apply_plan

    def spy(*args):
        picked.append(real(*args))
        return picked[-1]

    with mock.patch.object(montecarlo, "apply_plan", spy):
        trace = run(network, params, plan=plan, seeds=seeds, t_max=20.0, rng=rng, record_events=True)
    return trace, picked[0]


class TestRunProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_runs())
    def test_fractions_conserved_and_stiflers_monotone(self, case):
        network, params, plan, seeds, rng = case
        trace, _ = run_recording_plan(network, params, plan, seeds, rng)
        total = trace.ignorant + trace.spreader + trace.stifler + trace.inoculated_fraction
        assert np.allclose(total, 1.0, rtol=0.0, atol=1e-12)
        assert np.all(np.diff(trace.stifler) >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(small_runs())
    def test_inoculated_nodes_never_in_events(self, case):
        network, params, plan, seeds, rng = case
        trace, picked = run_recording_plan(network, params, plan, seeds, rng)
        seed_ids = [node for t, node, _, _ in trace.events if t == 0.0]
        inoculated = np.setdiff1d(picked, seed_ids)
        assert inoculated.size == round(trace.inoculated_fraction * network.n)
        assert not set(inoculated.tolist()) & {node for _, node, _, _ in trace.events}

    @settings(max_examples=40, deadline=None)
    @given(small_runs())
    def test_same_seed_same_trace(self, case):
        network, params, plan, seeds, rng = case
        a = run(network, params, plan=plan, seeds=seeds, t_max=20.0, rng=rng, record_events=True)
        b = run(network, params, plan=plan, seeds=seeds, t_max=20.0, rng=rng, record_events=True)
        for field in ("times", "ignorant", "spreader", "stifler"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.events == b.events


class TestMarkovOracle:
    """Exhaustive 3-node complete-graph chain with the same per-step rules."""

    @staticmethod
    def oracle(lam, sigma, dt, max_informed_prob=True):
        p = min(1.0, lam * dt)  # per contacted ignorant, per contacting spreader
        q = 1.0 - np.exp(-sigma * dt)
        # states (ignorant, spreader, stifler) with i+s+r = 3
        states = [(i, s, 3 - i - s) for i in range(4) for s in range(4 - i)]
        index = {state: j for j, state in enumerate(states)}
        size = len(states)
        transition = np.zeros((size, size))
        from math import comb
        for (i, s, r), j in index.items():
            if s == 0:
                transition[j, j] = 1.0
                continue
            p_inform = 1.0 - (1.0 - p) ** s  # contacted by every spreader
            for new_inf in range(i + 1):
                pi = comb(i, new_inf) * p_inform**new_inf * (1 - p_inform) ** (i - new_inf)
                for stifled in range(s + 1):
                    ps = comb(s, stifled) * q**stifled * (1 - q) ** (s - stifled)
                    target = (i - new_inf, s - stifled + new_inf, r + stifled)
                    transition[j, index[target]] += pi * ps
        start = np.zeros(size)
        start[index[(2, 1, 0)]] = 1.0
        for _ in range(100_000):
            nxt = start @ transition
            if np.max(np.abs(nxt - start)) < 1e-15:
                start = nxt
                break
            start = nxt
        informed_mean = sum(prob * (3 - i) / 3 for (i, s, r), j in index.items()
                            for prob in [start[j]] if s == 0)
        all_informed = sum(start[index[(0, 0, 3)]] for _ in [0])
        return informed_mean, all_informed

    def test_ensemble_matches_exact_chain(self):
        lam, sigma, dt = 3.0, 1.0, 0.1
        exact_mean, exact_all = self.oracle(lam, sigma, dt)
        net = complete_graph(3)
        params = ModelParams(lam=lam, alpha=1.0, beta=0.0, sigma=sigma)
        summary = ensemble(net, params, runs=4000, seeds=1, dt=dt, t_max=500.0, master_seed=77)
        se = summary.std_final_r / np.sqrt(4000)
        assert abs(summary.mean_final_r - exact_mean) < 4 * se + 1e-4
        frac_all = float((summary.finals > 0.99).mean())
        se_all = np.sqrt(exact_all * (1 - exact_all) / 4000)
        assert abs(frac_all - exact_all) < 4 * se_all + 1e-4

    def test_high_rate_informs_everyone(self):
        exact_mean, exact_all = self.oracle(50.0, 1.0, 0.05)
        assert exact_all > 0.9  # sanity on the oracle itself
        net = complete_graph(3)
        summary = ensemble(net, ModelParams(lam=50.0, alpha=1.0), runs=500,
                           seeds=1, dt=0.05, t_max=100.0, master_seed=78)
        assert abs(summary.mean_final_r - exact_mean) < 0.03


class TestEnsemble:
    def test_single_run_equals_trace(self, powerlaw_net):
        params = ModelParams(lam=0.5, alpha=0.5, beta=-0.5)
        summary = ensemble(powerlaw_net, params, runs=1, seeds=5, master_seed=42, keep_traces=True)
        assert summary.mean_final_r == summary.traces[0].final_r
        assert summary.std_final_r == 0.0

    def test_lambda_zero_exact(self, powerlaw_net):
        summary = ensemble(powerlaw_net, ModelParams(lam=0.0, alpha=1.0), runs=5,
                           seeds=7, master_seed=43)
        assert summary.mean_final_r == pytest.approx(7 / powerlaw_net.n)
        assert summary.std_final_r == 0.0

    def test_deterministic_given_master_seed(self, powerlaw_net):
        params = ModelParams(lam=0.8, alpha=0.5, beta=-0.5)
        a = ensemble(powerlaw_net, params, runs=3, seeds=5, master_seed=7)
        b = ensemble(powerlaw_net, params, runs=3, seeds=5, master_seed=7)
        assert np.array_equal(a.finals, b.finals)
        assert np.array_equal(a.seeds, b.seeds)

    def test_classical_runs_match_meanfield_well_above_threshold(self, powerlaw_net):
        # annealed theory overshoots quenched simulation near threshold; well
        # above it the two land within 0.1
        params = ModelParams(lam=2.0, alpha=1.0, beta=0.0, sigma=1.0)
        summary = ensemble(powerlaw_net, params, runs=30, seeds=10, dt=0.1,
                           t_max=200.0, master_seed=3)
        dist = sample_powerlaw_distribution(2.4, 2, 10**4)
        r_mf = final_rumor_size(dist, params)
        assert abs(summary.mean_final_r - r_mf) < 0.1

    def test_inoculated_nodes_never_change_status(self, powerlaw_net):
        dist = powerlaw_net.empirical_distribution()
        plan = make_targeted_plan(dist, 0.2)
        params = ModelParams(lam=1.0, alpha=0.5, beta=-0.5)
        trace = run(powerlaw_net, params, plan=plan, seeds=5, rng=55, record_events=True)
        # events only ever touch non-inoculated nodes; fractions stay consistent
        total = trace.ignorant + trace.spreader + trace.stifler + trace.inoculated_fraction
        assert np.allclose(total, 1.0, atol=1e-12)
        assert trace.inoculated_fraction > 0.15


class TestExports:
    def test_mean_trace_padding(self):
        net = complete_graph(12)
        summary = ensemble(net, ModelParams(lam=2.0, alpha=1.0), runs=6, seeds=1,
                           master_seed=2, keep_traces=True)
        times, i, s, r = mean_trace(summary.traces)
        assert times.size == max(t.times.size for t in summary.traces)
        assert np.allclose(i + s + r, 1.0, atol=1e-12)
        assert np.all(np.diff(r) >= -1e-12)
