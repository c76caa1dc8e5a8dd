import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumornet import montecarlo
from rumornet.expcli.scenario import parse_scenario
from rumornet.inoculation import make_random_plan, make_targeted_plan
from rumornet.meanfield import ModelParams, final_rumor_size
from rumornet.montecarlo import _Kernel, ensemble, run
from rumornet.netgen import Network, build_ba_network, build_configuration_network, sample_powerlaw_distribution


def complete_graph(n):
    return Network(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# a node's status as the tests read it from the ignorant mask and the
# spreader list handed to a step; REMOVED is neither, a stifler or an
# inoculated node
IGNORANT, SPREADER, STIFLER, REMOVED = "ignorant", "spreader", "stifler", "removed"


@contextmanager
def recorded_steps():
    """While active, ``_Kernel.step`` also appends to the yielded list, per
    step, copies of the ignorant mask and the spreaders it was handed, the
    ids that stifle and the ids it informs."""
    steps = []
    real = montecarlo._Kernel.step

    def step(kernel, ignorant, spreaders, gen):
        stifle, informed = real(kernel, ignorant, spreaders, gen)
        steps.append((ignorant.copy(), spreaders.copy(), spreaders[stifle], informed))
        return stifle, informed

    with mock.patch.object(montecarlo._Kernel, "step", step):
        yield steps


def status_of(node, ignorant, spreaders):
    """The status of ``node`` in a step handed ``ignorant`` and ``spreaders``."""
    if node in spreaders:
        return SPREADER
    return IGNORANT if ignorant[node] else REMOVED


def moves(steps):
    """The status moves (step, node, old, new) of a recorded run: the seeds,
    the spreaders handed to the first step, at step 0, then each step's
    stiflers and informed nodes, ``old`` read from what that step was
    handed."""
    events = [(0, int(node), IGNORANT, SPREADER) for node in steps[0][1]]
    for index, (ignorant, spreaders, stifled, informed) in enumerate(steps, 1):
        events += [(index, int(node), status_of(node, ignorant, spreaders), STIFLER) for node in stifled]
        events += [(index, int(node), status_of(node, ignorant, spreaders), SPREADER) for node in informed]
    return events


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
    ignorant = np.ones(net.n, dtype=bool)
    ignorant[hubs] = False
    gen = np.random.default_rng(seed)
    return np.concatenate(
        [np.bincount(kernel.step(ignorant, hubs, gen)[1] // size, minlength=stars) for _ in range(steps)]
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
        # a scenario's seeds start the run with the fraction seeds / n spreading
        path = tmp_path / "fraction.cfg"
        path.write_text("[network]\nn = 50\n\n[model]\nlambda = 0.0\nseeds = 5\n")
        scenario = parse_scenario(path)
        assert scenario.seeds == 5
        trace = run(complete_graph(50), ModelParams(lam=0.0, alpha=1.0), seeds=scenario.seeds, rng=7)
        assert trace.final_r == pytest.approx(scenario.seeds / scenario.n_nodes)

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

    def test_time_grid_is_step_times(self):
        # a run that never dies out takes round(t_max / dt) steps, the
        # k-th sample at k * dt
        trace = run(complete_graph(10), ModelParams(lam=1.0, alpha=1.0, sigma=1e-9), seeds=1,
                    dt=0.1, t_max=200.0, rng=12)
        assert trace.spreader[-1] > 0.0
        assert np.array_equal(trace.times, np.arange(round(200.0 / 0.1) + 1) * 0.1)

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
        with recorded_steps() as steps:
            run(net, ModelParams(lam=3.0, alpha=1.0), seeds=2, rng=11)
        events = moves(steps)
        allowed = {(IGNORANT, SPREADER), (SPREADER, STIFLER)}
        assert len(events) > 2
        per_node: dict[int, list] = {}
        for step, node, old, new in events:
            assert (old, new) in allowed
            per_node.setdefault(node, []).append((step, old, new))
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
        ignorant = np.ones(stars.n, dtype=bool)
        ignorant[hubs] = False
        gen = np.random.default_rng(4)
        hits = np.zeros(stars.n)
        counts = np.empty((trials, len(sizes)))
        for j in range(trials):
            _, informed = kernel.step(ignorant, hubs, gen)
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
        assert not ignorant[hubs].any() and np.count_nonzero(~ignorant) == len(sizes)  # left unchanged


def hubs_with_leaves(leaf_degrees, copies):
    """``copies`` disjoint stars: a hub whose leaves have ``leaf_degrees``.

    A leaf of degree d gets d - 1 pendant nodes of its own.  Returns the
    network, the hub ids and a (copies, leaves) array of leaf ids.
    """
    edges, hubs, leaves = [], [], []
    node = 0
    for _ in range(copies):
        hub, node = node, node + 1
        hubs.append(hub)
        own = []
        for d in leaf_degrees:
            leaf, node = node, node + 1
            own.append(leaf)
            edges.append((hub, leaf))
            for _ in range(d - 1):
                edges.append((leaf, node))
                node += 1
        leaves.append(own)
    return Network(node, edges), np.array(hubs), np.array(leaves)


def transmission_probs(leaf_degrees, params, dt):
    """min(1, p_ij) from a hub to each of its leaves, straight from the model."""
    k_i = len(leaf_degrees)
    kbeta = np.asarray(leaf_degrees, dtype=float) ** params.beta
    return np.minimum(1.0, params.lam * k_i * dt * kbeta / kbeta.sum())


def informed_leaves(leaf_degrees, params, copies, steps, seed, stifled=None, dt=0.1):
    """Per step and star, which leaves ``_Kernel.step`` informs, as a bool
    array (steps, copies, leaves); leaf ``stifled`` of every star is no
    ignorant."""
    net, hubs, leaves = hubs_with_leaves(leaf_degrees, copies)
    kernel = _Kernel(net, params, dt)
    ignorant = np.ones(net.n, dtype=bool)
    ignorant[hubs] = False
    if stifled is not None:
        ignorant[leaves[:, stifled]] = False
    gen = np.random.default_rng(seed)
    out = np.empty((steps, *leaves.shape), dtype=bool)
    for j in range(steps):
        informed = kernel.step(ignorant, hubs, gen)[1]
        out[j] = np.isin(leaves, informed)
        assert np.isin(informed, leaves).all()
    return out


class TestThinnedStep:
    """The thinned step samples the law of the model: a uniform c-subset of
    the row, each ignorant in it informed with probability min(1, p_ij)."""

    def test_leaf_frequencies_at_unequal_tie_strengths(self):
        degrees = (1, 2, 3, 5, 8, 13)
        params = ModelParams(lam=0.9, alpha=0.7, beta=-0.6)
        hits = informed_leaves(degrees, params, copies=500, steps=200, seed=21, stifled=2)
        trials = hits.shape[0] * hits.shape[1]
        p = transmission_probs(degrees, params, 0.1)
        assert 0.0 < p.min() and p.max() < 1.0
        expected = len(degrees) ** params.alpha / len(degrees) * p
        expected[2] = 0.0
        freq = hits.mean(axis=(0, 1))
        se = np.sqrt(np.maximum(expected * (1 - expected), 1e-12) / trials)
        assert np.all(np.abs(freq - expected) <= 5 * se)

    def test_pair_frequency_is_without_replacement(self):
        degrees = (1, 2, 3, 4, 5, 6, 7, 8, 9)
        params = ModelParams(lam=5.0, alpha=0.5, beta=0.8)  # c = 9**0.5 = 3 exactly
        hits = informed_leaves(degrees, params, copies=500, steps=200, seed=22)
        trials = hits.shape[0] * hits.shape[1]
        p = transmission_probs(degrees, params, 0.1)
        assert p.max() < 1.0
        for a, b in ((0, 8), (7, 8), (3, 5)):
            expected = 3 * 2 / (9 * 8) * p[a] * p[b]
            freq = (hits[..., a] & hits[..., b]).mean()
            assert abs(freq - expected) <= 5 * math.sqrt(expected * (1 - expected) / trials)

    @pytest.mark.parametrize("k, alpha", [(4, 0.5), (16, 0.75)])
    def test_half_the_row_at_certain_transmission(self, k, alpha):
        # pi = 1 and c = k / 2: positions repeat often, and those rows are
        # sampled again by shuffling
        c = k // 2
        assert k**alpha == c
        params = ModelParams(lam=20.0, alpha=alpha)
        hits = informed_leaves((1,) * k, params, copies=200, steps=100, seed=23)
        assert np.all(hits.sum(axis=2) == c)
        trials = hits.shape[0] * hits.shape[1]
        se = math.sqrt(0.25 / trials)
        assert np.all(np.abs(hits.mean(axis=(0, 1)) - c / k) <= 5 * se)


class _TopUniforms:
    """A generator whose uniforms are all the largest, 1 - 2**-53."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))

    def __getattr__(self, name):
        return getattr(self.gen, name)


class TestKernelEdges:
    def test_row_maxima_skip_empty_rows(self):
        # isolated nodes first, in a run in the middle and in a run last,
        # where consecutive indptr entries are equal; the last nonempty row
        # has its largest k**beta in its last slot
        net = Network(12, [(1, 2), (1, 3), (2, 3), (3, 4), (5, 2), (5, 3), (5, 4), (9, 5), (9, 8)])
        params = ModelParams(lam=0.7, alpha=0.8, beta=-0.5)
        kernel = _Kernel(net, params, 0.1)
        for i in range(net.n):
            row = net.indices[net.indptr[i]:net.indptr[i + 1]]
            if not row.size:
                assert kernel.pi[i] == 0.0
                continue
            kbeta = net.degrees[row].astype(float) ** params.beta
            p = params.lam * row.size * 0.1 * kbeta / kbeta.sum()
            assert kernel.pi[i] == pytest.approx(min(1.0, p.max()), rel=1e-12)

    def test_isolated_seed_informs_nobody(self):
        net = Network(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])  # node 4 is isolated
        params = ModelParams(lam=50.0, alpha=1.0)
        seeded = 0
        for rng in range(40):
            with recorded_steps() as steps:
                trace = run(net, params, seeds=1, rng=rng)
            events = moves(steps)
            if events[0][1] == 4:
                seeded += 1
                assert trace.final_r == pytest.approx(1 / 5)
                assert [(old, new) for _, _, old, new in events] == [(IGNORANT, SPREADER), (SPREADER, STIFLER)]
        assert seeded

    def test_position_draw_stays_below_degree(self):
        # with every uniform at its largest, each hub draws one contact, at
        # position floor(u * k) = k - 1: its last leaf
        sizes = list(range(1, 70)) + [127, 128, 129, 1023, 1024, 1025]
        edges, hubs, last = [], [], []
        node = 0
        for k in sizes:
            hubs.append(node)
            edges += [(node, node + 1 + j) for j in range(k)]
            last.append(node + k)
            node += k + 1
        net = Network(node, edges)
        kernel = _Kernel(net, ModelParams(lam=20.0, alpha=0.01), 0.1)
        ignorant = np.ones(net.n, dtype=bool)
        ignorant[hubs] = False
        _, informed = kernel.step(ignorant, np.array(hubs), _TopUniforms(24))
        assert informed.tolist() == last


@st.composite
def slot_laws(draw):
    """Edges of a random graph on at most 8 linked nodes and 1 to 3 isolated
    ones, model parameters and a dt at which lam * dt reaches 10."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    dt = draw(st.sampled_from([0.01, 0.1, 1.0]))
    lam = draw(st.floats(0.01, 10.0)) / dt
    params = ModelParams(lam=lam, alpha=draw(st.floats(0.05, 1.0)), beta=draw(st.floats(-3.0, 3.0)))
    return n + draw(st.integers(1, 3)), [pair for pair, kept in zip(pairs, keep) if kept], params, dt


class TestSlotChance:
    @settings(max_examples=100, deadline=None)
    @given(slot_laws())
    @example((5, [(0, 1), (1, 2), (1, 3)], ModelParams(lam=30.0, alpha=1.0, beta=0.5), 0.1))
    def test_chance_is_the_law_of_every_slot(self, case):
        # p_ij = min(1, lam * k_i * dt * k_j**beta / sum_{l in N(i)} k_l**beta),
        # edge by edge, and pi_i the largest of row i
        n, edges, params, dt = case
        net = Network(n, edges)
        kernel = _Kernel(net, params, dt)
        neighbors = [[] for _ in range(n)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        assert kernel.chance.size == 2 * len(edges)
        for i, j in edges + [(v, u) for u, v in edges]:
            strength = sum(len(neighbors[l]) ** params.beta for l in neighbors[i])
            p = min(1.0, params.lam * len(neighbors[i]) * dt * len(neighbors[j]) ** params.beta / strength)
            slot = net.indptr[i] + np.flatnonzero(net.indices[net.indptr[i]:net.indptr[i + 1]] == j)
            assert kernel.chance[slot] == pytest.approx([p], rel=1e-12)
        for i in range(n):
            row = kernel.chance[net.indptr[i]:net.indptr[i + 1]]
            assert kernel.pi[i] == (row.max() if row.size else 0.0)

    def test_overflowing_strength_is_refused(self):
        # k**200 overflows from k = 35 on, so a hub's strength S_i is inf and
        # its row's chances would be NaN; the ensemble would then inform the
        # seeds alone
        dist = sample_powerlaw_distribution(2.4, 2, 2000)
        net = build_configuration_network(dist, 2000, np.random.default_rng(1))
        params = ModelParams(lam=0.5, alpha=0.8, beta=200.0)
        with pytest.raises(ValueError, match=r"^beta = 200\.0 "):
            _Kernel(net, params, 0.1)
        with pytest.raises(ValueError, match=r"^beta = 200\.0 "):
            ensemble(net, params, runs=2, seeds=3, master_seed=4)

    def test_underflowed_target_keeps_chance_zero_in_an_overflowed_row(self):
        # k**beta underflows to 0 at every degree above 1 and the rows' factor
        # lam * k_i * dt / S_i overflows to inf; inf * 0 must not make a NaN
        # chance, and no slot into such a node may transmit
        net = build_ba_network(300, 2, 1, np.random.default_rng(1))
        params = ModelParams(lam=1e308, alpha=1.0, beta=-2000.0)
        with np.errstate(over="ignore"):
            kernel = _Kernel(net, params, 0.1)
            summary = ensemble(net, params, runs=5, seeds=3, master_seed=4)
        assert not np.isnan(kernel.chance).any() and not np.isnan(kernel.pi).any()
        underflowed = net.degrees[net.indices].astype(float) ** params.beta == 0.0
        assert underflowed.any() and np.all(kernel.chance[underflowed] == 0.0)
        assert np.all(kernel.chance[~underflowed] == 1.0)
        assert summary.finals.tolist() == [0.02, 0.013333333333333334, 0.013333333333333334, 0.01, 0.01]


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
    """``run``, its status moves (``moves``) and the node ids ``apply_plan``
    returned to it."""
    picked = []
    real = montecarlo.apply_plan

    def spy(*args):
        picked.append(real(*args))
        return picked[-1]

    with mock.patch.object(montecarlo, "apply_plan", spy), recorded_steps() as steps:
        trace = run(network, params, plan=plan, seeds=seeds, t_max=20.0, rng=rng)
    return trace, moves(steps), picked[0]


@st.composite
def counted_runs(draw):
    """``small_runs``, on some draws with a targeted plan of the same g."""
    network, params, plan, seeds, rng = draw(small_runs())
    if plan is not None and network.indptr[-1] and draw(st.booleans()):
        plan = make_targeted_plan(network.empirical_distribution(), plan.g)
    return network, params, plan, seeds, rng


class TestRunProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_runs())
    def test_fractions_conserved_and_stiflers_monotone(self, case):
        network, params, plan, seeds, rng = case
        trace, _, _ = run_recording_plan(network, params, plan, seeds, rng)
        total = trace.ignorant + trace.spreader + trace.stifler + trace.inoculated_fraction
        assert np.allclose(total, 1.0, rtol=0.0, atol=1e-12)
        assert np.all(np.diff(trace.stifler) >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(small_runs())
    def test_inoculated_nodes_never_in_events(self, case):
        network, params, plan, seeds, rng = case
        trace, events, picked = run_recording_plan(network, params, plan, seeds, rng)
        seed_ids = [node for step, node, _, _ in events if step == 0]
        inoculated = np.setdiff1d(picked, seed_ids)
        assert inoculated.size == round(trace.inoculated_fraction * network.n)
        assert not set(inoculated.tolist()) & {node for _, node, _, _ in events}

    @settings(max_examples=40, deadline=None)
    @given(small_runs())
    def test_same_seed_same_trace(self, case):
        network, params, plan, seeds, rng = case
        a, a_events, _ = run_recording_plan(network, params, plan, seeds, rng)
        b, b_events, _ = run_recording_plan(network, params, plan, seeds, rng)
        for field in ("times", "ignorant", "spreader", "stifler"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a_events == b_events


    @settings(max_examples=60, deadline=None)
    @given(counted_runs())
    def test_counts_follow_the_recorded_steps(self, case):
        # each sample's counts are those the steps made, exactly, and each
        # step is handed the first mask less every node informed before it
        network, params, plan, seeds, rng = case
        with recorded_steps() as steps:
            trace = run(network, params, plan=plan, seeds=seeds, t_max=20.0, rng=rng)
        n = network.n
        assert len(steps) == trace.times.size - 1
        assert round(trace.spreader[0] * n) == steps[0][1].size == seeds
        assert trace.stifler[0] == 0.0
        first = steps[0][0]
        informed_before = np.zeros(n, dtype=bool)
        stiflers = 0
        for index, (ignorant, spreaders, stifled, informed) in enumerate(steps, 1):
            assert np.array_equal(ignorant, first & ~informed_before)
            stiflers += stifled.size
            assert round(trace.spreader[index] * n) == spreaders.size - stifled.size + informed.size
            assert round(trace.stifler[index] * n) == stiflers
            informed_before[informed] = True
        assert round(trace.final_r * n) == seeds + np.count_nonzero(informed_before)


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
        summary = ensemble(powerlaw_net, params, runs=1, seeds=5, master_seed=42)
        trace = run(powerlaw_net, params, seeds=5, rng=montecarlo._run_seed(42, 0))
        assert summary.mean_final_r == trace.final_r == summary.finals[0]
        assert summary.std_final_r == 0.0
        # the mean of one run is that run's curve
        times, i, s, r = summary.mean_curve
        assert np.array_equal(times, trace.times)
        assert np.array_equal(i, trace.ignorant)
        assert np.array_equal(s, trace.spreader)
        assert np.array_equal(r, trace.stifler)

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
        with recorded_steps() as steps:
            trace = run(powerlaw_net, params, plan=plan, seeds=5, rng=55)
        # no move touches an inoculated node (one neither ignorant nor a
        # seed at the first step), every step is handed them still neither
        # ignorant nor spreading, and the fractions stay consistent
        inoculated = np.setdiff1d(np.flatnonzero(~steps[0][0]), steps[0][1])
        assert inoculated.size == round(trace.inoculated_fraction * powerlaw_net.n)
        assert not set(inoculated.tolist()) & {node for _, node, _, _ in moves(steps)}
        assert all(not ignorant[inoculated].any() and not np.isin(inoculated, spreaders).any()
                   for ignorant, spreaders, _, _ in steps)
        total = trace.ignorant + trace.spreader + trace.stifler + trace.inoculated_fraction
        assert np.allclose(total, 1.0, atol=1e-12)
        assert trace.inoculated_fraction > 0.15

    def test_one_kernel_per_ensemble(self, powerlaw_net):
        # ``ensemble`` builds the kernel once and passes it to every ``run``,
        # which it looks up as a module global; the results are those of
        # runs that build their own
        built, ran = [], []
        real_kernel, real_run = montecarlo._Kernel, montecarlo.run

        def kernel(*args):
            built.append(args)
            return real_kernel(*args)

        def spy(network, *args, **kwargs):
            ran.append(network)
            return real_run(network, *args, **kwargs)

        params = ModelParams(lam=0.8, alpha=0.5, beta=-0.5)
        with mock.patch.object(montecarlo, "_Kernel", kernel), mock.patch.object(montecarlo, "run", spy):
            summary = ensemble(powerlaw_net, params, runs=3, seeds=5, master_seed=9)
        assert len(built) == 1 and ran == [powerlaw_net] * 3
        alone = [run(powerlaw_net, params, seeds=5, rng=montecarlo._run_seed(9, idx)).final_r for idx in range(3)]
        assert summary.finals.tolist() == alone


class TestExports:
    def test_mean_trace_padding(self):
        net = complete_graph(12)
        params = ModelParams(lam=2.0, alpha=1.0)
        summary = ensemble(net, params, runs=6, seeds=1, master_seed=2)
        traces = [run(net, params, seeds=1, rng=montecarlo._run_seed(2, idx)) for idx in range(6)]
        assert [trace.final_r for trace in traces] == summary.finals.tolist()
        # the runs end at different steps, so the shorter ones are padded
        assert len({trace.times.size for trace in traces}) > 1
        times, i, s, r = summary.mean_curve
        assert times.size == max(t.times.size for t in traces)
        assert np.allclose(i + s + r, 1.0, atol=1e-12)
        assert np.all(np.diff(r) >= -1e-12)
        # every run has ended, so the padded mean ends at the mean final size
        assert r[-1] == pytest.approx(summary.mean_final_r, rel=1e-12)
