import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumornet import netgen
from rumornet.netgen import (
    DegreeDistribution,
    DegreeSequenceError,
    Network,
    build_ba_network,
    build_configuration_network,
    sample_powerlaw_distribution,
    write_edge_list,
)


def two_four_dist():
    return DegreeDistribution([2, 4], [2 / 3, 1 / 3])


def moment(dist, q):
    """<k**q> = sum_k k**q P(k) over the support."""
    return float((dist.power(q) * dist.probs).sum())


class TestDegreeDistribution:
    def test_powerlaw_cutoff_gamma3(self):
        dist = sample_powerlaw_distribution(3.0, 2, 10**5)
        assert dist.k_max == int(np.floor(2 * (10**5) ** 0.5)) == 632
        assert dist.k_min == 2

    def test_degenerate_single_degree_support(self):
        dist = sample_powerlaw_distribution(2.4, 1, 2)
        assert list(dist.support) == [1]
        assert dist.probs[0] == 1.0

    def test_powerlaw_ratio(self):
        dist = sample_powerlaw_distribution(2.4, 2, 10**3)
        expected = 2.0**2.4  # independent evaluation of k**-gamma at k=2 vs k=4
        assert dist.support[0] == 2 and dist.support[2] == 4
        assert dist.probs[0] / dist.probs[2] == pytest.approx(expected, rel=1e-12)

    def test_normalization_exact(self):
        dist = sample_powerlaw_distribution(2.5, 2, 10**4)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            sample_powerlaw_distribution(2.0, 2, 100)
        with pytest.raises(ValueError):
            sample_powerlaw_distribution(3.2, 2, 100)

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            DegreeDistribution([2, 2], [0.5, 0.5])
        with pytest.raises(ValueError):
            DegreeDistribution([0, 1], [0.5, 0.5])
        with pytest.raises(ValueError):
            DegreeDistribution([1, 2], [0.6, 0.6])


class TestMoments:
    def test_first_moment(self):
        assert moment(two_four_dist(), 1) == pytest.approx(8 / 3, rel=1e-14)

    def test_second_moment(self):
        assert moment(two_four_dist(), 2) == pytest.approx(8.0, rel=1e-14)

    def test_zeroth_moment_is_one(self):
        for dist in (two_four_dist(), sample_powerlaw_distribution(2.7, 3, 500)):
            assert moment(dist, 0) == pytest.approx(1.0, rel=1e-14)

    def test_nondecreasing_in_q(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            support = np.sort(rng.choice(np.arange(1, 60), size=6, replace=False))
            weights = rng.random(6)
            dist = DegreeDistribution(support, weights / weights.sum())
            qs = np.linspace(-1.0, 3.0, 17)
            moments = [moment(dist, q) for q in qs]
            assert all(m2 >= m1 - 1e-12 for m1, m2 in zip(moments, moments[1:]))

    def test_power_over_the_support(self):
        assert np.array_equal(two_four_dist().power(3), [8.0, 64.0])


class TestBANetwork:
    def test_edge_count_identity_small(self):
        # every added node contributes exactly m edges on top of the seed clique
        net = build_ba_network(5, 3, 1, np.random.default_rng(0))
        assert net.edge_count == 3 + 2
        check_csr(net)

    def test_mean_degree_near_2m(self):
        n, m0, m = 10**4, 5, 3
        net = build_ba_network(n, m0, m, np.random.default_rng(1))
        expected_edges = m0 * (m0 - 1) // 2 + m * (n - m0)
        assert net.edge_count == expected_edges
        assert net.degrees.sum() == 2 * net.edge_count
        assert net.degrees.mean() == pytest.approx(2 * m, rel=0.02)

    def test_m_equal_m0_allowed(self):
        net = build_ba_network(4, 3, 3, np.random.default_rng(2))
        check_csr(net)
        assert net.edge_count == 3 + 3

    def test_precondition_violations(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            build_ba_network(5, 3, 4, rng)  # m > m0
        with pytest.raises(ValueError):
            build_ba_network(3, 3, 1, rng)  # n not > m0

    def test_heavy_tail_vs_seed(self):
        net = build_ba_network(3000, 4, 2, np.random.default_rng(4))
        assert net.degrees.max() > 20 * net.degrees.min()


def sequential_stub_matching(dist, n_nodes, rng, max_rounds=100):
    """Pair-by-pair stub matching, the reference for ``build_configuration_network``.

    Returns the sorted edge list and the erased pair count.
    """
    degrees = rng.choice(dist.support, size=n_nodes, p=dist.probs)
    while degrees.sum() % 2 == 1:
        degrees[-1] = rng.choice(dist.support, p=dist.probs)
    leftover = np.repeat(np.arange(n_nodes, dtype=np.int64), degrees)
    seen = set()
    for _ in range(max_rounds):
        if leftover.size < 2:
            break
        rng.shuffle(leftover)
        rejected = []
        for i in range(0, leftover.size - 1, 2):
            u, v = int(leftover[i]), int(leftover[i + 1])
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                rejected += (u, v)
            else:
                seen.add(key)
        leftover = np.array(rejected, dtype=np.int64)
    return sorted(seen), leftover.size // 2


class TestConfigurationNetwork:
    def test_point_mass_degree_two(self):
        dist = DegreeDistribution([2], [1.0])
        net = build_configuration_network(dist, 4, np.random.default_rng(0))
        check_csr(net)
        assert np.all(net.degrees == 2)

    def test_unfixable_parity_reported(self):
        dist = DegreeDistribution([1], [1.0])
        with pytest.raises(DegreeSequenceError):
            build_configuration_network(dist, 3, np.random.default_rng(0))

    def test_mean_degree_matches_target(self):
        dist = sample_powerlaw_distribution(2.4, 2, 10**4)
        net = build_configuration_network(dist, 10**4, np.random.default_rng(11))
        check_csr(net)
        assert net.degrees.mean() == pytest.approx(moment(dist, 1.0), rel=0.05)

    def test_total_variation_distance(self):
        dist = sample_powerlaw_distribution(2.4, 2, 10**4)
        net = build_configuration_network(dist, 10**4, np.random.default_rng(12))
        counts = np.bincount(net.degrees, minlength=dist.k_max + 1).astype(float)
        empirical = counts / counts.sum()
        target = np.zeros(dist.k_max + 1)
        target[dist.support] = dist.probs
        tv = 0.5 * np.abs(empirical - target).sum()
        assert tv < 0.05

    def test_heavy_tail_validates_and_reports_erased_edges(self, monkeypatch):
        # a gamma near 2 with k_min = 1 leaves hub stubs that cannot be matched
        dist = sample_powerlaw_distribution(2.1, 1, 2000)
        net = build_configuration_network(dist, 2000, np.random.default_rng(3))
        check_csr(net)
        assert net.erased_edges > 0
        # one round erases more, but the same drawn stubs are all accounted for
        monkeypatch.setattr(netgen, "_MATCHING_ROUNDS", 1)
        once = build_configuration_network(dist, 2000, np.random.default_rng(3))
        check_csr(once)
        assert once.erased_edges > net.erased_edges
        assert once.edge_count + once.erased_edges == net.edge_count + net.erased_edges

    def test_matches_sequential_stub_matching(self):
        for seed, (gamma, k_min, n) in enumerate([(2.4, 2, 3000), (2.1, 1, 1500), (3.0, 3, 400)]):
            dist = sample_powerlaw_distribution(gamma, k_min, n)
            net = build_configuration_network(dist, n, np.random.default_rng(seed))
            edges, erased = sequential_stub_matching(dist, n, np.random.default_rng(seed))
            assert list(net.edges()) == edges
            assert net.erased_edges == erased

    def test_degree_sum_even(self):
        for seed in range(4):
            dist = sample_powerlaw_distribution(2.6, 1, 500)
            net = build_configuration_network(dist, 500, np.random.default_rng(seed))
            assert net.degrees.sum() % 2 == 0
            assert net.degrees.sum() == 2 * net.edge_count


class TestNodeStrength:
    def test_graph_strength_matches_closure(self):
        # per-degree mean of S_i = sum_j w_ij, w_ij = (k_i k_j)**beta, on a
        # large sampled graph against the uncorrelated neighbor-degree closure
        # P(l|k) = l P(l) / <k>, which gives S_k = k**(1+beta) <k**(1+beta)> / <k>
        dist = sample_powerlaw_distribution(2.4, 2, 10**4)
        net = build_configuration_network(dist, 10**4, np.random.default_rng(21))
        beta = -0.5
        deg = net.degrees.astype(float)
        kbeta = deg**beta
        strengths = np.array(
            [deg[i] ** beta * kbeta[net.indices[net.indptr[i]:net.indptr[i + 1]]].sum() for i in range(net.n)]
        )
        for k in (2, 3, 5):
            mask = net.degrees == k
            assert mask.sum() > 50
            closure = k ** (1.0 + beta) * moment(dist, 1.0 + beta) / moment(dist, 1.0)
            assert strengths[mask].mean() == pytest.approx(closure, rel=0.10)


def check_csr(net):
    """The CSR invariants, read from the arrays alone."""
    n, indptr, indices = net.n, net.indptr, net.indices
    assert indptr.size == n + 1 and indptr[0] == 0
    assert indptr[-1] == indices.size == 2 * net.edge_count
    assert np.array_equal(np.diff(indptr), net.degrees)
    assert np.all((0 <= indices) & (indices < n)), "neighbor id out of range"
    rows = [indices[indptr[u]:indptr[u + 1]] for u in range(n)]
    slots = {(u, int(v)) for u, row in enumerate(rows) for v in row}
    assert all(u != v for u, v in slots), "self-loop"
    assert all(np.all(np.diff(row) > 0) for row in rows), "multi-edge or unsorted row"
    assert slots == {(v, u) for u, v in slots}, "asymmetric edge"


def sequential_network_check(n, edges):
    """Edge-by-edge reference for ``Network``'s input check.

    Returns the error message for the first offending edge, or else the
    accepted edges as sorted (u, v) pairs with u < v.
    """
    seen = set()
    for a, b in edges:
        if a == b:
            return f"self-loop at node {a}"
        if not (0 <= a < n and 0 <= b < n):
            return f"edge ({a},{b}) out of range for n={n}"
        if (min(a, b), max(a, b)) in seen:
            return f"duplicate edge ({a},{b})"
        seen.add((min(a, b), max(a, b)))
    return sorted(seen)


@st.composite
def small_edge_lists(draw):
    n = draw(st.integers(1, 7))
    node = st.integers(-2, n + 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=12))


class TestNetworkBasics:
    @settings(max_examples=400, deadline=None)
    @given(small_edge_lists())
    def test_constructor_matches_a_sequential_scan(self, case):
        n, edges = case
        expected = sequential_network_check(n, edges)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as raised:
                Network(n, edges)
            assert str(raised.value) == expected
        else:
            net = Network(n, edges)
            check_csr(net)
            assert list(net.edges()) == expected

    def test_rejects_self_loop_and_duplicate(self):
        with pytest.raises(ValueError):
            Network(3, [(0, 0)])
        with pytest.raises(ValueError):
            Network(3, [(0, 1), (1, 0)])

    def test_constructor_errors_name_the_first_offender(self):
        with pytest.raises(ValueError, match=r"^self-loop at node 2$"):
            Network(3, [(0, 1), (2, 2), (1, 0)])
        with pytest.raises(ValueError, match=r"^edge \(1,5\) out of range for n=3$"):
            Network(3, [(0, 1), (1, 5), (5, 1)])
        with pytest.raises(ValueError, match=r"^edge \(-1,0\) out of range for n=3$"):
            Network(3, [(-1, 0)])
        with pytest.raises(ValueError, match=r"^duplicate edge \(2,1\)$"):
            Network(3, [(1, 2), (0, 1), (2, 1), (0, 0)])

    def test_rejects_non_integer_ids(self):
        # a float id is refused, not truncated to the edge (0, 1)
        with pytest.raises(ValueError, match=r"^node ids must be integers, got float64$"):
            Network(3, [(0.5, 1.9)])
        with pytest.raises(ValueError, match=r"^node ids must be integers, got float32$"):
            Network(3, np.array([[0.0, 1.0]], dtype=np.float32))
        assert Network(3, []).edge_count == 0
        assert list(Network(3, np.array([[2, 0], [1, 2]], dtype=np.int32)).edges()) == [(0, 2), (1, 2)]

    def test_csr_layout(self):
        net = Network(4, [(2, 0), (1, 0), (3, 1)])
        assert net.indptr.tolist() == [0, 2, 4, 5, 6]
        assert net.indices.tolist() == [1, 2, 0, 3, 0, 1]
        assert list(net.edges()) == [(0, 1), (0, 2), (1, 3)]
        assert Network(3, []).indptr.tolist() == [0, 0, 0, 0]
        check_csr(build_ba_network(300, 4, 2, np.random.default_rng(6)))
        dist = sample_powerlaw_distribution(2.2, 1, 2000)
        check_csr(build_configuration_network(dist, 2000, np.random.default_rng(7)))

    def test_check_csr_detects_broken_csr(self):
        net = Network(4, [(0, 1), (1, 2), (2, 3)])
        check_csr(net)
        net.indices = np.array([1, 0, 3, 1, 3, 2])  # row 1 names 3, row 3 does not name 1
        with pytest.raises(AssertionError, match="asymmetric edge"):
            check_csr(net)
        net.indices = np.array([1, 1, 2, 1, 3, 2])  # row 1 names itself
        with pytest.raises(AssertionError, match="self-loop"):
            check_csr(net)
        net.indices = np.array([1, 0, 2, 1, 1, 2])  # row 2 names 1 twice
        with pytest.raises(AssertionError, match="multi-edge or unsorted row"):
            check_csr(net)
        net.indices = np.array([1, 0, 2, 1, 3, 4])  # row 3 names node 4 of 0..3
        with pytest.raises(AssertionError, match="neighbor id out of range"):
            check_csr(net)

    def test_edge_list_roundtrip(self, tmp_path):
        net = build_ba_network(50, 4, 2, np.random.default_rng(8))
        path = tmp_path / "net.edgelist"
        write_edge_list(net, path)
        first, *lines = path.read_text().splitlines()
        assert first == "# nodes=50"
        back = Network(50, [tuple(map(int, line.split())) for line in lines])
        assert back.n == net.n
        assert sorted(back.edges()) == sorted(net.edges())
