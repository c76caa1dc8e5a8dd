import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumornet.inoculation import make_random_plan, make_targeted_plan
from rumornet.meanfield import (
    DegreeClassState,
    IntegrationError,
    ModelParams,
    closed_form_ignorant,
    derivatives_classical,
    derivatives_modified,
    final_rumor_size,
    integrate,
    psi_fixed_point,
    uniform_seed_state,
)
from rumornet.netgen import DegreeDistribution, sample_powerlaw_distribution
from rumornet.thresholds import threshold_modified

POINT_MASS_1 = DegreeDistribution([1], [1.0])
TWO_FOUR = DegreeDistribution([2, 4], [2 / 3, 1 / 3])


def bisect_root(f, lo, hi, tol=1e-13):
    """Plain bisection, kept independent of the fixed-point solver it checks."""
    assert f(lo) * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestModelParams:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, alpha=1.5)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(lam=-0.1, alpha=1.0)
        with pytest.raises(ValueError):
            ModelParams(lam=0.1, alpha=1.0, sigma=0.0)

    def test_tie_view(self):
        params = ModelParams(lam=1.0, alpha=0.5, beta=-0.5, b=2.0)
        assert params.tie.beta == -0.5
        assert params.tie.b == 2.0


class TestDegreeClassState:
    def test_sum_invariant_enforced(self):
        with pytest.raises(ValueError):
            DegreeClassState(rho_i=np.ones(3), rho_s=np.zeros(3), rho_r=np.ones(3))

    def test_component_range_enforced(self):
        with pytest.raises(ValueError):
            DegreeClassState(rho_i=np.array([1.5]), rho_s=np.array([-0.5]), rho_r=np.array([0.0]))

    def test_all_recovered_is_legal(self):
        DegreeClassState(rho_i=np.zeros(2), rho_s=np.zeros(2), rho_r=np.ones(2))


class TestDerivatives:
    def test_absorbing_state(self):
        state = DegreeClassState(rho_i=np.array([0.4, 0.7]), rho_s=np.zeros(2), rho_r=np.array([0.6, 0.3]))
        params = ModelParams(lam=1.2, alpha=0.5, beta=-0.5)
        for d in derivatives_modified(state, TWO_FOUR, params):
            assert np.all(d == 0.0)

    def test_lambda_zero_decouples(self):
        s = np.array([0.2, 0.05])
        state = DegreeClassState(rho_i=1.0 - s, rho_s=s, rho_r=np.zeros(2))
        params = ModelParams(lam=0.0, alpha=1.0, sigma=2.0)
        d_i, d_s, d_r = derivatives_modified(state, TWO_FOUR, params)
        assert np.all(d_i == 0.0)
        assert np.allclose(d_r, 2.0 * s)
        assert np.allclose(d_s, -2.0 * s)

    def test_full_inoculation_freezes_ignorants(self):
        s = np.array([0.3, 0.1])
        state = DegreeClassState(rho_i=1.0 - s, rho_s=s, rho_r=np.zeros(2))
        params = ModelParams(lam=2.0, alpha=1.0)
        d_i, _, _ = derivatives_modified(state, TWO_FOUR, params, make_random_plan(1.0))
        assert np.all(d_i == 0.0)

    def test_classical_equals_modified_at_reduction_point(self):
        rng = np.random.default_rng(0)
        params = ModelParams(lam=0.7, alpha=1.0, beta=0.0, sigma=1.0, delta=0.0)
        for _ in range(20):
            s = rng.random(2) * 0.3
            r = rng.random(2) * 0.3
            state = DegreeClassState(rho_i=1.0 - s - r, rho_s=s, rho_r=r)
            dm = derivatives_modified(state, TWO_FOUR, params)
            dc = derivatives_classical(state, TWO_FOUR, params)
            for a, b in zip(dm, dc):
                assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_classical_contact_stifling_direction(self):
        s = np.array([0.2, 0.2])
        r = np.array([0.1, 0.1])
        state = DegreeClassState(rho_i=1.0 - s - r, rho_s=s, rho_r=r)
        base = derivatives_classical(state, TWO_FOUR, ModelParams(lam=0.5, alpha=1.0, delta=0.0))
        with_delta = derivatives_classical(state, TWO_FOUR, ModelParams(lam=0.5, alpha=1.0, delta=1.0))
        assert np.all(with_delta[2] > base[2])  # stiflers accumulate faster


class TestIntegrate:
    def test_no_spreaders_constant(self):
        initial = uniform_seed_state(TWO_FOUR, 0.0)
        traj = integrate(initial, TWO_FOUR, ModelParams(lam=1.0, alpha=1.0), t_end=5.0, dt=0.01)
        assert np.allclose(traj.rho_i, 1.0)
        assert np.all(traj.r == 0.0)

    def test_pure_decay_matches_exponential(self):
        s0, sigma = 0.2, 1.3
        dist = DegreeDistribution([3], [1.0])
        initial = uniform_seed_state(dist, s0)
        traj = integrate(initial, dist, ModelParams(lam=0.0, alpha=1.0, sigma=sigma), t_end=10.0, dt=0.01)
        expected = s0 * np.exp(-sigma * traj.times)
        assert np.max(np.abs(traj.s - expected)) < 1e-6

    def test_large_network_matches_fixed_point(self):
        dist = sample_powerlaw_distribution(2.4, 2, 10**5)
        params = ModelParams(lam=0.8, alpha=1.0, beta=0.0)
        initial = uniform_seed_state(dist, 1e-5)
        traj = integrate(initial, dist, params, t_end=25.0, dt=1e-3, sample_every=500)
        assert traj.s[-1] < 1e-6
        r_direct = final_rumor_size(dist, params)
        assert abs(traj.final_r - r_direct) < 1e-3
        # the rise is S-shaped: maximum slope strictly inside the time window
        increments = np.diff(traj.r)
        peak = int(np.argmax(increments))
        assert 0 < peak < increments.size - 1

    def test_conservation_and_monotonicity(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        params = ModelParams(lam=0.9, alpha=0.5, beta=-0.5)
        traj = integrate(uniform_seed_state(dist, 1e-3), dist, params, t_end=30.0, dt=0.01)
        total = traj.rho_i + traj.rho_s + traj.rho_r
        assert np.max(np.abs(total - 1.0)) < 1e-9
        assert np.all(np.diff(traj.r) >= -1e-12)
        assert np.all(np.diff(traj.psi) >= -1e-12)
        for row in (traj.rho_r, traj.rho_i):
            diffs = np.diff(row, axis=0)
            assert np.all(diffs >= -1e-12) if row is traj.rho_r else np.all(diffs <= 1e-12)

    def test_closed_form_ignorant_tracks_integration(self):
        dist = TWO_FOUR
        params = ModelParams(lam=1.5, alpha=0.7, beta=0.3)
        traj = integrate(uniform_seed_state(dist, 1e-5), dist, params, t_end=25.0, dt=1e-3, sample_every=100)
        for idx in range(0, traj.times.size, 7):
            for c, k in enumerate(dist.support):
                predicted = closed_form_ignorant(int(k), traj.psi[idx], dist, params)
                assert abs(traj.rho_i[idx, c] - predicted) < 1e-4

    def test_sigma_normalized_psi_identity(self):
        dist = TWO_FOUR
        params = ModelParams(lam=1.2, alpha=0.6, beta=0.0, sigma=2.5)
        traj = integrate(uniform_seed_state(dist, 1e-2), dist, params, t_end=15.0, dt=1e-3, sample_every=50)
        kalpha_p = dist.support.astype(float) ** params.alpha * dist.probs
        recovered_weight = traj.rho_r @ kalpha_p / params.sigma
        assert np.max(np.abs(traj.psi - recovered_weight)) < 1e-4

    def test_blowup_reported(self):
        dist = TWO_FOUR
        params = ModelParams(lam=80.0, alpha=1.0, beta=2.0)
        with pytest.raises(IntegrationError):
            integrate(uniform_seed_state(dist, 0.5), dist, params, t_end=10.0, dt=0.9)

    def test_classical_model_switch(self):
        params = ModelParams(lam=0.7, alpha=1.0, beta=0.0, delta=0.5)
        traj = integrate(uniform_seed_state(TWO_FOUR, 1e-2), TWO_FOUR, params,
                         t_end=30.0, dt=0.01, model="classical")
        assert traj.final_r > 0.1
        with pytest.raises(ValueError):
            integrate(uniform_seed_state(TWO_FOUR, 1e-2), TWO_FOUR, params,
                      model="classical", plan=make_random_plan(0.5))

    def test_csv_export(self, tmp_path):
        traj = integrate(uniform_seed_state(TWO_FOUR, 1e-2), TWO_FOUR,
                         ModelParams(lam=1.0, alpha=1.0), t_end=2.0, dt=0.01, sample_every=10)
        agg = tmp_path / "traj.csv"
        per_class = tmp_path / "classes.csv"
        traj.to_csv(agg, per_class)
        assert agg.read_text().splitlines()[0] == "t,R,S,I,Phi,Psi"
        assert per_class.read_text().splitlines()[0] == "t,k,rho_i,rho_s,rho_r"


class TestPsiFixedPoint:
    def test_lambda_zero(self):
        assert psi_fixed_point(TWO_FOUR, ModelParams(lam=0.0, alpha=1.0)) == 0.0

    def test_point_mass_oracle(self):
        # x = 1 - exp(-2x) has its positive root at 0.79681213...
        expected = bisect_root(lambda x: x - 1.0 + np.exp(-2.0 * x), 1e-6, 2.0)
        params = ModelParams(lam=2.0, alpha=1.0, beta=0.0)
        assert psi_fixed_point(POINT_MASS_1, params) == pytest.approx(expected, abs=1e-9)

    def test_zero_below_threshold(self):
        lam_c = threshold_modified(TWO_FOUR, 0.5, -0.5)
        params = ModelParams(lam=0.999 * lam_c, alpha=0.5, beta=-0.5)
        assert psi_fixed_point(TWO_FOUR, params) == 0.0

    def test_sigma_rescaling(self):
        # doubling sigma at doubled lam leaves psi* of the rescaled clock fixed
        base = psi_fixed_point(TWO_FOUR, ModelParams(lam=1.0, alpha=0.8, beta=0.2, sigma=1.0))
        scaled = psi_fixed_point(TWO_FOUR, ModelParams(lam=2.0, alpha=0.8, beta=0.2, sigma=2.0))
        assert scaled == pytest.approx(base / 2.0, rel=1e-8)

    def test_inoculated_threshold_boundary(self):
        lam_c = threshold_modified(TWO_FOUR, 1.0, 0.0)
        plan = make_random_plan(0.5)
        below = ModelParams(lam=1.9 * lam_c, alpha=1.0)
        above = ModelParams(lam=2.1 * lam_c, alpha=1.0)
        assert psi_fixed_point(TWO_FOUR, below, plan) == 0.0
        assert psi_fixed_point(TWO_FOUR, above, plan) > 0.0

    def test_matches_integrated_psi_with_inoculation(self):
        dist = sample_powerlaw_distribution(2.4, 2, 500)
        params = ModelParams(lam=1.5, alpha=0.8, beta=-0.3)
        plan = make_targeted_plan(dist, 0.1)
        traj = integrate(uniform_seed_state(dist, 1e-4), dist, params, plan,
                         t_end=60.0, dt=5e-3, sample_every=100)
        assert traj.s[-1] < 1e-8
        assert abs(psi_fixed_point(dist, params, plan) - traj.psi[-1]) < 1e-3


class TestPsiSolver:
    """Accuracy, underflow and logging of the Newton solver behind psi_fixed_point."""

    def test_near_threshold_point_matches_bisection(self):
        # point 411 of the phase_diagram benchmark grid: lam=0.5, alpha=0.5,
        # beta=0, targeted g=0.01 on the n=10^5 power law, just above threshold
        dist = sample_powerlaw_distribution(2.4, 2, 10**5)
        params = ModelParams(lam=0.5, alpha=0.5, beta=0.0)
        plan = make_targeted_plan(dist, 0.01)
        k = dist.support.astype(np.float64)
        weights = k**0.5 * dist.probs
        rates = 0.5 * (1.0 - plan.profile(dist)) * k / dist.moment(1.0)
        expected = bisect_root(lambda x: x + float(weights @ np.expm1(-rates * x)), 1e-6, weights.sum())
        assert 0.0 < expected < 0.1
        assert psi_fixed_point(dist, params, plan) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_exponents_below_underflow_stay_finite_and_exact(self):
        # the degree-5000 class sees exponents near -5000 at the root; the
        # solver must neither underflow nor lose the root
        dist = DegreeDistribution([2, 5000], [0.9, 0.1])
        params = ModelParams(lam=1.0, alpha=1.0)
        mean_k = dist.moment(1.0)

        def ignorant(x):
            return 0.9 * math.exp(-2.0 * x / mean_k) + 0.1 * math.exp(-5000.0 * x / mean_k)

        expected = bisect_root(lambda x: x - mean_k + 2.0 * 0.9 * math.exp(-2.0 * x / mean_k)
                               + 5000.0 * 0.1 * math.exp(-5000.0 * x / mean_k), 1.0, mean_k, tol=1e-10)
        with np.errstate(under="raise"):
            psi_star = psi_fixed_point(dist, params)
            r = final_rumor_size(dist, params)
        assert 5000.0 * expected / mean_k > 745.0
        assert math.isfinite(psi_star)
        assert psi_star == pytest.approx(expected, rel=1e-12)
        assert r == pytest.approx(1.0 - ignorant(expected), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        degrees=st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True),
        raw_probs=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
        alpha=st.floats(0.1, 1.0),
        beta=st.floats(-1.0, 1.0),
        sigma=st.floats(0.2, 3.0),
        over=st.floats(1.01, 8.0),
    )
    def test_returns_largest_root_above_threshold(self, degrees, raw_probs, alpha, beta, sigma, over):
        support = np.array(sorted(degrees), dtype=np.float64)
        probs = np.array(raw_probs[:support.size])
        dist = DegreeDistribution(support.astype(int), probs / probs.sum())
        weights = support**alpha * dist.probs
        unit_rates = support ** (1.0 + beta) / dist.moment(1.0 + beta)
        # slope at zero = over > 1; over <= 8 keeps the root at least about
        # 1e-6 below the upper bound, so h is resolvable on the points checked
        lam = over * sigma / float(weights @ unit_rates)
        rates = lam * unit_rates
        upper = weights.sum() / sigma

        def h(x):
            return x - (weights.sum() - float(weights @ np.exp(-rates * x))) / sigma

        x = psi_fixed_point(dist, ModelParams(lam=lam, alpha=alpha, beta=beta, sigma=sigma))
        assert 0.0 < x <= upper
        assert abs(h(x)) <= 1e-9 * max(1.0, x)
        for t in np.linspace(0.0, 1.0, 21)[1:]:
            assert h(x + t * (upper - x)) > 0.0

    def test_logs_path_and_steps(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        params = ModelParams(lam=2.0, alpha=0.8, beta=0.2)
        newton = psi_fixed_point(TWO_FOUR, params)
        bisected = psi_fixed_point(TWO_FOUR, params, max_iter=1)
        psi_fixed_point(TWO_FOUR, ModelParams(lam=0.0, alpha=1.0))
        messages = [rec.getMessage() for rec in caplog.records if rec.name == "rumornet.meanfield"]
        assert len(messages) == 3
        assert messages[0].startswith("psi_fixed_point: path=newton steps=")
        assert 1 <= int(messages[0].rsplit("=", 1)[1]) <= 20
        assert messages[1].startswith("psi_fixed_point: path=bisection steps=")
        assert int(messages[1].rsplit("=", 1)[1]) > 1
        assert messages[2] == "psi_fixed_point: path=zero steps=0"
        assert bisected == pytest.approx(newton, abs=1e-9)


class TestFinalRumorSize:
    def test_lambda_zero(self):
        assert final_rumor_size(TWO_FOUR, ModelParams(lam=0.0, alpha=1.0)) == 0.0

    def test_full_inoculation(self):
        params = ModelParams(lam=5.0, alpha=1.0)
        assert final_rumor_size(TWO_FOUR, params, make_random_plan(1.0)) == 0.0

    def test_point_mass_equals_psi(self):
        params = ModelParams(lam=2.0, alpha=1.0, beta=0.0)
        psi_star = psi_fixed_point(POINT_MASS_1, params)
        r = final_rumor_size(POINT_MASS_1, params)
        assert r == pytest.approx(1.0 - np.exp(-2.0 * psi_star), abs=1e-9)
        assert r == pytest.approx(psi_star, abs=1e-9)

    def test_monotone_in_lambda(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        values = [final_rumor_size(dist, ModelParams(lam=l, alpha=0.5, beta=-0.5))
                  for l in np.linspace(0.0, 2.0, 15)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_random_inoculation_reduces_size(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        params = ModelParams(lam=1.0, alpha=0.5, beta=-0.5)
        bare = final_rumor_size(dist, params)
        inoculated = final_rumor_size(dist, params, make_random_plan(0.4))
        assert inoculated < bare

    def test_sub_threshold_extinction(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        lam_c = threshold_modified(dist, 0.5, -0.5)
        params = ModelParams(lam=0.5 * lam_c, alpha=0.5, beta=-0.5)
        finals = []
        for s0 in (1e-4, 1e-5):
            traj = integrate(uniform_seed_state(dist, s0), dist, params, t_end=60.0, dt=0.01)
            finals.append(traj.final_r)
        assert finals[0] / finals[1] >= 5.0


class TestClosedFormIgnorant:
    def test_psi_zero_is_one(self):
        params = ModelParams(lam=1.0, alpha=1.0, beta=0.5)
        assert closed_form_ignorant(3, 0.0, TWO_FOUR, params) == 1.0

    def test_point_mass_cancellation(self):
        dist = DegreeDistribution([7], [1.0])
        params = ModelParams(lam=1.0, alpha=1.0, beta=0.0)
        for psi in (0.1, 0.5, 2.0):
            assert closed_form_ignorant(7, psi, dist, params) == pytest.approx(np.exp(-psi), rel=1e-14)

    def test_rejects_negative_psi(self):
        with pytest.raises(ValueError):
            closed_form_ignorant(2, -0.1, TWO_FOUR, ModelParams(lam=1.0, alpha=1.0))
