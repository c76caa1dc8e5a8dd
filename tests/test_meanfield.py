import gc
import logging
import math
import pickle
import re
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from rumornet import meanfield
from rumornet.inoculation import InoculationPlan, make_random_plan, make_targeted_plan
from rumornet.meanfield import (
    DegreeClassState,
    IntegrationError,
    ModelParams,
    critical_rate,
    final_rumor_size,
    integrate,
    psi_fixed_point,
    uniform_seed_state,
)
from rumornet.netgen import DegreeDistribution, sample_powerlaw_distribution

POINT_MASS_1 = DegreeDistribution([1], [1.0])
TWO_FOUR = DegreeDistribution([2, 4], [2 / 3, 1 / 3])


def moment(dist, q):
    """<k**q> = sum_k k**q P(k), summed as the mean field's family table sums it."""
    return float((dist.power(q) * dist.probs).sum())


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


def per_class_system(initial, dist, params, plan=None):
    """The modified block ODEs on all 3n+1 components (rho_i, rho_s, rho_r
    per class and Psi), with the rates written out from the model, kept
    independent of the reduced integrator they check.

    Returns the right-hand side, the initial vector and a function that
    turns sample times and rows into per-class samples of shape (samples,
    classes), the aggregates I, S, R, Phi and Psi, and the times.
    """
    n = dist.support.size
    k = dist.support.astype(np.float64)
    probs = dist.probs
    g = plan.profile(dist) if plan is not None else 0.0
    kb = k ** (1.0 + params.beta)
    rates = params.lam * (1.0 - g) * kb / float(probs @ kb)
    kalpha_p = k ** params.alpha * probs
    sigma = params.sigma

    def rhs(y):
        rho_i, rho_s = y[:n], y[n:2 * n]
        phi = kalpha_p @ rho_s
        infection = rates * rho_i * phi
        return np.concatenate([-infection, infection - sigma * rho_s, sigma * rho_s, [phi]])

    def samples(times, rows):
        arr = np.array(rows)
        rho_i, rho_s, rho_r = arr[:, :n], arr[:, n:2 * n], arr[:, 2 * n:3 * n]
        return SimpleNamespace(
            times=np.array(times), rho_i=rho_i, rho_s=rho_s, rho_r=rho_r,
            i=rho_i @ probs, s=rho_s @ probs, r=rho_r @ probs, phi=rho_s @ kalpha_p, psi=arr[:, 3 * n],
        )

    return rhs, np.concatenate([initial.rho_i, initial.rho_s, initial.rho_r, [0.0]]), samples


def per_class_rk4(initial, dist, params, plan=None, t_end=10.0, dt=0.01, sample_every=1):
    """Fixed-step RK4 of per_class_system, sampled at the initial state, every
    ``sample_every`` steps and at the final step."""
    rhs, y, samples = per_class_system(initial, dist, params, plan)
    steps = int(round(t_end / dt))
    times, rows = [0.0], [y]
    for step in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % sample_every == 0 or step == steps:
            times.append(step * dt)
            rows.append(y)
    return samples(times, rows)


def per_class_dop853(initial, dist, params, times, plan=None):
    """per_class_system solved by scipy's adaptive 8th-order DOP853 at
    rtol 1e-13, sampled at ``times``.  Where a_k Phi is large, fixed-step
    RK4 needs a step far below what a test can afford; DOP853 adapts to it
    at the cost of a few thousand evaluations."""
    rhs, y0, samples = per_class_system(initial, dist, params, plan)
    sol = solve_ivp(lambda _t, y: rhs(y), (0.0, times[-1]), y0, method="DOP853", t_eval=times,
                    rtol=1e-13, atol=1e-15)
    assert sol.success, sol.message
    return samples(times, sol.y.T)


def per_point_final_size(dist, params, plan=None, tol=1e-10, max_iter=100_000):
    """Psi* and R as psi_fixed_point and final_rumor_size define them, with
    every term built afresh at the point, kept independent of the family
    table the module caches.  It uses the module's association: the lam-free
    b_k = (1 - g_k) k**(1+beta) / <k**(1+beta)>, the classes in the stable
    order of b_k, the exponents -b_k (lam x), and the classes with
    b_k lam x > _EXPM1_CUT taken through suffix sums.

    Returns (Psi*, R).
    """
    k = dist.support.astype(np.float64)
    probs = dist.probs
    if plan is None:
        g = 0.0
    elif plan.kind == "random":
        g = np.full_like(probs, plan.g)
    else:
        g = np.where(dist.support > plan.k_t, 1.0, np.where(dist.support == plan.k_t, plan.f, 0.0))
    kb = k ** (1.0 + params.beta)
    b = (1.0 - g) * kb / float((kb * probs).sum())
    order = np.argsort(b, kind="stable")
    weights = k ** params.alpha * probs
    b = b[order]
    rows = np.stack([weights[order], weights[order] * b, (probs * (1.0 - g))[order]])
    tails = [np.append(np.cumsum(row[::-1])[::-1], 0.0) for row in rows]
    lam, sigma, upper = params.lam, params.sigma, float(weights.sum()) / params.sigma
    slope = float(tails[1][0])

    def sums(scale, first, last):
        """sum_k row_k expm1(-b_k scale) for rows[first:last], the classes
        past the cut counted as -row_k."""
        cut = int(np.searchsorted(b, meanfield._EXPM1_CUT / scale, side="right")) if scale > 0 else b.size
        em = np.expm1(b[:cut] * -scale)
        totals = rows[first:last, :cut] @ em
        return [float(total) - float(tail[cut]) for total, tail in zip(totals, tails[first:last])]

    def h(x):
        sum_w, sum_wb = sums(lam * x, 0, 2)
        return x + sum_w / sigma, 1.0 - lam * (slope + sum_wb) / sigma

    psi = 0.0 if lam <= (sigma * (1.0 / slope) if slope > 0.0 else math.inf) else None
    x = upper
    for _ in range(max_iter if psi is None else 0):
        hx, h_slope = h(x)
        if h_slope <= 0.0:
            break
        x_next = x - hx / h_slope
        if abs(x_next - x) < tol * max(1.0, x):
            psi = x_next
            break
        if not 0.0 < x_next < x:
            break
        x = x_next
    if psi is None:  # the bisection fallback
        lo = hi = upper
        for _ in range(200):
            lo *= 0.5
            if h(lo)[0] < 0.0:
                break
        while psi is None:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if h(mid)[0] < 0.0 else (lo, mid)
            if hi - lo < tol * hi:
                psi = 0.5 * (lo + hi)
    if psi == 0.0:
        return psi, 0.0
    return psi, min(-sums(lam * psi, 2, 3)[0], 1.0)


def two_four_terms():
    """TWO_FOUR's w_k, b_k and P(k) at alpha=1, beta=0 without a plan, in
    support order, for the tests that hand integrate a doctored family table
    built from them by meanfield._sorted_family; at lam=1, b_k = a_k."""
    table = meanfield._family_table(TWO_FOUR, 1.0, 0.0, None)
    assert table.order.tolist() == [0, 1]
    return table.rows[0], table.rates, table.rows[2]


def doctor_family(monkeypatch, weights, rates, free_probs):
    """Make every solver read the family table of these per-class terms."""
    table = meanfield._sorted_family(np.asarray(weights), np.asarray(rates), np.asarray(free_probs))
    monkeypatch.setattr(meanfield, "_family_table", lambda *args: table)


def graded_state(classes):
    """A degree-dependent, partly stifled start: spreaders grow from 0.02 to
    0.1 and stiflers fall from 0.1 to 0 across the classes."""
    frac = np.linspace(0.0, 1.0, classes)
    rho_s = 0.02 + 0.08 * frac
    rho_r = 0.1 * (1.0 - frac)
    return DegreeClassState(rho_i=1.0 - rho_s - rho_r, rho_s=rho_s, rho_r=rho_r)


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

    @pytest.mark.parametrize("field, value", [
        ("lam", math.nan), ("lam", math.inf), ("beta", math.nan), ("beta", -math.inf),
        ("sigma", math.nan), ("sigma", math.inf), ("alpha", math.nan),
    ])
    def test_non_finite_values_rejected(self, field, value):
        # sigma = inf would cap the integrator's steps at 1/sigma = 0
        with pytest.raises(ValueError, match=field):
            ModelParams(**{"lam": 1.0, "alpha": 1.0, field: value})


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
    """The modified model's dynamics in limiting cases, through ``integrate``."""

    def test_absorbing_state(self):
        state = DegreeClassState(rho_i=np.array([0.4, 0.7]), rho_s=np.zeros(2), rho_r=np.array([0.6, 0.3]))
        params = ModelParams(lam=1.2, alpha=0.5, beta=-0.5)
        traj = integrate(state, TWO_FOUR, params, t_end=5.0, dt=0.1)
        probs = TWO_FOUR.probs
        assert np.all(traj.i == probs @ state.rho_i)
        assert np.all(traj.r == probs @ state.rho_r)
        assert np.all(traj.s == 0.0)
        assert np.all(traj.phi == 0.0)
        assert np.all(traj.psi == 0.0)

    def test_lambda_zero_decouples(self):
        s = np.array([0.2, 0.05])
        state = DegreeClassState(rho_i=1.0 - s, rho_s=s, rho_r=np.zeros(2))
        params = ModelParams(lam=0.0, alpha=1.0, sigma=2.0)
        traj = integrate(state, TWO_FOUR, params, t_end=3.0, dt=0.01)
        s0 = float(TWO_FOUR.probs @ s)
        phi0 = float((TWO_FOUR.support * TWO_FOUR.probs) @ s)
        decay = np.exp(-2.0 * traj.times)
        assert np.all(traj.i == 1.0 - s0)
        assert np.max(np.abs(traj.s - s0 * decay)) < 1e-9
        assert np.max(np.abs(traj.r - s0 * (1.0 - decay))) < 1e-9
        assert np.max(np.abs(traj.psi - phi0 * (1.0 - decay) / 2.0)) < 1e-9

    def test_full_inoculation_freezes_ignorants(self):
        s = np.array([0.3, 0.1])
        state = DegreeClassState(rho_i=1.0 - s, rho_s=s, rho_r=np.zeros(2))
        params = ModelParams(lam=2.0, alpha=1.0)
        traj = integrate(state, TWO_FOUR, params, make_random_plan(1.0), t_end=5.0, dt=0.01)
        assert np.all(traj.i == TWO_FOUR.probs @ state.rho_i)
        assert traj.r[-1] > 0.0

    def test_classical_equals_modified_at_reduction_point(self):
        # the classic model, every node spreading to all its neighbors with
        # uniform tie strength, is alpha=1, beta=0: the oracle's rates are then
        # the all-neighbor infection lam k rho_i sum_l l P(l) rho_s(l) / <k>
        rng = np.random.default_rng(0)
        params = ModelParams(lam=0.7, alpha=1.0, beta=0.0, sigma=1.0)
        for _ in range(10):
            s = rng.random(2) * 0.3
            r = rng.random(2) * 0.3
            state = DegreeClassState(rho_i=1.0 - s - r, rho_s=s, rho_r=r)
            modified = integrate(state, TWO_FOUR, params, t_end=5.0, dt=0.01)
            classical = per_class_rk4(state, TWO_FOUR, params, t_end=5.0, dt=0.01)
            for name in ("i", "s", "r", "phi", "psi"):
                assert np.max(np.abs(getattr(modified, name) - getattr(classical, name))) < 1e-9

class TestIntegrate:
    def test_no_spreaders_constant(self):
        initial = uniform_seed_state(TWO_FOUR, 0.0)
        traj = integrate(initial, TWO_FOUR, ModelParams(lam=1.0, alpha=1.0), t_end=5.0, dt=0.01)
        assert np.all(traj.i == 1.0)
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
        assert abs(traj.r[-1] - r_direct) < 1e-3
        # the rise is S-shaped: maximum slope strictly inside the time window
        increments = np.diff(traj.r)
        peak = int(np.argmax(increments))
        assert 0 < peak < increments.size - 1

    @pytest.mark.parametrize("dist", [TWO_FOUR, sample_powerlaw_distribution(2.4, 2, 1000)],
                             ids=["two_four", "powerlaw_1000"])
    def test_matches_per_class_oracle(self, dist):
        # sigma != 1, a targeted plan and a degree-dependent, partly stifled start
        params = ModelParams(lam=1.3, alpha=0.7, beta=-0.4, sigma=1.7)
        plan = make_targeted_plan(dist, 0.05)
        initial = graded_state(dist.support.size)
        # 2000 steps, not a multiple of sample_every: the final step is still recorded
        traj = integrate(initial, dist, params, plan, t_end=20.0, dt=0.01, sample_every=70)
        oracle = per_class_rk4(initial, dist, params, plan, t_end=20.0, dt=0.01, sample_every=70)
        assert traj.times[-1] == 20.0
        assert np.array_equal(traj.times, oracle.times)
        for name in ("i", "s", "r", "phi", "psi"):
            assert np.max(np.abs(getattr(traj, name) - getattr(oracle, name))) < 1e-9
        assert oracle.s[-1] < 1e-5  # the window reaches the end of spreading

    def test_matches_per_class_oracle_past_the_cut(self, caplog):
        # a targeted plan zeroes the hubs' rates, so a_k is not monotone in
        # k, and sigma=0.5 drives a_k Psi past the cut for most classes
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        k = np.arange(2, 42)
        p = k ** -2.4
        dist = DegreeDistribution(k, p / p.sum())
        params = ModelParams(lam=2.0, alpha=1.0, sigma=0.5)
        plan = make_targeted_plan(dist, 0.002)
        assert plan.profile(dist)[-1] == 1.0 and plan.profile(dist)[0] == 0.0
        initial = graded_state(k.size)
        traj = integrate(initial, dist, params, plan, t_end=20.0, dt=1e-3, sample_every=500)
        oracle = per_class_rk4(initial, dist, params, plan, t_end=20.0, dt=1e-3, sample_every=500)
        for name in ("i", "s", "r", "phi", "psi"):
            assert np.max(np.abs(getattr(traj, name) - getattr(oracle, name))) < 1e-9
        # the cut was reached: under 80% of every class evaluated at the
        # stages the series did not sum
        accepted, rejected, dense, rest, evals, series = logged_work(caplog)
        assert evals < 0.8 * (evaluated_stages(traj, accepted, rejected, dense, rest) - series) * k.size

    def test_expm1_is_minus_one_past_the_cut(self):
        # the cut replaces these exponentials by -1.0; if expm1 ever stops
        # saturating there, this fails instead of the curves drifting
        x = meanfield._EXPM1_CUT * np.array([1.0 - 1e-12, 1.0, 1.01, 2.0, 20.0, 1e3, 1e300, np.inf])
        assert np.all(np.expm1(-x) == -1.0)

    def test_zero_psi_evaluates_every_class(self, monkeypatch, caplog):
        # without spreaders Psi stays 0: the start, the probe of the first
        # step, twelve stages per step tried, three per dense output and the
        # 9 interior samples are all summed by the series.  With the series
        # off, no class may count as saturated: each of those calls
        # evaluates both classes
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        params = ModelParams(lam=80.0, alpha=1.0, beta=2.0)
        for rho, summed in ((meanfield._SERIES_RHO, True), (-1.0, False)):
            monkeypatch.setattr(meanfield, "_SERIES_RHO", rho)
            traj = integrate(uniform_seed_state(TWO_FOUR, 0.0), TWO_FOUR, params, t_end=1.0, dt=0.1)
            assert np.all(traj.i == 1.0) and np.all(traj.psi == 0.0)
            accepted, rejected, dense, rest, evals, series = logged_work(caplog)
            assert rest is None
            calls = 2 + 12 * (accepted + rejected) + 3 * dense + 9
            assert (evals, series) == ((0, calls) if summed else (2 * calls, 0))

    def test_conservation_and_monotonicity(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        params = ModelParams(lam=0.9, alpha=0.5, beta=-0.5)
        initial = uniform_seed_state(dist, 1e-3)
        traj = integrate(initial, dist, params, t_end=30.0, dt=0.01)
        assert np.max(np.abs(traj.i + traj.s + traj.r - 1.0)) < 1e-12
        assert np.all(np.diff(traj.r) >= -1e-12)
        assert np.all(np.diff(traj.psi) >= -1e-12)
        assert np.all(np.diff(traj.i) <= 1e-12)
        oracle = per_class_rk4(initial, dist, params, t_end=30.0, dt=0.01, sample_every=10)
        total = oracle.rho_i + oracle.rho_s + oracle.rho_r
        assert np.max(np.abs(total - 1.0)) < 1e-9
        assert np.all(np.diff(oracle.rho_r, axis=0) >= -1e-12)
        assert np.all(np.diff(oracle.rho_i, axis=0) <= 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        degrees=st.lists(st.integers(1, 60), min_size=2, max_size=6, unique=True),
        raw_probs=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
        alpha=st.floats(0.05, 1.0),
        beta=st.floats(-1.0, 1.0),
        lam=st.floats(0.0, 5.0),
        sigma=st.floats(0.2, 3.0),
        s0=st.floats(1e-6, 0.5),
    )
    def test_reduced_invariants(self, degrees, raw_probs, alpha, beta, lam, sigma, s0):
        support = np.array(sorted(degrees))
        probs = np.array(raw_probs[:support.size])
        dist = DegreeDistribution(support, probs / probs.sum())
        params = ModelParams(lam=lam, alpha=alpha, beta=beta, sigma=sigma)
        traj = integrate(uniform_seed_state(dist, s0), dist, params, t_end=10.0, dt=0.01, sample_every=5)
        assert np.max(np.abs(traj.i + traj.s + traj.r - 1.0)) <= 1e-12
        # monotone up to rounding
        assert np.all(np.diff(traj.r) >= -1e-15)
        assert np.all(np.diff(traj.psi) >= -1e-15)
        assert np.all(np.diff(traj.i) <= 1e-15)
        assert traj.psi[-1] <= moment(dist, alpha) / sigma

    def test_closed_form_ignorant_tracks_integration(self):
        # rho_i(k, t) = rho_i(k, 0) exp(-a_k Psi(t)), the identity the (Psi, R)
        # reduction rests on, along the full per-class integration
        dist = TWO_FOUR
        params = ModelParams(lam=1.5, alpha=0.7, beta=0.3)
        oracle = per_class_rk4(uniform_seed_state(dist, 1e-5), dist, params, t_end=25.0, dt=1e-3,
                               sample_every=100)
        kb = dist.support.astype(np.float64) ** (1.0 + params.beta)
        rates = params.lam * kb / float(dist.probs @ kb)
        for idx in range(0, oracle.times.size, 7):
            predicted = (1.0 - 1e-5) * np.exp(-rates * oracle.psi[idx])
            assert np.max(np.abs(oracle.rho_i[idx] - predicted)) < 1e-4

    def test_sigma_normalized_psi_identity(self):
        dist = TWO_FOUR
        params = ModelParams(lam=1.2, alpha=0.6, beta=0.0, sigma=2.5)
        oracle = per_class_rk4(uniform_seed_state(dist, 1e-2), dist, params, t_end=15.0, dt=1e-3,
                               sample_every=50)
        kalpha_p = dist.support.astype(float) ** params.alpha * dist.probs
        recovered_weight = oracle.rho_r @ kalpha_p / params.sigma
        assert np.max(np.abs(oracle.psi - recovered_weight)) < 1e-4

    def test_stiff_rates_stay_accurate(self):
        # a_k up to about 190: stiff for RK4 over the classes, not for the
        # reduction, whose step only has to resolve the sigma time scale
        dist = TWO_FOUR
        params = ModelParams(lam=80.0, alpha=1.0, beta=2.0)
        traj = integrate(uniform_seed_state(dist, 0.5), dist, params, t_end=10.0, dt=0.9)
        assert abs(traj.r[-1] - final_rumor_size(dist, params)) < 1e-4

    def test_sigma_dt_beyond_rk4_stability_completes(self):
        # sigma * dt = 3.6 lies beyond fixed-step RK4's real-axis stability
        # limit of about 2.785; the steps are capped at 1/sigma, whatever dt
        dist = TWO_FOUR
        params = ModelParams(lam=80.0, alpha=1.0, beta=2.0, sigma=4.0)
        initial = uniform_seed_state(dist, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(initial, dist, params, t_end=10.0, dt=0.9)
        # samples every 0.9 up to 9.9, each 1800 oracle steps apart
        oracle = per_class_rk4(initial, dist, params, t_end=9.9, dt=0.9 / 1800, sample_every=1800)
        assert np.allclose(traj.times, oracle.times, rtol=1e-12, atol=0.0)
        for name in ("i", "s", "r", "phi", "psi"):
            assert np.max(np.abs(getattr(traj, name) - getattr(oracle, name))) < 1e-9

    def test_t_end_zero_is_the_initial_state(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        state = graded_state(2)
        traj = integrate(state, TWO_FOUR, ModelParams(lam=1.0, alpha=1.0), t_end=0.0, dt=0.1)
        probs = TWO_FOUR.probs
        assert traj.times.tolist() == [0.0] and traj.psi.tolist() == [0.0]
        assert (traj.i[0], traj.s[0], traj.r[0]) == (probs @ state.rho_i, probs @ state.rho_s, probs @ state.rho_r)
        assert logged_work(caplog) == (0, 0, 0, None, 0, 1)

    def test_nan_rate_fails_the_range_check_at_the_start(self, monkeypatch):
        # a NaN rate makes the first sample's I NaN: the range check reports
        # it at t=0, before any step is tried
        weights, rates, free = two_four_terms()
        doctor_family(monkeypatch, weights, [rates[0], np.nan], free)
        with pytest.raises(IntegrationError, match=r"state left range at t=0 .*I=nan"):
            integrate(uniform_seed_state(TWO_FOUR, 0.1), TWO_FOUR, ModelParams(lam=1.0, alpha=1.0),
                      t_end=10.0, dt=0.01)

    def test_nan_phi_fails_the_error_estimate(self, monkeypatch):
        # a NaN weight leaves I, S and R finite at the start but makes Phi,
        # and so every stage, NaN: the first error estimate is not finite
        weights, rates, free = two_four_terms()
        doctor_family(monkeypatch, [weights[0], np.nan], rates, free)
        with pytest.raises(IntegrationError, match=r"error estimate nan at t=0 "):
            integrate(uniform_seed_state(TWO_FOUR, 0.1), TWO_FOUR, ModelParams(lam=1.0, alpha=1.0),
                      t_end=10.0, dt=0.01)

    @pytest.mark.parametrize("lam", [1e5, 1e6, 1e8])
    @pytest.mark.parametrize("kind, g", [("none", 0.0), ("random", 0.3), ("targeted", 0.05)])
    def test_very_large_lambda_completes(self, caplog, lam, kind, g):
        # the first trial steps' stages overflow, so their error estimates
        # are not finite; they are rejected and shrunk, as a step whose
        # error is too large, instead of failing the curve
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        dist = sample_powerlaw_distribution(2.4, 2, 10**4)
        params = ModelParams(lam=lam, alpha=0.8, beta=0.0)
        plan = _plan(dist, kind, g)
        traj = integrate(uniform_seed_state(dist, 1e-3), dist, params, plan, t_end=100.0, dt=0.01)
        assert logged_work(caplog)[1] > 0
        assert_saturated_curve(traj, dist, params, plan)
        if plan is None:
            assert traj.r[-1] == 1.0

    @pytest.mark.parametrize("n", [10**3, 10**5])
    @pytest.mark.parametrize("lam", [1e12, 1e16, 1e20, 1.7e308])
    @pytest.mark.parametrize("kind, g", [("none", 0.0), ("random", 0.3), ("targeted", 0.05)])
    def test_step_floor_follows_the_curves_time_scale(self, lam, n, kind, g):
        # the curve's time scale shrinks as 1 / (lam S + sigma); a floor of
        # 1e-12 of the time span alone stopped these from lam = 1e12 (from
        # 1e10 at n=10**5) at the first steps.  At lam = 1.7e308, lam Psi
        # overflows to inf, where a targeted plan's zero rates once made the
        # class sums NaN and the curve stall
        dist = sample_powerlaw_distribution(2.4, 2, n)
        params = ModelParams(lam=lam, alpha=0.5, beta=-0.5)
        plan = _plan(dist, kind, g)
        traj = integrate(uniform_seed_state(dist, 1e-3), dist, params, plan, t_end=100.0, dt=0.01)
        assert_saturated_curve(traj, dist, params, plan)
        # every class that can be informed is
        assert final_rumor_size(dist, params, plan) == pytest.approx(1.0 - g, rel=0.0, abs=1e-9)

    def test_blowup_reported(self, monkeypatch):
        # a negative weight and rate on the degree-4 class add
        # w rho_i (exp(75 Psi) - 1) to dPsi/dt and rho_i exp(75 Psi) to I:
        # Psi runs away once the spreaders of class 2 start it, and the
        # divergence is an IntegrationError with no overflow warning escaping
        state = DegreeClassState(rho_i=[0.5, 0.5], rho_s=[0.5, 0.0], rho_r=[0.0, 0.5])
        weights, rates, free = two_four_terms()
        doctor_family(monkeypatch, weights * [1.0, -1.0], rates * [1.0, -50.0], free)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError):
                integrate(state, TWO_FOUR, ModelParams(lam=1.0, alpha=1.0), t_end=10.0, dt=0.9)

    def test_negative_psi_reported(self, monkeypatch):
        # negative weights make Phi, and so dPsi/dt at the start, negative
        # while I, S and R are still inside [0, 1]
        state = DegreeClassState(rho_i=[0.2, 0.2], rho_s=[0.4, 0.4], rho_r=[0.4, 0.4])
        weights, rates, free = two_four_terms()
        doctor_family(monkeypatch, -weights, rates, free)
        with pytest.raises(IntegrationError, match="Psi=-"):
            integrate(state, TWO_FOUR, ModelParams(lam=1.0, alpha=1.0), t_end=0.8, dt=0.8)

    def test_negative_psi_evaluates_every_class(self, monkeypatch):
        # the state of test_negative_psi_reported: the reported I must be the
        # sum over all classes at the negative Psi, not a cut one
        state = DegreeClassState(rho_i=[0.2, 0.2], rho_s=[0.4, 0.4], rho_r=[0.4, 0.4])
        weights, rates, free = two_four_terms()
        doctor_family(monkeypatch, -weights, rates, free)
        with pytest.raises(IntegrationError) as info:
            integrate(state, TWO_FOUR, ModelParams(lam=1.0, alpha=1.0), t_end=0.8, dt=0.8)
        found = re.search(r"Psi=(\S+), I=(\S+),", str(info.value))
        psi, i = float(found[1]), float(found[2])
        assert psi < 0.0
        rates = TWO_FOUR.support / moment(TWO_FOUR, 1.0)
        assert i == pytest.approx(float(TWO_FOUR.probs @ (state.rho_i * np.exp(-rates * psi))), rel=1e-3)

    def test_overflowing_probe_fails_the_step_floor(self, monkeypatch):
        # a huge negative rate is harmless at Psi = 0 and overflows at the
        # probe of the first step, which sizes that step to 0
        weights, rates, free = two_four_terms()
        doctor_family(monkeypatch, weights, [-1e308, rates[1]], free)
        with pytest.raises(IntegrationError, match=r"step fell to 0\.000e\+00 at t=0, below the floor"):
            integrate(uniform_seed_state(TWO_FOUR, 0.1), TWO_FOUR, ModelParams(lam=1.0, alpha=1.0),
                      t_end=10.0, dt=0.01)

    def test_logs_model_steps_psi_and_r(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        params = ModelParams(lam=1.0, alpha=1.0)
        initial = uniform_seed_state(TWO_FOUR, 1e-2)
        traj = integrate(initial, TWO_FOUR, params, t_end=2.0, dt=0.01, sample_every=10)
        messages = [rec.getMessage() for rec in caplog.records
                    if rec.name == "rumornet.meanfield" and rec.getMessage().startswith("integrate:")]
        assert len(messages) == 1
        accepted, rejected, dense, rest, evals, series = logged_work(caplog)
        assert messages[0] == (f"integrate: accepted={accepted} rejected={rejected} dense={dense} rest=none "
                               f"psi={float(traj.psi[-1])!r} r={float(traj.r[-1])!r} evals={evals} "
                               f"series={series}")
        # lam Psi stays below _SERIES_RHO / b_max to t_end, so the series
        # sums every call: the start, the probe, twelve stages per step
        # tried, three per dense output and the 19 interior samples
        assert traj.psi[-1] < meanfield._SERIES_RHO / two_four_terms()[1].max()
        assert (evals, series) == (0, 2 + 12 * (accepted + rejected) + 3 * dense + 19)
        # fewer steps than the 200 sample steps of dt, and a dense output
        # only on the accepted steps that hold an interior sample
        assert 0 < accepted < 200
        assert 0 < dense <= min(accepted, 19)

    def test_logs_the_rest_and_its_work(self, caplog):
        # the curve of test_logs_model_steps_psi_and_r rests long before
        # t_end = 60; no class saturates, so every evaluation covers both
        # classes, and the samples after rest cost none
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        traj = integrate(uniform_seed_state(TWO_FOUR, 1e-2), TWO_FOUR, ModelParams(lam=1.0, alpha=1.0),
                         t_end=60.0, dt=0.01, sample_every=10)
        accepted, rejected, dense, rest, evals, series = logged_work(caplog)
        assert_rests_after(traj, rest)
        assert rest < 40.0
        assert evals == 2 * (evaluated_stages(traj, accepted, rejected, dense, rest) - series)

    def test_psi_and_r_never_step_back(self):
        # at rest Phi is cancellation noise, which DOP853's weights (their
        # absolute values sum to 12.9) turned into steps back of Psi by up to
        # 3 ulp and of R by up to 2e-16 in 13 of these curves, all at t >= 34,
        # before integrate stopped at a proven rest
        dist = sample_powerlaw_distribution(2.4, 2, 100)
        rng = np.random.default_rng(0)
        for _ in range(60):
            params = ModelParams(lam=rng.uniform(0.0, 3.0), alpha=rng.uniform(0.05, 1.0), beta=rng.uniform(-1.0, 1.0))
            s0 = math.exp(rng.uniform(math.log(1e-6), math.log(0.5)))
            traj = integrate(uniform_seed_state(dist, s0), dist, params, t_end=40.0, dt=0.02, sample_every=7)
            assert np.all(np.diff(traj.psi) >= 0.0) and np.all(np.diff(traj.r) >= 0.0), (params, s0)


def logged_work(caplog) -> tuple[int, int, int, float | None, int, int]:
    """(accepted, rejected, dense, rest, evals, series) of the last integrate
    record; rest is the step end that proved rest, or None."""
    message = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("integrate:")][-1]
    found = re.fullmatch(r"integrate: accepted=(\d+) rejected=(\d+) dense=(\d+) rest=(\S+) psi=\S+ r=\S+ "
                         r"evals=(\d+) series=(\d+)", message)
    assert found, f"unmatched integrate record: {message}"
    rest = None if found[4] == "none" else float(found[4])
    return int(found[1]), int(found[2]), int(found[3]), rest, int(found[5]), int(found[6])


def evaluated_stages(traj, accepted, rejected, dense, rest) -> int:
    """The class-sum calls integrate makes, each summed by the series or
    evaluated over the classes below the cut: the start and the probe of the
    first step, twelve per step tried, three per dense output, one per
    interior sample before rest and, once rest is proven, one for the rest
    state."""
    # with rest: the samples before it, less the start, plus the rest state
    interior = traj.times.size - 2 if rest is None else int(np.sum(traj.times < rest))
    return 2 + 12 * (accepted + rejected) + 3 * dense + interior


def assert_rests_after(traj, rest):
    """Every sample from the step end ``rest`` on is the rest state: S = 0,
    and Phi = 0 up to the cancellation noise of its sum."""
    assert rest is not None and rest < traj.times[-1]
    tail = traj.times >= rest
    first = int(np.argmax(tail))
    assert tail[first:].all() and traj.s[first] == 0.0
    assert abs(traj.phi[first]) < 1e-13
    for name in ("i", "s", "r", "phi", "psi"):
        values = getattr(traj, name)
        assert np.all(values[first:] == values[first]), name


class TestOracleAgreement:
    """integrate's adaptive curve against a per-class oracle on heavy-tailed
    power laws, until the end of spreading."""

    POWERLAW = sample_powerlaw_distribution(2.4, 2, 1000)

    @pytest.mark.parametrize("case", ["no_plan", "targeted", "random", "sigma_2", "uneven_sampling", "s0_1e-6"])
    def test_matches_the_per_class_oracle(self, caplog, case):
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        dist = self.POWERLAW
        params = ModelParams(lam=0.9, alpha=0.8, beta=-0.5, sigma=2.0 if case == "sigma_2" else 1.0)
        plan = {"targeted": make_targeted_plan(dist, 0.05), "random": make_random_plan(0.3)}.get(case)
        if case == "targeted":
            # the hubs are inoculated, so their rates are zero
            table = meanfield._family_table(dist, params.alpha, params.beta, plan)
            assert table.rates[table.order.argmax()] == 0.0
        # 7000 sample steps: 70 divides them, 65 does not
        sample_every = 65 if case == "uneven_sampling" else 70
        initial = uniform_seed_state(dist, 1e-6 if case == "s0_1e-6" else 1e-3)
        traj = integrate(initial, dist, params, plan, t_end=70.0, dt=0.01, sample_every=sample_every)
        # the curve starts in the class sums' power series and leaves it
        evals, series = logged_work(caplog)[4:]
        assert series > 0 and evals > 0
        # per-class RK4 at a quarter of the sample spacing
        oracle = per_class_rk4(initial, dist, params, plan, t_end=70.0, dt=0.0025, sample_every=4 * sample_every)
        assert traj.times[-1] == 70.0
        assert np.allclose(traj.times, oracle.times, rtol=1e-12, atol=0.0)
        for name in ("i", "s", "r", "phi", "psi"):
            assert np.max(np.abs(getattr(traj, name) - getattr(oracle, name))) < 1e-9, name
        assert oracle.s[-1] < 1e-8  # the window reaches the end of spreading

    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.floats(0.0, 3.0),
        alpha=st.floats(0.05, 1.0),
        beta=st.floats(-1.0, 1.0),
        s0=st.floats(1e-6, 0.5),
    )
    def test_matches_the_oracle_on_a_small_power_law(self, lam, alpha, beta, s0):
        # a_k up to 200 and Phi up to <k> = 4.2: RK4 on the classes needs
        # steps below 3e-3 just to stay stable, and far smaller to reach the
        # bound, so the oracle is the adaptive per_class_dop853
        dist = sample_powerlaw_distribution(2.4, 2, 100)
        params = ModelParams(lam=lam, alpha=alpha, beta=beta)
        initial = uniform_seed_state(dist, s0)
        traj = integrate(initial, dist, params, t_end=40.0, dt=0.02, sample_every=7)
        oracle = per_class_dop853(initial, dist, params, traj.times)
        # samples between step ends come from the 7th-order dense output; most
        # stay within a few times the step tolerance, but a step that follows
        # a zero crossing of the 5th-order error estimate can be too long for
        # its interpolant: at lam=2.22, alpha=0.05, beta=-0.1, s0=1e-6 a
        # sample is 128 times the tolerance off, where the step ends next to
        # it are within 10 times
        bound = 300 * meanfield._RTOL
        for name in ("i", "s", "r", "phi", "psi"):
            assert np.max(np.abs(getattr(traj, name) - getattr(oracle, name))) < bound, name

    def test_interior_samples_at_the_old_worst_case(self, caplog):
        # a 4th-order dense output at this tolerance is 3.2e-9 off in Psi
        # here, about 100 times the tolerance, while the samples next to it
        # are within 2e-10; the 7th-order one is within about 5 times
        self.check_the_rest_curve(caplog, lam=2.0)

    def test_sub_threshold_curve_reaches_rest(self, caplog):
        assert 0.06 < critical_rate(sample_powerlaw_distribution(2.4, 2, 100), 1.0, -1.0)
        self.check_the_rest_curve(caplog, lam=0.06)

    @staticmethod
    def check_the_rest_curve(caplog, lam):
        """The curve at lam, alpha=1, beta=-1, s0=1e-4 on the 100-node power
        law rests before t_end = 40 and is within 30 times the step tolerance
        of the oracle, the rest state included."""
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        dist = sample_powerlaw_distribution(2.4, 2, 100)
        params = ModelParams(lam=lam, alpha=1.0, beta=-1.0)
        initial = uniform_seed_state(dist, 1e-4)
        traj = integrate(initial, dist, params, t_end=40.0, dt=0.02, sample_every=7)
        assert_rests_after(traj, logged_work(caplog)[3])
        oracle = per_class_dop853(initial, dist, params, traj.times)
        bound = 30 * meanfield._RTOL
        for name in ("i", "s", "r", "phi", "psi"):
            assert np.max(np.abs(getattr(traj, name) - getattr(oracle, name))) < bound, name



class TestClassSeries:
    """integrate's two class sums and rest_step's two slope sums while every
    class has b_k |lam Psi| <= _SERIES_RHO, summed as power series in lam Psi
    (meanfield._class_series), against exact per-class sums."""

    @settings(max_examples=100, deadline=None)
    @given(
        degrees=st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True),
        raw_probs=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
        alpha=st.floats(0.1, 1.0),
        beta=st.floats(-1.0, 1.0),
        kind=st.sampled_from(["none", "random", "targeted"]),
        g=st.floats(0.0, 0.6),
        reach=st.one_of(st.floats(1e-200, 1.0), st.floats(-1.0, -1e-200)),
    )
    def test_sums_match_an_fsum_oracle(self, degrees, raw_probs, alpha, beta, kind, g, reach):
        # the rows integrate sums, w_k rho_i(k, 0) and P(k) rho_i(k, 0), at a
        # graded start, and scales of both signs up to the series' reach;
        # from 1e-200 of it, so that no sum is subnormal and short of a
        # relative precision
        support = np.array(sorted(degrees))
        probs = np.array(raw_probs[:support.size])
        dist = DegreeDistribution(support, probs / probs.sum())
        table = meanfield._family_table(dist, alpha, beta, _plan(dist, kind, g))
        rho_i = graded_state(support.size).rho_i[table.order]
        mix = np.stack([table.rows[0] * rho_i, dist.probs[table.order] * rho_i])
        series = meanfield._class_series(table.rates, mix)
        b_max = float(table.rates.max())
        assert series.b_max == b_max
        scale = reach * meanfield._SERIES_RHO / b_max if b_max > 0.0 else reach
        assume(series.covers(scale))
        rates = table.rates.tolist()
        for got, term in ((series.expm1_sums(scale), lambda b: math.expm1(-b * scale)),
                          (series.slope_sums(scale), lambda b: b * math.exp(-b * scale))):
            for value, row in zip(got, mix.tolist()):
                exact = math.fsum(m * term(b) for m, b in zip(row, rates))
                assert abs(value - exact) <= 1e-14 * abs(exact)
        assert series.expm1_sums(0.0) == (0.0, 0.0)

    def test_overflowing_coefficients_turn_the_series_off(self, monkeypatch, caplog):
        # b_max is about 9e13, so b_max**27 / 27! overflows: no call may be
        # summed by the series, not even at Psi = 0, and the curve is the one
        # integrate draws with the series off (a negative _SERIES_RHO covers
        # no scale)
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        dist = DegreeDistribution([1, 10**7], [1.0 - 1e-15, 1e-15])
        params = ModelParams(lam=1.0, alpha=1.0, beta=1.0)
        assert meanfield._family_table(dist, 1.0, 1.0, None).rates.max() > 9e13
        curves = []
        for rho in (meanfield._SERIES_RHO, -1.0):
            monkeypatch.setattr(meanfield, "_SERIES_RHO", rho)
            traj = integrate(uniform_seed_state(dist, 1e-3), dist, params, t_end=10.0, dt=0.1)
            evals, series = logged_work(caplog)[4:]
            assert series == 0 and evals > 0
            curves.append(np.stack([traj.times, traj.i, traj.s, traj.r, traj.phi, traj.psi]))
        assert np.array_equal(curves[0], curves[1])

class TestPsiFixedPoint:
    def test_lambda_zero(self):
        assert psi_fixed_point(TWO_FOUR, ModelParams(lam=0.0, alpha=1.0)) == 0.0

    def test_point_mass_oracle(self):
        # x = 1 - exp(-2x) has its positive root at 0.79681213...
        expected = bisect_root(lambda x: x - 1.0 + np.exp(-2.0 * x), 1e-6, 2.0)
        params = ModelParams(lam=2.0, alpha=1.0, beta=0.0)
        assert psi_fixed_point(POINT_MASS_1, params) == pytest.approx(expected, abs=1e-9)

    def test_zero_below_threshold(self):
        lam_c = critical_rate(TWO_FOUR, 0.5, -0.5)
        params = ModelParams(lam=0.999 * lam_c, alpha=0.5, beta=-0.5)
        assert psi_fixed_point(TWO_FOUR, params) == 0.0

    def test_sigma_rescaling(self):
        # doubling sigma at doubled lam leaves psi* of the rescaled clock fixed
        base = psi_fixed_point(TWO_FOUR, ModelParams(lam=1.0, alpha=0.8, beta=0.2, sigma=1.0))
        scaled = psi_fixed_point(TWO_FOUR, ModelParams(lam=2.0, alpha=0.8, beta=0.2, sigma=2.0))
        assert scaled == pytest.approx(base / 2.0, rel=1e-8)

    def test_inoculated_threshold_boundary(self):
        lam_c = critical_rate(TWO_FOUR, 1.0, 0.0)
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
        rates = 0.5 * (1.0 - plan.profile(dist)) * k / moment(dist, 1.0)
        expected = bisect_root(lambda x: x + float(weights @ np.expm1(-rates * x)), 1e-6, weights.sum())
        assert 0.0 < expected < 0.1
        assert psi_fixed_point(dist, params, plan) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_forced_bisection_matches_newton_near_threshold(self, caplog, monkeypatch):
        # point 411 again (Psi* about 0.01): the fallback must stop on a
        # relative bracket width, as Newton's method does
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        dist = sample_powerlaw_distribution(2.4, 2, 10**5)
        params = ModelParams(lam=0.5, alpha=0.5, beta=0.0)
        plan = make_targeted_plan(dist, 0.01)
        newton = psi_fixed_point(dist, params, plan)
        monkeypatch.setattr(meanfield, "_NEWTON_MAX_STEPS", 1)
        bisected = psi_fixed_point(dist, params, plan)
        paths = [rec.getMessage().split()[1] for rec in caplog.records if rec.name == "rumornet.meanfield"]
        assert paths == ["path=newton", "path=bisection"]
        assert bisected == pytest.approx(newton, rel=1e-9, abs=0.0)

    def test_exponents_below_underflow_stay_finite_and_exact(self):
        # the degree-5000 class sees exponents near -5000 at the root; the
        # solver must neither underflow nor lose the root
        dist = DegreeDistribution([2, 5000], [0.9, 0.1])
        params = ModelParams(lam=1.0, alpha=1.0)
        mean_k = moment(dist, 1.0)

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
        unit_rates = support ** (1.0 + beta) / moment(dist, 1.0 + beta)
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

    def test_logs_path_and_steps(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="rumornet.meanfield")
        params = ModelParams(lam=2.0, alpha=0.8, beta=0.2)
        newton = psi_fixed_point(TWO_FOUR, params)
        monkeypatch.setattr(meanfield, "_NEWTON_MAX_STEPS", 1)
        bisected = psi_fixed_point(TWO_FOUR, params)
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
    def test_builds_class_terms_once(self, monkeypatch):
        calls = []
        profile = InoculationPlan.profile

        def counting_profile(plan, dist):
            calls.append(plan)
            return profile(plan, dist)

        monkeypatch.setattr(InoculationPlan, "profile", counting_profile)
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        params = ModelParams(lam=1.0, alpha=0.8)
        plan, other = make_targeted_plan(dist, 0.05), make_targeted_plan(dist, 0.1)
        calls.clear()  # make_targeted_plan checks its mean through profile
        final_rumor_size(dist, params, plan)
        assert calls == [plan]
        # the same point's curve reuses the terms
        integrate(uniform_seed_state(dist, 1e-3), dist, params, plan, t_end=1.0, dt=0.1)
        assert calls == [plan]
        final_rumor_size(dist, params, other)
        assert calls == [plan, other]

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
        lam_c = critical_rate(dist, 0.5, -0.5)
        params = ModelParams(lam=0.5 * lam_c, alpha=0.5, beta=-0.5)
        finals = []
        for s0 in (1e-4, 1e-5):
            traj = integrate(uniform_seed_state(dist, s0), dist, params, t_end=60.0, dt=0.01)
            finals.append(traj.r[-1])
        assert finals[0] / finals[1] >= 5.0

    # the phase diagram's distribution: 7454 classes, P(k) down to about 2.5e-9
    LARGE = sample_powerlaw_distribution(2.4, 2, 10**5)

    @pytest.mark.parametrize("kind, g", [("none", 0.0), ("targeted", 0.01), ("random", 0.3)])
    def test_exactly_zero_below_the_threshold(self, kind, g):
        dist = self.LARGE
        plan = _plan(dist, kind, g)
        for alpha, beta in ((0.5, -0.5), (0.8, 0.0), (1.0, 0.5)):
            for lam in _lambdas(dist, alpha, beta, 1.0, plan, (0.1, 0.5, 0.99)):
                r = final_rumor_size(dist, ModelParams(lam=lam, alpha=alpha, beta=beta), plan)
                assert r == 0.0 and math.copysign(1.0, r) == 1.0

    @pytest.mark.parametrize("kind, g", [("none", 0.0), ("targeted", 0.01), ("random", 0.3)])
    def test_matches_an_exact_sum_above_the_threshold(self, kind, g):
        # R = sum_k P(k) (1 - g_k) (-expm1(-a_k Psi*)), summed exactly; just
        # above the threshold R is small, where 1 minus a sum of ignorants
        # would keep only its absolute rounding
        dist = self.LARGE
        plan = _plan(dist, kind, g)
        one_minus_g = 1.0 - (plan.profile(dist) if plan is not None else 0.0)
        free = dist.probs * one_minus_g
        checked = 0
        for alpha, beta in ((0.5, -0.5), (1.0, 0.5)):
            lams = _lambdas(dist, alpha, beta, 1.0, plan, (1.01, 1.1, 1.5, 3.0, 10.0, 30.0))
            for lam in lams[1:]:
                params = ModelParams(lam=lam, alpha=alpha, beta=beta)
                psi_star = psi_fixed_point(dist, params, plan)
                rates = lam * one_minus_g * dist.power(1.0 + beta) / moment(dist, 1.0 + beta)
                exact = math.fsum((free * -np.expm1(-rates * psi_star)).tolist())
                r = final_rumor_size(dist, params, plan)
                assert psi_star > 0.0
                assert abs(r - exact) <= 1e-14 * exact
                checked += 1
        assert checked == 12


def assert_saturated_curve(traj, dist, params, plan):
    """A curve at a very large lam runs to t_end = 100 with every state finite
    and in range, and without a plan informs every ignorant, as the fixed
    point does."""
    assert traj.times[-1] == 100.0
    for values in (traj.i, traj.s, traj.r, traj.psi):
        assert np.all(np.isfinite(values))
    assert np.all(traj.psi >= 0.0)
    for values in (traj.i, traj.s, traj.r):
        assert np.all((-1e-12 <= values) & (values <= 1.0 + 1e-12))
    assert np.allclose(traj.i + traj.s + traj.r, 1.0, rtol=0.0, atol=1e-12)
    if plan is None:
        assert traj.r[-1] == final_rumor_size(dist, params)
        assert traj.r[-1] == pytest.approx(1.0, rel=0.0, abs=1e-15)


def _plan(dist, kind, g):
    if kind == "random":
        return make_random_plan(g)
    return make_targeted_plan(dist, g) if kind == "targeted" else None


def _lambdas(dist, alpha, beta, sigma, plan, overs):
    """0 and lam at each multiple ``over`` of the threshold on dist."""
    lambda_c = critical_rate(dist, alpha, beta, plan, sigma)
    return [0.0] + ([over * lambda_c for over in overs] if math.isfinite(lambda_c) else [1.0])


class TestTermLifetimes:
    """final_rumor_size keeps every per-class term in the table of its
    family (distribution, alpha, beta, plan); only Psi* is per point.  The
    numbers must be those of the formulas evaluated afresh at each point,
    bit for bit."""

    POWERLAW = sample_powerlaw_distribution(2.4, 2, 1000)

    @pytest.mark.parametrize("kind, g", [("none", 0.0), ("random", 0.3), ("targeted", 0.05)])
    def test_lambda_sweep_equals_the_per_point_formulas(self, kind, g):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        plan = _plan(dist, kind, g)
        roots = []
        for alpha, sigma in ((0.8, 1.0), (0.5, 2.0), (0.8, 0.5)):
            # 24 lam values across the threshold, as in a phase diagram
            for lam in _lambdas(dist, alpha, -0.5, sigma, plan, np.geomspace(0.3, 8.0, 23)):
                params = ModelParams(lam=lam, alpha=alpha, beta=-0.5, sigma=sigma)
                r = final_rumor_size(dist, params, plan)
                psi = psi_fixed_point(dist, params, plan)
                assert (psi, r) == per_point_final_size(dist, params, plan)
                roots.append(psi)
        assert 0.0 in roots and max(roots) > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        degrees=st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True),
        raw_probs=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
        alpha=st.floats(0.1, 1.0),
        beta=st.floats(-1.0, 1.0),
        sigma=st.floats(0.2, 3.0),
        kind=st.sampled_from(["none", "random", "targeted"]),
        g=st.floats(0.0, 0.6),
    )
    def test_equals_the_per_point_formulas(self, degrees, raw_probs, alpha, beta, sigma, kind, g):
        support = np.array(sorted(degrees))
        probs = np.array(raw_probs[:support.size])
        dist = DegreeDistribution(support, probs / probs.sum())
        plan = _plan(dist, kind, g)
        for lam in _lambdas(dist, alpha, beta, sigma, plan, (0.5, 0.999, 1.001, 1.5, 6.0)):
            params = ModelParams(lam=lam, alpha=alpha, beta=beta, sigma=sigma)
            expected = per_point_final_size(dist, params, plan)
            assert (psi_fixed_point(dist, params, plan), final_rumor_size(dist, params, plan)) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        degrees=st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True),
        raw_probs=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
        alpha=st.floats(0.1, 1.0),
        beta=st.floats(-1.0, 1.0),
        sigma=st.floats(0.2, 3.0),
        kind=st.sampled_from(["none", "random", "targeted"]),
        g=st.floats(0.0, 0.6),
    )
    def test_cut_sums_match_an_uncut_fsum_oracle(self, degrees, raw_probs, alpha, beta, sigma, kind, g):
        # from just above the threshold, where no class saturates, to a lam
        # where every class with b_k > 0 is past the cut at Psi*; a targeted
        # plan zeroes the hubs' b_k, which no lam saturates
        support = np.array(sorted(degrees))
        probs = np.array(raw_probs[:support.size])
        dist = DegreeDistribution(support, probs / probs.sum())
        plan = _plan(dist, kind, g)
        lambda_c = critical_rate(dist, alpha, beta, plan, sigma)
        assume(math.isfinite(lambda_c))
        one_minus_g = 1.0 - (plan.profile(dist) if plan is not None else np.zeros(support.size))
        b = (one_minus_g * dist.power(1.0 + beta) / moment(dist, 1.0 + beta)).tolist()
        weights = (dist.power(alpha) * dist.probs).tolist()
        free = (dist.probs * one_minus_g).tolist()

        def oracle(lam):
            """Psi* by Newton on the uncut h, every sum by math.fsum, and R."""
            def h(x):
                return (x + math.fsum(w * math.expm1(-lam * bk * x) for w, bk in zip(weights, b)) / sigma,
                        1.0 - lam * math.fsum(w * bk * math.exp(-lam * bk * x) for w, bk in zip(weights, b)) / sigma)
            x = math.fsum(weights) / sigma
            for _ in range(10_000):
                hx, slope = h(x)
                step = hx / slope
                x -= step
                if abs(step) < 1e-10 * max(1.0, x):
                    break
            for _ in range(2):  # onto the root to full precision
                hx, slope = h(x)
                x -= hx / slope
            return x, -math.fsum(f * math.expm1(-lam * bk * x) for f, bk in zip(free, b))

        saturated = sum(bk == 0.0 for bk in b)
        lam_all = 2.0 * lambda_c
        table = meanfield._family_table(dist, alpha, beta, plan)
        while table.cut(lam_all * psi_fixed_point(dist, ModelParams(lam_all, alpha, beta, sigma), plan)) > saturated:
            lam_all *= 2.0
        for lam in np.geomspace(1.01 * lambda_c, lam_all, 6):
            params = ModelParams(lam=float(lam), alpha=alpha, beta=beta, sigma=sigma)
            psi, r = psi_fixed_point(dist, params, plan), final_rumor_size(dist, params, plan)
            psi_o, r_o = oracle(float(lam))
            assert abs(psi - psi_o) <= 1e-13 * psi_o
            assert abs(r - r_o) <= 1e-13 * r_o

    def test_bisection_path_equals_the_per_point_formulas(self, monkeypatch):
        dist = self.POWERLAW
        plan = make_targeted_plan(dist, 0.05)
        params = ModelParams(lam=1.0, alpha=0.8, beta=-0.5, sigma=2.0)
        expected = per_point_final_size(dist, params, plan, max_iter=1)
        monkeypatch.setattr(meanfield, "_NEWTON_MAX_STEPS", 1)
        assert psi_fixed_point(dist, params, plan) == expected[0] > 0.0

    def test_distribution_dies_with_its_terms(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        plan = make_targeted_plan(dist, 0.05)
        params = ModelParams(lam=1.0, alpha=0.8, beta=-0.5)
        final_rumor_size(dist, params, plan)
        integrate(uniform_seed_state(dist, 1e-3), dist, params, plan, t_end=1.0, dt=0.1)
        critical_rate(dist, 0.8, -0.5, plan)
        ref = weakref.ref(dist)
        del dist
        gc.collect()
        assert ref() is None

    def test_family_table_dies_with_its_distribution(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        plan = make_targeted_plan(dist, 0.05)
        final_rumor_size(dist, ModelParams(lam=1.0, alpha=0.8, beta=-0.5), plan)
        ref = weakref.ref(meanfield._family_table(dist, 0.8, -0.5, plan))
        assert ref() is not None
        del dist
        gc.collect()
        assert ref() is None

    def test_every_cached_array_is_read_only(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        attributes = set(vars(dist))
        for kind, g in (("none", 0.0), ("random", 0.3), ("targeted", 0.05)):
            plan = _plan(dist, kind, g)
            for alpha in (0.5, 1.0):
                params = ModelParams(lam=1.0, alpha=alpha, beta=0.5)
                final_rumor_size(dist, params, plan)
                critical_rate(dist, alpha, 0.5, plan)
                # the slot holds the one table, of the last family
                key, table = dist.family_table
                assert key == (alpha, 0.5, plan) and isinstance(table, meanfield._Family)
                assert not any(array.flags.writeable for array in (table.order, table.rates, table.rows))
                assert len(table.tails) == 3 and all(view.readonly for view in table.tails)
        # and the distribution gained no other term
        assert set(vars(dist)) == attributes

    def test_pickled_copy_rebuilds_its_terms(self):
        dist = sample_powerlaw_distribution(2.4, 2, 1000)
        plan = make_targeted_plan(dist, 0.05)
        params = ModelParams(lam=1.0, alpha=0.8)
        expected = final_rumor_size(dist, params, plan)
        assert dist.family_table is not None
        copy = pickle.loads(pickle.dumps(dist))
        assert copy.family_table is None
        assert not copy.support.flags.writeable and not copy.probs.flags.writeable
        assert final_rumor_size(copy, params, plan) == expected
