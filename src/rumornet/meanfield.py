"""Degree-block mean-field dynamics of rumor spreading.

The nonlinear-contact model tracks per-degree-class fractions of ignorants,
spreaders and stiflers: a degree-k spreader reaches k**alpha neighbors per
unit time and per-edge transmission is weighted by the degree-dependent tie
strength, which closes (on uncorrelated networks) into the force term
a_k rho_i(k) Phi(t), a_k = lam (1 - g_k) k**(1+beta) / <k**(1+beta)>,
with Phi(t) = sum_l l**alpha P(l) rho_s(l, t).  Spreaders stifle at rate
sigma.  The classic model, in which every node spreads in proportion to its
degree with uniform tie strength, is the case alpha=1, beta=0.

Everything in the modified model is carried by Psi(t), the integral of Phi.
Ignorants obey the closed form rho_i(k, t) = rho_i(k, 0) exp(-a_k Psi(t)), so
the block ODEs reduce exactly to two scalar ODEs for Psi and R, which
``integrate`` solves by RK4 (the edge-based reduction of Miller, J. Math.
Biol. 2011); its docstring gives the work a step skips and why skipping it
changes no bit.  At the end of spreading the final rumor size follows from
the largest root of the self-consistent fixed-point equation for
Psi(infinity).
With a general stifling rate sigma the dynamics are the sigma=1 dynamics on
the rescaled clock tau = sigma * t, so the fixed-point equation picks up a
single factor of sigma and all sigma = 1 formulas are recovered verbatim.

The per-class terms have three lifetimes.  Per distribution and alpha: the
weights w_k = k**alpha P(k) and <k**alpha>.  Per distribution and plan: g_k,
1 - g_k and P(k) (1 - g_k).  Both are built once and kept, read-only, by
``DegreeDistribution.memo``, so they live as long as the distribution.  Only
the rates a_k depend on lam, so they alone are computed per grid point; the
last point's are kept for the next call on the same point.  A sweep over lam
therefore rebuilds nothing else.
"""

from __future__ import annotations

import logging
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .inoculation import InoculationPlan
from .netgen import DegreeDistribution

__all__ = [
    "DegreeClassState",
    "FixedPointError",
    "IntegrationError",
    "ModelParams",
    "Trajectory",
    "final_rumor_size",
    "integrate",
    "psi_fixed_point",
    "uniform_seed_state",
]


_log = logging.getLogger(__name__)

# expm1(-x) rounds to exactly -1.0 once x > 54 ln 2 (about 37.43); the cut
# sits above that with a margin for the rounding of a_k * Psi
_EXPM1_CUT = 38.0

# psi_fixed_point stops once a step, or the bisection bracket, is below this
# fraction of the iterate, and falls back to bisection after this many
# Newton steps
_PSI_TOL = 1e-10
_NEWTON_MAX_STEPS = 100_000

# how far a state's compartments may stray from [0, 1] and from summing to 1
_STATE_ATOL = 1e-9


class IntegrationError(RuntimeError):
    """The integrated state left its valid range beyond tolerance."""


class FixedPointError(RuntimeError):
    """The self-consistent fixed point did not converge."""


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the dynamics.

    lam    transmission rate
    alpha  contact (spreadness) exponent, in (0, 1]
    beta   tie-strength exponent
    sigma  spontaneous stifling rate (default 1)
    """

    lam: float
    alpha: float
    beta: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")


@dataclass
class DegreeClassState:
    """Per-degree-class compartment fractions at one instant."""

    rho_i: np.ndarray
    rho_s: np.ndarray
    rho_r: np.ndarray

    def __post_init__(self) -> None:
        self.rho_i = np.asarray(self.rho_i, dtype=np.float64)
        self.rho_s = np.asarray(self.rho_s, dtype=np.float64)
        self.rho_r = np.asarray(self.rho_r, dtype=np.float64)
        if not (self.rho_i.shape == self.rho_s.shape == self.rho_r.shape):
            raise ValueError("compartment arrays must share one shape")
        self.validate()

    def validate(self) -> None:
        total = self.rho_i + self.rho_s + self.rho_r
        if np.any(np.abs(total - 1.0) > _STATE_ATOL):
            worst = float(np.abs(total - 1.0).max())
            raise ValueError(f"compartments must sum to 1 within {_STATE_ATOL}, worst deviation {worst:.3e}")
        for name, arr in (("rho_i", self.rho_i), ("rho_s", self.rho_s), ("rho_r", self.rho_r)):
            if np.any(arr < -_STATE_ATOL) or np.any(arr > 1.0 + _STATE_ATOL):
                raise ValueError(f"{name} has components outside [0, 1]")


def uniform_seed_state(dist: DegreeDistribution, s0: float) -> DegreeClassState:
    """Degree-uniform seeding: every class starts with spreader fraction s0."""
    if not 0.0 <= s0 < 1.0:
        raise ValueError(f"initial spreader fraction must lie in [0, 1), got {s0}")
    n = dist.support.size
    return DegreeClassState(
        rho_i=np.full(n, 1.0 - s0),
        rho_s=np.full(n, s0),
        rho_r=np.zeros(n),
    )


def _plan_terms(dist: DegreeDistribution, plan: InoculationPlan | None):
    """Terms per (distribution, plan): 1 - g_k and P(k) (1 - g_k).

    Without a plan g_k is the scalar 0.0, so 1 - g_k is the scalar 1.0.  Built
    once by ``dist.memo`` and read-only.
    """
    def build():
        g_k = plan.profile(dist) if plan is not None else 0.0
        one_minus_g = 1.0 - g_k
        return one_minus_g, dist.probs * one_minus_g

    return dist.memo(("plan terms", plan), build)


def _class_terms(dist: DegreeDistribution, params: ModelParams, plan: InoculationPlan | None):
    """Per-class (w_k, a_k): the weight k**alpha P(k) and the rate
    a_k = lam (1 - g_k) k**(1+beta) / <k**(1+beta)>.

    w_k is a term per (distribution, alpha), built once by ``dist.memo``;
    1 - g_k comes from _plan_terms.  Only a_k depends on lam, so it alone is
    computed per grid point, with its products in the order written above.
    One point asks for its terms in psi_fixed_point, final_rumor_size and
    integrate, so the last point's pair is kept on ``dist``, keyed by the
    frozen params and plan.  All arrays are read-only.
    """
    key = (params, plan)
    last = dist.memo("last point", dict)
    if key not in last:
        weights = dist.memo(("weights", params.alpha), lambda: dist.power(params.alpha) * dist.probs)
        one_minus_g = _plan_terms(dist, plan)[0]
        rates = params.lam * one_minus_g * dist.power(1.0 + params.beta) / dist.moment(1.0 + params.beta)
        rates.setflags(write=False)
        last.clear()
        last[key] = weights, rates
    return last[key]


@dataclass
class Trajectory:
    """Sampled aggregates of a mean-field trajectory.

    R = sum_k P(k) rho_r, S = sum_k P(k) rho_s, I = sum_k P(k) rho_i,
    Phi = sum_k k**alpha P(k) rho_s and Psi = integral of Phi, one entry per
    sample time.
    """

    times: np.ndarray
    r: np.ndarray
    s: np.ndarray
    i: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    @property
    def final_r(self) -> float:
        return float(self.r[-1])


def integrate(
    initial: DegreeClassState,
    dist: DegreeDistribution,
    params: ModelParams,
    plan: InoculationPlan | None = None,
    t_end: float = 100.0,
    dt: float = 0.01,
    sample_every: int = 1,
) -> Trajectory:
    """Fixed-step RK4 integration of the mean-field dynamics from ``initial``.

    The dynamics are integrated through their exact two-scalar reduction.
    Ignorants obey rho_i(k, t) = rho_i(k, 0) exp(-a_k Psi(t)), so
    Phi + sum_k w_k rho_i(k) + sigma Psi is conserved (w_k = k**alpha P(k),
    a_k the rate of _class_terms) and the block ODEs close in Psi and R:

        dPsi/dt = Phi = Phi(0) - sum_k w_k rho_i(k, 0) expm1(-a_k Psi) - sigma Psi
        dR/dt   = sigma S = sigma (1 - I - R),
        I = I(0) + sum_k P(k) rho_i(k, 0) expm1(-a_k Psi)

    A stage costs one expm1 over the classes, which never produces
    subnormals.  Once a_k Psi > _EXPM1_CUT, expm1(-a_k Psi) rounds to
    exactly -1.0, so the classes past the cut (a suffix once they are sorted
    by a_k) contribute a constant, summed once before the loop, and only
    the rest are evaluated.  Each class's term is bit-identical to the full
    sum's; only the order of summation differs.  At Psi <= 0 (the start, or
    a diverging step) or a NaN Psi every class is evaluated.  A stage whose
    Psi has the bits of the last one evaluated (-0.0 is not +0.0, and a NaN
    never matches) reuses its sums: Psi often stops moving some steps
    before R does.

    There are round(t_end / dt) steps, and the aggregates of Trajectory are
    recorded at the initial state, every ``sample_every`` steps and at the
    final step.  A step reads nothing but (Psi, R) and constants, so when it
    returns its input unchanged (``==`` on both; Psi starts at +0.0 and a
    NaN never compares equal) the state is a fixed point of the step map:
    every later step would pass the same range check and record the same
    aggregates.  The loop stops there and fills in the remaining samples
    with that state, which matches running all the steps bit for bit.
    Raises IntegrationError when Psi drops below -1e-6 or I, S, R leave
    [-1e-6, 1 + 1e-6] or are not finite.  Each successful call logs its step
    count, the step at which the state became fixed (``frozen``; the step
    count if it never did), final Psi, final R and the number of per-class
    exponentials evaluated (``evals``; reused stages add none) at DEBUG level.

    The benchmark's tracer binds this signature from outside the package: it
    reads the arguments ``initial``, ``t_end`` and ``dt`` by name, and
    ``initial.rho_i``, so those keep their names.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    initial.validate()
    if initial.rho_i.shape != dist.support.shape:
        raise ValueError("state and distribution supports disagree")

    steps = int(round(t_end / dt))
    samples, evals, frozen = _reduced_rk4(initial, dist, params, plan, steps, dt, sample_every)
    times, r, s, i, phi, psi = np.array(samples).T
    _log.debug("integrate: steps=%d frozen=%d psi=%r r=%r evals=%d",
               steps, frozen, float(psi[-1]), float(r[-1]), evals)
    return Trajectory(times=times, r=r, s=s, i=i, phi=phi, psi=psi)


def _reduced_rk4(initial, dist, params, plan, steps, dt, sample_every) -> tuple[list[tuple], int, int]:
    """RK4 on (Psi, R); returns (t, R, S, I, Phi, Psi) samples, the number of
    per-class exponentials evaluated and the step at which the state became
    fixed (``steps`` if it never did).

    R is carried as its gain q = R - R(0), so S = S(0) - (I - I(0)) - q
    keeps full precision however small the seed fraction is.  The classes
    are sorted by a_k, so the saturated ones form a suffix (see integrate).
    """
    weights, rates = _class_terms(dist, params, plan)
    sigma = params.sigma
    probs = dist.probs
    classes = rates.size
    # stable, so equal rates keep their order; a targeted plan zeroes the
    # hubs' rates, so a_k is not monotone in k
    order = np.argsort(rates, kind="stable")
    rates = rates[order]
    mix = np.stack([weights * initial.rho_i, probs * initial.rho_i])[:, order]
    # tail[:, c] = sum of mix over the classes c.. (the last column is
    # zero); read through memoryviews, an entry is a Python float
    tail = np.zeros((2, classes + 1))
    tail[:, :-1] = np.cumsum(mix[:, ::-1], axis=1)[:, ::-1]
    tail_phi, tail_i = memoryview(tail[0]), memoryview(tail[1])
    phi0 = float(weights @ initial.rho_s)
    i0, s0, r0 = (float(probs @ rho) for rho in (initial.rho_i, initial.rho_s, initial.rho_r))
    neg_rates = -rates
    buf = np.empty_like(neg_rates)
    # bisect_right on the same doubles finds the cut searchsorted(side="right")
    # would, at a fraction of a numpy call's fixed cost
    rate_array = array("d", rates)
    evals = 0
    last_psi, last = math.nan, None

    def phi_and_gain(psi: float) -> tuple[float, float]:
        """Phi and the gain of the informed, -(I - I(0)), at Psi.

        A pure function of Psi: a stage at the bits of the last Psi evaluated
        (Psi often stops moving before q does) returns the last result.
        """
        nonlocal evals, last_psi, last
        if _same_bits(psi, last_psi):
            return last
        # not psi > 0 (zero, negative or NaN): every class is evaluated
        cut = bisect_right(rate_array, _EXPM1_CUT / psi) if psi > 0.0 else classes
        evals += cut
        head = buf[:cut]
        np.multiply(neg_rates[:cut], psi, out=head)
        np.expm1(head, out=head)
        sum_phi, sum_i = (mix[:, :cut] @ head).tolist()
        last_psi, last = psi, (phi0 - (sum_phi - tail_phi[cut]) - sigma * psi, -(sum_i - tail_i[cut]))
        return last

    half = 0.5 * dt
    psi = q = 0.0
    samples = []
    # a diverging step overflows the next stage's exponentials; the range
    # check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            phi, gain = phi_and_gain(psi)
            i, s, r = i0 - gain, s0 + gain - q, r0 + q
            if not (psi >= -1e-6 and -1e-6 <= min(i, s, r) and max(i, s, r) <= 1.0 + 1e-6):
                raise IntegrationError(
                    f"state left range at t={step * dt:.6g} "
                    f"(Psi={psi:.3e}, I={i:.3e}, S={s:.3e}, R={r:.3e}); reduce dt"
                )
            if step % sample_every == 0 or step == steps:
                samples.append((step * dt, r, s, i, phi, psi))
            if step == steps:
                return samples, evals, steps
            dq1 = sigma * s
            phi2, gain2 = phi_and_gain(psi + half * phi)
            dq2 = sigma * (s0 + gain2 - q - half * dq1)
            phi3, gain3 = phi_and_gain(psi + half * phi2)
            dq3 = sigma * (s0 + gain3 - q - half * dq2)
            phi4, gain4 = phi_and_gain(psi + dt * phi3)
            dq4 = sigma * (s0 + gain4 - q - dt * dq3)
            psi_next = psi + dt / 6.0 * (phi + 2.0 * phi2 + 2.0 * phi3 + phi4)
            q_next = q + dt / 6.0 * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
            if psi_next == psi and q_next == q:
                # a fixed point of the step map, which depends on (Psi, q)
                # alone: every later step records this sample again
                samples += [(later * dt, r, s, i, phi, psi) for later in range(step + 1, steps + 1)
                            if later % sample_every == 0 or later == steps]
                return samples, evals, step
            psi, q = psi_next, q_next


def _same_bits(a: float, b: float) -> bool:
    """Whether two floats have the same bits: -0.0 is not 0.0, and a NaN
    matches nothing."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def psi_fixed_point(
    dist: DegreeDistribution,
    params: ModelParams,
    plan: InoculationPlan | None = None,
) -> float:
    """Largest root Psi* of the end-of-spreading self-consistency equation.

    sigma * Psi = <k**alpha> - sum_k k**alpha P(k)
                  * exp(-lam (1 - g_k) k**(1+beta) Psi / <k**(1+beta)>)

    Zero is always a root.  The right-hand side f is concave and increasing in
    Psi, so a nonzero root exists exactly when its slope at zero exceeds one,
    i.e. above the rumor threshold; below it the result is 0.  Above it,
    Newton's method on the convex h(x) = x - f(x), started from the upper
    bound <k**alpha>/sigma, descends monotonically onto the largest root and
    stops once a step is below _PSI_TOL * max(1, x).  h is evaluated through
    expm1, which is exact near x = 0 and never produces subnormals.  Falls
    back to bisection if h' is not positive or the iterates stop descending
    (rounding right at the critical point) or _NEWTON_MAX_STEPS steps pass;
    bisection stops once the bracket is narrower than _PSI_TOL times its
    upper end.  Each call logs its path (zero, newton or bisection) and step
    count at DEBUG level.
    """
    weights, rates = _class_terms(dist, params, plan)
    sigma = params.sigma
    # <k**alpha> is sum_k w_k, summed as the moment sums it
    kalpha_mean = dist.moment(params.alpha)
    weighted_rates = weights * rates
    slope_sum = float(weighted_rates.sum())
    if slope_sum / sigma <= 1.0:
        _log.debug("psi_fixed_point: path=zero steps=0")
        return 0.0

    em = np.empty_like(rates)

    def h(x: float) -> tuple[float, float]:
        """h(x) = x + sum_k w_k expm1(-a_k x) / sigma and its derivative."""
        np.multiply(rates, -x, out=em)
        np.expm1(em, out=em)
        return x + float(weights @ em) / sigma, 1.0 - (slope_sum + float(weighted_rates @ em)) / sigma

    x = kalpha_mean / sigma
    for step in range(1, _NEWTON_MAX_STEPS + 1):
        hx, slope = h(x)
        if slope <= 0.0:
            break
        x_next = x - hx / slope
        if abs(x_next - x) < _PSI_TOL * max(1.0, x):
            _log.debug("psi_fixed_point: path=newton steps=%d", step)
            return x_next
        if not 0.0 < x_next < x:
            break
        x = x_next

    # bisect h between a point where it is negative and the upper bound
    hi = kalpha_mean / sigma
    lo = hi
    for halvings in range(1, 201):
        lo *= 0.5
        if h(lo)[0] < 0.0:
            break
    else:
        raise FixedPointError("could not bracket the nonzero fixed point")
    for step in range(1, 201):
        mid = 0.5 * (lo + hi)
        if h(mid)[0] < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _PSI_TOL * hi:
            _log.debug("psi_fixed_point: path=bisection steps=%d", halvings + step)
            return 0.5 * (lo + hi)
    raise FixedPointError("bisection failed to converge")


def final_rumor_size(
    dist: DegreeDistribution,
    params: ModelParams,
    plan: InoculationPlan | None = None,
) -> float:
    """Final informed fraction R from the Psi fixed point.

    R = sum_k P(k) (1 - g_k) (1 - exp(-a_k Psi*))
      = -sum_k P(k) (1 - g_k) expm1(-a_k Psi*),
    a_k = lam (1 - g_k) k**(1+beta) / <k**(1+beta)>,

    so inoculated nodes count neither as informed nor as reachable.  Reduces
    to -sum_k P(k) expm1(-a_k Psi*) without inoculation.

    The sum is of the kind psi_fixed_point and integrate evaluate: expm1 is
    exact near zero, never produces subnormals and rounds to exactly -1.0
    once a_k Psi* exceeds about 37.43 (see _EXPM1_CUT), so no exponent needs
    a floor and nothing is subtracted from 1.  Each term is P(k) (1 - g_k) >= 0
    times expm1 of a nonpositive exponent, so it is <= 0 and R >= 0 needs no
    clamp; R is capped at 1 only because the probabilities may sum to
    1 + 1e-12.  Below the threshold Psi* = 0 and R is exactly 0.0, with no
    exponential evaluated.  P(k) (1 - g_k) is a term per (distribution, plan)
    (see _plan_terms); only Psi* and a_k are computed per point.
    """
    # the point's rates; psi_fixed_point finds them kept and reuses them
    rates = _class_terms(dist, params, plan)[1]
    psi_star = psi_fixed_point(dist, params, plan)
    if psi_star == 0.0:
        return 0.0
    free_probs = _plan_terms(dist, plan)[1]
    return min(-float(free_probs @ np.expm1(rates * -psi_star)), 1.0)
