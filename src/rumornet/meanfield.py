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
the block ODEs reduce exactly to two scalar ODEs for Psi and R (the
edge-based reduction of Miller, J. Math. Biol. 2011), which ``integrate``
solves with the adaptive Dormand-Prince 5(4) pair to a relative error of
about 3e-11 per step, in steps of at most 1/sigma; its docstring gives the
error control and the work a stage skips.  At the end of spreading the final
rumor size follows from the largest root of the self-consistent fixed-point
equation for Psi(infinity).
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
from operator import mul

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

# Dormand-Prince 5(4): the stage rows of the Butcher tableau (the nodes are
# their sums), the last row being the 5th-order solution, so a step's last
# stage is the next step's first; the 5th- minus 4th-order weights; and the
# weights of Hairer's 4th-order dense output
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_DP_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
         701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)

# integrate's step control.  A step is accepted when its error estimate is
# within atol + _RTOL |y| for each of Psi and q, in the RMS norm over the two.
# An early error in Psi grows with the outbreak, so Psi is held to a relative
# error down to states of about 3e-6 (_PSI_ATOL / _RTOL); q relaxes to its
# target at rate sigma, so its errors decay and an absolute floor suffices.
# A step shrinks by at least _SHRINK and grows by at most _GROW, with the
# _SAFETY margin, and may not fall below _STEP_FLOOR of the time span
_RTOL = 3e-11
_PSI_ATOL = 1e-16
_Q_ATOL = 1e-12
_SAFETY = 0.9
_SHRINK = 0.2
_GROW = 10.0
_STEP_FLOOR = 1e-12

# how far a state's compartments may stray from [0, 1] and from summing to 1
_STATE_ATOL = 1e-9


class IntegrationError(RuntimeError):
    """The integrated state left its valid range beyond tolerance, or the
    step control broke down."""


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
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")


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
    """Adaptive integration of the mean-field dynamics from ``initial``.

    The dynamics are integrated through their exact two-scalar reduction.
    Ignorants obey rho_i(k, t) = rho_i(k, 0) exp(-a_k Psi(t)), so
    Phi + sum_k w_k rho_i(k) + sigma Psi is conserved (w_k = k**alpha P(k),
    a_k the rate of _class_terms) and the block ODEs close in Psi and R:

        dPsi/dt = Phi = Phi(0) - sum_k w_k rho_i(k, 0) expm1(-a_k Psi) - sigma Psi
        dR/dt   = sigma S = sigma (1 - I - R),
        I = I(0) + sum_k P(k) rho_i(k, 0) expm1(-a_k Psi)

    The pair (Psi, q = R - R(0)) is solved by the embedded Dormand-Prince
    5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 19, 1980) with
    local extrapolation: a step is accepted when its error estimate, in the
    RMS norm scaled by _PSI_ATOL + _RTOL |Psi| and _Q_ATOL + _RTOL |q|, is
    at most 1, and the next step is sized from it.  The Jacobian is
    triangular with eigenvalues dPhi/dPsi >= -sigma and -sigma, so steps are
    capped at 1/sigma, inside the pair's stability region near equilibrium,
    where the monotone R would otherwise wobble at the tolerance.  The first
    step follows Hairer's starting-step rule (Hairer, Norsett & Wanner,
    Solving ODEs I, sec. II.4), so a large dt never lets an out-of-range
    first step through.

    A stage costs one expm1 over the classes, which never produces
    subnormals.  Once a_k Psi > _EXPM1_CUT, expm1(-a_k Psi) rounds to
    exactly -1.0, so the classes past the cut (a suffix once they are sorted
    by a_k) contribute a constant, summed once before the loop, and only
    the rest are evaluated.  Each class's term is bit-identical to the full
    sum's; only the order of summation differs.  At Psi <= 0 or a NaN Psi
    every class is evaluated.

    ``dt`` is the sample spacing, not a step size: the aggregates of
    Trajectory are recorded at time step * dt for every ``sample_every``-th
    of the round(t_end / dt) sample steps and at the last, whose time ends
    the integration.  Interior samples come from the pair's 4th-order dense
    output; the last is the end of the last step.  Raises IntegrationError
    when Psi drops below -1e-6 or I, S, R leave [-1e-6, 1 + 1e-6] or are
    not finite at a step end or a sample, when an error estimate is not
    finite, or when the step falls below _STEP_FLOOR of the time span.
    Each successful call logs its accepted and rejected steps, final Psi,
    final R and the number of per-class exponentials evaluated (``evals``;
    rejected stages and samples included) at DEBUG level.

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
    sample_steps = [*range(0, steps, sample_every), steps]
    samples, accepted, rejected, evals = _reduced_dopri5(initial, dist, params, plan, sample_steps, dt)
    times, r, s, i, phi, psi = np.array(samples).T
    _log.debug("integrate: accepted=%d rejected=%d psi=%r r=%r evals=%d",
               accepted, rejected, float(psi[-1]), float(r[-1]), evals)
    return Trajectory(times=times, r=r, s=s, i=i, phi=phi, psi=psi)


def _reduced_dopri5(initial, dist, params, plan, sample_steps, dt) -> tuple[list[tuple], int, int, int]:
    """Dormand-Prince 5(4) on (Psi, R) from 0 to sample_steps[-1] * dt;
    returns the (t, R, S, I, Phi, Psi) samples at step * dt for each step
    of ``sample_steps``, the accepted and rejected steps and the number of
    per-class exponentials evaluated.

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

    def phi_and_gain(psi: float) -> tuple[float, float]:
        """Phi and the gain of the informed, -(I - I(0)), at Psi."""
        nonlocal evals
        # not psi > 0 (zero, negative or NaN): every class is evaluated
        cut = bisect_right(rate_array, _EXPM1_CUT / psi) if psi > 0.0 else classes
        evals += cut
        head = buf[:cut]
        np.multiply(neg_rates[:cut], psi, out=head)
        np.expm1(head, out=head)
        sum_phi, sum_i = (mix[:, :cut] @ head).tolist()
        return phi0 - (sum_phi - tail_phi[cut]) - sigma * psi, -(sum_i - tail_i[cut])

    def sample(t: float, psi: float, q: float, phi: float, gain: float) -> tuple:
        i, s, r = i0 - gain, s0 + gain - q, r0 + q
        if not (psi >= -1e-6 and -1e-6 <= min(i, s, r) and max(i, s, r) <= 1.0 + 1e-6):
            raise IntegrationError(
                f"state left range at t={t:.6g} (Psi={psi:.3e}, I={i:.3e}, S={s:.3e}, R={r:.3e})"
            )
        return t, r, s, i, phi, psi

    psi = q = 0.0
    phi, gain = phi_and_gain(psi)
    samples = [sample(0.0, psi, q, phi, gain)]
    t_final = sample_steps[-1] * dt
    if t_final == 0.0:
        return samples, 0, 0, evals
    h_max = min(1.0 / sigma, t_final)
    h_floor = _STEP_FLOOR * t_final
    waiting = iter(sample_steps[1:])
    next_sample = next(waiting)
    # the first stage of every step is the last of the one before (FSAL)
    k_psi, k_q = [phi] + [0.0] * 6, [sigma * (s0 + gain)] + [0.0] * 6
    accepted = rejected = 0
    t = 0.0

    # a diverging stage overflows its exponentials; the error estimate or
    # the range check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        # Hairer's starting step from Psi = q = 0, where the rule's Euler
        # probe is 1e-6: a 5th-order guess from the scaled derivative and
        # its change over the probe
        probe = min(1e-6, h_max)
        phi_e, gain_e = phi_and_gain(probe * k_psi[0])
        dq_e = sigma * (s0 + gain_e - probe * k_q[0])
        d1 = _rms(k_psi[0] / _PSI_ATOL, k_q[0] / _Q_ATOL)
        d2 = _rms((phi_e - k_psi[0]) / _PSI_ATOL, (dq_e - k_q[0]) / _Q_ATOL) / probe
        h = min(100.0 * probe, (0.01 / max(d1, d2, 1e-15)) ** 0.2, h_max)
        grow = _GROW

        while True:
            if not h >= h_floor:
                raise IntegrationError(f"step fell to {h:.3e} at t={t:.6g}, below the floor {h_floor:.3e}")
            # a step that would leave under 1% of itself to go ends the span
            last = t + 1.01 * h >= t_final
            if last:
                h = t_final - t
            for stage, row in enumerate(_DP_A[1:], 1):
                psi_k = psi + h * sum(map(mul, row, k_psi))
                q_k = q + h * sum(map(mul, row, k_q))
                phi_k, gain_k = phi_and_gain(psi_k)
                k_psi[stage], k_q[stage] = phi_k, sigma * (s0 + gain_k - q_k)
            # the last stage sits at the 5th-order solution
            psi_new, q_new = psi_k, q_k
            err = _rms(h * sum(map(mul, _DP_E, k_psi)) / (_PSI_ATOL + _RTOL * max(abs(psi), abs(psi_new))),
                       h * sum(map(mul, _DP_E, k_q)) / (_Q_ATOL + _RTOL * max(abs(q), abs(q_new))))
            if not math.isfinite(err):
                raise IntegrationError(f"error estimate {err} at t={t:.6g} with step {h:.3e}")
            if err > 1.0:
                rejected += 1
                h *= max(_SHRINK, _SAFETY * err ** -0.2)
                grow = 1.0
                continue

            accepted += 1
            t_new = t_final if last else t + h
            while next_sample * dt < t_new:
                theta = (next_sample * dt - t) / h
                psi_s, q_s = (_dense(theta, h, y, y_new, k) for y, y_new, k in ((psi, psi_new, k_psi), (q, q_new, k_q)))
                samples.append(sample(next_sample * dt, psi_s, q_s, *phi_and_gain(psi_s)))
                next_sample = next(waiting)
            if last:
                samples.append(sample(t_final, psi_new, q_new, phi_k, gain_k))
                return samples, accepted, rejected, evals
            sample(t_new, psi_new, q_new, phi_k, gain_k)  # the range check at every step end
            t, psi, q = t_new, psi_new, q_new
            k_psi[0], k_q[0] = k_psi[6], k_q[6]
            # an error of 0 (a state at rest) grows the step by _GROW
            h = min(h * min(grow, _SAFETY * max(err, 1e-10) ** -0.2), h_max)
            grow = _GROW


def _rms(a: float, b: float) -> float:
    return math.hypot(a, b) / math.sqrt(2.0)


def _dense(theta: float, h: float, y: float, y_new: float, k: list[float]) -> float:
    """Hairer's 4th-order dense output of a Dormand-Prince step of size h
    from y to y_new with stage derivatives k, at fraction theta of the step."""
    diff = y_new - y
    bspl = h * k[0] - diff
    bend = diff - h * k[6] - bspl
    rest = h * sum(map(mul, _DP_D, k))
    return y + theta * (diff + (1.0 - theta) * (bspl + theta * (bend + (1.0 - theta) * rest)))


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
