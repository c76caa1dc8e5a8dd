"""Degree-block mean-field dynamics of rumor spreading.

Tracks per-degree-class fractions of ignorants, spreaders, and stiflers under
the nonlinear-contact model: a degree-k spreader reaches k**alpha neighbors
per unit time and per-edge transmission is weighted by the degree-dependent
tie strength, which closes (on uncorrelated networks) into the force term
lam * (1 - g_k) * k**(1+beta) / <k**(1+beta)> * rho_i(k) * Phi(t)
with Phi(t) = sum_l l**alpha P(l) rho_s(l, t).  The classical all-neighbor
model (with its contact-stifling delta terms) is kept as a baseline; at
alpha=1, beta=0, delta=0 the two coincide exactly.

The auxiliary integral Psi(t) = integral of Phi determines everything at the
end of spreading: ignorants obey the closed form
rho_i(k, t) = exp(-lam * k**(1+beta) * Psi(t) / <k**(1+beta)>)
and the final rumor size follows from the largest root of the self-consistent
fixed-point equation for Psi(infinity).  With a general stifling rate sigma
the dynamics are the sigma=1 dynamics on the rescaled clock tau = sigma * t,
so the fixed-point equation picks up a single factor of sigma and all
sigma = 1 formulas are recovered verbatim.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .inoculation import InoculationPlan
from .netgen import DegreeDistribution, TieStrengthParams

__all__ = [
    "DegreeClassState",
    "FixedPointError",
    "IntegrationError",
    "ModelParams",
    "Trajectory",
    "closed_form_ignorant",
    "derivatives_classical",
    "derivatives_modified",
    "final_rumor_size",
    "integrate",
    "psi_fixed_point",
    "uniform_seed_state",
]


_log = logging.getLogger(__name__)

# np.exp is many times slower when its results are subnormal (below about
# e**-708); clipped here, e**x stays a normal float and the clipped terms are
# still negligible next to any ignorant fraction that matters
_EXP_FLOOR = -700.0


class IntegrationError(RuntimeError):
    """A state component left [0, 1] beyond tolerance during integration."""


class FixedPointError(RuntimeError):
    """The self-consistent fixed point did not converge."""


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the dynamics.

    lam    transmission rate
    alpha  contact (spreadness) exponent, in (0, 1]
    beta   tie-strength exponent
    sigma  spontaneous stifling rate (default 1)
    delta  contact-stifling rate, used only by the classical baseline
    b      tie-strength prefactor (cancels from all normalized rates)
    """

    lam: float
    alpha: float
    beta: float = 0.0
    sigma: float = 1.0
    delta: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")

    @property
    def tie(self) -> TieStrengthParams:
        return TieStrengthParams(beta=self.beta, b=self.b)


@dataclass
class DegreeClassState:
    """Per-degree-class compartment fractions at one instant."""

    rho_i: np.ndarray
    rho_s: np.ndarray
    rho_r: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        self.rho_i = np.asarray(self.rho_i, dtype=np.float64)
        self.rho_s = np.asarray(self.rho_s, dtype=np.float64)
        self.rho_r = np.asarray(self.rho_r, dtype=np.float64)
        if not (self.rho_i.shape == self.rho_s.shape == self.rho_r.shape):
            raise ValueError("compartment arrays must share one shape")
        if self.t < 0:
            raise ValueError("time must be nonnegative")
        self.validate()

    def validate(self, atol: float = 1e-9) -> None:
        total = self.rho_i + self.rho_s + self.rho_r
        if np.any(np.abs(total - 1.0) > atol):
            worst = float(np.abs(total - 1.0).max())
            raise ValueError(f"compartments must sum to 1 within {atol}, worst deviation {worst:.3e}")
        for name, arr in (("rho_i", self.rho_i), ("rho_s", self.rho_s), ("rho_r", self.rho_r)):
            if np.any(arr < -atol) or np.any(arr > 1.0 + atol):
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


def _class_terms(dist: DegreeDistribution, params: ModelParams, plan: InoculationPlan | None):
    """Per-class (g_k, w_k, a_k): the inoculated fraction (0.0 without a plan),
    the weight k**alpha P(k) and the rate a_k = lam (1 - g_k) k**(1+beta) / <k**(1+beta)>."""
    g_k = plan.profile(dist) if plan is not None else 0.0
    rates = params.lam * (1.0 - g_k) * dist.power(1.0 + params.beta) / dist.moment(1.0 + params.beta)
    return g_k, dist.power(params.alpha) * dist.probs, rates


def derivatives_modified(
    state: DegreeClassState,
    dist: DegreeDistribution,
    params: ModelParams,
    plan: InoculationPlan | None = None,
):
    """Time derivatives of the nonlinear-contact model, optionally inoculated.

    Returns (d_rho_i, d_rho_s, d_rho_r).
    """
    state.validate()
    if state.rho_i.shape != dist.support.shape:
        raise ValueError("state and distribution supports disagree")
    k = dist.support.astype(np.float64)
    phi = float((k ** params.alpha * dist.probs * state.rho_s).sum())
    infection = _class_terms(dist, params, plan)[2] * state.rho_i * phi
    d_i = -infection
    d_s = infection - params.sigma * state.rho_s
    d_r = params.sigma * state.rho_s
    return d_i, d_s, d_r


def derivatives_classical(state: DegreeClassState, dist: DegreeDistribution, params: ModelParams):
    """Time derivatives of the all-neighbor baseline with contact stifling.

    Uses the uncorrelated closure P(l|k) = l P(l) / <k>.  Spreaders convert
    ignorants at rate lam, turn stifler on meeting spreaders or stiflers at
    rate delta, and stifle spontaneously at rate sigma.
    """
    state.validate()
    if state.rho_i.shape != dist.support.shape:
        raise ValueError("state and distribution supports disagree")
    k = dist.support.astype(np.float64)
    mean_k = dist.moment(1.0)
    edge_weight = k * dist.probs / mean_k
    spreader_contact = float((edge_weight * state.rho_s).sum())
    informed_contact = float((edge_weight * (state.rho_s + state.rho_r)).sum())
    infection = params.lam * k * state.rho_i * spreader_contact
    contact_stifling = params.delta * k * state.rho_s * informed_contact
    d_i = -infection
    d_s = infection - contact_stifling - params.sigma * state.rho_s
    d_r = contact_stifling + params.sigma * state.rho_s
    return d_i, d_s, d_r


@dataclass
class Trajectory:
    """Sampled mean-field trajectory with per-class states and aggregates.

    Aggregates: R = sum_k P(k) rho_r, S = sum_k P(k) rho_s,
    I = sum_k P(k) rho_i, Phi = sum_k k**alpha P(k) rho_s, Psi = integral Phi.
    With sigma != 1 the identity Psi(t) = sum_k k**alpha P(k) rho_r(k,t) / sigma
    holds instead of the bare rho_r weighting.
    """

    times: np.ndarray
    rho_i: np.ndarray  # shape (samples, classes)
    rho_s: np.ndarray
    rho_r: np.ndarray
    r: np.ndarray
    s: np.ndarray
    i: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    support: np.ndarray = field(repr=False, default=None)
    probs: np.ndarray = field(repr=False, default=None)

    @property
    def final_r(self) -> float:
        return float(self.r[-1])

    def state_at(self, index: int) -> DegreeClassState:
        return DegreeClassState(
            rho_i=self.rho_i[index].copy(),
            rho_s=self.rho_s[index].copy(),
            rho_r=self.rho_r[index].copy(),
            t=float(self.times[index]),
        )

    def to_csv(self, path, per_class_path=None) -> None:
        """Write ``t,R,S,I,Phi,Psi`` rows; optionally ``t,k,rho_i,rho_s,rho_r``."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("t,R,S,I,Phi,Psi\n")
            for j in range(self.times.size):
                fh.write(
                    f"{float(self.times[j])!r},{float(self.r[j])!r},{float(self.s[j])!r},"
                    f"{float(self.i[j])!r},{float(self.phi[j])!r},{float(self.psi[j])!r}\n"
                )
        if per_class_path is not None:
            with open(per_class_path, "w", encoding="ascii") as fh:
                fh.write("t,k,rho_i,rho_s,rho_r\n")
                for j in range(self.times.size):
                    for c, k in enumerate(self.support):
                        fh.write(
                            f"{float(self.times[j])!r},{int(k)},{float(self.rho_i[j, c])!r},"
                            f"{float(self.rho_s[j, c])!r},{float(self.rho_r[j, c])!r}\n"
                        )


def integrate(
    initial: DegreeClassState,
    dist: DegreeDistribution,
    params: ModelParams,
    plan: InoculationPlan | None = None,
    t_end: float = 100.0,
    dt: float = 0.01,
    model: str = "modified",
    sample_every: int = 1,
) -> Trajectory:
    """Fixed-step RK4 integration of the block ODEs.

    ``sample_every`` thins the recorded samples (aggregates and per-class
    states alike) to every that-many steps; the initial and final states are
    always recorded.  Psi rides along as an extra state variable so it carries
    the same fourth-order accuracy as the compartments.  Raises
    IntegrationError if any component leaves [-1e-6, 1 + 1e-6].
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if model not in ("modified", "classical"):
        raise ValueError(f"unknown model {model!r}")
    if model == "classical" and plan is not None and plan.kind != "none":
        raise ValueError("the classical baseline has no inoculation term")
    initial.validate()
    if initial.rho_i.shape != dist.support.shape:
        raise ValueError("state and distribution supports disagree")

    n = dist.support.size
    k = dist.support.astype(np.float64)
    probs = dist.probs
    kalpha_p = k ** params.alpha * probs
    if model == "modified":
        force = _class_terms(dist, params, plan)[2]
        sigma = params.sigma

        def rhs(y):
            rho_i = y[:n]
            rho_s = y[n:2 * n]
            phi = kalpha_p @ rho_s
            infection = force * rho_i * phi
            out = np.empty(3 * n + 1)
            out[:n] = -infection
            out[n:2 * n] = infection - sigma * rho_s
            out[2 * n:3 * n] = sigma * rho_s
            out[3 * n] = phi
            return out
    else:
        edge_weight = k * probs / dist.moment(1.0)
        lam, delta, sigma = params.lam, params.delta, params.sigma

        def rhs(y):
            rho_i = y[:n]
            rho_s = y[n:2 * n]
            rho_r = y[2 * n:3 * n]
            spreader_contact = edge_weight @ rho_s
            informed_contact = edge_weight @ (rho_s + rho_r)
            infection = lam * k * rho_i * spreader_contact
            stifling = delta * k * rho_s * informed_contact
            out = np.empty(3 * n + 1)
            out[:n] = -infection
            out[n:2 * n] = infection - stifling - sigma * rho_s
            out[2 * n:3 * n] = stifling + sigma * rho_s
            out[3 * n] = kalpha_p @ rho_s
            return out

    steps = int(round(t_end / dt))
    y = np.concatenate([initial.rho_i, initial.rho_s, initial.rho_r, [0.0]])
    times = [0.0]
    samples = [y.copy()]
    for step in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        comp = y[:3 * n]
        if comp.min() < -1e-6 or comp.max() > 1.0 + 1e-6:
            raise IntegrationError(
                f"component left [0, 1] at t={step * dt:.6g} "
                f"(min={comp.min():.3e}, max={comp.max():.3e}); reduce dt"
            )
        if step % sample_every == 0 or step == steps:
            times.append(step * dt)
            samples.append(y.copy())

    arr = np.array(samples)
    rho_i = arr[:, :n]
    rho_s = arr[:, n:2 * n]
    rho_r = arr[:, 2 * n:3 * n]
    return Trajectory(
        times=np.array(times),
        rho_i=rho_i,
        rho_s=rho_s,
        rho_r=rho_r,
        r=rho_r @ probs,
        s=rho_s @ probs,
        i=rho_i @ probs,
        phi=rho_s @ kalpha_p,
        psi=arr[:, 3 * n],
        support=dist.support,
        probs=probs,
    )


def closed_form_ignorant(k: int, psi_t: float, dist: DegreeDistribution, params: ModelParams):
    """Ignorant fraction exp(-lam * k**(1+beta) * psi_t / <k**(1+beta)>).

    Exact for the un-inoculated dynamics at any sigma, with psi_t the running
    integral of Phi.  ``k`` may be an array.
    """
    if np.any(np.asarray(psi_t) < 0):
        raise ValueError("psi_t must be nonnegative")
    kk = np.asarray(k, dtype=np.float64)
    return np.exp(-params.lam * kk ** (1.0 + params.beta) * psi_t / dist.moment(1.0 + params.beta))


def psi_fixed_point(
    dist: DegreeDistribution,
    params: ModelParams,
    plan: InoculationPlan | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> float:
    """Largest root Psi* of the end-of-spreading self-consistency equation.

    sigma * Psi = <k**alpha> - sum_k k**alpha P(k)
                  * exp(-lam (1 - g_k) k**(1+beta) Psi / <k**(1+beta)>)

    Zero is always a root.  The right-hand side f is concave and increasing in
    Psi, so a nonzero root exists exactly when its slope at zero exceeds one,
    i.e. above the rumor threshold; below it the result is 0.  Above it,
    Newton's method on the convex h(x) = x - f(x), started from the upper
    bound <k**alpha>/sigma, descends monotonically onto the largest root and
    stops once a step is below tol * max(1, x).  h is evaluated through expm1,
    which is exact near x = 0 and never produces subnormals.  Falls back to
    bisection if h' is not positive or the iterates stop descending (rounding
    right at the critical point) or max_iter steps pass.  Each call logs its
    path (zero, newton or bisection) and step count at DEBUG level.
    """
    _, weights, rates = _class_terms(dist, params, plan)
    sigma = params.sigma
    kalpha_mean = float(weights.sum())
    weighted_rates = weights * rates
    slope_sum = float(weighted_rates.sum())
    if slope_sum / sigma <= 1.0:
        _log.debug("psi_fixed_point: path=zero steps=0")
        return 0.0

    neg_rates = -rates

    def h(x: float) -> tuple[float, float]:
        """h(x) = x + sum_k w_k expm1(-a_k x) / sigma and its derivative."""
        em = np.expm1(neg_rates * x)
        return x + float(weights @ em) / sigma, 1.0 - (slope_sum + float(weighted_rates @ em)) / sigma

    x = kalpha_mean / sigma
    for step in range(1, max_iter + 1):
        hx, slope = h(x)
        if slope <= 0.0:
            break
        x_next = x - hx / slope
        if abs(x_next - x) < tol * max(1.0, x):
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
        if hi - lo < tol:
            _log.debug("psi_fixed_point: path=bisection steps=%d", halvings + step)
            return 0.5 * (lo + hi)
    raise FixedPointError("bisection failed to converge")


def final_rumor_size(
    dist: DegreeDistribution,
    params: ModelParams,
    plan: InoculationPlan | None = None,
) -> float:
    """Final informed fraction R from the Psi fixed point.

    R = 1 - sum_k P(k) (1 - g_k) exp(-lam (1 - g_k) k**(1+beta) Psi* / <k**(1+beta)>)
        - sum_k P(k) g_k

    so inoculated nodes count neither as informed nor as reachable.  Reduces
    to 1 - sum_k P(k) exp(...) without inoculation.
    """
    g_k, _, rates = _class_terms(dist, params, plan)
    psi_star = psi_fixed_point(dist, params, plan)
    ignorant = np.exp(np.maximum(-rates * psi_star, _EXP_FLOOR))
    still_ignorant = float((dist.probs * (1.0 - g_k) * ignorant).sum())
    inoculated = float((dist.probs * g_k).sum())
    r = 1.0 - still_ignorant - inoculated
    return min(max(r, 0.0), 1.0)
