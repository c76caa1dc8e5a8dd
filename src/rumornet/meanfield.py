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
solves with Hairer's adaptive 8th-order pair DOP853 to a relative error of
about 3e-11 per step, in steps of at most 1/sigma, sampling between step
ends through the pair's 7th-order dense output.  Phi is concave in Psi, so a
tangent bounds how far the state can still move; once that bound is within
the step tolerance, the curve holds the rest state to its end.  The
docstring of ``integrate`` gives the error control, the reason for the step
cap, the rest bound and the work a stage skips.  At the end of spreading
the final rumor size follows from the largest root of the self-consistent
fixed-point equation for Psi(infinity).
With a general stifling rate sigma the dynamics are the sigma=1 dynamics on
the rescaled clock tau = sigma * t, so the fixed-point equation picks up a
single factor of sigma and all sigma = 1 formulas are recovered verbatim.

The per-class terms have two lifetimes.  A point's rates factor as
a_k = lam b_k, with b_k = (1 - g_k) k**(1+beta) / <k**(1+beta)> free of lam,
and every exponent is evaluated as -b_k (lam Psi).  So all per-class terms
belong to a family, one (distribution, alpha, beta, plan), and a family's
points differ only in the scalars lam and sigma.  ``_family_table`` sorts
the family's classes by b_k once and keeps, read-only, b_k, the weights
w_k = k**alpha P(k), w_k b_k and P(k) (1 - g_k) in that order with their
suffix sums.  Every solver reads its sums over the classes, of
expm1(-b_k lam Psi) and of b_k exp(-b_k lam Psi) with per-class weights,
from one _ClassSums per call, which evaluates only the classes below a cut
and, for integrate, sums them as a power series while lam Psi is small.
The last family's table is kept on the distribution
(``DegreeDistribution.family_table``, which only ``_family_table`` reads
and sets), so a sweep over lam that runs one family's points in a row
builds each table once, and the table dies with its distribution.  It is
the only per-class term kept across points: the powers k**q, the moments
and a plan's g_k are computed afresh for each table built.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
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
    "critical_rate",
    "final_rumor_size",
    "integrate",
    "psi_fixed_point",
    "uniform_seed_state",
]


_log = logging.getLogger(__name__)

# expm1(-x) rounds to exactly -1.0 once x > 54 ln 2 (about 37.43); the cut
# sits above that with a margin for the rounding of b_k * (lam * Psi)
_EXPM1_CUT = 38.0

# the largest double, which _ClassSums reads an overflowed scale lam Psi as
_MAX_SCALE = math.nextafter(math.inf, 0.0)

# while every class has b_k |lam Psi| <= _SERIES_RHO, integrate sums the
# classes as one power series in lam Psi cut after the _SERIES_TERMS-th power
# (_ClassSums), whose truncation is below 1e-19 of the sum there
_SERIES_RHO = 2.0
_SERIES_TERMS = 26

# psi_fixed_point stops once a step, or the bisection bracket, is below this
# fraction of the iterate, and falls back to bisection after this many
# Newton steps
_PSI_TOL = 1e-10
_NEWTON_MAX_STEPS = 100_000

# Hairer's DOP853, an explicit Runge-Kutta pair of order 8 with embedded
# error estimators of orders 5 and 3 and a 7th-order dense output (Hairer,
# Norsett & Wanner, Solving ODEs I, 2nd ed., sec. II.5 and II.6), with his
# coefficients rounded to doubles.  _DOP_A holds the stage rows of the
# Butcher tableau (the nodes are their sums), the last row being the
# 8th-order solution, so a step's last stage is the next step's first;
# _DOP_A_DENSE the rows of the three stages only the dense output uses.
# _DOP_E5 and _DOP_E3 are the 8th- minus the 5th-order and the 8th- minus
# the 3rd-order weights, and _DOP_D the stage weights of the dense output's
# four highest coefficients
_DOP_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671, 20.154067550477894,
     -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193, 15.279233632882423,
     -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927, -18.52006565999696,
     22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188, 27.94888452941996,
     -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
)
_DOP_A_DENSE = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
     0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0.0,
     0.0, -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_DOP_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
          -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_DOP_E3 = tuple(b - b3 for b, b3 in zip(_DOP_A[12], (0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                                     0.7338466882816118, 0.0, 0.0, 0.022058823529411766)))
_DOP_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
)

# integrate's step control.  A step is accepted when its error estimate is
# within atol + _RTOL |y| for each of Psi and q, in the RMS norm over the two,
# and its end passes the range check of a sample; any other trial step is
# rejected and shrunk.  An early error in Psi grows with the outbreak, so Psi
# is held to a relative error down to states of about 3e-6
# (_PSI_ATOL / _RTOL); q relaxes to its target at rate sigma, so its errors
# decay and an absolute floor suffices.
# A step shrinks by at least _SHRINK and grows by at most _GROW, with the
# _SAFETY margin, and may not fall below _STEP_FLOOR of the time span or of
# the curve's time scale at the start, whichever is shorter
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
    if not 0.0 <= s0 <= 1.0:
        raise ValueError(f"initial spreader fraction must lie in [0, 1], got {s0}")
    n = dist.support.size
    return DegreeClassState(
        rho_i=np.full(n, 1.0 - s0),
        rho_s=np.full(n, s0),
        rho_r=np.zeros(n),
    )


@dataclass(frozen=True, eq=False)
class _Family:
    """The lam-free per-class terms of one family, sorted by b_k; read-only.

    order  the stable argsort of b_k: equal factors keep their order, and a
           targeted plan zeroes the hubs' b_k, so b_k is not monotone in k
    rates  b_k in that order; a point's rates are a_k = lam b_k
    rows   w_k = k**alpha P(k), w_k b_k and P(k) (1 - g_k), in that order
    tails  per row, the sums over the classes c.. at index c, the last
           being 0; memoryviews, so an entry is a Python float
    slope  S_0 = sum_k w_k b_k, so sum_k w_k a_k = lam S_0
    kalpha_mean  <k**alpha> = sum_k w_k, summed in support order
    """

    order: np.ndarray
    rates: np.ndarray
    rows: np.ndarray
    tails: tuple[memoryview, ...]
    slope: float
    kalpha_mean: float

    def critical_rate(self, sigma: float) -> float:
        """sigma * (1 / S_0), or infinity when S_0 = 0 (see critical_rate)."""
        return sigma * (1.0 / self.slope) if self.slope > 0.0 else math.inf


def _suffix_sums(rows: np.ndarray) -> tuple[memoryview, ...]:
    """Per row, the sums over the columns c.. at index c, with a last 0."""
    tails = np.empty((rows.shape[0], rows.shape[1] + 1))
    tails[:, -1] = 0.0
    np.cumsum(rows[:, ::-1], axis=1, out=tails[:, -2::-1])
    tails.setflags(write=False)
    return tuple(map(memoryview, tails))


def _sorted_family(weights: np.ndarray, rates: np.ndarray, free_probs: np.ndarray) -> _Family:
    """The family table of the per-class w_k, b_k and P(k) (1 - g_k), given
    in support order."""
    order = np.argsort(rates, kind="stable")
    rates = rates[order]
    rows = np.empty((3, rates.size))
    # order is a permutation, so no index needs the bounds check, which
    # mode="raise" would buffer
    weights.take(order, out=rows[0], mode="clip")
    np.multiply(rows[0], rates, out=rows[1])
    free_probs.take(order, out=rows[2], mode="clip")
    for array in (order, rates, rows):
        array.setflags(write=False)
    tails = _suffix_sums(rows)
    return _Family(order=order, rates=rates, rows=rows, tails=tails, slope=tails[1][0],
                   kalpha_mean=float(weights.sum()))


def _family_table(dist: DegreeDistribution, alpha: float, beta: float, plan: InoculationPlan | None) -> _Family:
    """The table of the family (dist, alpha, beta, plan), with
    b_k = (1 - g_k) k**(1+beta) / <k**(1+beta)> and its products in the order
    written.  The last family's table is kept in ``dist.family_table`` as a
    (key, table) pair; a new family replaces it, so a run keeps one table
    whatever its grid."""
    key = (alpha, beta, plan)
    if dist.family_table is None or dist.family_table[0] != key:
        one_minus_g = 1.0 - plan.profile(dist) if plan is not None else 1.0
        # <k**(1+beta)> from the one power; one that overflows, or a mean
        # that underflows to 0, would make every b_k NaN
        with np.errstate(over="ignore"):
            k_power = dist.power(1.0 + beta)
            mean = float((k_power * dist.probs).sum())
        if not (np.isfinite(k_power).all() and 0.0 < mean < math.inf):
            raise ValueError(f"beta = {beta!r} is out of range for degrees up to {dist.k_max}: "
                             f"k**(1+beta) or its mean {mean!r} is not a positive finite double")
        rates = one_minus_g * k_power / mean
        weights, free_probs = dist.power(alpha) * dist.probs, dist.probs * one_minus_g
        # the old table goes only once the new inputs are built, and before
        # the new table, so the two never coexist.  Freed first, it was
        # handed back to the system and the new table faulted its pages in
        # again: about 90 minor page faults per table of 7454 classes, with
        # glibc's malloc
        dist.family_table = None
        dist.family_table = (key, _sorted_family(weights, rates, free_probs))
    return dist.family_table[1]


class _ClassSums:
    """The two sums over a family's classes that the mean-field solvers
    read, for each row m of ``rows`` (columns in the family table's order):

        expm1(scale)  sum_k m_k expm1(-b_k scale)
        decay(scale)  sum_k m_k b_k exp(-b_k scale)

    the second being the first's derivative, less its sign.  Each solver
    builds one per call: psi_fixed_point for the rows w_k and w_k b_k,
    final_rumor_size for P(k) (1 - g_k), and integrate, with the series, for
    w_k rho_i(k, 0) and P(k) rho_i(k, 0).

    The cut.  expm1(-b_k scale) rounds to exactly -1.0 once
    b_k scale > _EXPM1_CUT, and the table sorts the classes by b_k, so the
    classes past the cut are a suffix.  To expm1 each adds -m_k, which the
    row's suffix sums ``tails`` hold; decay leaves them out, and they add
    less than exp(-_EXPM1_CUT) times ``slopes``, the sums of m_k b_k over
    every class.  Only the classes below the cut are evaluated, as expm1 of
    the exponent -b_k scale, which never produces subnormals, into ``buf``.
    Each term is bit-identical to the uncut sum's; only the order of
    summation differs.  For a scale that is not > 0 (zero, negative or NaN)
    every class is evaluated.  A scale above the largest double (lam Psi
    overflowed) is read as it, so a zero b_k gives expm1(-0), not
    expm1(-0 * inf) = NaN.  decay reads exp(-b_k scale) as
    expm1(-b_k scale) + 1, within 2**-51 of it, from the exponentials that
    the last expm1 call left in ``buf`` when it asks for that call's scale,
    and evaluates them afresh at any other.

    The series.  With ``series``, and while b_max |scale| <= _SERIES_RHO
    (b_max = max_k |b_k|), no exponential is evaluated: with x = -scale,
    c[n] = sum_k m_k b_k**n / n! and N = _SERIES_TERMS,

        expm1  = sum_{n=1..N} c[n] x**n
        decay  = sum_{n=0..N} (n + 1) c[n + 1] x**n

    summed by Horner's rule over every class, for ``rows`` of two rows; the
    coefficients take N + 1 products with the classes, once per object.  With
    m_k and b_k >= 0 the truncation is below 2e-20 of expm1 and 1e-19 of
    decay, and the terms' absolute values sum to at most e**2 = 7.4 times
    expm1 and e**4 = 55 times decay; against exact sums the series were
    within about 1.5e-15 and 7e-15 relative.  The series is off at a scale
    that is not finite, and for the whole object once a coefficient is not
    finite (``reach`` is then infinite, and 0 * inf and inf are not <=):
    b_max**n / n! overflows above b_max of about 2.5e12, and negative or NaN
    rates can make a coefficient NaN.

    ``evals`` counts the per-class exponentials evaluated and ``series`` the
    calls the series summed.
    """

    def __init__(self, table: _Family, rows: np.ndarray, tails=None, series: bool = False):
        self.rates = table.rates
        # bisect_right on the doubles finds the cut searchsorted(side="right")
        # would, at a fraction of a numpy call's fixed cost
        self.rate_view = memoryview(table.rates)
        self.rows = rows
        self.tails = _suffix_sums(rows) if tails is None else tails
        self.buf = np.empty(table.rates.size)
        # the scale whose exponentials buf holds, and its cut
        self.scale, self.cut = math.nan, 0
        self.evals = self.series = 0
        self.reach = math.inf
        if series:
            terms = _SERIES_TERMS + 1
            coeffs = np.empty((terms, rows.shape[0]))
            power = np.ones(table.rates.size)
            with np.errstate(over="ignore", invalid="ignore"):
                for n in range(1, terms + 1):
                    power *= table.rates
                    power /= n
                    coeffs[n - 1] = rows @ power
                decay_coeffs = coeffs * np.arange(1.0, terms + 1.0)[:, None]
            if np.isfinite(decay_coeffs).all():
                self.reach = float(np.abs(table.rates).max())
            # highest power first: c[n] for n = N..1, (n + 1) c[n + 1] for n = N..0
            self.expm1_terms, self.decay_terms = coeffs[-2::-1].tolist(), decay_coeffs[::-1].tolist()

    @cached_property
    def slopes(self) -> list[float]:
        return (self.rows @ self.rates).tolist()

    def expm1(self, scale: float) -> list[float]:
        if self.reach * abs(scale) <= _SERIES_RHO:
            self.series += 1
            x = -scale
            sum_0, sum_1 = _horner(self.expm1_terms, x)
            return [sum_0 * x, sum_1 * x]
        self.scale = scale
        if scale > _MAX_SCALE:
            scale = _MAX_SCALE
        cut = self.cut = bisect_right(self.rate_view, _EXPM1_CUT / scale) if scale > 0.0 else self.rates.size
        self.evals += cut
        head = self.buf[:cut]
        np.multiply(self.rates[:cut], -scale, out=head)
        np.expm1(head, out=head)
        return [total - tail[cut] for total, tail in zip((self.rows[:, :cut] @ head).tolist(), self.tails)]

    def decay(self, scale: float) -> list[float]:
        if self.reach * abs(scale) <= _SERIES_RHO:
            return list(_horner(self.decay_terms, -scale))
        if scale != self.scale:
            self.expm1(scale)
        # the exponentials in buf are overwritten here
        self.scale = math.nan
        head = self.buf[:self.cut]
        np.add(head, 1.0, out=head)
        np.multiply(head, self.rates[:self.cut], out=head)
        return (self.rows[:, :self.cut] @ head).tolist()


def _horner(pairs: list[list[float]], x: float) -> tuple[float, float]:
    """sum_n a_n x**n and sum_n b_n x**n of the pairs (a_n, b_n), given
    highest n first down to n = 0, by Horner's rule."""
    sum_a = sum_b = 0.0
    for a, b in pairs:
        sum_a = sum_a * x + a
        sum_b = sum_b * x + b
    return sum_a, sum_b


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
    a_k = lam b_k with b_k of the family table, _Family) and the block ODEs
    close in Psi and R:

        dPsi/dt = Phi = Phi(0) - sum_k w_k rho_i(k, 0) expm1(-a_k Psi) - sigma Psi
        dR/dt   = sigma S = sigma (1 - I - R),
        I = I(0) + sum_k P(k) rho_i(k, 0) expm1(-a_k Psi)

    The pair (Psi, q = R - R(0)) is solved by Hairer's DOP853 (Hairer,
    Norsett & Wanner, Solving ODEs I, 2nd ed., sec. II.5 and II.6): twelve
    stages per step of an 8th-order Runge-Kutta method, the last stage of a
    step being the first of the next.  Its error estimate combines the
    differences e5 and e3 to embedded 5th- and 3rd-order solutions as
    h e5**2 / sqrt(e5**2 + 0.01 e3**2), with e5 and e3 in the RMS norm scaled
    by _PSI_ATOL + _RTOL |Psi| and _Q_ATOL + _RTOL |q|; a step is accepted
    when the estimate is at most 1, and the next step is sized from it with
    the exponent 1/8.  The first step follows Hairer's starting-step rule
    (sec. II.4) with the same exponent, so a large dt never lets an
    out-of-range first step through.

    The Jacobian is triangular with eigenvalues dPhi/dPsi >= -sigma and
    -sigma, so steps are capped at 1/sigma, where the method's stability
    function at -sigma h = -1 is 0.368, within 4e-8 of exp(-1), and the
    approach to rest is monotone up to rounding.

    After every accepted step but the last, the step end is tested for rest.
    Phi, as a function F of Psi, is concave: F'' = -sum_k w_k rho_i(k, 0)
    a_k**2 exp(-a_k Psi) <= 0, because w_k and a_k are >= 0 (_family_table)
    and so is rho_i(k, 0), up to the _STATE_ATOL a validated state allows.
    F lies below its tangent, so where D = -F'(Psi) = sigma - sum_k w_k
    rho_i(k, 0) a_k exp(-a_k Psi) > 0 the rest value obeys Psi(inf) - Psi
    <= max(Phi, 0) / D.  I is convex in Psi, so R(inf) - R = S + I - I(inf)
    <= max(S, 0) + J max(Phi, 0) / D, with J = sum_k P(k) rho_i(k, 0) a_k
    exp(-a_k Psi).  Once the two bounds
    are within _PSI_ATOL + _RTOL |Psi| and _Q_ATOL + _RTOL |q|, the step
    still fills its own interior samples from its dense output, and every
    later sample, t_end's included, holds the rest state: Psi after one
    Newton step, Psi + max(Phi, 0) / D, and q = R - R(0) set so that S is
    exactly 0.  D and J are read from the decay sums at the step end.  Where
    D <= 0 the integration never stops early.  Steps past rest would only
    move Psi by Phi's cancellation noise of about 5e-15, which DOP853's
    weights (12.9 in absolute value, a 5th-order pair's 1.6) turn into steps
    back of a few ulp; the stop saves both the work and the steps back.

    Each stage costs one call of expm1 of a _ClassSums of the rows
    w_k rho_i(k, 0) and P(k) rho_i(k, 0), and the rest test one call of its
    decay, at the same lam Psi.  The class docstring gives the cut and the
    series: while b_max |lam Psi| <= _SERIES_RHO = 2 the sums are power
    series in lam Psi, whose coefficients this call builds, and past that
    only the classes below the cut are evaluated; the classes past it add a
    constant to expm1, and at most exp(-_EXPM1_CUT) times their slope sums
    to decay, which the rest bound includes.

    ``dt`` is the sample spacing, not a step size: the aggregates of
    Trajectory are recorded at time step * dt for every ``sample_every``-th
    of the round(t_end / dt) sample steps and at the last, whose time ends
    the integration.  Interior samples come from the pair's 7th-order dense
    output, which costs three more stages on each step that holds one; the
    last sample is the rest state once rest is proven, else the end of the
    last step.  The dense output is usually within a few times _RTOL, but
    its error is not estimated: where the 5th-order difference e5 crosses
    zero the estimate nearly vanishes, and the longer step that follows can
    hold samples over 100 times _RTOL off while its end stays within about
    10 times.

    A trial step is accepted by one rule: its error estimate is at most 1
    and its end is in range, with Psi >= -1e-6 and I, S, R finite and in
    [-1e-6, 1 + 1e-6].  Any other trial, an estimate that is not finite or
    an end out of range included, is rejected and shrunk: by the estimate's
    factor when the estimate is above 1, else by _SHRINK, since the factor
    of an estimate far below 1 would grow the step.  So the step control
    fails only when the step falls below _STEP_FLOOR of the shorter of the
    time span and the curve's time scale 1 / (lam |S| + sigma), with
    S = sum_k w_k rho_i(k, 0) b_k, so that dPhi/dPsi = lam S - sigma at the
    start; that IntegrationError gives the error estimate and the end state
    of the last rejected trial.  Samples keep their range check: the state
    at t = 0, a dense output sample or the rest state out of range raises
    IntegrationError.  Each successful call logs its accepted and rejected
    steps, the dense outputs built, the step end that proved rest
    (``rest``, or ``none``), final Psi, final R, the number of per-class
    exponentials evaluated (``evals``) and the number of class-sum calls
    summed by the series (``series``) at DEBUG level.  The
    class-sum calls, rejected stages and samples included, are 2 at the
    start, 12 per step tried, 3 per dense output, 1 per interior sample
    before rest and 1 for the rest state; each adds 1 to ``series`` or the
    classes below its cut to ``evals``.

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
    samples, accepted, rejected, dense, rest, evals, series = _reduced_dop853(
        initial, dist, params, plan, sample_steps, dt)
    times, r, s, i, phi, psi = np.array(samples).T
    _log.debug("integrate: accepted=%d rejected=%d dense=%d rest=%s psi=%r r=%r evals=%d series=%d",
               accepted, rejected, dense, "none" if rest is None else repr(rest), float(psi[-1]), float(r[-1]),
               evals, series)
    return Trajectory(times=times, r=r, s=s, i=i, phi=phi, psi=psi)


def _reduced_dop853(
    initial, dist, params, plan, sample_steps, dt
) -> tuple[list[tuple], int, int, int, float | None, int, int]:
    """DOP853 on (Psi, R) from 0 to sample_steps[-1] * dt; returns the
    (t, R, S, I, Phi, Psi) samples at step * dt for each step of
    ``sample_steps``, the accepted and rejected steps, the dense outputs
    built, the step end that proved rest (None if none did), the number of
    per-class exponentials evaluated and the number of class-sum calls the
    series summed.

    R is carried as its gain q = R - R(0), so S = S(0) - (I - I(0)) - q
    keeps full precision however small the seed fraction is.  The class
    sums come from one _ClassSums, with the series.
    """
    table = _family_table(dist, params.alpha, params.beta, plan)
    lam, sigma = params.lam, params.sigma
    probs = dist.probs
    rho_i = initial.rho_i[table.order]
    sums = _ClassSums(table, np.stack([table.rows[0] * rho_i, probs[table.order] * rho_i]), series=True)
    expm1, decay = sums.expm1, sums.decay
    slope_phi, slope_i = sums.slopes
    phi0 = float(table.rows[0] @ initial.rho_s[table.order])
    i0, s0, r0 = (float(probs @ rho) for rho in (initial.rho_i, initial.rho_s, initial.rho_r))
    # exp(-a_k Psi) of every class past the cut is below this
    saturated = math.exp(-_EXPM1_CUT)

    def phi_and_gain(psi: float) -> tuple[float, float]:
        """Phi and the gain of the informed, -(I - I(0)), at Psi."""
        sum_phi, sum_i = expm1(lam * psi)
        return phi0 - sum_phi - sigma * psi, -sum_i

    def rest_step(psi: float, q: float, phi: float, gain: float) -> float | None:
        """The Newton step max(Phi, 0) / D to rest from the state (psi, q)
        with its Phi and gain, if the concavity bound puts both Psi and R
        within the step tolerance of rest; else None."""
        # the classes past the cut add less than exp(-_EXPM1_CUT) times the
        # slope at 0 to D and J
        sum_d, sum_j = decay(lam * psi)
        d = sigma - lam * (sum_d + saturated * slope_phi)
        if not d > 0.0:
            return None
        step = max(phi, 0.0) / d
        j = lam * (sum_j + saturated * slope_i)
        if (step <= _PSI_ATOL + _RTOL * abs(psi)
                and max(s0 + gain - q, 0.0) + j * step <= _Q_ATOL + _RTOL * abs(q)):
            return step
        return None

    def state(psi: float, q: float, gain: float) -> tuple[float, float, float, float]:
        """Psi, I, S and R of the state (psi, q) with its gain."""
        return psi, i0 - gain, s0 + gain - q, r0 + q

    def in_range(psi: float, i: float, s: float, r: float) -> bool:
        """Psi >= -1e-6 and I, S and R in [-1e-6, 1 + 1e-6]; false for NaN."""
        return psi >= -1e-6 and -1e-6 <= i <= 1.0 + 1e-6 and -1e-6 <= s <= 1.0 + 1e-6 and -1e-6 <= r <= 1.0 + 1e-6

    def sample(t: float, psi: float, q: float, phi: float, gain: float) -> tuple:
        _, i, s, r = end = state(psi, q, gain)
        if not in_range(*end):
            raise IntegrationError(f"state left range at t={t:.6g} ({_state_text(*end)})")
        return t, r, s, i, phi, psi

    def stage(index: int, row, psi: float, q: float, h: float) -> tuple[float, float, float, float]:
        """Stage ``index``, of tableau row ``row``, of a step of size h from
        (psi, q): stores its derivatives and returns its Psi, q, Phi and gain."""
        psi_k = psi + h * sum(map(mul, row, k_psi))
        q_k = q + h * sum(map(mul, row, k_q))
        phi_k, gain_k = phi_and_gain(psi_k)
        k_psi[index], k_q[index] = phi_k, sigma * (s0 + gain_k - q_k)
        return psi_k, q_k, phi_k, gain_k

    psi = q = 0.0
    phi, gain = phi_and_gain(psi)
    samples = [sample(0.0, psi, q, phi, gain)]
    t_final = sample_steps[-1] * dt
    if t_final == 0.0:
        return samples, 0, 0, 0, None, sums.evals, sums.series
    h_max = min(1.0 / sigma, t_final)
    # the floor is a fraction of the curve's time scale (see integrate), so
    # it shrinks as lam grows
    h_floor = _STEP_FLOOR * min(t_final, 1.0 / (lam * abs(slope_phi) + sigma))
    waiting = iter(sample_steps[1:])
    next_sample = next(waiting)
    # the derivatives of the 13 stages of a step and of the dense output's
    # 3; the first stage of every step is the last of the one before (FSAL)
    k_psi, k_q = [phi] + [0.0] * 15, [sigma * (s0 + gain)] + [0.0] * 15
    accepted = rejected = dense = 0
    t = 0.0

    # a diverging stage overflows its exponentials, and the trial is
    # rejected for its error estimate or for its end
    with np.errstate(over="ignore", invalid="ignore"):
        # Hairer's starting step from Psi = q = 0, where the rule's Euler
        # probe is 1e-6: an 8th-order guess from the scaled derivative and
        # its change over the probe
        probe = min(1e-6, h_max)
        phi_e, gain_e = phi_and_gain(probe * k_psi[0])
        dq_e = sigma * (s0 + gain_e - probe * k_q[0])
        d1 = _rms(k_psi[0] / _PSI_ATOL, k_q[0] / _Q_ATOL)
        d2 = _rms((phi_e - k_psi[0]) / _PSI_ATOL, (dq_e - k_q[0]) / _Q_ATOL) / probe
        h = min(100.0 * probe, (0.01 / max(d1, d2, 1e-15)) ** 0.125, h_max)
        grow = _GROW
        # the error estimate and end state of the last rejected trial step
        trial = None

        while True:
            # a step of 0 would loop forever; the floor is 0 once lam |S|
            # overflows
            if not (h >= h_floor and h > 0.0):
                report = ("no trial step was rejected" if trial is None else
                          f"the last rejected trial step had error estimate {trial[0]:.3e} "
                          f"and ended at {_state_text(*trial[1])}")
                raise IntegrationError(f"step fell to {h:.3e} at t={t:.6g}, below the floor {h_floor:.3e}; {report}")
            # a step that would leave under 1% of itself to go ends the span
            last = t + 1.01 * h >= t_final
            if last:
                h = t_final - t
            for index, row in enumerate(_DOP_A[1:], 1):
                psi_k, q_k, phi_k, gain_k = stage(index, row, psi, q, h)
            # the last stage sits at the 8th-order solution
            psi_new, q_new = psi_k, q_k
            # Hairer's error estimate h e5^2 / sqrt(e5^2 + 0.01 e3^2), from
            # the scaled RMS norms of the 5th- and 3rd-order differences
            scale = (_PSI_ATOL + _RTOL * max(abs(psi), abs(psi_new)), _Q_ATOL + _RTOL * max(abs(q), abs(q_new)))
            e5, e3 = (_rms(sum(map(mul, e, k_psi)) / scale[0], sum(map(mul, e, k_q)) / scale[1])
                      for e in (_DOP_E5, _DOP_E3))
            err = h * e5 * (e5 / math.hypot(e5, 0.1 * e3)) if e5 else 0.0
            end = state(psi_new, q_new, gain_k)
            if not (err <= 1.0 and in_range(*end)):
                # a trial rejected for its end, or for an estimate that is
                # not finite (stages that overflow on a long trial step at a
                # very large lam), shrinks by _SHRINK: the estimate's factor
                # would grow a step whose estimate is far below 1
                rejected += 1
                trial = err, end
                h *= max(_SHRINK, _SAFETY * err ** -0.125) if err > 1.0 else _SHRINK
                grow = 1.0
                continue

            accepted += 1
            t_new = t_final if last else t + h
            to_rest = None if last else rest_step(psi_new, q_new, phi_k, gain_k)
            if next_sample * dt < t_new:
                # the dense output's three stages, only on steps that hold a
                # sample between their ends
                dense += 1
                for index, row in enumerate(_DOP_A_DENSE, 13):
                    stage(index, row, psi, q, h)
                psi_coeffs = _dense_coefficients(h, psi, psi_new, k_psi)
                q_coeffs = _dense_coefficients(h, q, q_new, k_q)
                while next_sample * dt < t_new:
                    theta = (next_sample * dt - t) / h
                    psi_s, q_s = psi + _dense(theta, psi_coeffs), q + _dense(theta, q_coeffs)
                    samples.append(sample(next_sample * dt, psi_s, q_s, *phi_and_gain(psi_s)))
                    next_sample = next(waiting)
            if last:
                samples.append(sample(t_final, psi_new, q_new, phi_k, gain_k))
                return samples, accepted, rejected, dense, None, sums.evals, sums.series
            if to_rest is not None:
                # one Newton step onto rest, where S = s0 + gain - q is 0
                psi_rest = psi_new + to_rest
                phi_rest, gain_rest = phi_and_gain(psi_rest)
                rest = sample(next_sample * dt, psi_rest, s0 + gain_rest, phi_rest, gain_rest)[1:]
                samples += [(step * dt, *rest) for step in (next_sample, *waiting)]
                return samples, accepted, rejected, dense, t_new, sums.evals, sums.series
            t, psi, q = t_new, psi_new, q_new
            k_psi[0], k_q[0] = k_psi[12], k_q[12]
            # an error of 0 (a state at rest) grows the step by _GROW
            h = min(h * min(grow, _SAFETY * max(err, 1e-10) ** -0.125), h_max)
            grow = _GROW


def _state_text(psi: float, i: float, s: float, r: float) -> str:
    return f"Psi={psi:.3e}, I={i:.3e}, S={s:.3e}, R={r:.3e}"


def _rms(a: float, b: float) -> float:
    return math.hypot(a, b) / math.sqrt(2.0)


def _dense_coefficients(h: float, y: float, y_new: float, k: list[float]) -> tuple[float, ...]:
    """The seven coefficients of Hairer's 7th-order dense output of a DOP853
    step of size h from y to y_new, with the derivatives k of its 13 stages
    and of the dense output's 3."""
    diff = y_new - y
    return (diff, h * k[0] - diff, 2.0 * diff - h * (k[12] + k[0]), *(h * sum(map(mul, row, k)) for row in _DOP_D))


def _dense(theta: float, coeffs: tuple[float, ...]) -> float:
    """The dense output's change from the step's start at fraction theta:
    theta (c0 + (1 - theta) (c1 + theta (c2 + (1 - theta) (c3 + ...))))."""
    value = 0.0
    for index in range(6, -1, -1):
        value = (value + coeffs[index]) * (1.0 - theta if index % 2 else theta)
    return value


def critical_rate(
    dist: DegreeDistribution,
    alpha: float,
    beta: float,
    plan: InoculationPlan | None = None,
    sigma: float = 1.0,
) -> float:
    """The rumor threshold lambda_c = sigma / S_0 of the family
    (dist, alpha, beta, plan), S_0 = sum_k k**alpha P(k) b_k from its table,
    or infinity when S_0 = 0.  The one definition of lambda_c:
    psi_fixed_point returns 0 exactly at lam <= this double.  Without a plan
    1 / S_0 is <k**(beta+1)> / <k**(alpha+beta+1)>, <k> / <k**2> at alpha=1,
    beta=0; a plan weights each class of the denominator by 1 - g_k.
    """
    return _family_table(dist, alpha, beta, plan).critical_rate(sigma)


def psi_fixed_point(
    dist: DegreeDistribution,
    params: ModelParams,
    plan: InoculationPlan | None = None,
) -> float:
    """Largest root Psi* of the end-of-spreading self-consistency equation.

    sigma * Psi = <k**alpha> - sum_k k**alpha P(k) * exp(-b_k lam Psi),
    b_k = (1 - g_k) k**(1+beta) / <k**(1+beta)>

    Zero is always a root.  The right-hand side f is concave and increasing in
    Psi, so a nonzero root exists exactly when its slope at zero,
    lam S_0 / sigma with S_0 = sum_k k**alpha P(k) b_k, exceeds one, i.e.
    above the rumor threshold; the result is 0 at every lam <= critical_rate,
    the same double read from the same table.  Above it, Newton's
    method on the convex h(x) = x - f(x), started from the upper bound
    <k**alpha>/sigma, descends monotonically onto the largest root and stops
    once a step is below _PSI_TOL * max(1, x).  h and h' are evaluated
    through expm1 of -b_k (lam x), which is exact near x = 0, by the
    expm1 of a _ClassSums of the rows w_k and w_k b_k, with the family
    table's suffix sums and no series.  Falls back to bisection if h' is
    not positive or the iterates stop descending (rounding right at the
    critical point) or _NEWTON_MAX_STEPS steps pass; bisection stops once the
    bracket is narrower than _PSI_TOL times its upper end.  Each call logs its
    path (zero, newton or bisection) and step count at DEBUG level.
    """
    table = _family_table(dist, params.alpha, params.beta, plan)
    lam, sigma = params.lam, params.sigma
    if lam <= table.critical_rate(sigma):
        _log.debug("psi_fixed_point: path=zero steps=0")
        return 0.0

    expm1 = _ClassSums(table, table.rows[:2], table.tails[:2]).expm1

    def h(x: float) -> tuple[float, float]:
        """h(x) = x + sum_k w_k expm1(-b_k lam x) / sigma and its derivative
        1 - lam (S_0 + sum_k w_k b_k expm1(-b_k lam x)) / sigma."""
        sum_w, sum_wb = expm1(lam * x)
        return x + sum_w / sigma, 1.0 - lam * (table.slope + sum_wb) / sigma

    x = table.kalpha_mean / sigma
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
    hi = table.kalpha_mean / sigma
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
      = -sum_k P(k) (1 - g_k) expm1(-b_k lam Psi*),
    a_k = lam b_k, b_k = (1 - g_k) k**(1+beta) / <k**(1+beta)>,

    so inoculated nodes count neither as informed nor as reachable.  Reduces
    to -sum_k P(k) expm1(-b_k lam Psi*) without inoculation.

    The sum is the expm1 of a _ClassSums of the row P(k) (1 - g_k), as
    psi_fixed_point and integrate evaluate theirs: the classes past the cut
    add their P(k) (1 - g_k), a suffix sum of the family table.  No exponent
    needs a floor and nothing is subtracted from 1.  Each term is
    P(k) (1 - g_k) >= 0 times expm1 of a nonpositive exponent, so it is <= 0
    and R >= 0 needs no clamp; R is capped at 1 only because the
    probabilities may sum to 1 + 1e-12.  Below the threshold Psi* = 0 and R
    is exactly 0.0, with no exponential evaluated.  The family table holds
    every per-class term, so only Psi* is computed per point.
    """
    psi_star = psi_fixed_point(dist, params, plan)
    if psi_star == 0.0:
        return 0.0
    table = _family_table(dist, params.alpha, params.beta, plan)
    (sum_free,) = _ClassSums(table, table.rows[2:], table.tails[2:]).expm1(params.lam * psi_star)
    return min(-sum_free, 1.0)
