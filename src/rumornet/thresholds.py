"""Analytic rumor thresholds.

The threshold lambda_c has one definition, ``meanfield.critical_rate``: sigma
over the slope S_0 of the mean field's fixed-point map at zero, read from the
family table the solver itself uses, so a rate at or below it gives no
outbreak and any larger rate gives one.  Without a plan it is the discrete
moment ratio <k**(beta+1)> / <k**(alpha+beta+1)> on the finite support.
``threshold_modified`` and ``threshold_targeted_inoc`` return it at sigma = 1,
and ``threshold_random_inoc`` scales a bare threshold by 1 / (1 - g); the
package calls none of the three, which stay for ``perfbench/checks.py``.

The bounded variant evaluates the same ratio in the continuum with
the hard cutoff k_max = k_min * n**(1/(gamma-1)) and reports its leading
large-n behavior, which is what exposes the size-(in)dependence regimes:
the threshold stays finite and size-independent when alpha + beta + 2 < gamma,
vanishes as a power of n when alpha + beta + 2 > gamma, and decays
logarithmically on the boundary.

``NO_OUTBREAK`` (infinity) is the sentinel for "no epidemic possible at any
finite rate"; report writers render it as the string ``no-outbreak``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .inoculation import InoculationPlan
from .meanfield import critical_rate
from .netgen import DegreeDistribution

__all__ = [
    "NO_OUTBREAK",
    "REGIME_FINITE",
    "REGIME_LOG",
    "REGIME_VANISHING",
    "ThresholdReport",
    "threshold_modified",
    "threshold_modified_bounded",
    "threshold_random_inoc",
    "threshold_targeted_inoc",
]

NO_OUTBREAK = math.inf

REGIME_FINITE = "finite-independent"
REGIME_VANISHING = "vanishing"
REGIME_LOG = "logarithmic"

_BOUNDARY_EPS = 1e-12


@dataclass(frozen=True)
class ThresholdReport:
    """A critical rate together with its size-dependence regime."""

    value: float
    regime: str

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("threshold must be nonnegative")


def threshold_modified(dist: DegreeDistribution, alpha: float, beta: float) -> float:
    """The bare threshold at sigma = 1, ``critical_rate`` without a plan.

    At alpha=1, beta=0 this is the classical <k>/<k**2>.
    """
    return critical_rate(dist, alpha, beta)


def threshold_modified_bounded(
    gamma: float, k_min: int, n_nodes: int, alpha: float, beta: float
) -> ThresholdReport:
    """Leading large-n value of the continuum threshold with the hard cutoff.

    Both moments behind the ratio are integrals of k**(a-1) over
    [k_min, k_max]; each is dominated by k_min when its exponent
    a is negative, by k_max when positive, and is logarithmic at zero.
    Writing a1 = beta + 2 - gamma and a2 = alpha + beta + 2 - gamma:

      a2 < 0:          k_min**-alpha * (-a2) / (-a1)          (size-independent)
      a2 = 0:          k_min**-alpha / (alpha * ln(k_max/k_min))
      a2 > 0, a1 < 0:  k_min**-alpha * (a2 / -a1) * (k_max/k_min)**-a2
      a2 > 0, a1 = 0:  k_min**-alpha * a2 * ln(k_max/k_min) * (k_max/k_min)**-a2
      a2 > 0, a1 > 0:  (a2 / a1) * k_max**-alpha

    The regime label follows the sign of a2 = alpha + beta + 2 - gamma alone.
    At alpha=1, beta=0 this is the classic model's threshold,
    ((3-gamma) / ((gamma-2) k_min)) * n**((gamma-3)/(gamma-1)) for gamma < 3
    and 2 / (k_min ln n) at gamma = 3.
    """
    if not 2.0 < gamma <= 3.0:
        raise ValueError(f"gamma must lie in (2, 3], got {gamma}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    ratio = n_nodes ** (1.0 / (gamma - 1.0))  # k_max / k_min
    log_ratio = math.log(ratio)
    a1 = beta + 2.0 - gamma
    a2 = alpha + beta + 2.0 - gamma
    scale = k_min ** (-alpha)
    if a2 < -_BOUNDARY_EPS:
        value = scale * (-a2) / (-a1)
        regime = REGIME_FINITE
    elif abs(a2) <= _BOUNDARY_EPS:
        value = scale / (alpha * log_ratio)
        regime = REGIME_LOG
    else:
        regime = REGIME_VANISHING
        if a1 < -_BOUNDARY_EPS:
            value = scale * (a2 / (-a1)) * ratio ** (-a2)
        elif abs(a1) <= _BOUNDARY_EPS:
            value = scale * a2 * log_ratio * ratio ** (-a2)
        else:
            value = (a2 / a1) * (k_min * ratio) ** (-alpha)
    return ThresholdReport(value=value, regime=regime)


def threshold_random_inoc(lambda_c: float, g: float) -> float:
    """Threshold under uniform inoculation of a fraction g: lambda_c / (1 - g).

    Full inoculation (g = 1) returns the NO_OUTBREAK sentinel.
    """
    if lambda_c < 0:
        raise ValueError("lambda_c must be nonnegative")
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"inoculation fraction must lie in [0, 1], got {g}")
    if g == 1.0:
        return NO_OUTBREAK
    return lambda_c / (1.0 - g)


def threshold_targeted_inoc(
    dist: DegreeDistribution, alpha: float, beta: float, plan: InoculationPlan | None = None
) -> float:
    """The threshold at sigma = 1 under a plan's per-degree profile g_k,
    ``critical_rate``: <k**(beta+1)> / sum_k (1 - g_k) k**(alpha+beta+1) P(k),
    or NO_OUTBREAK when the profile has removed every transmission channel.
    Accepts any plan kind through its profile, or none: an all-zero profile
    gives the bare threshold and a uniform one the random-inoculation one.
    """
    return critical_rate(dist, alpha, beta, plan)
