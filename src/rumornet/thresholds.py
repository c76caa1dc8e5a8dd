"""Analytic rumor thresholds and their size regimes.

The threshold lambda_c has one definition, ``meanfield.critical_rate``: sigma
over the slope S_0 of the mean field's fixed-point map at zero, read from the
family table the solver itself uses, so a rate at or below it gives no
outbreak and any larger rate gives one.  Without a plan it is the discrete
moment ratio <k**(beta+1)> / <k**(alpha+beta+1)> on the finite support.
``threshold_modified`` and ``threshold_targeted_inoc`` return it at sigma = 1,
and ``threshold_random_inoc`` scales a bare threshold by 1 / (1 - g); the
package calls none of the three, which stay for ``perfbench/checks.py``.

``size_regime`` names how that ratio behaves as the network grows on a power
law P(k) ~ k**-gamma whose support reaches k_max ~ n**(1/(gamma-1)): the
denominator's moment diverges with k_max exactly when alpha + beta + 2 >
gamma.  So lambda_c stays finite and size-independent when alpha + beta + 2 <
gamma, vanishes as a power of n when alpha + beta + 2 > gamma, and decays
logarithmically on the boundary.

``NO_OUTBREAK`` (infinity) is the sentinel for "no epidemic possible at any
finite rate"; report writers render it as the string ``no-outbreak``.
"""

from __future__ import annotations

import math

from .inoculation import InoculationPlan
from .meanfield import critical_rate
from .netgen import DegreeDistribution

__all__ = [
    "NO_OUTBREAK",
    "REGIME_FINITE",
    "REGIME_LOG",
    "REGIME_VANISHING",
    "size_regime",
    "threshold_modified",
    "threshold_random_inoc",
    "threshold_targeted_inoc",
]

NO_OUTBREAK = math.inf

REGIME_FINITE = "finite-independent"
REGIME_VANISHING = "vanishing"
REGIME_LOG = "logarithmic"

_BOUNDARY_EPS = 1e-12


def threshold_modified(dist: DegreeDistribution, alpha: float, beta: float) -> float:
    """The bare threshold at sigma = 1, ``critical_rate`` without a plan.

    At alpha=1, beta=0 this is the classical <k>/<k**2>.
    """
    return critical_rate(dist, alpha, beta)


def size_regime(gamma: float, alpha: float, beta: float) -> str:
    """The size regime of lambda_c on a power law of exponent gamma: the sign
    of alpha + beta + 2 - gamma, with |.| <= _BOUNDARY_EPS the logarithmic
    boundary.  At alpha=1, beta=0 the classic threshold vanishes for every
    gamma < 3 and decays as 1 / ln n at gamma = 3.
    """
    if not 2.0 < gamma <= 3.0:
        raise ValueError(f"gamma must lie in (2, 3], got {gamma}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    a2 = alpha + beta + 2.0 - gamma
    if a2 < -_BOUNDARY_EPS:
        return REGIME_FINITE
    if abs(a2) <= _BOUNDARY_EPS:
        return REGIME_LOG
    return REGIME_VANISHING


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
