"""Random and degree-targeted inoculation plans.

A plan is one degree rule.  A random plan inoculates each node with the same
probability g; a targeted plan inoculates every node above a degree cutoff
k_t plus a fraction f of the nodes exactly at the cutoff, chosen so the mean
inoculated fraction equals a requested g_bar.  The same rule gives the
per-degree fraction g_k of a distribution (``InoculationPlan.profile``) and
the inoculated node ids of a graph (``apply_plan``).

The engines do not yet read g_k the same way.  The ODE of
``meanfield.integrate`` uses rate reduction: every class starts with the same
ignorant fraction and its rate carries a factor (1 - g_k), so inoculated
mass still becomes informed.  ``meanfield.final_rumor_size`` and the Monte
Carlo use removed-site semantics: an inoculated node never adopts and never
transmits.  The two agree at the threshold but not in the final size (ROADMAP
item 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgen import DegreeDistribution, Network

__all__ = ["InoculationPlan", "apply_plan", "make_random_plan", "make_targeted_plan"]

KIND_RANDOM = "random"
KIND_TARGETED = "targeted"


@dataclass(frozen=True)
class InoculationPlan:
    """One degree rule: a uniform fraction g, or the cutoff rule (k_t, f).

    A plan holds no array, so it is hashable and equal plans compare equal.
    No plan is None.
    """

    kind: str
    g: float = 0.0
    k_t: int | None = None
    f: float = 0.0

    def profile(self, dist: DegreeDistribution) -> np.ndarray:
        """Per-degree inoculated fraction g_k on ``dist.support``, a new array.

        Random: g everywhere.  Targeted: 1.0 above k_t, f at k_t and 0.0
        below, on any support, as ``apply_plan`` treats a graph's degrees.
        """
        if self.kind == KIND_RANDOM:
            return np.full_like(dist.probs, self.g)
        k = dist.support
        return np.where(k > self.k_t, 1.0, np.where(k == self.k_t, self.f, 0.0))


def make_random_plan(g: float) -> InoculationPlan:
    """Uniform inoculation of a fraction g of the nodes, blind to the topology."""
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"inoculation fraction must lie in [0, 1], got {g}")
    return InoculationPlan(kind=KIND_RANDOM, g=float(g))


def make_targeted_plan(dist: DegreeDistribution, g_bar: float) -> InoculationPlan:
    """Find the cutoff rule (k_t, f) with mean inoculated fraction g_bar on ``dist``.

    k_t is the smallest support degree whose strict upper tail fits inside
    g_bar and f = (g_bar - tail) / P(k_t).  A zero f is normalized away by
    moving the cutoff one support degree up with f = 1, so f stays in (0, 1]
    whenever g_bar > 0; g_bar = 0 gives f = 0 at the largest degree.
    """
    if not 0.0 <= g_bar <= 1.0:
        raise ValueError(f"mean inoculation fraction must lie in [0, 1], got {g_bar}")
    support = dist.support
    probs = dist.probs
    if g_bar == 0.0:
        return InoculationPlan(kind=KIND_TARGETED, k_t=int(support[-1]), f=0.0)
    # tail[i] = P(k > support[i])
    tail = np.concatenate([np.cumsum(probs[::-1])[::-1][1:], [0.0]])
    idx = int(np.argmax(tail <= g_bar + 1e-15))
    f = (g_bar - tail[idx]) / probs[idx] if probs[idx] > 0 else 0.0
    if f <= 0.0 and idx + 1 < support.size:
        idx += 1
        f = 1.0
    f = min(float(f), 1.0)
    if abs(f - 1.0) < 1e-12:
        f = 1.0
    plan = InoculationPlan(kind=KIND_TARGETED, k_t=int(support[idx]), f=f)
    realized = float((plan.profile(dist) * probs).sum())
    if abs(realized - g_bar) > 1e-9:
        raise AssertionError(f"profile mean {realized} missed g_bar {g_bar}")
    return plan


def apply_plan(network: Network, plan: InoculationPlan | None, rng: np.random.Generator) -> np.ndarray:
    """Pick the concrete inoculated node ids for a plan on a given network.

    Random: each node independently with probability g.  Targeted: every node
    with degree > k_t plus a uniformly chosen round(f * count) of the
    degree-k_t nodes.  Returns a sorted id array (possibly empty).
    """
    if plan is None:
        return np.array([], dtype=np.int64)
    if plan.kind == KIND_RANDOM:
        return np.flatnonzero(rng.random(network.n) < plan.g).astype(np.int64)
    chosen = [np.flatnonzero(network.degrees > plan.k_t)]
    at_cut = np.flatnonzero(network.degrees == plan.k_t)
    count = int(round(plan.f * at_cut.size))
    if count > 0:
        chosen.append(np.sort(rng.choice(at_cut, size=count, replace=False)))
    return np.sort(np.concatenate(chosen)).astype(np.int64)
