"""Random and degree-targeted inoculation plans.

An inoculated node keeps its place in the graph but never adopts and never
transmits the rumor (removed-site semantics), which is what makes the
mean-field treatment a simple (1 - g_k) rate reduction.  A random plan
inoculates a uniform fraction g of nodes; a targeted plan inoculates every
node above a degree cutoff k_t plus a fraction f of the nodes exactly at the
cutoff, chosen so the mean inoculated fraction equals a requested g_bar.
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
    """Either a uniform fraction g or a degree-step profile (k_t, f); no plan is None."""

    kind: str
    g: float = 0.0
    k_t: int | None = None
    f: float = 0.0
    support: np.ndarray | None = None
    g_profile: np.ndarray | None = None

    def profile(self, dist: DegreeDistribution) -> np.ndarray:
        """Per-degree inoculated fraction g_k aligned with ``dist.support``."""
        if self.kind == KIND_RANDOM:
            return np.full_like(dist.probs, self.g)
        if self.support is None or not np.array_equal(self.support, dist.support):
            raise ValueError("targeted plan support does not match the distribution support")
        return self.g_profile


def make_random_plan(g: float) -> InoculationPlan:
    """Uniform inoculation of a fraction g of the nodes, blind to the topology."""
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"inoculation fraction must lie in [0, 1], got {g}")
    return InoculationPlan(kind=KIND_RANDOM, g=float(g))


def make_targeted_plan(dist: DegreeDistribution, g_bar: float) -> InoculationPlan:
    """Build the degree-step profile with mean inoculated fraction g_bar.

    The profile is g_k = 1 for k > k_t, f at k = k_t, 0 below, with k_t the
    smallest support degree whose strict upper tail fits inside g_bar and
    f = (g_bar - tail) / P(k_t).  A zero f is normalized away by moving the
    cutoff one support degree up with f = 1, so f stays in (0, 1] whenever
    g_bar > 0.
    """
    if not 0.0 <= g_bar <= 1.0:
        raise ValueError(f"mean inoculation fraction must lie in [0, 1], got {g_bar}")
    support = dist.support
    probs = dist.probs
    n = support.size
    # tail[i] = P(k > support[i])
    tail = np.concatenate([np.cumsum(probs[::-1])[::-1][1:], [0.0]])
    if g_bar == 0.0:
        profile = np.zeros(n)
        return InoculationPlan(
            kind=KIND_TARGETED, k_t=int(support[-1]), f=0.0, support=support, g_profile=profile,
        )
    idx = int(np.argmax(tail <= g_bar + 1e-15))
    f = (g_bar - tail[idx]) / probs[idx] if probs[idx] > 0 else 0.0
    if f <= 0.0 and idx + 1 < n:
        idx += 1
        f = 1.0
    f = min(float(f), 1.0)
    if abs(f - 1.0) < 1e-12:
        f = 1.0
    profile = np.zeros(n)
    profile[idx + 1:] = 1.0
    profile[idx] = f
    plan = InoculationPlan(
        kind=KIND_TARGETED, k_t=int(support[idx]), f=f, support=support, g_profile=profile,
    )
    realized = float((profile * probs).sum())
    if abs(realized - g_bar) > 1e-9:
        raise AssertionError(f"profile mean {realized} missed g_bar {g_bar}")
    profile.setflags(write=False)
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
