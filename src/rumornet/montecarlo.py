"""Agent-level stochastic simulation of rumor spreading on concrete networks.

Discrete-time loop with step length dt.  Within a step, every current
spreader i of degree k_i draws a contact count by randomized rounding of
k_i**alpha, samples that many distinct neighbors uniformly, and converts each
contacted ignorant with probability min(1, lam * k_i * (w_ij / S_i) * dt),
where w_ij is the degree-derived tie strength and S_i the node's actual
summed tie strength on the graph.  After its contacts the spreader turns
stifler with probability 1 - exp(-sigma * dt).  Updates are synchronous: a
node informed in this step starts spreading in the next one.  Inoculated
nodes are frozen; they are skipped both as sources and as targets.

A step is whole-array work on the network's CSR adjacency, with no loop over
spreaders: all contact counts are drawn at once; the neighbor samples come
from giving every adjacency slot of the spreaders that contact fewer
neighbors than they have a random key, sorting on row + key, and keeping
each row's first ``count`` slots; then one Bernoulli per contacted ignorant
and one per spreader.  This samples exactly the law stated above.  S_i is
one ``np.bincount`` over the adjacency slots, and the spreader and stifler
counts are updated per step rather than recounted.

The per-pair transmission rate this realizes, lam * k_i**alpha * w_ij / S_i,
is invariant under dt, so halving dt only tightens the discretization
(measured at the default dt=0.1 on a 10^4-node power-law graph, halving dt
moves 50-run mean final sizes by under a few hundredths).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inoculation import InoculationPlan, apply_plan
from .meanfield import ModelParams
from .netgen import Network

__all__ = [
    "IGNORANT",
    "INOCULATED",
    "SPREADER",
    "STIFLER",
    "EnsembleSummary",
    "SimTrace",
    "ensemble",
    "mean_trace",
    "run",
]

IGNORANT, SPREADER, STIFLER, INOCULATED = 0, 1, 2, 3


@dataclass
class SimTrace:
    """Sampled population fractions of one run; informed = spreaders + stiflers."""

    times: np.ndarray
    ignorant: np.ndarray
    spreader: np.ndarray
    stifler: np.ndarray
    inoculated_fraction: float
    final_r: float
    peak_s: float
    seed: int | None = None
    events: list[tuple[float, int, int, int]] | None = None  # (t, node, old, new)


class _Kernel:
    """Per-node constants of one run's dynamics and the whole-array step."""

    def __init__(self, network: Network, params: ModelParams, dt: float):
        deg = network.degrees.astype(np.float64)
        # w_ij / S_i = k_j**beta / sum_{l in N(i)} k_l**beta  (the k_i**beta factors cancel)
        kbeta = np.power(deg, params.beta, out=np.zeros(network.n), where=deg > 0)
        strength = np.bincount(network.slot_rows(), weights=kbeta[network.indices], minlength=network.n)
        c_mean = np.where(deg > 0, deg ** params.alpha, 0.0)
        self.network = network
        self.kbeta = kbeta
        # pfac * k_j**beta = lam * k_i * dt * w_ij / S_i, the per-contact probability
        self.pfac = np.where(strength > 0, params.lam * deg * dt / np.where(strength > 0, strength, 1.0), 0.0)
        self.c_floor = np.floor(c_mean).astype(np.int64)
        self.c_frac = c_mean - self.c_floor
        self.stifle_p = 1.0 - np.exp(-params.sigma * dt)

    def step(self, status: np.ndarray, spreaders: np.ndarray, gen: np.random.Generator):
        """One synchronous step from ``status``, which it leaves unchanged.

        Returns a mask over ``spreaders`` of those that stifle and the sorted
        ids of the ignorants they inform.  Random draws, in order: one contact
        rounding per spreader, one sort key per adjacency slot of every
        spreader that contacts fewer neighbors than it has, one transmission
        per contacted ignorant, one stifling per spreader.
        """
        degree = self.network.degrees[spreaders]
        count = self.c_floor[spreaders] + (gen.random(spreaders.size) < self.c_frac[spreaders])
        # every adjacency slot of every spreader, row after row, with its
        # spreader's position in ``spreaders`` and its rank within the row
        owner = np.repeat(np.arange(spreaders.size), degree)
        rank = np.arange(owner.size) - (np.cumsum(degree) - degree)[owner]
        slots = self.network.indptr[spreaders][owner] + rank
        partial = (count < degree)[owner]
        if partial.any():
            # shuffle the slots of each partial row by sorting on row + key,
            # then keep the first ``count`` of each row: a uniform sample
            # without replacement
            where = np.flatnonzero(partial)
            slots[where] = slots[where[np.argsort(owner[where] + gen.random(where.size))]]
            kept = rank < count[owner]
            slots, owner = slots[kept], owner[kept]
        targets = self.network.indices[slots]
        ignorant = status[targets] == IGNORANT
        targets, sources = targets[ignorant], spreaders[owner[ignorant]]
        # u < min(1, p) is u < p for u in [0, 1)
        hit = gen.random(targets.size) < self.pfac[sources] * self.kbeta[targets]
        return gen.random(spreaders.size) < self.stifle_p, np.unique(targets[hit])


def _as_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng)
    return np.random.default_rng(seed), seed


def run(
    network: Network,
    params: ModelParams,
    plan: InoculationPlan | None = None,
    seeds: int | float = 1,
    dt: float = 0.1,
    t_max: float = 200.0,
    rng: np.random.Generator | int = 0,
    record_events: bool = False,
) -> SimTrace:
    """Simulate one outbreak; returns the sampled trace.

    ``seeds`` is an initial spreader count (int) or population fraction
    (float < 1).  Seed nodes are drawn first, uniformly over all nodes, and
    are excluded from inoculation, so a full-coverage plan still leaves the
    seeds active.  The loop stops when no spreaders remain or t reaches t_max.
    Passing an int ``rng`` records it as the run's seed; a Generator is used
    as-is.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    gen, seed_label = _as_rng(rng)
    n = network.n
    if isinstance(seeds, float) and 0 < seeds < 1:
        n_seeds = max(1, int(round(seeds * n)))
    else:
        n_seeds = int(seeds)
    if not 1 <= n_seeds <= n:
        raise ValueError(f"need between 1 and {n} seed spreaders, got {n_seeds}")

    seed_ids = gen.choice(n, size=n_seeds, replace=False)
    inoculated = np.setdiff1d(apply_plan(network, plan, gen), seed_ids)

    kernel = _Kernel(network, params, dt)

    status = np.zeros(n, dtype=np.int8)
    status[inoculated] = INOCULATED
    status[seed_ids] = SPREADER
    inoc_frac = inoculated.size / n
    events: list[tuple[float, int, int, int]] | None = [] if record_events else None
    if record_events:
        for node in seed_ids:
            events.append((0.0, int(node), IGNORANT, SPREADER))

    spreaders = seed_ids.astype(np.int64)
    n_stiflers = 0
    times = [0.0]
    spr_counts = [n_seeds]
    sti_counts = [0]
    t = 0.0
    while t < t_max and spreaders.size:
        stifle, new_ids = kernel.step(status, spreaders, gen)
        stifled = spreaders[stifle]
        t += dt
        status[stifled] = STIFLER
        status[new_ids] = SPREADER
        spreaders = np.concatenate((spreaders[~stifle], new_ids))
        n_stiflers += stifled.size
        if record_events:
            for node in stifled:
                events.append((t, int(node), SPREADER, STIFLER))
            for node in new_ids:
                events.append((t, int(node), IGNORANT, SPREADER))
        times.append(t)
        spr_counts.append(spreaders.size)
        sti_counts.append(n_stiflers)

    times_arr = np.array(times)
    spr = np.array(spr_counts, dtype=np.float64) / n
    sti = np.array(sti_counts, dtype=np.float64) / n
    ign = 1.0 - spr - sti - inoc_frac
    return SimTrace(
        times=times_arr,
        ignorant=ign,
        spreader=spr,
        stifler=sti,
        inoculated_fraction=inoc_frac,
        final_r=float(sti[-1] + spr[-1]),
        peak_s=float(spr.max()),
        seed=seed_label,
        events=events,
    )


@dataclass
class EnsembleSummary:
    """Aggregates of independent runs with identical settings."""

    mean_final_r: float
    std_final_r: float
    mean_peak_s: float
    finals: np.ndarray
    peaks: np.ndarray
    seeds: np.ndarray
    traces: list[SimTrace] | None = field(default=None, repr=False)


def _run_seed(master_seed: int, index: int) -> int:
    # counter-derived child seed; independent of execution order
    return int(np.random.SeedSequence([int(master_seed), int(index)]).generate_state(1)[0])


def ensemble(
    network: Network,
    params: ModelParams,
    plan: InoculationPlan | None = None,
    runs: int = 50,
    seeds: int | float = 1,
    dt: float = 0.1,
    t_max: float = 200.0,
    master_seed: int = 0,
    keep_traces: bool = False,
) -> EnsembleSummary:
    """Aggregate ``runs`` independent runs on ``network``, deterministically keyed to master_seed."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    finals = np.empty(runs)
    peaks = np.empty(runs)
    run_seeds = np.empty(runs, dtype=np.int64)
    traces: list[SimTrace] | None = [] if keep_traces else None
    for idx in range(runs):
        seed = _run_seed(master_seed, idx)
        trace = run(network, params, plan=plan, seeds=seeds, dt=dt, t_max=t_max, rng=seed)
        finals[idx] = trace.final_r
        peaks[idx] = trace.peak_s
        run_seeds[idx] = seed
        if keep_traces:
            traces.append(trace)
    return EnsembleSummary(
        mean_final_r=float(finals.mean()),
        std_final_r=float(finals.std()),
        mean_peak_s=float(peaks.mean()),
        finals=finals,
        peaks=peaks,
        seeds=run_seeds,
        traces=traces,
    )


def mean_trace(traces: list[SimTrace]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Average I/S/R curves over runs on a shared time grid.

    Runs end at different times; shorter runs are padded with their final
    values (the absorbing state persists).  Returns (times, I, S, R).
    """
    if not traces:
        raise ValueError("need at least one trace")
    longest = max(t.times.size for t in traces)
    ref = max(traces, key=lambda t: t.times.size).times

    def padded(values: np.ndarray) -> np.ndarray:
        out = np.full(longest, values[-1], dtype=np.float64)
        out[: values.size] = values
        return out

    i = np.mean([padded(t.ignorant) for t in traces], axis=0)
    s = np.mean([padded(t.spreader) for t in traces], axis=0)
    r = np.mean([padded(t.stifler) for t in traces], axis=0)
    return ref, i, s, r
