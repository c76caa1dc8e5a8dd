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
spreaders, and it draws only the contacts that can transmit (thinning; Lewis
& Shedler, Naval Res. Logistics Q. 26, 1979), so it reads the adjacency
slots it draws, not every slot of every spreader's row.  With
p_ij = min(1, lam * k_i * (w_ij / S_i) * dt), let pi_i = max_{j in N(i)} p_ij
be the largest chance in row i (0 for an isolated node).  The coin
Bern(p_ij) of a contacted ignorant is the product of two independent coins,
Bern(pi_i) and Bern(p_ij / pi_i), and the first is the same for every slot
of the row.  Among a uniform c-subset of the row, the slots whose first coin
comes up heads are therefore a uniform b-subset with b ~ Binomial(c, pi_i).
So a spreader draws c as before, then b, then a uniform b-subset of its row,
and keeps each drawn slot whose target is ignorant and whose second coin
comes up heads.  b = 0 takes one uniform: the first success J of
Bernoulli(pi_i) trials is geometric, J = 1 + floor(log(1 - u) / log(1 - pi_i)),
and b >= 1 iff J <= c; then b = 1 + Binomial(c - J, pi_i).  The b-subset is
b independent uniform positions in the row, which are a uniform b-subset
given that no two are equal; a row whose positions repeat, or with
2b > k_i + 1, instead gives each of its slots a random key, sorts on
row + key and keeps its first b slots.  Which of the two a row takes depends
on b and on whether its positions repeat, never on which subset they form,
so either way the subset is uniform and the step samples exactly the law
above.  S_i is one ``np.bincount`` over the adjacency slots and the row
maxima one ``np.maximum.reduceat``; ``ensemble`` builds these per-node
constants once for all its runs.  The spreader and stifler counts are
updated per step rather than recounted.

The per-pair transmission rate this realizes, lam * k_i**alpha * w_ij / S_i,
is invariant under dt, but the final size is not.  A spreader contacts
before it may stifle in every step, so a slot that transmits with chance q
per step has transmissibility T_dt = q / (s + q - s q), where
s = 1 - exp(-sigma * dt).  T_dt exceeds the continuous-time T_0 = r / (r + sigma)
of the slot's rate r by a term of order dt, so mean final sizes are biased
upward by O(dt) (ROADMAP item 12).  On the 10^4-node graph of
``perfbench/scenarios/mc_outbreak.ini`` at its file seed, at lam=1,
alpha=0.8, beta=0, g=0 and 10 seed spreaders, the mean final size of 40
runs (seeded as that scenario's grid point 2) is 0.6493 +- 0.0026 at dt=0.1
and 0.6187 +- 0.0023 at dt=0.025 (standard errors), against 0.6116 from
message passing with T_0.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class _Kernel:
    """Per-node constants of one network, parameter set and dt, and the
    whole-array step; ``ensemble`` builds one for all its runs."""

    def __init__(self, network: Network, params: ModelParams, dt: float):
        deg = network.degrees.astype(np.float64)
        linked = network.degrees > 0
        # w_ij / S_i = k_j**beta / sum_{l in N(i)} k_l**beta  (the k_i**beta factors cancel)
        kbeta = np.power(deg, params.beta, out=np.zeros(network.n), where=linked)
        slot_kbeta = kbeta[network.indices]
        strength = np.bincount(network.slot_rows(), weights=slot_kbeta, minlength=network.n)
        # pfac * k_j**beta = lam * k_i * dt * w_ij / S_i, the per-contact probability
        pfac = np.where(strength > 0, params.lam * deg * dt / np.where(strength > 0, strength, 1.0), 0.0)
        # the largest k_j**beta of each row: reduceat reduces from one start
        # to the next and reads the wrong row at an empty one, so only the
        # starts of nonempty rows go in
        row_max = np.zeros(network.n)
        row_max[linked] = np.maximum.reduceat(slot_kbeta, network.indptr[:-1][linked])
        pi = np.minimum(1.0, pfac * row_max)
        c_mean = np.where(linked, deg**params.alpha, 0.0)
        c_floor = np.floor(c_mean)
        self.network = network
        self.kbeta = kbeta
        self.pi = pi
        with np.errstate(divide="ignore"):
            self.log_miss = np.log1p(-pi)  # -inf where pi = 1
        self.c_floor = c_floor.astype(np.int64)
        self.c_frac = c_mean - c_floor
        # pfac / pi * k_j**beta = p_ij / pi, the second coin of a thinned contact
        self.accept = np.divide(pfac, pi, out=np.zeros(network.n), where=pi > 0)
        self.stifle_p = 1.0 - np.exp(-params.sigma * dt)

    def step(self, status: np.ndarray, spreaders: np.ndarray, gen: np.random.Generator):
        """One synchronous step from ``status``, which it leaves unchanged.

        Returns a mask over ``spreaders`` of those that stifle and the sorted
        ids of the ignorants they inform.  Random draws, in order:

        1. three uniforms per spreader: contact rounding, first thinned
           contact, stifling;
        2. one uniform per contact after the first thinned one;
        3. one position per thinned contact of a row with 2b <= k + 1;
        4. one sort key per slot of the rows with 2b > k + 1 or a repeated
           position, unless each of them takes all its slots;
        5. one acceptance per thinned contact that reaches an ignorant.
        """
        net = self.network
        u = gen.random((3, spreaders.size))
        stifle = u[2] < self.stifle_p
        count = self.c_floor[spreaders] + (u[0] < self.c_frac[spreaders])
        # floor(log(1 - u) / log(1 - pi)) failures come before the first
        # success, which is within ``count`` trials iff log(1 - u) > count *
        # log(1 - pi)
        lead = np.log1p(-u[1])
        log_miss = self.log_miss[spreaders]
        some = (lead > count * log_miss).nonzero()[0]
        if not some.size:
            return stifle, spreaders[:0]
        rows, count = spreaders[some], count[some]
        # the count - J + 1 trials from the first success J on (at least
        # one, against rounding at the edge); those after J are Bernoulli(pi)
        # and summed one by one, as a binomial call costs over 10 us however
        # few rows it gets
        thin = count - np.minimum(lead[some] / log_miss[some], count - 1).astype(np.int64)
        trial = np.arange(rows.size).repeat(thin - 1)
        if trial.size:
            thin = 1 + np.bincount(trial[gen.random(trial.size) < self.pi[rows][trial]], minlength=rows.size)
        degree = net.degrees[rows]
        # a row with 2 * thin > k + 1 is sampled from its whole slot list,
        # as is a row whose positions repeat; the others draw positions
        # floor(u * k), which lie in [0, k): u <= 1 - 2**-53, and that times
        # any k below 2**53 rounds to below k
        whole = 2 * thin > degree + 1
        owner = np.arange(rows.size).repeat(thin * ~whole)
        slots = net.indptr[rows][owner] + (gen.random(owner.size) * degree[owner]).astype(np.int64)
        if owner.size > 1:
            # rows own disjoint slot ranges, so a slot drawn twice is a
            # position repeated within its row
            order = slots.argsort()
            repeat = owner[order[1:][slots[order[1:]] == slots[order[:-1]]]]
            if repeat.size:
                whole[repeat] = True
                kept = ~whole[owner]
                slots, owner = slots[kept], owner[kept]
        if np.count_nonzero(whole):
            again = whole.nonzero()[0]
            size = degree[again]
            member = np.arange(again.size).repeat(size)
            rank = np.arange(member.size) - (size.cumsum() - size)[member]
            every = net.indptr[rows[again]][member] + rank
            if np.count_nonzero(thin[again] < size):
                # each of these rows in random order (sorted on row + key),
                # cut to its first ``thin`` slots
                every = every[(member + gen.random(member.size)).argsort()]
                cut = rank < thin[again][member]
                every, member = every[cut], member[cut]
            slots = np.concatenate((slots, every))
            owner = np.concatenate((owner, again[member]))
        targets = net.indices[slots]
        ignorant = status[targets] == IGNORANT
        targets, sources = targets[ignorant], rows[owner[ignorant]]
        hit = gen.random(targets.size) < self.accept[sources] * self.kbeta[targets]
        informed = targets[hit]
        if informed.size > 1:
            # sorted, each id once (np.unique is ten times slower at 1000 ids)
            informed.sort()
            informed = informed[np.concatenate(([True], informed[1:] != informed[:-1]))]
        return stifle, informed


def run(
    network: Network,
    params: ModelParams,
    plan: InoculationPlan | None = None,
    seeds: int = 1,
    dt: float = 0.1,
    t_max: float = 200.0,
    rng: int = 0,
    kernel: _Kernel | None = None,
) -> SimTrace:
    """Simulate one outbreak; returns the sampled trace.

    ``seeds`` is the initial spreader count.  Seed nodes are drawn first,
    uniformly over all nodes, and are excluded from inoculation, so a
    full-coverage plan still leaves the seeds active.  Step s ends at
    t = s * dt; the loop stops when no spreaders remain or after
    round(t_max / dt) steps.  ``rng`` seeds the run's generator.  ``kernel``
    is the step kernel of (network, params, dt), which ``ensemble`` builds
    once for all its runs; it is built here when omitted.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    gen = np.random.default_rng(rng)
    n = network.n
    if not 1 <= seeds <= n:
        raise ValueError(f"need between 1 and {n} seed spreaders, got {seeds}")

    seed_ids = gen.choice(n, size=seeds, replace=False)
    status = np.zeros(n, dtype=np.int8)
    status[apply_plan(network, plan, gen)] = INOCULATED
    status[seed_ids] = SPREADER  # a seed picked by the plan stays a seed
    inoc_frac = np.count_nonzero(status == INOCULATED) / n
    if kernel is None:
        kernel = _Kernel(network, params, dt)

    spreaders = seed_ids.astype(np.int64)
    n_stiflers = 0
    spr_counts = [seeds]
    sti_counts = [0]
    for _ in range(round(t_max / dt)):
        if not spreaders.size:
            break
        stifle, new_ids = kernel.step(status, spreaders, gen)
        stifled = spreaders[stifle]
        status[stifled] = STIFLER
        status[new_ids] = SPREADER
        spreaders = np.concatenate((spreaders[~stifle], new_ids))
        n_stiflers += stifled.size
        spr_counts.append(spreaders.size)
        sti_counts.append(n_stiflers)

    spr = np.array(spr_counts, dtype=np.float64) / n
    sti = np.array(sti_counts, dtype=np.float64) / n
    ign = 1.0 - spr - sti - inoc_frac
    return SimTrace(
        times=np.arange(len(spr_counts)) * dt,
        ignorant=ign,
        spreader=spr,
        stifler=sti,
        inoculated_fraction=inoc_frac,
        final_r=float(sti[-1] + spr[-1]),
        peak_s=float(spr.max()),
    )


@dataclass
class EnsembleSummary:
    """Aggregates of independent runs with identical settings.

    ``mean_curve`` is (times, I, S, R) averaged over the runs on the longest
    run's time grid, with R the stifler fraction.
    """

    mean_final_r: float
    std_final_r: float
    mean_peak_s: float
    finals: np.ndarray
    seeds: np.ndarray
    mean_curve: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _run_seed(master_seed: int, index: int) -> int:
    # counter-derived child seed; independent of execution order
    return int(np.random.SeedSequence([int(master_seed), int(index)]).generate_state(1)[0])


def ensemble(
    network: Network,
    params: ModelParams,
    plan: InoculationPlan | None = None,
    runs: int = 50,
    seeds: int = 1,
    dt: float = 0.1,
    t_max: float = 200.0,
    master_seed: int = 0,
) -> EnsembleSummary:
    """Aggregate ``runs`` independent runs on ``network``, deterministically keyed to master_seed."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    finals = np.empty(runs)
    peaks = np.empty(runs)
    run_seeds = np.empty(runs, dtype=np.int64)
    curves = []
    kernel = _Kernel(network, params, dt)
    for idx in range(runs):
        seed = _run_seed(master_seed, idx)
        # through the module global, where a caller may wrap ``run``
        trace = run(network, params, plan=plan, seeds=seeds, dt=dt, t_max=t_max, rng=seed, kernel=kernel)
        finals[idx] = trace.final_r
        peaks[idx] = trace.peak_s
        run_seeds[idx] = seed
        curves.append((trace.ignorant, trace.spreader, trace.stifler))
    longest = max(ignorant.size for ignorant, _, _ in curves)
    # (run, curve, sample); a run that ends early keeps its absorbing final state
    padded = np.array([[np.pad(c, (0, longest - c.size), mode="edge") for c in run_curves] for run_curves in curves])
    return EnsembleSummary(
        mean_final_r=float(finals.mean()),
        std_final_r=float(finals.std()),
        mean_peak_s=float(peaks.mean()),
        finals=finals,
        seeds=run_seeds,
        mean_curve=(np.arange(longest) * dt, *padded.mean(axis=0)),
    )
