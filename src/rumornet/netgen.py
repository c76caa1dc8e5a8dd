"""Scale-free degree distributions and network synthesis.

Degree distributions are discrete power laws P(k) proportional to k**-gamma,
truncated to [k_min, k_max] with the finite-size hard cutoff
k_max = k_min * n**(1/(gamma-1)).  Networks are undirected simple graphs built
either by preferential-attachment growth (which locks the exponent near 3) or
by the configuration model (which realizes an arbitrary target distribution).
Edge weights are never stored: the tie strength of an edge is derived from its
endpoint degrees as w_ij = (k_i * k_j)**beta.

All generators are pure functions of an explicit numpy Generator, so they can
run concurrently as long as each task owns its own stream.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DegreeDistribution",
    "DegreeSequenceError",
    "Network",
    "build_ba_network",
    "build_configuration_network",
    "sample_powerlaw_distribution",
    "write_edge_list",
]


# stub matching: rejection rounds before the leftover stubs are erased, and
# resamples of the last node's degree to reach an even stub sum
_MATCHING_ROUNDS = 100
_PARITY_RETRIES = 100


class DegreeSequenceError(RuntimeError):
    """A drawn degree sequence cannot be realized as a simple graph."""


class DegreeDistribution:
    """Normalized degree distribution on a finite, strictly increasing support.

    The powers k**q are computed on each call.  The one term kept is
    ``family_table``, the mean field's table of its last
    (alpha, beta, plan) family as a (key, table) pair, or None; only
    ``meanfield._family_table`` reads or sets it, and it lives as long as
    the distribution.
    """

    def __init__(self, support, probs):
        support = np.asarray(support, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if support.ndim != 1 or support.shape != probs.shape or support.size == 0:
            raise ValueError("support and probs must be 1-d arrays of equal, nonzero length")
        if np.any(support < 1):
            raise ValueError("support degrees must be positive integers")
        if support.size > 1 and np.any(np.diff(support) <= 0):
            raise ValueError("support degrees must be strictly increasing")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        support.setflags(write=False)
        probs.setflags(write=False)
        self.support = support
        self.probs = probs
        self.k_min = int(support[0])
        self.k_max = int(support[-1])
        self.family_table = None

    def __repr__(self) -> str:
        return f"DegreeDistribution(k_min={self.k_min}, k_max={self.k_max}, classes={self.support.size})"

    def __reduce__(self):
        # pickled (for a worker process) as its support and probabilities: the
        # copy is rebuilt through __init__, so its arrays are read-only again
        # and it carries no family table
        return DegreeDistribution, (self.support, self.probs)

    def power(self, q: float) -> np.ndarray:
        """Return k**q over the support as a float array."""
        return self.support.astype(np.float64) ** float(q)


def sample_powerlaw_distribution(gamma: float, k_min: int, n_nodes: int) -> DegreeDistribution:
    """Build the truncated power law P(k) ~ k**-gamma on {k_min .. floor(k_max)}.

    The hard cutoff k_max = k_min * n_nodes**(1/(gamma-1)) ties the largest
    admissible degree to the network size.  gamma must lie in (2, 3]; at or
    below 2 the mean degree diverges and the threshold analysis breaks down.
    """
    if not 2.0 < gamma <= 3.0:
        raise ValueError(f"gamma must lie in (2, 3], got {gamma}")
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    k_max = int(math.floor(k_min * n_nodes ** (1.0 / (gamma - 1.0))))
    if k_max < k_min:
        raise ValueError(f"cutoff k_max={k_max} fell below k_min={k_min}")
    support = np.arange(k_min, k_max + 1, dtype=np.int64)
    probs = support.astype(np.float64) ** (-gamma)
    probs /= probs.sum()
    return DegreeDistribution(support, probs)


class Network:
    """Undirected simple graph in compressed sparse row (CSR) form.

    The neighbors of node u are ``indices[indptr[u]:indptr[u + 1]]``, sorted
    ascending; every undirected edge fills two adjacency slots, one in each
    endpoint's row, so ``indptr[-1] == 2 * edge_count``.  ``degrees`` is
    ``np.diff(indptr)``.  All three arrays are read-only.

    ``erased_edges`` counts stub pairs the configuration model had to discard
    after its rejection rounds; it is 0 for every other builder.
    """

    def __init__(self, n: int, edges, erased_edges: int = 0):
        if n < 1:
            raise ValueError("a network needs at least one node")
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        # an empty list reads as float64; any other non-integer id is refused,
        # not truncated, and an int64 array is taken as it is
        if pairs.size and pairs.dtype.kind not in "iu":
            raise ValueError(f"node ids must be integers, got {pairs.dtype}")
        pairs = pairs.astype(np.int64, copy=False)
        u, v = pairs.reshape(-1, 2).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # one directed key row * n + col per slot; for in-range ids, sorting them
        # lays out the CSR rows and puts a self-loop's or a repeated edge's keys
        # side by side
        keys = lo * n + hi
        slots = np.sort(np.concatenate((keys, hi * n + lo)))
        if keys.size and (lo.min() < 0 or hi.max() >= n or np.any(slots[1:] == slots[:-1])):
            # report the first offending edge in input order, as a sequential scan would
            repeated = np.ones(keys.size, dtype=bool)
            repeated[np.unique(keys, return_index=True)[1]] = False
            i = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n) | repeated)[0]
            a, b = int(u[i]), int(v[i])
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            raise ValueError(f"duplicate edge ({a},{b})")
        rows, indices = np.divmod(slots, n)
        degrees = np.bincount(rows, minlength=n)
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        for array in (indptr, indices, degrees):
            array.setflags(write=False)
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        self.edge_count = int(keys.size)
        self.erased_edges = int(erased_edges)

    def __repr__(self) -> str:
        return f"Network(n={self.n}, edges={self.edge_count})"

    def slot_rows(self) -> np.ndarray:
        """The node whose row holds each adjacency slot, i.e. the CSR row index."""
        return np.repeat(np.arange(self.n), self.degrees)

    def edges(self):
        """Yield each undirected edge once as (u, v) with u < v, sorted."""
        rows = self.slot_rows()
        upper = rows < self.indices
        yield from zip(rows[upper].tolist(), self.indices[upper].tolist())

    def empirical_distribution(self) -> DegreeDistribution:
        """Degree distribution of the graph, restricted to nodes of degree >= 1."""
        degs = self.degrees[self.degrees >= 1]
        if degs.size == 0:
            raise ValueError("network has no edges")
        values, counts = np.unique(degs, return_counts=True)
        return DegreeDistribution(values, counts / counts.sum())


def build_ba_network(n_nodes: int, m0: int, m: int, rng: np.random.Generator) -> Network:
    """Grow a preferential-attachment network from an m0-clique seed.

    Each of the n_nodes - m0 added nodes attaches m distinct edges to existing
    nodes with probability proportional to their current degree, so the edge
    count is exactly C(m0, 2) + m * (n_nodes - m0) and the degree distribution
    approaches P(k) ~ k**-3 for large n_nodes.
    """
    if not (n_nodes > m0 >= m >= 1):
        raise ValueError(f"need n_nodes > m0 >= m >= 1, got n_nodes={n_nodes}, m0={m0}, m={m}")
    edges: list[tuple[int, int]] = []
    # one entry per unit of degree; uniform draws from it are degree-biased
    pool: list[int] = []
    for u in range(m0):
        for v in range(u + 1, m0):
            edges.append((u, v))
            pool.append(u)
            pool.append(v)
    if m0 == 1:
        pool.append(0)  # a bare single seed node is otherwise unreachable
    for v in range(m0, n_nodes):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(pool[int(rng.integers(len(pool)))])
        for u in targets:
            edges.append((u, v))
            pool.append(u)
            pool.append(v)
    return Network(n_nodes, edges)


def build_configuration_network(dist: DegreeDistribution, n_nodes: int, rng: np.random.Generator) -> Network:
    """Realize ``dist`` as a simple graph by stub matching.

    Degrees are drawn i.i.d. from the distribution; the last node is resampled
    until the stub sum is even, up to ``_PARITY_RETRIES`` times.  Stubs are
    then shuffled and paired; pairs that would create a self-loop or repeat an
    existing edge are thrown back and re-shuffled, for up to
    ``_MATCHING_ROUNDS`` rounds.  Whatever stubs remain after that are erased
    (their count is recorded on the returned network), which keeps the
    generator total at the cost of a slightly truncated tail.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    degrees = rng.choice(dist.support, size=n_nodes, p=dist.probs)
    attempts = 0
    while degrees.sum() % 2 == 1:
        if attempts >= _PARITY_RETRIES:
            raise DegreeSequenceError(
                "could not reach an even stub sum by resampling the last node; "
                "the distribution cannot supply a feasible degree sequence"
            )
        degrees[-1] = rng.choice(dist.support, p=dist.probs)
        attempts += 1
    stubs = np.repeat(np.arange(n_nodes, dtype=np.int64), degrees)
    # sorted keys u * n + v (u < v) of the accepted edges; the sentinel above
    # every key keeps each searchsorted position in range
    seen = np.array([np.iinfo(np.int64).max])
    leftover = stubs
    for _ in range(_MATCHING_ROUNDS):
        if leftover.size < 2:
            break
        rng.shuffle(leftover)
        pairs = leftover.reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keys = lo * n_nodes + hi
        fresh = np.flatnonzero((lo != hi) & (seen[np.searchsorted(seen, keys)] != keys))
        # of a pair drawn twice in one round only the first copy is kept
        new_keys, first = np.unique(keys[fresh], return_index=True)
        accepted = np.zeros(keys.size, dtype=bool)
        accepted[fresh[first]] = True
        if new_keys.size:
            seen = np.insert(seen, np.searchsorted(seen, new_keys), new_keys)
        leftover = pairs[~accepted].ravel()
    erased = int(leftover.size) // 2
    edges = np.column_stack(np.divmod(seen[:-1], n_nodes))
    return Network(n_nodes, edges, erased_edges=erased)


def write_edge_list(network: Network, path) -> None:
    """Serialize to the text format: ``# nodes=<N>`` then one ``u v`` line per edge, u < v."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# nodes={network.n}\n")
        for u, v in network.edges():
            fh.write(f"{u} {v}\n")
