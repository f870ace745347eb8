"""Independent-cascade simulation and adaptive spread estimation.

Two equivalent views of the cascade are provided: vectorized forward
cascades (`ic_spread_samples`) and live-edge realizations, whose reachable
set has the same distribution.  Spread values count activated non-seed
nodes only.  The eager `Realization` (`sample_realization`, one coin per
edge of the graph) is only the tests' reference; the package searches
realizations lazily in batches: one breadth-first search runs over up to
`_BATCH` independent realizations at once and draws an edge's coin only
when the search first reaches the node at its near end, so a realization
costs what its cascade reaches (the live-edge idiom of
reverse-reachable-set influence maximization: Borgs et al., SODA 2014;
Tang et al., SIGMOD 2015).  The forward search (`_forward_levels`) yields
its live edges and newly reached nodes level by level:
`domtree.dominators` builds the dominator trees of a whole batch from
them, and `ic_spread_samples` keeps only how many nodes each cascade
activates.  It also takes an eager realization's live-edge mask in place
of coins, so the tests' reference runs the same search.
`reverse_live_edges` searches backwards from targets, and
`reverse_reach_counts` runs the same reverse search on a plain graph and
keeps only how often each node is found, which scores every node's
singleton influence at once.  All batched searches expand
their frontier through one CSR-slice helper, and each level step
compresses its examined edges once, by index: coins are compared with
every examined edge's probability, and only the live edges' owners and
heads are gathered and tested against the blocked mask.

`stopping_rule_spread` is a sequential mean estimator with a relative-error
contract: it draws cascades a batch at a time until empirical-Bernstein
confidence bounds on the mean normalized spread are within a factor that
depends on gamma (EBStop: Mnih, Szepesvari and Audibert, ICML 2008), so
low-variance spreads need few cascades.  Spreads are normalized by the
number of non-seed nodes the seeds can reach at all rather than by the
node count n, so nodes no cascade can reach do not inflate the trial
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, UnifiedGraph

# Trials per vectorized batch.  Fixed so that results for a given seed do
# not depend on caller-visible knobs.
_BATCH = 1024


class Realization:
    """One live-edge sample of a unified graph.

    `live` is a boolean bitmap over edge ids of the unified graph; edges
    into blocked nodes are never live.  `reach` traverses the realization
    on every read.
    """

    __slots__ = ("ug", "live", "blocked")

    def __init__(self, ug: UnifiedGraph, live: np.ndarray, blocked=None):
        self.ug = ug
        self.live = live
        self.blocked = ug.blocked if blocked is None else blocked

    @classmethod
    def from_edge_list(cls, ug: UnifiedGraph, edges):
        """Build a realization from explicit (u, v) pairs (tests/fixtures).

        Edges out of the virtual source are always live and need not be
        listed.
        """
        wanted = set((int(u), int(v)) for u, v in edges)
        live = np.zeros(ug.m_total, dtype=bool)
        src = np.repeat(np.arange(ug.n_total, dtype=np.int64),
                        np.diff(ug.out_ptr))
        for eid in range(ug.m_total):
            u, v = int(src[eid]), int(ug.out_dst[eid])
            if u == ug.s or (u, v) in wanted:
                live[eid] = True
                wanted.discard((u, v))
        if wanted:
            raise ValueError(f"edges not present in graph: {sorted(wanted)}")
        return cls(ug, live)

    @property
    def reach(self):
        return reachable_in_realization(self)


def reachable_in_realization(phi: Realization) -> np.ndarray:
    """Boolean mask of nodes with a live-edge path from the source."""
    return phi.ug.positive_reach(phi.blocked, live=phi.live)


def sample_realization(g: UnifiedGraph, blockers=None,
                       rng: np.random.Generator = None) -> Realization:
    """Keep each edge independently with its probability.

    Edges into blocked nodes are never kept; edges out of the virtual
    source have probability 1 and are always kept.
    """
    blocked = g.blocked_with(blockers)
    live = rng.random(g.m_total) < g.out_p
    if blocked.any():
        live &= ~blocked[g.out_dst]
    return Realization(g, live, blocked=blocked)


def ic_spread_samples(g: UnifiedGraph, blockers=None, trials: int = 1,
                      rng: np.random.Generator = None) -> np.ndarray:
    """Vectorized forward cascades; returns one spread value per trial."""
    blocked = g.blocked_with(blockers)
    out = np.zeros(trials, dtype=np.int64)
    for done in range(0, trials, _BATCH):
        batch = min(_BATCH, trials - done)
        for *_, node, trial in _forward_levels(g, blocked, batch, rng):
            out[done:done + batch] += np.bincount(
                trial[~g.uncounted[node]], minlength=batch)
    return out


def _slices(lo, hi):
    """(idx, owner): the index ranges [lo[i], hi[i]) concatenated in order,
    and for each index the i of its range."""
    lens = hi - lo
    owner = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    shift = lo - np.cumsum(lens) + lens
    return np.arange(len(owner), dtype=np.int64) + shift[owner], owner


def _advance(seen, key):
    """The keys not yet in `seen`, once each and sorted; marks them seen.

    Keys are node-major, node * batch + trial, and `seen` is allocated with
    `np.zeros`, so the memory it touches follows the nodes reached, not
    batch * n.  Duplicates go by one sort: np.unique's hash table is slower
    on these keys.
    """
    key = np.sort(key[np.flatnonzero(~seen[key])])
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    key = key[fresh]
    seen[key] = True
    return key


def _forward_levels(g, blocked, batch, rng, live=None):
    """Breadth-first search from the source over `batch` independent
    realizations at once, one level per step.

    Each edge's coin is drawn when its source node is first reached, so it
    is drawn at most once per realization; a `live` edge mask, when given,
    stands in for the coins (one realization, no draws).  Edges into
    `blocked` nodes are never live.  Yields, per level, (owner, dst) of the
    live edges out of the level's pairs, owner indexing those pairs in
    ascending order, then (node, trial) of the pairs they reach first,
    sorted node-major.
    """
    seen = np.zeros(g.n_total * batch, dtype=bool)
    trial = np.arange(batch, dtype=np.int64)
    node = np.full(batch, g.s, dtype=np.int64)
    seen[node * batch + trial] = True
    while len(node):
        eids, owner = _slices(g.out_ptr[node], g.out_ptr[node + 1])
        hit = np.flatnonzero(rng.random(len(eids)) < g.out_p[eids]
                             if live is None else live[eids])
        owner, dst = owner[hit], g.out_dst[eids[hit]]
        hit = np.flatnonzero(~blocked[dst])
        owner, dst = owner[hit], dst[hit]
        node, trial = np.divmod(_advance(seen, dst * batch + trial[owner]),
                                batch)
        yield owner, dst, node, trial


def reverse_live_edges(g: UnifiedGraph, targets: np.ndarray,
                       rng: np.random.Generator):
    """Live in-edges of the nodes that reach `targets[t]` without passing
    through a seed or the source, one independent realization per trial t.

    The search starts at each target and never enters a seed or the
    source.  Each edge's coin is drawn when its target node is first found,
    so it is drawn at most once per realization; edges into blocked nodes
    are never live.  Returns (trial, src, dst) of every live in-edge of a
    found node; an edge whose `src` is a seed marks where the seeds feed
    the found nodes.
    """
    batch = len(targets)
    seen = np.zeros(g.n_total * batch, dtype=bool)
    trial = np.arange(batch, dtype=np.int64)
    node = np.asarray(targets, dtype=np.int64)
    seen[node * batch + trial] = True
    parts = []
    while len(node):
        offs, owner = _slices(g.in_ptr[node], g.in_ptr[node + 1])
        hit = np.flatnonzero(rng.random(len(offs)) < g.in_p[offs])
        owner, offs = owner[hit], offs[hit]
        hit = np.flatnonzero(~g.blocked[node[owner]])
        owner, src = owner[hit], g.in_src[offs[hit]]
        t = trial[owner]
        parts.append((t, src, node[owner]))
        inner = ~g.uncounted[src]
        node, trial = np.divmod(
            _advance(seen, src[inner] * batch + t[inner]), batch)
    return tuple(np.concatenate(a) for a in zip(*parts))


def reverse_reach_counts(g: Graph, samples: int,
                         rng: np.random.Generator) -> np.ndarray:
    """For each node, in how many of `samples` reverse-reachable sets of
    the plain graph `g` it lies.

    Each set is the nodes that reach a uniform random target over live
    edges, target included, so n * count[v] / samples estimates the
    expected spread of the seed set {v}, v itself counted (Borgs et al.,
    SODA 2014).  Sets are searched `_BATCH` at a time with lazy coins, as in
    `reverse_live_edges`; only the per-node count is kept, not the sets.
    """
    counts = np.zeros(g.n, dtype=np.int64)
    for done in range(0, samples, _BATCH):
        batch = min(_BATCH, samples - done)
        seen = np.zeros(g.n * batch, dtype=bool)
        trial = np.arange(batch, dtype=np.int64)
        node = rng.integers(0, g.n, size=batch)
        seen[node * batch + trial] = True
        while len(node):
            counts += np.bincount(node, minlength=g.n)
            offs, owner = _slices(g.in_ptr[node], g.in_ptr[node + 1])
            hit = np.flatnonzero(rng.random(len(offs)) < g.in_p[offs])
            key = g.in_src[offs[hit]] * batch + trial[owner[hit]]
            node, trial = np.divmod(_advance(seen, key), batch)
    return counts


def monte_carlo_spread(g: UnifiedGraph, blockers=None, trials: int = 10_000,
                       rng: np.random.Generator = None) -> float:
    """Arithmetic mean of `trials` forward-cascade spreads."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return float(ic_spread_samples(g, blockers, trials, rng).mean())


@dataclass
class SpreadEstimate:
    """A spread estimate with its accuracy contract.

    With probability at least 1 - delta the value lies within a factor
    (1 +/- gamma) of the true expected non-seed spread.  `exact_zero` is set
    when the graph structure forces a spread of exactly zero; no cascade is
    drawn in that case, so `samples_used` is 0.
    """

    value: float
    gamma: float
    delta: float
    samples_used: int
    exact_zero: bool = False


def stopping_rule_spread(g: UnifiedGraph, blockers=None, gamma: float = 0.1,
                         delta: float = 0.1,
                         rng: np.random.Generator = None) -> SpreadEstimate:
    """(gamma, delta)-estimate of the expected non-seed spread.

    Draws cascades and normalizes each spread by N_B, the number of
    non-seed nodes reachable from the seeds over positive-probability
    edges that avoid the blocked nodes.  Every activated non-seed node lies
    in that set, so the samples lie in [0, 1]; the trial count follows the
    part of the graph the cascade can reach, not the node count n.

    Sampling stops by empirical-Bernstein stopping (EBStop: Mnih,
    Szepesvari and Audibert, ICML 2008).  After batch j, t = j * _BATCH
    samples in, the mean lies within

        c_t = sqrt(2 V_t L / t) + 3 L / t,   L = ln(3 / d_j),

    of the sample mean with probability at least 1 - d_j, where V_t is the
    (1/t) sample variance and d_j = 6 delta / (pi^2 j^2), so the failure
    budgets sum to delta.  The running bounds LB = max(LB, mean - c_t) and
    UB = min(UB, mean + c_t), from LB = 0 and UB = 1, stop the loop once
    (1 + gamma) LB >= (1 - gamma) UB, and N_B * ((1 + gamma) LB +
    (1 - gamma) UB) / 2 is then within (1 +/- gamma) of the mean.  The
    trial count scales with the samples' variance rather than with the
    worst case of a [0, 1] variable, but is always a whole number of
    batches.  N_B = 0 forces a spread of exactly zero, which is returned
    without sampling.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    blocked = g.blocked_with(blockers)
    n_reach = int(np.count_nonzero(g.positive_reach(blocked)
                                   & ~g.uncounted))
    if n_reach == 0:
        return SpreadEstimate(value=0.0, gamma=gamma, delta=delta,
                              samples_used=0, exact_zero=True)

    # spreads are integers, so their sums and sums of squares are exact
    total = square = 0
    low, high = 0.0, 1.0
    j = 0
    while True:
        j += 1
        spreads = ic_spread_samples(g, blockers, _BATCH, rng)
        total += int(spreads.sum())
        square += int(spreads @ spreads)
        t = j * _BATCH
        mean = total / (t * n_reach)
        var = max(0.0, square / (t * n_reach * n_reach) - mean * mean)
        log_term = math.log(math.pi ** 2 * j * j / (2.0 * delta))
        c = math.sqrt(2.0 * var * log_term / t) + 3.0 * log_term / t
        low, high = max(low, mean - c), min(high, mean + c)
        if (1.0 + gamma) * low >= (1.0 - gamma) * high:
            value = 0.5 * ((1.0 + gamma) * low + (1.0 - gamma) * high)
            return SpreadEstimate(value=value * n_reach, gamma=gamma,
                                  delta=delta, samples_used=t)
