"""Independent-cascade simulation and adaptive spread estimation.

Two equivalent views of the cascade are provided: vectorized forward
cascades (`ic_spread_samples`) and live-edge realization sampling
(`sample_realization`), whose reachable-set size has the same distribution.
Spread values count activated non-seed nodes only.  `live_dfs` is the one
forward traversal of a realization: its preorder numbers give the reach
mask and are the node numbering of the dominator-tree build.

`stopping_rule_spread` is a sequential mean estimator with a relative-error
contract: it keeps drawing cascades until the running sum of normalized
spreads crosses a threshold that depends only on (gamma, delta), following
the stopping-rule construction for [0, 1] variables of Dagum, Karp, Luby
and Ross (SIAM J. Comput. 2000).  Spreads are normalized by the number of
non-seed nodes the seeds can reach at all rather than by the node count
n, so nodes no cascade can reach do not inflate the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import UnifiedGraph

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


def live_dfs(phi: Realization):
    """Depth-first search of the live subgraph from the source.

    Returns (dfnum, vertex, post): `dfnum[v]` is v's preorder number (-1
    when v is unreached), `vertex` lists the reached nodes in
    preorder (int64 array, source first), and `post` lists preorder
    numbers in postorder.  Out-edges are followed in CSR order, so the
    numbering is that of the recursive DFS.
    """
    ug = phi.ug
    out_ptr, out_dst = ug.out_ptr, ug.out_dst
    live, blocked = phi.live, phi.blocked
    dfnum = np.full(ug.n_total, -1, dtype=np.int64)
    dfnum[ug.s] = 0
    vertex, post = [ug.s], []
    stack = [(0, iter(range(out_ptr[ug.s], out_ptr[ug.s + 1])))]
    while stack:
        d, edges = stack[-1]
        for off in edges:
            if not live[off]:
                continue
            v = out_dst[off]
            if dfnum[v] >= 0 or blocked[v]:
                continue
            dfnum[v] = len(vertex)
            stack.append((len(vertex),
                          iter(range(out_ptr[v], out_ptr[v + 1]))))
            vertex.append(v)
            break
        else:
            stack.pop()
            post.append(d)
    return dfnum, np.asarray(vertex, dtype=np.int64), post


def reachable_in_realization(phi: Realization) -> np.ndarray:
    """Boolean mask of nodes with a live-edge path from the source."""
    return live_dfs(phi)[0] >= 0


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
    out = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        batch = min(_BATCH, trials - done)
        out[done:done + batch] = _ic_batch(g, blocked, batch, rng)
        done += batch
    return out


def _ic_batch(g, blocked, batch, rng):
    n_tot = g.n_total
    active = np.zeros((batch, n_tot), dtype=bool)
    active[:, g.s] = True
    counts = np.zeros(batch, dtype=np.int64)
    deg = np.diff(g.out_ptr)

    trial = np.arange(batch, dtype=np.int64)
    node = np.full(batch, g.s, dtype=np.int64)
    while len(node):
        d = deg[node]
        keep = d > 0
        node, t = node[keep], trial[keep]
        d = d[keep]
        if not len(node):
            break
        # Expand every frontier node's out-edge slice into flat arrays.
        starts = g.out_ptr[node]
        eids = np.repeat(starts, d) + _ranges(d)
        t_of_e = np.repeat(t, d)
        hit = rng.random(len(eids)) < g.out_p[eids]
        dst = g.out_dst[eids[hit]]
        t_of_e = t_of_e[hit]
        ok = ~blocked[dst] & ~active[t_of_e, dst]
        dst, t_of_e = dst[ok], t_of_e[ok]
        if not len(dst):
            break
        # Two frontier nodes in one trial may both hit the same target;
        # the target activates once.
        key = t_of_e * n_tot + dst
        _, first = np.unique(key, return_index=True)
        dst, t_of_e = dst[first], t_of_e[first]
        active[t_of_e, dst] = True
        np.add.at(counts, t_of_e[~g.uncounted[dst]], 1)
        node, trial = dst, t_of_e
    return counts


def _ranges(lengths):
    """[0..l0), [0..l1), ... concatenated."""
    total = int(lengths.sum())
    out = np.arange(total, dtype=np.int64)
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return out - offsets


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
    when the graph structure forces a spread of exactly zero (no sampling
    loop is entered in that case).
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
    part of the graph the cascade can reach, not the node count n.  It
    stops the first time the running sum reaches

        upsilon = 1 + 4 (e - 2) ln(2 / delta) (1 + gamma) / gamma^2,

    returning upsilon * N_B / T where T is the number of samples taken.
    N_B = 0 forces a spread of exactly zero, which is returned without
    sampling.
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
                              samples_used=1, exact_zero=True)

    upsilon = 1.0 + 4.0 * (math.e - 2.0) * math.log(2.0 / delta) \
        * (1.0 + gamma) / (gamma * gamma)
    total = 0.0
    taken = 0
    while True:
        batch = ic_spread_samples(g, blockers, _BATCH, rng) / n_reach
        running = total + np.cumsum(batch)
        crossed = np.nonzero(running >= upsilon)[0]
        if len(crossed):
            taken += int(crossed[0]) + 1
            return SpreadEstimate(value=upsilon * n_reach / taken,
                                  gamma=gamma, delta=delta,
                                  samples_used=taken)
        total = float(running[-1])
        taken += len(batch)
