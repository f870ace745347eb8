"""Independent-cascade simulation and adaptive spread estimation.

Two equivalent views of the cascade are provided: vectorized forward
cascades (`ic_spread_samples`) and live-edge realization sampling
(`sample_realization`), whose reachable-set size has the same distribution.
Spread values count activated non-seed nodes only.

`stopping_rule_spread` is a sequential mean estimator with a relative-error
contract: it keeps drawing cascades until the running sum of normalized
spreads crosses a threshold that depends only on (gamma, delta), following
the classic stopping-rule construction for [0, 1] variables.
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
    into blocked nodes are never live.  The reachable set of the source is
    computed lazily.
    """

    __slots__ = ("ug", "live", "blocked", "_reach")

    def __init__(self, ug: UnifiedGraph, live: np.ndarray, blocked=None):
        self.ug = ug
        self.live = live
        self.blocked = ug.blocked if blocked is None else blocked
        self._reach = None

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
        if self._reach is None:
            self._reach = reachable_in_realization(self, self.ug.s)
        return self._reach


def reachable_in_realization(phi: Realization, src: int) -> np.ndarray:
    """Boolean mask of nodes with a live-edge path from `src`."""
    ug = phi.ug
    reached = np.zeros(ug.n_total, dtype=bool)
    if phi.blocked[src]:
        return reached
    reached[src] = True
    stack = [src]
    while stack:
        u = stack.pop()
        lo, hi = ug.out_ptr[u], ug.out_ptr[u + 1]
        for off in range(lo, hi):
            if not phi.live[off]:
                continue
            v = ug.out_dst[off]
            if reached[v] or phi.blocked[v]:
                continue
            reached[v] = True
            stack.append(v)
    return reached


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

    Draws cascades, normalizes each spread by the base node count n so the
    samples lie in [0, 1], and stops the first time the running sum reaches

        upsilon = 1 + 4 (e - 2) ln(2 / delta) (1 + gamma) / gamma^2,

    returning upsilon * n / T where T is the number of samples taken.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    blocked = g.blocked_with(blockers)
    n = g.base.n
    if not (g.positive_reach(blocked) & ~g.uncounted).any():
        return SpreadEstimate(value=0.0, gamma=gamma, delta=delta,
                              samples_used=1, exact_zero=True)

    upsilon = 1.0 + 4.0 * (math.e - 2.0) * math.log(2.0 / delta) \
        * (1.0 + gamma) / (gamma * gamma)
    total = 0.0
    taken = 0
    while True:
        batch = ic_spread_samples(g, blockers, _BATCH, rng) / n
        running = total + np.cumsum(batch)
        crossed = np.nonzero(running >= upsilon)[0]
        if len(crossed):
            taken += int(crossed[0]) + 1
            return SpreadEstimate(value=upsilon * n / taken, gamma=gamma,
                                  delta=delta, samples_used=taken)
        total = float(running[-1])
        taken += len(batch)
