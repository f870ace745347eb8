"""Exact brute-force spread, decrease and bound values on tiny graphs.

Every quantity is computed by enumerating live-edge outcomes: edges with
probability strictly between 0 and 1 are toggled through all 2^q
assignments (deterministic edges are folded out first), and reachability
questions are answered per outcome with dense boolean closures, vectorized
across outcome chunks.  This is the ground truth used by unbiasedness,
bound-ordering and approximation tests; it refuses graphs beyond the
enumeration limit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .graph import UnifiedGraph

MAX_PROB_EDGES = 22
_CHUNK = 1 << 14
_CACHE_LIMIT = 1 << 16  # outcomes; beyond this, chunks are regenerated


class OracleLimitError(ValueError):
    """Graph too large for exact enumeration."""


def _closure(adj, start):
    """Per-outcome reachability: adj (c, N, N) bool, start (c, N) bool."""
    reached = start.copy()
    while True:
        step = np.matmul(reached[:, None, :].astype(np.uint8),
                         adj.astype(np.uint8))[:, 0, :] > 0
        new = reached | step
        if np.array_equal(new, reached):
            return reached
        reached = new


class ExactModel:
    """Cached outcome enumeration for one unified graph.

    Tests that evaluate many blocker sets on one graph should hold on to
    one instance so the per-outcome caches are reused.  Caching is
    disabled above 2^16 outcomes and every query then streams the
    enumeration.
    """

    def __init__(self, ug: UnifiedGraph):
        self.ug = ug
        n_tot = ug.n_total
        src = np.repeat(np.arange(n_tot, dtype=np.int64),
                        np.diff(ug.out_ptr))
        dst, p = ug.out_dst, ug.out_p.copy()
        # Honor the graph's own blocking mask: edges into blocked nodes
        # can never be live.
        p[ug.blocked[dst]] = 0.0
        rand = (p > 0.0) & (p < 1.0)
        if int(rand.sum()) > MAX_PROB_EDGES:
            raise OracleLimitError(
                f"{int(rand.sum())} probabilistic edges exceed the exact "
                f"enumeration limit of {MAX_PROB_EDGES}")
        self.rand_src = src[rand]
        self.rand_dst = dst[rand]
        self.rand_p = p[rand]
        self.q = len(self.rand_p)
        self.n_outcomes = 1 << self.q

        self.base_adj = np.zeros((n_tot, n_tot), dtype=bool)
        sure = p >= 1.0
        self.base_adj[src[sure], dst[sure]] = True

        self._cacheable = self.n_outcomes <= _CACHE_LIMIT
        self._cached_chunks = None
        self._protected_single = {}
        self._upper_single = {}

    # -- outcome materialization ------------------------------------------

    def _make_chunk(self, lo, hi):
        n_tot = self.ug.n_total
        ids = np.arange(lo, hi, dtype=np.int64)
        adj = np.broadcast_to(self.base_adj, (hi - lo, n_tot, n_tot)).copy()
        prob = np.ones(hi - lo, dtype=np.float64)
        for j in range(self.q):
            on = (ids >> j) & 1 == 1
            adj[on, self.rand_src[j], self.rand_dst[j]] = True
            prob *= np.where(on, self.rand_p[j], 1.0 - self.rand_p[j])
        start = np.zeros((hi - lo, n_tot), dtype=bool)
        start[:, self.ug.s] = True
        reach0 = _closure(adj, start)
        return adj, prob, reach0

    def _chunks(self):
        """Yield (chunk index, adj, probs, unblocked reach) per chunk."""
        if self._cacheable:
            if self._cached_chunks is None:
                self._cached_chunks = [
                    self._make_chunk(lo, min(lo + _CHUNK, self.n_outcomes))
                    for lo in range(0, self.n_outcomes, _CHUNK)]
            for ci, chunk in enumerate(self._cached_chunks):
                yield (ci,) + chunk
        else:
            for ci, lo in enumerate(range(0, self.n_outcomes, _CHUNK)):
                yield (ci,) + self._make_chunk(
                    lo, min(lo + _CHUNK, self.n_outcomes))

    # -- exact quantities --------------------------------------------------

    def spread(self, blockers=None) -> float:
        """Expected number of activated non-seed nodes."""
        b = self.ug.check_blockers(blockers)
        keep = ~self.ug.uncounted
        s = self.ug.s
        total = 0.0
        for _, adj, prob, reach0 in self._chunks():
            if len(b):
                adj = adj.copy()
                for v in b:
                    adj[:, :, v] = False
                start = np.zeros_like(reach0)
                start[:, s] = True
                reach = _closure(adj, start)
            else:
                reach = reach0
            total += float(prob @ (reach & keep).sum(axis=1))
        return total

    def decrease(self, blockers) -> float:
        """Expected drop in spread after blocking, as a spread difference."""
        return self.spread(None) - self.spread(blockers)

    def _protected_masks(self, v, adj, reach0):
        adj = adj.copy()
        adj[:, :, v] = False
        start = np.zeros_like(reach0)
        start[:, self.ug.s] = True
        return reach0 & ~_closure(adj, start)

    def _upper_masks(self, v, adj, reach0):
        inside = reach0 & ~self.ug.uncounted
        adj_s = adj & inside[:, :, None] & inside[:, None, :]
        start = np.zeros_like(reach0)
        start[:, v] = True
        start &= inside
        return _closure(adj_s, start)

    def _union_sum(self, blockers, per_node_fn, cache) -> float:
        b = self.ug.check_blockers(blockers)
        if not len(b):
            return 0.0
        total = 0.0
        for ci, adj, prob, reach0 in self._chunks():
            union = None
            for v in b:
                if self._cacheable:
                    masks = cache.setdefault(v, {})
                    if ci not in masks:
                        masks[ci] = per_node_fn(v, adj, reach0)
                    mask = masks[ci]
                else:
                    mask = per_node_fn(v, adj, reach0)
                union = mask.copy() if union is None else union | mask
            total += float(prob @ union.sum(axis=1))
        return total

    def lower_bound(self, blockers) -> float:
        """Expected size of the union of single-blocker protected sets."""
        return self._union_sum(blockers, self._protected_masks,
                               self._protected_single)

    def upper_bound(self, blockers) -> float:
        """Expected number of nodes reachable from B in the receiver subgraph."""
        return self._union_sum(blockers, self._upper_masks,
                               self._upper_single)

    def value(self, blockers, objective="decrease") -> float:
        fn = {"decrease": self.decrease, "lower": self.lower_bound,
              "upper": self.upper_bound}[objective]
        return fn(blockers)

    def optimal_blockers(self, k, objective="decrease"):
        """Exhaustive best blocker set of size <= k (ties: smallest set)."""
        candidates = [v for v in range(self.ug.base.n)
                      if v not in self.ug.seeds]
        if k <= 0 or not candidates:
            return (), 0.0
        k = min(k, len(candidates))
        n_subsets = math.comb(len(candidates), k)
        if n_subsets > 100_000:
            raise OracleLimitError(
                f"{n_subsets} candidate subsets exceed the exhaustive "
                "search limit of 100000")
        best, best_val = None, -1.0
        for combo in itertools.combinations(candidates, k):
            val = self.value(combo, objective)
            if val > best_val + 1e-12:
                best, best_val = combo, val
        return best, best_val

