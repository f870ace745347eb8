"""Prior-art greedy baselines: plain Monte-Carlo greedy, subtree-greedy
(fresh dominator trees every round) and its seed-neighbor two-stage
refinement.

All three re-estimate marginal decreases from scratch after every pick;
that is their defining cost.  Ties always break toward the lowest node id.
"""

from __future__ import annotations

import numpy as np

from .diffusion import ic_spread_samples, sample_realization
from .domtree import build_dominator_tree
from .graph import BlockerSet, UnifiedGraph

NEG_INF = -np.inf


def _subtree_scores(g: UnifiedGraph, blockers, realizations: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Average dominator-subtree size per node over fresh realizations.

    This is an unbiased estimate of each node's marginal decrease on the
    graph with `blockers` already removed.
    """
    totals = np.zeros(g.n_total, dtype=np.float64)
    for _ in range(realizations):
        phi = sample_realization(g, blockers, rng)
        totals += build_dominator_tree(phi).subtree_size
    return totals / realizations


def _argmax_candidate(scores, allowed) -> int:
    masked = np.full(len(scores), NEG_INF)
    masked[allowed] = scores[allowed]
    return int(np.argmax(masked))


def ag(g: UnifiedGraph, k: int, realizations_per_round: int = 10_000,
       rng: np.random.Generator = None) -> BlockerSet:
    """Subtree-greedy: per round, pick the node with the largest average
    dominator-subtree size, block it, and re-sample."""
    if realizations_per_round < 1:
        raise ValueError("realizations_per_round must be >= 1")
    chosen = []
    allowed = np.zeros(g.n_total, dtype=bool)
    allowed[:g.base.n] = True
    allowed[list(g.seeds)] = False
    allowed &= ~g.blocked
    for _ in range(max(0, k)):
        if not allowed.any():
            break
        scores = _subtree_scores(g, chosen, realizations_per_round, rng)
        best = _argmax_candidate(scores, allowed)
        chosen.append(best)
        allowed[best] = False
    return BlockerSet(chosen)


def gr(g: UnifiedGraph, k: int, realizations_per_round: int = 10_000,
       rng: np.random.Generator = None, max_passes: int = 10) -> BlockerSet:
    """Two-stage subtree-greedy.

    Stage 1 greedily fills the budget from the seed out-neighbors only.
    Stage 2 walks the blockers in reverse insertion order; each is removed
    and challenged by the globally best node for the remaining set, and
    the sweep stops as soon as a blocker survives its challenge (strict
    improvement required to replace).  Sweeps are capped to guarantee
    termination.
    """
    if realizations_per_round < 1:
        raise ValueError("realizations_per_round must be >= 1")
    on = g.seed_out_neighbors()
    budget = min(len(on), max(0, k))

    chosen = []
    on_allowed = np.zeros(g.n_total, dtype=bool)
    on_allowed[on] = True
    while len(chosen) < budget:
        scores = _subtree_scores(g, chosen, realizations_per_round, rng)
        best = _argmax_candidate(scores, on_allowed)
        chosen.append(best)
        on_allowed[best] = False

    all_allowed = np.zeros(g.n_total, dtype=bool)
    all_allowed[:g.base.n] = True
    all_allowed[list(g.seeds)] = False
    all_allowed &= ~g.blocked

    for _ in range(max_passes):
        replaced = False
        i = len(chosen) - 1
        while i >= 0:
            removed = chosen[i]
            rest = chosen[:i] + chosen[i + 1:]
            scores = _subtree_scores(g, rest, realizations_per_round, rng)
            allowed = all_allowed.copy()
            allowed[rest] = False
            best = _argmax_candidate(scores, allowed)
            if best == removed or scores[best] <= scores[removed]:
                return BlockerSet(chosen)
            chosen = rest + [best]
            replaced = True
            i -= 1
        if not replaced:
            break
    return BlockerSet(chosen)


def mc_greedy(g: UnifiedGraph, k: int, trials_per_eval: int = 1000,
              rng: np.random.Generator = None) -> BlockerSet:
    """Plain greedy with per-candidate Monte-Carlo residual estimation."""
    if trials_per_eval < 1:
        raise ValueError("trials_per_eval must be >= 1")
    chosen = []
    candidates = [v for v in range(g.base.n)
                  if v not in g.seeds and not g.blocked[v]]
    for _ in range(max(0, k)):
        remaining = [v for v in candidates if v not in chosen]
        if not remaining:
            break
        best, best_residual = None, None
        for v in remaining:
            residual = float(ic_spread_samples(
                g, chosen + [v], trials_per_eval, rng).mean())
            if best is None or residual < best_residual - 1e-12:
                best, best_residual = v, residual
        chosen.append(best)
    return BlockerSet(chosen)
