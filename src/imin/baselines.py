"""Prior-art greedy baselines: plain Monte-Carlo greedy, subtree-greedy
(AdvancedGreedy) and its seed-neighbor two-stage refinement
(GreedyReplace), after Xie et al., ICDE 2023.

All three re-estimate marginal decreases from scratch after every pick;
that is their defining cost.  A node's dominator-subtree size in a
realization is the number of common-path chains (from the batched
forward sampler) that contain it.  Ties always break toward the lowest
node id.
"""

from __future__ import annotations

import numpy as np

from .diffusion import ic_spread_samples
from .graph import BlockerSet, UnifiedGraph, block_nodes
from .sampling import _cp_batch

NEG_INF = -np.inf
_MAX_PASSES = 10  # cap on gr's stage-2 sweeps; guarantees termination


def _subtree_scores(g: UnifiedGraph, blockers, realizations: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Average dominator-subtree size per non-seed node over realizations.

    This is an unbiased estimate of each node's marginal decrease on the
    graph with `blockers` already removed.
    """
    totals = np.zeros(g.n_total, dtype=np.int64)
    for _, members, _, _ in _cp_batch(block_nodes(g, blockers),
                                      realizations, rng):
        totals += np.bincount(members, minlength=g.n_total)
    return totals / realizations


def _argmax_candidate(scores, allowed) -> int:
    masked = np.full(len(scores), NEG_INF)
    masked[allowed] = scores[allowed]
    return int(np.argmax(masked))


def _greedy(g: UnifiedGraph, allowed, k: int, realizations: int,
            rng: np.random.Generator) -> list:
    """Up to k picks from the mask `allowed` (consumed), each the node with
    the largest average dominator-subtree size once the earlier picks are
    blocked, re-sampled every round."""
    if realizations < 1:
        raise ValueError("realizations_per_round must be >= 1")
    chosen = []
    for _ in range(min(k, int(allowed.sum()))):
        scores = _subtree_scores(g, chosen, realizations, rng)
        best = _argmax_candidate(scores, allowed)
        chosen.append(best)
        allowed[best] = False
    return chosen


def ag(g: UnifiedGraph, k: int, realizations_per_round: int,
       rng: np.random.Generator) -> BlockerSet:
    """Subtree-greedy: per round, pick the node with the largest average
    dominator-subtree size, block it, and re-sample."""
    return BlockerSet(_greedy(g, g.candidates(), k, realizations_per_round,
                              rng))


def gr(g: UnifiedGraph, k: int, realizations_per_round: int,
       rng: np.random.Generator) -> BlockerSet:
    """Two-stage subtree-greedy.

    Stage 1 greedily fills the budget from the candidate seed
    out-neighbors only.  Stage 2 walks the blockers in reverse insertion
    order; each is removed and challenged by the globally best candidate
    for the remaining set, and the sweep stops as soon as a blocker
    survives its challenge (strict improvement required to replace).
    Sweeps are capped at `_MAX_PASSES` to guarantee termination.
    """
    candidates = g.candidates()
    near = np.zeros(g.n_total, dtype=bool)
    near[g.seed_out_neighbors()] = True
    chosen = _greedy(g, near & candidates, k, realizations_per_round, rng)

    for _ in range(_MAX_PASSES):
        for i in reversed(range(len(chosen))):
            removed = chosen[i]
            rest = chosen[:i] + chosen[i + 1:]
            scores = _subtree_scores(g, rest, realizations_per_round, rng)
            allowed = candidates.copy()
            allowed[rest] = False
            best = _argmax_candidate(scores, allowed)
            if best == removed or scores[best] <= scores[removed]:
                return BlockerSet(chosen)
            chosen = rest + [best]
    return BlockerSet(chosen)


def mc_greedy(g: UnifiedGraph, k: int, trials_per_eval: int,
              rng: np.random.Generator) -> BlockerSet:
    """Plain greedy with per-candidate Monte-Carlo residual estimation."""
    if trials_per_eval < 1:
        raise ValueError("trials_per_eval must be >= 1")
    chosen = []
    candidates = np.flatnonzero(g.candidates()).tolist()
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
