"""Prior-art greedy baselines: plain Monte-Carlo greedy, subtree-greedy
(AdvancedGreedy) and its seed-neighbor two-stage refinement
(GreedyReplace), after Xie et al., ICDE 2023.

All three pick through one loop, `_greedy`, which re-estimates every
candidate's score after each pick; that is their defining cost.  A
node's dominator-subtree size in a realization is the number of
common-path chains (from the batched forward sampler) that contain it.
Monte-Carlo greedy compares each round's candidates on shared
realizations, up to `diffusion._MAX_RUNS` of them per forward search.
Ties always break toward the lowest node id.
"""

from __future__ import annotations

import numpy as np

from .diffusion import _MAX_RUNS, spread_samples
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


def _greedy(allowed, k: int, samples: int, scores) -> list:
    """Up to k picks from the mask `allowed` (consumed): each the allowed
    node with the largest score in `scores(chosen)`, `chosen` the picks
    so far, ties to the lowest id.  `samples`, the count behind each
    round's scores, must be at least 1."""
    if samples < 1:
        raise ValueError(f"samples per round must be >= 1, got {samples}")
    chosen = []
    for _ in range(min(k, int(allowed.sum()))):
        best = _argmax_candidate(scores(chosen), allowed)
        chosen.append(best)
        allowed[best] = False
    return chosen


def ag(g: UnifiedGraph, k: int, realizations_per_round: int,
       rng: np.random.Generator) -> BlockerSet:
    """Subtree-greedy: per round, pick the node with the largest average
    dominator-subtree size, block it, and re-sample."""
    return BlockerSet(_greedy(
        g.candidates(), k, realizations_per_round,
        lambda b: _subtree_scores(g, b, realizations_per_round, rng)))


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
    chosen = _greedy(
        near & candidates, k, realizations_per_round,
        lambda b: _subtree_scores(g, b, realizations_per_round, rng))

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
    """Plain greedy by Monte-Carlo residual spread.

    Each round scores every remaining candidate v by minus the mean
    residual spread of `chosen + [v]` over `trials_per_eval` cascades.
    The candidates are taken in ascending id, `_MAX_RUNS` sets to one
    `spread_samples` call, whose sets share their realizations, so
    candidates of one call are compared on the same cascades.
    """
    def scores(chosen):
        out = np.zeros(g.n_total)
        remaining = np.flatnonzero(block_nodes(g, chosen).candidates())
        for i in range(0, len(remaining), _MAX_RUNS):
            group = remaining[i:i + _MAX_RUNS]
            out[group] = -spread_samples(g, [chosen + [v] for v in group],
                                         trials_per_eval, rng).mean(axis=1)
        return out

    return BlockerSet(_greedy(g.candidates(), k, trials_per_eval, scores))
