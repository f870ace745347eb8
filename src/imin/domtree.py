"""Dominator trees over live-edge realizations, a whole batch at a time.

`dominators` is the one dominator routine.  It takes the levels of a
breadth-first search over many independent realizations at once
(`diffusion._forward_levels`) and builds every realization's dominator
tree with array passes only, so no Python code runs per realization.

Each reached (realization, node) pair is numbered in the order the search
finds it, one level after another.  A dominator lies on every path,
including a shortest one, so it sits on an earlier level and has a smaller
number: numbers fall along every dominator chain.  The tree starts as the
breadth-first tree (each node under its smallest-numbered predecessor).
Only join nodes, those with more than one live predecessor, can move.
Jacobi sweeps set every join's immediate dominator to the nearest common
ancestor, in the current tree, of its current dominator and all its
predecessors, until no join moves: the iterative scheme of Cooper, Harvey
and Kennedy ("A Simple, Fast Dominance Algorithm", 2001) run from a
spanning tree.  A node only ever moves to one of its ancestors, so the
sweeps end, and every true dominator stays an ancestor throughout, so the
fixed point is the dominator tree.  After the first sweep only the joins
below a node that just moved, or with a predecessor there, are evaluated
again.  Common ancestors are found by binary lifting, so a sweep costs a
fixed number of array passes.

The trees are read through root paths: `sampling` walks `idom` up from a
node, stopping below the seeds, to get its dominator chain.  The chains
that contain a node are its subtree, so the greedy baselines' subtree
sizes (the unit of spread-decrease estimation) are chain-member counts.
`build_dominator_tree` feeds an eager `diffusion.Realization` to the same
routine as a batch of one and sums subtree sizes bottom-up, one pass per
search level: the tests' reference only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diffusion import _forward_levels


@dataclass
class DominatorTree:
    """Immediate dominators of a realization, rooted at the source.

    `idom[v]` is -1 for the root and for nodes unreachable from it.
    `subtree_size[v]` counts tree nodes in v's subtree (v included);
    unreachable nodes get 0.
    """

    idom: np.ndarray
    subtree_size: np.ndarray


class BatchDominators(NamedTuple):
    """Dominator trees of a batch, indexed by search number w.

    `key[w]` is node * batch + trial of the reached pair; the roots (the
    source of each realization) are numbers 0..batch-1, in trial order.
    `idom[w]` is the number of its immediate dominator (a root points to
    itself).  `spans` are the [lo, hi) number ranges of the levels after
    the roots; `joins` and `sweeps` count join nodes and sweeps run.
    """

    key: np.ndarray
    idom: np.ndarray
    spans: list
    joins: int
    sweeps: int


def _heads(sorted_ids):
    """Positions where a run of equal values starts in `sorted_ids`."""
    head = np.ones(len(sorted_ids), dtype=bool)
    head[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return np.flatnonzero(head)


def _common_ancestors(up, depth, a, b):
    """Nearest common ancestors of the pairs (a[i], b[i]) in the tree whose
    2^k-th ancestor table is up[k]; every pair shares a root."""
    deeper = depth[a] < depth[b]
    a, b = np.where(deeper, b, a), np.where(deeper, a, b)
    lift = depth[a] - depth[b]
    for k in range(int(lift.max(initial=0)).bit_length()):
        a = np.where(lift >> k & 1 == 1, up[k][a], a)
    out = a
    apart = np.flatnonzero(a != b)
    a, b = a[apart], b[apart]
    for jump in reversed(up[:int(depth[b].max(initial=0)).bit_length()]):
        ja, jb = jump[a], jump[b]
        step = ja != jb
        a, b = np.where(step, ja, a), np.where(step, jb, b)
    out[apart] = up[0][a]
    return out


def _search_numbers(levels, root, batch):
    """Number the pairs a batched search reaches, level by level.

    Returns (key, spans, parent, src, dst): key[w] = node * batch + trial
    of pair w; spans the [lo, hi) number range of each level after the
    roots; parent[w] the number of w's breadth-first parent, its
    smallest-numbered live predecessor (a root is its own parent); and
    (src, dst) the numbers of the ends of every other live edge.  Only
    those edges are kept, not the tree edges.
    """
    key = [root * batch + np.arange(batch, dtype=np.int64)]
    parent = [np.arange(batch, dtype=np.int64)]
    src, head_key = [], []
    trials = np.arange(batch, dtype=np.int64)     # of the current level
    start = 0                                     # its first number
    for owner, dst, node, trial, *_ in levels:
        head = dst * batch + trials[owner]
        # A stable sort keeps each head's edges in ascending tail order.
        by_head = np.argsort(head, kind="stable")
        head, owner = head[by_head], owner[by_head]
        new = node * batch + trial        # sorted, each the head of an edge
        first = np.searchsorted(head, new)
        parent.append(start + owner[first])
        other = np.ones(len(head), dtype=bool)
        other[first] = False
        src.append(start + owner[other])
        head_key.append(head[other])
        start += len(trials)
        key.append(new)
        trials = trial
    bounds = np.cumsum([len(k) for k in key]).tolist()
    key, parent, src, head_key = (np.concatenate(a) for a in
                                  (key, parent, src, head_key))
    order = np.argsort(key, kind="stable")    # merges the sorted levels
    dst = order[np.searchsorted(key[order], head_key)]
    return key, list(zip(bounds[:-1], bounds[1:])), parent, src, dst


def dominators(levels, root, batch) -> BatchDominators:
    """Dominator trees of the `batch` realizations whose search `levels`
    yields, per level, (owner, dst, node, trial) as
    `diffusion._forward_levels` does for one run (what follows them, such
    as its run bits, is ignored): the live edges out of the previous level
    (owner indexes that level's pairs) and the pairs first reached.
    Every realization's search starts at `root`.
    """
    key, spans, idom, src, dst = _search_numbers(levels, root, batch)
    n = len(key)
    if n >= 2 ** 31:    # numbers are int32, and number pairs pack into int64
        raise OverflowError(f"a batch reached {n} (node, trial) pairs")
    idom = idom.astype(np.int32)
    # Every predecessor of each join, grouped by join and in ascending
    # number: the breadth-first parent first, then the other edges' tails.
    jd, js = np.divmod(np.sort(dst * n + src), n)
    del src, dst
    first = _heads(jd)
    joins = jd[first]
    jd = np.insert(jd, first, joins)
    js = np.insert(js, first, idom[joins])
    first += np.arange(len(first))
    preds = np.diff(first, append=len(jd))

    depth = np.zeros(n, dtype=np.int32)
    for lo, hi in spans:
        depth[lo:hi] = depth[idom[lo:hi]] + 1
    up = [idom]             # up[k][w]: the 2^k-th ancestor of w
    while 1 << len(up) <= depth.max():
        up.append(up[-1][up[-1]])
    active = np.ones(len(joins), dtype=bool)
    sweeps = 0
    level_ends = np.array([hi for _, hi in spans], dtype=np.int64)
    while active.any():
        sweeps += 1
        pair = np.repeat(active, preds)
        new = np.minimum.reduceat(
            _common_ancestors(up, depth, idom[jd[pair]], js[pair]),
            _heads(jd[pair]))
        moved = new != idom[joins[active]]
        moved, new = joins[active][moved], new[moved]
        if not len(moved):
            break
        idom[moved] = new
        # Only the nodes below a moved node, all numbered after it, get new
        # ancestors and depths, and a join can move again only if it or a
        # predecessor is one.
        below = np.zeros(n, dtype=bool)
        below[moved] = True
        top = int(moved.min())
        for lo, hi in spans[np.searchsorted(level_ends, top, side="right"):]:
            parent = idom[lo:hi]
            below[lo:hi] |= below[parent]
            depth[lo:hi] = depth[parent] + 1
        active = np.logical_or.reduceat(below[js], first) | below[joins]
        below = np.flatnonzero(below)
        for k in range(1, len(up)):
            up[k][below] = up[k - 1][up[k - 1][below]]
    del up, depth, jd, js
    return BatchDominators(key=key, idom=idom, spans=spans,
                           joins=len(joins), sweeps=sweeps)


def build_dominator_tree(phi) -> DominatorTree:
    """Immediate dominators of the live subgraph of the realization `phi`
    (a `diffusion.Realization`) from the source."""
    ug = phi.ug
    tree = dominators(_forward_levels(ug, phi.blocked, 1, None,
                                      live=phi.live), ug.s, 1)
    size = np.ones(len(tree.key), dtype=np.int64)
    for lo, hi in reversed(tree.spans):     # children before parents
        np.add.at(size, tree.idom[lo:hi], size[lo:hi])
    node = tree.key         # one realization: the key is the node
    idom = np.full(ug.n_total, -1, dtype=np.int64)
    idom[node[1:]] = node[tree.idom[1:]]
    sizes = np.zeros(ug.n_total, dtype=np.int64)
    sizes[node] = size
    return DominatorTree(idom=idom, subtree_size=sizes)
