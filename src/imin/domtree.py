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
fixed point is the dominator tree.  Every sweep evaluates every join: the
solver's pair searches have few joins over many levels (a few hundred over
about twenty), so a pass that picked out the joins that could still move,
one level at a time, would cost more than evaluating them all again.  The
sweeps stop at the first one that moves nothing.  A common ancestor is
found by their two-finger intersect: the larger-numbered end of each pair
steps up to its immediate dominator until the two meet.

The trees are read through root paths: `sampling` walks `idom` up from a
node, stopping below the seeds, to get its dominator chain.  The chains
that contain a node are its subtree, so the greedy baselines' subtree
sizes (the unit of spread-decrease estimation) are chain-member counts.
`build_dominator_tree` feeds an eager `diffusion.Realization` to the same
routine as a batch of one and sums subtree sizes bottom-up, from the last
search number to the first: every node's immediate dominator has a
smaller number, so a node's size is whole before it is added to its
dominator's.  It is the tests' reference only.
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
    itself), always smaller than w otherwise; `joins` and `sweeps` count
    join nodes and sweeps run.
    """

    key: np.ndarray
    idom: np.ndarray
    joins: int
    sweeps: int


def _heads(sorted_ids):
    """Positions where a run of equal values starts in `sorted_ids`."""
    head = np.ones(len(sorted_ids), dtype=bool)
    head[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return np.flatnonzero(head)


def _common_ancestors(idom, a, b):
    """Nearest common ancestors of the pairs (a[i], b[i]) in the tree
    `idom`; every pair shares a root.  An ancestor has the smaller number,
    so the larger end of each pair steps up until the two meet."""
    out = np.empty_like(a)
    at, x, y = np.arange(len(a)), a, b  # the pairs not yet known to meet
    while len(at):
        x, y = np.maximum(x, y), np.minimum(x, y)
        out[at] = y                     # final once the two are equal
        apart = x != y
        at, x, y = at[apart], idom[x[apart]], y[apart]
    return out


def _search_numbers(levels, root, batch):
    """Number the pairs a batched search reaches, level by level.

    Returns (key, parent, src, dst): key[w] = node * batch + trial of
    pair w; parent[w] the number of w's breadth-first parent, its
    smallest-numbered live predecessor (a root is its own parent); and
    (src, dst) the numbers of the ends of every other live edge.  Only
    those edges are kept, not the tree edges.
    """
    key = [root * batch + np.arange(batch, dtype=np.int64)]
    parent = [np.arange(batch, dtype=np.int64)]
    src, head_key = [], []
    start = 0                           # the current level's first number
    for owner, head, node, trial, *_ in levels:
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
        start += len(key[-1])
        key.append(new)
    key, parent, src, head_key = (np.concatenate(a) for a in
                                  (key, parent, src, head_key))
    order = np.argsort(key, kind="stable")    # merges the sorted levels
    dst = order[np.searchsorted(key[order], head_key)]
    return key, parent, src, dst


def dominators(levels, root, batch) -> BatchDominators:
    """Dominator trees of the `batch` realizations whose search `levels`
    yields, per level, (owner, head, node, trial) as
    `diffusion._forward_levels` does for one run (what follows them, such
    as its run bits, is ignored): the live edges out of the previous level
    (owner indexes that level's pairs, head is the key node * batch +
    trial of the pair entered) and the pairs first reached.
    Every realization's search starts at `root`.
    """
    key, idom, src, dst = _search_numbers(levels, root, batch)
    n = len(key)
    if n >= 2 ** 31:    # numbers are int32, and number pairs pack into int64
        raise OverflowError(f"a batch reached {n} (node, trial) pairs")
    idom = idom.astype(np.int32)
    # Every predecessor of each join, grouped by join and in ascending
    # number: the breadth-first parent first, then the other edges' tails,
    # as int32 like `idom`, so the intersect moves int32 fingers.
    jd, js = np.divmod(np.sort(dst * n + src), n)
    del src, dst
    first = _heads(jd)
    joins = jd[first]
    jd = np.insert(jd, first, joins)
    js = np.insert(js, first, idom[joins]).astype(np.int32)
    first += np.arange(len(first))

    sweeps = 0
    moved = np.ones(len(joins), dtype=bool)
    while moved.any():
        sweeps += 1
        new = np.minimum.reduceat(_common_ancestors(idom, idom[jd], js), first)
        moved = new != idom[joins]
        idom[joins[moved]] = new[moved]
    return BatchDominators(key=key, idom=idom, joins=len(joins),
                           sweeps=sweeps)


def build_dominator_tree(phi) -> DominatorTree:
    """Immediate dominators of the live subgraph of the realization `phi`
    (a `diffusion.Realization`) from the source."""
    ug = phi.ug
    tree = dominators(_forward_levels(ug, phi.blocked, 1, None,
                                      live=phi.live), ug.s, 1)
    up = tree.idom.tolist()
    size = [1] * len(up)
    for w in range(len(up) - 1, 0, -1):     # children before parents
        size[up[w]] += size[w]
    node = tree.key         # one realization: the key is the node
    idom = np.full(ug.n_total, -1, dtype=np.int64)
    idom[node[1:]] = node[tree.idom[1:]]
    sizes = np.zeros(ug.n_total, dtype=np.int64)
    sizes[node] = size
    return DominatorTree(idom=idom, subtree_size=sizes)
