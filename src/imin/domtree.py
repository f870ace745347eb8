"""Dominator trees over live-edge realizations.

The immediate-dominator array is computed with the Cooper-Harvey-Kennedy
iterative algorithm ("A Simple, Fast Dominance Algorithm", 2001) over the
preorder numbers of `diffusion.live_dfs`.  Per-node subtree sizes of the
tree rooted at the cascade source are the unit of spread-decrease
estimation used by the greedy baselines and by lower-bound sample
generation.  Reachability masks of a realization come from
`Realization.reach`; the tree itself records reached nodes only through
`order`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import Realization, _ranges, live_dfs


@dataclass
class DominatorTree:
    """Immediate dominators of a realization, rooted at the source.

    `idom[v]` is -1 for the root and for nodes unreachable from it.
    `order` lists reachable nodes in dominator-tree preorder (root first,
    siblings in DFS discovery order), so the subtree of the node at
    `order[i]` is the block `order[i:i + subtree_size[order[i]]]`.
    `subtree_size[v]` counts tree nodes in v's subtree (v included);
    unreachable nodes get 0.
    """

    idom: np.ndarray
    order: np.ndarray
    subtree_size: np.ndarray


def build_dominator_tree(phi: Realization) -> DominatorTree:
    """Immediate dominators of the live subgraph from the source."""
    ug = phi.ug
    dfnum, vertex, post = live_dfs(phi)
    cnt = len(vertex)

    # Live predecessors of each reached node, as preorder numbers: those of
    # preorder number w are preds[pred_ptr[w]:pred_ptr[w + 1]].
    starts = ug.in_ptr[vertex]
    degs = ug.in_ptr[vertex + 1] - starts
    offs = np.repeat(starts, degs) + _ranges(degs)
    pred = dfnum[ug.in_src[offs]]
    keep = phi.live[ug.in_eid[offs]] & (pred >= 0)
    owner = np.repeat(np.arange(cnt, dtype=np.int64), degs)[keep]
    pred_ptr = np.searchsorted(owner, np.arange(cnt + 1)).tolist()
    preds = pred[keep].tolist()

    # Everything below works in preorder-number space.  A dominator is a
    # DFS ancestor, so numbers strictly fall along every idom chain and the
    # intersection walks up whichever finger has the larger number.
    idom = [-1] * cnt
    idom[0] = 0
    rpo = post[-2::-1]  # reverse postorder without the root
    changed = True
    while changed:
        changed = False
        for w in rpo:
            new = -1
            for i in range(pred_ptr[w], pred_ptr[w + 1]):
                p = preds[i]
                if idom[p] < 0:
                    continue
                if new < 0:
                    new = p
                    continue
                while p != new:
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
            if idom[w] != new:
                idom[w] = new
                changed = True

    size = [1] * cnt
    for w in range(cnt - 1, 0, -1):
        size[idom[w]] += size[w]
    # Dominator-tree preorder: each node takes its parent's next free slot,
    # in ascending preorder number, so siblings keep discovery order.
    slot = [0] * cnt
    free = [1] * cnt
    for w in range(1, cnt):
        p = idom[w]
        slot[w] = free[p]
        free[p] += size[w]
        free[w] = slot[w] + 1
    order = np.empty(cnt, dtype=np.int64)
    order[slot] = vertex

    idom_full = np.full(ug.n_total, -1, dtype=np.int64)
    idom_full[vertex[1:]] = vertex[idom[1:]]
    sizes = np.zeros(ug.n_total, dtype=np.int64)
    sizes[vertex] = size
    return DominatorTree(idom=idom_full, order=order, subtree_size=sizes)
