"""Dominator trees over live-edge realizations.

`dominators` is the one dominator routine: a depth-first search over live
successor lists, which numbers the reached nodes in preorder, then the
Cooper-Harvey-Kennedy iterative algorithm ("A Simple, Fast Dominance
Algorithm", 2001) over those compact preorder numbers.  Its input is any
`successors(v)` callable, and its work and memory follow the reached
nodes.  Per-node subtree sizes of the tree rooted at the cascade source
are the unit of spread-decrease estimation used by the greedy baselines
and by lower-bound sample generation, both through the batched common-path
sampler of `sampling`.  `build_dominator_tree` runs it over an eager
`diffusion.Realization`: the tests' reference, not a package code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def dominators(successors, root):
    """Dominator tree of what `root` reaches over `successors(v)`, the live
    successors of v in edge-id order (None or empty when it has none).

    Returns four lists indexed by preorder number w (the root is 0):
    `vertex[w]` is the node, `idom[w]` the preorder number of its
    immediate dominator (-1 for the root), `size[w]` its dominator-subtree
    size and `slot[w]` its position in dominator-tree preorder, where
    siblings keep discovery order.  The search follows successors in the
    order given, so the numbering is that of the recursive DFS.
    """
    num = {root: 0}
    vertex = [root]
    parent = [0]          # DFS-tree parent: the first live predecessor
    more = {}             # w -> its other live predecessors
    post = []
    stack = [(0, iter(successors(root) or ()))]
    while stack:
        d, succ = stack[-1]
        for v in succ:
            w = num.get(v)
            if w is None:
                w = num[v] = len(vertex)
                vertex.append(v)
                parent.append(d)
                out = successors(v)
                if out:
                    stack.append((w, iter(out)))
                    break
                post.append(w)      # a leaf finishes where it starts
            elif w:
                more.setdefault(w, []).append(d)
        else:
            stack.pop()
            post.append(d)
    cnt = len(vertex)

    # Cooper-Harvey-Kennedy from the DFS tree: a node's dominator is the
    # nearest common ancestor of its predecessors in the current tree, so
    # only nodes with more than one live predecessor can move.  A dominator
    # is a DFS ancestor, so numbers strictly fall along every idom chain
    # and the intersection walks up whichever finger has the larger number.
    idom = parent[:]
    joins = [w for w in reversed(post) if w in more]
    changed = True
    while changed:
        changed = False
        for w in joins:
            new = parent[w]
            for p in more[w]:
                while p != new:
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
            if idom[w] != new:
                idom[w] = new
                changed = True
    idom[0] = -1

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
    return vertex, idom, size, slot


def build_dominator_tree(phi) -> DominatorTree:
    """Immediate dominators of the live subgraph of the realization `phi`
    (a `diffusion.Realization`) from the source."""
    ug = phi.ug
    vertex, idom, size, slot = dominators(phi.successors, ug.s)
    vertex = np.asarray(vertex, dtype=np.int64)
    order = np.empty(len(vertex), dtype=np.int64)
    order[slot] = vertex
    idom_full = np.full(ug.n_total, -1, dtype=np.int64)
    idom_full[vertex[1:]] = vertex[idom[1:]]
    sizes = np.zeros(ug.n_total, dtype=np.int64)
    sizes[vertex] = size
    return DominatorTree(idom=idom_full, order=order, subtree_size=sizes)
