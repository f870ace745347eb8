"""Dominator trees over live-edge realizations.

The immediate-dominator array is computed with the Lengauer-Tarjan
semidominator algorithm (the simple variant: path compression without
balanced link-eval).  Per-node subtree sizes of the tree rooted at the
cascade source are the unit of spread-decrease estimation used by the
greedy baselines and by lower-bound sample generation.  Reachability
masks of a realization come from `Realization.reach`; the tree itself
records reached nodes only through `order`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import Realization


@dataclass
class DominatorTree:
    """Immediate dominators of a realization, rooted at the source.

    `idom[v]` is -1 for the root and for nodes unreachable from it.
    `order` lists reachable nodes in DFS preorder (root first).
    `subtree_size[v]` counts tree nodes in v's subtree (v included);
    unreachable nodes get 0.
    """

    root: int
    idom: np.ndarray
    order: np.ndarray
    subtree_size: np.ndarray

    def children(self):
        kids = [[] for _ in range(len(self.idom))]
        for v in self.order[1:]:
            kids[self.idom[v]].append(int(v))
        return kids


def build_dominator_tree(phi: Realization, src: int = None) -> DominatorTree:
    """Lengauer-Tarjan immediate dominators of the live subgraph from `src`."""
    ug = phi.ug
    if src is None:
        src = ug.s
    n_tot = ug.n_total
    out_ptr, out_dst = ug.out_ptr, ug.out_dst
    live, blocked = phi.live, phi.blocked

    # Iterative DFS assigning preorder numbers; only reached nodes matter.
    dfnum = np.full(n_tot, -1, dtype=np.int64)
    vertex = []
    parent = []  # by dfs number
    if not blocked[src]:
        dfnum[src] = 0
        vertex.append(src)
        parent.append(-1)
        stack = [(src, out_ptr[src], out_ptr[src + 1])]
        while stack:
            u, lo, hi = stack.pop()
            while lo < hi:
                off = lo
                lo += 1
                if not live[off]:
                    continue
                v = out_dst[off]
                if dfnum[v] >= 0 or blocked[v]:
                    continue
                dfnum[v] = len(vertex)
                parent.append(dfnum[u])
                vertex.append(v)
                stack.append((u, lo, hi))
                u, lo, hi = v, out_ptr[v], out_ptr[v + 1]
        # note: the manual stack keeps preorder identical to recursive DFS

    cnt = len(vertex)
    idom_full = np.full(n_tot, -1, dtype=np.int64)
    sizes = np.zeros(n_tot, dtype=np.int64)
    if cnt == 0:
        return DominatorTree(root=src, idom=idom_full,
                             order=np.asarray(vertex, dtype=np.int64),
                             subtree_size=sizes)

    # Everything below works in dfs-number space.
    semi = list(range(cnt))
    ancestor = [-1] * cnt
    label = list(range(cnt))
    idom = [-1] * cnt
    samedom = [-1] * cnt
    bucket = [[] for _ in range(cnt)]
    in_ptr, in_src, in_eid = ug.in_ptr, ug.in_src, ug.in_eid

    def eval_(v):
        # Find the ancestor of v (itself excluded) whose semidominator is
        # smallest, compressing the ancestor path on the way.
        if ancestor[v] < 0:
            return label[v]
        path = []
        root = v
        while ancestor[ancestor[root]] >= 0:
            path.append(root)
            root = ancestor[root]
        for u in reversed(path):
            a = ancestor[u]
            if semi[label[a]] < semi[label[u]]:
                label[u] = label[a]
            ancestor[u] = ancestor[a]
        return label[v]

    for w in range(cnt - 1, 0, -1):
        node = vertex[w]
        p = parent[w]
        s_best = semi[w]
        lo, hi = in_ptr[node], in_ptr[node + 1]
        for off in range(lo, hi):
            if not live[in_eid[off]]:
                continue
            u = in_src[off]
            du = dfnum[u]
            if du < 0:  # predecessor not reached from src
                continue
            if du <= w:
                cand = du
            else:
                cand = semi[eval_(du)]
            if cand < s_best:
                s_best = cand
        semi[w] = s_best
        bucket[s_best].append(w)
        ancestor[w] = p
        for v in bucket[p]:
            u = eval_(v)
            if semi[u] == semi[v]:
                idom[v] = p
            else:
                samedom[v] = u
        bucket[p].clear()

    for w in range(1, cnt):
        if samedom[w] >= 0:
            idom[w] = idom[samedom[w]]

    for w in range(1, cnt):
        idom_full[vertex[w]] = vertex[idom[w]]

    sizes[vertex] = 1
    for w in range(cnt - 1, 0, -1):
        sizes[vertex[idom[w]]] += sizes[vertex[w]]

    return DominatorTree(root=src, idom=idom_full,
                         order=np.asarray(vertex, dtype=np.int64),
                         subtree_size=sizes)
