import heapq
import math

import numpy as np
import pytest

from imin import fixtures
from imin.diffusion import _BATCH, _SEEN_BYTES, _forward_levels
from imin.graph import Graph, block_nodes, unify_seeds
from imin.sampling import CPCollection, _sequence_entries


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(12345))


def make_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def base_spread_enumeration(g, seeds, blockers=()):
    """Independent exact spread of a *multi-seed base graph* (no unification).

    Enumerates every live-edge outcome of the base graph directly and runs
    a set-based BFS from the seed set; counts activated non-seeds.  Used to
    test that seed unification preserves spreads.
    """
    src, dst, p = g.edge_array()
    blocked = set(blockers)
    rand = [(int(s), int(d), float(q)) for s, d, q in zip(src, dst, p)
            if 0.0 < q < 1.0]
    sure = [(int(s), int(d)) for s, d, q in zip(src, dst, p) if q >= 1.0]
    total = 0.0
    for bits in range(1 << len(rand)):
        prob = 1.0
        edges = list(sure)
        for j, (s, d, q) in enumerate(rand):
            if bits >> j & 1:
                prob *= q
                edges.append((s, d))
            else:
                prob *= 1.0 - q
        adj = {}
        for s, d in edges:
            if d not in blocked:
                adj.setdefault(s, []).append(d)
        reached = set(v for v in seeds if v not in blocked)
        stack = list(reached)
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        total += prob * len(reached - set(seeds))
    return total


def tiny_with_dead_edges(seed):
    """A random oracle-sized graph with some edges set to probability 0,
    plus a random blocker set of up to two non-seed nodes."""
    rng = make_rng(seed)
    ug = fixtures.random_tiny(rng, max_nodes=8, max_prob_edges=10)
    src, dst, p = ug.base.edge_array()
    p[rng.random(len(p)) < 0.4] = 0.0
    ug = unify_seeds(Graph.from_edges(ug.base.n, src, dst, p), ug.seeds)
    cands = [v for v in range(ug.base.n) if v not in ug.seeds]
    size = int(rng.integers(0, min(2, len(cands)) + 1))
    blockers = [int(v) for v in rng.choice(cands, size=size, replace=False)]
    return ug, blockers


def certain_edges(seed):
    """`tiny_with_dead_edges(seed)` with every positive probability raised
    to 1, so each edge is live or dead for sure and every realization is
    the same; returned with its blockers, not yet applied."""
    ug, blockers = tiny_with_dead_edges(seed)
    src, dst, p = ug.base.edge_array()
    g = Graph.from_edges(ug.base.n, src, dst, (p > 0).astype(float))
    return unify_seeds(g, ug.seeds), blockers


def dominators(successors, root):
    """Dominator tree of what `root` reaches over `successors(v)` (test
    reference): a depth-first search, then the Cooper-Harvey-Kennedy
    iteration over its preorder numbers, one node at a time.

    Returns three lists indexed by preorder number w (the root is 0):
    `vertex[w]` is the node, `idom[w]` the preorder number of its
    immediate dominator (-1 for the root) and `size[w]` its
    dominator-subtree size.
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

    # A dominator is a DFS ancestor, so numbers fall along every idom
    # chain and the intersection walks up whichever finger is larger.
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
    size = [1] * len(vertex)
    for w in range(len(vertex) - 1, 0, -1):
        size[idom[w]] += size[w]
    return vertex, idom, size


def eager_entries(ug, phi):
    """`sampling._sequence_entries` of the eager realization `phi`, fed to
    the batched search as a batch of one: (nodes, members, sizes, ptr)."""
    return _sequence_entries(ug, 1, _forward_levels(
        ug, phi.blocked, 1, None, live=phi.live))


def eager_sets(ug, phi):
    """{node: frozenset of its chain} of the common-path entries of the
    eager realization `phi`."""
    (chains,) = split_chains(*eager_entries(ug, phi)[1:])
    return {chain[0]: frozenset(chain) for chain in chains}


def realization_successors(phi):
    """`successors(v)` of the eager realization `phi`: v's live successors
    that are not blocked, in edge-id order."""
    ug = phi.ug

    def successors(v):
        lo, hi = ug.out_ptr[v], ug.out_ptr[v + 1]
        dst = ug.out_dst[lo:hi][phi.live[lo:hi]]
        return dst[~phi.blocked[dst]].tolist()
    return successors


def reference_chains(ug, successors):
    """The common-path entries of one realization by the reference
    `dominators`: for every reached node but the source and the seeds, in
    ascending node order, its root path cut below the seeds (the node
    first)."""
    vertex, idom, _ = dominators(successors, ug.s)
    out = []
    for w in sorted(range(len(vertex)), key=vertex.__getitem__):
        chain = []
        while w > 0 and not ug.uncounted[vertex[w]]:
            chain.append(vertex[w])
            w = idom[w]
        if chain:
            out.append(chain)
    return out


def split_chains(members, sizes, ptr):
    """Per sequence of `sampling._sequence_entries` output, its entries'
    chains as lists, entry after entry."""
    ends = np.cumsum(sizes).tolist()
    chains = [members[end - size:end].tolist()
              for end, size in zip(ends, sizes.tolist())]
    for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist()):
        yield chains[lo:hi]


def per_sequence_coverage(batches, blockers):
    """Per sequence of `sampling._cp_batch` output, the entries whose
    chain meets `blockers`, as floats."""
    out = []
    for _, members, sizes, ptr in batches:
        hit = np.zeros(len(sizes), dtype=bool)
        entry = np.repeat(np.arange(len(sizes)), sizes)
        hit[entry[np.isin(members, blockers)]] = True
        sequence = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
        out.append(np.bincount(sequence, weights=hit,
                               minlength=len(ptr) - 1))
    return np.concatenate(out)


def collection_of(kind, ug, sets, population=None):
    """A `kind` collection (`sampling.LRRCollection`, `ChainCollection` or
    `CPCollection`) holding the member lists `sets`, set after set, as one
    chunk and drawing nothing: one sample per set, an empty list an empty
    sample, or for a `CPCollection` one sequence of those entries."""
    sets = [list(members) for members in sets]
    members = np.asarray([v for m in sets for v in m], dtype=np.int64)
    sizes = np.asarray([len(m) for m in sets], dtype=np.int64)
    if kind is CPCollection:
        coll = kind(ug, None)
        coll._chunk(members, sizes)
        coll.n_samples = 1
    else:
        coll = kind(ug, None, population)
        coll._add(members, sizes)
    return coll


def split_sets(batches, part=1):
    """The per-pair (target, members) of `sampling._pair_batch` output, its
    LRR sets (`part` 1) or chains (`part` 2); members is empty where the
    target was not reached."""
    for batch in batches:
        members, sizes = batch[part]
        ends = np.cumsum(sizes).tolist()
        for target, end, size in zip(batch[0].tolist(), ends, sizes.tolist()):
            yield target, members[end - size:end]


def padded_twin(seed, pad):
    """A mid_synthetic core, and the same core plus `pad` nodes joined by
    p=0.5 edges among themselves that no seed can reach."""
    core = fixtures.mid_synthetic(make_rng(seed), 60, 240, 3)
    rng = make_rng(seed + 1)
    u = rng.integers(0, pad, size=4 * pad)
    v = rng.integers(0, pad, size=4 * pad)
    key = np.unique((u * pad + v)[u != v])
    src, dst, p = core.base.edge_array()
    g = Graph.from_edges(
        core.base.n + pad, np.concatenate([src, key // pad + core.base.n]),
        np.concatenate([dst, key % pad + core.base.n]),
        np.concatenate([p, np.full(len(key), 0.5)]))
    return core, unify_seeds(g, core.seeds)


def random_flowgraph(seed):
    """A random unified graph with cycles, edges of probability 0, 1 and
    in between, seed-to-seed edges and up to two blocked nodes."""
    rng = make_rng(seed)
    n = int(rng.integers(3, 14))
    u, v = rng.integers(0, n, size=(2, 4 * n))
    key = np.unique((u * n + v)[u != v])
    p = rng.choice([0.0, 0.3, 0.7, 1.0], size=len(key))
    seeds = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    ug = unify_seeds(Graph.from_edges(n, key // n, key % n, p),
                     set(seeds.tolist()))
    cands = [x for x in range(n) if x not in ug.seeds]
    size = min(len(cands), int(rng.integers(0, 3)))
    return block_nodes(ug, rng.choice(cands, size=size,
                                      replace=False).tolist())


def recorded(levels, out):
    """Pass a search's levels through, appending each to `out`."""
    for level in levels:
        out.append(level)
        yield level


def live_successors(levels, root, batch):
    """Per realization {node: live successors} of recorded search levels."""
    succ = [{} for _ in range(batch)]
    node, trial = np.full(batch, root), np.arange(batch)
    for owner, head, new_node, new_trial, *_ in levels:
        for o, d in zip(owner.tolist(), (head // batch).tolist()):
            succ[trial[o]].setdefault(int(node[o]), []).append(d)
        node, trial = new_node, new_trial
    return succ


# The graph builders as first written: every CSR by np.lexsort and
# np.add.at pointers, and a full rebuild to set probabilities or attach the
# source.  `imin.graph` must build the same arrays, dtypes included.

def reference_csr(n, src, dst, values):
    """Group (src, dst, values) by source into CSR arrays, sorting
    targets: (ptr, dst, values)."""
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    vals = [v[order] for v in values]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(ptr, src + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, dst, vals


def reference_from_edges(n, src, dst, p, labels=None):
    """`Graph.from_edges` on valid input by `reference_csr`."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    out_ptr, out_dst, (out_p,) = reference_csr(
        n, src, dst, [np.asarray(p, dtype=np.float64)])
    fwd_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(out_ptr))
    in_ptr, in_src, (in_p, in_eid) = reference_csr(
        n, out_dst, fwd_src, [out_p, np.arange(len(src), dtype=np.int64)])
    labels = np.arange(n) if labels is None else labels
    return Graph(n=n, m=len(src), out_ptr=out_ptr, out_dst=out_dst,
                 out_p=out_p, in_ptr=in_ptr, in_src=in_src, in_p=in_p,
                 in_eid=in_eid, labels=np.asarray(labels, dtype=np.int64))


def reference_assign_wc(g):
    """`assign_wc_probabilities` by a rebuild from the edge list."""
    src, dst, _ = g.edge_array()
    indeg = g.in_degree().astype(np.float64)
    return reference_from_edges(g.n, src, dst, 1.0 / indeg[dst], g.labels)


def reference_assign_constant(g, p):
    """`assign_constant_probability` by a rebuild from the edge list."""
    src, dst, _ = g.edge_array()
    return reference_from_edges(g.n, src, dst, np.full(g.m, p), g.labels)


def reference_unified(g, seeds):
    """The extended graph `unify_seeds(g, seeds)` wires: `g` plus an edge
    of probability 1 from s = n to each seed, rebuilt from the edge list."""
    seeds = np.asarray(sorted(seeds), dtype=np.int64)
    src, dst, p = g.edge_array()
    return reference_from_edges(
        g.n + 1, np.concatenate([src, np.full(len(seeds), g.n)]),
        np.concatenate([dst, seeds]),
        np.concatenate([p, np.ones(len(seeds))]))


def reference_positive_reach(ug, blocked=None, live=None):
    """`UnifiedGraph.positive_reach` by a depth-first search, one edge at
    a time."""
    blocked = ug.blocked if blocked is None else blocked
    follow = ug.out_p > 0.0 if live is None else live
    seen = np.zeros(ug.n_total, dtype=bool)
    seen[ug.s] = True
    stack = [ug.s]
    while stack:
        u = stack.pop()
        for off in range(ug.out_ptr[u], ug.out_ptr[u + 1]):
            v = ug.out_dst[off]
            if seen[v] or blocked[v] or not follow[off]:
                continue
            seen[v] = True
            stack.append(v)
    return seen


# The level step of the batched searches as it was first written: one
# boolean mask per level, applied to every examined edge's arrays.  The
# searches in `imin.diffusion` must yield the same arrays and draw the
# same coins.

def reference_slices(lo, hi):
    """`diffusion._slices` as one step: (idx, owner) of the index ranges
    [lo[i], hi[i]) concatenated in order."""
    lens = hi - lo
    owner = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    shift = lo - np.cumsum(lens) + lens
    return np.arange(len(owner), dtype=np.int64) + shift[owner], owner


def reference_advance(seen, key):
    """`diffusion._advance` by boolean masks."""
    key = np.sort(key[~seen[key]])
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    key = key[fresh]
    seen[key] = True
    return key


def reference_forward_levels(g, blocked, batch, rng, live=None):
    """A one-run `diffusion._forward_levels` by boolean masks: every pair
    reached gains the run's one bit."""
    seen = np.zeros(g.n_total * batch, dtype=bool)
    trial = np.arange(batch, dtype=np.int64)
    node = np.full(batch, g.s, dtype=np.int64)
    seen[node * batch + trial] = True
    while len(node):
        eids, owner = reference_slices(g.out_ptr[node], g.out_ptr[node + 1])
        dst = g.out_dst[eids]
        keep = ((rng.random(len(eids)) < g.out_p[eids]) if live is None
                else live[eids]) & ~blocked[dst]
        owner, dst = owner[keep], dst[keep]
        head = dst * batch + trial[owner]
        node, trial = np.divmod(reference_advance(seen, head), batch)
        yield owner, head, node, trial, np.ones(len(node), dtype=np.uint8)


def reference_reverse_live_edges(g, targets, rng):
    """`diffusion.reverse_live_edges` by boolean masks, in node ids: the
    live edges out of nodes outside `g.reach` are dropped, such nodes are
    never entered, and a seed's edges leave the source.  Only non-seeds
    are expanded, so the base graph's reverse CSR and edge ids serve."""
    rev = g.base
    batch = len(targets)
    seen = np.zeros(g.n_total * batch, dtype=bool)
    trial = np.arange(batch, dtype=np.int64)
    node = np.asarray(targets, dtype=np.int64)
    seen[node * batch + trial] = True
    parts = []
    while len(node):
        offs, owner = reference_slices(rev.in_ptr[node],
                                       rev.in_ptr[node + 1])
        live = rng.random(len(offs)) < g.out_p[rev.in_eid[offs]]
        live &= ~g.blocked[node[owner]] & g.reach[rev.in_src[offs]]
        owner, src = owner[live], rev.in_src[offs[live]]
        t = trial[owner]
        parts.append((t, np.where(g.seed_mask[src], g.s, src), node[owner]))
        inner = ~g.uncounted[src]
        node, trial = np.divmod(
            reference_advance(seen, src[inner] * batch + t[inner]), batch)
    return tuple(np.concatenate(a) for a in zip(*parts))


def reference_reverse_reach_counts(g, samples, rng):
    """`diffusion.reverse_reach_counts` by boolean masks."""
    counts = np.zeros(g.n, dtype=np.int64)
    size = max(_BATCH, _SEEN_BYTES // g.n)
    for done in range(0, samples, size):
        batch = min(size, samples - done)
        seen = np.zeros(g.n * batch, dtype=bool)
        trial = np.arange(batch, dtype=np.int64)
        node = rng.integers(0, g.n, size=batch)
        seen[node * batch + trial] = True
        while len(node):
            np.add.at(counts, node, 1)
            offs, owner = reference_slices(g.in_ptr[node], g.in_ptr[node + 1])
            live = rng.random(len(offs)) < g.in_p[offs]
            key = g.in_src[offs[live]] * batch + trial[owner[live]]
            node, trial = np.divmod(reference_advance(seen, key), batch)
    return counts


class ReferenceCoverage:
    """Coverage of a frozen collection in plain Python sets: the sets (CP
    entries, LRR sets or chains) each node is a member of."""

    def __init__(self, coll):
        members, set_of, _ = coll._freeze()
        self.covers = {}
        for v, i in zip(members.tolist(), set_of.tolist()):
            self.covers.setdefault(v, set()).add(i)
        self.covered = set()

    def gain(self, v):
        return len(self.covers.get(v, set()) - self.covered)

    def add(self, v):
        self.covered |= self.covers.get(v, set())


def celf_max_coverage(coll, k):
    """Lazy greedy (CELF): a heap of (-gain, node, pick count when the gain
    was computed), a stale top re-scored before it is taken.  The test
    reference for `optimize.max_coverage`; returns (selected, gains,
    coverages) as in its trace."""
    state = ReferenceCoverage(coll)
    heap = [(-state.gain(v), v, 0)
            for v in np.flatnonzero(coll.ug.candidates()).tolist()]
    heapq.heapify(heap)
    selected, gains, coverages = [], [], [0]
    while heap and len(selected) < k:
        neg, v, at = heapq.heappop(heap)
        if at < len(selected):
            heapq.heappush(heap, (-state.gain(v), v, len(selected)))
            continue
        selected.append(v)
        gains.append(-neg)
        coverages.append(coverages[-1] - neg)
        state.add(v)
    return selected, gains, coverages


def replayed_cov_upper_opt(coll, selected, coverages, k):
    """Min over greedy prefixes of the prefix's coverage plus its k largest
    gains over all nodes, each prefix replayed on a fresh state.  The test
    reference for `optimize.cov_upper_opt`."""
    state = ReferenceCoverage(coll)
    best = math.inf
    for i in range(len(selected) + 1):
        gains = sorted((state.gain(v) for v in range(coll.ug.n_total)),
                       reverse=True)
        best = min(best, coverages[i] + sum(gains[:k]))
        if i < len(selected):
            state.add(selected[i])
    return float(best)
