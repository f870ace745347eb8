"""Sample generation and coverage counting for the two bound estimators.

Lower bound: one sample is a *common-path sequence* — per realization, for
every non-seed node v reached by the source, the set of nodes that sit on
every source-to-v live path.  Those sets are exactly the dominator-tree
root paths truncated below the seed layer, so a whole sequence costs one
dominator-tree build.  Sets are stored as parent pointers plus a preorder
interval per entry: the entries whose set contains node u are precisely
the contiguous block of u's dominator subtree, which makes coverage
marking a slice assignment.

Upper bound: one sample is a *local reverse-reachable set* — a target v
drawn uniformly from the positive-probability reach of the source, and the
nodes that can reach v inside the realization's receiver subgraph (reached
non-seeds only).  Empty sets (target unreached) stay in the collection as
a counter; they carry denominator weight.  A set is found from its target:
a reverse search over live in-edges that stops at the seeds, then a
forward search from the nodes the seeds feed, inside what the reverse
search found.  Any node on a seed-to-member live path also reaches the
target, so no forward pass over the whole realization is needed.

Both sample types come from one generator each, `_cp_batch` and
`_lrr_batch`, which splits any count into batches of up to
`diffusion._BATCH` realizations.  Each batch is one vectorized search
(`diffusion._forward_levels` for CP sequences, `reverse_live_edges` for
LRR sets) that draws an edge's coin only when the search reaches it; a
sample costs what its cascade reaches, not the size of the graph.
`_sequence_entries` then builds the dominator trees of the whole CP batch
at once (`domtree.dominators`) and emits its entries as flat arrays with a
per-sequence pointer, so no Python code runs per sequence; one DEBUG line
per batch on this module's logger gives its realizations, entries, join
nodes and sweeps.  `_lrr_batch` likewise yields one (targets, members,
ptr) tuple per batch.  `CPCollection` and `LRRCollection` keep those
arrays as whole-batch chunks.  The collections, `local_sampling`,
`global_sampling` and the greedy baselines (which sum CP entry sizes: a
non-seed node's entry size is its dominator-subtree size) all draw through
these two generators.

Coverage of a blocker set B is the number of samples whose set intersects
B.  Cov/|collection| (times the population size for the upper side) is an
unbiased estimate of the corresponding bound.  The coverage states work
on the chunks concatenated once (`_freeze`), with no inverted index: a
node's entries or memberships are found by one comparison over the flat
arrays, and every node's marginal gain by one `np.bincount`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .diffusion import (_BATCH, _advance, _forward_levels, _slices,
                        reverse_live_edges)
from .domtree import dominators
from .graph import UnifiedGraph, as_blockers

log = logging.getLogger(__name__)


def compute_population(g: UnifiedGraph) -> list:
    """Non-seed nodes reachable from the source over positive-prob edges."""
    return [int(v) for v in np.nonzero(g.positive_reach() & ~g.uncounted)[0]]


@dataclass
class CPSequence:
    """All common-path sets of one realization (inspection-friendly form)."""

    nodes: np.ndarray      # entry -> node id, dominator-tree preorder
    parents: np.ndarray    # entry -> parent entry index or -1

    def sets(self):
        """{node: frozenset of its common-path set}, materialized."""
        out = {}
        chains = []
        for e in range(len(self.nodes)):
            p = self.parents[e]
            chain = (chains[p] if p >= 0 else []) + [int(self.nodes[e])]
            chains.append(chain)
            out[int(self.nodes[e])] = frozenset(chain)
        return out


def _sequence_entries(ug: UnifiedGraph, batch: int, levels):
    """Entry arrays (nodes, parents, sizes, ptr) of the `batch`
    realizations whose forward search `levels` yields.

    Sequence i is the entries ptr[i]:ptr[i + 1], in dominator-tree
    preorder, so the entries whose set contains a node form one contiguous
    block per sequence.  The source and the seeds (all children of the
    source) are dropped; `parents` index entries within their sequence,
    and an entry whose dominator is the source or a seed has parent -1.
    Arrays are dropped as soon as they are used: a batch of a large graph
    holds millions of entries.
    """
    key, idom, size, order, joins, sweeps = dominators(levels, ug.s, batch)
    node = key[order]
    del key
    node //= batch
    at = np.flatnonzero(~ug.uncounted[node])    # preorder positions kept
    nodes = node[at]
    del node
    bounds = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(size[:batch], out=bounds[1:])     # each realization's block
    ptr = np.searchsorted(at, bounds)
    kept = order[at]
    del order, at
    sizes = size[kept].astype(np.int64)
    del size
    entry = np.full(len(idom), -1, dtype=np.int64)
    entry[kept] = np.arange(len(kept))
    parents = entry[idom[kept]]
    del entry, idom, kept
    parents -= np.where(parents >= 0, np.repeat(ptr[:-1], np.diff(ptr)), 0)
    log.debug("cp batch: %d realizations, %d entries, %d join nodes, "
              "%d sweeps", batch, len(nodes), joins, sweeps)
    return nodes, parents, sizes, ptr


def _cp_batch(ug: UnifiedGraph, count: int, rng: np.random.Generator):
    """Entry arrays of `count` realizations, one `_sequence_entries` tuple
    per forward search of up to `_BATCH` realizations."""
    for done in range(0, count, _BATCH):
        batch = min(_BATCH, count - done)
        yield _sequence_entries(ug, batch, _forward_levels(
            ug, ug.blocked, batch, rng))


def local_sampling(g: UnifiedGraph, rng: np.random.Generator) -> CPSequence:
    """Sample one realization and return its common-path sequence."""
    nodes, parents, *_ = next(_cp_batch(g, 1, rng))
    return CPSequence(nodes=nodes, parents=parents)


@dataclass
class LRRSet:
    """One reverse-reachable sample: a target and who can reach it."""

    target: int
    members: frozenset


def _reverse_reach(ug: UnifiedGraph, count: int, trial, src, dst):
    """Members of a batch of `count` LRR samples, as node-major keys
    node * count + trial: the found nodes that the seeds reach.

    (trial, src, dst) are the live in-edges a reverse search recorded.  A
    forward search starts at the nodes a seed feeds and follows the
    recorded edges between found nodes.
    """
    fed = ug.uncounted[src]
    tail = src[~fed] * count + trial[~fed]
    by_tail = np.argsort(tail)
    tail = tail[by_tail]
    head = (dst[~fed] * count + trial[~fed])[by_tail]
    member = np.zeros(ug.n_total * count, dtype=bool)
    frontier = _advance(member, dst[fed] * count + trial[fed])
    reached = [frontier]
    while len(frontier):
        offs, _ = _slices(np.searchsorted(tail, frontier),
                          np.searchsorted(tail, frontier, side="right"))
        frontier = _advance(member, head[offs])
        reached.append(frontier)
    return np.concatenate(reached)


def _lrr_batch(ug: UnifiedGraph, population: np.ndarray, count: int,
               rng: np.random.Generator):
    """`count` LRR samples, one reverse search per `_BATCH`: one (targets,
    members, ptr) tuple per batch.  Sample i's set is
    members[ptr[i]:ptr[i + 1]], target first, and is empty when the target
    is not reached.

    A batch's targets are drawn first, uniformly from `population`.  The
    reverse search finds each target's live non-seed ancestors; the
    members are those of them that the seeds reach.
    """
    for done in range(0, count, _BATCH):
        batch = min(_BATCH, count - done)
        targets = population[rng.integers(0, len(population), size=batch)]
        node, trial = np.divmod(
            _reverse_reach(ug, batch, *reverse_live_edges(ug, targets, rng)),
            batch)
        order = np.lexsort((node, node != targets[trial], trial))
        node, trial = node[order], trial[order]
        del order
        ptr = np.searchsorted(trial, np.arange(batch + 1))
        del trial  # not alive through the next search
        yield targets, node, ptr


def global_sampling(g: UnifiedGraph, population,
                    rng: np.random.Generator) -> LRRSet:
    """Sample one realization and the reverse-reachable set of a random target."""
    if not len(population):
        raise ValueError("seeds influence no one: sampling population is empty")
    targets, members, _ = next(_lrr_batch(
        g, np.asarray(population, dtype=np.int64), 1, rng))
    return LRRSet(target=int(targets[0]), members=frozenset(members.tolist()))


class CPCollection:
    """A growing set of common-path sequences.

    Entries are kept in whole-batch chunks; `_starts` holds each chunk's
    sequence boundaries as global entry offsets.
    """

    def __init__(self, ug: UnifiedGraph, rng: np.random.Generator):
        self.ug = ug
        self.rng = rng
        self.n_sequences = 0
        empty = np.empty(0, dtype=np.int64)
        self._nodes = [empty]     # per-chunk entry nodes
        self._parents = [empty]   # per-chunk parents, sequence-local
        self._ends = [empty]      # per-entry subtree interval ends (global)
        self._starts = [np.zeros(1, dtype=np.int64)]
        self._frozen = None

    @property
    def n_samples(self):
        return self.n_sequences

    def extend(self, count: int):
        """Generate `count` more sequences from the collection's stream."""
        for entries in _cp_batch(self.ug, count, self.rng):
            self._add(*entries)

    def _add(self, nodes, parents, sizes, ptr):
        """Append one chunk of `_sequence_entries` output."""
        self._frozen = None
        offset = int(self._starts[-1][-1])
        self._nodes.append(nodes)
        self._parents.append(parents)
        self._ends.append(offset + np.arange(len(nodes)) + sizes)
        self._starts.append(offset + ptr[1:])
        self.n_sequences += len(ptr) - 1

    def sequences(self):
        """Each sequence as a `CPSequence`, in sampling order."""
        nodes = np.concatenate(self._nodes)
        parents = np.concatenate(self._parents)
        starts = np.concatenate(self._starts).tolist()
        for lo, hi in zip(starts, starts[1:]):
            yield CPSequence(nodes[lo:hi], parents[lo:hi])

    def _freeze(self):
        """(nodes, ends) of all entries, concatenated once."""
        if self._frozen is None:
            self._nodes = [np.concatenate(self._nodes)]   # one copy kept
            self._ends = [np.concatenate(self._ends)]
            self._frozen = (self._nodes[0], self._ends[0])
        return self._frozen

    def state(self):
        return _CPState(self)


class _CPState:
    """Coverage bookkeeping over a frozen CP collection: a blocker covers
    the entries of its dominator subtrees."""

    def __init__(self, coll: CPCollection):
        self.nodes, self.ends = coll._freeze()
        self.covered = np.zeros(len(self.nodes), dtype=bool)

    def add(self, u):
        # u's entries lie in distinct sequences, so its intervals are disjoint
        at = np.flatnonzero(self.nodes == u)
        self.covered[_slices(at, self.ends[at])[0]] = True

    def coverage(self) -> int:
        return int(self.covered.sum())

    def gains_all(self, n_nodes) -> np.ndarray:
        """Per node, the uncovered entries its subtrees would cover."""
        pre = np.zeros(len(self.nodes) + 1, dtype=np.int64)
        np.cumsum(~self.covered, out=pre[1:])
        return np.bincount(self.nodes, weights=pre[self.ends] - pre[:-1],
                           minlength=n_nodes).astype(np.int64)


class LRRCollection:
    """A growing set of reverse-reachable samples, kept in whole-batch
    chunks.  An empty set (target unreached) has no members but counts as
    a sample."""

    def __init__(self, ug: UnifiedGraph, rng: np.random.Generator,
                 population=None):
        self.ug = ug
        self.rng = rng
        self.population = (compute_population(ug) if population is None
                           else list(population))
        if not self.population:
            raise ValueError("seeds influence no one: sampling population "
                             "is empty")
        self._pop_arr = np.asarray(self.population, dtype=np.int64)
        self.n_samples = 0
        self.n_empty = 0
        empty = np.empty(0, dtype=np.int64)
        self._members = [empty]   # per-chunk members, set after set
        self._sizes = [empty]     # per-chunk set sizes
        self._frozen = None

    @classmethod
    def from_sets(cls, ug: UnifiedGraph, sets, population=None):
        """Build a collection from explicit member lists (tests/debugging).

        Empty member lists become counted empty sets, as in sampling.
        """
        coll = cls(ug, rng=None, population=population)
        sets = [list(members) for members in sets]
        coll._add(np.asarray([v for m in sets for v in m], dtype=np.int64),
                  np.asarray([len(m) for m in sets], dtype=np.int64))
        return coll

    def extend(self, count: int):
        """Generate `count` more samples from the collection's stream."""
        for _, members, ptr in _lrr_batch(self.ug, self._pop_arr, count,
                                          self.rng):
            self._add(members, np.diff(ptr))

    def _add(self, members, sizes):
        """Append one chunk: `sizes[i]` members per set, set after set."""
        self._frozen = None
        self._members.append(members)
        self._sizes.append(sizes)
        self.n_samples += len(sizes)
        self.n_empty += int(np.count_nonzero(sizes == 0))

    def sets(self):
        """Each sample's members, target first, in sampling order; an
        empty array where the target was not reached."""
        members = np.concatenate(self._members)
        starts = np.cumsum(np.concatenate([[0], *self._sizes])).tolist()
        for lo, hi in zip(starts, starts[1:]):
            yield members[lo:hi]

    def _freeze(self):
        """(members, set of each member, number of sets), concatenated
        once."""
        if self._frozen is None:
            self._members = [np.concatenate(self._members)]  # one copy kept
            self._sizes = [np.concatenate(self._sizes)]
            set_of = np.repeat(np.arange(self.n_samples, dtype=np.int64),
                               self._sizes[0])
            self._frozen = (self._members[0], set_of, self.n_samples)
        return self._frozen

    def state(self):
        return _LRRState(self)


class _LRRState:
    """Coverage bookkeeping over a frozen LRR collection: a blocker covers
    the sets it is a member of."""

    def __init__(self, coll: LRRCollection):
        self.member_node, self.member_set, n_sets = coll._freeze()
        self.covered = np.zeros(n_sets, dtype=bool)

    def add(self, u):
        self.covered[self.member_set[self.member_node == u]] = True

    def coverage(self) -> int:
        return int(self.covered.sum())

    def gains_all(self, n_nodes) -> np.ndarray:
        """Per node, the uncovered sets it is a member of."""
        alive = np.flatnonzero(~self.covered[self.member_set])
        return np.bincount(self.member_node[alive], minlength=n_nodes)


def _state_with(collection, blockers):
    state = collection.state()
    for u in blockers:
        state.add(u)
    return state


def coverage(collection, blockers) -> int:
    """Number of samples (CP entries or LRR sets) hit by the blocker set."""
    return _state_with(collection, as_blockers(blockers)).coverage()


def marginal_coverage(collection, blockers, v) -> int:
    """Coverage gain of adding `v` on top of `blockers`."""
    b = as_blockers(blockers)
    if v in b:
        return 0
    return coverage(collection, [*b, v]) - coverage(collection, b)


def dump_samples(collection, path):
    """One sample per line (node lists); debugging aid, not a stable format."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(collection, CPCollection):
            for seq in collection.sequences():
                parts = [
                    f"{v}:" + ",".join(map(str, sorted(members)))
                    for v, members in sorted(seq.sets().items())]
                fh.write(" ".join(parts) + "\n")
        else:
            for members in collection.sets():
                line = (f"{members[0]}:" + ",".join(
                    map(str, sorted(members.tolist()))) if len(members)
                    else "-")
                fh.write(line + "\n")
