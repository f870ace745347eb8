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
nodes and sweeps.  `CPCollection` keeps those arrays as whole-batch chunks.
The collections, `local_sampling`, `global_sampling` and the greedy
baselines (which sum CP entry sizes: a non-seed node's entry size is its
dominator-subtree size) all draw through these two generators.

Coverage of a blocker set B is the number of samples whose set intersects
B.  Cov/|collection| (times the population size for the upper side) is an
unbiased estimate of the corresponding bound.
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
    """`count` LRR samples, one reverse search per `_BATCH`: one (target,
    members) pair per realization, members target first, None when the
    target is not reached.

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
        ptr = np.searchsorted(trial, np.arange(batch + 1)).tolist()
        for i in range(batch):
            lo, hi = ptr[i], ptr[i + 1]
            yield int(targets[i]), (node[lo:hi] if hi > lo else None)
        del trial, order  # not alive through the next search


def global_sampling(g: UnifiedGraph, population,
                    rng: np.random.Generator) -> LRRSet:
    """Sample one realization and the reverse-reachable set of a random target."""
    if not len(population):
        raise ValueError("seeds influence no one: sampling population is empty")
    target, members = next(_lrr_batch(
        g, np.asarray(population, dtype=np.int64), 1, rng))
    return LRRSet(target=target, members=frozenset(
        () if members is None else members.tolist()))


def _inverted_index(flat: np.ndarray, n_total: int):
    """(order, node_ptr): the positions of node u's occurrences in `flat`
    are order[node_ptr[u]:node_ptr[u + 1]], ascending."""
    order = np.argsort(flat, kind="stable")
    node_ptr = np.zeros(n_total + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n_total), out=node_ptr[1:])
    return order, node_ptr


class CPCollection:
    """A growing set of common-path sequences with an inverted index.

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
        if self._frozen is None:
            nodes = np.concatenate(self._nodes)
            ends = np.concatenate(self._ends)
            self._nodes, self._ends = [nodes], [ends]   # one copy kept
            order, node_ptr = _inverted_index(nodes, self.ug.n_total)
            self._frozen = (nodes, ends, order, node_ptr)
        return self._frozen

    def state(self):
        return _CPState(self)


class _CPState:
    """Incremental coverage bookkeeping over a frozen CP collection."""

    def __init__(self, coll: CPCollection):
        nodes, ends, order, node_ptr = coll._freeze()
        self.nodes = nodes
        self.ends = ends
        self.order = order
        self.node_ptr = node_ptr
        self.n_entries = len(nodes)
        self.covered = np.zeros(self.n_entries, dtype=bool)
        self._prefix = None

    def _entries_of(self, u):
        return self.order[self.node_ptr[u]:self.node_ptr[u + 1]]

    def add(self, u):
        for e in self._entries_of(u):
            self.covered[e:self.ends[e]] = True
        self._prefix = None

    def coverage(self) -> int:
        return int(self.covered.sum())

    def _uncovered_prefix(self):
        if self._prefix is None:
            pre = np.zeros(self.n_entries + 1, dtype=np.int64)
            np.cumsum(~self.covered, out=pre[1:])
            self._prefix = pre
        return self._prefix

    def gain(self, u) -> int:
        pre = self._uncovered_prefix()
        es = self._entries_of(u)
        return int((pre[self.ends[es]] - pre[es]).sum())

    def gains_all(self, n_nodes) -> np.ndarray:
        pre = self._uncovered_prefix()
        per_entry = pre[self.ends] - pre[np.arange(self.n_entries)]
        out = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(out, self.nodes, per_entry)
        return out


class LRRCollection:
    """A growing set of reverse-reachable samples (empty sets kept as a count)."""

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
        self.n_empty = 0
        self._members = []   # per nonempty set, member node array
        self._targets = []
        self._frozen = None

    @classmethod
    def from_sets(cls, ug: UnifiedGraph, sets, population=None):
        """Build a collection from explicit member lists (tests/debugging).

        Empty member lists become counted empty sets, as in sampling.
        """
        coll = cls(ug, rng=None, population=population)
        for members in sets:
            members = list(members)
            if members:
                coll._members.append(np.asarray(members, dtype=np.int64))
                coll._targets.append(members[0])
            else:
                coll.n_empty += 1
        return coll

    @property
    def n_samples(self):
        return len(self._members) + self.n_empty

    def extend(self, count: int):
        """Generate `count` more samples from the collection's stream."""
        for target, members in _lrr_batch(self.ug, self._pop_arr, count,
                                          self.rng):
            if members is None:
                self.n_empty += 1
                continue
            self._members.append(members)
            self._targets.append(target)
        self._frozen = None

    def _freeze(self):
        if self._frozen is None:
            n_sets = len(self._members)
            flat = (np.concatenate(self._members) if self._members
                    else np.empty(0, dtype=np.int64))
            set_of = np.repeat(np.arange(n_sets, dtype=np.int64),
                               [len(m) for m in self._members])
            order, node_ptr = _inverted_index(flat, self.ug.n_total)
            self._frozen = (flat, set_of, order, node_ptr, n_sets)
        return self._frozen

    def state(self):
        return _LRRState(self)


class _LRRState:
    def __init__(self, coll: LRRCollection):
        flat, set_of, order, node_ptr, n_sets = coll._freeze()
        self.member_node = flat
        self.member_set = set_of
        self.order = order
        self.node_ptr = node_ptr
        self.covered = np.zeros(n_sets, dtype=bool)

    def _sets_of(self, u):
        return self.member_set[self.order[
            self.node_ptr[u]:self.node_ptr[u + 1]]]

    def add(self, u):
        self.covered[self._sets_of(u)] = True

    def coverage(self) -> int:
        return int(self.covered.sum())

    def gain(self, u) -> int:
        return int(np.count_nonzero(~self.covered[self._sets_of(u)]))

    def gains_all(self, n_nodes) -> np.ndarray:
        alive = ~self.covered[self.member_set]
        out = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(out, self.member_node[alive], 1)
        return out


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
    return _state_with(collection, b).gain(int(v))


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
            for target, members in zip(collection._targets,
                                       collection._members):
                fh.write(f"{target}:"
                         + ",".join(map(str, sorted(members))) + "\n")
            for _ in range(collection.n_empty):
                fh.write("-\n")
