"""Sample generation and coverage counting for the two bound estimators.

Both bounds are coverage functions over (realization, target) pairs, the
target drawn uniformly from the population of non-seed nodes the seeds can
reach: each is the population size times the chance that a blocker set
meets one sample.  Upper bound: the sample is a *local reverse-reachable
set*, the nodes that reach the target inside the realization's receiver
subgraph (reached non-seeds only).  Lower bound: the sample is the
target's *dominator chain*, the non-seed nodes on every live
source-to-target path.  An unreached target gives an empty sample, which
stays in the collection as denominator weight.

Both come from one reverse search per batch (`reverse_live_edges`), which
records the live in-edges of the target's non-seed ancestors and stops at
the seeds, then a forward search from the nodes the seeds feed inside what
it found (`_reverse_reach`): the pairs it reaches are the members.  Every
live source-to-member path runs through members, so `domtree.dominators`
on that search gives the realization's dominators, and a chain is the
target's path to the root.  The paper's "local sampling" draws the lower
bound forward instead; the objective is the same.

That forward estimator stays as the reference: one *common-path sequence*
per realization holds every reached non-seed node's dominator-tree root
path, truncated below the seed layer, from one dominator-tree build of the
forward search (`diffusion._forward_levels`).  Sets are stored as parent
pointers plus a preorder interval per entry, so the entries whose set
contains u are the block of u's dominator subtree.  The greedy baselines
score nodes by these entries' sizes (a node's dominator-subtree size).

Each sample type has one generator (`_lrr_batch`, `_chain_batch`,
`_cp_batch`) that splits any count into batches of up to `_BATCH`
realizations, each one vectorized search drawing an edge's coin only when
the search reaches it: a sample costs what its search reaches, not the size
of the graph.  The chain and CP generators log one DEBUG line per batch.
`LRRCollection`, `ChainCollection` and `CPCollection` keep the arrays as
whole-batch chunks, and their coverage states work on the chunks
concatenated once (`_freeze`), with no inverted index: a node's entries or
memberships are found by one comparison over the flat arrays, and every
node's marginal gain by one `np.bincount`.  Cov/|collection|, times the
population size for LRR sets and chains, estimates the bound unbiasedly.
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
    """Search the members of a batch of `count` LRR samples from the
    source, yielding levels as `diffusion._forward_levels` does: (owner,
    dst) of the live edges out of the level's pairs, then (node, trial) of
    the member pairs they reach first.

    (trial, src, dst) are the live in-edges a reverse search recorded.
    Trial t's root is the source (pair t of level 0), the seeds collapsed
    into it: level 1 is one edge to each member a seed feeds, and later
    levels follow the recorded edges between found nodes.
    """
    fed = ug.uncounted[src]
    tail = src[~fed] * count + trial[~fed]
    by_tail = np.argsort(tail)
    tail = tail[by_tail]
    head = (dst[~fed] * count + trial[~fed])[by_tail]
    member = np.zeros(ug.n_total * count, dtype=bool)
    frontier = _advance(member, dst[fed] * count + trial[fed])
    node, found = np.divmod(frontier, count)
    yield found, node, node, found
    while len(frontier):
        offs, owner = _slices(np.searchsorted(tail, frontier),
                              np.searchsorted(tail, frontier, side="right"))
        heads = head[offs]
        frontier = _advance(member, heads)
        yield (owner, heads // count, *np.divmod(frontier, count))


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
        node, trial = (np.concatenate(a) for a in zip(*(
            level[2:] for level in _reverse_reach(
                ug, batch, *reverse_live_edges(ug, targets, rng)))))
        order = np.lexsort((node, node != targets[trial], trial))
        node, trial = node[order], trial[order]
        del order
        ptr = np.searchsorted(trial, np.arange(batch + 1))
        del trial  # not alive through the next search
        yield targets, node, ptr


def _chain_batch(ug: UnifiedGraph, population: np.ndarray, count: int,
                 rng: np.random.Generator):
    """`count` dominator-chain samples, one reverse search per `_BATCH`:
    one (targets, chains, ptr) tuple per batch.  Sample i's chain is
    chains[ptr[i]:ptr[i + 1]]: the target, then its dominators up to the
    seeds, and empty when the target is not reached.

    Targets and searches are drawn as in `_lrr_batch`; each reached target
    walks its immediate dominators in the member search's dominator trees.
    """
    for done in range(0, count, _BATCH):
        batch = min(_BATCH, count - done)
        targets = population[rng.integers(0, len(population), size=batch)]
        tree = dominators(_reverse_reach(
            ug, batch, *reverse_live_edges(ug, targets, rng)), ug.s, batch)
        node, trial = np.divmod(tree.key, batch)
        links = [np.flatnonzero(node == targets[trial])]
        while len(links[-1]):       # numbers below `batch` are the roots
            up = tree.idom[links[-1]]
            links.append(up[up >= batch])
        chain = np.concatenate(links)
        # a stable sort keeps each chain in walk order, target first
        chain = chain[np.argsort(trial[chain], kind="stable")]
        ptr = np.searchsorted(trial[chain], np.arange(batch + 1))
        log.debug("chain batch: %d samples, %d chain nodes, %d join nodes, "
                  "%d sweeps", batch, len(chain), tree.joins, tree.sweeps)
        yield targets, node[chain], ptr


def global_sampling(g: UnifiedGraph, population,
                    rng: np.random.Generator) -> LRRSet:
    """Sample one realization and the reverse-reachable set of a random target."""
    if not len(population):
        raise ValueError("seeds influence no one: sampling population is empty")
    targets, members, _ = next(_lrr_batch(
        g, np.asarray(population, dtype=np.int64), 1, rng))
    return LRRSet(target=int(targets[0]), members=frozenset(members.tolist()))


class CPCollection:
    """A growing set of common-path sequences: the paper's forward
    estimator of the lower bound, kept as the reference the tests and
    `checks` compare `ChainCollection` against.  No solver samples it.

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

    _batches = staticmethod(_lrr_batch)

    def extend(self, count: int):
        """Generate `count` more samples from the collection's stream."""
        for _, members, ptr in self._batches(self.ug, self._pop_arr, count,
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


class ChainCollection(LRRCollection):
    """A growing set of dominator chains (`_chain_batch`), kept and scored
    as LRR sets are: the lower bound's samples."""

    _batches = staticmethod(_chain_batch)


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
    """Number of samples (CP entries, LRR sets or chains) the blocker set
    meets."""
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
