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

Both come from one reverse search (`_pair_search`): it records the live
in-edges of each target's non-seed ancestors, stopping at the source,
which stands for the seeds (`reverse_live_edges`), then searches forward
from the source inside what it found (`_reverse_reach`); the pairs it
reaches are the LRR set.  Every live source-to-member path runs through
members, so `domtree.dominators` on that search gives the realization's
dominators;
the chain is the target's path to the root.  A solve's `PairSource`
keeps both samples of every pair of its primary and validation streams:
both bounds read the same pairs.

The validation pairs need only be independent of the primary ones, and
fresh draws from one Generator are, as the pairs of one search already
are.  So a `PairSource` draws both streams from the one Generator it is
given, as one list of `_BATCH`-pair batches: batch 2j is primary batch j
and batch 2j + 1 validation batch j.  No node outside the reach
(`UnifiedGraph.reach`) lies on a live path from the source, so a pair
search runs in the reach graph (`UnifiedGraph.reach_graph`, computed once
per graph): the nodes of the reach numbered in node order, so that keys
sort as the nodes do, and one id for every node outside it, which no edge
enters.  `_pair_search` maps the targets to these ids and the nodes found
back; the searches in between see only ids.  A small search pays a fixed
cost per level, so both batches of a pair come from one search of
2 * `_BATCH` pairs, cut in two, while its `seen` and `member` bitmaps,
one byte per id and pair, fit `diffusion._SEEN_BYTES`.  Larger reaches
draw them in two consecutive `_BATCH` searches, so peak memory does not
grow with the number of streams.

The paper's "local sampling" draws the lower bound forward, as the
reference kept here: a *common-path sequence* holds one entry per reached
non-seed node of one forward search (`diffusion._forward_levels`), whose
set is that node's chain, its dominator-tree root path cut below the
seeds.  The entries whose chain contains u are u's dominator subtree, so
counting chain members gives the subtree sizes the greedy baselines score
nodes by.  One walk (`_chains`) builds every chain, of pairs and of
entries alike.  `CPCollection` keeps the entries of its sequences one
after another and counts the sequences; the estimate needs no more.

Both generators (`_pair_batch`, `_cp_batch`) split any count into
batches of up to `_BATCH` realizations, each one vectorized search drawing
an edge's coin only when the search reaches it: a sample costs what its
search reaches, not the size of the graph.  Each search logs one DEBUG
line.  Every collection keeps its samples as member sets in whole-batch
chunks and lists them one way (`sets`).  One coverage state works on the
chunks concatenated once (`_freeze`), with no inverted index: a node's
memberships are found by one comparison over the flat arrays, and every
node's marginal gain by one `np.bincount`.  Cov/|collection|, times the
population size for LRR sets and chains, estimates the bound unbiasedly.
"""

from __future__ import annotations

import logging

import numpy as np

from .diffusion import (_BATCH, _SEEN_BYTES, _advance, _forward_levels,
                        _joined, _slices, reverse_live_edges)
from .domtree import dominators
from .graph import UnifiedGraph, as_blockers

log = logging.getLogger(__name__)


def compute_population(g: UnifiedGraph) -> list:
    """Non-seed nodes reachable from the source over positive-prob edges
    (`g.reach`, searched once per graph)."""
    return [int(v) for v in np.nonzero(g.reach & ~g.uncounted)[0]]


def _chains(idom, counted, starts):
    """The dominator chain of each search number in `starts`, start after
    start: (numbers, sizes).  A chain walks up `idom` from its start and
    stops before the first number that `counted` drops: a root, or a seed
    of a forward search."""
    steps = [(starts, np.arange(len(starts)))]     # (numbers, their chain)
    while len(steps[-1][0]):
        numbers, owner = steps[-1]
        up = idom[numbers]
        keep = np.flatnonzero(counted[up])
        steps.append((up[keep], owner[keep]))
    sizes = np.bincount(np.concatenate([owner for _, owner in steps]),
                        minlength=len(starts))
    slot = np.cumsum(sizes) - sizes                 # each chain's first
    out = np.empty(int(sizes.sum()), dtype=np.int64)
    for step, (numbers, owner) in enumerate(steps):
        out[slot[owner] + step] = numbers
    return out, sizes


def _sequence_entries(ug: UnifiedGraph, batch: int, levels):
    """Entry arrays (nodes, members, sizes, ptr) of the `batch`
    realizations whose forward search `levels` yields.

    Sequence i is the entries ptr[i]:ptr[i + 1], one per reached node
    other than the source and the seeds, in ascending node order.  Entry
    e's set is its chain: `sizes[e]` of `members`, entry after entry, the
    node first and then its dominators other than the source and seeds.
    """
    tree = dominators(levels, ug.s, batch)
    node, trial = np.divmod(tree.key, batch)
    counted = ~ug.uncounted[node]
    starts = np.flatnonzero(counted)
    starts = starts[np.argsort(trial[starts] * ug.n_total + node[starts])]
    members, sizes = _chains(tree.idom, counted, starts)
    log.debug("cp batch: %d realizations, %d entries, %d chain nodes, "
              "%d join nodes, %d sweeps", batch, len(starts), len(members),
              tree.joins, tree.sweeps)
    return (node[starts], node[members], sizes,
            np.searchsorted(trial[starts], np.arange(batch + 1)))


def _cp_batch(ug: UnifiedGraph, count: int, rng: np.random.Generator):
    """Entry arrays of `count` realizations, one `_sequence_entries` tuple
    per forward search of up to `_BATCH` realizations."""
    for done in range(0, count, _BATCH):
        batch = min(_BATCH, count - done)
        yield _sequence_entries(ug, batch, _forward_levels(
            ug, ug.blocked, batch, rng))


def _reverse_reach(ids: int, root: int, count: int, trial, src, dst):
    """Search the members of a batch of `count` LRR samples from the
    source, yielding levels as `diffusion._forward_levels` does: (owner,
    head) of the live edges out of the level's pairs, then (node, trial) of
    the member pairs they reach first.

    (trial, src, dst) are the live in-edges a reverse search recorded, as
    ids below `ids`.  Trial t's root is the source, id `root` (pair t of
    level 0), and each level follows the recorded edges out of the pairs
    found last; level 0 keeps one source edge per seed-fed pair, however
    many seeds feed it.  The `member` bitmap has one row of trials per id.
    """
    tail = src * count + trial
    by_tail = np.argsort(tail)
    tail, head = tail[by_tail], (dst * count + trial)[by_tail]
    member = np.zeros(ids * count, dtype=bool)
    lo, hi = np.searchsorted(tail, [root * count, (root + 1) * count])
    frontier = heads = _advance(member, head[lo:hi])
    owners = heads % count          # level 0's pair t is trial t's root
    while True:
        yield owners, heads, *np.divmod(frontier, count)
        if not len(frontier):
            return
        owners, heads = [], []
        for offs, owner in _slices(
                np.searchsorted(tail, frontier),
                np.searchsorted(tail, frontier, side="right")):
            owners.append(owner)
            heads.append(head[offs])
        owners, heads = _joined(owners), _joined(heads)
        frontier = _advance(member, heads)


def _pair_search(ug: UnifiedGraph, population: np.ndarray, count: int,
                 rng: np.random.Generator):
    """The `count` (realization, target) pairs of one reverse search, cut
    into batches of `_BATCH` pairs: one (targets, LRR sets, chains) tuple
    per batch, the sets and the chains each as (nodes, sizes), pair after
    pair, target first and empty when the target is not reached.

    The search draws its targets first, uniformly from `population`, and
    then its coins (`reverse_live_edges`), all from `rng`.  It runs in the
    reach graph (`ug.reach_graph`), and this is the one place that maps
    its ids: the targets in, and the nodes that the member search and the
    dominator routine find out.  Each chain walks up the immediate
    dominators.
    """
    targets = population[rng.integers(0, len(population), size=count)]
    rg = ug.reach_graph
    root = rg.row[ug.s]
    edges = reverse_live_edges(rg, rg.row[targets], rng)
    tree = dominators(_reverse_reach(rg.n, root, count, *edges), root, count)
    row, trial = np.divmod(tree.key, count)
    node = rg.node[row]
    mine = node == targets[trial]
    # the member pairs are every number but the roots (below `count`), each
    # (node, trial) once: sorted by trial, then target first, then node
    members = np.sort((trial[count:] * 2 + ~mine[count:]) * ug.n_total
                      + node[count:]) % ug.n_total
    reached = np.flatnonzero(mine)
    chain, _ = _chains(tree.idom, ~ug.uncounted[node],
                       reached[np.argsort(trial[reached])])
    log.debug("pair search: %d samples, %d members, %d chain nodes, %d join "
              "nodes, %d sweeps", count, len(members), len(chain), tree.joins,
              tree.sweeps)
    cut = np.arange(_BATCH, count, _BATCH)      # each later batch's first
    parts = [np.split(targets, cut)]
    for nodes, trials in ((members, trial[count:]),
                          (node[chain], trial[chain])):
        sizes = np.bincount(trials, minlength=count)
        parts.append(list(zip(np.split(nodes, np.cumsum(sizes)[cut - 1]),
                              np.split(sizes, cut))))
    return list(zip(*parts))


def _pair_batch(ug: UnifiedGraph, population: np.ndarray, count: int,
                rng: np.random.Generator):
    """`count` (realization, target) pairs of one stream, one
    `_pair_search` per `_BATCH`."""
    for done in range(0, count, _BATCH):
        yield from _pair_search(ug, population, min(_BATCH, count - done),
                                rng)


class _SetChunks:
    """Samples kept as member sets in whole-batch chunks, listed by
    `sets` and scored by `_LRRState`: an LRR set, a chain or a
    common-path entry is one set.  `n_samples` counts what each kind
    samples: a set, or a whole common-path sequence."""

    def __init__(self, ug: UnifiedGraph, rng: np.random.Generator):
        self.ug = ug
        self.rng = rng
        self.n_samples = 0
        empty = np.empty(0, dtype=np.int64)
        self._members = [empty]   # per-chunk members, set after set
        self._sizes = [empty]     # per-chunk set sizes
        self._frozen = None

    def _chunk(self, members, sizes):
        """Append one chunk: `sizes[i]` members per set, set after set."""
        self._frozen = None
        self._members.append(members)
        self._sizes.append(sizes)

    def _freeze(self):
        """(members, set of each member, number of sets), concatenated
        once."""
        if self._frozen is None:
            self._members = [np.concatenate(self._members)]  # one copy kept
            self._sizes = [np.concatenate(self._sizes)]
            sizes = self._sizes[0]
            set_of = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
            self._frozen = (self._members[0], set_of, len(sizes))
        return self._frozen

    def sets(self):
        """Each set's members, set after set, as a list of views of the
        frozen members: an LRR set or a chain target first (an empty array
        where the target was not reached), a common-path entry's chain
        node first."""
        members, _, _ = self._freeze()
        return np.split(members, np.cumsum(self._sizes[0]))[:-1]

    def state(self):
        return _LRRState(self)


class CPCollection(_SetChunks):
    """A growing set of common-path sequences: the paper's forward
    estimator of the lower bound, kept as the reference the tests and
    `checks` compare `ChainCollection` against.  No solver samples it.

    Each entry is one set, its chain, node first, and `n_samples` counts
    sequences.  The collection keeps no sequence boundaries: the estimate
    needs only the count, and a one-sequence collection's `sets` are that
    realization's chains.
    """

    def extend(self, count: int):
        """Generate `count` more sequences from the collection's stream."""
        for _, members, sizes, ptr in _cp_batch(self.ug, count, self.rng):
            self._chunk(members, sizes)
            self.n_samples += len(ptr) - 1


class LRRCollection(_SetChunks):
    """A growing set of reverse-reachable samples.  An empty set (target
    unreached) has no members but counts as a sample."""

    def __init__(self, ug: UnifiedGraph, rng: np.random.Generator,
                 population=None):
        super().__init__(ug, rng)
        self.population = np.asarray(
            compute_population(ug) if population is None else population,
            dtype=np.int64)
        if not len(self.population):
            raise ValueError("seeds influence no one: sampling population "
                             "is empty")
        self.n_empty = 0

    _part = 1   # the sets in each `_pair_batch` tuple

    def extend(self, count: int):
        """Generate `count` more samples from the collection's stream."""
        for batch in _pair_batch(self.ug, self.population, count,
                                 self.rng):
            self._add(*batch[self._part])

    def _add(self, members, sizes):
        """Append one chunk of sets."""
        self._chunk(members, sizes)
        self.n_samples += len(sizes)
        self.n_empty += int(np.count_nonzero(sizes == 0))


class ChainCollection(LRRCollection):
    """A growing set of dominator chains, kept and scored as LRR sets are:
    the lower bound's samples."""

    _part = 2


class PairSource:
    """A solve's primary and validation pairs: two streams of (realization,
    target) pairs drawn from the one Generator `rng`, on demand in whole
    `_BATCH` batches, and kept as both LRR sets and chains.  Pairs are only
    ever appended, so the first `count` never change.

    The batches form one list: batch 2j is primary batch j and batch
    2j + 1 validation batch j.  Both come from one `_pair_search` of
    2 * `_BATCH` pairs while its bitmaps, one byte per pair and node of
    the reach, fit `_SEEN_BYTES`; else from two consecutive `_BATCH`
    searches.
    `searches` counts the reverse searches drawn, `n_pairs` the pairs of
    each stream.
    """

    def __init__(self, ug: UnifiedGraph, rng: np.random.Generator):
        self.ug = ug
        self.population = np.asarray(compute_population(ug), dtype=np.int64)
        self.rng = rng
        self.searches = self.n_pairs = 0
        self._batches = []     # primary, validation, primary, ...

    def read(self, kind, count: int):
        """(primary, validation): the first `count` pairs of each stream
        as a `kind` (`LRRCollection` or `ChainCollection`), drawing the
        whole batches they lack."""
        shared = 2 * len(self.ug.reach_graph.node) * _BATCH <= _SEEN_BYTES
        while self.n_pairs < count:
            for size in [2 * _BATCH] if shared else [_BATCH, _BATCH]:
                self._batches += _pair_search(self.ug, self.population, size,
                                              self.rng)
                self.searches += 1
            self.n_pairs += _BATCH
        colls = [kind(self.ug, None, self.population) for _ in range(2)]
        for i, pairs in enumerate(self._batches[:2 * -(-count // _BATCH)]):
            coll = colls[i % 2]
            nodes, sizes = pairs[kind._part]
            sizes = sizes[:count - coll.n_samples]
            coll._add(nodes[:sizes.sum()], sizes)
        return tuple(colls)


class _LRRState:
    """Coverage bookkeeping over a frozen collection of sets (LRR sets,
    chains or common-path entries): a blocker covers the sets it is a
    member of."""

    def __init__(self, coll: _SetChunks):
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


def coverage(collection, blockers) -> int:
    """Number of samples (CP entries, LRR sets or chains) the blocker set
    meets."""
    state = collection.state()
    for u in as_blockers(blockers):
        state.add(u)
    return state.coverage()
