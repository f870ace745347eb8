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

Coverage of a blocker set B is the number of samples whose set intersects
B.  Cov/|collection| (times the population size for the upper side) is an
unbiased estimate of the corresponding bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import Realization, sample_realization
from .domtree import build_dominator_tree
from .graph import UnifiedGraph, as_blockers


def compute_population(g: UnifiedGraph) -> list:
    """Non-seed nodes reachable from the source over positive-prob edges."""
    return [int(v) for v in np.nonzero(g.positive_reach() & ~g.uncounted)[0]]


@dataclass
class CPSequence:
    """All common-path sets of one realization (inspection-friendly form)."""

    realization: Realization
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


def _sequence_entries(ug: UnifiedGraph, phi: Realization):
    """Entry arrays (nodes, parents, subtree sizes) for one realization.

    Entries are emitted in dominator-tree preorder so that the entries
    whose set contains a node form one contiguous block per sequence.
    The source and the seeds (all children of the source) are dropped;
    an entry whose dominator is one of them has parent -1.
    """
    dt = build_dominator_tree(phi)
    nodes = dt.order[~ug.uncounted[dt.order]]
    entry = np.full(ug.n_total, -1, dtype=np.int64)
    entry[nodes] = np.arange(len(nodes), dtype=np.int64)
    return nodes, entry[dt.idom[nodes]], dt.subtree_size[nodes]


def _cp_sample(ug: UnifiedGraph, rng: np.random.Generator):
    """One realization and its entry arrays (nodes, parents, sizes)."""
    phi = sample_realization(ug, None, rng)
    return (phi,) + _sequence_entries(ug, phi)


def local_sampling(g: UnifiedGraph, rng: np.random.Generator) -> CPSequence:
    """Sample one realization and return its common-path sequence."""
    phi, nodes, parents, _ = _cp_sample(g, rng)
    return CPSequence(realization=phi, nodes=nodes, parents=parents)


@dataclass
class LRRSet:
    """One reverse-reachable sample: a target and who can reach it."""

    target: int
    members: frozenset


def _live_ancestors(ug: UnifiedGraph, phi: Realization, target: int):
    """Reverse search from `target` over live in-edges that never enters a
    seed or the source.

    Returns (succ, entries): `succ[u]` lists the live successors of a found
    node u among the found nodes, and `entries` lists the found nodes with
    a live in-edge from a seed.  The target is reached exactly when
    `entries` is non-empty.
    """
    in_ptr, in_src, in_eid = ug.in_ptr, ug.in_src, ug.in_eid
    live, uncounted = phi.live, ug.uncounted
    succ = {target: []}
    entries = []
    stack = [target]
    while stack:
        v = stack.pop()
        from_seed = False
        for off in range(in_ptr[v], in_ptr[v + 1]):
            if not live[in_eid[off]]:
                continue
            u = int(in_src[off])
            if uncounted[u]:
                from_seed = True
                continue
            if u not in succ:
                succ[u] = []
                stack.append(u)
            succ[u].append(v)
        if from_seed:
            entries.append(v)
    return succ, entries


def _reverse_reach(target: int, succ: dict, entries: list) -> list:
    """The found nodes that the seeds reach, target first: a forward search
    from `entries` over the live edges recorded in `succ`."""
    seen = set(entries)
    stack = list(entries)
    while stack:
        for v in succ[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    seen.discard(target)
    return [target] + list(seen)


def _lrr_sample(ug: UnifiedGraph, population, rng: np.random.Generator):
    """One realization, a uniform target from `population`, and the
    target's reverse reach inside the realization's receiver subgraph.

    The target's live non-seed ancestors are found first; the members are
    those of them that the seeds reach, so no step walks the part of the
    realization that cannot reach the target.  Returns (target, member
    list), with None for the members when the target is not reached.
    """
    phi = sample_realization(ug, None, rng)
    target = int(population[int(rng.integers(0, len(population)))])
    succ, entries = _live_ancestors(ug, phi, target)
    if not entries:
        return target, None
    return target, _reverse_reach(target, succ, entries)


def global_sampling(g: UnifiedGraph, population,
                    rng: np.random.Generator) -> LRRSet:
    """Sample one realization and the reverse-reachable set of a random target."""
    if not population:
        raise ValueError("seeds influence no one: sampling population is empty")
    target, members = _lrr_sample(g, population, rng)
    return LRRSet(target=target, members=frozenset(members or ()))


def _inverted_index(flat: np.ndarray, n_total: int):
    """(order, node_ptr): the positions of node u's occurrences in `flat`
    are order[node_ptr[u]:node_ptr[u + 1]], ascending."""
    order = np.argsort(flat, kind="stable")
    node_ptr = np.zeros(n_total + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n_total), out=node_ptr[1:])
    return order, node_ptr


class CPCollection:
    """A growing set of common-path sequences with an inverted index."""

    def __init__(self, ug: UnifiedGraph, rng: np.random.Generator):
        self.ug = ug
        self.rng = rng
        self.n_sequences = 0
        self._nodes = []      # list of per-sequence entry-node arrays
        self._parents = []
        self._ends = []       # per-entry subtree interval ends (global)
        self._frozen = None

    @property
    def n_samples(self):
        return self.n_sequences

    def extend(self, count: int):
        """Generate `count` more sequences from the collection's stream."""
        offset = sum(len(a) for a in self._nodes)
        for _ in range(count):
            _, nodes, parents, sizes = _cp_sample(self.ug, self.rng)
            self._nodes.append(nodes)
            self._parents.append(parents)
            base = offset + np.arange(len(nodes), dtype=np.int64)
            self._ends.append(base + sizes)
            offset += len(nodes)
            self.n_sequences += 1
        self._frozen = None

    def _freeze(self):
        if self._frozen is None:
            nodes = (np.concatenate(self._nodes) if self._nodes
                     else np.empty(0, dtype=np.int64))
            ends = (np.concatenate(self._ends) if self._ends
                    else np.empty(0, dtype=np.int64))
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
        for _ in range(count):
            target, members = _lrr_sample(self.ug, self._pop_arr, self.rng)
            if members is None:
                self.n_empty += 1
                continue
            self._members.append(np.asarray(members, dtype=np.int64))
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
            for nodes, parents in zip(collection._nodes, collection._parents):
                seq = CPSequence(None, nodes, parents)
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
