"""Independent-cascade simulation and adaptive spread estimation.

Two equivalent views of the cascade are provided: vectorized forward
cascades (`spread_samples`) and live-edge realizations, whose reachable
set has the same distribution.  Spread values count activated non-seed
nodes only.  The eager `Realization` (`sample_realization`, one coin per
edge of the graph) is only the tests' reference; the package searches
realizations lazily in batches: one breadth-first search runs over up to
`_BATCH` independent realizations at once and draws an edge's coin only
when the search first reaches the node at its near end, so a realization
costs what its cascade reaches (the live-edge idiom of
reverse-reachable-set influence maximization: Borgs et al., SODA 2014;
Tang et al., SIGMOD 2015).  The forward search (`_forward_levels`) yields
its live edges and newly reached nodes level by level:
`domtree.dominators` builds the dominator trees of a whole batch from
them, and `ic_spread_samples` keeps only how many nodes each cascade
activates.  It also takes an eager realization's live-edge mask in place
of coins, so the tests' reference runs the same search.
`reverse_live_edges` searches backwards from targets, and
`reverse_reach_counts` runs the same reverse search on a plain graph and
keeps only how often each node is found, which scores every node's
singleton influence at once.  All batched searches expand their
frontier through one CSR-slice helper, and each step compresses its
examined edges once, by index: coins are compared with every examined
edge's probability, and only the live edges' owners and heads are
gathered and tested against the blocked mask.

Each lazy-coin search examines a level in steps of at most `_EDGE_BUDGET`
CSR entries, split by the slice helper's own prefix sum (a level within
the budget is one step, with no extra pass), and a node's edges may span
steps.  A step draws its coins, filters its edges and builds its keys; the
keys, held keys, run-bit gains and yielded edges of a level are
concatenated in step order, and one `_advance` or `_advance_bits` call per
level deduplicates them, as a whole level does.  PCG64's `random(a)` then
`random(b)` draws what `random(a + b)` draws, so every output, the
Generator's stream included, is what one step gives.  2^14 int64s are
128 KiB, glibc's default mmap threshold, and a step's temporaries stay
that small however large the level: one `spread_samples(..., 1024)` batch
on `fixtures.mid_synthetic(2000, 8000, 20)` peaks at 7.9 MB of
tracemalloc, not 16.9 MB.  On perfbench's `mid`, 2^15 and 2^16 gave back
part of the peak-RSS gain, and 2^12 and 2^13 added nothing to it.  What
stays whole-level grows with a level's live edges, not its examined ones:
the per-level `_advance` and what a level yields.  The LRR member search
(`sampling._reverse_reach`) draws no coins and only gathers recorded live
edges, so it joins its steps at once.  The `n_total * batch` `seen`
bitmap is then most of the peak on large graphs (51 of 68 MB on
`mid_synthetic(50000, 200000, 50)`).

Several blocker sets are compared on shared realizations (common random
numbers): `_forward_levels` searches a batch once for up to eight runs,
one per set, and each (node, trial) pair carries one bit per run that has
reached it.  Blocking only removes nodes, so a blocked run reaches a
subset of what the base run reaches.  When the sets nest (each blocks a
superset of the next, as the base and one blocker set do), each
less-blocked run is the run before it continued: the most-blocked run is
searched alone with `rng.random` coins, and each next run resumes it from
the live edges that stopped at a node it no longer blocks, so every pair
is expanded once and every coin is drawn once.  Sets that do not nest are
searched together: a pair is expanded again at each level where it gains
bits, for those bits only, and a late run must see the live edges an
early run saw, so the coins are replayed rather than stored: edge e's
coin in trial t is output e * batch + t of a SplitMix64 stream (Steele,
Lea and Flood, OOPSLA 2014) keyed once per batch from the Generator.  One
run is the one-set case of the nested search, so its callers keep their
bytes; a SplitMix64 coin costs about six Generator coins (12.0 against
1.9 ms for 508k coins in one array, on a 2-core x86 VM).

`stopping_rule_spreads` is a sequential mean estimator with a
relative-error contract for each of several blocker sets: it draws
cascades a batch at a time until empirical-Bernstein confidence bounds on
each set's mean normalized spread are within a factor that depends on
gamma (EBStop: Mnih, Szepesvari and Audibert, ICML 2008), so low-variance
spreads need few cascades.  All sets read one stream of shared batches,
and a set that stops leaves the search.  Spreads are normalized by the
number of non-seed nodes the seeds can reach at all rather than by the
node count n, so nodes no cascade can reach do not inflate the trial
count.  `ic_spread_samples` and `stopping_rule_spread` are the one-set
calls of `spread_samples` and `stopping_rule_spreads`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, UnifiedGraph

# Trials per vectorized batch.  Fixed so that results for a given seed do
# not depend on caller-visible knobs.
_BATCH = 1024

# Bytes of one `reverse_reach_counts` batch's `seen` bitmap (one per node
# and set): larger batches cost less per set, but a 4 MB bitmap added 4-6 MB
# of peak RSS to a cold `imin run`.
_RANK_SEEN_BYTES = 1 << 20

# Most CSR entries one step of a lazy-coin search's level examines: 2^14
# int64s are 128 KiB, glibc's default mmap threshold (see the module
# docstring for the budgets measured).
_EDGE_BUDGET = 1 << 14

# Runs per forward search: one bit each of a uint8 per (node, trial) pair.
_MAX_RUNS = 8

# SplitMix64's stream increment and the multipliers of its output mix.
_SPLITMIX = tuple(np.uint64(c) for c in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


class Realization:
    """One live-edge sample of a unified graph.

    `live` is a boolean bitmap over edge ids of the unified graph; edges
    into blocked nodes are never live.  `reach` traverses the realization
    on every read.
    """

    __slots__ = ("ug", "live", "blocked")

    def __init__(self, ug: UnifiedGraph, live: np.ndarray, blocked=None):
        self.ug = ug
        self.live = live
        self.blocked = ug.blocked if blocked is None else blocked

    @classmethod
    def from_edge_list(cls, ug: UnifiedGraph, edges):
        """Build a realization from explicit (u, v) pairs (tests/fixtures).

        Edges out of the virtual source are always live and need not be
        listed.
        """
        wanted = set((int(u), int(v)) for u, v in edges)
        live = np.zeros(ug.m_total, dtype=bool)
        src = np.repeat(np.arange(ug.n_total, dtype=np.int64),
                        np.diff(ug.out_ptr))
        for eid in range(ug.m_total):
            u, v = int(src[eid]), int(ug.out_dst[eid])
            if u == ug.s or (u, v) in wanted:
                live[eid] = True
                wanted.discard((u, v))
        if wanted:
            raise ValueError(f"edges not present in graph: {sorted(wanted)}")
        return cls(ug, live)

    @property
    def reach(self):
        return reachable_in_realization(self)


def reachable_in_realization(phi: Realization) -> np.ndarray:
    """Boolean mask of nodes with a live-edge path from the source."""
    return phi.ug.positive_reach(phi.blocked, live=phi.live)


def sample_realization(g: UnifiedGraph, blockers=None,
                       rng: np.random.Generator = None) -> Realization:
    """Keep each edge independently with its probability.

    Edges into blocked nodes are never kept; edges out of the virtual
    source have probability 1 and are always kept.
    """
    blocked = g.blocked_with(blockers)
    live = rng.random(g.m_total) < g.out_p
    if blocked.any():
        live &= ~blocked[g.out_dst]
    return Realization(g, live, blocked=blocked)


def spread_samples(g: UnifiedGraph, blocker_sets, trials: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Forward-cascade spreads of each blocker set on shared realizations.

    Row i holds the non-seed spread of `blocker_sets[i]` in each of
    `trials` realizations, the same realizations in every row, so
    B <= B' gives row B' <= row B trial by trial.  Equal sets share one
    run and get equal rows; one distinct set draws the coins that
    `ic_spread_samples` draws.
    """
    masks, row = _distinct_masks(g, blocker_sets)
    out = np.zeros((len(masks), trials), dtype=np.int64)
    for done in range(0, trials, _BATCH):
        batch = min(_BATCH, trials - done)
        out[:, done:done + batch] = _batch_spreads(g, masks, batch, rng)
    return out[row]


def ic_spread_samples(g: UnifiedGraph, blockers=None, trials: int = 1,
                      rng: np.random.Generator = None) -> np.ndarray:
    """Vectorized forward cascades; returns one spread value per trial:
    the one-set call of `spread_samples`."""
    return spread_samples(g, [blockers], trials, rng)[0]


def _distinct_masks(g, blocker_sets):
    """(masks, row): a stack of the distinct blocked masks of
    `blocker_sets`, one run each, and the index of each set's run."""
    masks, row, index = [], [], {}
    for blockers in blocker_sets:
        mask = g.blocked_with(blockers)
        row.append(index.setdefault(mask.tobytes(), len(masks)))
        if row[-1] == len(masks):
            masks.append(mask)
    if not 1 <= len(masks) <= _MAX_RUNS:
        raise ValueError(f"need 1 to {_MAX_RUNS} distinct blocker sets, "
                         f"got {len(masks)}")
    return np.stack(masks), row


def _batch_spreads(g, masks, batch, rng):
    """(runs, batch) spreads of one forward search, run r blocking
    `masks[r]`: each reached pair is counted per trial and set of runs
    gained, and each run sums the sets that hold it."""
    runs = len(masks)
    offset = np.arange(1 << runs, dtype=np.int64) * batch
    per_set = np.zeros(batch << runs, dtype=np.int64)
    for *_, node, trial, bits in _forward_levels(g, masks, batch, rng):
        per_set += np.bincount((offset[bits] + trial)[~g.uncounted[node]],
                               minlength=len(per_set))
    holds = np.unpackbits(np.arange(1 << runs, dtype=np.uint8)[None],
                          axis=0, count=runs, bitorder="little")
    return holds @ per_set.reshape(1 << runs, batch)


def _slices(lo, hi):
    """(idx, owner) of the index ranges [lo[i], hi[i]) concatenated in
    order, in steps of at most `_EDGE_BUDGET` indices (a range longer than
    that spans steps), owner the i of each index's range.  A total within
    the budget is one step, and any total yields at least one."""
    lens = hi - lo
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    if total <= _EDGE_BUDGET:
        owner = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        yield np.arange(total, dtype=np.int64) + (hi - ends)[owner], owner
        return
    shift = hi - ends                   # index minus position, per range
    del lo, hi, lens                    # not kept through the steps
    for start in range(0, total, _EDGE_BUDGET):
        stop = min(start + _EDGE_BUDGET, total)
        # the ranges that meet [start, stop), each clipped to it
        first = np.searchsorted(ends, start, side="right")
        last = np.searchsorted(ends, stop) + 1
        counts = np.diff(np.minimum(ends[first:last], stop), prepend=start)
        owner = np.repeat(np.arange(first, last, dtype=np.int64), counts)
        yield np.arange(start, stop, dtype=np.int64) + shift[owner], owner


def _joined(parts):
    """The list `parts` concatenated, one part as it is, uncopied; empties
    `parts`, so the parts are freed once the result is."""
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    parts.clear()
    return out


def _advance(seen, key):
    """The keys not yet in `seen`, once each and sorted; marks them seen.

    Keys are node-major, node * batch + trial, and `seen` is allocated with
    `np.zeros`, so the memory it touches follows the nodes reached, not
    batch * n.  Duplicates go by one sort: np.unique's hash table is slower
    on these keys.
    """
    key = np.sort(key[np.flatnonzero(~seen[key])])
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    key = key[fresh]
    seen[key] = True
    return key


def _replayed_coins(key, index):
    """Uniform [0, 1) coins: output number `index` of the SplitMix64
    stream seeded with `key` (Steele, Lea and Flood, OOPSLA 2014), with its
    top 53 bits as the fraction."""
    z = index.view(np.uint64)       # index >= 0, a fresh array
    z += np.uint64(1)
    z *= _SPLITMIX[0]
    z += key
    for shift, mult in ((30, _SPLITMIX[1]), (27, _SPLITMIX[2])):
        z ^= z >> np.uint64(shift)
        z *= mult
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z * 2.0 ** -53


def _advance_bits(seen, key, gain):
    """`_advance` for run bits: the keys that gain bits not yet in `seen`,
    once each and sorted, and the bits each gains, the union of its
    `gain` entries; adds them to `seen`."""
    gain &= ~seen[key]
    hit = np.flatnonzero(gain)
    # each key packs its gain into its low byte, so one sort groups both
    packed = np.sort(key[hit] << 8 | gain[hit])
    key = packed >> 8
    head = np.ones(len(key), dtype=bool)
    head[1:] = key[1:] != key[:-1]
    head = np.flatnonzero(head)
    bits = np.bitwise_or.reduceat(packed.astype(np.uint8), head)
    key = key[head]
    seen[key] |= bits
    return key, bits


def _nested_order(blocked):
    """The runs of the mask stack `blocked`, most blocked first, if each
    mask holds the next (a chain, as one mask is); else None."""
    order = np.argsort(-np.count_nonzero(blocked, axis=1), kind="stable")
    chain = blocked[order]
    return None if (chain[1:] & ~chain[:-1]).any() else order


def _forward_levels(g, blocked, batch, rng, live=None):
    """Breadth-first search from the source over `batch` independent
    realizations at once, level by level, for one run or several.

    `blocked` is a node mask, or a stack of up to `_MAX_RUNS` of them, one
    per run; run r never enters the nodes of its mask.  Each (node, trial)
    pair carries one bit per run that has reached it.  The masks select
    one of two searches.

    Nested masks (each stack member, most blocked first, holds the next;
    one mask always is) are searched one run after another.  Blocking only
    removes nodes, so each less-blocked run is the run before it
    continued: the first run is searched alone, and the keys of the live
    edges it stops at a blocked head are held.  Each next run resumes with
    the same `seen` and coins, from the held pairs it no longer blocks, and
    a pair gains at once the bits of the run that first reaches it and of
    every less-blocked run.  Every pair is expanded once, so a level is
    deduplicated by `_advance` on a bool `seen`, and each edge's coin is
    drawn from `rng` when its source node is first reached; a `live` edge
    mask, when given, stands in for the coins (one realization, no
    draws).

    Masks that do not nest are searched together.  A pair is expanded
    again at every level where it gains bits, and only for those bits:
    each live edge out of it passes them to its head, less the runs that
    block the head and those the head already has.  A run that reaches a
    pair late must see the live edges that an earlier run saw, so the coin
    of edge e in trial t is `_replayed_coins(key, e * batch + t)`, for one
    key drawn from `rng` per search, computed again at each expansion
    rather than stored.  The bit bookkeeping of `_advance_bits` made a
    one-run batch about a third slower than `_advance`
    (`fixtures.mid_synthetic(300, 1200, 10)`, 2-core x86 VM).

    Either search examines a level's edges in steps of at most
    `_EDGE_BUDGET`, and takes `live` in place of coins; the run-bit search
    then draws no key.  Yields, per level, (owner, dst) of the live edges
    that pass on at least one bit, owner indexing the level's pairs in
    ascending order, then (node, trial) of the pairs that gain bits,
    sorted node-major, and the bits each gains.  A resumed run's first
    level yields the held pairs it gains, with no edges.
    """
    blocked = np.atleast_2d(blocked)
    runs = len(blocked)
    order = _nested_order(blocked)
    nested = order is not None
    trial = np.arange(batch, dtype=np.int64)
    node = np.full(batch, g.s, dtype=np.int64)
    seen = np.zeros(g.n_total * batch, dtype=bool if nested else np.uint8)
    seen[node * batch + trial] = (1 << runs) - 1    # True in a bool seen
    if nested:
        # per run, most blocked first: the nodes it may enter, and the bits
        # its new pairs gain (its own and every less-blocked run's)
        stages = [(~blocked[r], np.bitwise_or.reduce(1 << order[i:]))
                  for i, r in enumerate(order)]
        held = [np.zeros(0, dtype=np.int64)]
    else:
        allow = np.packbits(~blocked, axis=0, bitorder="little")[0]
        stream = None if live is not None else rng.integers(
            2 ** 64, dtype=np.uint64)
        bits = np.full(batch, (1 << runs) - 1, dtype=np.uint8)
        stages = [(None, None)]
    for stage, (free, gained) in enumerate(stages):
        if stage:
            held = np.concatenate(held)
            resume = free[held // batch]
            pair = _advance(seen, held[resume])
            held = [held[~resume]]
            node, trial = np.divmod(pair, batch)
            yield (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   node, trial, np.full(len(pair), gained, dtype=np.uint8))
        while len(node):
            owners, dsts, keys, gains = [], [], [], []
            for eids, owner in _slices(g.out_ptr[node], g.out_ptr[node + 1]):
                if live is not None:
                    hit = live[eids]
                elif nested:
                    hit = rng.random(len(eids)) < g.out_p[eids]
                else:
                    hit = (_replayed_coins(stream, eids * batch + trial[owner])
                           < g.out_p[eids])
                hit = np.flatnonzero(hit)
                owner, dst = owner[hit], g.out_dst[eids[hit]]
                if nested:
                    enter = free[dst]
                    if stage + 1 < len(stages):
                        stop = np.flatnonzero(~enter)
                        held.append(dst[stop] * batch + trial[owner[stop]])
                    hit = np.flatnonzero(enter)
                else:
                    # the runs each live edge passes on: its tail's, less
                    # those that block its head
                    gain = bits[owner] & allow[dst]
                    hit = np.flatnonzero(gain)
                    gains.append(gain[hit])
                owner, dst = owner[hit], dst[hit]
                owners.append(owner)
                dsts.append(dst)
                keys.append(dst * batch + trial[owner])
            if nested:
                node = _advance(seen, _joined(keys))
                bits = np.full(len(node), gained, dtype=np.uint8)
            else:
                node, bits = _advance_bits(seen, _joined(keys), _joined(gains))
            node, trial = np.divmod(node, batch)
            yield _joined(owners), _joined(dsts), node, trial, bits


def reverse_live_edges(g: UnifiedGraph, targets: np.ndarray,
                       rng: np.random.Generator):
    """Live in-edges of the nodes that reach `targets[t]` without passing
    through a seed or the source, one independent realization per trial t.

    The search starts at each target and never enters a seed or the
    source.  Each edge's coin is drawn when its target node is first found,
    so it is drawn at most once per realization; edges into blocked nodes
    are never live.  Returns (trial, src, dst) of every live in-edge of a
    found node; an edge whose `src` is a seed marks where the seeds feed
    the found nodes.
    """
    batch = len(targets)
    seen = np.zeros(g.n_total * batch, dtype=bool)
    trial = np.arange(batch, dtype=np.int64)
    node = np.asarray(targets, dtype=np.int64)
    seen[node * batch + trial] = True
    parts = []
    while len(node):
        keys = []
        for offs, owner in _slices(g.in_ptr[node], g.in_ptr[node + 1]):
            hit = np.flatnonzero(rng.random(len(offs)) < g.in_p[offs])
            owner, offs = owner[hit], offs[hit]
            hit = np.flatnonzero(~g.blocked[node[owner]])
            owner, src = owner[hit], g.in_src[offs[hit]]
            t = trial[owner]
            parts.append((t, src, node[owner]))
            inner = ~g.uncounted[src]
            keys.append(src[inner] * batch + t[inner])
        node, trial = np.divmod(_advance(seen, _joined(keys)), batch)
    return tuple(np.concatenate(a) for a in zip(*parts))


def reverse_reach_counts(g: Graph, samples: int,
                         rng: np.random.Generator) -> np.ndarray:
    """For each node, in how many of `samples` reverse-reachable sets of
    the plain graph `g` it lies.

    Each set is the nodes that reach a uniform random target over live
    edges, target included, so n * count[v] / samples estimates the
    expected spread of the seed set {v}, v itself counted (Borgs et al.,
    SODA 2014).  Sets are searched with lazy coins, as in
    `reverse_live_edges`, in batches of `max(_BATCH, _RANK_SEEN_BYTES // n)`,
    so each batch's `seen` bitmap stays near `_RANK_SEEN_BYTES`, and one
    batch's bitmap is freed before the next is allocated.  Each level adds
    its nodes to the per-node count; the sets are not kept.
    """
    counts = np.zeros(g.n, dtype=np.int64)
    size = max(_BATCH, _RANK_SEEN_BYTES // g.n)
    for done in range(0, samples, size):
        batch = min(size, samples - done)
        seen = np.zeros(g.n * batch, dtype=bool)
        trial = np.arange(batch, dtype=np.int64)
        node = rng.integers(0, g.n, size=batch)
        seen[node * batch + trial] = True
        while len(node):
            np.add.at(counts, node, 1)
            keys = []
            for offs, owner in _slices(g.in_ptr[node], g.in_ptr[node + 1]):
                hit = np.flatnonzero(rng.random(len(offs)) < g.in_p[offs])
                keys.append(g.in_src[offs[hit]] * batch + trial[owner[hit]])
            node, trial = np.divmod(_advance(seen, _joined(keys)), batch)
        del seen                        # before the next batch's bitmap
    return counts


@dataclass
class SpreadEstimate:
    """A spread estimate with its accuracy contract.

    With probability at least 1 - delta the value lies within a factor
    (1 +/- gamma) of the true expected non-seed spread.  `exact_zero` is set
    when the graph structure forces a spread of exactly zero; no cascade is
    drawn in that case, so `samples_used` is 0.
    """

    value: float
    gamma: float
    delta: float
    samples_used: int
    exact_zero: bool = False


class _EBStop:
    """One estimate's empirical-Bernstein stopping state (see
    `stopping_rule_spreads`), fed one batch of spreads at a time."""

    def __init__(self, n_reach, gamma, delta):
        self.n_reach, self.gamma, self.delta = n_reach, gamma, delta
        # spreads are integers, so their sums and sums of squares are exact
        self.total = self.square = self.batches = 0
        self.low, self.high = 0.0, 1.0

    def add(self, spreads):
        """Fold in one batch; the estimate once the bounds close, else
        None."""
        self.batches += 1
        j, n_reach, gamma = self.batches, self.n_reach, self.gamma
        self.total += int(spreads.sum())
        self.square += int(spreads @ spreads)
        t = j * _BATCH
        mean = self.total / (t * n_reach)
        var = max(0.0, self.square / (t * n_reach * n_reach) - mean * mean)
        log_term = math.log(math.pi ** 2 * j * j / (2.0 * self.delta))
        c = math.sqrt(2.0 * var * log_term / t) + 3.0 * log_term / t
        self.low = max(self.low, mean - c)
        self.high = min(self.high, mean + c)
        if (1.0 + gamma) * self.low < (1.0 - gamma) * self.high:
            return None
        value = 0.5 * ((1.0 + gamma) * self.low + (1.0 - gamma) * self.high)
        return SpreadEstimate(value=value * n_reach, gamma=gamma,
                              delta=self.delta, samples_used=t)


def stopping_rule_spreads(g: UnifiedGraph, blocker_sets, gamma: float = 0.1,
                          delta: float = 0.1,
                          rng: np.random.Generator = None) -> list:
    """(gamma, delta)-estimates of the expected non-seed spread of each
    blocker set, all drawn from one stream of shared realizations.

    Each set's cascades are normalized by N_B, the number of non-seed
    nodes reachable from the seeds over positive-probability edges that
    avoid the blocked nodes.  Every activated non-seed node lies in that
    set, so the samples lie in [0, 1]; the trial count follows the part of
    the graph the cascade can reach, not the node count n.

    Each set stops by empirical-Bernstein stopping (EBStop: Mnih,
    Szepesvari and Audibert, ICML 2008).  After batch j, t = j * _BATCH
    samples in, the mean lies within

        c_t = sqrt(2 V_t L / t) + 3 L / t,   L = ln(3 / d_j),

    of the sample mean with probability at least 1 - d_j, where V_t is the
    (1/t) sample variance and d_j = 6 delta / (pi^2 j^2), so the failure
    budgets sum to delta.  The running bounds LB = max(LB, mean - c_t) and
    UB = min(UB, mean + c_t), from LB = 0 and UB = 1, stop the set once
    (1 + gamma) LB >= (1 - gamma) UB, and N_B * ((1 + gamma) LB +
    (1 - gamma) UB) / 2 is then within (1 +/- gamma) of the mean.  The
    trial count scales with the samples' variance rather than with the
    worst case of a [0, 1] variable, but is always a whole number of
    batches.  N_B = 0 forces a spread of exactly zero, which is returned
    without sampling.

    Every batch is one forward search with one run per set still
    sampling; a set that stops leaves the search, and its estimate is what
    it had then.  As in `_forward_levels`, a batch whose sets still
    sampling nest (one set alone always does) resumes one search with
    coins from `rng`, and a batch of sets that do not nest carries run
    bits and replays its coins; either way a batch is independent of the
    batches before it, so each set's contract holds whichever sets still
    sample.  Equal sets share one run and one estimate object.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    masks, row = _distinct_masks(g, blocker_sets)
    rules = [_EBStop(int(np.count_nonzero(reach & ~g.uncounted)), gamma,
                     delta) for reach in g.positive_reach(masks)]
    est = [None if rule.n_reach else SpreadEstimate(
        value=0.0, gamma=gamma, delta=delta, samples_used=0, exact_zero=True)
        for rule in rules]
    active = [r for r, e in enumerate(est) if e is None]
    while active:
        spreads = _batch_spreads(g, masks[active], _BATCH, rng)
        for r, row_spreads in zip(active, spreads):
            est[r] = rules[r].add(row_spreads)
        active = [r for r in active if est[r] is None]
    return [est[r] for r in row]


def stopping_rule_spread(g: UnifiedGraph, blockers=None, gamma: float = 0.1,
                         delta: float = 0.1,
                         rng: np.random.Generator = None) -> SpreadEstimate:
    """(gamma, delta)-estimate of the expected non-seed spread of
    `blockers`: the one-set call of `stopping_rule_spreads`."""
    return stopping_rule_spreads(g, [blockers], gamma, delta, rng)[0]
