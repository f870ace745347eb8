"""Independent-cascade simulation and adaptive spread estimation.

Two equivalent views of the cascade are provided: vectorized forward
cascades (`spread_samples`) and live-edge realizations, whose reachable
set has the same distribution.  Spread values count activated non-seed
nodes only.  The eager `Realization` (`sample_realization`, one coin per
edge of the graph) is only the tests' reference; the package searches
realizations lazily in batches: one breadth-first search runs over a
batch of independent realizations at once and draws an edge's coin only
when the search first reaches the node at its near end, so a realization
costs what its cascade reaches (the live-edge idiom of
reverse-reachable-set influence maximization: Borgs et al., SODA 2014;
Tang et al., SIGMOD 2015).  One level loop, `_forward_levels`, draws
every lazy coin: it searches from one start node per trial, the source
by default, along whatever forward CSR it is given, and yields its live
edges and newly reached pairs level by level, each pair as one packed key
node * batch + trial, sorted; it splits a level's keys into nodes and
trials once, where it expands that level, and no consumer packs or splits
them again per level.  On a unified graph it is the cascade:
`domtree.dominators` builds the dominator trees of a whole batch from its
levels, and `ic_spread_samples` keeps only how many nodes each cascade
activates: its first level is every seed of every trial, and no later
level holds a seed or the source, so the count skips that level and
tests no node.  It also takes an eager realization's live-edge mask in
place of coins, so the tests' reference runs the same search.
Handed a reverse CSR read as a forward one (`_Reversed`) and no blocked
node, it is the reverse search, which finds what reaches each start.
`reverse_live_edges` runs it along a unified graph's reach graph
(`UnifiedGraph.reach_graph`), where the seeds are written as the source
and no edge enters the source, a seed or a node outside the reach, so
the search stops there with no masks.  It hands each live in-edge on
as the packed keys id * batch + trial of its two ends, which
`sampling._reverse_reach` sorts and searches as they are.
`_reach_count_batches`, the CLI's seed ranking, runs it along a plain
graph's reverse CSR and keeps only how often each node is found (each
key's floor quotient by the batch), which scores every node's singleton
influence at once.
`_reach_count_batches` and the sequential estimates size their batches
by one budget for a search's `n_total * trials` `seen` bitmap,
`_SEEN_BYTES`, and `sampling.PairSource` joins pair searches by the same
budget for bitmaps over the reach graph's ids.  All batched searches
expand their frontier through one CSR-slice helper and find the runs of
equal keys in a sorted array through one run-start helper (`_heads`,
which `domtree.dominators` shares), and each step compresses its
examined edges once, by index: coins are compared with every examined
edge's probability, and only the live edges' owners and heads are
gathered (and, in the lazy-coin loop, tested against the blocked mask of
a run that blocks any node).

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
that small however large the level: a one-set `spread_samples(..., 1024)`
batch on `fixtures.mid_synthetic(2000, 8000, 20)` peaks at 5.7 MB of
tracemalloc, not the 16.3 MB of whole levels.  On perfbench's `mid`, 2^15
and 2^16 gave back part of the peak-RSS gain, and 2^12 and 2^13 added
nothing to it.  What stays whole-level grows with a level's live edges,
not its examined ones: the per-level `_advance` and what a level yields,
and a search holds one level at a time (`_forward_levels`).  The LRR
member search (`sampling._reverse_reach`) draws no coins and only gathers
recorded live edges, so it joins its steps at once.  The `n_total * batch`
`seen` bitmap is then most of the peak on large graphs (51 of 62 MB on
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
cascades a batch at a time until a confidence interval on each set's mean
normalized spread is within a factor that depends on gamma.  The interval
is a betting confidence sequence (Waudby-Smith and Ramdas, JRSS-B 2023):
for each candidate mean m, a mixture of bets on the samples exceeding or
falling short of m is a test martingale when m is the true mean, a
nonnegative martingale from 1; by Ville's inequality it ever reaches
2/delta with probability at most delta/2, so the set of m where neither
side's capital has reached that level holds the mean at every batch at
once, with no union bound over batches and no separate range term.  The
upward bet's capital falls and the downward one's rises in m, so the set
is an interval whose ends are root searches, and each search returns the
rejected side of its bracket, so the computed interval holds the exact
one.  Because the sequence holds at every batch, batch sizes, and so the
number of checks, spend no delta: the first batch is `_FIRST_BATCH` (128)
trials, the second brings the count to 512, and each next one doubles from
1024 up to a cap taken from `_SEEN_BYTES` (`_batch_sizes`), so the checks
fall at 128, 512, 1536, 3584, ... trials.  Low-variance spreads close in
few cascades: on `mid_synthetic(300, 1200, 10)` graphs almost every
sandwich estimate closes at 128 trials, while on the benchmark's padded
graph the residuals need 512 or 1536.  Each value is the mean of its
samples clipped to the gamma contract of its interval, and samples of one
value wait until the clip leaves their mean as it is
(`_BettingStop.estimate`).  All sets read one stream of
shared batches, and a set that stops leaves the search.  Spreads are
normalized by the number of non-seed nodes the seeds can reach at all
rather than by the node count n, so nodes no cascade can reach do not
inflate the trial count.  `ic_spread_samples` and `stopping_rule_spread`
are the one-set calls of `spread_samples` and `stopping_rule_spreads`.
`stopping_rule_decrease` runs the same stop and value rule on the paired
per-trial decrease of one blocker set, up to a trial cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, ReachGraph, UnifiedGraph

# Trials per vectorized batch of the fixed-trial calls (`spread_samples`,
# the samplers) and the least cap of a sequential estimate's batches.
# Fixed so that results for a given seed do not depend on caller-visible
# knobs.
_BATCH = 1024

# A sequential estimate's first batch (see `_batch_sizes`).  On the 40
# `mid_synthetic(300, 1200, 10)` graphs of perfbench's `mid` cases at seeds
# 3 and 1234, every estimate of 39 sandwich evaluations closed at 128
# trials.  The next batch brings the count to 512, the first check before
# this one was added, so every earlier check stays one.
_FIRST_BATCH = 128

# Bytes of a search's `seen` bitmap (one per node and trial) that batches
# are sized by: `_reach_count_batches` draws max(_BATCH, _SEEN_BYTES // n)
# sets a batch, so its bitmap is this budget up to n = 1024 and n * 1024
# bytes above it (51 MB at 50k nodes, of which only the touched pages are
# resident), and a pair source joins two batches' searches only while
# theirs, over the reach graph's ids, fits.  Larger searches cost less per
# trial, but a 4 MB bitmap added 4-6 MB of peak RSS to a cold `imin run`.
_SEEN_BYTES = 1 << 20

# Most CSR entries one step of a lazy-coin search's level examines: 2^14
# int64s are 128 KiB, glibc's default mmap threshold (see the module
# docstring for the budgets measured).
_EDGE_BUDGET = 1 << 14

# Runs per forward search: one bit each of a uint8 per (node, trial) pair.
_MAX_RUNS = 8

# The bets of a stopping rule's capital (see `stopping_rule_spreads`): a
# geometric grid, each bet capped at _BET_CAP / m, so every factor of the
# capital stays at least 1 - _BET_CAP.
_BETS = 2.0 ** np.arange(-4, 11)
_BET_CAP = 0.9


def _log_shares(bets):
    """Row b: the log of each bet column's share of the mean over `bets`
    when b of them lie under the cap: 1 / len(bets) for each column under
    it, the rest on column b, the cap's, and none after it."""
    below = np.arange(len(bets) + 1)[:, None]
    col = np.arange(len(bets))
    share = np.where(col < below, 1.0, np.where(col == below,
                                                len(bets) - below, 0.0))
    with np.errstate(divide="ignore"):
        return np.log(share / len(bets))


_LOG_SHARE = _log_shares(_BETS)

# An interval end's root search (`_lower_ends`): its first trials, as
# multiples of an empirical-Bernstein guess of the radius; the share of the
# end's distance to the sample mean its bracket closes to; and a cap on its
# steps, after which it returns its bracket's rejected side as it stands.
_FIRST_TRIALS = (0.8, 1.0, 1.25)
_ROOT_TOL = 1e-4
_ROOT_STEPS = 100

# SplitMix64's stream increment and the multipliers of its output mix.
_SPLITMIX = tuple(np.uint64(c) for c in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


class Realization:
    """One live-edge sample of a unified graph.

    `live` is a boolean bitmap over edge ids of the unified graph; edges
    into blocked nodes are never live; `reachable_in_realization`
    traverses it.
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
        src = np.repeat(np.arange(ug.n_total, dtype=np.int64),
                        np.diff(ug.out_ptr))
        eid = dict(zip(zip(src.tolist(), ug.out_dst.tolist()),
                       range(ug.m_total)))
        if missing := wanted - eid.keys():
            raise ValueError(f"edges not present in graph: {sorted(missing)}")
        live = src == ug.s
        live[[eid[e] for e in wanted]] = True
        return cls(ug, live)


def reachable_in_realization(phi: Realization) -> np.ndarray:
    """Boolean mask of nodes with a live-edge path from the source."""
    return phi.ug.positive_reach(phi.blocked, live=phi.live)


def sample_realization(g: UnifiedGraph, blockers,
                       rng: np.random.Generator) -> Realization:
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


def ic_spread_samples(g: UnifiedGraph, blockers, trials: int,
                      rng: np.random.Generator) -> np.ndarray:
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
    _check_runs(len(masks), "distinct blocker sets")
    return np.stack(masks), row


def _check_runs(runs, what):
    """Raise ValueError unless 1 <= `runs` <= `_MAX_RUNS`, one bit each of
    a uint8: `what` names the runs in the message."""
    if not 1 <= runs <= _MAX_RUNS:
        raise ValueError(f"need 1 to {_MAX_RUNS} {what}, got {runs}")


def _batch_spreads(g, masks, batch, rng):
    """(runs, batch) spreads of one forward search, run r blocking
    `masks[r]`: each reached pair is counted per trial (its key modulo
    `batch`) and set of runs gained, and each run sums the sets that hold
    it.  The search's first level is every seed of every trial, and no
    later level holds a seed or the source: the source's only edges lead
    to the seeds (`graph._attach_source`), no edge enters it, and every
    run's mask holds the graph's own mask, which never holds a seed.  So
    that level is skipped, and the rest are counted whole."""
    runs = len(masks)
    offset = np.arange(1 << runs, dtype=np.int64) * batch
    tally = np.zeros(batch << runs, dtype=np.int64)   # per set and trial
    levels = _forward_levels(g, masks, batch, rng)
    next(levels)                        # the seeds, which are not counted
    for *_, key, bits in levels:
        trial = key - key // batch * batch
        tally += np.bincount(offset[bits] + trial, minlength=tally.size)
        del _, key, bits, trial             # one level at a time
    holds = np.unpackbits(np.arange(1 << runs, dtype=np.uint8)[None],
                          axis=0, count=runs, bitorder="little")
    return holds @ tally.reshape(1 << runs, batch)


def _batch_sizes(g, runs):
    """The trials of each batch of a sequential estimate of `runs` sets:
    `_FIRST_BATCH`, then what brings the count to 4 * `_FIRST_BATCH`, then
    twice that and doubling, up to max(_BATCH, _SEEN_BYTES // width), width
    the larger per-trial cost of a batch, its `seen` bitmap's `g.n_total`
    bytes or `_batch_spreads`' 8 << runs bytes of counts.  So neither grows
    past the larger of one `_BATCH` batch's and `_SEEN_BYTES`, as
    `_reach_count_batches` sizes its batches.  The checks fall at 128, 512,
    1536, 3584, ... trials below the cap."""
    cap = max(_BATCH, _SEEN_BYTES // max(g.n_total, 8 << runs))
    yield _FIRST_BATCH
    size = 4 * _FIRST_BATCH
    yield size - _FIRST_BATCH
    while True:
        size = min(2 * size, cap)
        yield size


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
    batch * n.  Duplicates go by one in-place sort of the unseen keys and a
    mask of run starts, so no index array or sorted copy is made:
    np.unique's hash table is slower on these keys.
    """
    key = key[~seen[key]]           # a copy, so sorted in place
    key.sort()
    key = key[_heads(key)]
    seen[key] = True
    return key


def _heads(sorted_ids):
    """Mask of the positions where a run of equal values starts in
    `sorted_ids`."""
    head = np.ones(len(sorted_ids), dtype=bool)
    head[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return head


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
    hit = gain != 0
    # each key packs its gain into its low byte, so one sort groups both
    packed = key[hit] << 8
    packed |= gain[hit]
    packed.sort()
    key = packed >> 8
    head = np.flatnonzero(_heads(key))
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


def _forward_levels(g, blocked, batch, rng, live=None, start=None):
    """Breadth-first search over `batch` independent realizations at once,
    trial t's from `start[t]` (by default every trial's from the source),
    level by level, for one run or several.  It follows the forward CSR
    of `g` (`out_ptr`, `out_dst`, `out_p`, over `g.n_total` nodes): a
    unified graph's, or a reverse CSR read as one (`_Reversed`), so the
    same loop searches against the edges.

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
    draws).  A run that blocks no node, as a reverse search's does, keeps
    every live edge without testing its head.

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
    then draws no key.  Yields, per level, (owner, head, key, bits):
    owner and head of the live edges that pass on at least one bit, owner
    indexing the level's pairs in ascending order and head the key
    dst * batch + trial of the pair the edge enters; then the sorted keys
    node * batch + trial of the pairs that gain bits, and the bits each
    gains.  The first level expands the start pairs in trial order, which
    are not yielded; each later level expands the pairs the level before
    it yielded, split into nodes and trials once, here.  A resumed run's
    first level yields the held pairs it gains, with no edges.  From the
    source of a unified graph, the first level yielded is every seed of
    every trial with every run's bit (as long as no mask holds a seed),
    and no later level holds a seed or the source.

    The loop holds one level at a time: of the level it expands it keeps
    only the trials and bits once the CSR slices are taken, and none of
    the edges it yielded.  A consumer that keeps nothing of a level
    releases the level's arrays before it asks for the next
    (`_batch_spreads`, `_reach_count_batches`,
    `UnifiedGraph.positive_reach`), so a batch peaks at its `seen`, the
    level being built and the trials of the level before.
    """
    blocked = np.atleast_2d(blocked)
    runs = len(blocked)
    order = np.arange(1) if runs == 1 else _nested_order(blocked)
    nested = order is not None
    key = np.arange(batch, dtype=np.int64)      # the start pairs' keys
    key += (g.s if start is None else start) * batch
    seen = np.zeros(g.n_total * batch, dtype=bool if nested else np.uint8)
    seen[key] = (1 << runs) - 1     # True in a bool seen
    if nested:
        # per run, most blocked first: the nodes it may enter, and the bits
        # its new pairs gain (its own and every less-blocked run's), as one
        # uint8 to repeat per pair
        stages = [(~blocked[r],
                   np.uint8([np.bitwise_or.reduce(1 << order[i:])]))
                  for i, r in enumerate(order)]
        held = [np.zeros(0, dtype=np.int64)]
    else:
        allow = np.packbits(~blocked, axis=0, bitorder="little")[0]
        stream = None if live is not None else rng.integers(
            2 ** 64, dtype=np.uint64)
        bits = np.full(batch, (1 << runs) - 1, dtype=np.uint8)
        stages = [(None, None)]
    for stage, (free, gained) in enumerate(stages):
        sieve = nested and not free.all()   # the run blocks some node
        if stage:
            held = np.concatenate(held)
            resume = free[held // batch]
            key = _advance(seen, held[resume])
            held = [held[~resume]]
            yield (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   key, gained.repeat(len(key)))
        while len(key):
            node = key // batch
            trial = key - node * batch
            steps = _slices(g.out_ptr[node], g.out_ptr[node + 1])
            del node, key                   # the level is its trials now
            owners, heads, gains = [], [], []
            for eids, owner in steps:
                if live is not None:
                    hit = live[eids]
                elif nested:
                    hit = rng.random(len(eids)) < g.out_p[eids]
                else:
                    hit = (_replayed_coins(stream, eids * batch + trial[owner])
                           < g.out_p[eids])
                hit = np.flatnonzero(hit)
                owner, dst = owner[hit], g.out_dst[eids[hit]]
                if sieve:
                    enter = free[dst]
                    if stage + 1 < len(stages):
                        stop = np.flatnonzero(~enter)
                        held.append(dst[stop] * batch + trial[owner[stop]])
                    hit = np.flatnonzero(enter)
                    owner, dst = owner[hit], dst[hit]
                elif not nested:
                    # the runs each live edge passes on: its tail's, less
                    # those that block its head
                    gain = bits[owner] & allow[dst]
                    hit = np.flatnonzero(gain)
                    gains.append(gain[hit])
                    owner, dst = owner[hit], dst[hit]
                owners.append(owner)
                heads.append(dst * batch + trial[owner])
            head = _joined(heads)
            if nested:
                key = _advance(seen, head)
                bits = gained.repeat(len(key))
            else:
                key, bits = _advance_bits(seen, head, _joined(gains))
            yield _joined(owners), head, key, bits
            del head


class _Reversed:
    """The reverse CSR of `g` (a plain `Graph` or a `ReachGraph`) read as
    the forward CSR that `_forward_levels` follows: each node's edges lead
    to its in-neighbours, so a search from a node finds what reaches it."""

    def __init__(self, g):
        self.n_total, self.out_ptr = g.n, g.in_ptr
        self.out_dst, self.out_p = g.in_src, g.in_p


def reverse_live_edges(rg: ReachGraph, targets, rng: np.random.Generator):
    """Live in-edges of the nodes that reach trial t's target, one
    independent realization per trial t, one trial per entry of `targets`,
    all as ids of the reach graph `rg` (`UnifiedGraph.reach_graph`).

    The search is `_forward_levels` from the targets along the reversed
    reach graph, with no node blocked, drawing its coins from `rng`.  It
    enters only the reach and stops at the source, which stands for the
    seeds.  Returns (tail, head) of every live in-edge of a found pair,
    each end as its pair's key id * batch + trial, batch = len(targets):
    the in-neighbour's key, then the found pair's, so both keys of an edge
    share their trial.  An edge from the source marks where a seed feeds
    the found pairs.  A level's edges lead from its yielded heads back to
    the pairs it expanded, the start pairs or the level before's, whose
    keys the loop gave as they are, so nothing is split or packed here.
    """
    start = np.asarray(targets, dtype=np.int64)
    batch, tails, heads = len(start), [], []
    key = start * batch + np.arange(batch, dtype=np.int64)
    for owner, head, new, _ in _forward_levels(
            _Reversed(rg), np.zeros(rg.n, dtype=bool), batch, rng,
            start=start):
        tails.append(head)          # searched against the edges: the
        heads.append(key[owner])    # in-neighbour entered is the tail
        key = new
    return np.concatenate(tails), np.concatenate(heads)


def _reach_count_batches(g: Graph, counts: np.ndarray, samples: int,
                         rng: np.random.Generator):
    """Add to `counts`, in place, the nodes of `samples` reverse-reachable
    sets of `g`, yielding the sets drawn so far after each batch, so a
    caller may stop between batches.

    Each set is the nodes that reach a uniform random target over live
    edges, target included, so n * count[v] / samples estimates the
    expected spread of the seed set {v}, v itself counted (Borgs et al.,
    SODA 2014).

    Each batch is one `_forward_levels` search from its targets along the
    reversed graph, with no node blocked and lazy coins.  Batches hold
    `max(_BATCH, _SEEN_BYTES // n)` sets, so a batch's `n * batch` byte
    `seen` bitmap is `_SEEN_BYTES` up to n = 1024 and n * 1024 bytes above
    it (51 MB at 50k nodes), of which only the pages the search touches
    become resident; one batch's search, its bitmap with it, ends before
    the next begins.  The targets are counted once, then each level adds
    its new nodes to the per-node count; the sets are not kept.
    """
    size = max(_BATCH, _SEEN_BYTES // g.n)
    for done in range(0, samples, size):
        targets = rng.integers(0, g.n, size=min(size, samples - done))
        np.add.at(counts, targets, 1)
        for *_, key, _ in _forward_levels(
                _Reversed(g), np.zeros(g.n, dtype=bool), len(targets), rng,
                start=targets):
            np.add.at(counts, key // len(targets), 1)
            del key, _                      # one level at a time
        yield done + len(targets)


@dataclass
class SpreadEstimate:
    """A spread estimate with its accuracy contract.

    With probability at least 1 - delta the value lies within a factor
    (1 +/- gamma) of the true expected non-seed spread: it is the samples'
    mean clipped to the values within that factor of every point of
    [`low`, `high`], the confidence interval it stopped on, in spread units.
    `exact_zero` is set when the graph structure forces a spread of exactly
    zero; no cascade is drawn in that case, so `samples_used` is 0 and the
    interval is (0, 0).  A `stopping_rule_decrease` estimate is of a decrease,
    and one that reaches its trial cap first holds only its interval.
    """

    value: float
    gamma: float
    delta: float
    samples_used: int
    exact_zero: bool = False
    low: float = 0.0
    high: float = 0.0


class _BettingStop:
    """One set's stopping state (see `stopping_rule_spreads`): its spreads
    as a histogram over 0..N_B, and its running interval on the mean
    normalized spread."""

    def __init__(self, n_reach):
        self.n_reach = n_reach
        self.counts = np.zeros(n_reach + 1, dtype=np.int64)
        self.samples = 0
        self.low, self.high = 0.0, 1.0

    def add(self, spreads):
        self.counts += np.bincount(spreads, minlength=self.n_reach + 1)
        self.samples += len(spreads)

    def estimate(self, gamma, delta, final=False):
        """The estimate once the interval is within the gamma contract, or
        at a trial cap (`final`), else None: the samples' mean clipped to
        the values within a factor (1 +/- gamma) of every point of the
        interval, or at a cap, to the interval alone.  Samples of one value,
        as a spread that the graph fixes gives, stop before a cap only once
        that value needs no clip: each batch's confidence set holds the
        mean, so the interval narrows around it until it does, and a
        constant spread comes out exact."""
        low, high = self.low, self.high
        if (1.0 + gamma) * low >= (1.0 - gamma) * high:
            low, high = (max(low, (1.0 - gamma) * high),
                         min(high, (1.0 + gamma) * low))
        elif not final:
            return None
        n = self.n_reach
        mean = self.counts @ np.arange(n + 1) / self.samples
        value = min(max(mean, low * n), high * n)
        if value != mean and not final and np.count_nonzero(self.counts) == 1:
            return None
        return SpreadEstimate(value=value,
                              gamma=gamma, delta=delta,
                              samples_used=self.samples, low=self.low * n,
                              high=self.high * n)


def _check_contract(gamma, delta, cap=1):
    """Raise ValueError unless gamma and delta lie in (0, 1) and cap >= 1."""
    for name, value in (("gamma", gamma), ("delta", delta)):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1)")
    if cap < 1:
        raise ValueError("cap must be >= 1")


def _tighten(rules, delta):
    """Intersect each rule's interval with its betting confidence set
    {m : K+(m) < 2/delta and K-(m) < 2/delta}, every rule at once.

    K-(m) of spreads x is K+(1 - m) of 1 - x, so each upper end is the
    lower end of a mirrored row, and one `_lower_ends` call finds all ends.
    """
    values = [np.flatnonzero(rule.counts) for rule in rules]
    sets = len(rules)
    x = np.zeros((2 * sets, max(map(len, values))))
    w = np.zeros_like(x)
    for i, (rule, v) in enumerate(zip(rules, values)):
        x[i, :len(v)] = v / rule.n_reach
        x[sets + i, :len(v)] = 1.0 - x[i, :len(v)]
        w[i, :len(v)] = w[sets + i, :len(v)] = rule.counts[v]
    floor = np.array([r.low for r in rules] + [1.0 - r.high for r in rules])
    ends = _lower_ends(x, w, floor, math.log(2.0 / delta))
    for i, rule in enumerate(rules):
        rule.low, rule.high = ends[i], 1.0 - ends[sets + i]


def _log_capital(x, w, total, m):
    """log K+(m), one row of values `x` with counts `w` per entry of `m`:
    the log of the mean over `_BETS` of prod_i (1 + lam (x_i - m))^w_i,
    lam = min(bet, _BET_CAP / m).  Padding has count 0.  The bets at the
    cap are one column, weighted by how many bets it stands for, and each
    factor is taken as lam (x_i + 1 / lam - m), one pass over the values
    per column."""
    cap = _BET_CAP / np.maximum(m, 1e-300)
    below = np.searchsorted(_BETS, cap)            # bets under each cap
    cols = min(len(_BETS), int(below.max()) + 1)
    lam = np.minimum(_BETS[:cols], cap[:, None])
    z = x[:, None, :] + (1.0 / lam - m[:, None])[:, :, None]
    np.log(z, out=z)
    log_k = (z @ w[:, :, None])[:, :, 0] + np.log(lam) * total[:, None]
    return np.logaddexp.reduce(log_k + _LOG_SHARE[below, :cols], axis=1)


def _lower_ends(x, w, floor, thr):
    """Per row of values `x` in [0, 1] with counts `w`: max(floor, L),
    L = inf {m : log K+(m) < thr}, rounded down to a rejected point.

    K+ falls in m, and K+(mean) <= 1 (log(1 + y) <= y), so L lies below
    the sample mean, and a floor at or above the mean stays.  Each row
    keeps a bracket: `a`, the highest point rejected (log K+ >= thr), or
    the floor until one is, and `b`, the lowest accepted, from the mean.
    The first trials are `_FIRST_TRIALS` times an empirical-Bernstein
    guess of the radius below the mean; each next trial is an inverse
    quadratic interpolation of distance against log K+ through a row's
    three best trials, or the bracket's midpoint if it falls outside.  An
    estimate within 30 tolerances of an end is tried at 0.3 tolerances on
    either side, which closes the bracket when the estimate is that close.
    A row ends once b - a is within `_ROOT_TOL` of its distance b to the
    mean and returns a: the computed end is at or below the exact one, so
    the interval holds the exact confidence set.  Every step evaluates the
    trials of all rows in one `_log_capital` call; the few rows' brackets
    are kept in plain floats.
    """
    total = w.sum(axis=1)
    mean = (x * w).sum(axis=1) / total
    var = np.maximum((x * x * w).sum(axis=1) / total - mean * mean, 0.0)
    guess = np.sqrt(2.0 * var * (thr + 1.0) / total) + 1.0 / total
    ends = floor.tolist()
    mean = mean.tolist()
    # open row -> [a, b, (distance below the mean, log K+ - thr) of its
    # best three trials]
    search = {i: [lo, mu, []] for i, (lo, mu) in enumerate(zip(ends, mean))
              if lo < mu}
    trials = [(i, max(mean[i] - f * r, ends[i]))
              for i, r in zip(search, guess[list(search)].tolist())
              for f in _FIRST_TRIALS]
    for _ in range(_ROOT_STEPS):
        if not trials:
            break
        rows = [i for i, _ in trials]
        values = _log_capital(x[rows], w[rows], total[rows],
                              np.array([m for _, m in trials])) - thr
        for (i, m), v in zip(trials, values.tolist()):
            bracket = search[i]
            if v >= 0.0:
                bracket[0] = max(bracket[0], m)
            else:
                bracket[1] = min(bracket[1], m)
            bracket[2].append((mean[i] - m, v))
        trials = []
        for i, (a, b, points) in list(search.items()):
            tol = _ROOT_TOL * (mean[i] - b)
            if b - a <= tol:
                ends[i] = a
                del search[i]
                continue
            points.sort(key=lambda point: abs(point[1]))
            del points[3:]
            est = mean[i] - _interpolate(points)
            step = 0.3 * tol
            if not a - step < est < b + step:
                trials.append((i, 0.5 * (a + b)))
                continue
            est = min(max(est, a), b)
            if min(est - a, b - est) < 100.0 * step:
                trials += [(i, max(est - step, a)), (i, min(est + step, b))]
            else:
                trials.append((i, est))
    for i, (a, _, _) in search.items():
        ends[i] = a
    return np.array(ends)


def _interpolate(points):
    """The distance at value 0 of the quadratic through three (distance,
    value) points, as a function of the value; NaN if two values tie."""
    (d0, v0), (d1, v1), (d2, v2) = points
    try:
        return (d0 * v1 * v2 / ((v0 - v1) * (v0 - v2))
                + d1 * v0 * v2 / ((v1 - v0) * (v1 - v2))
                + d2 * v0 * v1 / ((v2 - v0) * (v2 - v1)))
    except ZeroDivisionError:
        return math.nan


def stopping_rule_spreads(g: UnifiedGraph, blocker_sets, gamma: float,
                          delta: float, rng: np.random.Generator) -> list:
    """(gamma, delta)-estimates of the expected non-seed spread of each
    blocker set, all drawn from one stream of shared realizations.

    Each set's cascades are normalized by N_B, the number of non-seed
    nodes reachable from the seeds over positive-probability edges that
    avoid the blocked nodes.  Every activated non-seed node lies in that
    set, so the samples x_i lie in [0, 1]; the trial count follows the part
    of the graph the cascade can reach, not the node count n.

    Each set stops on a betting confidence sequence (Waudby-Smith and
    Ramdas, "Estimating means of bounded random variables by betting",
    JRSS-B 2023).  For a candidate mean m, the capital

        K+(m) = mean over bets of prod_i (1 + lam (x_i - m)),
        lam = min(bet, c / m),

    bets on a fixed geometric grid `_BETS` and c = `_BET_CAP` < 1, has
    every factor at least 1 - c > 0; at the true mean each factor has
    expectation 1, so each product, and their mean, is a nonnegative
    martingale from 1 (a test martingale).  Ville's inequality bounds the
    chance that it ever reaches 2 / delta by delta / 2, at every sample
    count at once, so no union bound over batches is spent.  K-(m) bets
    the other way, with lam = min(bet, c / (1 - m)).  With probability at
    least 1 - delta the true mean lies in

        C_t = {m : K+(m) < 2 / delta and K-(m) < 2 / delta}

    after every batch, and so in the running intersection [LB, UB] of the
    C_t, from [0, 1].  K+ falls and K- rises in m (each factor moves one
    way, the cap included), so C_t is an interval and each end is one
    bracketed root search over the histogram's distinct values; the
    search returns the rejected side of its bracket (`_lower_ends`), so
    the computed interval always holds C_t.  A set stops once (1 + gamma)
    LB >= (1 - gamma) UB, and N_B times the samples' mean, clipped to the
    values within (1 +/- gamma) of every point of [LB, UB], is then within
    (1 +/- gamma) of the mean (`_BettingStop.estimate`); samples of one
    value stop only once their mean is among those values, so a constant
    spread comes out exact.  Each set keeps its spreads
    as a histogram over 0..N_B, so a batch costs its distinct values, and
    the ends of all sets still sampling are searched together.  The trial
    count scales with the samples' variance rather than with the worst
    case of a [0, 1] variable.  Since the sequence holds at every batch,
    the batch sizes spend no delta: the first batch is `_FIRST_BATCH`
    trials, the second brings the count to 512, and each next one doubles
    from 1024, up to a cap that keeps a batch's memory within `_SEEN_BYTES`
    (`_batch_sizes`), so a set stops after a prefix sum of that schedule:
    128, 512, 1536, 3584, ... trials.  N_B = 0 forces a spread of exactly
    zero, which is returned without sampling.

    Every batch is one forward search with one run per set still
    sampling; a set that stops leaves the search, and its estimate is what
    it had then.  As in `_forward_levels`, a batch whose sets still
    sampling nest (one set alone always does) resumes one search with
    coins from `rng`, and a batch of sets that do not nest carries run
    bits and replays its coins; either way a batch is independent of the
    batches before it, so each set's contract holds whichever sets still
    sample.  Equal sets share one run and one estimate object.
    """
    _check_contract(gamma, delta)
    masks, row = _distinct_masks(g, blocker_sets)
    rules = [_BettingStop(int(np.count_nonzero(r & ~g.uncounted)))
             for r in g.positive_reach(masks)]
    est = [None if rule.n_reach else SpreadEstimate(
        value=0.0, gamma=gamma, delta=delta, samples_used=0, exact_zero=True)
        for rule in rules]
    active = [r for r, e in enumerate(est) if e is None]
    sizes = _batch_sizes(g, len(active))
    while active:
        spreads = _batch_spreads(g, masks[active], next(sizes), rng)
        for r, row_spreads in zip(active, spreads):
            rules[r].add(row_spreads)
        _tighten([rules[r] for r in active], delta)
        for r in active:
            est[r] = rules[r].estimate(gamma, delta)
        active = [r for r in active if est[r] is None]
    return [est[r] for r in row]


def stopping_rule_spread(g: UnifiedGraph, blockers, gamma: float,
                         delta: float,
                         rng: np.random.Generator) -> SpreadEstimate:
    """(gamma, delta)-estimate of the expected non-seed spread of
    `blockers`: the one-set call of `stopping_rule_spreads`."""
    return stopping_rule_spreads(g, [blockers], gamma, delta, rng)[0]


def stopping_rule_decrease(g: UnifiedGraph, blockers, gamma: float,
                           delta: float, rng: np.random.Generator,
                           cap: int) -> SpreadEstimate:
    """(gamma, delta)-estimate of the expected decrease sigma(none) -
    sigma(blockers), from at most `cap` paired cascades.

    Each trial runs the base and the blocked cascade on one realization
    (one resumed search per batch, as `spread_samples` pairs nested sets),
    and its decrease D_t = base_t - residual_t takes the place of one
    set's spread in `stopping_rule_spreads`: the blocked cascade reaches a
    subset of the base one, so D_t is an integer in [0, N], N the non-seed
    nodes the seeds can reach at all.  D_t / N stops on the same betting
    confidence sequence, batch schedule (`_batch_sizes`) and value rule
    (`_BettingStop.estimate`).  A run that reaches `cap` trials before its
    interval closes clips the mean to the interval alone, which still holds
    the decrease with probability at least 1 - delta.  When no blocker lies
    in `g.reach`, no cascade can differ, and the decrease is exactly zero,
    with no cascade drawn.
    """
    _check_contract(gamma, delta, cap)
    blocked = g.blocked_with(blockers)
    if not (blocked & g.reach).any():
        return SpreadEstimate(value=0.0, gamma=gamma, delta=delta,
                              samples_used=0, exact_zero=True)
    masks = np.stack([g.blocked, blocked])
    rule = _BettingStop(int(np.count_nonzero(g.reach & ~g.uncounted)))
    for size in _batch_sizes(g, len(masks)):
        size = min(size, cap - rule.samples)
        base, residual = _batch_spreads(g, masks, size, rng)
        rule.add(base - residual)
        _tighten([rule], delta)
        est = rule.estimate(gamma, delta, final=rule.samples == cap)
        if est is not None:
            return est
