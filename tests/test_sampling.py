import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imin import fixtures
from imin.diffusion import reachable_in_realization, sample_realization
from imin.graph import Graph, block_nodes, unify_seeds
from imin.oracle import ExactModel
from imin.diffusion import _BATCH, _forward_levels
from imin import sampling
from imin.optimize import AlgoParams
from imin.sampling import (ChainCollection, CPCollection, LRRCollection,
                           PairSource, _cp_batch, _pair_batch, _pair_search,
                           _sequence_entries, compute_population, coverage)
from imin.sandwich import sand_imin

from conftest import (certain_edges, collection_of, eager_entries,
                      eager_sets, live_successors, make_rng, padded_twin,
                      per_sequence_coverage, random_flowgraph,
                      realization_successors, recorded, reference_chains,
                      split_chains, split_sets, tiny_with_dead_edges)


def one_sequence(ug, rng):
    """The common-path sets of one sampled realization: {node: frozenset
    of its chain}, read from a one-sequence collection."""
    coll = CPCollection(ug, rng)
    coll.extend(1)
    return {int(s[0]): frozenset(s.tolist()) for s in coll.sets()}


def one_lrr_set(ug, population, rng):
    """One sampled LRR set: its members, target first, or an empty array
    where the target was not reached."""
    coll = LRRCollection(ug, rng, population=population)
    coll.extend(1)
    return coll.sets()[0]


def cp_sets_by_path_enumeration(ug, phi):
    """Common-path sets via explicit all-paths enumeration (test oracle)."""
    srcs = np.repeat(np.arange(ug.n_total, dtype=np.int64),
                     np.diff(ug.out_ptr))
    adj = {}
    for eid in np.nonzero(phi.live)[0]:
        adj.setdefault(int(srcs[eid]), []).append(int(ug.out_dst[eid]))

    paths_to = {}

    def all_paths(v):
        # simple paths from the source to v over live edges
        out = []
        stack = [(ug.s, {ug.s}, ())]
        while stack:
            u, seen, trail = stack.pop()
            if u == v:
                out.append(trail)
                continue
            for w in adj.get(u, ()):
                if w not in seen:
                    stack.append((w, seen | {w}, trail + (w,)))
        return out

    gate = set(ug.seeds) | {ug.s}
    result = {}
    for v in range(ug.base.n):
        if v in ug.seeds:
            continue
        paths = all_paths(v)
        if not paths:
            continue
        common = set(paths[0])
        for p in paths[1:]:
            common &= set(p)
        result[v] = frozenset(common - gate)
    return result


def worked_collection():
    """A one-sequence collection holding the fixed worked-example draw."""
    ug = fixtures.worked_example_small()
    phi = fixtures.worked_example_small_realization(ug)
    (chains,) = split_chains(*eager_entries(ug, phi)[1:])
    return ug, collection_of(CPCollection, ug, chains)


class TestLocalSampling:
    def test_worked_example_sets(self):
        ug = fixtures.worked_example_small()
        phi = fixtures.worked_example_small_realization(ug)
        got = eager_sets(ug, phi)
        assert got == {1: frozenset({1}), 2: frozenset({2}),
                       3: frozenset({3}), 5: frozenset({3, 5}),
                       6: frozenset({3, 6})}

    def test_chain_single_path(self):
        sets = one_sequence(fixtures.chain(), make_rng(0))
        assert sets == {1: frozenset({1}), 2: frozenset({1, 2})}

    def test_unreached_source_gives_empty_sequence(self):
        g = unify_seeds(Graph.from_edges(2, [0], [1], [0.0]), {0})
        assert one_sequence(g, make_rng(0)) == {}

    def test_matches_path_enumeration(self):
        for trial in range(40):
            ug = fixtures.random_tiny(make_rng(trial), 8, 10)
            phi = sample_realization(ug, None, make_rng(4000 + trial))
            got = eager_sets(ug, phi)
            want = cp_sets_by_path_enumeration(ug, phi)
            assert got == want
            gate = set(ug.seeds) | {ug.s}
            for v, members in got.items():
                assert v in members
                assert not members & gate


class TestComputePopulation:
    def test_worked_example_all_reachable(self):
        assert compute_population(fixtures.worked_example_small()) \
            == [1, 2, 3, 4, 5, 6]

    def test_chain(self):
        assert compute_population(fixtures.chain()) == [1, 2]

    def test_seed_without_positive_edges(self):
        g = unify_seeds(Graph.from_edges(2, [0], [1], [0.0]), {0})
        assert compute_population(g) == []

    def test_zero_probability_branch_excluded(self):
        g = unify_seeds(
            Graph.from_edges(4, [0, 0, 1], [1, 2, 3], [0.5, 0.0, 1.0]), {0})
        assert compute_population(g) == [1, 3]


class TestGlobalSampling:
    def test_three_seed_target_members(self):
        ug = fixtures.worked_example_three_seeds()
        pop = compute_population(ug)
        v8 = 7  # label v8
        rng = make_rng(1)
        for _ in range(200):
            members = one_lrr_set(ug, pop, rng).tolist()
            if members[:1] == [v8]:
                assert {7, 6} <= set(members)  # v8 and v7
                assert set(members) == {7, 6, 11}  # plus v12
                break
        else:
            pytest.fail("target v8 never drawn")

    def test_chain_target_b(self):
        ug = fixtures.chain()
        rng = make_rng(2)
        for _ in range(50):
            members = one_lrr_set(ug, [1, 2], rng).tolist()
            if members[:1] == [2]:
                assert set(members) == {1, 2}
                return
        pytest.fail("target never drawn")

    def test_unreached_target_empty_but_counted(self):
        g = unify_seeds(Graph.from_edges(3, [0, 0], [1, 2], [0.05, 1.0]),
                        {0})
        coll = LRRCollection(g, make_rng(3))
        coll.extend(300)
        assert coll.n_empty > 0
        assert coll.n_samples == 300

    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6))
    def test_unreachable_targets_give_empty_samples(self, seed):
        # Blocked targets of a block_nodes view and targets outside the
        # reach lie outside the reach graph: no edge enters them, so their
        # LRR sets and chains are empty, as for a certain edge from a seed
        # into a blocked node below.
        ug = random_flowgraph(seed)
        fixed = block_nodes(unify_seeds(
            Graph.from_edges(4, [0, 1, 0], [1, 2, 3], [1.0, 1.0, 0.0]),
            {0}), [1])
        for g in (ug, fixed):
            targets = np.flatnonzero(~g.reach)
            if not len(targets):
                continue
            for part in (1, 2):
                for _, members in split_sets(_pair_search(
                        g, targets, 2 * len(targets), make_rng(seed)),
                        part=part):
                    assert len(members) == 0

    def test_empty_population_rejected(self):
        g = unify_seeds(Graph.from_edges(2, [0], [1], [0.0]), {0})
        with pytest.raises(ValueError, match="influence no one"):
            one_lrr_set(g, compute_population(g), make_rng(0))

    def test_members_exclude_seeds_and_contain_target(self):
        for trial in range(20):
            ug = fixtures.random_tiny(make_rng(trial), 8, 10)
            pop = compute_population(ug)
            if not pop:
                continue
            members = one_lrr_set(ug, pop, make_rng(5000 + trial)).tolist()
            assert not set(members) & ug.seeds
            if members:
                assert members[0] in pop


def lrr_members_by_forward_reach(ug, phi, target):
    """The LRR definition read literally (test oracle): the forward reach
    mask of the realization, then the target's reverse search inside the
    reached non-seed nodes.  None when the target is unreached."""
    reach = reachable_in_realization(phi)
    if not reach[target]:
        return None
    inside = reach & ~ug.uncounted
    base = ug.base      # non-seeds keep their base in-edges and edge ids
    found = {target}
    stack = [target]
    while stack:
        v = stack.pop()
        for off in range(base.in_ptr[v], base.in_ptr[v + 1]):
            u = int(base.in_src[off])
            if phi.live[base.in_eid[off]] and inside[u] and u not in found:
                found.add(u)
                stack.append(u)
    return found


def deterministic(seed):
    """`certain_edges(seed)` with its blockers applied, and its one eager
    realization."""
    ug = block_nodes(*certain_edges(seed))
    return ug, sample_realization(ug, None, make_rng(0))


class TestDeterministicSamples:
    """Batched samples against the eager definitions on 0/1 graphs."""

    @settings(derandomize=True, max_examples=80, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6))
    def test_lrr_members_match_forward_reach(self, seed):
        ug, phi = deterministic(seed)
        non_seeds = [v for v in range(ug.base.n) if v not in ug.seeds]
        rng = make_rng(seed)
        for target in non_seeds:
            want = lrr_members_by_forward_reach(ug, phi, target)
            for got_target, members in split_sets(_pair_batch(
                    ug, np.asarray([target]), 3, rng)):
                assert got_target == target
                if want is None:
                    assert len(members) == 0
                    continue
                assert members[0] == target
                assert len(members) == len(set(members.tolist()))
                assert set(members.tolist()) == want
        # Mixed targets in one batch.
        for target, members in split_sets(_pair_batch(
                ug, np.asarray(non_seeds), 40, rng)):
            want = lrr_members_by_forward_reach(ug, phi, target)
            assert (set(members.tolist()) or None) == want

    @settings(derandomize=True, max_examples=80, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6))
    def test_cp_entries_match_eager_realization(self, seed):
        ug, phi = deterministic(seed)
        want = reference_chains(ug, realization_successors(phi))
        assert list(split_chains(*eager_entries(ug, phi)[1:])) == [want]
        for batch in _cp_batch(ug, 5, make_rng(seed)):
            assert list(split_chains(*batch[1:])) == [want] * 5


class TestChainSamples:
    """Dominator chains from the member search (`_pair_batch`)."""

    @settings(derandomize=True, max_examples=80, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6))
    def test_chains_match_cp_sets_on_certain_edges(self, seed):
        ug, phi = deterministic(seed)
        want = eager_sets(ug, phi)
        non_seeds = [v for v in range(ug.base.n) if v not in ug.seeds]
        for target, chain in split_sets(_pair_batch(
                ug, np.asarray(non_seeds), 40, make_rng(seed)), part=2):
            if target not in want:
                assert len(chain) == 0
                continue
            assert chain[0] == target
            assert len(chain) == len(want[target])
            assert set(chain.tolist()) == want[target]

    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 7, _BATCH + 5]))
    def test_chains_are_root_paths_of_the_reverse_edges(self, seed, batch):
        # Each chain is its target's root path in the reference dominator
        # tree of the live in-edges the reverse search recorded, a seed's
        # edges leaving the source, and lies in the LRR set drawn from the
        # same search; a search past `_BATCH` pairs is cut into batches.
        ug = random_flowgraph(seed)
        pop = np.asarray(compute_population(ug))
        if not len(pop):
            return
        edges = []
        search = sampling.reverse_live_edges

        def recording(*args):
            edges.append(search(*args))
            return edges[-1]

        try:
            sampling.reverse_live_edges = recording
            pairs = _pair_search(ug, pop, batch, make_rng(seed))
        finally:
            sampling.reverse_live_edges = search
        assert [len(targets) for targets, *_ in pairs] == [
            min(_BATCH, batch - done) for done in range(0, batch, _BATCH)]
        live = [{} for _ in range(batch)]
        # keys of reach ids, split and mapped back to nodes
        (src, trial), (dst, _) = (np.divmod(k, batch) for k in edges[0])
        node = ug.reach_graph.node
        for t, u, v in zip(*(a.tolist() for a in (trial, node[src],
                                                  node[dst]))):
            live[t].setdefault(ug.s if ug.uncounted[u] else u, []).append(v)
        for t, ((target, members), (_, chain)) in enumerate(zip(
                split_sets(pairs), split_sets(pairs, part=2))):
            chain = chain.tolist()
            want = {c[0]: c for c in reference_chains(ug, live[t].get)}
            assert chain == want.get(target, [])
            assert set(chain) <= set(members.tolist())

    # Within 3 sigma over a fixed example stream from one numpy Generator,
    # as `TestSharedRealizations.test_rows_against_exact_model` does:
    # hypothesis mixes constants it finds in the package's source into its
    # draws, so under `@given` the examples moved with edits to the package.
    def test_scaled_coverage_estimates_lower_bound(self):
        for seed in make_rng(20240521).integers(0, 10 ** 6, size=40).tolist():
            self.check_scaled_coverage(seed)

    def check_scaled_coverage(self, seed):
        # Zero-probability edges, nodes blocked before sampling and a
        # random blocker set among the rest; within 3 sigma of the exact
        # lower bound, sigma from the exact hit probability.
        ug, pre = tiny_with_dead_edges(seed)
        ug = block_nodes(ug, pre)
        rng = make_rng(seed)
        cands = np.flatnonzero(ug.candidates()).tolist()
        size = int(rng.integers(1, 3)) if cands else 0
        blockers = rng.choice(cands, size=min(size, len(cands)),
                              replace=False).tolist()
        want = ExactModel(ug).lower_bound(blockers)
        pop = compute_population(ug)
        if not pop:     # the seeds reach nobody
            assert want == 0.0
            with pytest.raises(ValueError, match="influence no one"):
                ChainCollection(ug, rng)
            return
        n = 4000
        coll = ChainCollection(ug, rng)
        coll.extend(n)
        est = len(pop) * coverage(coll, blockers) / n
        hit = want / len(pop)
        sigma = len(pop) * math.sqrt(hit * (1 - hit) / n)
        assert abs(est - want) <= 3 * sigma + 1e-9


class TestPairStream:
    """A solve's pair source: both streams read one Generator, and one
    reverse search yields both sample types of its pairs."""

    def test_collections_read_a_fixed_prefix(self):
        # The first `count` pairs of each stream do not depend on how far
        # the source was drawn, and the source draws whole batches only.
        ug = fixtures.mid_synthetic(make_rng(0), 60, 240, 3)
        for kind in (LRRCollection, ChainCollection):
            want = [list(coll.sets()) for coll in
                    PairSource(ug, make_rng(5)).read(kind, 3 * _BATCH)]
            pairs = PairSource(ug, make_rng(5))
            for count, drawn in ((1500, 2), (_BATCH, 2), (2 * _BATCH + 1, 3),
                                 (700, 3), (3 * _BATCH, 3)):
                colls = pairs.read(kind, count)
                assert pairs.n_pairs == drawn * _BATCH
                assert len(colls) == 2
                for coll, sets in zip(colls, want):
                    assert coll.n_samples == count
                    got = list(coll.sets())
                    assert len(got) == count
                    assert all(np.array_equal(a, b)
                               for a, b in zip(got, sets[:count]))
                    assert coll.n_empty == sum(len(m) == 0
                                               for m in sets[:count])

    @pytest.mark.parametrize("budget", [None, 0])
    def test_scaled_coverage_estimates_both_bounds(self, budget,
                                                   monkeypatch):
        # Each half of a read, primary and validation, estimates the exact
        # upper bound as LRR sets and the exact lower bound as chains,
        # within 3 sigma (sigma from the exact hit probability), with the
        # batches of a pair searched together and (budget 0) apart.
        if budget is not None:
            monkeypatch.setattr(sampling, "_SEEN_BYTES", budget)
        n, checked = 4000, 0
        for seed in range(12):
            rng = make_rng(seed)
            ug = fixtures.random_tiny(rng, 8, 10)
            pop = compute_population(ug)
            cands = np.flatnonzero(ug.candidates()).tolist()
            if not pop or not cands:
                continue
            blockers = rng.choice(cands, size=min(int(rng.integers(1, 3)),
                                                  len(cands)),
                                  replace=False).tolist()
            model = ExactModel(ug)
            pairs = PairSource(ug, rng)
            for kind, want in ((LRRCollection, model.upper_bound(blockers)),
                               (ChainCollection,
                                model.lower_bound(blockers))):
                hit = want / len(pop)
                sigma = len(pop) * math.sqrt(hit * (1 - hit) / n)
                for coll in pairs.read(kind, n):
                    est = len(pop) * coverage(coll, blockers) / n
                    assert abs(est - want) <= 3 * sigma + 1e-9
                    checked += 1
            assert pairs.searches == (4 if budget is None else 8)
        assert checked >= 20


def pair_search_calls(monkeypatch):
    """The pair count of every `_pair_search` call from now on."""
    calls = []

    def spy(ug, population, count, rng):
        calls.append(count)
        return search(ug, population, count, rng)

    search = sampling._pair_search
    monkeypatch.setattr(sampling, "_pair_search", spy)
    return calls


class TestSharedPairSearch:
    """Batch j of both streams is the two halves of one search of
    2 * `_BATCH` pairs while its bitmap fits the budget, else two
    consecutive `_BATCH` searches, all on the source's one Generator."""

    GRAPHS = [lambda seed: fixtures.random_tiny(make_rng(seed), 8, 12),
              lambda seed: fixtures.mid_synthetic(make_rng(seed), 300, 1200,
                                                  10)]

    @pytest.mark.parametrize("graph", [0, 1])
    def test_streams_match_lone_searches(self, graph, monkeypatch):
        # both streams read in one call, a count that is not a multiple of
        # the batch and then more, with their batches searched together
        # (the graphs' bitmaps fit the budget) and then apart; a read hands
        # the source's population to its collections without copying it
        for budget in (sampling._SEEN_BYTES, 0):
            monkeypatch.setattr(sampling, "_SEEN_BYTES", budget)
            for seed in range(3):
                ug = self.GRAPHS[graph](seed)
                pop = np.asarray(compute_population(ug))
                if not len(pop):
                    continue
                pairs = PairSource(ug, make_rng(seed))
                assert pairs.population.tolist() == pop.tolist()
                lone = make_rng(seed)
                searches = ([2 * _BATCH] if budget else [_BATCH, _BATCH]) * 4
                batches = [batch for size in searches
                           for batch in _pair_search(ug, pop, size, lone)]
                for count in (1500, 3 * _BATCH + 1):
                    for kind in (LRRCollection, ChainCollection):
                        got = pairs.read(kind, count)
                        for coll, stream in zip(got, (batches[0::2],
                                                      batches[1::2])):
                            assert coll.population is pairs.population
                            want = kind(ug, None, pop)
                            for batch in stream:
                                want._add(*batch[kind._part])
                            assert coll.n_samples == count
                            for a, b in zip(coll.sets(), want.sets()):
                                assert np.array_equal(a, b)
                        assert not all(np.array_equal(a, b) for a, b in
                                       zip(got[0].sets(), got[1].sets()))
                assert pairs.n_pairs == 4 * _BATCH
                assert pairs.searches == len(searches)
                assert pairs.rng.random() == lone.random()

    def test_one_search_per_round_on_mid(self, monkeypatch):
        # n_total 301: both streams' batches share each search, and every
        # checked round that needs more pairs draws one batch per stream
        calls = pair_search_calls(monkeypatch)
        for seed in (0, 3):
            ug = fixtures.mid_synthetic(make_rng(seed), 300, 1200, 10)
            calls.clear()
            result = sand_imin(ug, AlgoParams(k=10), make_rng(seed + 10))
            counts = {check.samples_primary
                      for cert in result.certificates.values()
                      for check in cert.checks}
            assert calls == [2 * _BATCH] * len(counts)
            assert result.as_dict()["pair_streams"] == {
                "primary": max(counts), "validation": max(counts),
                "searches": len(calls)}

    def test_one_search_per_batch_when_the_bitmap_is_large(self,
                                                           monkeypatch):
        # n_total 2001: two batches' bitmap would pass the budget
        ug = fixtures.mid_synthetic(make_rng(0), 2000, 8000, 20)
        calls = pair_search_calls(monkeypatch)
        result = sand_imin(ug, AlgoParams(k=10), make_rng(10))
        pairs = result.as_dict()["pair_streams"]
        assert pairs["primary"] == pairs["validation"]
        assert calls == [_BATCH] * (2 * pairs["primary"] // _BATCH)
        assert pairs["searches"] == len(calls)

    @pytest.mark.parametrize("n, m, seeds, bound_mb", [
        (300, 1200, 10, 2.0),     # shared: 1.6 MB, against 0.8 MB lone
        (2000, 8000, 20, 4.0),    # lone: 3.0 MB, against 5.7 MB shared
    ])
    def test_round_draw_peak_memory(self, n, m, seeds, bound_mb):
        ug = fixtures.mid_synthetic(make_rng(1), n, m, seeds)
        pairs = PairSource(ug, make_rng(2))
        tracemalloc.start()
        try:
            pairs.read(ChainCollection, _BATCH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6


class TestBatchEntries:
    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 7, 1025]))
    def test_entry_chains_match_reference(self, seed, batch):
        # Per realization: the entries in ascending node order, each chain
        # the node's root path in the reference tree, cut below the seeds.
        ug = random_flowgraph(seed)
        levels = []
        nodes, members, sizes, ptr = _sequence_entries(ug, batch, recorded(
            _forward_levels(ug, ug.blocked, batch, make_rng(seed)), levels))
        assert len(ptr) == batch + 1 and ptr[0] == 0
        assert np.array_equal(nodes, members[np.cumsum(sizes) - sizes])
        assert list(split_chains(members, sizes, ptr)) == [
            reference_chains(ug, live.get)
            for live in live_successors(levels, ug.s, batch)]

    def test_no_seed_reaches_anyone(self):
        g = unify_seeds(Graph.from_edges(3, [0, 0], [1, 2], [0.0, 0.0]),
                        {0})
        (nodes, members, sizes, ptr), = _cp_batch(g, 7, make_rng(1))
        assert len(nodes) == len(members) == len(sizes) == 0
        assert ptr.tolist() == [0] * 8
        coll = CPCollection(g, make_rng(1))
        coll.extend(7)
        assert coll.n_samples == 7
        members, set_of, n_sets = coll._freeze()
        assert len(members) == len(set_of) == n_sets == 0
        assert coll.sets() == []
        assert coverage(coll, [1, 2]) == 0

    def test_one_debug_line_per_batch(self, caplog):
        caplog.set_level(logging.DEBUG, logger="imin.sampling")
        coll = CPCollection(fixtures.mid_synthetic(make_rng(6), 40, 160, 3),
                            make_rng(3))
        coll.extend(_BATCH + 3)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "imin.sampling"]
        assert len(lines) == 2
        assert lines[1].startswith("cp batch: 3 realizations, ")
        entries, chain_nodes = (
            sum(int(line.split(", ")[i].split()[0]) for line in lines)
            for i in (1, 2))
        members, _, n_sets = coll._freeze()
        assert (entries, chain_nodes) == (n_sets, len(members))
        assert all("join nodes" in line and "sweeps" in line
                   for line in lines)

    def test_count_not_a_multiple_of_the_batch(self):
        ug = fixtures.mid_synthetic(make_rng(6), 40, 160, 3)
        batches = list(_cp_batch(ug, _BATCH + 3, make_rng(2)))
        assert [len(ptr) - 1 for *_, ptr in batches] == [_BATCH, 3]
        coll = CPCollection(ug, make_rng(2))
        coll.extend(_BATCH + 3)
        assert coll.n_samples == _BATCH + 3
        # members, the set of each member, the number of sets
        members, set_of, n_sets = coll._freeze()
        sizes = np.concatenate([batch[2] for batch in batches])
        assert np.array_equal(members, np.concatenate(
            [batch[1] for batch in batches]))
        assert np.array_equal(set_of, np.repeat(np.arange(len(sizes)),
                                                sizes))
        assert n_sets == len(sizes) == sum(ptr[-1] for *_, ptr in batches)


def collections(ug, rng_seed, count):
    cp = CPCollection(ug, make_rng(rng_seed))
    cp.extend(count)
    lrr = LRRCollection(ug, make_rng(rng_seed))
    lrr.extend(count)
    return cp, lrr


def assert_same_collections(a, b):
    (cp_a, lrr_a), (cp_b, lrr_b) = a, b
    assert lrr_a.n_empty == lrr_b.n_empty
    for coll_a, coll_b in ((cp_a, cp_b), (lrr_a, lrr_b)):
        assert coll_a.n_samples == coll_b.n_samples
        # members, the set of each member, the number of sets
        for x, y in zip(coll_a._freeze(), coll_b._freeze()):
            assert np.array_equal(x, y)
        assert coll_a.rng.bit_generator.state \
            == coll_b.rng.bit_generator.state


class TestPaddingInvariance:
    def test_unreachable_padding_changes_nothing(self):
        for seed in range(3):
            core, padded = padded_twin(seed, 400)
            assert compute_population(core) == compute_population(padded)
            assert_same_collections(collections(core, 30 + seed, 300),
                                    collections(padded, 30 + seed, 300))

    def test_pair_source_joins_its_searches_by_the_reach(self, monkeypatch):
        # padded to 1501 nodes, one search of both streams' batches would
        # pass `_SEEN_BYTES` at a byte per node and pair, but its bitmaps
        # have a row per node of the reach only: the padded source joins
        # its batches as the core's does, and reads the same pairs
        calls = pair_search_calls(monkeypatch)
        for seed in range(2):
            core, padded = padded_twin(seed, 1440)
            assert 2 * padded.n_total * _BATCH > sampling._SEEN_BYTES
            sources = [PairSource(g, make_rng(40 + seed))
                       for g in (core, padded)]
            for kind in (LRRCollection, ChainCollection):
                got = [source.read(kind, 2 * _BATCH + 1)
                       for source in sources]
                for coll_a, coll_b in zip(*got):
                    assert coll_a.n_samples == coll_b.n_samples
                    for x, y in zip(coll_a._freeze(), coll_b._freeze()):
                        assert np.array_equal(x, y)
            assert sources[0].searches == sources[1].searches == 3
        assert calls == [2 * _BATCH] * 12


class TestBatchedExtend:
    def test_extend_2500_is_exact_and_reproducible(self):
        ug = fixtures.mid_synthetic(make_rng(5), 60, 240, 3)
        first = collections(ug, 12, 2500)
        assert first[0].n_samples == first[1].n_samples == 2500
        assert len(list(first[1].sets())) == 2500
        assert_same_collections(first, collections(ug, 12, 2500))


class TestCoverage:
    def test_worked_example_counts(self):
        ug, coll = worked_collection()
        assert coverage(coll, [3]) == 3  # covers C(3), C(5), C(6)
        assert coverage(coll, []) == 0
        assert coverage(coll, [1, 2, 3, 4, 5, 6]) == 5  # every entry

    def test_worked_example_marginals(self):
        ug, coll = worked_collection()
        assert coverage(coll, [3, 1]) - coverage(coll, [3]) == 1
        assert coverage(coll, [3, 3]) == coverage(coll, [3])
        assert coverage(coll, [1, 2, 3, 5]) == coverage(coll, [1, 2, 3])

    def test_lrr_direct_counts(self):
        ug = fixtures.chain()
        coll = collection_of(LRRCollection, ug, [[1, 2], [], [2]],
                             population=[1, 2])
        assert coverage(coll, [2]) == 2
        assert coverage(coll, []) == 0
        assert coll.n_samples == 3

    def test_all_sets_empty(self):
        ug = fixtures.chain()
        coll = collection_of(LRRCollection, ug, [[], [], []],
                             population=[1, 2])
        assert coverage(coll, [1]) == 0

    def test_coverage_monotone_submodular_exhaustive(self):
        ug = fixtures.worked_example_small()
        coll = CPCollection(ug, make_rng(11))
        coll.extend(40)
        nodes = [1, 2, 3, 5]
        vals = {}
        for size in range(len(nodes) + 1):
            for combo in itertools.combinations(nodes, size):
                vals[frozenset(combo)] = coverage(coll, combo)
        for small, big in itertools.product(vals, vals):
            if not small <= big:
                continue
            assert vals[small] <= vals[big]
            for x in nodes:
                if x in big:
                    continue
                gain_small = vals[small | {x}] - vals[small]
                gain_big = vals[big | {x}] - vals[big]
                assert gain_small >= gain_big


class TestUnbiasedness:
    def test_cp_coverage_estimates_lower_bound(self):
        for trial in range(2):
            ug = fixtures.random_tiny(make_rng(42 + trial), 7, 9)
            model = ExactModel(ug)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            B = cands[:2]
            n = 8000
            coll = CPCollection(ug, make_rng(6000 + trial))
            coll.extend(n)
            per_seq = per_sequence_coverage(
                _cp_batch(ug, n, make_rng(6000 + trial)), B)
            assert per_seq.sum() == coverage(coll, B)
            est = per_seq.mean()
            sigma = per_seq.std() / math.sqrt(n)
            assert abs(est - model.lower_bound(B)) < 3 * sigma + 1e-6

    def test_lrr_coverage_estimates_upper_bound(self):
        for trial in range(2):
            ug = fixtures.random_tiny(make_rng(52 + trial), 7, 9)
            pop = compute_population(ug)
            if not pop:
                continue
            model = ExactModel(ug)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            B = cands[:2]
            n = 8000
            coll = LRRCollection(ug, make_rng(7000 + trial))
            coll.extend(n)
            hit_prob = coverage(coll, B) / n
            est = len(pop) * hit_prob
            sigma = len(pop) * math.sqrt(
                max(hit_prob * (1 - hit_prob), 1e-9) / n)
            assert abs(est - model.upper_bound(B)) < 3 * sigma + 1e-6


class TestConcentration:
    def test_tail_frequencies_within_bound(self):
        # Coverage sums concentrate at the martingale-bound rate: check
        # the observed upper/lower tail frequencies against
        # exp(-lam^2 / (2 mu theta + (2/3) lam)) at a few lambda values.
        ug = fixtures.diamond(0.5)
        model = ExactModel(ug)
        mu = model.lower_bound([1])  # per-sequence expected coverage
        spread = model.spread()
        theta, reps = 150, 250
        rng = make_rng(77)
        sums = []
        for _ in range(reps):
            coll = CPCollection(ug, rng)
            coll.extend(theta)
            sums.append(coverage(coll, [1]))
        sums = np.asarray(sums, dtype=float)
        scale = spread  # normalizing constant of the bound
        for lam_nodes in (8.0, 14.0, 20.0):
            lam = lam_nodes / scale
            upper = math.exp(-lam ** 2
                             / (2 * (mu / scale) * theta + 2 * lam / 3))
            lower = math.exp(-lam ** 2 / (2 * (mu / scale) * theta))
            up_freq = float(np.mean(
                (sums - mu * theta) / scale >= lam))
            low_freq = float(np.mean(
                (sums - mu * theta) / scale <= -lam))
            noise = 3 * math.sqrt(0.25 / reps)
            assert up_freq <= upper + noise
            assert low_freq <= lower + noise


class TestCollectionGrowth:
    def test_extend_accumulates_and_counts_empties(self):
        ug = fixtures.diamond(0.3)
        coll = CPCollection(ug, make_rng(8))
        coll.extend(10)
        assert coll.n_samples == 10
        coll.extend(10)
        assert coll.n_samples == 20
