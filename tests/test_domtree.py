import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imin import fixtures
from imin.diffusion import Realization, _forward_levels, sample_realization
from imin.diffusion import reachable_in_realization, reverse_live_edges
from imin.domtree import build_dominator_tree, dominators
from imin.graph import Graph, assign_constant_probability, unify_seeds
from imin.oracle import ExactModel
from imin.sampling import (_chains, _cp_batch, _reverse_reach,
                           compute_population)

from conftest import dominators as reference_dominators
from conftest import (live_successors, make_rng, random_flowgraph,
                      realization_successors, recorded)


def brute_force_idom(ug, phi):
    """Immediate dominators by the removal definition (test oracle).

    u dominates v iff removing u disconnects the source from v; the
    immediate dominator is the dominator that is itself dominated by all
    the others (the one with the largest dominator set).
    """
    src = ug.s
    live_pairs = []
    srcs = np.repeat(np.arange(ug.n_total, dtype=np.int64),
                     np.diff(ug.out_ptr))
    for eid in np.nonzero(phi.live)[0]:
        live_pairs.append((int(srcs[eid]), int(ug.out_dst[eid])))

    def reach_without(banned):
        adj = {}
        for a, b in live_pairs:
            if a != banned and b != banned:
                adj.setdefault(a, []).append(b)
        seen = {src}
        stack = [src]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    reached = reach_without(None)
    doms = {v: {u for u in reached
                if u not in (v, src) and v not in reach_without(u)}
            for v in reached if v != src}
    idom = {}
    for v, ds in doms.items():
        if not ds:
            idom[v] = src
        else:
            idom[v] = max(ds, key=lambda u: len(doms[u]))
    return reached, idom


def _assert_matches_networkx(ug, phi):
    dt = build_dominator_tree(phi)
    srcs = np.repeat(np.arange(ug.n_total, dtype=np.int64),
                     np.diff(ug.out_ptr))
    dg = nx.DiGraph()
    dg.add_node(ug.s)
    for eid in np.nonzero(phi.live)[0]:
        dg.add_edge(int(srcs[eid]), int(ug.out_dst[eid]))
    want = nx.immediate_dominators(dg, ug.s)
    for v, u in want.items():
        if v == ug.s:
            continue
        assert dt.idom[v] == u
    assert np.flatnonzero(dt.subtree_size).tolist() \
        == sorted(set(want) | {ug.s})


class TestReachableFrom:
    def test_worked_realization(self):
        ug = fixtures.worked_example_small()
        phi = fixtures.worked_example_small_realization(ug)
        reach = reachable_in_realization(phi)
        assert sorted(np.nonzero(reach)[0]) == [0, 1, 2, 3, 5, 6, ug.s]
        assert not reach[4]

    def test_no_edges(self):
        g = unify_seeds(Graph.from_edges(2, [0], [1], [1.0]), {0})
        phi = Realization(g, np.zeros(g.m_total, dtype=bool))
        phi.live[-0:] = False
        reach = reachable_in_realization(phi)
        assert sorted(np.nonzero(reach)[0]) == [g.s]

    def test_cycle(self):
        g = unify_seeds(Graph.from_edges(2, [0, 1], [1, 0]), {0})
        phi = Realization(g, np.ones(g.m_total, dtype=bool))
        assert reachable_in_realization(phi).sum() == 3


class TestBuildDominatorTree:
    def test_worked_realization_idoms(self):
        ug = fixtures.worked_example_small()
        phi = fixtures.worked_example_small_realization(ug)
        dt = build_dominator_tree(phi)
        assert dt.idom[0] == ug.s
        assert dt.idom[1] == dt.idom[2] == dt.idom[3] == 0
        assert dt.idom[5] == dt.idom[6] == 3
        assert dt.idom[4] == -1  # unreached

    def test_chain(self):
        ug = fixtures.chain()
        phi = sample_realization(ug, None, make_rng(0))
        dt = build_dominator_tree(phi)
        assert dt.idom[1] == 0 and dt.idom[2] == 1

    def test_diamond_join(self):
        ug = fixtures.diamond(1.0)
        phi = sample_realization(ug, None, make_rng(0))
        dt = build_dominator_tree(phi)
        assert dt.idom[3] == 0  # two disjoint paths meet at the seed

    def test_matches_brute_force_on_random_realizations(self):
        for trial in range(60):
            ug = fixtures.random_tiny(make_rng(trial), 7, 8)
            phi = sample_realization(ug, None, make_rng(1000 + trial))
            dt = build_dominator_tree(phi)
            reached, want = brute_force_idom(ug, phi)
            got = {v: int(dt.idom[v]) for v in reached if v != ug.s}
            assert got == want
            for v in range(ug.n_total):
                if v not in reached:
                    assert dt.idom[v] == -1

    def test_matches_networkx(self):
        for trial in range(40):
            ug = fixtures.random_tiny(make_rng(500 + trial), 9, 12)
            phi = sample_realization(ug, None, make_rng(2000 + trial))
            _assert_matches_networkx(ug, phi)
        # Most tiny realizations settle in one changing fixed-point pass;
        # these need more, so the iteration itself is exercised.
        for trial in range(6):
            mid = fixtures.mid_synthetic(make_rng(800 + trial), 120, 480)
            ug = unify_seeds(assign_constant_probability(mid.base, 0.5),
                             mid.seeds)
            phi = sample_realization(ug, None, make_rng(2100 + trial))
            _assert_matches_networkx(ug, phi)


class TestBatchDominators:
    """The batched core against the one-at-a-time reference and networkx,
    one realization at a time."""

    @settings(derandomize=True, max_examples=60, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 7, 1025]))
    def test_every_realization_matches_reference(self, seed, batch):
        ug = random_flowgraph(seed)
        levels = []
        tree = dominators(recorded(_forward_levels(
            ug, ug.blocked, batch, make_rng(seed)), levels), ug.s, batch)
        node, trial = np.divmod(tree.key, batch)
        number = np.arange(len(node))
        dom = np.where(number < batch, -1, node[tree.idom])
        # A subtree size counts the chains through the number, and every
        # number of a realization lies below its root.
        chains, _ = _chains(tree.idom, number >= batch, number[batch:])
        sizes = np.bincount(chains, minlength=len(node))
        sizes[:batch] = np.bincount(trial, minlength=batch)
        for t, live in enumerate(live_successors(levels, ug.s, batch)):
            mine = np.flatnonzero(trial == t)
            got = set(zip(node[mine].tolist(), dom[mine].tolist(),
                          sizes[mine].tolist()))
            vertex, idom, size = reference_dominators(live.get, ug.s)
            assert got == {(v, vertex[i] if i >= 0 else -1, s)
                           for v, i, s in zip(vertex, idom, size)}
            graph = nx.DiGraph([(u, v) for u, vs in live.items()
                                for v in vs])
            graph.add_node(ug.s)
            want = nx.immediate_dominators(graph, ug.s)
            assert {(v, d) for v, d, _ in got if v != ug.s} \
                == {(v, d) for v, d in want.items() if v != ug.s}

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("shape", ["path", "rails", "ladder"])
    def test_deep_trees_match_reference(self, shape, batch):
        # Dominator chains up to 2,000 long, so common ancestors are found
        # by long walks up the tree.
        n = 2000
        rail = np.arange(n - 1)
        if shape == "path":     # and a certain edge from the seed to its end
            src, dst = np.append(rail, 0), np.append(rail + 1, n - 1)
            p = np.ones(len(src))
        elif shape == "rails":  # two as long from the seed to the last node,
            # whose immediate dominator moves 1,000 levels up to the seed
            rails = [np.r_[0:1000, n - 1], np.r_[0, 1000:n]]
            src = np.concatenate([r[:-1] for r in rails])
            dst = np.concatenate([r[1:] for r in rails])
            p = np.ones(len(src))
        else:                   # certain rails, rungs i -> i+2 at p = 0.5
            src = np.concatenate([rail, rail[:-1]])
            dst = np.concatenate([rail + 1, rail[:-1] + 2])
            p = np.where(dst - src == 2, 0.5, 1.0)
        ug = unify_seeds(Graph.from_edges(n, src, dst, p), {0})
        levels = []
        tree = dominators(recorded(_forward_levels(
            ug, ug.blocked, batch, make_rng(batch)), levels), ug.s, batch)
        node, trial = np.divmod(tree.key, batch)
        dom = np.where(np.arange(len(node)) < batch, -1, node[tree.idom])
        for t, live in enumerate(live_successors(levels, ug.s, batch)):
            mine = trial == t
            vertex, idom, _ = reference_dominators(live.get, ug.s)
            assert dict(zip(node[mine].tolist(), dom[mine].tolist())) \
                == {v: vertex[i] if i >= 0 else -1
                    for v, i in zip(vertex, idom)}
        if batch == 1:      # and the reference's subtree sizes, summed
            # over chains 2,000 long, on an eager realization
            phi = sample_realization(ug, None, make_rng(7))
            vertex, idom, size = reference_dominators(
                realization_successors(phi), ug.s)
            dt = build_dominator_tree(phi)
            assert dt.idom[vertex[1:]].tolist() \
                == [vertex[i] for i in idom[1:]]
            assert dt.subtree_size[vertex].tolist() == size
            assert np.count_nonzero(dt.subtree_size) == len(vertex)

    def test_seeded_searches_keep_their_join_and_sweep_counts(self):
        # A pair search built as `sampling._pair_search` builds it, and a
        # forward common-path batch: (pairs numbered, joins, sweeps).  The
        # pair search's first level keeps one source edge per seed-fed
        # node, so several seeds feeding a node do not make it a join.
        ug = fixtures.mid_synthetic(make_rng(0), 300, 1200, 10)
        rng = make_rng(1)
        population = np.asarray(compute_population(ug), dtype=np.int64)
        targets = population[rng.integers(0, len(population), size=2048)]
        rg = ug.reach_graph
        root = rg.row[ug.s]
        edges = reverse_live_edges(rg, rg.row[targets], rng)
        pair = dominators(_reverse_reach(rg.n, root, 2048, *edges), root,
                          2048)
        forward = dominators(_forward_levels(ug, ug.blocked, 1024,
                                             make_rng(2)), ug.s, 1024)
        assert [(len(t.key), t.joins, t.sweeps) for t in (pair, forward)] \
            == [(5661, 502, 3), (116114, 18637, 5)]


class TestSubtreeSizes:
    def test_worked_realization_sizes(self):
        ug = fixtures.worked_example_small()
        phi = fixtures.worked_example_small_realization(ug)
        sizes = build_dominator_tree(phi).subtree_size
        assert {v: int(sizes[v]) for v in range(7)} == {
            0: 6, 1: 1, 2: 1, 3: 3, 4: 0, 5: 1, 6: 1}

    def test_chain_sizes(self):
        ug = fixtures.chain()
        phi = sample_realization(ug, None, make_rng(0))
        sizes = build_dominator_tree(phi).subtree_size
        assert int(sizes[1]) == 2 and int(sizes[2]) == 1

    def test_star_leaves(self):
        g = unify_seeds(Graph.from_edges(4, [0, 0, 0], [1, 2, 3]), {0})
        phi = sample_realization(g, None, make_rng(0))
        sizes = build_dominator_tree(phi).subtree_size
        assert [int(sizes[v]) for v in (1, 2, 3)] == [1, 1, 1]

    def test_sum_identity_equals_depth_sum(self):
        # Sum of non-root subtree sizes equals the sum of node depths.
        for trial in range(25):
            ug = fixtures.random_tiny(make_rng(700 + trial), 9, 12)
            phi = sample_realization(ug, None, make_rng(3000 + trial))
            dt = build_dominator_tree(phi)
            depth_sum = 0
            for v in np.flatnonzero(dt.subtree_size):
                while v != ug.s:
                    v = dt.idom[v]
                    depth_sum += 1
            assert dt.subtree_size.sum() - dt.subtree_size[ug.s] \
                == depth_sum

    def test_subtree_consistency_with_children(self):
        ug = fixtures.worked_example_small()
        phi = fixtures.worked_example_small_realization(ug)
        dt = build_dominator_tree(phi)
        for v in np.flatnonzero(dt.subtree_size):
            kids = np.nonzero(dt.idom == v)[0]
            assert dt.subtree_size[v] == 1 + dt.subtree_size[kids].sum()


class TestEstimationIdentity:
    def test_mean_subtree_size_matches_singleton_decrease(self):
        # The per-realization subtree size, the number of common-path
        # chains that contain the node, is an unbiased estimate of the
        # expected decrease from blocking that single node.
        ug = fixtures.worked_example_small()
        model = ExactModel(ug)
        n = 20_000
        totals = np.zeros(ug.n_total)
        sq = np.zeros(ug.n_total)
        for _, members, sizes, ptr in _cp_batch(ug, n, make_rng(42)):
            batch = len(ptr) - 1
            seq = np.repeat(np.repeat(np.arange(batch), np.diff(ptr)), sizes)
            s = np.bincount(seq * ug.n_total + members,
                            minlength=batch * ug.n_total).reshape(batch, -1)
            totals += s.sum(axis=0)
            sq += (s.astype(float) ** 2).sum(axis=0)
        for v in range(1, 7):
            mean = totals[v] / n
            sigma = math.sqrt(max(sq[v] / n - mean ** 2, 1e-12) / n)
            assert abs(mean - model.decrease([v])) < 3 * sigma + 1e-9
