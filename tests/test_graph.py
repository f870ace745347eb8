import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imin import fixtures
from imin.diffusion import stopping_rule_spread
from imin.graph import (BlockerSet, EdgeListParseError, Graph, GraphError,
                        assign_constant_probability, assign_wc_probabilities,
                        block_nodes, load_edge_list, unify_seeds)
from imin.oracle import ExactModel
from imin.sampling import compute_population

from conftest import (base_spread_enumeration, make_rng, random_flowgraph,
                      reference_positive_reach, tiny_with_dead_edges)


def write(tmp_path, text):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    return str(path)


class TestLoadEdgeList:
    def test_directed(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n"), directed=True)
        assert (g.n, g.m) == (3, 2)

    def test_undirected_doubles(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n"), directed=False)
        assert (g.n, g.m) == (2, 2)
        src, dst, _ = g.edge_array()
        assert sorted(zip(src, dst)) == [(0, 1), (1, 0)]

    def test_self_loop_and_duplicate_dropped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 0\n0 1\n0 1\n"), directed=True)
        assert (g.n, g.m) == (2, 1)

    def test_comments_and_blank_lines(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# header\n\n5 9\n9 6\n"))
        assert g.n == 3
        # first-appearance compaction keeps the original labels around
        assert list(g.labels) == [5, 9, 6]

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(write(tmp_path, "0 1\n0 1 2\n"))
        with pytest.raises(EdgeListParseError, match="line 1"):
            load_edge_list(write(tmp_path, "a b\n"))
        for label in (1 << 63, -(1 << 63) - 1):
            with pytest.raises(EdgeListParseError, match="line 2.*64-bit"):
                load_edge_list(write(tmp_path, f"0 1\n1 {label}\n"))
        extremes = [(1 << 63) - 1, -(1 << 63)]
        g = load_edge_list(write(tmp_path, "%d %d\n" % tuple(extremes)))
        assert g.labels.tolist() == extremes

    def test_ids_are_signed_ascii_digits(self, tmp_path):
        # a byte-order mark is skipped and any whitespace separates, but
        # an id must be ASCII digits with an optional sign, or labels such
        # as "1_0" and "10" would become one node
        path = tmp_path / "edges.txt"
        path.write_bytes("\ufeff+7 -3\n-3\u30000010\n".encode())
        assert load_edge_list(str(path)).labels.tolist() == [7, -3, 10]
        for label in ("1_0", "\u0663", "\uff11", "0x1", "1.0", "+-1"):
            with pytest.raises(EdgeListParseError,
                               match="line 2: non-integer node id"):
                load_edge_list(write(tmp_path, f"10 3\n{label} 3\n"))

    def test_empty_graph_rejected(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="empty"):
            load_edge_list(write(tmp_path, "# nothing\n1 1\n"))

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"0 1\n\xff 2\n")
        with pytest.raises(EdgeListParseError, match="not UTF-8"):
            load_edge_list(str(path))
        with pytest.raises(EdgeListParseError, match="is a directory"):
            load_edge_list(str(tmp_path))


class TestWcProbabilities:
    def test_shared_target(self):
        g = Graph.from_edges(3, [0, 1], [2, 2])
        g = assign_wc_probabilities(g)
        assert np.allclose(g.out_p, [0.5, 0.5])

    def test_single_edge(self):
        g = assign_wc_probabilities(Graph.from_edges(2, [0], [1]))
        assert g.out_p[0] == 1.0

    def test_star(self):
        g = Graph.from_edges(4, [0, 1, 2], [3, 3, 3])
        assert np.allclose(assign_wc_probabilities(g).out_p, 1 / 3)


class TestValidation:
    def test_probability_range(self):
        with pytest.raises(GraphError, match="probabilities"):
            Graph.from_edges(2, [0], [1], [1.5])

    def test_nan_probability(self):
        with pytest.raises(GraphError, match="probabilities"):
            Graph.from_edges(3, [0, 1], [1, 2], [float("nan"), 0.5])

    def test_labels_one_per_node(self):
        with pytest.raises(GraphError, match="labels"):
            Graph.from_edges(3, [0, 1], [1, 2], labels=[7])
        g = Graph.from_edges(3, [0, 1], [1, 2], labels=[7, 8, 9])
        assert g.labels.tolist() == [7, 8, 9]

    def test_constant_probability_range(self):
        g = Graph.from_edges(2, [0], [1])
        for p in (-0.5, 1.5, float("nan")):
            with pytest.raises(GraphError, match="probability"):
                assign_constant_probability(g, p)
        for p in (0.0, 1.0):
            assert assign_constant_probability(g, p).out_p.tolist() == [p]

    @pytest.mark.parametrize("defect, match", [
        ({"dst": [1, 1], "src": [0, 0]}, "duplicate"),
        ({"dst": [1, 5]}, "out of range"),
        ({"p": [float("nan"), 0.5]}, "probabilities"),
        ({"p": [0.5, 2.0]}, "probabilities"),
        ({"labels": [5]}, "labels"),
        ({"n": 0}, "at least one node"),
        ({"n": -1}, "at least one node"),
        ({"dst": [1]}, "equal length"),
        ({"p": [0.5]}, "equal length"),
        ({"dst": [1, 1]}, "self-loops"),
    ])
    def test_each_defect_is_rejected(self, defect, match):
        # Each defect alone in otherwise valid input (3 nodes, edges 0->1,
        # 1->2).
        arrays = {"src": [0, 1], "dst": [1, 2], "p": [0.5, 0.5],
                  "labels": [5, 6, 7], **defect}
        n = arrays.pop("n", 3)
        arrays = {k: np.asarray(v) for k, v in arrays.items()}
        with pytest.raises(GraphError, match=match):
            Graph.from_edges(n, arrays["src"], arrays["dst"], arrays["p"],
                             labels=arrays["labels"])

    def test_duplicate_edges(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(2, [0, 0], [1, 1])

    def test_in_out_describe_same_edges(self, rng):
        for trial in range(20):
            ug = fixtures.random_tiny(make_rng(trial), 9, 12)
            g = ug.base
            fwd = set()
            src, dst, p = g.edge_array()
            fwd = {(int(a), int(b), float(q)) for a, b, q in zip(src, dst, p)}
            rev = set()
            for v in range(g.n):
                lo, hi = g.in_ptr[v], g.in_ptr[v + 1]
                for off in range(lo, hi):
                    rev.add((int(g.in_src[off]), v, float(g.in_p[off])))
            assert fwd == rev


class TestUnifySeeds:
    def test_three_seed_fixture_edges(self):
        ug = fixtures.worked_example_three_seeds()
        lo, hi = ug.out_ptr[ug.s], ug.out_ptr[ug.s + 1]
        targets = sorted(int(v) for v in ug.out_dst[lo:hi])
        assert targets == sorted(ug.seeds)
        assert np.all(ug.out_p[lo:hi] == 1.0)

    def test_single_seed(self):
        ug = unify_seeds(Graph.from_edges(2, [0], [1]), {0})
        lo, hi = ug.out_ptr[ug.s], ug.out_ptr[ug.s + 1]
        assert list(ug.out_dst[lo:hi]) == [0]

    def test_all_nodes_seeds_leaves_no_candidates(self):
        ug = unify_seeds(Graph.from_edges(3, [0, 1], [1, 2]), {0, 1, 2})
        assert ug.seed_out_neighbors() == []
        with pytest.raises(GraphError):
            ug.check_blockers([1])

    def test_out_of_range_seed(self):
        with pytest.raises(GraphError, match="range"):
            unify_seeds(Graph.from_edges(2, [0], [1]), {5})

    def test_empty_seed_set(self):
        with pytest.raises(GraphError, match="non-empty"):
            unify_seeds(Graph.from_edges(2, [0], [1]), set())

    def test_out_of_range_blocker(self):
        ug = fixtures.chain()
        for v in (-1, ug.n_total):
            with pytest.raises(GraphError, match="out of range"):
                ug.check_blockers([v])

    def test_spread_matches_multi_seed_base(self):
        for trial in range(6):
            ug = fixtures.random_tiny(make_rng(100 + trial), 7, 9)
            model = ExactModel(ug)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            for B in ([], cands[:1], cands[:2]):
                want = base_spread_enumeration(ug.base, ug.seeds, B)
                assert model.spread(B) == pytest.approx(want, abs=1e-9)


class TestBlockNodes:
    def test_chain_cut(self):
        ug = fixtures.chain()
        blocked = block_nodes(ug, [1])
        assert ExactModel(blocked).spread() == 0.0

    def test_empty_block_is_identity(self):
        ug = fixtures.diamond(0.5)
        blocked = block_nodes(ug, [])
        assert ExactModel(blocked).spread() == ExactModel(ug).spread()

    def test_diamond_alternative_path(self):
        ug = fixtures.diamond(1.0)
        blocked = block_nodes(ug, [1])
        # v3 still activated through v2
        assert ExactModel(blocked).spread() == 2.0

    def test_blocking_seed_rejected(self):
        ug = fixtures.chain()
        with pytest.raises(GraphError, match="seed"):
            block_nodes(ug, [0])
        with pytest.raises(GraphError, match="source"):
            block_nodes(ug, [ug.s])

    def test_blocked_view_shares_arrays(self):
        ug = fixtures.diamond(1.0)
        blocked = block_nodes(ug, [2])
        assert blocked.out_dst is ug.out_dst

    def test_residual_spread_monotone_under_blocking(self):
        import itertools

        for trial in range(5):
            ug = fixtures.random_tiny(make_rng(200 + trial), 7, 9)
            model = ExactModel(ug)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            full = model.spread()
            for size in (1, 2):
                for B in itertools.combinations(cands, size):
                    assert model.spread(B) <= full + 1e-9
                    for extra in cands:
                        if extra in B:
                            continue
                        assert (model.spread(B + (extra,))
                                <= model.spread(B) + 1e-9)


class TestBlockerSet:
    def test_order_preserved_and_deduped(self):
        b = BlockerSet([5, 3, 5, 9])
        assert b.nodes == (5, 3, 9)
        assert 3 in b and 4 not in b
        assert len(b) == 3


class TestPositiveReach:
    def test_zero_spread_exactly_when_oracle_says_so(self):
        zero = nonzero = 0
        for seed in range(60):
            ug, blockers = tiny_with_dead_edges(seed)
            model = ExactModel(ug)
            dead = model.spread(blockers) == 0.0
            assert (compute_population(ug) == []) \
                == (model.spread() == 0.0), seed
            assert (compute_population(block_nodes(ug, blockers)) == []) \
                == dead, (seed, blockers)
            # Checked last: a zero spread the rule misses never stops its
            # sampling loop.  Loose (gamma, delta) keeps the loop short when
            # the spread is positive but tiny.
            est = stopping_rule_spread(ug, blockers, gamma=0.9, delta=0.9,
                                       rng=make_rng(seed))
            assert est.exact_zero == dead, (seed, blockers)
            zero += dead
            nonzero += not dead
        assert zero and nonzero

    def test_matches_reference_search(self):
        """Over edges of probability 0, the graph's blocked mask, other
        blocked masks and live-edge masks."""
        for seed in range(40):
            ug = random_flowgraph(seed)
            rng = make_rng(seed)
            other = rng.random(ug.n_total) < 0.3
            other[ug.s] = False
            live = rng.random(ug.m_total) < 0.6
            for blocked, mask in ((None, None), (other, None), (None, live),
                                  (other, live)):
                assert np.array_equal(
                    ug.positive_reach(blocked, live=mask),
                    reference_positive_reach(ug, blocked, live=mask)), seed

    def test_mask_stack_gives_each_mask_row(self):
        """One search for a stack of masks, nested or not."""
        for seed in range(40):
            ug = random_flowgraph(seed)
            rng = make_rng(seed)
            masks = (rng.random((3, ug.n_total)) < 0.3) | ug.blocked
            masks[:, ug.s] = False
            live = rng.random(ug.m_total) < 0.6
            for stack in (masks, np.stack([masks[0], masks[0] | masks[1]])):
                for mask in (None, live):
                    rows = ug.positive_reach(stack, live=mask)
                    assert rows.shape == stack.shape and rows.dtype == bool
                    for row, blocked in zip(rows, stack):
                        assert np.array_equal(row, reference_positive_reach(
                            ug, blocked, live=mask)), seed


class TestReachGraph:
    """`UnifiedGraph.reach_graph` against a reference built by masks."""

    @settings(derandomize=True, max_examples=60, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_mask_reference(self, seed):
        view = random_flowgraph(seed)   # up to two nodes blocked
        for ug in (unify_seeds(view.base, view.seeds), view):
            rg = ug.reach_graph
            node = np.flatnonzero(ug.reach)
            assert rg.n == len(node) + 1
            assert np.array_equal(rg.node, node)
            assert np.array_equal(rg.row[node], np.arange(len(node)))
            assert (rg.row[~ug.reach] == len(node)).all()
            for v in range(ug.n_total):
                i = rg.row[v]
                got = slice(rg.in_ptr[i], rg.in_ptr[i + 1])
                if not ug.reach[v] or ug.uncounted[v]:
                    # seeds, the source and the outside id: no in-edges
                    assert got.start == got.stop
                    continue
                base = ug.base
                src = base.in_src[base.in_ptr[v]:base.in_ptr[v + 1]]
                p = base.in_p[base.in_ptr[v]:base.in_ptr[v + 1]]
                seed_tail = ug.seed_mask[src]
                inside = ug.reach[src]
                want_src = np.full(len(src), len(node))
                want_src[inside] = [int(np.flatnonzero(node == u)[0])
                                    for u in src[inside]]
                want_src[seed_tail] = np.flatnonzero(node == ug.s)[0]
                assert np.array_equal(rg.in_src[got], want_src)
                assert np.array_equal(rg.in_p[got],
                                      np.where(inside, p, 0.0))
            # the outside id, last, has no in-edges either
            assert rg.in_ptr[-2] == rg.in_ptr[-1] == len(rg.in_src)
            assert not any(a.flags.writeable for a in rg[1:])
