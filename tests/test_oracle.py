import itertools

import pytest

from imin import fixtures, oracle
from imin.graph import Graph, unify_seeds
from imin.oracle import ExactModel, OracleLimitError

from conftest import make_rng

V3, V7, V12 = 2, 6, 11  # ids of labels v3, v7, v12 in the three-seed fixture


def single_edge(p):
    return unify_seeds(Graph.from_edges(2, [0], [1], [p]), {0})


class TestExactSpread:
    def test_single_half_edge(self):
        assert ExactModel(single_edge(0.5)).spread() == 0.5

    def test_deterministic_chain(self):
        assert ExactModel(fixtures.chain()).spread() == 2.0

    def test_diamond_half(self):
        # 16-outcome enumeration: P[v3] = 1 - (1 - 1/4)^2 = 7/16
        model = ExactModel(fixtures.diamond(0.5))
        assert model.spread() == 0.5 + 0.5 + 7 / 16

    def test_limit_refused(self):
        n = 26
        src = [0] * (n - 1)
        dst = list(range(1, n))
        g = unify_seeds(Graph.from_edges(n, src, dst, [0.5] * (n - 1)), {0})
        with pytest.raises(OracleLimitError, match="22"):
            ExactModel(g).spread()


class TestStreamingEnumeration:
    def test_streaming_matches_cached(self, monkeypatch):
        # above the cache limit every query regenerates the outcome chunks;
        # the values are the cached model's, float for float
        for trial in range(6):
            ug = fixtures.random_tiny(make_rng(700 + trial), 8, 12)
            cached = ExactModel(ug)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_CACHE_LIMIT", 0)
                streamed = ExactModel(ug)
            assert cached._cacheable and not streamed._cacheable
            on = ug.seed_out_neighbors()
            for b in ([], on[:1], on[:2], on):
                for query in ("spread", "decrease", "lower_bound",
                              "upper_bound"):
                    assert getattr(streamed, query)(b) \
                        == getattr(cached, query)(b), (trial, query, b)
            assert streamed._cached_chunks is None
            assert not streamed._protected_single \
                and not streamed._upper_single


class TestExactDecrease:
    def test_three_seed_fixture(self):
        ug = fixtures.worked_example_three_seeds()
        assert ExactModel(ug).decrease([V3, V7, V12]) == 7.0

    def test_empty_blockers(self):
        assert ExactModel(fixtures.diamond(0.5)).decrease([]) == 0.0

    def test_blocking_all_seed_exits(self):
        ug = fixtures.worked_example_small()
        on = ug.seed_out_neighbors()
        model = ExactModel(ug)
        assert model.decrease(on) == pytest.approx(model.spread())


class TestExactLowerBound:
    def test_three_seed_fixture(self):
        ug = fixtures.worked_example_three_seeds()
        assert ExactModel(ug).lower_bound([V3, V7, V12]) == 6.0

    def test_singleton_equals_decrease(self):
        for trial in range(5):
            ug = fixtures.random_tiny(make_rng(trial), 7, 9)
            model = ExactModel(ug)
            for v in range(ug.base.n):
                if v in ug.seeds:
                    continue
                assert model.lower_bound([v]) == pytest.approx(
                    model.decrease([v]), abs=1e-9)

    def test_diamond_combination_effect(self):
        model = ExactModel(fixtures.diamond(1.0))
        assert model.lower_bound([1, 2]) == 2.0
        assert model.decrease([1, 2]) == 3.0


class TestExactUpperBound:
    def test_three_seed_fixture(self):
        ug = fixtures.worked_example_three_seeds()
        assert ExactModel(ug).upper_bound([V3, V7, V12]) == 8.0

    def test_chain_tree_case_tight(self):
        model = ExactModel(fixtures.chain())
        assert model.upper_bound([1]) == model.decrease([1]) == 2.0

    def test_diamond_overcount(self):
        model = ExactModel(fixtures.diamond(1.0))
        assert model.upper_bound([1]) == 2.0
        assert model.decrease([1]) == 1.0


class TestOptimalBlockers:
    def test_diamond(self):
        best, val = ExactModel(fixtures.diamond(1.0)).optimal_blockers(2)
        assert (best, val) == ((1, 2), 3.0)

    def test_fan_gadget_singleton(self):
        best, val = ExactModel(fixtures.fan_gadget(8)).optimal_blockers(1)
        # blocking the junction protects it and its four leaves
        assert best == (3,)
        assert val == 5.0

    def test_k_zero(self):
        model = ExactModel(fixtures.diamond(1.0))
        assert model.optimal_blockers(0) == ((), 0.0)

    def test_lexicographic_tie(self):
        # two symmetric branches: {1} and {2} tie, smallest set wins
        g = Graph.from_edges(5, [0, 0, 1, 2], [1, 2, 3, 4])
        best, val = ExactModel(unify_seeds(g, {0})).optimal_blockers(1)
        assert best == (1,)
        assert val == 2.0


class TestSandwichOrderingAndShape:
    def test_ordering_on_random_graphs(self):
        for trial in range(8):
            ug = fixtures.random_tiny(make_rng(300 + trial), 8, 10)
            model = ExactModel(ug)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            for size in (1, 2):
                for B in itertools.combinations(cands, size):
                    low = model.lower_bound(B)
                    mid = model.decrease(B)
                    up = model.upper_bound(B)
                    assert low <= mid + 1e-9
                    assert mid <= up + 1e-9

    def test_lower_bound_monotone_submodular(self):
        for trial in range(4):
            ug = fixtures.random_tiny(make_rng(400 + trial), 7, 8)
            model = ExactModel(ug)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            vals = {}
            for size in range(4):
                for B in itertools.combinations(cands, size):
                    vals[B] = model.lower_bound(B)
            for small in vals:
                for big in vals:
                    if len(big) != len(small) + 1:
                        continue
                    if not set(small) <= set(big):
                        continue
                    assert vals[small] <= vals[big] + 1e-9  # monotone
            for small, big in itertools.product(vals, vals):
                if not (set(small) <= set(big) and len(big) <= 2):
                    continue
                for x in cands:
                    if x in big:
                        continue
                    s_gain = vals[tuple(sorted(small + (x,)))] - vals[small]
                    t_gain = vals[tuple(sorted(big + (x,)))] - vals[big]
                    assert s_gain >= t_gain - 1e-9  # submodular

    def test_decrease_not_submodular_on_diamond(self):
        model = ExactModel(fixtures.diamond(1.0))
        # marginal of v2 grows after adding v1: 1 then 2
        assert model.decrease([2]) - model.decrease([]) == 1.0
        assert model.decrease([1, 2]) - model.decrease([1]) == 2.0

    def test_lower_bound_keys_sorted(self):
        model = ExactModel(fixtures.diamond(1.0))
        assert model.lower_bound([2, 1]) == model.lower_bound([1, 2])
