import itertools

import numpy as np
import pytest

from imin import fixtures, sandwich
from imin.diffusion import SpreadEstimate
from imin.graph import BlockerSet, Graph, block_nodes, unify_seeds
from imin.optimize import AlgoParams, E_FRACTION
from imin.oracle import ExactModel
from imin.sampling import ChainCollection, LRRCollection, coverage
from imin.sandwich import (SandwichResult, empirical_ratio, lhga, sand_imin,
                           sand_imin_minus)

from conftest import make_rng


class TestLhga:
    def test_score_arithmetic(self):
        # a: prob 1.0, outdeg 3 -> 3.0; b: prob 0.5, outdeg 4 -> 2.0
        g = Graph.from_edges(
            9,
            [0, 0, 1, 1, 1, 2, 2, 2, 2],
            [1, 2, 3, 4, 5, 5, 6, 7, 8],
            [1.0, 0.5, 1, 1, 1, 1, 1, 1, 1])
        ug = unify_seeds(g, {0})
        assert list(lhga(ug, 1)) == [1]

    def test_budget_covers_on(self):
        ug = fixtures.worked_example_small()
        assert sorted(lhga(ug, 5)) == [1, 2]

    def test_tie_breaks_lowest_id(self):
        g = Graph.from_edges(5, [0, 0, 1, 2], [1, 2, 3, 4],
                             [0.5, 0.5, 1, 1])
        ug = unify_seeds(g, {0})
        assert list(lhga(ug, 1)) == [1]


class TestSandImin:
    def test_chain_unique_cut(self):
        res = sand_imin(fixtures.chain(), AlgoParams(k=1, delta=0.1),
                        make_rng(0))
        assert list(res.candidates["lower"]) == [1]
        assert list(res.candidates["upper"]) == [1]
        assert list(res.candidates["heuristic"]) == [1]
        assert res.residual_estimates[res.chosen_name].value == 0.0
        assert abs(res.decrease_estimate - 2.0) < 0.05

    def test_diamond_exact_decrease(self):
        res = sand_imin(fixtures.diamond(1.0), AlgoParams(k=2, delta=0.1),
                        make_rng(1))
        assert sorted(res.chosen) == [1, 2]
        assert abs(res.decrease_estimate - 3.0) < 0.05

    def test_chosen_minimizes_residual(self):
        ug = fixtures.worked_example_small()
        res = sand_imin(ug, AlgoParams(k=1, delta=0.1), make_rng(2))
        best = min(res.residual_estimates.values(), key=lambda e: e.value)
        assert res.residual_estimates[res.chosen_name].value == best.value

    def test_chosen_close_to_best_candidate_decrease(self):
        # estimation slack: the chosen decrease may trail the best
        # candidate's true decrease by at most twice the relative error
        ug = fixtures.worked_example_small()
        model = ExactModel(ug)
        params = AlgoParams(k=1, epsilon=0.2, delta=0.05, gamma=0.1)
        res = sand_imin(ug, params, make_rng(3))
        true_best = max(
            model.decrease(res.candidates[name])
            for name in res.residual_estimates)
        true_chosen = model.decrease(res.chosen)
        assert true_chosen >= true_best \
            - 2 * params.gamma * model.spread() - 1e-9

    def test_determinism(self):
        ug = fixtures.worked_example_small()
        a = sand_imin(ug, AlgoParams(k=1, delta=0.1), make_rng(4))
        b = sand_imin(ug, AlgoParams(k=1, delta=0.1), make_rng(4))
        assert list(a.chosen) == list(b.chosen)
        assert a.decrease_estimate == b.decrease_estimate
        assert a.empirical_ratio == b.empirical_ratio

    def test_degenerate_graph_with_dead_seed_edges(self):
        # every seed exit has probability zero: all phases short-circuit
        g = Graph.from_edges(3, [0, 0], [1, 2], [0.0, 0.0])
        res = sand_imin(unify_seeds(g, {0}), AlgoParams(k=1, delta=0.1),
                        make_rng(30))
        assert res.decrease_estimate == 0.0
        assert res.empirical_ratio == 0.0


class TestSandIminMinus:
    def test_chain_matches_full(self):
        full = sand_imin(fixtures.chain(), AlgoParams(k=1, delta=0.1),
                         make_rng(5))
        minus = sand_imin_minus(fixtures.chain(), AlgoParams(k=1, delta=0.1),
                                make_rng(5))
        assert list(full.chosen) == list(minus.chosen)

    def test_no_upper_candidate_or_ratio(self):
        res = sand_imin_minus(fixtures.worked_example_small(),
                              AlgoParams(k=1, delta=0.1), make_rng(6))
        assert list(res.candidates) == ["lower", "heuristic"]
        assert res.empirical_ratio is None
        assert res.chosen_name in ("lower", "heuristic")
        with pytest.raises(ValueError, match="upper"):
            empirical_ratio(res, AlgoParams(k=1, delta=0.1))

    def test_skips_the_upper_phase_entirely(self):
        ug = fixtures.worked_example_small()
        params = AlgoParams(k=1, delta=0.1)
        full = sand_imin(ug, params, make_rng(20))
        minus = sand_imin_minus(ug, params, make_rng(20))
        assert "upper" in full.timings and "upper" not in minus.timings
        assert "upper" not in minus.certificates
        # the phases both variants run read the same streams in the same
        # order, so the upper phase's absence changes none of their results
        assert minus.certificates["lower"].as_dict() \
            == full.certificates["lower"].as_dict()
        assert minus.base_estimate == full.base_estimate
        assert minus.residual_estimates["lower"] \
            == full.residual_estimates["lower"]


class TestSharedPairStreams:
    def test_both_certificates_read_the_same_pairs(self, monkeypatch):
        # lsbm and gsbm get the same pair source, whose streams draw only
        # as many pairs as the larger side reads.  Pair by pair, the lower
        # side's chain lies in the upper side's LRR set and starts at the
        # same target; primary and validation pairs differ.
        sources = {}
        for name in ("lsbm", "gsbm"):
            def spy(g, params, rng, pairs, _real=getattr(sandwich, name),
                    _name=name):
                sources[_name] = pairs
                return _real(g, params, rng, pairs)
            monkeypatch.setattr(sandwich, name, spy)
        ug = fixtures.mid_synthetic(make_rng(0), 60, 240, 3)
        # a seed whose two sides stop at different sample counts
        res = sand_imin(ug, AlgoParams(k=3, epsilon=0.1, delta=0.1),
                        make_rng(5))
        low, up = res.certificates["lower"], res.certificates["upper"]
        assert low.samples_primary != up.samples_primary
        pairs = sources["lsbm"]
        assert sources["gsbm"] is pairs
        assert pairs.n_pairs == max(low.samples_primary, up.samples_primary)
        count = min(low.samples_primary, up.samples_primary)
        chains = pairs.read(ChainCollection, count)
        sets = pairs.read(LRRCollection, count)
        for chain_coll, set_coll in zip(chains, sets):
            stream_chains = list(chain_coll.sets())
            stream_sets = list(set_coll.sets())
            assert sum(len(c) > 0 for c in stream_chains) > count // 4
            assert sum(len(m) > len(c)
                       for c, m in zip(stream_chains, stream_sets)) > 0
            for chain, members in zip(stream_chains, stream_sets):
                assert len(chain) == 0 if len(members) == 0 else (
                    chain[0] == members[0]
                    and set(chain.tolist()) <= set(members.tolist()))
        for primary, validation in (chains, sets):
            assert sum(not np.array_equal(a, b) for a, b in
                       zip(primary.sets(), validation.sets())) > count // 4
        # each certificate's value is its blockers' coverage of its own
        # validation pairs, scaled to the population
        for cert, kind in ((low, ChainCollection), (up, LRRCollection)):
            _, coll = pairs.read(kind, cert.samples_validation)
            assert cert.value == len(coll.population) * coverage(
                coll, cert.blockers) / coll.n_samples
        assert res.as_dict()["pair_streams"] == {
            "primary": pairs.n_pairs, "validation": pairs.n_pairs,
            "searches": pairs.searches}


class TestSharedEvaluation:
    def test_one_call_and_equal_candidates_share_an_estimate(
            self, monkeypatch):
        # the base and every candidate come from one stopping-rule call;
        # equal candidates share one run and one estimate, and the first
        # of lower, upper and heuristic wins a tie
        calls = []

        def spy(g, sets, *args, _real=sandwich.stopping_rule_spreads,
                **kwargs):
            calls.append(list(sets))
            return _real(g, sets, *args, **kwargs)
        monkeypatch.setattr(sandwich, "stopping_rule_spreads", spy)
        ug = fixtures.mid_synthetic(np.random.default_rng(0), 120, 480, 4)
        names = ("lower", "upper", "heuristic")
        shared = ties = 0
        for seed in range(8):
            calls.clear()
            res = sand_imin(ug, AlgoParams(k=3, epsilon=0.2, delta=0.1),
                            make_rng(seed))
            assert calls == [[None, *(res.candidates[n] for n in names)]]
            est = res.residual_estimates
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    same = set(res.candidates[a]) == set(res.candidates[b])
                    assert (est[a] is est[b]) == same
                    shared += same
            best = min(e.value for e in est.values())
            first = next(n for n in names if est[n].value == best)
            assert res.chosen_name == first
            ties += sum(e is est[first] for e in est.values()) > 1
        assert shared >= 4 and ties >= 2


class TestEmpiricalRatio:
    def test_chain_tight_bounds_arithmetic(self):
        # decrease and upper bound coincide on the chain, so the ratio is
        # the plain parameter factor
        params = AlgoParams(k=1, epsilon=0.2, delta=0.1, gamma=0.1)
        res = sand_imin(fixtures.chain(), params, make_rng(8))
        want = ((1 - 0.1) / (1 + 0.1)) ** 2 * (E_FRACTION - 0.2)
        assert want == pytest.approx(0.2892, abs=5e-4)
        assert res.empirical_ratio == pytest.approx(want, abs=0.01)

    def test_ratio_in_unit_interval(self):
        for trial in range(5):
            ug = fixtures.random_tiny(make_rng(trial + 60), 8, 10)
            params = AlgoParams(k=1, epsilon=0.2, delta=0.1)
            res = sand_imin(ug, params, make_rng(trial))
            assert 0.0 <= res.empirical_ratio <= 1.0

    def test_base_spread_caps_every_upper_value(self):
        # The ratio's fallback upper value after an early exit: a receiver
        # subgraph holds only reached non-seeds, so U(B) <= sigma(empty)
        # for every B, with equality for the early-exit set.
        scale = ((1 - 0.1) / (1 + 0.1)) ** 2 * (E_FRACTION - 0.2)
        for trial in range(20):
            ug = fixtures.random_tiny(make_rng(trial + 300), 8, 10)
            model = ExactModel(ug)
            spread = model.spread()
            candidates = [v for v in range(ug.base.n) if v not in ug.seeds]
            for size in range(3):
                for b in itertools.combinations(candidates, size):
                    assert model.upper_bound(b) <= spread + 1e-9
            on = ug.seed_out_neighbors()
            assert model.upper_bound(on) == pytest.approx(spread, abs=1e-9)
            # a budget that covers every seed out-neighbor, and one that
            # covers every candidate: both maximizers exit early
            for k in (len(on), len(candidates)):
                params = AlgoParams(k=k, epsilon=0.2, delta=0.1, gamma=0.1)
                res = sand_imin(ug, params, make_rng(trial))
                assert all(cert.early_exit
                           for cert in res.certificates.values())
                assert sorted(res.certificates) == ["lower", "upper"]
                assert res.empirical_ratio == pytest.approx(scale,
                                                            abs=1e-12)
                _, opt = model.optimal_blockers(k, "decrease")
                assert scale <= model.decrease(res.chosen) / opt + 1e-9

    def test_useless_upper_candidate_gives_zero(self):
        # hand-build a result whose upper candidate protects nobody: its
        # residual equals the base spread
        params = AlgoParams(k=1, delta=0.1)
        est0 = SpreadEstimate(1.0, 0.1, 0.1, 1)
        res = SandwichResult(
            candidates={"lower": BlockerSet([1]), "upper": BlockerSet([3]),
                        "heuristic": BlockerSet([1])},
            base_estimate=est0,
            residual_estimates={"upper": SpreadEstimate(1.0, 0.1, 0.1, 1)},
            decreases={"upper": 0.0}, chosen_name="upper")
        assert empirical_ratio(res, params) == 0.0


class TestSandwichOrderingWitness:
    def test_fan_gadget_marginals(self):
        model = ExactModel(fixtures.fan_gadget(8))
        joint = model.decrease([1, 2])
        singles = model.decrease([1]) + model.decrease([2])
        assert singles == 2.0
        assert joint == 7.0  # n - 1

    def test_bounds_order_on_worked_fixture(self):
        ug = fixtures.worked_example_three_seeds()
        model = ExactModel(ug)
        B = [2, 6, 11]
        assert model.lower_bound(B) <= model.decrease(B) \
            <= model.upper_bound(B)


class TestPreBlockedNodes:
    def test_no_blocked_node_is_returned(self):
        # 50 of the 57 non-seeds are blocked; before the candidates
        # excluded them, both maximizers picked node 1 with zero gain and
        # lhga returned five blocked nodes.
        ug = fixtures.mid_synthetic(np.random.default_rng(0), 60, 150, 3)
        non_seeds = [v for v in range(ug.base.n) if v not in ug.seeds]
        blocked = set(non_seeds[:50])
        g = block_nodes(ug, blocked)
        assert not set(g.seed_out_neighbors()) & blocked
        result = sand_imin(g, AlgoParams(k=5), make_rng(1))
        for name in ("lower", "upper", "heuristic"):
            assert result.candidates[name]
            assert not set(result.candidates[name]) & blocked
        assert not set(lhga(g, 5)) & blocked
