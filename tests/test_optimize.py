import itertools
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imin import fixtures, optimize
from imin.graph import Graph, block_nodes, unify_seeds
from imin.diffusion import _BATCH
from imin.optimize import (AlgoParams, E_FRACTION, _certified_maximize,
                           cov_upper_opt, gsbm, lsbm, max_coverage,
                           opt_lower_bound)
from imin.oracle import ExactModel
from imin.sampling import (CPCollection, LRRCollection, compute_population,
                           coverage)

from conftest import (celf_max_coverage, collection_of, make_rng,
                      padded_twin, random_flowgraph, replayed_cov_upper_opt)


def collection_from_sets(sets, n_nodes=8):
    """An explicit collection over a throwaway star graph."""
    src = [0] * (n_nodes - 1)
    dst = list(range(1, n_nodes))
    ug = unify_seeds(Graph.from_edges(n_nodes, src, dst), {0})
    return ug, collection_of(LRRCollection, ug, sets,
                             population=list(range(1, n_nodes)))


def naive_greedy(coll, ug, k):
    """Reference greedy: full re-evaluation, lowest id on ties."""
    chosen = []
    cands = [v for v in range(ug.base.n) if v not in ug.seeds]
    covered = coverage(coll, [])
    while len(chosen) < k and len(chosen) < len(cands):
        best, best_gain = None, -1
        for v in cands:
            if v in chosen:
                continue
            gain = coverage(coll, chosen + [v]) \
                - coverage(coll, chosen)
            if gain > best_gain:
                best, best_gain = v, gain
        chosen.append(best)
    return chosen


class TestMaxCoverage:
    def test_single_pick(self):
        ug, coll = collection_from_sets([[1], [1, 2], [3]])
        blockers, trace = max_coverage(coll, 1)
        assert list(blockers) == [1]
        assert np.diff(trace.coverages).tolist() == [2]

    def test_budget_covers_everything(self):
        ug, coll = collection_from_sets([[1], [2], [3], [1, 3]])
        blockers, trace = max_coverage(coll, 7)
        assert trace.coverages[-1] == 4

    def test_all_sets_empty_fills_by_lowest_id(self):
        ug, coll = collection_from_sets([[], [], []])
        blockers, trace = max_coverage(coll, 2)
        assert list(blockers) == [1, 2]
        assert np.diff(trace.coverages).tolist() == [0, 0]

    def test_tie_break_lowest_id(self):
        ug, coll = collection_from_sets([[2], [5]])
        blockers, _ = max_coverage(coll, 1)
        assert list(blockers) == [2]

    def test_lazy_equals_naive_on_random_collections(self):
        rng = make_rng(31)
        for trial in range(50):
            n_sets = int(rng.integers(1, 25))
            sets = []
            for _ in range(n_sets):
                size = int(rng.integers(0, 4))
                sets.append(list(rng.choice(range(1, 8), size=size,
                                            replace=False)))
            ug, coll = collection_from_sets(sets)
            k = int(rng.integers(1, 5))
            blockers, _ = max_coverage(coll, k)
            assert list(blockers) == naive_greedy(coll, ug, k)


    def test_never_picks_a_blocked_node(self):
        ug = block_nodes(collection_from_sets([])[0], [1, 4])
        coll = collection_of(LRRCollection, ug, [[1, 2], [3], [], [1]],
                             population=range(1, 8))
        blockers, trace = max_coverage(coll, 9)
        assert list(blockers) == [2, 3, 5, 6, 7]
        assert np.diff(trace.coverages).tolist() == [1, 1, 0, 0, 0]


def random_collections(seed, count):
    """A CP and an LRR collection of `count` samples of a random graph
    (cycles, 0/1/partial edges, blocked nodes), and an explicit LRR
    collection of random sets, empty ones and blocked nodes included."""
    ug = random_flowgraph(seed)
    rng = make_rng(seed)
    colls = [CPCollection(ug, rng)]
    if compute_population(ug):
        colls.append(LRRCollection(ug, rng))
    for coll in colls:
        coll.extend(count)
    sets = [rng.choice(ug.base.n, size=int(rng.integers(0, 4)),
                       replace=False).tolist() for _ in range(count % 30)]
    colls.append(collection_of(LRRCollection, ug, sets,
                               population=range(ug.base.n)))
    return colls


class TestGreedyMatchesReference:
    """One greedy pass picks what lazy greedy (CELF) picks, and its bound
    equals the bound replayed prefix by prefix."""

    @settings(derandomize=True, max_examples=80, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 14),
           st.sampled_from([0, 1, 7, 40, 1025]))
    def test_selection_and_bound(self, seed, k, count):
        for coll in random_collections(seed, count):
            blockers, trace = max_coverage(coll, k)
            selected, gains, coverages = celf_max_coverage(coll, k)
            assert list(blockers) == selected
            assert np.diff(trace.coverages).tolist() == gains
            assert trace.coverages == coverages
            assert coverages[-1] == coverage(coll, selected)
            assert cov_upper_opt(trace) == replayed_cov_upper_opt(
                coll, selected, coverages, k)


def seed_activation(ug):
    """{seed out-neighbor: its one-hop activation probability}."""
    return dict(zip(*(a.tolist() for a in ug.seed_activation)))


class TestDirectActivation:
    def test_single_edge(self):
        g = unify_seeds(Graph.from_edges(2, [0], [1], [0.4]), {0})
        assert seed_activation(g) == {1: pytest.approx(0.4)}

    def test_two_seed_parents(self):
        g = unify_seeds(
            Graph.from_edges(3, [0, 1], [2, 2], [0.5, 0.5]), {0, 1})
        assert seed_activation(g) == {2: pytest.approx(0.75)}

    def test_certain_edge(self):
        g = unify_seeds(Graph.from_edges(2, [0], [1], [1.0]), {0})
        assert seed_activation(g) == {1: 1.0}

    def test_non_neighbor_rejected(self):
        assert 2 not in seed_activation(fixtures.chain())

    def test_matches_the_edge_loop_float_for_float(self):
        # each product in edge order, as a loop over the in-edges takes it;
        # graphs with many seeds give nodes several seed in-edges, and
        # random flow graphs have blocked nodes
        graphs = [random_flowgraph(seed) for seed in range(60)] + [
            fixtures.mid_synthetic(make_rng(seed), n, 4 * n, seeds)
            for seed, (n, seeds) in enumerate([(300, 10), (100, 30)])]
        for ug in graphs:
            nodes, probs = ug.seed_activation
            base = ug.base
            heads = {int(v) for u in ug.seeds for v in
                     base.out_dst[base.out_ptr[u]:base.out_ptr[u + 1]]}
            want = sorted(v for v in heads - ug.seeds if not ug.blocked[v])
            assert nodes.tolist() == ug.seed_out_neighbors() == want
            for v, p in zip(nodes.tolist(), probs.tolist()):
                miss = 1.0
                for off in range(base.in_ptr[v], base.in_ptr[v + 1]):
                    if int(base.in_src[off]) in ug.seeds:
                        miss *= 1.0 - base.in_p[off]
                assert p == 1.0 - miss

    def test_blocked_neighbor_rejected(self):
        ug = block_nodes(unify_seeds(
            Graph.from_edges(3, [0, 0], [1, 2], [0.5, 0.5]), {0}), [1])
        assert seed_activation(ug) == {2: 0.5}


class TestOptLowerBound:
    def test_top_two(self):
        g = unify_seeds(Graph.from_edges(
            4, [0, 0, 0], [1, 2, 3], [1.0, 0.5, 0.2]), {0})
        assert opt_lower_bound(g, 2) == pytest.approx(1.5)

    def test_top_one(self):
        g = unify_seeds(Graph.from_edges(
            4, [0, 0, 0], [1, 2, 3], [1.0, 0.5, 0.2]), {0})
        assert opt_lower_bound(g, 1) == pytest.approx(1.0)

    def test_diamond_full(self):
        assert opt_lower_bound(fixtures.diamond(1.0), 2) == 2.0

    def test_k_beyond_on_sums_everything(self):
        g = unify_seeds(Graph.from_edges(3, [0, 0], [1, 2], [0.3, 0.4]),
                        {0})
        assert opt_lower_bound(g, 9) == pytest.approx(0.7)


class TestCovUpperOpt:
    def test_never_above_first_term(self):
        ug, coll = collection_from_sets([[1, 2], [2], [3], [1]])
        _, trace = max_coverage(coll, 2)
        state = coll.state()
        gains = state.gains_all(ug.n_total)
        first_term = np.sort(gains)[-2:].sum()
        assert cov_upper_opt(trace) <= first_term

    def test_single_node_covers_all(self):
        ug, coll = collection_from_sets([[1], [1, 2], [1, 3]])
        _, trace = max_coverage(coll, 1)
        assert cov_upper_opt(trace) == 3.0

    def test_dominates_every_k_subset(self):
        rng = make_rng(90)
        for trial in range(25):
            n_sets = int(rng.integers(3, 20))
            sets = [list(rng.choice(range(1, 7),
                                    size=int(rng.integers(0, 4)),
                                    replace=False))
                    for _ in range(n_sets)]
            ug, coll = collection_from_sets(sets, n_nodes=7)
            k = int(rng.integers(1, 4))
            _, trace = max_coverage(coll, k)
            bound = cov_upper_opt(trace)
            best = max(coverage(coll, list(combo)) for combo in
                       itertools.combinations(range(1, 7), k))
            assert bound >= best - 1e-9

    def test_greedy_achieves_classic_fraction_of_optimum(self):
        rng = make_rng(91)
        for trial in range(25):
            sets = [list(rng.choice(range(1, 7),
                                    size=int(rng.integers(0, 4)),
                                    replace=False))
                    for _ in range(int(rng.integers(3, 20)))]
            ug, coll = collection_from_sets(sets, n_nodes=7)
            k = int(rng.integers(1, 4))
            _, trace = max_coverage(coll, k)
            best = max(coverage(coll, list(combo)) for combo in
                       itertools.combinations(range(1, 7), k))
            assert trace.coverages[-1] >= (1 - 1 / math.e) * best - 1e-9


def assert_initial_size_matches_closed_form(fn, seed):
    # one schedule: the union bound over the blocker sets that differ
    # on the population, ln C(N_pop + k, k), and the tail ln(6 / delta)
    ug = fixtures.worked_example_small()
    params = AlgoParams(k=1, epsilon=0.3, delta=0.1)
    _, cert = fn(ug, params, make_rng(seed))
    pop, k = cert.population_size, params.k
    ln_choose = (math.lgamma(pop + k + 1) - math.lgamma(k + 1)
                 - math.lgamma(pop + 1))
    ln_tail = math.log(6 / params.delta)
    closed = 2 * (E_FRACTION * math.sqrt(ln_tail)
                  + math.sqrt(E_FRACTION * (ln_choose + ln_tail))) ** 2
    assert cert.schedule.samples_initial == pytest.approx(closed, rel=1e-9)


class TestSchedules:
    def test_initial_size_matches_closed_form_lower(self):
        assert_initial_size_matches_closed_form(lsbm, 3)

    def test_initial_size_matches_closed_form_upper(self):
        assert_initial_size_matches_closed_form(gsbm, 4)

    def test_both_sides_report_one_schedule(self):
        ug = fixtures.mid_synthetic(make_rng(0), 60, 240, 3)
        params = AlgoParams(k=3, epsilon=0.2, delta=0.1)
        (_, lower), (_, upper) = (fn(ug, params, make_rng(5))
                                  for fn in (lsbm, gsbm))
        keys = ("samples_initial", "samples_cap", "rounds_cap")
        assert [lower.as_dict()[key] for key in keys] \
            == [upper.as_dict()[key] for key in keys]
        assert lower.schedule == upper.schedule

    def test_unreachable_padding_leaves_the_lower_schedule(self):
        # nodes no seed reaches are in no sample, so they do not widen the
        # union bound: the padded graph reads the core's pairs and picks
        # the core's set
        params = AlgoParams(k=3, epsilon=0.2, delta=0.1)
        for seed in range(3):
            core, padded = padded_twin(seed, 400)
            (a, ca), (b, cb) = (lsbm(ug, params, make_rng(40 + seed))
                                for ug in (core, padded))
            assert ca.schedule == cb.schedule
            assert list(a) == list(b)
            assert ca.checks == cb.checks

    def test_cap_and_rounds_relation(self):
        ug = fixtures.worked_example_small()
        _, cert = lsbm(ug, AlgoParams(k=1, epsilon=0.2, delta=0.1),
                       make_rng(5))
        sched = cert.schedule
        assert sched.samples_cap >= sched.samples_initial
        assert sched.rounds_cap == max(1, math.ceil(
            math.log2(sched.samples_cap / sched.samples_initial)))
        assert sched.log_term == pytest.approx(
            math.log(3 * sched.rounds_cap / 0.1))


class TestLsbm:
    def test_small_on_returned_without_sampling(self):
        ug = fixtures.worked_example_small()  # ON = {1, 2}
        blockers, cert = lsbm(ug, AlgoParams(k=5), make_rng(0))
        assert sorted(blockers) == [1, 2]
        assert cert.early_exit
        assert cert.samples_primary == 0

    def test_doubling_sample_counts(self):
        # Round r reads N_r pairs on each side: whole batches, at least the
        # schedule's samples_initial * 2^(r-1) and less than one batch
        # more.  A round with the pairs of the round before is not checked.
        ug = fixtures.mid_synthetic(make_rng(0), 60, 240, 3)
        params = AlgoParams(k=3, epsilon=0.05, delta=0.1)
        _, cert = lsbm(ug, params, make_rng(17))
        sched = cert.schedule
        counts = {check.round: check.samples_primary for check in cert.checks}
        assert len(counts) >= 3 and max(counts) == cert.rounds
        for r, count in counts.items():
            want = sched.samples_initial * 2 ** (r - 1)
            assert count % _BATCH == 0
            assert want <= count < want + _BATCH
        for r in range(2, cert.rounds + 1):
            want = sched.samples_initial * 2 ** (r - 1)
            same = math.ceil(want / _BATCH) == math.ceil(want / 2 / _BATCH)
            assert (r in counts) == (not same or r == sched.rounds_cap)
        assert all(c.samples_validation == c.samples_primary
                   for c in cert.checks)
        assert cert.samples_primary == cert.samples_validation \
            == counts[cert.rounds]

    def test_deterministic_given_seed(self):
        ug = fixtures.worked_example_small()
        params = AlgoParams(k=1, epsilon=0.2, delta=0.1)
        a, ca = lsbm(ug, params, make_rng(7))
        b, cb = lsbm(ug, params, make_rng(7))
        assert list(a) == list(b)
        assert ca.samples_primary == cb.samples_primary
        assert ca.ratio == cb.ratio

    def test_isolated_seed_early_exit(self):
        # no out-neighbors at all: the trivial return fires, no sampling
        g = unify_seeds(Graph.from_edges(2, [0], [1]), {1})
        blockers, cert = lsbm(g, AlgoParams(k=1), make_rng(8))
        assert list(blockers) == []
        assert cert.early_exit and cert.samples_primary == 0

    def test_zero_spread_returns_empty(self):
        # two zero-probability exits keep |ON| > k but force zero spread
        g = unify_seeds(
            Graph.from_edges(3, [0, 0], [1, 2], [0.0, 0.0]), {0})
        blockers, cert = lsbm(g, AlgoParams(k=1), make_rng(9))
        assert list(blockers) == []
        assert cert.population_size == 0

    def test_guarantee_smoke(self):
        ug = fixtures.worked_example_small()
        model = ExactModel(ug)
        params = AlgoParams(k=1, epsilon=0.2, delta=0.1, beta=0.1)
        _, opt = model.optimal_blockers(1, "lower")
        target = (E_FRACTION - params.epsilon) * opt
        rng = make_rng(10)
        hits = sum(
            model.lower_bound(lsbm(ug, params, rng)[0]) >= target - 1e-9
            for _ in range(25))
        assert hits >= 22


class TestGsbm:
    def test_chain_junction(self):
        blockers, _ = gsbm(fixtures.chain(), AlgoParams(k=1), make_rng(11))
        assert list(blockers) == [1]

    def test_diamond_branch_value(self):
        ug = fixtures.diamond(1.0)
        model = ExactModel(ug)
        blockers, _ = gsbm(ug, AlgoParams(k=1, delta=0.1), make_rng(12))
        assert list(blockers)[0] in (1, 2)
        assert model.upper_bound(blockers) == 2.0

    def test_empty_population_returns_empty_set(self):
        g = unify_seeds(Graph.from_edges(3, [0, 0], [1, 2], [0.0, 0.0]),
                        {0})
        blockers, cert = gsbm(g, AlgoParams(k=1), make_rng(13))
        assert list(blockers) == []
        assert cert.population_size == 0

    def test_guarantee_smoke(self):
        ug = fixtures.worked_example_small()
        model = ExactModel(ug)
        params = AlgoParams(k=1, epsilon=0.2, delta=0.1)
        _, opt = model.optimal_blockers(1, "upper")
        target = (E_FRACTION - params.epsilon) * opt
        rng = make_rng(14)
        hits = sum(
            model.upper_bound(gsbm(ug, params, rng)[0]) >= target - 1e-9
            for _ in range(25))
        assert hits >= 22

    def test_deterministic_given_seed(self):
        ug = fixtures.worked_example_small()
        params = AlgoParams(k=1, epsilon=0.2, delta=0.1)
        a, ca = gsbm(ug, params, make_rng(15))
        b, cb = gsbm(ug, params, make_rng(15))
        assert list(a) == list(b) and ca.samples_primary == cb.samples_primary


class TestStopReason:
    def test_ratio_reason_matches_certified_ratio(self):
        ug = fixtures.worked_example_small()
        params = AlgoParams(k=1, epsilon=0.2, delta=0.1)
        for i in range(5):
            for fn in (lsbm, gsbm):
                _, cert = fn(ug, params, make_rng(30 + i))
                reached = cert.ratio >= E_FRACTION - params.epsilon
                assert cert.stop_reason == ("ratio" if reached
                                            else "rounds_cap")
                assert not cert.early_exit

    def test_rounds_cap_when_ratio_never_clears(self, monkeypatch):
        ug = fixtures.worked_example_small()
        monkeypatch.setattr(optimize, "_sigma_lower_term",
                            lambda *args: 0.0)
        _, cert = _certified_maximize(
            "upper", ug, AlgoParams(k=1), make_rng(17), LRRCollection)
        assert cert.stop_reason == "rounds_cap"
        assert cert.rounds == cert.schedule.rounds_cap
        assert cert.as_dict()["stop_reason"] == "rounds_cap"

    def test_early_exit_reason(self):
        ug = fixtures.worked_example_small()  # ON = {1, 2}
        for fn in (lsbm, gsbm):
            _, cert = fn(ug, AlgoParams(k=2), make_rng(0))
            assert cert.stop_reason == "early_exit" and cert.early_exit
            assert cert.as_dict()["early_exit"] is True


class TestCertificateSoundness:
    def test_sigma_bounds_hold_with_high_probability(self):
        # sigma_lower should rarely exceed the true normalized value of the
        # returned set; sigma_upper should rarely undercut the optimum.
        ug = fixtures.worked_example_small()
        model = ExactModel(ug)
        _, opt = model.optimal_blockers(1, "lower")
        params = AlgoParams(k=1, epsilon=0.2, delta=0.1, beta=0.1)
        rng = make_rng(16)
        low_bad = up_bad = 0
        runs = 60
        for _ in range(runs):
            blockers, cert = lsbm(ug, params, rng)
            if cert.sigma_lower > model.lower_bound(blockers) + 1e-9:
                low_bad += 1
            if cert.sigma_upper < opt - 1e-9:
                up_bad += 1
        # per-round failure budget is delta/(3 * rounds_cap); across runs
        # allow generous binomial noise on top
        assert low_bad <= 6
        assert up_bad <= 6

    def test_params_validation(self):
        with pytest.raises(ValueError, match="k must"):
            AlgoParams(k=0).validate()
        with pytest.raises(ValueError, match="epsilon"):
            AlgoParams(k=1, epsilon=1.5).validate()
        with pytest.raises(ValueError, match="beta"):
            AlgoParams(k=1, beta=0.0).validate()
        with warnings.catch_warnings():     # beta no longer warns
            warnings.simplefilter("error")
            AlgoParams(k=1, epsilon=0.05, beta=0.2).validate()


class TestRoundLog:
    @pytest.mark.parametrize("maximize, seed", [(lsbm, 17), (gsbm, 18)])
    def test_one_debug_line_per_round(self, maximize, seed, caplog):
        # This input needs three checked rounds on each side; the rounds
        # whose pairs equal the round before's log nothing.
        ug = fixtures.mid_synthetic(make_rng(0), 60, 240, 3)
        params = AlgoParams(k=3, epsilon=0.05, delta=0.1)
        with caplog.at_level(logging.DEBUG, logger="imin.optimize"):
            _, cert = maximize(ug, params, make_rng(seed))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "imin.optimize"]
        assert len(lines) == len(cert.checks) >= 2
        assert cert.checks[-1].round == cert.rounds > len(cert.checks)
        for line, check in zip(lines, cert.checks):
            assert line.startswith(f"{cert.side} round {check.round}: "
                                   f"samples {check.samples_primary} "
                                   f"primary, {check.samples_validation} "
                                   "validation;")
            assert line.endswith(f"ratio {check.ratio:.4f}, "
                                 f"stopped {check.stopped}")
        assert [c.stopped for c in cert.checks] \
            == [False] * (len(lines) - 1) + [True]
