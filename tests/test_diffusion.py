import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imin import diffusion, fixtures
from imin.diffusion import (_BATCH, _BET_CAP, _BETS, _FIRST_BATCH,
                            _SEEN_BYTES, _BettingStop, _batch_sizes,
                            _batch_spreads, _distinct_masks, _forward_levels,
                            _slices, _tighten, ic_spread_samples,
                            reverse_live_edges,
                            reachable_in_realization,
                            reverse_reach_counts, sample_realization,
                            spread_samples, stopping_rule_spread,
                            stopping_rule_spreads)
from imin.graph import Graph, assign_constant_probability, unify_seeds
from imin.oracle import ExactModel
from imin.sampling import _cp_batch, _pair_batch, compute_population

from conftest import (make_rng, random_flowgraph, reference_forward_levels,
                      reference_reverse_live_edges,
                      reference_reverse_reach_counts, reference_slices,
                      tiny_with_dead_edges)


def simulate_ic(g, blockers=None, rng=None):
    """Reference forward cascade, one frontier at a time in pure Python.

    Returns the number of activated non-seed nodes; the vectorized engine
    must match its distribution.
    """
    blocked = g.blocked_with(blockers)
    active = np.zeros(g.n_total, dtype=bool)
    active[g.s] = True
    frontier = [g.s]
    count = 0
    while frontier:
        nxt = []
        for u in frontier:
            lo, hi = g.out_ptr[u], g.out_ptr[u + 1]
            if hi == lo:
                continue
            draws = rng.random(hi - lo)
            for off in range(lo, hi):
                v = g.out_dst[off]
                if active[v] or blocked[v]:
                    continue
                if draws[off - lo] < g.out_p[off]:
                    active[v] = True
                    nxt.append(v)
                    if not g.uncounted[v]:
                        count += 1
        frontier = nxt
    return count


def single_edge(p):
    return unify_seeds(Graph.from_edges(2, [0], [1], [p]), {0})


def spread_distribution(model):
    """Exact pmf of the non-seed spread from the enumeration oracle."""
    keep = ~model.ug.uncounted
    pmf = {}
    for _, _, prob, reach0 in model._chunks():
        sizes = (reach0 & keep).sum(axis=1)
        for size, pr in zip(sizes, prob):
            pmf[int(size)] = pmf.get(int(size), 0.0) + float(pr)
    return pmf


class TestSampleRealization:
    def test_certain_edges_all_live(self, rng):
        ug = fixtures.diamond(1.0)
        phi = sample_realization(ug, None, rng)
        assert phi.live.all()
        # s plus all four nodes
        assert reachable_in_realization(phi).sum() == 5

    def test_zero_probability_edges_dead(self, rng):
        ug = single_edge(0.0)
        phi = sample_realization(ug, None, rng)
        # only the unification edge s->seed survives
        assert reachable_in_realization(phi).sum() == 2

    def test_worked_realization_is_reachable_draw(self):
        # The fixed worked-example draw must appear among sampled
        # realizations within a reasonable number of tries.
        ug = fixtures.worked_example_small()
        want = fixtures.worked_example_small_realization(ug)
        rng = make_rng(2024)
        for _ in range(2000):
            phi = sample_realization(ug, None, rng)
            if np.array_equal(phi.live, want.live):
                break
        else:
            pytest.fail("fixed realization never sampled")
        reached = np.flatnonzero(reachable_in_realization(want)).tolist()
        assert reached == [0, 1, 2, 3, 5, 6, ug.s]

    def test_blocked_targets_never_live(self, rng):
        ug = fixtures.diamond(1.0)
        phi = sample_realization(ug, [3], rng)
        assert not reachable_in_realization(phi)[3]


class TestSimulateIC:
    def test_deterministic_chain(self, rng):
        assert simulate_ic(fixtures.chain(), None, rng) == 2

    def test_isolated_seed(self, rng):
        g = unify_seeds(Graph.from_edges(2, [1], [0]), {0})
        assert simulate_ic(g, None, rng) == 0

    def test_diamond_fully_blocked(self, rng):
        assert simulate_ic(fixtures.diamond(1.0), [1, 2], rng) == 0

    def test_matches_batch_engine_distribution(self):
        ug = fixtures.diamond(0.6)
        rng = make_rng(5)
        singles = np.array([simulate_ic(ug, None, rng) for _ in range(4000)])
        batch = ic_spread_samples(ug, None, 4000, make_rng(6))
        for val in range(4):
            a = (singles == val).mean()
            b = (batch == val).mean()
            assert abs(a - b) < 5 * math.sqrt(0.25 / 4000) + 1e-12


class TestLiveEdgeEquivalence:
    def test_realization_sizes_match_exact_distribution(self):
        ug = fixtures.diamond(0.5)
        model = ExactModel(ug)
        pmf = spread_distribution(model)
        rng = make_rng(7)
        keep = ~ug.uncounted
        n = 6000
        counts = {}
        for _ in range(n):
            phi = sample_realization(ug, None, rng)
            size = int((reachable_in_realization(phi) & keep).sum())
            counts[size] = counts.get(size, 0) + 1
        for size, p in pmf.items():
            freq = counts.get(size, 0) / n
            assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n) + 1e-9

    def test_forward_cascade_matches_exact_distribution(self):
        ug = fixtures.diamond(0.5)
        pmf = spread_distribution(ExactModel(ug))
        samples = ic_spread_samples(ug, None, 6000, make_rng(8))
        for size, p in pmf.items():
            freq = (samples == size).mean()
            assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / 6000) + 1e-9


class TestMonteCarlo:
    def test_deterministic_chain_exact(self):
        assert ic_spread_samples(fixtures.chain(), None, 50,
                                 make_rng(1)).mean() == 2.0

    def test_single_half_edge(self):
        est = ic_spread_samples(single_edge(0.5), None, 100_000,
                                make_rng(2)).mean()
        assert abs(est - 0.5) < 0.01

    def test_diamond_against_oracle(self):
        ug = fixtures.diamond(0.5)
        true = ExactModel(ug).spread()
        n = 40_000
        samples = ic_spread_samples(ug, None, n, make_rng(3))
        sigma = samples.std() / math.sqrt(n)
        assert abs(samples.mean() - true) < 3 * sigma + 1e-12


class TestReverseReachCounts:
    """n * count[v] / samples estimates the spread of the seed set {v},
    v itself counted."""

    SAMPLES = 5000  # not a multiple of the batch, so a short batch runs

    def assert_unbiased(self, g, seed):
        counts = reverse_reach_counts(g, self.SAMPLES, make_rng(seed))
        for v in range(g.n):
            exact = ExactModel(unify_seeds(g, {v})).spread() + 1.0
            p = exact / g.n
            sigma = g.n * math.sqrt(p * (1.0 - p) / self.SAMPLES)
            est = g.n * counts[v] / self.SAMPLES
            assert abs(est - exact) <= 4.0 * sigma + 1e-9, (v, est, exact)

    def test_within_four_sigma_of_exact_spread(self):
        for i in range(20):
            g = fixtures.random_tiny(make_rng(500 + i)).base
            self.assert_unbiased(g, 600 + i)

    def test_certain_and_dead_edges(self):
        # 0 -> 1 -> 2 always fires and 2 -> 3 never does: every set holds
        # 0 or is {3}, so any mis-drawn coin shows
        g = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 0.0])
        counts = reverse_reach_counts(g, self.SAMPLES, make_rng(5))
        assert counts[0] + counts[3] == self.SAMPLES
        assert counts[0] >= counts[1] >= counts[2]
        self.assert_unbiased(g, 6)

    def test_same_seed_same_counts(self):
        g = fixtures.mid_synthetic(make_rng(3), 60, 240).base
        a = reverse_reach_counts(g, self.SAMPLES, make_rng(9))
        b = reverse_reach_counts(g, self.SAMPLES, make_rng(9))
        assert np.array_equal(a, b)


class TestCouplingMonotonicity:
    def test_blocker_never_increases_spread_on_shared_draws(self):
        ug = fixtures.worked_example_small()
        keep = ~ug.uncounted
        for i in range(200):
            phi_free = sample_realization(ug, None, make_rng(1000 + i))
            phi_blocked = sample_realization(ug, [3], make_rng(1000 + i))
            assert (reachable_in_realization(phi_blocked) & keep).sum() \
                <= (reachable_in_realization(phi_free) & keep).sum()


class TestStoppingRule:
    def test_zero_variance_chain(self):
        for i in range(20):
            est = stopping_rule_spread(fixtures.chain(), None, 0.1, 0.05,
                                       make_rng(i))
            assert 1.8 <= est.value <= 2.2

    def test_half_edge_coverage(self):
        gamma, delta = 0.1, 0.01
        ug = single_edge(0.5)
        hits = 0
        runs = 1000
        rng = make_rng(99)
        for _ in range(runs):
            est = stopping_rule_spread(ug, None, gamma, delta, rng)
            if 0.45 <= est.value <= 0.55:
                hits += 1
        assert hits >= 990

    def test_diamond_coverage_against_oracle(self):
        ug = fixtures.diamond(0.5)
        true = ExactModel(ug).spread()
        gamma, delta = 0.1, 0.05
        hits, runs = 0, 400
        rng = make_rng(123)
        for _ in range(runs):
            est = stopping_rule_spread(ug, None, gamma, delta, rng)
            if (1 - gamma) * true <= est.value <= (1 + gamma) * true:
                hits += 1
        slack = 3 * math.sqrt(delta * (1 - delta) / runs)
        assert hits / runs >= 1 - delta - slack

    def test_exact_zero_flag(self):
        g = unify_seeds(Graph.from_edges(2, [0], [1]), {1})
        est = stopping_rule_spread(g, None, 0.1, 0.1, make_rng(4))
        assert est.exact_zero and est.value == 0.0
        assert est.samples_used == 0

    def test_zero_after_blocking(self):
        est = stopping_rule_spread(fixtures.chain(), [1], 0.1, 0.1,
                                   make_rng(5))
        assert est.exact_zero and est.value == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            stopping_rule_spread(fixtures.chain(), None, 0.0, 0.1,
                                 make_rng(6))
        with pytest.raises(ValueError):
            stopping_rule_spread(fixtures.chain(), None, 0.1, 1.0,
                                 make_rng(6))


class TestBettingContract:
    def test_within_gamma_of_exact_spread_with_random_blockers(self):
        gamma, delta = 0.1, 0.1
        hits = runs = 0
        for seed in range(120):
            ug, blockers = tiny_with_dead_edges(seed)
            rng = make_rng(900 + seed)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            other = [int(v) for v in rng.choice(
                cands, size=int(rng.integers(0, min(2, len(cands)) + 1)),
                replace=False)]
            tiny = fixtures.random_tiny(rng)
            for g, b in ((ug, blockers), (ug, other), (tiny, [])):
                true = ExactModel(g).spread(b)
                if true == 0.0:
                    continue
                est = stopping_rule_spread(g, b, gamma, delta, rng)
                runs += 1
                hits += (1 - gamma) * true <= est.value <= (1 + gamma) * true
        assert runs >= 200
        slack = 3 * math.sqrt(delta * (1 - delta) / runs)
        assert hits / runs >= 1 - delta - slack

    def test_low_variance_spread_stops_within_two_batches(self):
        # normalized spreads here have variance ~0.007 at mean ~0.35, so
        # two batches suffice; a rule that assumes the variance of a
        # Bernoulli variable needs about 2,600 cascades
        ug = fixtures.mid_synthetic(make_rng(0), 300, 1200, 10)
        for i in range(5):
            est = stopping_rule_spread(ug, None, 0.1, 0.1, make_rng(i))
            assert est.samples_used <= 2048

    def test_residual_closes_at_512_trials(self):
        # the residual of `lhga`'s five blockers on a 150-node core: an
        # empirical-Bernstein rule with a union bound over batches needs
        # 3072 cascades for each of these runs; the betting sequence needs
        # neither the union bound nor a range term, and closes at its
        # second check, 512 trials
        core = fixtures.mid_synthetic(make_rng(5), 150, 600, 3)
        blockers = [5, 43, 35, 27, 22]
        for i in range(4):
            est = stopping_rule_spread(core, blockers, 0.1, 0.1, make_rng(i))
            assert est.samples_used == 4 * _FIRST_BATCH == 512
            assert 0.0 < est.low <= est.value <= est.high
            assert (1 - 0.1) * est.high <= (1 + 0.1) * est.low


def reference_log_capital(x, w, grid):
    """log K+(m) of values `x` with counts `w` at each m of `grid`, as
    `stopping_rule_spreads` documents it: the log of the mean over the
    bets of prod_i (1 + min(bet, c / m) (x_i - m))^w_i, every bet its own
    term."""
    m = np.asarray(grid, dtype=float)[:, None, None]
    with np.errstate(divide="ignore"):
        lam = np.minimum(_BETS[:, None], _BET_CAP / m)
    logs = (np.log1p(lam * (x - m)) * w).sum(axis=2)
    return np.logaddexp.reduce(logs, axis=1) - math.log(len(_BETS))


def reference_lower_end(x, w, thr, points=129, levels=6):
    """The lower end of {m : log K+(m) < thr} by dense grids: the first
    accepted point of a grid over [0, mean], then of a grid between it and
    the rejected point before it, `levels` times over; the result is
    within mean / (points - 1) ** levels above the exact end."""
    lo, hi = 0.0, float(x @ w / w.sum())
    for _ in range(levels):
        grid = np.linspace(lo, hi, points)
        first = int(np.argmax(reference_log_capital(x, w, grid) < thr))
        if first == 0:
            return grid[0]
        lo, hi = grid[first - 1], grid[first]
    return hi


def betting_reference(batches, n_reach, delta):
    """The running interval [LB, UB] of the betting confidence sequence,
    on the mean normalized spread, after each array of spreads in
    `batches`, from dense grids: K-(m) of spreads x is K+(1 - m) of
    1 - x."""
    thr = math.log(2 / delta)
    counts = np.zeros(n_reach + 1)
    low, high = 0.0, 1.0
    for spreads in batches:
        counts += np.bincount(spreads, minlength=n_reach + 1)
        values = np.flatnonzero(counts)
        x, w = values / n_reach, counts[values]
        low = max(low, reference_lower_end(x, w, thr))
        high = min(high, 1.0 - reference_lower_end(1.0 - x, w, thr))
        yield low, high


def schedule(g, runs, total):
    """The batch sizes of a sequential estimate of `runs` sets on `g`
    (`_batch_sizes`) whose sum first reaches `total`."""
    sizes = []
    for size in _batch_sizes(g, runs):
        if sum(sizes) >= total:
            return sizes
        sizes.append(size)


def replay_batches(g, sets, sizes, rng):
    """The rows of `spread_samples(g, sets, sum(sizes), rng)` as a
    sequential estimate draws them: one search per batch of `sizes`."""
    masks, row = _distinct_masks(g, sets)
    return np.hstack([_batch_spreads(g, masks, size, rng)
                      for size in sizes])[row]


def betting_stop_reference(rows, n_reach, gamma, delta, sizes):
    """The betting stop replayed on a fixed row of spreads, one batch of
    `sizes` at a time: (value, samples, half-width of the interval, in
    spread units) at the first batch whose interval closes, or None.  The
    value is the mean of the spreads so far, clipped to the values within
    a factor (1 +/- gamma) of every point of the interval; spreads of one
    value stop only at an interval that needs no clip."""
    ends = np.cumsum(sizes)
    batches = np.split(rows, ends[ends < len(rows)])
    for end, (low, high) in zip(
            ends, betting_reference(batches, n_reach, delta)):
        if (1 + gamma) * low >= (1 - gamma) * high:
            lo, hi = max(low, (1 - gamma) * high), min(high, (1 + gamma) * low)
            mean = rows[:end].mean() / n_reach
            value = min(max(mean, lo), hi)
            if value == mean or len(set(rows[:end].tolist())) > 1:
                return value * n_reach, end, 0.5 * (high - low) * n_reach
    return None


def assert_matches_reference(est, ref):
    """`est` stopped where the replayed reference did, with its value
    within 1e-3 of the reference interval's half-width."""
    value, samples, half = ref
    assert est.samples_used == samples
    assert est.value == pytest.approx(value, rel=0, abs=1e-3 * half)


class TestBettingEnds:
    """`_tighten`'s root searches against the dense-grid reference: the
    computed interval holds the reference's after every batch, and each
    end lies within 1e-3 of the reference interval's half-width."""

    @settings(derandomize=True, max_examples=60, deadline=None,
              database=None)
    @given(st.integers(1, 300),
           st.sampled_from(["random", "zeros", "full", "single"]),
           st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_ends_hold_the_dense_grid_interval(self, n_reach, kind,
                                               batches, seed):
        rng = make_rng(seed)
        if kind == "random":
            support = rng.choice(n_reach + 1, replace=False, size=int(
                rng.integers(1, min(n_reach + 1, 20) + 1)))
        else:
            support = [{"zeros": 0, "full": n_reach,
                        "single": int(rng.integers(0, n_reach + 1))}[kind]]
        probs = rng.dirichlet(np.ones(len(support)))
        rows = [rng.choice(support, p=probs, size=int(rng.integers(1, 2049)))
                for _ in range(batches)]
        rule = _BettingStop(n_reach)
        for spreads, (low, high) in zip(
                rows, betting_reference(rows, n_reach, 0.1)):
            rule.add(spreads)
            _tighten([rule], 0.1)
            assert rule.low <= low and rule.high >= high
            tol = 1e-3 * 0.5 * (high - low)
            assert low - rule.low <= tol and rule.high - high <= tol

    def test_sets_searched_together_as_alone(self):
        # the ends of several sets come from one search; each set's
        # interval is what it gets searched alone
        ug = fixtures.mid_synthetic(make_rng(1), 60, 240, 3)
        cands = [v for v in range(ug.base.n) if v not in ug.seeds]
        sets = [None, ug.seed_out_neighbors()[:1], cands[5:7]]
        rows = spread_samples(ug, sets, 2 * _BATCH, make_rng(2))
        n_reach = [int(np.count_nonzero(r & ~ug.uncounted))
                   for r in ug.positive_reach(np.stack(
                       [ug.blocked_with(b) for b in sets]))]
        together = [_BettingStop(n) for n in n_reach]
        alone = [_BettingStop(n) for n in n_reach]
        for t in (0, _BATCH):
            for rule, one, row in zip(together, alone, rows):
                rule.add(row[t:t + _BATCH])
                one.add(row[t:t + _BATCH])
                _tighten([one], 0.1)
            _tighten(together, 0.1)
            for rule, one in zip(together, alone):
                assert (rule.low, rule.high) == pytest.approx(
                    (one.low, one.high), rel=0, abs=1e-9)


class TestAnytimeCoverage:
    """The betting sequence's running interval holds the exact mean at
    every batch of a run at once, not only where the run stops."""

    BATCHES = 4

    def covered(self, ug, blockers, delta, runs, rng):
        """Runs, of `runs`, whose interval held the exact normalized mean
        after each of their `BATCHES` batches; the spread must not be
        zero."""
        n_reach = int(np.count_nonzero(
            ug.positive_reach(ug.blocked_with(blockers)) & ~ug.uncounted))
        exact = ExactModel(ug).spread(blockers) / n_reach
        hits = 0
        for _ in range(runs):
            rule, held = _BettingStop(n_reach), True
            for _ in range(self.BATCHES):
                rule.add(ic_spread_samples(ug, blockers, _BATCH, rng))
                _tighten([rule], delta)
                held &= rule.low <= exact <= rule.high
            hits += held
        return hits

    @staticmethod
    def assert_rate(hits, runs, delta):
        slack = 3 * math.sqrt(delta * (1 - delta) / runs)
        assert hits / runs >= 1 - delta - slack

    @pytest.mark.parametrize("delta", [0.1, 0.02])
    def test_diamond(self, delta):
        runs = 150
        hits = self.covered(fixtures.diamond(0.5), None, delta, runs,
                            make_rng(31))
        self.assert_rate(hits, runs, delta)

    @pytest.mark.parametrize("delta", [0.1, 0.02])
    def test_random_tiny(self, delta):
        hits = runs = 0
        rng = make_rng(37)
        while runs < 150:
            ug = fixtures.random_tiny(rng)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            blockers = [int(v) for v in rng.choice(
                cands, size=int(rng.integers(0, 2)), replace=False)]
            if ExactModel(ug).spread(blockers) == 0.0:
                continue
            hits += self.covered(ug, blockers, delta, 5, rng)
            runs += 5
        self.assert_rate(hits, runs, delta)


def with_padding(ug, pad, edges=()):
    """`ug`'s base graph plus `pad` new nodes, joined only by `edges`
    (pairs of padding offsets, probability 0.5) and one edge from every
    padding node into the original graph, so no seed reaches them."""
    src, dst, p = ug.base.edge_array()
    n = ug.base.n
    extra = [(n + a, n + b) for a, b in edges]
    extra += [(n + a, a % n) for a in range(pad)]
    src = np.concatenate([src, [u for u, _ in extra]]).astype(np.int64)
    dst = np.concatenate([dst, [v for _, v in extra]]).astype(np.int64)
    p = np.concatenate([p, np.full(len(extra), 0.5)])
    return unify_seeds(Graph.from_edges(n + pad, src, dst, p), ug.seeds)


class TestStoppingRuleIgnoresUnreachableNodes:
    def test_padding_leaves_estimate_and_trials_unchanged(self):
        core = fixtures.mid_synthetic(make_rng(0), 60, 240, 3)
        cycle = [(i, (i + 1) % 8) for i in range(8)]
        padded = with_padding(core, 40, cycle + [(8, 9), (9, 10)])
        core = with_padding(core, 0)   # the same core through from_edges
        cands = [v for v in range(60) if v not in core.seeds]
        for i in range(10):
            blockers = [] if i % 2 else cands[2 * i:2 * i + 2]
            a = stopping_rule_spread(core, blockers, 0.1, 0.1, make_rng(i))
            b = stopping_rule_spread(padded, blockers, 0.1, 0.1,
                                     make_rng(i))
            assert (a.value, a.samples_used) == (b.value, b.samples_used)

    def test_diamond_with_isolated_nodes_coverage_against_oracle(self):
        # fixtures.diamond(0.5) plus 36 isolated nodes
        ug = unify_seeds(Graph.from_edges(40, [0, 0, 1, 2], [1, 2, 3, 3],
                                          [0.5] * 4), {0})
        true = ExactModel(ug).spread()
        gamma, delta = 0.1, 0.05
        hits, runs = 0, 400
        rng = make_rng(321)
        for _ in range(runs):
            est = stopping_rule_spread(ug, None, gamma, delta, rng)
            if (1 - gamma) * true <= est.value <= (1 + gamma) * true:
                hits += 1
        slack = 3 * math.sqrt(delta * (1 - delta) / runs)
        assert hits / runs >= 1 - delta - slack


class TestDeterminism:
    def test_same_seed_same_samples(self):
        ug = fixtures.worked_example_small()
        a = ic_spread_samples(ug, None, 500, make_rng(77))
        b = ic_spread_samples(ug, None, 500, make_rng(77))
        assert np.array_equal(a, b)


def assert_same_arrays(got, want):
    """Two sequences of array tuples are equal, array by array."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for x, y in zip(g, w):
            assert x.dtype == y.dtype and np.array_equal(x, y)


class TestLevelStepMatchesReference:
    """Each batched search yields what the boolean-mask reference level
    step yields, and leaves its generator in the same state, so the coins
    were drawn in the same count and order."""

    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 7, 1025]))
    def test_forward_levels(self, seed, batch):
        ug = random_flowgraph(seed)
        got, want = make_rng(seed), make_rng(seed)
        assert_same_arrays(
            _forward_levels(ug, ug.blocked, batch, got),
            reference_forward_levels(ug, ug.blocked, batch, want))
        assert got.bit_generator.state == want.bit_generator.state
        live = make_rng(seed + 1).random(ug.m_total) < 0.5
        assert_same_arrays(
            _forward_levels(ug, ug.blocked, 1, None, live=live),
            reference_forward_levels(ug, ug.blocked, 1, None, live=live))

    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 7, 1025]))
    def test_reverse_live_edges(self, seed, batch):
        ug = random_flowgraph(seed)
        population = compute_population(ug)
        if not population:
            return
        targets = make_rng(seed + 1).choice(population, size=batch)
        # the search runs in the reach graph's ids; its nodes map back
        rg = ug.reach_graph
        got, want = make_rng(seed), make_rng(seed)
        trial, src, dst = reverse_live_edges(rg, rg.row[targets], got)
        assert_same_arrays([(trial, rg.node[src], rg.node[dst])],
                           [reference_reverse_live_edges(ug, targets, want)])
        assert got.bit_generator.state == want.bit_generator.state

    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 7, 1025]))
    def test_reverse_reach_counts(self, seed, batch):
        g = random_flowgraph(seed).base
        got, want = make_rng(seed), make_rng(seed)
        assert_same_arrays([[reverse_reach_counts(g, batch, got)]],
                           [[reference_reverse_reach_counts(g, batch, want)]])
        assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("n", [400, 1500])
    def test_reverse_reach_counts_across_batches(self, n):
        # batches of 2621 sets at n=400 (the bitmap budget) and of _BATCH
        # at n=1500; each count ends in a short batch
        g = fixtures.mid_synthetic(make_rng(n), n, 4 * n, 5).base
        samples = 2 * max(_BATCH, _SEEN_BYTES // n) + 5
        got, want = make_rng(1), make_rng(1)
        assert_same_arrays(
            [[reverse_reach_counts(g, samples, got)]],
            [[reference_reverse_reach_counts(g, samples, want)]])
        assert got.bit_generator.state == want.bit_generator.state


class TestBoundedSteps:
    """A level whose examined CSR entries exceed `_EDGE_BUDGET` is
    examined in steps, and yields, returns and draws what one step
    would."""

    TRIALS = 50

    @classmethod
    def outputs(cls, ug, rng):
        """The arrays every lazy-coin search returns or yields on `ug`,
        one after another, and the generator's state after them."""
        a, b, c = (int(v) for v in ug.seed_out_neighbors()[:3])
        # one set, a nested pair, then three sets that do not nest
        out = [spread_samples(ug, sets, cls.TRIALS, rng)
               for sets in ([None], [None, [a, b]], [None, [a], [b, c]])]
        population = np.asarray(compute_population(ug))
        for targets, lrr, chains in _pair_batch(ug, population, cls.TRIALS,
                                                rng):
            out += [targets, *lrr, *chains]
        for entries in _cp_batch(ug, cls.TRIALS, rng):
            out += list(entries)
        out.append(reverse_reach_counts(ug.base, cls.TRIALS, rng))
        masks = np.stack([ug.blocked_with(s) for s in ([a], [b], [a, c])])
        out += [*ug.positive_reach(masks), ug.positive_reach()]
        # one trial: the seeds' level is their out-edges alone
        for level in _forward_levels(ug, ug.blocked, 1, rng):
            out += list(level)
        return out, rng.bit_generator.state

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_steps_split_the_ranges_in_order(self, monkeypatch, budget):
        monkeypatch.setattr(diffusion, "_EDGE_BUDGET", budget)
        rng = make_rng(budget)
        for _ in range(200):
            lo = rng.integers(0, 50, size=int(rng.integers(0, 12)))
            hi = lo + rng.integers(0, 2 * budget + 2, size=len(lo))
            steps = list(_slices(lo, hi))
            total = int((hi - lo).sum())
            assert len(steps) == max(1, -(-total // budget))
            assert all(len(idx) <= budget for idx, _ in steps)
            assert_same_arrays(
                [tuple(np.concatenate(a) for a in zip(*steps))],
                [reference_slices(lo, hi)])

    @pytest.mark.parametrize("budget", [1, 7])
    def test_same_bytes_as_one_step(self, monkeypatch, budget):
        ug = fixtures.mid_synthetic(make_rng(0), 30, 150, 2)
        # some node's out-edges, and some node's in-edges, span steps
        assert np.diff(ug.out_ptr).max() > 7
        assert np.diff(ug.base.in_ptr).max() > 7
        want, want_state = self.outputs(ug, make_rng(1))
        monkeypatch.setattr(diffusion, "_EDGE_BUDGET", budget)
        got, got_state = self.outputs(ug, make_rng(1))
        assert_same_arrays([got], [want])
        assert got_state == want_state


def traced_peak(fn):
    """Peak bytes that `fn()` allocates, by tracemalloc: unlike a timing,
    the same on every run."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_forward_batch(self):
        # the batch's `seen` bitmap is 2 MB.  Examining each level whole
        # peaked at 16-17 MB; bounded steps peak near 8 MB
        ug = fixtures.mid_synthetic(make_rng(1), 2000, 8000, 20)
        blockers = ug.seed_out_neighbors()[:10]
        assert traced_peak(lambda: spread_samples(
            ug, [None, blockers], _BATCH, make_rng(2))) < 12e6

    def test_reverse_reach_counts_holds_one_bitmap(self):
        # three batches; each batch's bitmap is freed before the next
        g = fixtures.mid_synthetic(make_rng(2), 2000, 8000, 20).base
        size = max(_BATCH, _SEEN_BYTES // g.n)
        peak = traced_peak(lambda: reverse_reach_counts(
            g, 2 * size + 5, make_rng(3)))
        assert peak < 1.5 * g.n * size


class TestSharedRealizations:
    """`spread_samples` runs every blocker set on the same realizations:
    nested sets by resuming one search, other sets by replayed coins."""

    TRIALS = 3000   # not a multiple of the batch, so a short batch runs

    # Eight row means per example at 3 sigma over a fixed example stream
    # from one numpy Generator, so an edit draws no new examples.
    # Hypothesis mixes constants it finds in the package's source into its
    # draws, so under `@given` the examples moved with edits to the package
    # (seed=7852, copied=0 gave a 3.56 sigma nested-family row at 3000
    # trials and 0.27 sigma at 16 times as many, and seed=160 a 3.44 sigma
    # row that passes at 16 times as many, so both were chance).
    def test_rows_against_exact_model(self):
        for seed, copied in make_rng(20240520).integers(
                0, [10 ** 6, 3], size=(20, 2)).tolist():
            self.check_rows(seed, copied)

    def check_rows(self, seed, copied):
        rng = make_rng(seed)
        ug = fixtures.random_tiny(rng)
        cands = [v for v in range(ug.base.n) if v not in ug.seeds]

        def draw():
            return set(int(v) for v in rng.choice(
                cands, size=int(rng.integers(1, len(cands) + 1)),
                replace=False))

        drawn, b, c = draw(), draw(), draw()
        exits = set(ug.seed_out_neighbors())
        # three sets whose masks need not nest, then a nested family
        # (empty, B, B | C) in shuffled order
        apart = [set(), exits, drawn]
        nested = [[set(), b, b | c][i] for i in rng.permutation(3)]
        model = ExactModel(ug)
        for family, sets in enumerate((apart, nested)):
            sets = sets + [sets[copied]]
            rows = spread_samples(ug, sets, self.TRIALS,
                                  make_rng(seed + 1 + family))
            assert rows.shape == (4, self.TRIALS)
            for i, j in itertools.combinations(range(4), 2):
                if sets[i] == sets[j]:
                    assert np.array_equal(rows[i], rows[j])
            for blockers, row in zip(sets, rows):
                if exits <= blockers:
                    assert not row.any()
                sigma = row.std() / math.sqrt(self.TRIALS)
                assert abs(row.mean() - model.spread(blockers)) \
                    <= 3 * sigma + 1e-9
            # blocking more only removes nodes from each shared realization
            for small, row_small in zip(sets, rows):
                for big, row_big in zip(sets, rows):
                    if small <= big:
                        assert (row_big <= row_small).all()

    @settings(derandomize=True, max_examples=20, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6))
    def test_a_nested_batch_starts_with_the_most_blocked_set(self, seed):
        # the most-blocked set is searched first, alone, as a one-set call
        # searches it; the others resume from where it stopped
        ug, blockers = tiny_with_dead_edges(seed)
        most = sorted(set(blockers) | set(ug.seed_out_neighbors()[:1]))
        got, want = make_rng(seed), make_rng(seed)
        rows = spread_samples(ug, [None, most, blockers], _BATCH, got)
        assert np.array_equal(rows[1], ic_spread_samples(ug, most, _BATCH,
                                                         want))
        assert (rows[1] <= rows[2]).all() and (rows[2] <= rows[0]).all()

    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6))
    def test_nested_runs_reach_what_each_run_reaches_alone(self, seed):
        # on one realization, the pairs that gain run r's bit are what a
        # one-run search of run r's mask reaches
        ug = random_flowgraph(seed)
        rng = make_rng(seed + 1)
        live = rng.random(ug.m_total) < 0.7
        picks = rng.permutation(ug.base.n)
        masks = np.stack([ug.blocked] * 3)
        for r, size in enumerate((0, 1, 3)):
            masks[r, picks[:size]] = True
        masks = masks[rng.permutation(3)]
        reached = np.zeros((3, ug.n_total), dtype=bool)
        reached[:, ug.s] = True
        for _, _, node, _, bits in _forward_levels(ug, masks, 1, None, live):
            for r in range(3):
                reached[r, node[bits >> r & 1 == 1]] = True
        for r in range(3):
            assert np.array_equal(reached[r],
                                  ug.positive_reach(masks[r], live))

    @settings(derandomize=True, max_examples=20, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6))
    def test_one_set_draws_what_the_one_run_search_draws(self, seed):
        ug, blockers = tiny_with_dead_edges(seed)
        got, ic, want = (make_rng(seed) for _ in range(3))
        rows = spread_samples(ug, [blockers], self.TRIALS, got)
        assert rows.shape == (1, self.TRIALS)
        assert np.array_equal(
            rows[0], ic_spread_samples(ug, blockers, self.TRIALS, ic))
        blocked = ug.blocked_with(blockers)
        ref = []
        for done in range(0, self.TRIALS, _BATCH):
            batch = min(_BATCH, self.TRIALS - done)
            ref.append(np.zeros(batch, dtype=np.int64))
            for *_, node, trial, _ in reference_forward_levels(
                    ug, blocked, batch, want):
                np.add.at(ref[-1], trial[~ug.uncounted[node]], 1)
        assert rows.dtype == np.int64
        assert np.array_equal(rows[0], np.concatenate(ref))
        assert got.bit_generator.state == ic.bit_generator.state \
            == want.bit_generator.state

    def test_a_late_run_replays_the_coins_an_early_run_saw(self):
        # the base reaches 3 through 1 at level 2; blocking 1 leaves the
        # longer way through 2 and 4, so that run reaches 3 a level later
        # and must see the same coin on the edge 3 -> 5
        ug = unify_seeds(Graph.from_edges(
            6, [0, 0, 1, 2, 4, 3], [1, 2, 3, 4, 3, 5],
            [1.0, 1.0, 1.0, 1.0, 1.0, 0.5]), {0})
        rows = spread_samples(ug, [[], [1]], self.TRIALS, make_rng(4))
        assert np.array_equal(rows[0] - rows[1], np.ones(self.TRIALS))
        assert 0.45 < (rows[0] == 5).mean() < 0.55

    def test_replayed_edge_frequencies(self):
        # one seed, four leaves: each trial's reach is its live edges.
        # The masks of the isolated nodes 5 and 6 do not nest, so the runs
        # are searched together, on replayed coins
        probs = [0.0, 1e-4, 1 / 3, 1.0]
        ug = unify_seeds(Graph.from_edges(7, [0] * 4, [1, 2, 3, 4], probs),
                         {0})
        masks = np.stack([ug.blocked_with(b) for b in ([5], [6])])
        rng = make_rng(11)
        batches = 100
        live = np.zeros(5, dtype=np.int64)
        for _ in range(batches):
            for *_, node, trial, bits in _forward_levels(ug, masks, _BATCH,
                                                         rng):
                # the isolated nodes block nothing: both runs see one
                # realization, so every pair gains both bits at once
                assert (bits == 3).all()
                live += np.bincount(node[node < 5], minlength=5)
        n = batches * _BATCH
        assert live[0] == n             # the seed itself
        for leaf, p in enumerate(probs, start=1):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(live[leaf] / n - p) <= 3 * sigma, (leaf, p)


class TestStoppingRuleSpreads:
    def test_within_gamma_of_exact_spread(self):
        gamma, delta = 0.1, 0.1
        hits = runs = 0
        for seed in range(80):
            rng = make_rng(700 + seed)
            ug = fixtures.random_tiny(rng)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            sets = [[], [int(v) for v in rng.choice(cands, size=1)],
                    ug.seed_out_neighbors()[:1]]
            model = ExactModel(ug)
            for b, est in zip(sets, stopping_rule_spreads(
                    ug, sets, gamma, delta, rng)):
                true = model.spread(b)
                if true == 0.0:
                    assert est.value == 0.0
                    continue
                runs += 1
                hits += (1 - gamma) * true <= est.value <= (1 + gamma) * true
        assert runs >= 150
        slack = 3 * math.sqrt(delta * (1 - delta) / runs)
        assert hits / runs >= 1 - delta - slack

    def test_deterministic_spreads_are_exact(self):
        # every cascade of these graphs activates the same nodes, so the
        # samples' mean is the spread, and the interval holds it.  At 128
        # trials the decrease of 1 out of 7 has the interval [0.970,
        # 1.169], within the gamma contract, but 1 lies below (1 - gamma)
        # times its upper end: the clip would move it, so the estimate
        # samples on until it would not
        for ug, blockers, spread in (
                (fixtures.chain(1.0), None, 2.0),
                (fixtures.fan_gadget(8), None, 7.0),
                (fixtures.fan_gadget(8), [1], 6.0),
                (fixtures.worked_example_three_seeds(), None, 10.0)):
            est = stopping_rule_spread(ug, blockers, 0.1, 0.1, make_rng(0))
            assert est.value == spread
            assert est.low <= spread <= est.high
        fan = fixtures.fan_gadget(8)
        est = diffusion.stopping_rule_decrease(fan, [1], 0.1, 0.1,
                                               make_rng(0), 10_000)
        assert est.value == 1.0
        assert est.low <= 1.0 <= est.high
        assert_matches_reference(est, betting_stop_reference(
            np.ones(10_000, dtype=np.int64), 7, 0.1, 0.1,
            schedule(fan, 2, 10_000)))
        assert est.samples_used > _FIRST_BATCH

    def test_one_value_stops_only_where_the_clip_keeps_it(self):
        # an interval within the gamma contract whose clip would move the
        # mean: samples of one value sample on, others stop at the clip.
        # At a cap both stop, clipped.
        for spreads, clip in ((np.full(100, 5), None),
                              (np.repeat([4, 6], 50), 4.84)):
            rule = diffusion._BettingStop(10)
            rule.add(spreads)
            rule.low, rule.high = 0.47, 0.55    # 5 needs no clip
            assert rule.estimate(0.1, 0.1).value == 5.0
            rule.low, rule.high = 0.44, 0.53    # clipped to 0.484 * 10
            est = rule.estimate(0.1, 0.1)
            if clip is None:
                assert est is None
            else:
                assert est.value == pytest.approx(clip)
            assert rule.estimate(0.1, 0.1, final=True).value == \
                pytest.approx(4.84)

    def test_cut_off_set_is_exact_zero_while_others_sample(self):
        ug = fixtures.worked_example_small()
        cut = ug.seed_out_neighbors()
        base, zero, again = stopping_rule_spreads(ug, [None, cut, cut], 0.1,
                                                  0.1, make_rng(3))
        assert zero.exact_zero and zero.value == 0.0
        assert zero.samples_used == 0
        assert again is zero
        assert base.samples_used > 0 and base.value > 0.0
        # with one set left to sample, the call is the one-set call
        assert base == stopping_rule_spread(ug, None, 0.1, 0.1, make_rng(3))

    def test_a_set_that_stops_keeps_its_value(self):
        # the seed's sure edge to 1 is all that blocking 2 leaves: that
        # set stops after one batch, while the rare branch through 2 keeps
        # the base sampling.  The early set's estimate is the betting stop
        # on the first shared batch of 128; the base samples on alone, in
        # one-run batches of the same schedule (384, 1024, 2048, ...) from
        # the same generator, until its own interval closes.
        ug = unify_seeds(Graph.from_edges(
            13, [0, 0] + [2] * 10, [1, 2] + list(range(3, 13)),
            [1.0, 0.05] + [1.0] * 10), {0})
        gamma, delta = 0.1, 0.1
        for seed in range(5):
            base, early = stopping_rule_spreads(ug, [None, [2]], gamma,
                                                delta, make_rng(seed))
            sizes = schedule(ug, 2, base.samples_used)
            assert sum(sizes) == base.samples_used > sizes[0]
            rng = make_rng(seed)
            shared = spread_samples(ug, [None, [2]], sizes[0], rng)
            assert early.samples_used == sizes[0] == _FIRST_BATCH == 128
            assert_matches_reference(early, betting_stop_reference(
                shared[1], 1, gamma, delta, sizes))
            alone = replay_batches(ug, [None], sizes[1:], rng)[0]
            assert_matches_reference(base, betting_stop_reference(
                np.concatenate([shared[0], alone]), 12, gamma, delta, sizes))

    def test_more_sets_than_runs(self):
        ug = fixtures.mid_synthetic(make_rng(0), 60, 240, 3)
        sets = [[v] for v in ug.seed_out_neighbors()[:9]]
        assert len(sets) == 9
        with pytest.raises(ValueError, match="distinct"):
            stopping_rule_spreads(ug, sets, 0.1, 0.1, make_rng(0))
        # equal sets share a run, so nine copies of one set are one run
        rows = spread_samples(ug, [sets[0]] * 9, 10, make_rng(0))
        assert (rows == rows[0]).all()


class TestBatchSchedule:
    """Sequential estimates draw batches of 128, 384, 1024, 2048, ..., up
    to the cap `_batch_sizes` takes from `_SEEN_BYTES`, so a batch's
    forward `seen` bitmap does not grow with batch x n, and they check
    their interval at 128, 512, 1536, 3584, ... trials."""

    @pytest.mark.parametrize("n, runs, cap", [
        (60, 2, _SEEN_BYTES // 61), (60, 8, 1024), (300, 2, _SEEN_BYTES // 301),
        (1500, 1, _BATCH)])
    def test_batch_ends_add_a_check_at_128(self, n, runs, cap):
        # the ends of the batches are 128, then every end of the schedule
        # that checked first at 512 (512, then doubling up to the cap)
        ug = fixtures.mid_synthetic(make_rng(n), n, 4 * n, 3)
        sizes = list(itertools.islice(_batch_sizes(ug, runs), 12))
        assert max(sizes) == cap == max(_BATCH, _SEEN_BYTES // max(
            ug.n_total, 8 << runs))
        old = [512]
        while len(old) < 11:
            old.append(min(2 * old[-1], cap))
        assert np.cumsum(sizes).tolist() == [128, *np.cumsum(old)]
        assert sizes[:3] == [128, 384, 1024]

    def test_base_spread_of_mid_closes_at_128(self):
        # on the `mid` benchmark's graphs the base spread closes at the
        # first check, where a first batch of 512 drew four times the
        # cascades
        for graph in range(3):
            ug = fixtures.mid_synthetic(make_rng(graph), 300, 1200, 10)
            for seed in range(3):
                est = stopping_rule_spread(ug, None, 0.1, 0.1,
                                           make_rng(seed))
                assert est.samples_used == _FIRST_BATCH == 128
                assert (1 - 0.1) * est.high <= (1 + 0.1) * est.low

    def test_batches_follow_the_schedule_within_the_bitmap_budget(
            self, monkeypatch):
        # constant p = 0.01: the estimates run past two batches into the
        # cap (1 MB / 301 nodes = 3483 trials), and this small decrease is
        # still open at its 10,000-trial cap, where its last batch is cut
        mid = fixtures.mid_synthetic(make_rng(0), 300, 1200, 10)
        ug = unify_seeds(assign_constant_probability(mid.base, 0.01),
                         mid.seeds)
        drawn = []

        def spy(g, masks, batch, rng, _real=diffusion._batch_spreads):
            assert g.n_total * batch <= max(_BATCH * g.n_total, _SEEN_BYTES)
            drawn.append(batch)
            return _real(g, masks, batch, rng)

        monkeypatch.setattr(diffusion, "_batch_spreads", spy)
        sets = [None, ug.seed_out_neighbors()[:1]]
        ests = stopping_rule_spreads(ug, sets, 0.1, 0.1, make_rng(1))
        assert drawn[:5] == [128, 384, 1024, 2048, _SEEN_BYTES // 301]
        assert drawn == schedule(ug, 2, sum(drawn))
        for est in ests:
            assert est.samples_used in np.cumsum(drawn)
        drawn.clear()
        est = diffusion.stopping_rule_decrease(ug, sets[1], 0.1, 0.1,
                                               make_rng(2), 10_000)
        assert drawn[:-1] == schedule(ug, 2, 10_000)[:-1]
        assert est.samples_used == sum(drawn) == 10_000


class TestStoppingRuleDecrease:
    def test_interval_holds_the_exact_decrease(self):
        gamma, delta = 0.1, 0.1
        hits = runs = 0
        for seed in range(160):
            rng = make_rng(1100 + seed)
            ug = fixtures.random_tiny(rng)
            cands = [v for v in range(ug.base.n) if v not in ug.seeds]
            blockers = [int(v) for v in rng.choice(
                cands, size=int(rng.integers(1, min(2, len(cands)) + 1)),
                replace=False)]
            exact = ExactModel(ug).decrease(blockers)
            est = diffusion.stopping_rule_decrease(ug, blockers, gamma,
                                                   delta, rng, 4096)
            assert 0.0 <= est.low <= est.value <= est.high
            if est.exact_zero:
                assert exact == pytest.approx(0.0, abs=1e-12)
                assert est.samples_used == 0
                continue
            runs += 1
            hits += est.low <= exact <= est.high
        assert runs >= 100
        slack = 3 * math.sqrt(delta * (1 - delta) / runs)
        assert hits / runs >= 1 - delta - slack

    @pytest.mark.parametrize("gamma, delta, cap, name", [
        (1.5, 0.1, 10_000, "gamma"), (0.0, 0.1, 10_000, "gamma"),
        (0.1, 0.0, 10_000, "delta"), (0.1, 1.0, 10_000, "delta"),
        (0.1, 0.1, 0, "cap")])
    def test_rejects_a_contract_outside_its_range(self, gamma, delta, cap,
                                                  name):
        # the contract is checked before any cascade, as the spread
        # estimates check theirs
        ug = fixtures.mid_synthetic(make_rng(0), 60, 240, 3)
        blockers = ug.seed_out_neighbors()[:1]
        with pytest.raises(ValueError, match=name):
            diffusion.stopping_rule_decrease(ug, blockers, gamma, delta,
                                             make_rng(1), cap)
        if name != "cap":
            with pytest.raises(ValueError, match=name):
                stopping_rule_spreads(ug, [blockers], gamma, delta,
                                      make_rng(1))
