import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from imin import diffusion, fixtures
from imin.baselines import _subtree_scores, ag, gr, mc_greedy
from imin.diffusion import sample_realization
from imin.domtree import build_dominator_tree
from imin.graph import Graph, block_nodes, unify_seeds
from imin.oracle import ExactModel
from imin.sampling import _cp_batch

from conftest import certain_edges, make_rng, split_chains


def eager_sizes(ug, blockers, n, rng):
    """Dominator-subtree sizes of `n` eager realizations (the reference)."""
    for _ in range(n):
        yield build_dominator_tree(
            sample_realization(ug, blockers, rng)).subtree_size


def batched_sizes(ug, blockers, n, rng):
    """The same sizes from the batched common-path sampler: per
    realization, the number of chains that contain each node."""
    for batch in _cp_batch(block_nodes(ug, blockers), n, rng):
        for chains in split_chains(*batch[1:]):
            yield np.bincount(np.asarray(sum(chains, []), dtype=np.int64),
                              minlength=ug.n_total)


def exact_greedy(ug, k):
    """Greedy by the exact decrease of `ExactModel`, ties to the lowest
    id."""
    model = ExactModel(ug)
    chosen = []
    for _ in range(k):
        cands = [v for v in range(ug.base.n)
                 if v not in ug.seeds and v not in chosen]
        chosen.append(max(cands, key=lambda v: (
            model.decrease(chosen + [v]), -v)))
    return chosen


class TestSubtreeScores:
    @settings(derandomize=True, max_examples=80, deadline=None,
              database=None)
    @given(st.integers(0, 10 ** 6))
    def test_match_eager_dominator_tree_on_certain_edges(self, seed):
        ug, blockers = certain_edges(seed)
        want = next(eager_sizes(ug, blockers, 1, make_rng(0)))
        got = _subtree_scores(ug, blockers, 5, make_rng(seed))
        non_seed = [v for v in range(ug.base.n) if v not in ug.seeds]
        assert np.array_equal(got[non_seed], want[non_seed])


class TestMcGreedy:
    def test_chain(self):
        assert list(mc_greedy(fixtures.chain(), 1, 200, make_rng(0))) == [1]

    def test_diamond_pair(self):
        got = mc_greedy(fixtures.diamond(1.0), 2, 400, make_rng(1))
        assert sorted(got) == [1, 2]

    def test_k_zero(self):
        assert list(mc_greedy(fixtures.chain(), 0, 10, make_rng(2))) == []

    def test_matches_oracle_greedy_selection(self):
        # With 10^4 trials per evaluation the empirical argmax should
        # agree with exact greedy in nearly every run.
        ug = fixtures.worked_example_small()
        want = exact_greedy(ug, 2)
        rng = make_rng(3)
        hits = sum(list(mc_greedy(ug, 2, 10_000, rng)) == want
                   for _ in range(100))
        assert hits >= 95

    @pytest.mark.parametrize("ug, k, want", [
        # six candidates, then five: one search per round
        (fixtures.worked_example_small(), 2, [6, 5]),
        # 28 candidates, then 27: eight sets to a search
        (fixtures.mid_synthetic(np.random.default_rng(1), 30, 90, 2), 2,
         [8, 8, 8, 4, 8, 8, 8, 3]),
    ], ids=["worked_example_small", "mid_synthetic"])
    def test_one_search_per_eight_candidates(self, monkeypatch, ug, k,
                                             want):
        # the runs of every forward search, in order
        runs = []
        batch_spreads = diffusion._batch_spreads

        def spy(g, masks, batch, rng):
            runs.append(len(masks))
            return batch_spreads(g, masks, batch, rng)

        monkeypatch.setattr(diffusion, "_batch_spreads", spy)
        assert len(mc_greedy(ug, k, 200, make_rng(13))) == k
        assert runs == want

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_exact_greedy_on_certain_edges(self, seed):
        # every edge live: one trial gives each set its exact residual, so
        # the picks, and their ties across searches, are exact greedy's
        ug = fixtures.mid_synthetic(np.random.default_rng(seed), 20, 50, 2)
        src, dst, p = ug.base.edge_array()
        ug = unify_seeds(Graph.from_edges(ug.base.n, src, dst,
                                          np.ones_like(p)), ug.seeds)
        assert list(mc_greedy(ug, 3, 1, make_rng(seed))) == \
            exact_greedy(ug, 3)


class TestAg:
    def test_chain(self):
        assert list(ag(fixtures.chain(), 1, 300, make_rng(4))) == [1]

    def test_k_zero(self):
        assert list(ag(fixtures.chain(), 0, 10, make_rng(5))) == []

    def test_worked_example_picks_junction_then_strong_branch(self):
        # majority outcome over 20 runs at the recommended 10^4
        # realizations per round
        ug = fixtures.worked_example_small()
        outcomes = collections.Counter(
            tuple(ag(ug, 2, 10_000, make_rng(100 + i))) for i in range(20))
        assert outcomes[(3, 1)] > 10

    @pytest.mark.parametrize("sizes_of", [eager_sizes, batched_sizes])
    def test_per_round_estimates_unbiased_under_blocking(self, sizes_of):
        ug = fixtures.worked_example_small()
        model = ExactModel(ug)
        blocked = [3]
        n = 20_000
        rng = make_rng(6)
        totals = np.zeros(ug.n_total)
        sq = np.zeros(ug.n_total)
        for s in sizes_of(ug, blocked, n, rng):
            totals += s
            sq += s.astype(float) ** 2
        for v in (1, 2):
            mean = totals[v] / n
            sigma = math.sqrt(max(sq[v] / n - mean ** 2, 1e-12) / n)
            want = model.decrease(blocked + [v]) - model.decrease(blocked)
            assert abs(mean - want) < 3 * sigma + 1e-9


class TestGr:
    def test_chain(self):
        assert list(gr(fixtures.chain(), 1, 300, make_rng(7))) == [1]

    def test_worked_example_blocks_both_seed_exits(self):
        ug = fixtures.worked_example_small()
        assert sorted(gr(ug, 2, 3000, make_rng(8))) == [1, 2]

    def test_stage1_result_kept_when_no_replacement_improves(self):
        # on the chain the single seed exit is optimal; stage 2 must
        # terminate immediately with the stage-1 result
        got = gr(fixtures.chain(), 1, 500, make_rng(9))
        assert list(got) == [1]

    def test_budget_capped_by_seed_out_degree(self):
        ug = fixtures.chain()  # one seed exit
        got = gr(ug, 3, 300, make_rng(10))
        assert len(got) == 1

    def test_never_returns_an_already_blocked_node(self):
        # The chain's one seed exit is blocked: nothing is left to pick.
        chain = block_nodes(fixtures.chain(), [1])
        assert list(gr(chain, 1, 200, make_rng(11))) == []
        diamond = block_nodes(fixtures.diamond(0.5), [2])
        for algo in (ag, gr):
            got = list(algo(diamond, 2, 200, make_rng(12)))
            assert 2 not in got and 0 not in got
            assert 1 in got


@pytest.mark.parametrize("algo", [ag, gr, mc_greedy])
def test_a_count_below_one_is_refused(algo):
    with pytest.raises(ValueError):
        algo(fixtures.chain(), 1, 0, make_rng(14))


class TestEffectivenessAgainstOracle:
    def test_baselines_never_beat_exhaustive_optimum(self):
        for trial in range(3):
            ug = fixtures.random_tiny(make_rng(30 + trial), 7, 8)
            model = ExactModel(ug)
            _, best = model.optimal_blockers(2, "decrease")
            rng = make_rng(40 + trial)
            for algo in (lambda: ag(ug, 2, 1500, rng),
                         lambda: gr(ug, 2, 1500, rng),
                         lambda: mc_greedy(ug, 2, 1500, rng)):
                got = model.decrease(algo())
                assert got <= best + 1e-9
