"""Acceptance suite: one test per release criterion, oracle-backed.

Every criterion prints a PASS line (visible with `pytest -s`) carrying the
measured quantities; tolerances are fixed here, not tuned elsewhere.
"""

import itertools
import math

import pytest

from imin import fixtures
from imin.cli import main
from imin.diffusion import stopping_rule_spread
from imin.domtree import build_dominator_tree
from imin.graph import Graph, unify_seeds
from imin.optimize import AlgoParams, E_FRACTION, gsbm, lsbm
from imin.oracle import ExactModel
from imin.sampling import (CPCollection, LRRCollection, _cp_batch,
                           compute_population, coverage)
from imin.sandwich import sand_imin
from imin.baselines import ag, gr, mc_greedy

from conftest import eager_sets, make_rng, per_sequence_coverage


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def tiny_graph_with_wide_seed_boundary(seed, min_on=3):
    """Oracle-sized random graph whose seed set has > k out-neighbors."""
    rng = make_rng(seed)
    while True:
        ug = fixtures.random_tiny(rng, max_nodes=8, max_prob_edges=9)
        if len(ug.seed_out_neighbors()) >= min_on \
                and compute_population(ug):
            return ug


def test_criterion_01_worked_realization_reproduction():
    ug = fixtures.worked_example_small()
    phi = fixtures.worked_example_small_realization(ug)
    dt = build_dominator_tree(phi)
    sizes = {v: int(dt.subtree_size[v]) for v in range(1, 7)}
    assert sizes == {1: 1, 2: 1, 3: 3, 4: 0, 5: 1, 6: 1}

    got = eager_sets(ug, phi)
    assert got == {1: frozenset({1}), 2: frozenset({2}), 3: frozenset({3}),
                   5: frozenset({3, 5}), 6: frozenset({3, 6})}
    report(1, f"subtree sizes {sizes}, 5 common-path sets exact")


def test_criterion_02_three_seed_fixture_reproduction():
    ug = fixtures.worked_example_three_seeds()
    model = ExactModel(ug)
    B = [2, 6, 11]  # labels v3, v7, v12
    vals = (model.decrease(B), model.lower_bound(B), model.upper_bound(B))
    assert vals == (7.0, 6.0, 8.0)
    report(2, f"decrease/lower/upper = {vals}")


def test_criterion_03_sandwich_ordering_and_shape():
    n_graphs = 50
    checked = 0
    for trial in range(n_graphs):
        ug = fixtures.random_tiny(make_rng(9000 + trial), max_nodes=10,
                                  max_prob_edges=12)
        model = ExactModel(ug)
        cands = [v for v in range(ug.base.n) if v not in ug.seeds]

        lower_vals = {(): 0.0}
        for size in (1, 2, 3, 4):
            for B in itertools.combinations(cands, size):
                lower_vals[B] = model.lower_bound(B)
        for size in (1, 2, 3):
            for B in itertools.combinations(cands, size):
                mid = model.decrease(B)
                assert lower_vals[B] <= mid + 1e-9
                assert mid <= model.upper_bound(B) + 1e-9
                checked += 1

        # lower bound: monotone in every one-element extension
        for B, val in lower_vals.items():
            for x in cands:
                if x in B:
                    continue
                bigger = tuple(sorted(B + (x,)))
                if bigger in lower_vals:
                    assert val <= lower_vals[bigger] + 1e-9
        # lower bound: submodular over all nested pairs
        subsets3 = [B for B in lower_vals if len(B) <= 3]
        for T in subsets3:
            t_set = set(T)
            for B in subsets3:
                if not set(B) <= t_set or B == T:
                    continue
                for x in cands:
                    if x in t_set:
                        continue
                    gain_b = lower_vals[tuple(sorted(B + (x,)))] \
                        - lower_vals[B]
                    gain_t = lower_vals[tuple(sorted(T + (x,)))] \
                        - lower_vals[T]
                    assert gain_b >= gain_t - 1e-9

    # the decrease itself is not submodular: diamond witness
    model = ExactModel(fixtures.diamond(1.0))
    gain_alone = model.decrease([2]) - model.decrease([])
    gain_joint = model.decrease([1, 2]) - model.decrease([1])
    assert gain_alone == 1.0 and gain_joint == 2.0
    report(3, f"{n_graphs} graphs, {checked} blocker sets ordered; "
              "diamond witnesses non-submodularity")


def test_criterion_04_estimator_unbiasedness():
    n_pairs = 10
    n_samples = 10_000
    max_z = 0.0
    for trial in range(n_pairs):
        ug = tiny_graph_with_wide_seed_boundary(7000 + trial, min_on=2)
        model = ExactModel(ug)
        cands = [v for v in range(ug.base.n) if v not in ug.seeds]
        rng = make_rng(7100 + trial)
        B = [int(v) for v in
             rng.choice(cands, size=min(2, len(cands)), replace=False)]

        coll = CPCollection(ug, make_rng(7200 + trial))
        coll.extend(n_samples)
        per_seq = per_sequence_coverage(
            _cp_batch(ug, n_samples, make_rng(7200 + trial)), B)
        assert per_seq.sum() == coverage(coll, B)
        true_low = model.lower_bound(B)
        se = per_seq.std() / math.sqrt(n_samples)
        z = abs(per_seq.mean() - true_low) / max(se, 1e-9)
        assert abs(per_seq.mean() - true_low) <= 3 * se + 1e-6
        max_z = max(max_z, z)

        lcoll = LRRCollection(ug, make_rng(7300 + trial))
        lcoll.extend(n_samples)
        pop = len(lcoll.population)
        hit = coverage(lcoll, B) / n_samples
        est = pop * hit
        se_u = pop * math.sqrt(max(hit * (1 - hit), 1e-9) / n_samples)
        true_up = model.upper_bound(B)
        z = abs(est - true_up) / max(se_u, 1e-9)
        assert abs(est - true_up) <= 3 * se_u + 1e-6
        max_z = max(max_z, z)
    report(4, f"{n_pairs} (graph, B) pairs, {n_samples} samples each, "
              f"worst |z| = {max_z:.2f}")


def test_criterion_05_maximizer_guarantees():
    params = AlgoParams(k=2, epsilon=0.2, delta=0.1, beta=0.1)
    runs = 200
    threshold = (1 - params.delta) \
        - 3 * math.sqrt(params.delta * (1 - params.delta) / runs)
    worst = {"lower": 1.0, "upper": 1.0}
    for trial in range(5):
        ug = tiny_graph_with_wide_seed_boundary(8000 + trial)
        model = ExactModel(ug)
        _, opt_low = model.optimal_blockers(params.k, "lower")
        _, opt_up = model.optimal_blockers(params.k, "upper")
        rng_l = make_rng(8100 + trial)
        rng_u = make_rng(8200 + trial)
        hits_l = hits_u = 0
        for _ in range(runs):
            b_l, _ = lsbm(ug, params, rng_l)
            if model.lower_bound(b_l) >= \
                    (E_FRACTION - params.epsilon) * opt_low - 1e-9:
                hits_l += 1
            b_u, _ = gsbm(ug, params, rng_u)
            if model.upper_bound(b_u) >= \
                    (E_FRACTION - params.epsilon) * opt_up - 1e-9:
                hits_u += 1
        assert hits_l / runs >= threshold, f"graph {trial}: {hits_l}/{runs}"
        assert hits_u / runs >= threshold, f"graph {trial}: {hits_u}/{runs}"
        worst["lower"] = min(worst["lower"], hits_l / runs)
        worst["upper"] = min(worst["upper"], hits_u / runs)
    report(5, f"5 graphs x {runs} runs; worst success rates "
              f"lower {worst['lower']:.3f}, upper {worst['upper']:.3f} "
              f">= {threshold:.3f}")


def test_criterion_05b_guarantees_on_shared_streams():
    # sand_imin hands lsbm and gsbm the same two pair streams; each set
    # still reaches its bound's guarantee at the certified rate.
    params = AlgoParams(k=2, epsilon=0.2, delta=0.1, beta=0.1)
    runs = 200
    threshold = (1 - params.delta) \
        - 3 * math.sqrt(params.delta * (1 - params.delta) / runs)
    worst = {"lower": 1.0, "upper": 1.0}
    for trial in range(5):
        ug = tiny_graph_with_wide_seed_boundary(8500 + trial)
        model = ExactModel(ug)
        target = {side: (E_FRACTION - params.epsilon)
                  * model.optimal_blockers(params.k, side)[1]
                  for side in worst}
        rng = make_rng(8600 + trial)
        hits = {"lower": 0, "upper": 0}
        for _ in range(runs):
            res = sand_imin(ug, params, rng)
            hits["lower"] += model.lower_bound(res.candidates["lower"]) \
                >= target["lower"] - 1e-9
            hits["upper"] += model.upper_bound(res.candidates["upper"]) \
                >= target["upper"] - 1e-9
        for side in worst:
            assert hits[side] / runs >= threshold, \
                f"graph {trial} {side}: {hits[side]}/{runs}"
            worst[side] = min(worst[side], hits[side] / runs)
    report("5b", f"5 graphs x {runs} sand_imin runs; worst success rates "
                 f"lower {worst['lower']:.3f}, upper {worst['upper']:.3f} "
                 f">= {threshold:.3f}")


def test_criterion_06_stopping_rule_coverage():
    ug = fixtures.diamond(0.5)
    true = ExactModel(ug).spread()
    gamma, delta = 0.15, 0.05
    runs = 1000
    rng = make_rng(600)
    hits = 0
    for _ in range(runs):
        est = stopping_rule_spread(ug, None, gamma, delta, rng)
        if (1 - gamma) * true <= est.value <= (1 + gamma) * true:
            hits += 1
    threshold = (1 - delta) - 3 * math.sqrt(delta * (1 - delta) / runs)
    assert hits / runs >= threshold
    report(6, f"coverage {hits}/{runs} >= {threshold:.3f}")


def test_criterion_07_sample_count_trend():
    ug = fixtures.mid_synthetic(make_rng(700), n=2500, m=10_000, n_seeds=10)
    assert ug.base.m >= 9000
    k, delta = 10, 0.1
    finals, initials = [], []
    for eps in (0.1, 0.2, 0.3, 0.4, 0.5):
        params = AlgoParams(k=k, epsilon=eps, delta=delta, beta=0.1)
        _, cert = lsbm(ug, params, make_rng(701))
        finals.append(cert.samples_primary)
        initials.append(cert.schedule.samples_initial)
        pop = cert.population_size
        ln_choose = (math.lgamma(pop + k + 1) - math.lgamma(k + 1)
                     - math.lgamma(pop + 1))
        ln_tail = math.log(6 / delta)
        closed = 2 * (E_FRACTION * math.sqrt(ln_tail)
                      + math.sqrt(E_FRACTION * (ln_choose + ln_tail))) ** 2
        assert cert.schedule.samples_initial \
            == pytest.approx(closed, rel=1e-9)
    assert all(a >= b for a, b in zip(finals, finals[1:])), finals
    report(7, f"final primary sample counts over epsilon sweep: {finals}; "
              "initial size matches closed form to 1e-9")


def test_criterion_08_effectiveness_parity():
    from imin.diffusion import ic_spread_samples

    eval_trials = 20_000
    ratios = []
    for trial in range(3):
        ug = fixtures.mid_synthetic(make_rng(800 + trial), n=400, m=3200,
                                    n_seeds=6)
        k = 4
        params = AlgoParams(k=k, epsilon=0.2, delta=0.1, beta=0.1,
                            gamma=0.1)
        res = sand_imin(ug, params, make_rng(810 + trial))
        candidates = {
            "sandimin": res.chosen,
            "ag": ag(ug, k, 1000, make_rng(820 + trial)),
            "gr": gr(ug, k, 1000, make_rng(830 + trial)),
            "mc": mc_greedy(ug, k, 150, make_rng(840 + trial)),
        }
        eval_rng = make_rng(850 + trial)
        base = ic_spread_samples(ug, None, eval_trials, eval_rng).mean()
        decrease = {
            name: base - ic_spread_samples(ug, b, eval_trials,
                                           eval_rng).mean()
            for name, b in candidates.items()}
        best_baseline = max(decrease[nm] for nm in ("ag", "gr", "mc"))
        ratios.append(decrease["sandimin"] / best_baseline)
        assert decrease["sandimin"] >= 0.9 * best_baseline, decrease
    report(8, "sandwich decrease vs best baseline: "
              + ", ".join(f"{r:.3f}" for r in ratios) + " (all >= 0.9)")


def test_criterion_09_empirical_ratio_soundness():
    params = AlgoParams(k=1, epsilon=0.2, delta=0.1, beta=0.1, gamma=0.1)
    sound = total = 0

    for trial in range(4):
        ug = tiny_graph_with_wide_seed_boundary(900 + trial, min_on=2)
        model = ExactModel(ug)
        _, opt = model.optimal_blockers(params.k, "decrease")
        rng = make_rng(910 + trial)
        for _ in range(10):
            res = sand_imin(ug, params, rng)
            true_ratio = model.decrease(res.chosen) / opt
            total += 1
            if res.empirical_ratio <= true_ratio + 1e-9:
                sound += 1
    assert sound / total >= 0.95, f"{sound}/{total}"

    # a tree-shaped cascade keeps the bounds tight, so the reported ratio
    # stays well above the floor when the upper candidate protects the
    # whole cascade
    tree = unify_seeds(
        Graph.from_edges(4, [0, 1, 1], [1, 2, 3], [1.0, 1.0, 1.0]), {0})
    rng = make_rng(990)
    floor_hits = 0
    tree_runs = 20
    for _ in range(tree_runs):
        res = sand_imin(tree, params, rng)
        if res.empirical_ratio >= 0.15:
            floor_hits += 1
    assert floor_hits >= int(0.9 * tree_runs)
    report(9, f"reported <= true ratio in {sound}/{total} runs; "
              f"tight-cascade ratio >= 0.15 in {floor_hits}/{tree_runs}")


def test_criterion_10_cli_determinism(tmp_path):
    run_args = ["run", "--graph", "fixture:small", "--algo", "sandimin",
                "--k", "1", "--delta", "0.1", "--eval-trials", "5000",
                "--rng-seed", "21", "--repeats", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(run_args + ["--out", str(a)]) == 0
    assert main(run_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    bench_args = ["bench", "--graph", "fixture:small", "--algo", "ag",
                  "--k-list", "1,2", "--epsilon-list", "0.2",
                  "--realizations", "300", "--delta", "0.1",
                  "--eval-trials", "2000", "--rng-seed", "22"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(bench_args + ["--out", str(c)]) == 0
    assert main(bench_args + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    report(10, "run and bench CSV outputs byte-identical across "
               "invocations")
