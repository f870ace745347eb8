"""Self-contained invariant suite over the bundled fixture corpus.

A trimmed-down version of the test suite's oracle checks, runnable from
the command line (`imin oracle-check`).  Each check returns a pass/fail
with a short detail string; sizes are chosen so the whole suite runs in
well under a minute.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import fixtures
from .diffusion import stopping_rule_spread
from .domtree import build_dominator_tree
from .optimize import AlgoParams, lsbm
from .oracle import ExactModel
from .sampling import (ChainCollection, CPCollection, LRRCollection,
                       coverage)


def _check_worked_examples():
    ug = fixtures.worked_example_three_seeds()
    model = ExactModel(ug)
    blockers = [2, 6, 11]  # labels v3, v7, v12
    got = (model.decrease(blockers), model.lower_bound(blockers),
           model.upper_bound(blockers))
    ok = got == (7.0, 6.0, 8.0)
    return ok, f"decrease/lower/upper = {got}, want (7, 6, 8)"


def _check_dominator_fixture():
    ug = fixtures.worked_example_small()
    phi = fixtures.worked_example_small_realization(ug)
    dt = build_dominator_tree(phi)
    want = {1: 1, 2: 1, 3: 3, 4: 0, 5: 1, 6: 1}
    got = {v: int(dt.subtree_size[v]) for v in want}
    return got == want, f"subtree sizes {got}, want {want}"


def _check_bound_ordering(rng):
    worst = 0.0
    for _ in range(8):
        ug = fixtures.random_tiny(rng, max_nodes=8, max_prob_edges=10)
        model = ExactModel(ug)
        cands = [v for v in range(ug.base.n) if v not in ug.seeds]
        for size in (1, 2):
            for combo in itertools.combinations(cands, size):
                low = model.lower_bound(combo)
                mid = model.decrease(combo)
                up = model.upper_bound(combo)
                worst = max(worst, low - mid, mid - up)
    return worst <= 1e-9, f"max ordering violation {worst:.2e}"


def _check_unbiased(rng):
    ug = fixtures.worked_example_small()
    model = ExactModel(ug)
    blockers = [1, 3]
    n_samples = 3000

    coll = CPCollection(ug, rng)
    coll.extend(n_samples)
    est_low = coverage(coll, blockers) / n_samples
    true_low = model.lower_bound(blockers)

    def scaled(coll):   # population size times the covered fraction
        coll.extend(n_samples)
        return len(coll.population) * coverage(coll, blockers) / n_samples

    est_up = scaled(LRRCollection(ug, rng))
    true_up = model.upper_bound(blockers)
    est_chain = scaled(ChainCollection(ug, rng))

    ok = all(abs(est - true) < 0.25 * max(1.0, true) for est, true in
             ((est_low, true_low), (est_chain, true_low), (est_up, true_up)))
    return ok, (f"lower est {est_low:.3f} (chains {est_chain:.3f}) vs "
                f"{true_low:.3f}; upper est {est_up:.3f} vs {true_up:.3f}")


def _check_stopping_rule(rng):
    ug = fixtures.diamond(0.5)
    true = ExactModel(ug).spread()
    gamma, delta = 0.2, 0.1
    hits = 0
    runs = 120
    for _ in range(runs):
        est = stopping_rule_spread(ug, None, gamma, delta, rng)
        if (1 - gamma) * true <= est.value <= (1 + gamma) * true:
            hits += 1
    frac = hits / runs
    slack = 3 * math.sqrt(delta * (1 - delta) / runs)
    return frac >= 1 - delta - slack, f"coverage {frac:.3f}"


def _check_guarantee(rng):
    ug = fixtures.worked_example_small()
    model = ExactModel(ug)
    params = AlgoParams(k=2, epsilon=0.2, delta=0.2)
    _, opt_val = model.optimal_blockers(2, "lower")
    target = (1 - 1 / math.e - params.epsilon) * opt_val
    hits = 0
    runs = 30
    for _ in range(runs):
        blockers, _ = lsbm(ug, params, rng)
        if model.lower_bound(blockers) >= target - 1e-9:
            hits += 1
    frac = hits / runs
    return frac >= 0.8, f"guarantee held in {hits}/{runs} runs"


def run_invariant_suite(seed=0):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    checks = [
        ("worked-example-bounds", _check_worked_examples, False),
        ("dominator-subtrees", _check_dominator_fixture, False),
        ("bound-ordering", _check_bound_ordering, True),
        ("estimator-unbiasedness", _check_unbiased, True),
        ("stopping-rule-coverage", _check_stopping_rule, True),
        ("lower-maximizer-guarantee", _check_guarantee, True),
    ]
    results = []
    for name, fn, needs_rng in checks:
        ok, detail = fn(rng) if needs_rng else fn()
        results.append((name, ok, detail))
    return results
