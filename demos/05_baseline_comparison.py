"""Quality/time comparison against the greedy baselines.

The baselines re-estimate from scratch after every pick (that is what
makes them slow at larger budgets); the sandwich pipeline samples once per
doubling round and certifies what it returns.  Decreases are evaluated on
a shared Monte-Carlo budget.
"""

import time

import numpy as np

from imin import fixtures
from imin.baselines import ag, gr, mc_greedy
from imin.diffusion import ic_spread_samples
from imin.optimize import AlgoParams
from imin.sandwich import sand_imin, sand_imin_minus


def main():
    ug = fixtures.mid_synthetic(np.random.default_rng(5), n=500, m=4000,
                                n_seeds=6)
    k = 5
    print(f"graph: n={ug.base.n} m={ug.base.m} k={k}")

    runs = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        blockers = fn()
        runs[name] = (blockers, time.perf_counter() - t0)

    params = AlgoParams(k=k, epsilon=0.2, delta=0.1, gamma=0.1)
    timed("sandimin", lambda: sand_imin(
        ug, params, np.random.default_rng(1)).chosen)
    timed("sandimin-minus", lambda: sand_imin_minus(
        ug, params, np.random.default_rng(1)).chosen)
    timed("ag", lambda: ag(ug, k, 1000, np.random.default_rng(2)))
    timed("gr", lambda: gr(ug, k, 1000, np.random.default_rng(3)))
    timed("mc-greedy", lambda: mc_greedy(ug, k, 150,
                                         np.random.default_rng(4)))

    eval_rng = np.random.default_rng(9)
    base = ic_spread_samples(ug, None, 20_000, eval_rng).mean()
    print(f"\nunblocked spread ~ {base:.1f}\n")
    print(f"{'algorithm':<16}{'decrease':>10}{'time (s)':>10}")
    for name, (blockers, secs) in runs.items():
        residual = ic_spread_samples(ug, blockers, 20_000, eval_rng).mean()
        print(f"{name:<16}{base - residual:>10.1f}{secs:>10.2f}")


if __name__ == "__main__":
    main()
