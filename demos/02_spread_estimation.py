"""Spread estimation three ways: exact, fixed-budget MC, adaptive.

The adaptive estimator carries a (gamma, delta) contract: the returned
value is within a (1 +/- gamma) factor of the truth with probability at
least 1 - delta.  It stops by empirical-Bernstein stopping (Mnih,
Szepesvari and Audibert, ICML 2008), so the cascades it spends grow with
the variance of the spread it measures, in whole batches of 1024.
"""

import numpy as np

from imin import fixtures
from imin.diffusion import ic_spread_samples, stopping_rule_spread
from imin.oracle import ExactModel


def main():
    ug = fixtures.diamond(0.5)
    rng = np.random.default_rng(7)
    true = ExactModel(ug).spread()
    print(f"diamond with p=0.5 everywhere: exact spread = {true}")

    mc = ic_spread_samples(ug, None, trials=100_000, rng=rng).mean()
    print(f"monte carlo (1e5 trials):      {mc:.4f}")

    for gamma, delta in ((0.2, 0.1), (0.1, 0.05), (0.05, 0.01)):
        est = stopping_rule_spread(ug, None, gamma, delta, rng)
        print(f"adaptive gamma={gamma:<5} delta={delta:<5} -> "
              f"{est.value:.4f} using {est.samples_used} cascades")

    print("\nblocked to zero:")
    est = stopping_rule_spread(fixtures.chain(), [1], 0.1, 0.1, rng)
    print(f"chain with its only exit blocked -> value {est.value}, "
          f"exact_zero={est.exact_zero} (no sampling loop)")


if __name__ == "__main__":
    main()
