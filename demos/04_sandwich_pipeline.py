"""The full pipeline on a mid-size synthetic graph.

Both bound maximizers double their sample collections until the certified
approximation ratio clears 1 - 1/e - epsilon; the combiner then picks the
candidate with the smallest estimated residual spread and reports a
computable lower bound on the approximation ratio achieved.
"""

import numpy as np

from imin import fixtures
from imin.optimize import AlgoParams
from imin.sandwich import sand_imin


def main():
    rng = np.random.default_rng(3)
    ug = fixtures.mid_synthetic(rng, n=1200, m=6000, n_seeds=8)
    print(f"graph: n={ug.base.n} m={ug.base.m} seeds={sorted(ug.seeds)}")

    params = AlgoParams(k=8, epsilon=0.2, delta=1 / ug.base.n, gamma=0.1)
    result = sand_imin(ug, params, np.random.default_rng(17))

    print(f"\nbase spread estimate: {result.base_estimate.value:.1f}")
    for name, est in result.residual_estimates.items():
        blockers = sorted(result.candidates[name])
        print(f"  candidate {name:<9} residual {est.value:8.1f}  "
              f"blockers {blockers}")
    print(f"\nchosen: {result.chosen_name} -> decrease estimate "
          f"{result.decrease_estimate:.1f}")
    print(f"empirical approximation ratio >= {result.empirical_ratio:.3f}")

    for side in ("lower", "upper"):
        cert = result.certificates[side]
        print(f"\n{side}-bound certificate: rounds={cert.rounds}, "
              f"samples={cert.samples_primary}+{cert.samples_validation}, "
              f"certified ratio={cert.ratio:.3f}")
    print("\nwall clock per phase:",
          {k: round(v, 2) for k, v in result.timings.items()})


if __name__ == "__main__":
    main()
