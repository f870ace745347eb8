"""The sampling units behind the certified bound maximizers.

A common-path sequence prices the lower bound the paper's way: per
realization, every reached node contributes the set of nodes sitting on
*all* of its paths from the source (its dominator-tree root path).  The
lower maximizer draws the same sets target-first: the dominator chain of
one random misinformation receiver per sample.  A reverse-reachable set
prices the upper bound: who could have cut *some* path to a random
receiver.  Coverage counts over many samples turn each into an unbiased
estimate; `coverage` counts any kind of collection.
"""

import numpy as np

from imin import fixtures
from imin.oracle import ExactModel
from imin.sampling import (ChainCollection, CPCollection, LRRCollection,
                           compute_population, coverage)


def main():
    ug = fixtures.worked_example_small()
    rng = np.random.default_rng(11)

    one = CPCollection(ug, rng)
    one.extend(1)
    seq = next(one.sequences())
    print("one common-path sequence:")
    for node, members in sorted(seq.sets().items()):
        print(f"  node {node}: every source path crosses {sorted(members)}")

    model = ExactModel(ug)
    B = [1, 3]
    n = 20_000

    coll = CPCollection(ug, np.random.default_rng(1))
    coll.extend(n)
    est_low = coverage(coll, B) / coll.n_samples
    print(f"\nlower bound of blocking {B}: "
          f"coverage estimate {est_low:.4f} vs exact "
          f"{model.lower_bound(B):.4f}")

    pop = compute_population(ug)
    ccoll = ChainCollection(ug, np.random.default_rng(3))
    ccoll.extend(n)
    est_chain = len(pop) * coverage(ccoll, B) / ccoll.n_samples
    print(f"  the same from dominator chains (what the lower maximizer "
          f"samples): {est_chain:.4f}")
    lcoll = LRRCollection(ug, np.random.default_rng(2))
    lcoll.extend(n)
    est_up = len(pop) * coverage(lcoll, B) / lcoll.n_samples
    print(f"upper bound of blocking {B}: "
          f"scaled coverage {est_up:.4f} vs exact "
          f"{model.upper_bound(B):.4f}")
    print(f"(population of potential receivers: {pop}; empty samples kept "
          f"in the denominator: {lcoll.n_empty})")


if __name__ == "__main__":
    main()
