"""Influence minimization via node blocking on probabilistic graphs.

Given a directed graph with edge propagation probabilities, a set of
misinformation seeds and a budget k, the package selects k nodes to block
so the expected cascade size drops as much as possible, and reports a
computable lower bound on the approximation ratio actually achieved.

Typical use::

    import numpy as np
    from imin import (load_edge_list, assign_wc_probabilities, unify_seeds,
                      AlgoParams, sand_imin)

    g = assign_wc_probabilities(load_edge_list("graph.txt"))
    ug = unify_seeds(g, {3, 17, 42})
    rng = np.random.default_rng(7)
    result = sand_imin(ug, AlgoParams(k=10, epsilon=0.2, delta=1 / g.n), rng)
    print(result.chosen, result.decrease_estimate, result.empirical_ratio)
"""

from .baselines import ag, gr, mc_greedy
from .diffusion import SpreadEstimate, ic_spread_samples, stopping_rule_spread
from .graph import (BlockerSet, EdgeListParseError, Graph, GraphError,
                    UnifiedGraph, assign_constant_probability,
                    assign_wc_probabilities, block_nodes, load_edge_list,
                    unify_seeds)
from .optimize import (AlgoParams, BoundCertificate, GreedyTrace,
                       SampleSchedule, StopCheck, cov_upper_opt, gsbm, lsbm,
                       max_coverage, opt_lower_bound)
from .oracle import ExactModel, OracleLimitError
from .sampling import (ChainCollection, CPCollection, LRRCollection,
                       compute_population, coverage)
from .sandwich import (SandwichResult, empirical_ratio, lhga, sand_imin,
                       sand_imin_minus)

__version__ = "0.1.0"
