"""Bundled micro-graphs used by tests, demos and the oracle-check command.

The two "worked" fixtures encode small propagation scenarios whose exact
decrease/bound values are known by hand; `worked_example_small` also ships
a fixed realization with fully determined dominator structure.  The random
generators produce oracle-sized graphs (for exhaustive checks) and
mid-size synthetic graphs (for trend and parity checks).
"""

from __future__ import annotations

import numpy as np

from .diffusion import Realization
from .graph import Graph, UnifiedGraph, assign_wc_probabilities, unify_seeds


def chain(p: float = 1.0) -> UnifiedGraph:
    """seed -> a -> b with a single path; blocking a cuts everything."""
    g = Graph.from_edges(3, [0, 1], [1, 2], [p, p])
    return unify_seeds(g, {0})


def diamond(p: float = 1.0) -> UnifiedGraph:
    """v0 -> {v1, v2} -> v3: the minimal combination-effect witness."""
    g = Graph.from_edges(4, [0, 0, 1, 2], [1, 2, 3, 3], [p, p, p, p])
    return unify_seeds(g, {0})


def fan_gadget(n: int = 8) -> UnifiedGraph:
    """v0 -> {v1, v2} -> v3 -> {v4..v_{n-1}}, all certain edges.

    Blocking v1 and v2 jointly protects everything, but each alone protects
    only itself, so the marginal-sum / joint-gain gap grows with n.
    """
    src = [0, 0, 1, 2] + [3] * (n - 4)
    dst = [1, 2, 3, 3] + list(range(4, n))
    g = Graph.from_edges(n, src, dst, np.ones(len(src)))
    return unify_seeds(g, {0})


# Figure-style micro example: one seed v0, seven nodes.  Probabilities are
# chosen so that plain subtree-greedy picks {v3, v1} (leaving v2 exposed)
# while the seed-neighbor two-stage baseline picks {v1, v2}, which cuts the
# source off entirely.
_SMALL_EDGES = [
    (0, 1, 0.9), (0, 2, 0.8),
    (1, 3, 0.8), (2, 3, 0.8),
    (3, 4, 0.5), (3, 5, 0.8), (3, 6, 0.8),
    (5, 6, 0.5),
]

# The fixed live-edge draw used in the worked dominator/common-path
# examples: every edge except 3->4 survives, so v4 is unreached.
_SMALL_REALIZATION_EDGES = [
    (0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (3, 6), (5, 6),
]


def worked_example_small() -> UnifiedGraph:
    src, dst, p = zip(*_SMALL_EDGES)
    g = Graph.from_edges(7, src, dst, p)
    return unify_seeds(g, {0})


def worked_example_small_realization(ug: UnifiedGraph = None) -> Realization:
    if ug is None:
        ug = worked_example_small()
    return Realization.from_edge_list(ug, _SMALL_REALIZATION_EDGES)


# Three-seed micro example with certain edges.  For B = {v3, v7, v12}:
# seven nodes lose activation, six of them are protected by some single
# blocker alone (v8 needs v7 and v12 together), and eight are reachable
# from B inside the receiver subgraph (v6 is reachable from v3 but keeps
# an alternative path through v2).  Node labels v1..v13 map to ids 0..12.
_THREE_SEED_EDGES = [
    ("v1", "v2"), ("v1", "v3"),
    ("v2", "v6"), ("v3", "v4"), ("v3", "v6"),
    ("v5", "v7"), ("v7", "v8"), ("v7", "v9"),
    ("v10", "v11"), ("v10", "v12"),
    ("v12", "v8"), ("v12", "v13"),
]


def _label_id(label: str) -> int:
    return int(label[1:]) - 1


def worked_example_three_seeds() -> UnifiedGraph:
    src = [_label_id(u) for u, _ in _THREE_SEED_EDGES]
    dst = [_label_id(v) for _, v in _THREE_SEED_EDGES]
    g = Graph.from_edges(13, src, dst, np.ones(len(src)),
                         labels=np.arange(1, 14))
    return unify_seeds(g, {_label_id("v1"), _label_id("v5"),
                           _label_id("v10")})


def random_tiny(rng: np.random.Generator, max_nodes: int = 10,
                max_prob_edges: int = 12) -> UnifiedGraph:
    """A small random probabilistic graph suitable for exact enumeration."""
    while True:
        n = int(rng.integers(4, max_nodes + 1))
        want = int(rng.integers(n - 1, max_prob_edges + 1))
        pairs = set()
        tries = 0
        while len(pairs) < want and tries < 20 * want:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            tries += 1
            if u != v:
                pairs.add((u, v))
        if not pairs:
            continue
        src, dst = zip(*sorted(pairs))
        p = rng.choice([0.3, 0.5, 0.7, 0.9], size=len(src))
        g = Graph.from_edges(n, src, dst, p)
        n_seeds = int(rng.integers(1, max(2, n // 3) + 1))
        seeds = set(int(v) for v in rng.choice(n, size=n_seeds,
                                               replace=False))
        ug = unify_seeds(g, seeds)
        if ug.seed_out_neighbors():
            return ug


def mid_synthetic(rng: np.random.Generator, n: int = 600,
                  m: int = 4000, n_seeds: int = 8) -> UnifiedGraph:
    """A mid-size directed graph with weighted-cascade probabilities.

    Endpoints are drawn with a mild preference for low ids so a handful of
    hub nodes emerges; seeds are taken from the highest out-degree nodes to
    make the cascade non-trivial.
    """
    u = (np.sort(rng.random((m * 2, 2)), axis=1)[:, 0] * n).astype(np.int64)
    v = rng.integers(0, n, size=m * 2)
    keep = u != v
    u, v = u[keep], v[keep]
    key = u * n + v
    _, idx = np.unique(key, return_index=True)
    idx = np.sort(idx)[:m]
    g = assign_wc_probabilities(Graph.from_edges(n, u[idx], v[idx]))
    order = np.argsort(-g.out_degree(), kind="stable")
    seeds = [int(x) for x in order[:n_seeds]]
    return unify_seeds(g, seeds)


BUNDLED = {
    "chain": chain,
    "diamond": diamond,
    "fan": fan_gadget,
    "small": worked_example_small,
    "three-seeds": worked_example_three_seeds,
}


def bundled(name: str) -> UnifiedGraph:
    try:
        return BUNDLED[name]()
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; choose from {sorted(BUNDLED)}"
        ) from None
