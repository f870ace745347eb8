import numpy as np
import pytest

from imin import fixtures
from imin.graph import Graph, unify_seeds


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(12345))


def make_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def base_spread_enumeration(g, seeds, blockers=()):
    """Independent exact spread of a *multi-seed base graph* (no unification).

    Enumerates every live-edge outcome of the base graph directly and runs
    a set-based BFS from the seed set; counts activated non-seeds.  Used to
    test that seed unification preserves spreads.
    """
    src, dst, p = g.edge_array()
    blocked = set(blockers)
    rand = [(int(s), int(d), float(q)) for s, d, q in zip(src, dst, p)
            if 0.0 < q < 1.0]
    sure = [(int(s), int(d)) for s, d, q in zip(src, dst, p) if q >= 1.0]
    total = 0.0
    for bits in range(1 << len(rand)):
        prob = 1.0
        edges = list(sure)
        for j, (s, d, q) in enumerate(rand):
            if bits >> j & 1:
                prob *= q
                edges.append((s, d))
            else:
                prob *= 1.0 - q
        adj = {}
        for s, d in edges:
            if d not in blocked:
                adj.setdefault(s, []).append(d)
        reached = set(v for v in seeds if v not in blocked)
        stack = list(reached)
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        total += prob * len(reached - set(seeds))
    return total


def tiny_with_dead_edges(seed):
    """A random oracle-sized graph with some edges set to probability 0,
    plus a random blocker set of up to two non-seed nodes."""
    rng = make_rng(seed)
    ug = fixtures.random_tiny(rng, max_nodes=8, max_prob_edges=10)
    src, dst, p = ug.base.edge_array()
    p[rng.random(len(p)) < 0.4] = 0.0
    ug = unify_seeds(Graph.from_edges(ug.base.n, src, dst, p), ug.seeds)
    cands = [v for v in range(ug.base.n) if v not in ug.seeds]
    size = int(rng.integers(0, min(2, len(cands)) + 1))
    blockers = [int(v) for v in rng.choice(cands, size=size, replace=False)]
    return ug, blockers


def certain_edges(seed):
    """`tiny_with_dead_edges(seed)` with every positive probability raised
    to 1, so each edge is live or dead for sure and every realization is
    the same; returned with its blockers, not yet applied."""
    ug, blockers = tiny_with_dead_edges(seed)
    src, dst, p = ug.base.edge_array()
    g = Graph.from_edges(ug.base.n, src, dst, (p > 0).astype(float))
    return unify_seeds(g, ug.seeds), blockers
