"""Probabilistic directed graphs, seed unification and node blocking.

Graphs are stored in CSR form over dense integer node ids.  Original node
labels from an edge-list file are kept in a side array so results can be
reported in the input's vocabulary.  Building a graph sorts each CSR
direction once, by the packed key src * n + dst.  Setting probabilities
keeps the CSR and replaces only the probability arrays, and attaching the
virtual source appends its edges to the forward CSR, so neither sorts
again.  A unified graph holds that forward CSR only; the reverse CSR of
its pair searches (`UnifiedGraph.reach_graph`) is cut from the base's.
Graphs are immutable after construction, and the arrays they share are
read-only; blocking is expressed as a node mask rather than a rewritten
edge set, so repeated re-blocking (greedy baselines) never copies the
adjacency arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np


class EdgeListParseError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


class GraphError(ValueError):
    """Raised on invalid graph construction or invalid blocker/seed input."""


def parse_label(token: str) -> int:
    """The node label that `token` spells: an optional sign and ASCII
    digits, within the int64 range that labels are stored in.

    Edge lists, `--seeds` and `--blockers` read labels through this one
    rule.  Anything else raises `ValueError`, whose message names the
    fault ("non-integer node id" or "node id outside the 64-bit integer
    range").
    """
    # `int` alone also takes "1_0" (as 10), " 3" and non-ASCII digits
    # such as "\u0663" (as 3), which would merge distinct labels
    if ((token.isdigit() or token[:1] in ("+", "-") and token[1:].isdigit())
            and token.isascii()):
        label = int(token)
        if -(1 << 63) <= label < 1 << 63:
            return label
        raise ValueError("node id outside the 64-bit integer range")
    raise ValueError("non-integer node id")


def _build_csr(n, src, dst):
    """(order, ptr) of the CSR by `src` with targets ascending: the edges'
    order, by one sort of the packed keys src * n + dst, and the row
    pointers."""
    order = np.argsort(src * n + dst)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    return order, ptr


@dataclass
class Graph:
    """A directed graph with per-edge propagation probabilities.

    Attributes:
        n, m: node and directed-edge counts.
        out_ptr/out_dst/out_p: CSR adjacency by source node.  The position
            of an edge in ``out_dst`` is its edge id.
        in_ptr/in_src/in_p/in_eid: CSR adjacency by target node; ``in_eid``
            maps each reverse slot back to the forward edge id.
        labels: original node labels (``labels[i]`` is the label of node i).
    """

    n: int
    m: int
    out_ptr: np.ndarray
    out_dst: np.ndarray
    out_p: np.ndarray
    in_ptr: np.ndarray
    in_src: np.ndarray
    in_p: np.ndarray
    in_eid: np.ndarray
    labels: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_edges(cls, n, src, dst, p=None, labels=None):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if p is None:
            p = np.ones(len(src), dtype=np.float64)
        p = np.asarray(p, dtype=np.float64)
        if n <= 0:
            raise GraphError("graph must have at least one node")
        if len(src) != len(dst) or len(src) != len(p):
            raise GraphError("edge arrays must have equal length")
        if len(src) and (src.min() < 0 or src.max() >= n
                         or dst.min() < 0 or dst.max() >= n):
            raise GraphError("edge endpoint out of range")
        if np.any(src == dst):
            raise GraphError("self-loops are not allowed")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise GraphError("edge probabilities must lie in [0, 1]")
        if labels is not None and len(labels) != n:
            raise GraphError("labels must have one entry per node")
        order, out_ptr = _build_csr(n, src, dst)
        # Edge id == position in the forward CSR arrays.
        out_dst, out_p = dst[order], p[order]
        fwd_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(out_ptr))
        # Equal keys are neighbours in sorted order.
        if np.any((np.diff(fwd_src) == 0) & (np.diff(out_dst) == 0)):
            raise GraphError("duplicate edges are not allowed")
        in_eid, in_ptr = _build_csr(n, out_dst, fwd_src)
        if labels is None:
            labels = np.arange(n, dtype=np.int64)
        else:   # a copy, so freezing it leaves the caller's array alone
            labels = np.array(labels, dtype=np.int64)
        return cls(n=n, m=len(src), out_ptr=out_ptr, out_dst=out_dst,
                   out_p=out_p, in_ptr=in_ptr, in_src=fwd_src[in_eid],
                   in_p=out_p[in_eid], in_eid=in_eid, labels=labels)

    def __post_init__(self):
        # Graphs share arrays (a probability change keeps the structure),
        # so none may change after construction.
        for a in (self.out_ptr, self.out_dst, self.out_p, self.in_ptr,
                  self.in_src, self.in_p, self.in_eid, self.labels):
            if a is not None:
                a.setflags(write=False)

    def in_degree(self):
        return np.diff(self.in_ptr)

    def out_degree(self):
        return np.diff(self.out_ptr)

    def edge_array(self):
        """Edges as (src, dst, p) arrays ordered by edge id."""
        src = np.repeat(np.arange(self.n, dtype=np.int64),
                        np.diff(self.out_ptr))
        return src, self.out_dst.copy(), self.out_p.copy()


def load_edge_list(path, directed=True):
    """Load a SNAP-style edge list ("u v" per line, '#' comments).

    Node ids are compacted to 0..n-1 in first-appearance order, self-loops
    are dropped, duplicate (u, v) pairs are deduplicated, and undirected
    input is doubled into two directed edges.  All probabilities start at 1
    (see :func:`assign_wc_probabilities`).  A leading byte-order mark is
    skipped.  A directory, a file that is not UTF-8 text and a node id
    that `parse_label` refuses raise `EdgeListParseError`.
    """
    id_of = {}      # label -> node id, in first-appearance order
    src, dst = [], []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise EdgeListParseError(
                        f"{path}: line {lineno}: expected 'u v', got {line!r}")
                try:
                    a, b = parse_label(parts[0]), parse_label(parts[1])
                except ValueError as exc:
                    raise EdgeListParseError(
                        f"{path}: line {lineno}: {exc} in {line!r}") from None
                if a == b:
                    continue
                u = id_of.setdefault(a, len(id_of))
                v = id_of.setdefault(b, len(id_of))
                src.append(u)
                dst.append(v)
                if not directed:
                    src.append(v)
                    dst.append(u)
    except IsADirectoryError:
        raise EdgeListParseError(f"{path}: is a directory") from None
    except UnicodeDecodeError:
        raise EdgeListParseError(f"{path}: not UTF-8 text") from None

    if not src:
        raise EdgeListParseError(f"{path}: empty graph (no usable edges)")
    n = len(id_of)
    # `from_edges` sorts the edges by this same key, so the order that
    # `np.unique` leaves them in is the one they would end in anyway
    key = np.unique(np.asarray(src, dtype=np.int64) * n + dst)
    tail = key // n
    return Graph.from_edges(n, tail, key - tail * n, labels=list(id_of))


def _with_probabilities(g: Graph, p) -> Graph:
    """`g` with forward edge probabilities `p`; shares every other array."""
    return replace(g, out_p=p, in_p=p[g.in_eid])


def assign_wc_probabilities(g: Graph) -> Graph:
    """Weighted-cascade convention: p(u, v) = 1 / in-degree(v)."""
    indeg = g.in_degree().astype(np.float64)
    return _with_probabilities(g, 1.0 / indeg[g.out_dst])


def assign_constant_probability(g: Graph, p: float) -> Graph:
    """Every edge gets probability `p`, which must lie in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must lie in [0, 1], got {p}")
    return _with_probabilities(g, np.full(g.m, p, dtype=np.float64))


class BlockerSet:
    """An ordered, duplicate-free set of blocked nodes (insertion order kept)."""

    __slots__ = ("nodes", "_member")

    def __init__(self, nodes: Iterable[int] = ()):
        self.nodes = tuple(dict.fromkeys(map(int, nodes)))
        self._member = frozenset(self.nodes)

    def __contains__(self, v):
        return v in self._member

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self):
        return len(self.nodes)

    def __eq__(self, other):
        if isinstance(other, BlockerSet):
            return self._member == other._member
        return NotImplemented

    def __repr__(self):
        return f"BlockerSet({list(self.nodes)})"


def as_blockers(b) -> BlockerSet:
    if b is None:
        return BlockerSet()
    if isinstance(b, BlockerSet):
        return b
    return BlockerSet(b)


def _attach_source(base: Graph, seeds):
    """The forward CSR of `base` plus a probability-1 edge from the source
    s = n to each of the sorted `seeds`: s has the largest id, so its
    edges come last (edge ids m ... m+k-1), where `Graph.from_edges` on
    the extended edge list puts them.  No reverse CSR is built."""
    k = len(seeds)
    return (np.append(base.out_ptr, base.m + k),
            np.concatenate([base.out_dst, np.asarray(seeds, dtype=np.int64)]),
            np.concatenate([base.out_p, np.ones(k)]))


class ReachGraph(NamedTuple):
    """A read-only reverse CSR over ids `0 .. n - 1`
    (`UnifiedGraph.reach_graph`): `in_ptr`, `in_src` and `in_p` as in
    `Graph`, `row[v]` the id of node v and `node[i]` the node of id i."""

    n: int
    in_ptr: np.ndarray
    in_src: np.ndarray
    in_p: np.ndarray
    row: np.ndarray
    node: np.ndarray


class UnifiedGraph:
    """A graph extended with a virtual source ``s`` wired to every seed.

    ``s`` gets id ``base.n`` and a probability-1 edge to each seed, so the
    cascade started at {s} activates exactly the nodes the seed set would.
    Spread values reported anywhere in this package count activated
    non-seed nodes only (neither ``s`` nor seeds are counted), which makes
    the decrease after blocking an exact difference of two spreads.

    Only the forward CSR (``out_ptr``, ``out_dst``, ``out_p``) is
    extended; `reach_graph` is cut from the base graph's reverse CSR.
    Instances are immutable; ``blocked`` is an optional boolean mask over
    node ids that traversals consult.
    """

    def __init__(self, base: Graph, seeds, blocked=None, _arrays=None):
        seeds = frozenset(int(v) for v in seeds)
        if not seeds:
            raise GraphError("seed set must be non-empty")
        if min(seeds) < 0 or max(seeds) >= base.n:
            raise GraphError("seed id out of range")
        self.base = base
        self.seeds = seeds
        self.s = base.n
        self.n_total = base.n + 1

        if _arrays is None:
            _arrays = _attach_source(base, sorted(seeds))
        self.out_ptr, self.out_dst, self.out_p = _arrays
        self.m_total = len(self.out_dst)

        self.seed_mask = np.zeros(self.n_total, dtype=bool)
        self.seed_mask[list(seeds)] = True
        # Set for nodes excluded from spread counts (seeds and s itself).
        self.uncounted = self.seed_mask.copy()
        self.uncounted[self.s] = True

        if blocked is None:
            self.blocked = np.zeros(self.n_total, dtype=bool)
        else:
            self.blocked = np.asarray(blocked, dtype=bool).copy()
        # block_nodes views share the adjacency arrays.
        for a in (*_arrays, self.blocked, self.seed_mask, self.uncounted):
            a.setflags(write=False)

    def seed_out_neighbors(self):
        """Nodes directly reachable from the seed set, excluding seeds and
        blocked nodes, ascending."""
        return self.seed_activation[0].tolist()

    @cached_property
    def seed_activation(self):
        """(nodes, probs): `seed_out_neighbors()` as an array, and the
        probability that the seed layer activates each node directly, one
        minus the product of its seed in-edges' misses.  Computed once per
        graph from the seeds' out-edges; each product runs in ascending seed
        order, the order of a node's in-edges, as a loop over them would
        multiply, so the floats are that loop's."""
        base = self.base
        seeds = np.flatnonzero(self.seed_mask[:base.n])
        lo, lens = base.out_ptr[seeds], np.diff(base.out_ptr)[seeds]
        eids = np.arange(lens.sum()) + np.repeat(lo - np.cumsum(lens) + lens,
                                                 lens)
        dst = base.out_dst[eids]
        keep = np.flatnonzero(~(self.seed_mask[dst] | self.blocked[dst]))
        order = keep[np.argsort(dst[keep], kind="stable")]
        dst = dst[order]
        head = np.flatnonzero(np.diff(dst, prepend=-1))
        miss = np.multiply.reduceat(1.0 - base.out_p[eids[order]], head)
        return dst[head], 1.0 - miss

    @cached_property
    def reach(self) -> np.ndarray:
        """`positive_reach()`, read-only: the nodes the seeds can reach at
        all past the graph's own blocked nodes.  Computed once per graph;
        the pair samplers' population and the decrease's N_B read it."""
        mask = self.positive_reach()
        mask.setflags(write=False)
        return mask

    @cached_property
    def reach_graph(self) -> ReachGraph:
        """The reverse CSR of `reach`, all that a pair search enters, cut
        from the base graph's reverse CSR.  Computed once per graph.

        Ids 0 .. len(node) - 1 are the nodes of the reach in node order,
        so keys sort as the nodes do, and id len(node) stands for every
        node outside it.  Seeds, the source and the outside id have no
        in-edges, so a reverse search stops at them and never enters a
        blocked node.  Every other node is a non-seed of the base graph
        and keeps its base in-edges in their order: a seed's tail is
        written as the source, and an edge from outside the reach keeps
        its slot, so its coin is still drawn, at probability 0.
        """
        base = self.base
        node = np.flatnonzero(self.reach)
        row = np.full(self.n_total, len(node), dtype=np.int64)
        row[node] = np.arange(len(node))
        lens = np.diff(base.in_ptr)
        deg = np.append(lens, 0) * (self.reach & ~self.uncounted)
        slots = np.repeat(deg[:-1] > 0, lens)
        src = base.in_src[slots]
        rg = ReachGraph(
            n=len(node) + 1,
            in_ptr=np.concatenate([[0], np.cumsum(deg[node]), [len(src)]]),
            in_src=np.where(self.seed_mask[src], row[self.s], row[src]),
            in_p=np.where(self.reach[src], base.in_p[slots], 0.0),
            row=row, node=node)
        for a in rg[1:]:
            a.setflags(write=False)
        return rg

    def candidates(self) -> np.ndarray:
        """Mask of the nodes a blocker may be chosen from: base nodes that
        are neither seeds nor already blocked."""
        allowed = ~(self.seed_mask | self.blocked)
        allowed[self.s] = False
        return allowed

    def positive_reach(self, blocked=None, live=None) -> np.ndarray:
        """Mask of nodes reachable from ``s`` over positive-probability edges,
        or over the edges of the edge mask ``live`` when one is given.

        The traversal never enters a node of ``blocked`` (default: the
        graph's own mask); ``s`` itself is in the mask.  A stack of one
        to eight node masks (`diffusion._MAX_RUNS`, one bit each) gives one
        row per mask, all from one search; any other count raises
        `ValueError`.
        """
        from .diffusion import _check_runs, _forward_levels  # imports graph

        blocked = self.blocked if blocked is None else blocked
        follow = self.out_p > 0.0 if live is None else live
        runs = np.atleast_2d(blocked)
        _check_runs(len(runs), "node masks")
        reach = np.zeros(self.n_total, dtype=np.uint8)
        reach[self.s] = (1 << len(runs)) - 1
        # a batch of one: each level's keys are its nodes
        for _, _, node, bits in _forward_levels(self, runs, 1, None, follow):
            reach[node] |= bits
            del _, node, bits       # one level at a time (`_forward_levels`)
        rows = np.unpackbits(reach[None], axis=0, count=len(runs),
                             bitorder="little").view(bool)
        return rows if np.ndim(blocked) == 2 else rows[0]

    def check_blockers(self, blockers) -> BlockerSet:
        """Validate a candidate blocker set against this graph."""
        b = as_blockers(blockers)
        for v in b:
            if v < 0 or v >= self.n_total:
                raise GraphError(f"blocker {v} out of range")
            if v == self.s:
                raise GraphError("the unified source cannot be blocked")
            if v in self.seeds:
                raise GraphError(f"seed node {v} cannot be blocked")
        return b

    def blocked_with(self, blockers) -> np.ndarray:
        """Combined blocked mask of the graph's own mask plus `blockers`."""
        mask = self.blocked.copy()
        mask[list(self.check_blockers(blockers))] = True
        return mask


def unify_seeds(g: Graph, seeds) -> UnifiedGraph:
    """Attach the virtual source to `seeds` with probability-1 edges."""
    return UnifiedGraph(g, seeds)


def block_nodes(g: UnifiedGraph, blockers) -> UnifiedGraph:
    """A view of `g` in which `blockers` can never be activated.

    Shares all adjacency arrays with `g`; only the node mask differs.
    """
    mask = g.blocked_with(blockers)
    return UnifiedGraph(
        g.base, g.seeds, blocked=mask,
        _arrays=(g.out_ptr, g.out_dst, g.out_p))
