"""The CSR arrays of every graph the package builds, byte for byte.

The builders must give the arrays, dtypes and edge ids of the reference
builders in `conftest`, which sort each CSR by np.lexsort and rebuild
both directions to set probabilities or attach the source: edge ids,
probabilities and the source's edges feed every random draw.

The digests below pin the cases the solvers and the CLI build.  Each is
taken over the dtype, shape and bytes of the seven CSR arrays of its base
graph, the base graph's labels and the three forward arrays of its unified
graph, which holds no reverse CSR of its own, and a change to how graphs
are built must leave every one unchanged.
Print fresh digests with

    PYTHONPATH=src python tests/test_csr.py
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imin import cli, fixtures
from imin.graph import (Graph, GraphError, assign_constant_probability,
                        assign_wc_probabilities, block_nodes, unify_seeds)

from conftest import (reference_assign_constant, reference_assign_wc,
                      reference_from_edges, reference_unified)

CSR = ("out_ptr", "out_dst", "out_p", "in_ptr", "in_src", "in_p", "in_eid")
FORWARD = CSR[:3]      # all that a unified graph holds

# An edge list with sparse labels, comments, a self-loop, a repeated pair
# and both directions of one pair.
EDGE_LIST = """# sparse labels
40 7
7 40
7 913
913 5
5 5
40 913
40 7
2 5
913 2
"""
EDGE_LIST_SEEDS = (40, 2)


def digest(ug):
    h = hashlib.sha256()
    arrays = ([getattr(ug.base, a) for a in CSR] + [ug.base.labels]
              + [getattr(ug, a) for a in FORWARD])
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()


def _mid(prob):
    ug = fixtures.mid_synthetic(np.random.default_rng(3), 300, 1200, 10)
    if prob is None:
        return ug
    return unify_seeds(assign_constant_probability(ug.base, prob), ug.seeds)


def _padded():
    """A mid_synthetic core joined to unreachable random padding, with
    weighted-cascade probabilities over the whole graph."""
    rng = np.random.default_rng(4)
    core = fixtures.mid_synthetic(rng, 60, 240, 3)
    pad_n = 240
    u, v = rng.integers(0, pad_n, size=(2, 4 * pad_n))
    key = np.unique((u * pad_n + v)[u != v])
    src, dst, _ = core.base.edge_array()
    g = Graph.from_edges(60 + pad_n,
                         np.concatenate([src, key // pad_n + 60]),
                         np.concatenate([dst, key % pad_n + 60]))
    return unify_seeds(assign_wc_probabilities(g), core.seeds)


def _edge_list(tmp_path, undirected, prob):
    """The graph `imin run` builds from EDGE_LIST."""
    path = tmp_path / "edges.txt"
    path.write_text(EDGE_LIST)
    g, _ = cli._load_graph(str(path), undirected, prob, 0.25)
    label_to_id = {int(lab): i for i, lab in enumerate(g.labels)}
    return unify_seeds(g, [label_to_id[s] for s in EDGE_LIST_SEEDS])


CASES = {
    "small": lambda _: fixtures.worked_example_small(),
    "three-seeds": lambda _: fixtures.worked_example_three_seeds(),
    "mid120": lambda _: fixtures.mid_synthetic(
        np.random.default_rng(0), 120, 480, 4),
    "dead": lambda _: unify_seeds(
        Graph.from_edges(4, [0, 0, 1], [1, 2, 3], [0.0, 0.0, 1.0]), {0}),
    "padded": lambda _: _padded(),
    "mid-wc": lambda _: _mid(None),
    "mid-const": lambda _: _mid(0.1),
    "edges-wc": lambda t: _edge_list(t, False, "wc"),
    "edges-const": lambda t: _edge_list(t, False, "const"),
    "edges-undirected-wc": lambda t: _edge_list(t, True, "wc"),
}

DIGESTS = {
    "dead": "fe8aeca00ffd2bd9a64383e9f06aa74002e15ce6a7201e2e59b9d378c36ccffe",
    "edges-const": "26473677124b2183f1ebfe73b37223dbbc5f574d4f5d73e70ee647567519a00a",
    "edges-undirected-wc": "e4e31136b4f8e29bd0e1e16282a1d7bc42845577a5bc07c5293b913fbbae5db9",
    "edges-wc": "2c88cc6088161c1cdc703d40573e02f89381ff9581d8ea09ee559c9e017b7a5a",
    "mid-const": "a7b06a0e27879623eb5c67e7fcdf2730c3ce15d547d4b5b0648f075c9c166713",
    "mid-wc": "1816ee1ff01f19a9dabb0f2f83dc922ee58c21492f09fb97debc14e3684a1857",
    "mid120": "3a110e3d92bfe03963740264a7a7b2a6ac4f9a027745dac116be45defdef358a",
    "padded": "c5c8be213f13d59b431b778f021786e8ad85eb281be8de3b135fd86216e1c565",
    "small": "224a725159939a15493167651a52d3239b4621ef267669776425b51467ffa99a",
    "three-seeds": "793af67155d6f4fa2bd27857b839c9a942699d10bd1e2165fbd3d2cae776be7b",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csr_arrays_unchanged(name, tmp_path):
    assert digest(CASES[name](tmp_path)) == DIGESTS[name]


def test_unify_seeds_copies_only_the_forward_csr():
    # The peak while attaching the source is the forward CSR with its
    # edges and the three node masks, plus 64 KiB for the seed list and
    # Python objects: no reverse CSR is built.
    mid = fixtures.mid_synthetic(np.random.default_rng(5), 20_000, 80_000, 50)
    tracemalloc.start()
    try:
        ug = unify_seeds(mid.base, mid.seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (ug.out_ptr, ug.out_dst, ug.out_p,
                                  ug.seed_mask, ug.uncounted, ug.blocked))
    assert peak <= held + 64 * 1024, (peak, held)


def assert_same_csr(got, want, names=CSR):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@st.composite
def edge_sets(draw):
    """(n, src, dst, p, seeds): distinct edges in random order, with
    probabilities 0, 1 and in between, and a non-empty seed set."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    pairs = draw(st.lists(st.sampled_from(pairs), unique=True)
                 if pairs else st.just([]))
    p = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                      min_size=len(pairs), max_size=len(pairs)))
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1))
    src = [u for u, _ in pairs]
    dst = [v for _, v in pairs]
    return n, src, dst, p, sorted(seeds)


@settings(max_examples=150, deadline=None)
@given(edge_sets())
# no edges; isolated nodes, the highest id a seed with no in-edges; every
# node a seed
@example((3, [], [], [], [0]))
@example((5, [0, 1], [1, 0], [0.5, 1.0], [4]))
@example((4, [3, 2, 0, 1], [0, 1, 2, 3], [1.0] * 4, [0, 1, 2, 3]))
def test_builders_match_the_reference(case):
    n, src, dst, p, seeds = case
    labels = np.arange(100, 100 + n)
    g = Graph.from_edges(n, src, dst, p, labels=labels)
    want = reference_from_edges(n, src, dst, p, labels)
    assert_same_csr(g, want)
    assert np.array_equal(g.labels, want.labels)
    assert g.labels.dtype == want.labels.dtype
    assert_same_csr(assign_wc_probabilities(g), reference_assign_wc(want))
    assert_same_csr(assign_constant_probability(g, 0.3),
                    reference_assign_constant(want, 0.3))

    ug = unify_seeds(g, seeds)
    assert_same_csr(ug, reference_unified(want, seeds), FORWARD)
    assert ug.m_total == g.m + len(seeds)
    cands = [v for v in range(n) if v not in seeds]
    view = block_nodes(ug, cands[:2])
    assert_same_csr(view, reference_unified(want, seeds), FORWARD)

    if src:
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(n, src + src[-1:], dst + dst[-1:], p + p[-1:])


def test_shared_arrays_are_read_only():
    g = Graph.from_edges(3, [0, 1, 2], [1, 2, 0], [0.5, 0.5, 0.5])
    wc = assign_wc_probabilities(g)
    assert wc.out_dst is g.out_dst and wc.in_eid is g.in_eid
    ug = unify_seeds(wc, {0})
    view = block_nodes(ug, [1])
    assert view.out_dst is ug.out_dst
    for graph in (g, wc, ug, view):
        for name in CSR if isinstance(graph, Graph) else FORWARD:
            with pytest.raises(ValueError, match="read-only"):
                getattr(graph, name)[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        g.labels[0] = 7


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, build in sorted(CASES.items()):
            print(f'    "{name}": "{digest(build(pathlib.Path(tmp)))}",')
