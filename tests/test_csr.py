"""The CSR arrays of every graph the package builds, byte for byte.

The builders must give the arrays, dtypes and edge ids of the reference
builders in `conftest`, which sort each CSR by np.lexsort and rebuild
both directions to set probabilities or attach the source: edge ids,
probabilities and the source's edges feed every random draw.

The digests below pin the cases the solvers and the CLI build.  Each is
taken over the dtype, shape and bytes of the seven CSR arrays of its base
graph, the base graph's labels and the seven arrays of its unified graph,
and a change to how graphs are built must leave every one unchanged.
Print fresh digests with

    PYTHONPATH=src python tests/test_csr.py
"""

import hashlib

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
              + [getattr(ug, a) for a in CSR])
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
    "dead": "45fa05be47a087a26432c87a32b87d47f8c1225a1e9cf5ca9bd9b174dcbf1b96",
    "edges-const": "b05d04ee525581fc83e7ba1200d66256c6c9aea7f0f39b522824aeccae14e412",
    "edges-undirected-wc": "57880d228f3319966ee0826e30ccc4b68a0aba2cb8ac70c9bed09c2cd6f4b2a4",
    "edges-wc": "abd05eba1f40eada2086bdde32bd94f14e808e7992994215a2accbd584298fe1",
    "mid-const": "0d7400a2df27b87c9ba7966f2b45aea9c494208f3ed1d33608448d9cdd0f507b",
    "mid-wc": "ab86adef3912fa983f487ceb8e80b98001533e1162cdaf2cfac414f58ba4bd26",
    "mid120": "833785679f9737f6c6adc08a6f4757131be333b6562e5977b017911c60ef95b9",
    "padded": "9cff79d3cc5f1cd786f26c5ac75b4d263e1401b812551a84d1ab692de7ed2158",
    "small": "070a3d6e3c43a80e3dd2e16043b53b2a0bf6236cadf2b8fb96523a27f7a043de",
    "three-seeds": "300eff71093c856bc61b6eac786351f2ab1ab8eac7854a9d80536d70467d2e28",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csr_arrays_unchanged(name, tmp_path):
    assert digest(CASES[name](tmp_path)) == DIGESTS[name]



def assert_same_csr(got, want):
    for name in CSR:
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
    assert_same_csr(ug, reference_unified(want, seeds))
    assert ug.m_total == g.m + len(seeds)
    cands = [v for v in range(n) if v not in seeds]
    view = block_nodes(ug, cands[:2])
    assert_same_csr(view, reference_unified(want, seeds))

    if src:
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(n, src + src[-1:], dst + dst[-1:], p + p[-1:])


def test_shared_arrays_are_read_only():
    g = Graph.from_edges(3, [0, 1, 2], [1, 2, 0], [0.5, 0.5, 0.5])
    wc = assign_wc_probabilities(g)
    assert wc.out_dst is g.out_dst and wc.in_eid is g.in_eid
    ug = unify_seeds(wc, {0})
    view = block_nodes(ug, [1])
    assert view.in_src is ug.in_src
    for graph in (g, wc, ug, view):
        for name in CSR:
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
