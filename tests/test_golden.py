"""Fixed-seed outputs pinned byte for byte.

A refactor must leave every value here unchanged.  Beside the solvers'
outputs, the file pins sha256 digests of the sampling kernels' raw
outputs (and of the generator state each leaves behind) and the picks of
the `ag`/`gr` baselines, on the `mid120` graph and on a view of it with
nodes already blocked.  A change that alters the random stream on
purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --update

(which prints the keys whose values changed) and says so in CHANGES.md.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np

from imin import fixtures
from imin.baselines import ag, gr
from imin.diffusion import (ic_spread_samples, reverse_reach_counts,
                            spread_samples)
from imin.graph import Graph, block_nodes, unify_seeds
from imin.optimize import AlgoParams, gsbm, lsbm
from imin.sampling import _cp_batch, _pair_batch, compute_population
from imin.sandwich import sand_imin, sand_imin_minus

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

# graph name -> (graph constructor, budgets)
GRAPHS = {
    "small": (fixtures.worked_example_small, (1, 2)),
    "three-seeds": (fixtures.worked_example_three_seeds, (2,)),
    "mid120": (lambda: fixtures.mid_synthetic(
        np.random.default_rng(0), 120, 480, 4), (3,)),
    # seeds whose out-edges all have probability 0: both zero-spread exits
    "dead": (lambda: unify_seeds(
        Graph.from_edges(4, [0, 0, 1], [1, 2, 3], [0.0, 0.0, 1.0]), {0}),
        (1,)),
}
SEED = 20240520

# Why each maximizer stopped on each graph: "early_exit" where the budget
# covers every seed out-neighbor or the seeds reach nobody, "ratio"
# elsewhere.  No golden case reaches the round cap.
STOP_REASONS = {"small/k=1": "ratio", "small/k=2": "early_exit",
                "three-seeds/k=2": "ratio", "mid120/k=3": "ratio",
                "dead/k=1": "early_exit"}


# The kernels' golden graph, the nodes its blocked view blocks (three seed
# out-neighbors and two others), the kernels' sample counts (one, a few,
# and one past a full batch of 1024; `rr_counts` draws all 1025 in one
# batch on this graph) and the baselines' realizations per round.
KERNEL_GRAPH = "mid120/k=3"
KERNEL_BLOCKED = (0, 2, 6, 40, 77)
KERNEL_COUNTS = (1, 7, 1025)
BASELINE_REALIZATIONS = 300
# The blocker sets of the two three-run spread kernels: each inside the
# next (one resumed search), and two that do not nest (run bits).
KERNEL_RUNS = (None, (7, 9), (7, 9, 12, 13))
KERNEL_APART = (None, (7, 9), (12, 13))


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=key))


def _maximizer(fn, ug, params, rng):
    blockers, cert = fn(ug, params, rng)
    return {"blockers": list(blockers), "certificate": cert.as_dict()}


def _pipeline(fn, ug, params, rng):
    out = fn(ug, params, rng).as_dict()
    # how long and in how many searches, not what: neither is pinned here
    del out["timings_s"], out["pair_streams"]
    return out


def _digest(*arrays):
    """sha256 of int64 arrays, each prefixed by its length."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(np.int64(len(a)).tobytes() + a.tobytes())
    return h.hexdigest()


def _set_arrays(part, ug, count, rng):
    """(targets, set sizes, members) of `count` LRR sets (`part` 1) or
    chains (`part` 2) of `_pair_batch`, flat."""
    batches = list(_pair_batch(ug, np.asarray(compute_population(ug)), count,
                               rng))
    return (np.concatenate([b[0] for b in batches]),
            np.concatenate([b[part][1] for b in batches]),
            np.concatenate([b[part][0] for b in batches]))


def _kernels(ug, gi):
    """Digests of every sampling kernel's output on `ug` and its blocked
    view, each followed by one draw from the generator it used, and the
    baselines' picks."""
    out = {}
    views = {"plain": ug, "blocked": block_nodes(ug, KERNEL_BLOCKED)}
    for vi, (view, g) in enumerate(views.items()):
        for count in KERNEL_COUNTS:
            runs = {
                "cp": lambda r: [a for batch in _cp_batch(g, count, r)
                                 for a in batch],
                "lrr": lambda r: _set_arrays(1, g, count, r),
                "ic": lambda r: [ic_spread_samples(g, None, count, r)],
            }
            if view == "plain":
                runs["rr_counts"] = lambda r: [
                    reverse_reach_counts(g.base, count, r)]
            runs["chain"] = lambda r: _set_arrays(2, g, count, r)
            runs["spread"] = lambda r: list(
                spread_samples(g, KERNEL_RUNS, count, r))
            runs["spread_apart"] = lambda r: list(
                spread_samples(g, KERNEL_APART, count, r))
            for ki, (kernel, run) in enumerate(runs.items()):
                r = _rng(gi, vi, count, ki)
                arrays = run(r)
                out[f"{view}/{kernel}/{count}"] = _digest(
                    *arrays, [r.integers(2 ** 62)])
        for ki, algo in enumerate((ag, gr)):
            out[f"{view}/{algo.__name__}"] = list(algo(
                g, 3, BASELINE_REALIZATIONS, _rng(gi, vi, ki, 9)))
    return out


def outputs():
    out = {}
    for gi, (name, (build, budgets)) in enumerate(GRAPHS.items()):
        ug = build()
        for k in budgets:
            params = AlgoParams(k=k, epsilon=0.2, delta=0.1)
            key = f"{name}/k={k}"
            out[key] = {
                "lsbm": _maximizer(lsbm, ug, params, _rng(gi, k, 0)),
                "gsbm": _maximizer(gsbm, ug, params, _rng(gi, k, 1)),
                "sand_imin": _pipeline(sand_imin, ug, params,
                                       _rng(gi, k, 2)),
                "sand_imin_minus": _pipeline(sand_imin_minus, ug, params,
                                             _rng(gi, k, 3)),
            }
            if key == KERNEL_GRAPH:
                out[key]["kernels"] = _kernels(ug, gi)
    # a JSON round trip turns tuples into lists, as in the stored file
    return json.loads(json.dumps(out))


def test_fixed_seed_outputs_unchanged():
    want = json.loads(GOLDEN.read_text())
    got = outputs()
    assert sorted(got) == sorted(want)
    for key in want:
        for algo in want[key]:
            assert got[key][algo] == want[key][algo], f"{key} {algo}"


def test_stop_reasons_pinned():
    want = json.loads(GOLDEN.read_text())
    assert sorted(want) == sorted(STOP_REASONS)
    for key, reason in STOP_REASONS.items():
        certs = [want[key]["lsbm"]["certificate"],
                 want[key]["gsbm"]["certificate"],
                 *want[key]["sand_imin"]["certificates"].values(),
                 *want[key]["sand_imin_minus"]["certificates"].values()]
        assert len(certs) == 5
        for cert in certs:
            assert cert["stop_reason"] == reason, key
            assert cert["early_exit"] == (reason == "early_exit"), key


def _leaves(tree, path=()):
    """{path: value} of every non-dict value in nested dicts."""
    if not isinstance(tree, dict):
        return {"/".join(path): tree}
    return {k: v for key, sub in tree.items()
            for k, v in _leaves(sub, path + (key,)).items()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    old = _leaves(json.loads(GOLDEN.read_text())) if GOLDEN.exists() else {}
    new = outputs()
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    new = _leaves(new)
    for key in sorted(old.keys() | new.keys()):
        if old.get(key, None) != new.get(key, None):
            print("changed" if key in old and key in new
                  else "added" if key in new else "removed", key)
