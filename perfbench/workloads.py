"""The benchmark's workloads: input generation, one timed case, output check.

A case is one generated input plus one solver call.  Every random choice
of a case comes from the case's own `SeedSequence`, so a fixed workload
seed gives the same inputs, and the package receives only those inputs.
The package is called through its public entry points only:
`fixtures.mid_synthetic`, `unify_seeds`, `sand_imin` and `imin.cli.main`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import imin
from imin import cli, fixtures

# Solver knobs shared by every workload (k is per workload).
EPSILON = 0.2
DELTA = 0.1
BETA = 0.1
GAMMA = 0.1

# Forward cascades per side in the independent re-evaluation of a mid or
# padded answer; the CLI's own --eval-trials run plays this part for
# cli-cold.
CHECK_TRIALS = 4096

# Input sizes.  "full" is what the benchmark measures; "toy" keeps the
# smoke test and each run's untimed warm-up case to well under a second.
# case_s is the typical wall time of one case on the 2-core x86 VM the
# sizes were tuned on: a run makes round(seconds / case_s) cases, so both
# sides of a comparison solve the same inputs.  The sizes are smaller than
# the ROADMAP's mid_synthetic(2500, 10k) baseline because the time of one
# solve moves by up to 2x with the number of sample-doubling rounds, and a
# run needs about ten solves for its median to be steady.
SIZES = {
    "full": {
        "mid": {"n": 300, "m": 1200, "n_seeds": 10, "k": 10, "case_s": 2.8},
        "padded": {"core_n": 150, "core_m": 600, "core_seeds": 3,
                   "n": 1500, "pad_degree": 4, "k": 5, "case_s": 3.2},
        "cli-cold": {"n": 300, "m": 1200, "n_seeds": 10, "k": 10,
                     "eval_trials": 10_000, "case_s": 2.9},
    },
    "toy": {
        "mid": {"n": 60, "m": 240, "n_seeds": 3, "k": 3, "case_s": 1.0},
        "padded": {"core_n": 40, "core_m": 160, "core_seeds": 2,
                   "n": 200, "pad_degree": 4, "k": 2, "case_s": 1.0},
        "cli-cold": {"n": 60, "m": 240, "n_seeds": 3, "k": 3,
                     "eval_trials": 1000, "case_s": 1.0},
    },
}

WORKLOADS = tuple(SIZES["full"])

# Names of the benchmark's own spans in the traced run: input generation,
# and the one call into the package (sand_imin, or imin.cli.main).
SETUP, CALL = "bench.setup", "bench.call"


@dataclass
class Case:
    """What one case measured and returned, in the report's JSON form."""

    setup_s: float
    solve_s: float
    report: dict          # SandwichResult.as_dict() shape
    n: int                # node count of the graph the solver saw
    seeds: frozenset      # None when the caller does not know them
    k: int
    mc: tuple             # (decrease, standard error) of the re-evaluation
    samples_used: list    # stopping-rule samples, when the caller has them


def params(k):
    return imin.AlgoParams(k=k, epsilon=EPSILON, delta=DELTA, beta=BETA,
                           gamma=GAMMA)


def mid_graph(rng, size):
    return fixtures.mid_synthetic(rng, n=size["n"], m=size["m"],
                                  n_seeds=size["n_seeds"])


def padded_graph(rng, size):
    """A mid_synthetic core disjointly joined to a random padding graph.

    Padding nodes get ids above the core's and no edge joins the two
    parts, so the seeds reach exactly what they reach in the bare core and
    the core's weighted-cascade probabilities are unchanged.
    """
    core = fixtures.mid_synthetic(rng, n=size["core_n"], m=size["core_m"],
                                  n_seeds=size["core_seeds"])
    pad_n = size["n"] - size["core_n"]
    want = size["pad_degree"] * pad_n
    u = rng.integers(0, pad_n, size=2 * want)
    v = rng.integers(0, pad_n, size=2 * want)
    keep = u != v
    u, v = u[keep], v[keep]
    _, first = np.unique(u * pad_n + v, return_index=True)
    first = np.sort(first)[:want]
    src, dst, _ = core.base.edge_array()
    g = imin.Graph.from_edges(
        size["n"], np.concatenate([src, u[first] + size["core_n"]]),
        np.concatenate([dst, v[first] + size["core_n"]]))
    return imin.unify_seeds(imin.assign_wc_probabilities(g), core.seeds)


def timed(name, fn, *args):
    """Call fn; returns (result, seconds).  The traced run substitutes
    `Tracer.timed`, which also records the call as span `name`."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _solve_case(make_graph, case_ss, size, timed):
    g_ss, solve_ss, check_ss = case_ss.spawn(3)
    ug, setup_s = timed(SETUP, make_graph, np.random.default_rng(g_ss), size)
    result, solve_s = timed(CALL, imin.sand_imin, ug, params(size["k"]),
                            np.random.default_rng(solve_ss))

    report = result.as_dict()
    samples_used = [result.base_estimate.samples_used] + [
        est.samples_used for _, est in sorted(result.residual_estimates.items())]
    mc = _reevaluate(ug, result.chosen, np.random.default_rng(check_ss))
    return Case(setup_s, solve_s, report, ug.base.n, ug.seeds, size["k"], mc,
                samples_used)


def _reevaluate(ug, blockers, rng):
    """Independent forward-MC decrease of `blockers` and its standard error."""
    base = imin.ic_spread_samples(ug, None, CHECK_TRIALS, rng)
    residual = imin.ic_spread_samples(ug, blockers, CHECK_TRIALS, rng)
    se = math.sqrt((base.var() + residual.var()) / CHECK_TRIALS)
    return float(base.mean() - residual.mean()), se


def mid_case(case_ss, size, workdir, timed=timed):
    return _solve_case(mid_graph, case_ss, size, timed)


def padded_case(case_ss, size, workdir, timed=timed):
    return _solve_case(padded_graph, case_ss, size, timed)


def cli_cold_case(case_ss, size, workdir, timed=timed):
    """`imin run --json` on a freshly written edge list, cold rank cache.

    The edge list is written outside the timed region.  The command's wall
    time minus its reported `runtime_s` is the set-up: ingest, seed
    ranking and the final Monte-Carlo evaluation.
    """
    g_ss, solve_ss = case_ss.spawn(2)
    base = mid_graph(np.random.default_rng(g_ss), size).base
    src, dst, _ = base.edge_array()
    n_loaded = len(np.union1d(src, dst))
    rng_seed = int(solve_ss.generate_state(1)[0])
    tmp = tempfile.mkdtemp(dir=workdir)
    try:
        graph_path = os.path.join(tmp, "graph.txt")
        with open(graph_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u} {v}\n" for u, v in zip(src, dst))
        json_path = os.path.join(tmp, "report.json")
        argv = ["run", "--graph", graph_path, "--seeds", str(size["n_seeds"]),
                "--algo", "sandimin-minus", "--k", str(size["k"]),
                "--delta", str(DELTA), "--eval-trials",
                str(size["eval_trials"]), "--rng-seed", str(rng_seed),
                "--json", json_path, "--out", os.path.join(tmp, "rows.csv")]
        code, wall = timed(CALL, cli.main, argv)
        if code != 0:
            raise RuntimeError(f"imin run exited with code {code}")
        with open(json_path, encoding="utf-8") as fh:
            report = json.load(fh)[0]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # Var(X) <= n E[X] for a spread X in [0, n]; the CLI does not return
    # its samples, so the standard error of its MC decrease uses that cap.
    chosen_res = report["residual_estimates"][report["chosen"]]
    se = math.sqrt(n_loaded * (report["base_spread_estimate"] + chosen_res)
                   / size["eval_trials"])
    return Case(wall - report["runtime_s"], report["runtime_s"], report,
                n_loaded, None, size["k"], (report["decrease_mc"], se), [])


CASES = {"mid": mid_case, "padded": padded_case, "cli-cold": cli_cold_case}


def stop_reason(cert):
    if cert["early_exit"]:
        return "early_exit"
    if cert["ratio"] >= 1.0 - 1.0 / math.e - EPSILON:
        return "ratio"
    return "rounds_cap"


def check(case: Case) -> list:
    """Problems with a case's output; an empty list means it passed."""
    rep = case.report
    problems = []
    blockers = rep["blockers"]
    certs = rep["certificates"]
    if len(set(blockers)) != len(blockers):
        problems.append(f"repeated blocker in {blockers}")
    if any(not 0 <= b < case.n for b in blockers):
        problems.append(f"blocker out of range in {blockers}")
    if case.seeds is not None and set(blockers) & case.seeds:
        problems.append(f"seed blocked in {blockers}")
    early_sets = [sorted(c["blockers"]) for c in certs.values()
                  if c["early_exit"]]
    if len(blockers) > case.k and sorted(blockers) not in early_sets:
        problems.append(f"{len(blockers)} blockers exceed k={case.k}")
    for side, cert in certs.items():
        if (stop_reason(cert) == "rounds_cap"
                and cert["rounds"] != cert["rounds_cap"]):
            problems.append(f"{side} certificate stopped below its ratio "
                            f"target before the round cap")
    base = rep["base_spread_estimate"]
    decrease = rep["decrease_estimate"]
    if not 0.0 <= decrease <= base:
        problems.append(f"decrease {decrease} outside [0, base={base}]")
    ratio = rep["empirical_ratio"]
    if ratio is not None and not 0.0 <= ratio <= 1.0:
        problems.append(f"empirical ratio {ratio} outside [0, 1]")
    # Both stopping-rule estimates are within a factor 1 +/- gamma of the
    # truth, so their difference is within gamma * (base + residual);
    # four standard errors cover the re-evaluation's own noise.
    dec_mc, se = case.mc
    residual = rep["residual_estimates"][rep["chosen"]]
    tol = GAMMA * (base + residual) + 4.0 * se
    if abs(dec_mc - decrease) > tol:
        problems.append(f"re-evaluated decrease {dec_mc:.3f} differs from "
                        f"the estimate {decrease:.3f} by more than {tol:.3f}")
    return problems


def digest(case: Case) -> str:
    """Hash of what a fixed seed must reproduce exactly."""
    rep = case.report
    payload = {
        "blockers": sorted(rep["blockers"]),
        "decrease": repr(rep["decrease_estimate"]),
        "decrease_mc": repr(rep.get("decrease_mc")),
        "rounds": {s: c["rounds"] for s, c in rep["certificates"].items()},
        "samples": {s: [c["samples_primary"], c["samples_validation"]]
                    for s, c in rep["certificates"].items()},
        "samples_used": case.samples_used,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
