"""Per-layer spans for the traced run, recorded from outside the package.

Each layer function is wrapped by name at every module that looks it up
(a `from .x import f` copies the name, so patching only the defining
module would miss those calls).  A span's self time is its duration minus
the time of the spans it encloses.  A name that no longer exists is
reported as an absent layer instead of failing the run.  The untraced run
never imports this module.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

from workloads import CALL, SETUP, stop_reason

# Span name -> lookup sites ("module:attribute path").  The same function
# object may sit at several sites; each call goes through exactly one.
SPANS = {
    "graph.load_edge_list": ["imin.graph:load_edge_list",
                             "imin.cli:load_edge_list"],
    "graph.unify_seeds": ["imin.graph:unify_seeds", "imin.cli:unify_seeds",
                          "imin.fixtures:unify_seeds"],
    "diffusion.sample_realization": [
        "imin.diffusion:sample_realization",
        "imin.sampling:sample_realization"],
    "diffusion.reach": ["imin.diffusion:reachable_in_realization",
                        "imin.domtree:reachable_in_realization"],
    "diffusion.ic_spread": ["imin.diffusion:ic_spread_samples"],
    "domtree.build": ["imin.domtree:build_dominator_tree",
                      "imin.sampling:build_dominator_tree"],
    "sampling.cp_extend": ["imin.sampling:CPCollection.extend"],
    "sampling.cp_entries": ["imin.sampling:_sequence_entries"],
    "sampling.lrr_extend": ["imin.sampling:LRRCollection.extend"],
    "sampling.reverse_reach": ["imin.sampling:_reverse_reach"],
    "sampling.freeze": ["imin.sampling:CPCollection._freeze",
                        "imin.sampling:LRRCollection._freeze"],
    "sampling.population": ["imin.sampling:compute_population",
                            "imin.optimize:compute_population"],
    "optimize.max_coverage": ["imin.optimize:max_coverage"],
    "optimize.cov_upper_opt": ["imin.optimize:cov_upper_opt"],
    "optimize.ihat": ["imin.optimize:stopping_rule_spread"],
    "optimize.lower": ["imin.optimize:lsbm", "imin.sandwich:lsbm"],
    "optimize.upper": ["imin.optimize:gsbm", "imin.sandwich:gsbm"],
    "sandwich.lhga": ["imin.sandwich:lhga", "imin.cli:lhga"],
    "sandwich.evaluation": ["imin.sandwich:stopping_rule_spread"],
    "sandwich.ratio": ["imin.sandwich:empirical_ratio"],
    "cli.influence_pool": ["imin.cli:_influence_pool"],
    "cli.run_algo": ["imin.cli:_run_algo"],
    "cli.evaluate": ["imin.cli:_evaluate_decrease"],
}

# Parents by which diffusion.ic_spread self time is split.
IC_PARENTS = ("optimize.ihat", "sandwich.evaluation", "cli.influence_pool",
              "cli.evaluate")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_coins(counts, args, kwargs, out):
    counts["diffusion.coins_drawn"] += _arg(args, kwargs, 0, "g").m_total


def _count_dense(counts, args, kwargs, out):
    # _ic_batch holds one bool per (trial, node) of the unified graph.
    g = _arg(args, kwargs, 0, "g")
    counts["diffusion.ic_dense_bytes"] += len(out) * g.n_total


def _count_stopping(counts, args, kwargs, out):
    counts["diffusion.stopping_rule.samples"] += out.samples_used


def _count_entries(counts, args, kwargs, out):
    # One common-path entry per reached non-seed node of the realization.
    counts["sampling.cp.reached_nodes"] += len(out[0])


def _count_lrr(counts, args, kwargs, out):
    counts["sampling.lrr.samples"] += _arg(args, kwargs, 1, "count")


def _count_certificate(side):
    def hook(counts, args, kwargs, out):
        cert = out[1].as_dict()
        counts[f"optimize.{side}.rounds"] += cert["rounds"]
        counts[f"optimize.{side}.samples"] += cert["samples_primary"]
        counts[f"optimize.{side}.stop.{stop_reason(cert)}"] += 1
    return hook


def _count_ratio(counts, args, kwargs, out):
    counts["sandwich.empirical_ratio.sum"] += out
    counts["sandwich.empirical_ratio.n"] += 1


HOOKS = {
    "diffusion.sample_realization": _count_coins,
    "diffusion.ic_spread": _count_dense,
    "optimize.ihat": _count_stopping,
    "sandwich.evaluation": _count_stopping,
    "sampling.cp_entries": _count_entries,
    "sampling.lrr_extend": _count_lrr,
    "optimize.lower": _count_certificate("lower"),
    "optimize.upper": _count_certificate("upper"),
    "sandwich.ratio": _count_ratio,
}


class Tracer:
    """Spans and counts recorded in memory while wrappers are installed.

    Layer spans are recorded only inside a span opened by `timed`, so work
    the benchmark does around the measured calls stays out of the trace.
    """

    def __init__(self):
        self.stats = {}        # (span, parent span) -> [self_s, total_s, calls]
        self.counts = Counter()
        self.absent = set()
        self._stack = []       # open spans: [name, time of enclosed spans]
        self._patched = []     # (owner, attribute, original)

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([name, 0.0])
        return parent, time.perf_counter()

    def _exit(self, name, parent, t0):
        elapsed = time.perf_counter() - t0
        _, enclosed = self._stack.pop()
        stat = self.stats.setdefault((name, parent), [0.0, 0.0, 0])
        stat[0] += elapsed - enclosed
        stat[1] += elapsed
        stat[2] += 1
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    def timed(self, name, fn, *args, **kwargs):
        """Call fn inside a span; returns (result, seconds)."""
        parent, t0 = self._enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = self._exit(name, parent, t0)
        return out, elapsed

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not self._stack:     # outside the benchmark's own spans
                return fn(*args, **kwargs)
            out, _ = self.timed(name, fn, *args, **kwargs)
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counts["trace.hook_errors"] += 1
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        for name, sites in SPANS.items():
            found = False
            for site in sites:
                module_name, path = site.split(":")
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    continue
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    continue
                found = True
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            if not found:
                self.absent.add(name)

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_s(self, name, parent=None):
        return sum((s[0] for (n, p), s in self.stats.items()
                    if n == name and (parent is None or p == parent)), 0.0)

    def total_s(self, name):
        return sum((s[1] for (n, _), s in self.stats.items() if n == name),
                   0.0)

    def calls(self, name, parent=None):
        return sum(s[2] for (n, p), s in self.stats.items()
                   if n == name and (parent is None or p == parent))


def _ic_key(parent):
    return f"diffusion.ic_spread.under.{parent}"


def metric_units():
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.calls"] = "count"
    for parent in IC_PARENTS:
        units[f"{_ic_key(parent)}.self_s"] = "s"
        units[f"{_ic_key(parent)}.calls"] = "count"
    units.update({
        "diffusion.coins_drawn": "count",
        "diffusion.ic_dense_bytes": "bytes",
        "diffusion.stopping_rule.samples": "count",
        "sampling.cp.reached_nodes": "count",
        "sampling.cp.us_per_reached_node": "us",
        "sampling.lrr.samples": "count",
        "sampling.lrr.empty_frac": "fraction",
    })
    for side in ("lower", "upper"):
        units[f"optimize.{side}.rounds"] = "count"
        units[f"optimize.{side}.samples"] = "count"
        for reason in ("ratio", "rounds_cap", "early_exit"):
            units[f"optimize.{side}.stop.{reason}"] = "count"
    units.update({
        "sandwich.empirical_ratio": "fraction",
        "trace.cases": "count",
        "trace.solve_s": "s",
        "trace.untraced_solve_s": "s",
        "trace.overhead_frac": "fraction",
        "trace.setup_remainder_s": "s",
        "trace.call_remainder_s": "s",
        "trace.call_remainder_frac": "fraction",
        "trace.absent_layers": "count",
        "trace.hook_errors": "count",
    })
    return units


def layer_metrics(tracer, cases, traced_solve_s, untraced_solve_s):
    """Per-layer values, totalled over the traced cases."""
    c = tracer.counts
    values = {}
    for name in SPANS:
        values[f"{name}.self_s"] = tracer.self_s(name)
        values[f"{name}.total_s"] = tracer.total_s(name)
        values[f"{name}.calls"] = tracer.calls(name)
    for parent in IC_PARENTS:
        values[f"{_ic_key(parent)}.self_s"] = tracer.self_s(
            "diffusion.ic_spread", parent)
        values[f"{_ic_key(parent)}.calls"] = tracer.calls(
            "diffusion.ic_spread", parent)
    reached = c["sampling.cp.reached_nodes"]
    lrr = c["sampling.lrr.samples"]
    values.update({
        "diffusion.coins_drawn": c["diffusion.coins_drawn"],
        "diffusion.ic_dense_bytes": c["diffusion.ic_dense_bytes"],
        "diffusion.stopping_rule.samples": c[
            "diffusion.stopping_rule.samples"],
        "sampling.cp.reached_nodes": reached,
        "sampling.cp.us_per_reached_node": (
            1e6 * tracer.total_s("sampling.cp_entries") / reached
            if reached else 0.0),
        "sampling.lrr.samples": lrr,
        "sampling.lrr.empty_frac": (
            1.0 - tracer.calls("sampling.reverse_reach") / lrr
            if lrr else 0.0),
    })
    for side in ("lower", "upper"):
        for key in ("rounds", "samples", "stop.ratio", "stop.rounds_cap",
                    "stop.early_exit"):
            values[f"optimize.{side}.{key}"] = c[f"optimize.{side}.{key}"]
    n_ratio = c["sandwich.empirical_ratio.n"]
    remainder = tracer.self_s(CALL)
    values.update({
        "sandwich.empirical_ratio": (
            c["sandwich.empirical_ratio.sum"] / n_ratio if n_ratio else 0.0),
        "trace.cases": cases,
        "trace.solve_s": traced_solve_s,
        "trace.untraced_solve_s": untraced_solve_s,
        "trace.overhead_frac": (traced_solve_s / untraced_solve_s - 1.0
                                if untraced_solve_s > 0 else 0.0),
        "trace.setup_remainder_s": tracer.self_s(SETUP),
        "trace.call_remainder_s": remainder,
        "trace.call_remainder_frac": (
            remainder / tracer.total_s(CALL) if tracer.calls(CALL) else 0.0),
        "trace.absent_layers": len(tracer.absent),
        "trace.hook_errors": c["trace.hook_errors"],
    })
    if tracer.absent:
        print("absent layers: " + ", ".join(sorted(tracer.absent)),
              file=sys.stderr)
    return values
