"""The three-candidate sandwich combiner and its data-dependent ratio.

Three blocker sets are produced — the two certified bound maximizers,
which read the same `sampling.PairSource`, plus a one-hop heuristic —
and the one whose residual spread estimate is smallest wins.  The base
spread and every candidate's residual come from one
`diffusion.stopping_rule_spreads` call, so all of them are measured on
the same realizations (common random numbers, as the sandwich of Lu, Chen
and Lakshmanan, PVLDB 2015, compares its candidates), and the residuals
differ only by what the candidates block.  Each estimate stops on its own
betting confidence sequence, valid at every batch at once, as soon as its
interval is within the gamma contract, and then leaves the shared search;
the batches are 512 trials, then doubling (`diffusion._batch_sizes`), so
an estimate that closes early draws few cascades;
`as_dict` reports the interval each stopped on (`spread_bounds`).  When
the active sets nest, each inside the next, a batch searches the
most-blocked one and resumes the others from the pairs it held back, with
Generator coins; sets that do not nest share one search that carries one
run bit per set, with coins replayed from a per-batch key.  Equal
candidates share one run and one estimate, and ties go to the first of
lower, upper and heuristic.  Because the upper-bound objective dominates
the true decrease, the ratio of the winner-side estimates yields a
computable lower bound on the approximation ratio actually achieved.
Its upper value is the upper maximizer's validation estimate, or after an
early exit the base spread estimate, which no upper value exceeds.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .diffusion import SpreadEstimate, stopping_rule_spreads
# Not called here; perfbench's span table resolves this name.
from .diffusion import stopping_rule_spread  # noqa: F401
from .graph import BlockerSet, UnifiedGraph
from .optimize import AlgoParams, E_FRACTION, gsbm, lsbm
from .sampling import PairSource

log = logging.getLogger(__name__)


def lhga(g: UnifiedGraph, k: int) -> BlockerSet:
    """Heuristic blockers: seed out-neighbors scored by one-hop activation
    probability times base out-degree (ties: lowest id)."""
    nodes, probs = g.seed_activation
    if k < len(nodes):
        score = probs * g.base.out_degree()[nodes]
        nodes = nodes[np.lexsort((nodes, -score))[:k]]
    return BlockerSet(nodes.tolist())


@dataclass
class SandwichResult:
    """Every fact about a candidate keyed by its name, in the order lower,
    upper, heuristic (no upper after `sand_imin_minus`), and the winner."""

    candidates: dict             # name -> BlockerSet
    base_estimate: SpreadEstimate
    residual_estimates: dict     # name -> SpreadEstimate
    decreases: dict              # name -> max(0, base - residual)
    chosen_name: str
    empirical_ratio: float = None  # None without the upper candidate
    certificates: dict = field(default_factory=dict, repr=False)
    timings: dict = field(default_factory=dict, repr=False)
    # pairs each shared stream drew, and the reverse searches that drew them
    pair_streams: dict = field(default_factory=dict, repr=False)

    @property
    def chosen(self) -> BlockerSet:
        return self.candidates[self.chosen_name]

    @property
    def decrease_estimate(self) -> float:
        return self.decreases[self.chosen_name]

    def as_dict(self):
        estimates = [("base", self.base_estimate),
                     *self.residual_estimates.items()]
        return {
            "candidates": {
                name: (list(self.candidates[name])
                       if name in self.candidates else None)
                for name in ("lower", "upper", "heuristic")},
            "base_spread_estimate": self.base_estimate.value,
            "residual_estimates": {
                name: est.value
                for name, est in self.residual_estimates.items()},
            "decrease_estimates": self.decreases,
            # stopping-rule trials behind the base and each residual
            # estimate, and the confidence interval each stopped on
            "spread_samples": {
                name: est.samples_used for name, est in estimates},
            "spread_bounds": {
                name: [est.low, est.high] for name, est in estimates},
            "chosen": self.chosen_name,
            "blockers": list(self.chosen),
            "decrease_estimate": self.decrease_estimate,
            "empirical_ratio": self.empirical_ratio,
            "certificates": {name: cert.as_dict()
                             for name, cert in self.certificates.items()},
            "timings_s": self.timings,
            "pair_streams": self.pair_streams,
        }


def empirical_ratio(result: SandwichResult, params: AlgoParams) -> float:
    """Computable lower bound on the achieved approximation ratio.

    ((1-gamma)/(1+gamma))^2 * (1-1/e-epsilon) * D_hat(B_U) / U_hat(B_U),
    clamped to [0, 1]; zero (with a log warning) when the upper-side
    estimate is degenerate.  U_hat(B_U) is the value the upper maximizer
    measured on its final validation pairs (independent of the
    selection).  After an early exit there is none, and the base spread
    estimate stands in: a receiver subgraph holds only reached non-seeds,
    so U(B) <= sigma(empty) for every B, with equality for the early-exit
    set (every seed out-neighbor).  Its residual is then exactly zero, so
    the ratio is the scale factor itself.
    """
    if "upper" not in result.candidates:
        raise ValueError("empirical ratio needs the upper-bound candidate")
    certificate = result.certificates.get("upper")
    upper_val = (certificate.value
                 if certificate is not None and certificate.value is not None
                 else result.base_estimate.value)
    if upper_val <= 0.0:
        log.warning("degenerate upper-bound estimate (0); ratio set to 0")
        return 0.0
    gamma = params.gamma
    scale = ((1.0 - gamma) / (1.0 + gamma)) ** 2 \
        * (E_FRACTION - params.epsilon)
    return float(min(1.0, max(
        0.0, scale * result.decreases["upper"] / upper_val)))


def _combine(g, params, rng, with_upper):
    params.validate()
    rng_pairs, _, rng_est = rng.spawn(3)
    pairs = PairSource(g, rng_pairs)
    timings, certificates, candidates = {}, {}, {}
    for name, maximize in [("lower", lsbm), ("upper", gsbm)][:1 + with_upper]:
        t0 = time.perf_counter()
        candidates[name], certificates[name] = maximize(g, params, None,
                                                        pairs)
        timings[name] = time.perf_counter() - t0

    t0 = time.perf_counter()
    candidates["heuristic"] = lhga(g, params.k)
    timings["heuristic"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    base, *estimates = stopping_rule_spreads(
        g, [None, *candidates.values()], gamma=params.gamma,
        delta=params.delta, rng=rng_est)
    residuals = dict(zip(candidates, estimates))
    timings["evaluation"] = time.perf_counter() - t0

    result = SandwichResult(
        candidates=candidates, base_estimate=base,
        residual_estimates=residuals,
        decreases={name: max(0.0, base.value - est.value)
                   for name, est in residuals.items()},
        # a tie, equal candidates included, goes to the first candidate
        chosen_name=min(candidates, key=lambda nm: residuals[nm].value),
        certificates=certificates, timings=timings,
        pair_streams={"primary": pairs.n_pairs, "validation": pairs.n_pairs,
                      "searches": pairs.searches})

    if with_upper:
        t0 = time.perf_counter()
        result.empirical_ratio = empirical_ratio(result, params)
        timings["ratio"] = time.perf_counter() - t0
    return result


def sand_imin(g: UnifiedGraph, params: AlgoParams,
              rng: np.random.Generator) -> SandwichResult:
    """Run all three candidates and return the residual-spread argmin."""
    return _combine(g, params, rng, with_upper=True)


def sand_imin_minus(g: UnifiedGraph, params: AlgoParams,
                    rng: np.random.Generator) -> SandwichResult:
    """The cheaper variant: skip the upper-bound maximizer (no ratio)."""
    return _combine(g, params, rng, with_upper=False)
