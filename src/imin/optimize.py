"""Greedy coverage maximization with adaptive sample-doubling certificates.

Both bound maximizers share one skeleton: grow two independent sample
collections, pick a blocker set greedily on the first, certify it against
the second, and stop as soon as the certified ratio clears 1 - 1/e -
epsilon (or a sample cap derived from a union bound over all candidate
sets is reached).  The certified ratio compares a high-probability lower
bound on the chosen set's objective value with a high-probability upper
bound on the optimum, both obtained by inverting martingale tail bounds on
coverage counts.

Greedy selection takes one array pass per pick: every node's marginal
gain at once, then the best candidate by `np.argmax` (ties to the lowest
id, as lazy greedy would break them).  Each prefix's k largest gains are recorded on
the way, so the upper bound on the optimum needs no second pass.  Blockers
are chosen from `UnifiedGraph.candidates()`: base nodes that are neither
seeds nor already blocked.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diffusion import SpreadEstimate, stopping_rule_spread
from .graph import BlockerSet, UnifiedGraph
from .sampling import (CPCollection, LRRCollection, compute_population,
                       coverage)

E_FRACTION = 1.0 - 1.0 / math.e

log = logging.getLogger(__name__)


@dataclass
class AlgoParams:
    """Budget and error knobs shared by the bound maximizers."""

    k: int
    epsilon: float = 0.2
    delta: float = 0.1
    beta: float = 0.1
    gamma: float = 0.1

    def validate(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for name in ("epsilon", "delta", "beta", "gamma"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {val}")
        if 2.0 * self.beta / (1.0 + self.beta) > self.epsilon:
            warnings.warn(
                "2*beta/(1+beta) exceeds epsilon; the stated running-time "
                "bound does not apply (results remain valid)",
                stacklevel=2)


@dataclass
class SampleSchedule:
    """Doubling schedule: start size, cap, round limit and tail log-term."""

    samples_initial: float
    samples_cap: float
    rounds_cap: int
    log_term: float  # ln(3 * rounds_cap / delta), used on both stop sides


@dataclass
class StopCheck:
    """One round's certified bounds and the stop decision."""

    sigma_lower: float
    sigma_upper: float
    ratio: float
    stopped: bool


@dataclass
class BoundCertificate:
    """Diagnostics attached to a maximizer's returned blocker set.

    `stop_reason` says why the doubling loop ended: "ratio" when the
    certified ratio cleared its target, "rounds_cap" when the last round
    allowed by the schedule ran without clearing it, and "early_exit" when
    no sampling was needed.
    """

    side: str
    blockers: BlockerSet
    stop_reason: str
    ratio: float = None
    sigma_lower: float = None
    sigma_upper: float = None
    rounds: int = 0
    samples_primary: int = 0
    samples_validation: int = 0
    schedule: SampleSchedule = None
    spread_estimate: SpreadEstimate = None
    population_size: int = None
    opt_lower: float = None
    checks: list = field(default_factory=list, repr=False)
    validation_collection: object = field(default=None, repr=False)

    @property
    def early_exit(self):
        return self.stop_reason == "early_exit"

    def as_dict(self):
        return {
            "side": self.side,
            "blockers": list(self.blockers),
            "early_exit": self.early_exit,
            "stop_reason": self.stop_reason,
            "ratio": self.ratio,
            "sigma_lower": self.sigma_lower,
            "sigma_upper": self.sigma_upper,
            "rounds": self.rounds,
            "samples_primary": self.samples_primary,
            "samples_validation": self.samples_validation,
            "samples_initial": (self.schedule.samples_initial
                                if self.schedule else None),
            "samples_cap": (self.schedule.samples_cap
                            if self.schedule else None),
            "rounds_cap": self.schedule.rounds_cap if self.schedule else None,
            "population_size": self.population_size,
            "opt_lower": self.opt_lower,
        }


@dataclass
class GreedyTrace:
    """Greedy selection order with per-step gains, prefix coverages and,
    for each prefix, the sum of its k largest marginal gains."""

    selected: list
    gains: list
    coverages: list  # coverage of the empty prefix, then after each pick
    top_k: list      # k largest gains summed: empty prefix, then each pick


def max_coverage(collection, k: int):
    """k rounds of best-marginal selection, one pass of all gains each.

    Ties break toward the lowest node id; zero-gain picks are allowed so
    the result always has min(k, #candidates) nodes, chosen from the
    graph's `candidates()`.  Returns the chosen set plus the trace needed
    by `cov_upper_opt`.
    """
    g = collection.ug
    allowed = g.candidates()
    state = collection.state()
    marginal = state.gains_all(g.n_total)
    selected, gains, coverages = [], [], [0]
    top_k = [_topk_sum(marginal, k)]
    for _ in range(min(k, int(allowed.sum()))):
        v = int(np.argmax(np.where(allowed, marginal, -1)))
        allowed[v] = False
        selected.append(v)
        gains.append(int(marginal[v]))
        coverages.append(coverages[-1] + gains[-1])
        state.add(v)
        marginal = state.gains_all(g.n_total)
        top_k.append(_topk_sum(marginal, k))
    return (BlockerSet(selected),
            GreedyTrace(selected=selected, gains=gains, coverages=coverages,
                        top_k=top_k))


def _topk_sum(values: np.ndarray, k: int) -> int:
    k = min(k, len(values))
    if k <= 0:
        return 0
    return int(np.partition(values, len(values) - k)[len(values) - k:].sum())


def cov_upper_opt(trace: GreedyTrace) -> float:
    """Coverage upper bound for the unknown optimum k-set.

    For each greedy prefix, the prefix's coverage plus its k largest
    marginal gains bounds any k-set's coverage from above (submodularity);
    the minimum over prefixes is returned.
    """
    return float(min(c + t for c, t in zip(trace.coverages, trace.top_k)))


def direct_activation_prob(g: UnifiedGraph, v: int) -> float:
    """One-hop probability that the seed layer activates v directly."""
    base = g.base
    lo, hi = base.in_ptr[v], base.in_ptr[v + 1]
    miss = 1.0
    found = False
    for off in range(lo, hi):
        if int(base.in_src[off]) in g.seeds:
            found = True
            miss *= 1.0 - base.in_p[off]
    if not found:
        raise ValueError(f"node {v} is not an out-neighbor of the seed set")
    return 1.0 - miss


def seed_neighbor_probs(g: UnifiedGraph):
    """(node, one-hop activation probability) for every seed out-neighbor."""
    return [(v, direct_activation_prob(g, v)) for v in g.seed_out_neighbors()]


def opt_lower_bound(g: UnifiedGraph, k: int) -> float:
    """Sum of the k largest one-hop seed-activation probabilities."""
    probs = sorted((p for _, p in seed_neighbor_probs(g)), reverse=True)
    return float(sum(probs[:k]))


def _log_binom(a: int, b: int) -> float:
    a = max(a, b)
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _make_schedule(scale: float, denom: float, ln_choose: float,
                   ln_tail: float, delta: float) -> SampleSchedule:
    """Common schedule arithmetic for both maximizers.

    samples_cap = 2 * scale * ((1-1/e) sqrt(ln_tail) +
                  sqrt((1-1/e)(ln_choose + ln_tail)))^2 / denom,
    samples_initial = samples_cap * denom / scale.
    """
    core = 2.0 * (E_FRACTION * math.sqrt(ln_tail)
                  + math.sqrt(E_FRACTION * (ln_choose + ln_tail))) ** 2
    samples_cap = scale * core / denom
    samples_initial = samples_cap * denom / scale
    rounds_cap = max(1, math.ceil(math.log2(samples_cap / samples_initial)))
    return SampleSchedule(samples_initial=samples_initial,
                          samples_cap=samples_cap,
                          rounds_cap=rounds_cap,
                          log_term=math.log(3.0 * rounds_cap / delta))


def _sigma_lower_term(cov_scaled: float, a1: float) -> float:
    """Invert the lower-tail bound: high-probability floor for the mean."""
    root = math.sqrt(cov_scaled + 2.0 * a1 / 9.0) - math.sqrt(a1 / 2.0)
    return root * root - a1 / 18.0


def _sigma_upper_term(cov_scaled: float, a2: float) -> float:
    """Invert the upper-tail bound: high-probability cap for the optimum."""
    root = math.sqrt(cov_scaled + a2 / 2.0) + math.sqrt(a2 / 2.0)
    return root * root


def _early_return(side: str, blockers=(), **fields):
    """Result without sampling: every seed out-neighbor when they fit the
    budget, or the empty set when the seeds can reach nobody."""
    blockers = BlockerSet(blockers)
    return blockers, BoundCertificate(side=side, blockers=blockers,
                                      stop_reason="early_exit", **fields)


def _certified_maximize(side, g, params, rng, scale, slack, candidates,
                        tail, new_collection, bounds, **fields):
    """The doubling, certify and stop loop shared by both maximizers.

    Schedule inputs: the objective's `scale`, the `slack` factor of the
    sample-size denominator, the number of `candidates` a blocker set is
    chosen from and the `tail` numerator of the union-bound log term.
    `new_collection(rng)` makes an empty sample collection, and
    `bounds(cov_val, n_val, cov_opt, n_primary, a)` turns coverage counts
    into (sigma_lower, sigma_upper) with tail log-term `a`.  `fields` go
    into the returned certificate.
    """
    k = params.k
    opt_low = opt_lower_bound(g, k)
    if opt_low <= 0.0:
        raise ValueError("every seed out-edge has zero probability; "
                         "the schedule lower bound is degenerate")
    sched = _make_schedule(scale=scale,
                           denom=slack * params.epsilon ** 2 * opt_low,
                           ln_choose=_log_binom(candidates, k),
                           ln_tail=math.log(tail / params.delta),
                           delta=params.delta)

    rng_primary, rng_validation = rng.spawn(2)
    primary = new_collection(rng_primary)
    validation = new_collection(rng_validation)
    start = max(1, math.ceil(sched.samples_initial))
    primary.extend(start)
    validation.extend(start)

    target = E_FRACTION - params.epsilon
    checks = []
    for round_no in range(1, sched.rounds_cap + 1):
        blockers, trace = max_coverage(primary, k)
        sigma_low, sigma_up = bounds(
            coverage(validation, blockers), validation.n_samples,
            cov_upper_opt(trace), primary.n_samples,
            sched.log_term)
        ratio = sigma_low / sigma_up
        reached = ratio >= target
        stop = reached or round_no == sched.rounds_cap
        checks.append(StopCheck(sigma_lower=sigma_low, sigma_upper=sigma_up,
                                ratio=ratio, stopped=stop))
        log.debug("%s round %d: samples %d primary, %d validation; "
                  "sigma_lower %.6g, sigma_upper %.6g, ratio %.4f, "
                  "stopped %s", side, round_no, primary.n_samples,
                  validation.n_samples, sigma_low, sigma_up, ratio, stop)
        if stop:
            return blockers, BoundCertificate(
                side=side, blockers=blockers,
                stop_reason="ratio" if reached else "rounds_cap", ratio=ratio,
                sigma_lower=sigma_low, sigma_upper=sigma_up,
                rounds=round_no, samples_primary=primary.n_samples,
                samples_validation=validation.n_samples, schedule=sched,
                opt_lower=opt_low, checks=checks,
                validation_collection=validation, **fields)
        primary.extend(primary.n_samples)
        validation.extend(validation.n_samples)


def lsbm(g: UnifiedGraph, params: AlgoParams,
         rng: np.random.Generator) -> tuple:
    """Blocker selection maximizing the lower-bound objective.

    Returns (blockers, certificate).  With probability at least 1 - delta
    the returned set's lower-bound value is within 1 - 1/e - epsilon of the
    best achievable with k blockers.
    """
    params.validate()
    on = g.seed_out_neighbors()
    if len(on) <= params.k:
        return _early_return("lower", on)
    ihat = stopping_rule_spread(g, None, gamma=params.beta,
                                delta=params.delta / 6.0, rng=rng)
    if ihat.exact_zero:
        return _early_return("lower", spread_estimate=ihat)

    beta = params.beta

    def bounds(cov_val, n_val, cov_opt, n_primary, a):
        # Coverage is normalized by the spread estimate, whose (1 +/- beta)
        # slack picks the lower-tail branch; neither branch applies when
        # the two normalized values straddle the threshold.
        sigma_low = 0.0
        low_arg = cov_val * (1.0 - beta) / ihat.value
        high_arg = cov_val * (1.0 + beta) / ihat.value
        if low_arg >= 5.0 * a / 18.0:
            sigma_low = _sigma_lower_term(low_arg, a) / n_val
        elif high_arg <= 5.0 * a / 18.0:
            sigma_low = _sigma_lower_term(high_arg, a) / n_val
        sigma_low = max(sigma_low, 0.0)
        sigma_up = _sigma_upper_term(
            cov_opt * (1.0 + beta) / ihat.value, a) / n_primary
        return sigma_low, sigma_up

    return _certified_maximize(
        "lower", g, params, rng, scale=ihat.value, slack=1.0 - beta,
        candidates=int(g.candidates().sum()), tail=12.0,
        new_collection=lambda r: CPCollection(g, r), bounds=bounds,
        spread_estimate=ihat)


def gsbm(g: UnifiedGraph, params: AlgoParams,
         rng: np.random.Generator) -> tuple:
    """Blocker selection maximizing the upper-bound objective.

    Same doubling skeleton as `lsbm` over reverse-reachable samples; the
    population size is known exactly, so the certified bounds carry no
    spread-estimation slack.
    """
    params.validate()
    on = g.seed_out_neighbors()
    if len(on) <= params.k:
        return _early_return("upper", on)
    population = compute_population(g)
    if not population:
        # mirror the lower maximizer's zero-spread path so the combined
        # pipeline degrades gracefully on dead graphs
        return _early_return("upper", population_size=0)

    npop = len(population)

    def bounds(cov_val, n_val, cov_opt, n_primary, a):
        sigma_low = max(0.0, _sigma_lower_term(float(cov_val), a)) \
            * npop / n_val
        sigma_up = _sigma_upper_term(cov_opt, a) * npop / n_primary
        return sigma_low, sigma_up

    return _certified_maximize(
        "upper", g, params, rng, scale=float(npop), slack=1.0,
        candidates=npop, tail=6.0,
        new_collection=lambda r: LRRCollection(g, r, population=population),
        bounds=bounds, population_size=npop)
