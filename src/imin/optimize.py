"""Greedy coverage maximization with adaptive sample-doubling certificates.

Both bound maximizers run one loop on one schedule and differ only in
their samples (LRR sets for `gsbm`, dominator chains for `lsbm`): round r
reads the first N_r pairs of a primary and of an independent validation
stream in one call (`sampling.PairSource`), picks a blocker set greedily
on the primary pairs, certifies it on the validation pairs, and stops once
the certified ratio clears 1 - 1/e - epsilon, or at the schedule's last
round.  N_r is samples_initial * 2^(r-1) rounded up to whole `_BATCH`
batches, and a round with the pairs of the round before is not checked
again.  The ratio compares high-probability bounds from martingale tail
bounds on coverage counts: a lower one on the chosen set's value, an upper
one on the optimum's.  Both objectives are the exactly known population
size times a covered fraction of pairs, so no spread estimate shares delta
and each certificate's tail term is ln(6 / delta).  Samples hold population
nodes only, so the union bound is over the sets that differ on the
population, at most sum_{j <= k} C(N_pop, j) <= C(N_pop + k, k).

Greedy selection takes one array pass per pick: every node's marginal
gain at once, then the best candidate by `np.argmax` (ties to the lowest
id, as lazy greedy would break them).  Each prefix's k largest gains are
recorded on the way, so the upper bound on the optimum needs no second
pass.  Blockers are chosen from `UnifiedGraph.candidates()`: base nodes
that are neither seeds nor already blocked.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from .diffusion import _BATCH
# Not called here; perfbench's span table resolves this name.
from .diffusion import stopping_rule_spread  # noqa: F401
from .graph import BlockerSet, GraphError, UnifiedGraph
from .sampling import ChainCollection, LRRCollection, PairSource, coverage

E_FRACTION = 1.0 - 1.0 / math.e

log = logging.getLogger(__name__)


@dataclass
class AlgoParams:
    """Budget and error knobs shared by the bound maximizers.  `beta` has
    no effect.  It is the last leftover of the paper's spread estimate,
    which the lower maximizer no longer draws, and is kept, range-checked,
    only because the benchmark harness passes it."""

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


@dataclass
class SampleSchedule:
    """Doubling schedule: start size, cap, round limit and tail log-term."""

    samples_initial: float
    samples_cap: float
    rounds_cap: int
    log_term: float  # ln(3 * rounds_cap / delta), used on both stop sides


@dataclass
class StopCheck:
    """One checked round: index, pairs read, bounds and stop decision."""

    round: int
    samples_primary: int
    samples_validation: int
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
    no sampling was needed.  `value` is the blockers' bound estimated on
    the final validation pairs (population size times covered fraction),
    None after an early exit; `as_dict` leaves it out.
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
    population_size: int = None
    opt_lower: float = None
    checks: list = field(default_factory=list, repr=False)
    value: float = None

    @property
    def early_exit(self):
        return self.stop_reason == "early_exit"

    def as_dict(self):
        """The fields with `early_exit` added and the schedule flattened to
        its sizes (`log_term` and `value` left out)."""
        out = asdict(self)
        schedule = out.pop("schedule") or {}
        del out["value"]
        return {**out, "blockers": list(self.blockers),
                "early_exit": self.early_exit,
                **{key: schedule.get(key) for key in
                   ("samples_initial", "samples_cap", "rounds_cap")}}


@dataclass
class GreedyTrace:
    """Greedy prefix coverages and, for each prefix, the sum of its k
    largest marginal gains; each pick's gain is the step between its
    coverages."""

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
    selected, coverages = [], [0]
    top_k = [_topk_sum(marginal, k)]
    for _ in range(min(k, int(allowed.sum()))):
        v = int(np.argmax(np.where(allowed, marginal, -1)))
        allowed[v] = False
        selected.append(v)
        coverages.append(coverages[-1] + int(marginal[v]))
        state.add(v)
        marginal = state.gains_all(g.n_total)
        top_k.append(_topk_sum(marginal, k))
    return (BlockerSet(selected),
            GreedyTrace(coverages=coverages, top_k=top_k))


def _topk_sum(values: np.ndarray, k: int) -> int:
    k = min(k, len(values))
    return int(np.partition(values, len(values) - k)[len(values) - k:].sum())


def cov_upper_opt(trace: GreedyTrace) -> float:
    """Coverage upper bound for the unknown optimum k-set.

    For each greedy prefix, the prefix's coverage plus its k largest
    marginal gains bounds any k-set's coverage from above (submodularity);
    the minimum over prefixes is returned.
    """
    return float(min(c + t for c, t in zip(trace.coverages, trace.top_k)))


def opt_lower_bound(g: UnifiedGraph, k: int) -> float:
    """Sum of the k largest one-hop seed-activation probabilities."""
    return float(sum(np.sort(g.seed_activation[1])[::-1][:k].tolist()))


def _make_schedule(npop: int, k: int, params: AlgoParams,
                   opt_low: float) -> SampleSchedule:
    """The schedule of both maximizers (see the module docstring): with
    ln_choose = ln C(npop + k, k) and ln_tail = ln(6 / delta),

    samples_initial = 2 ((1-1/e) sqrt(ln_tail) +
                         sqrt((1-1/e)(ln_choose + ln_tail)))^2,
    samples_cap = samples_initial * npop / (epsilon^2 * opt_low).
    """
    ln_choose = (math.lgamma(npop + k + 1) - math.lgamma(k + 1)
                 - math.lgamma(npop + 1))
    ln_tail = math.log(6.0 / params.delta)
    samples_initial = 2.0 * (E_FRACTION * math.sqrt(ln_tail) + math.sqrt(
        E_FRACTION * (ln_choose + ln_tail))) ** 2
    samples_cap = samples_initial * npop / (params.epsilon ** 2 * opt_low)
    rounds_cap = max(1, math.ceil(math.log2(samples_cap / samples_initial)))
    return SampleSchedule(samples_initial=samples_initial,
                          samples_cap=samples_cap,
                          rounds_cap=rounds_cap,
                          log_term=math.log(3.0 * rounds_cap / params.delta))


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


def _certified_maximize(side, g, params, rng, collection, pairs=None):
    """The doubling, certify and stop loop shared by both maximizers.

    Each round reads its primary and validation pairs as `collection` from
    `pairs`, a `PairSource`, or from one made off `rng`.  The schedule
    does not depend on the sample kind: its tail term is ln(6 / delta) and
    its union bound ln C(N_pop + k, k) (see the module docstring).
    """
    params.validate()
    on = g.seed_out_neighbors()
    if len(on) <= params.k:
        return _early_return(side, on)
    pairs = pairs or PairSource(g, rng)
    npop = len(pairs.population)
    if not npop:
        return _early_return(side, population_size=0)
    k = params.k
    opt_low = opt_lower_bound(g, k)
    if opt_low <= 0.0:
        # Reached nodes exist, so some seed out-edge has p > 0, but every
        # 1 - prod(1 - p) of `seed_activation` rounded to 0 (p < ~1e-16).
        raise GraphError("seed out-edge probabilities underflow: every "
                         "one-hop activation probability 1 - prod(1 - p) "
                         "rounds to 0, so the sample schedule has no bound")
    sched = _make_schedule(npop, k, params, opt_low)

    checks, count = [], 0
    for round_no in range(1, sched.rounds_cap + 1):
        last, before = round_no == sched.rounds_cap, count
        count = _BATCH * math.ceil(
            sched.samples_initial * 2 ** (round_no - 1) / _BATCH)
        if count == before and not last:
            continue        # the same pairs as the round before
        primary, validation = pairs.read(collection, count)
        blockers, trace = max_coverage(primary, k)
        covered = coverage(validation, blockers)
        sigma_low = max(0.0, _sigma_lower_term(
            float(covered), sched.log_term)) * npop / validation.n_samples
        sigma_up = _sigma_upper_term(cov_upper_opt(trace), sched.log_term) \
            * npop / primary.n_samples
        ratio = sigma_low / sigma_up
        reached = ratio >= E_FRACTION - params.epsilon
        stop = reached or last
        checks.append(StopCheck(round_no, primary.n_samples,
                                validation.n_samples, sigma_low, sigma_up,
                                ratio, stop))
        log.debug("%s round %d: samples %d primary, %d validation; "
                  "sigma_lower %.6g, sigma_upper %.6g, ratio %.4f, "
                  "stopped %s", side, *astuple(checks[-1]))
        if stop:
            return blockers, BoundCertificate(
                side=side, blockers=blockers,
                stop_reason="ratio" if reached else "rounds_cap", ratio=ratio,
                sigma_lower=sigma_low, sigma_upper=sigma_up,
                rounds=round_no, samples_primary=primary.n_samples,
                samples_validation=validation.n_samples, schedule=sched,
                population_size=npop, opt_lower=opt_low, checks=checks,
                value=npop * covered / validation.n_samples)


def lsbm(g: UnifiedGraph, params: AlgoParams, rng: np.random.Generator,
         pairs=None) -> tuple:
    """Blocker selection maximizing the lower-bound objective.

    Returns (blockers, certificate).  With probability at least 1 - delta
    the returned set's lower-bound value is within 1 - 1/e - epsilon of the
    best achievable with k blockers.  The samples are dominator chains of
    uniform targets (`ChainCollection`), so the lower bound is estimated
    as the upper bound is, at the population's scale.
    """
    return _certified_maximize("lower", g, params, rng, ChainCollection,
                               pairs)


def gsbm(g: UnifiedGraph, params: AlgoParams, rng: np.random.Generator,
         pairs=None) -> tuple:
    """Blocker selection maximizing the upper-bound objective.

    The same loop as `lsbm` over reverse-reachable samples; a blocker set
    covers a sample when it holds one of the set's members.
    """
    return _certified_maximize("upper", g, params, rng, LRRCollection,
                               pairs)
