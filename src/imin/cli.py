"""Command-line experiment harness.

Four subcommands:

  run           run one algorithm on one graph, append CSV rows
  oracle-check  exact-oracle invariant suite on the bundled fixtures
  oracle        exact spread, decrease and bounds on a tiny graph
  bench         parameter sweeps (k / seed count / epsilon), one CSV

CSV rows are byte-identical for a fixed --rng-seed; wall-clock timings
therefore live only in the optional JSON report.  Distinct failure modes
map to distinct exit codes (see EXIT_*).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import fixtures
from .baselines import ag, gr, mc_greedy
from .diffusion import reverse_reach_counts, stopping_rule_decrease
from .graph import (EdgeListParseError, GraphError,
                    assign_constant_probability, assign_wc_probabilities,
                    load_edge_list, unify_seeds)
from .optimize import AlgoParams
from .sandwich import lhga, sand_imin, sand_imin_minus

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNKNOWN_ALGO = 3
EXIT_BAD_K = 4
EXIT_BAD_SEEDS = 5
EXIT_BAD_GRAPH = 6
EXIT_CHECK_FAILED = 1

# Version of the `<graph>.infcache.npz` seed-ranking cache layout.
INFCACHE_FORMAT_VERSION = 4

ALGORITHMS = ("ag", "gr", "mc", "sandimin", "sandimin-minus", "lhga")

CSV_FIELDS = ("dataset", "algo", "k", "n_seeds", "epsilon", "delta", "gamma",
              "repeat", "rng_seed", "decrease", "samples", "ratio")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_graph(spec, undirected, prob, prob_value):
    if spec.startswith("fixture:"):
        name = spec.split(":", 1)[1]
        try:
            return fixtures.bundled(name).base, name
        except KeyError as exc:
            raise CliError(str(exc), EXIT_BAD_GRAPH) from None
    if not os.path.exists(spec):
        raise CliError(f"graph file not found: {spec}", EXIT_BAD_GRAPH)
    try:
        g = load_edge_list(spec, directed=not undirected)
    except EdgeListParseError as exc:
        raise CliError(str(exc), EXIT_BAD_GRAPH) from None
    if prob == "wc":
        g = assign_wc_probabilities(g)
    else:
        g = assign_constant_probability(g, prob_value)
    return g, os.path.basename(spec)


def _fixture_seeds(spec):
    return sorted(fixtures.bundled(spec.split(":", 1)[1]).seeds)


def _influence_pool(g, pool_size, pool_trials, cache_path=None):
    """(top nodes, seed_rank): the `pool_size` node ids of highest
    estimated singleton influence, best first, and the ranking's
    provenance {"samples", "from_cache"}.

    Every node is scored at once by `pool_trials * n` reverse-reachable
    sets drawn with a fixed internal seed, so the ranking is stable across
    runs.  It is cached next to the dataset when possible, keyed on the
    sample count and a fingerprint of the graph's edges and probabilities,
    so a different probability model or edge direction never reuses a
    stale ranking.  A cache file that cannot be read is re-ranked and
    replaced.
    """
    fingerprint = hashlib.sha256(b"".join(
        arr.tobytes() for arr in (g.out_ptr, g.out_dst, g.out_p))).hexdigest()
    samples = pool_trials * g.n
    ranked = _cached_ranking(cache_path, pool_trials, fingerprint)
    from_cache = ranked is not None
    if not from_cache:
        rng = np.random.default_rng(np.random.SeedSequence(0xC0FFEE))
        counts = reverse_reach_counts(g, samples, rng)
        ranked = np.argsort(-counts, kind="stable").astype(np.int64)
        if cache_path is not None:
            _save_ranking(cache_path, pool_trials, fingerprint, ranked)
    return ([int(v) for v in ranked[:pool_size]],
            {"samples": samples, "from_cache": from_cache})


def _cached_ranking(cache_path, pool_trials, fingerprint):
    """The cached ranking if the cache matches; None if it is absent,
    stale or unreadable."""
    if cache_path is None or not os.path.exists(cache_path):
        return None
    try:
        # np.load does not close a file it opened and then failed to read
        with open(cache_path, "rb") as fh, np.load(fh) as data:
            if (int(data["format_version"]) == INFCACHE_FORMAT_VERSION
                    and int(data["pool_trials"]) == pool_trials
                    and str(data["fingerprint"]) == fingerprint):
                return data["ranked"]
    # A torn or foreign file raises any of BadZipFile, EOFError, KeyError,
    # NotImplementedError, OSError, TypeError or ValueError.
    except Exception as exc:
        print(f"warning: ignoring unreadable rank cache {cache_path}: "
              f"{exc!r}", file=sys.stderr)
    return None


def _save_ranking(cache_path, pool_trials, fingerprint, ranked):
    """Write the cache atomically: a reader sees the old file or the new
    one, never a torn one.  A cache that cannot be written is skipped."""
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(cache_path)), suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, format_version=np.int64(INFCACHE_FORMAT_VERSION),
                     pool_trials=np.int64(pool_trials),
                     fingerprint=np.str_(fingerprint), ranked=ranked)
        os.replace(tmp, cache_path)
    except OSError:
        os.unlink(tmp)


def _label_ids(spec, g, what):
    """Node ids of comma-separated labels; a bad label ends with exit 5."""
    label_to_id = {int(lbl): i for i, lbl in enumerate(g.labels)}
    ids = []
    for part in spec.split(","):
        if not part:
            continue
        try:
            label = int(part)
        except ValueError:
            raise CliError(f"bad {what} id {part!r}",
                           EXIT_BAD_SEEDS) from None
        if label not in label_to_id:
            raise CliError(f"{what} id {label} not in graph",
                           EXIT_BAD_SEEDS)
        ids.append(label_to_id[label])
    return ids


def _resolve_seeds(args, g, rng):
    """(seed ids, seed_rank): seed_rank is {"samples", "from_cache"} of
    the influence ranking a seed count is drawn from, else None."""
    spec = args.seeds
    if spec is None:
        if args.graph.startswith("fixture:"):
            return _fixture_seeds(args.graph), None
        raise CliError("--seeds is required for file datasets",
                       EXIT_BAD_SEEDS)
    if "," in spec or not spec.lstrip("-").isdigit():
        seeds = _label_ids(spec, g, "seed")
        if not seeds:
            raise CliError("empty seed list", EXIT_BAD_SEEDS)
        return sorted(set(seeds)), None
    count = int(spec)
    if count < 1 or count > g.n:
        raise CliError(f"seed count {count} out of range", EXIT_BAD_SEEDS)
    cache = None
    if not args.graph.startswith("fixture:"):
        cache = args.graph + ".infcache.npz"
    pool, seed_rank = _influence_pool(g, args.seed_rank_pool,
                                      args.pool_trials, cache)
    if count > len(pool):
        raise CliError(
            f"seed count {count} exceeds the rank pool ({len(pool)})",
            EXIT_BAD_SEEDS)
    picked = rng.choice(len(pool), size=count, replace=False)
    return sorted(int(pool[i]) for i in picked), seed_rank


def _unified_graph(args, g):
    """Resolve --seeds (drawn from the --rng-seed stream) and unify them;
    returns (unified graph, seed_rank of `_resolve_seeds`)."""
    root = np.random.SeedSequence(args.rng_seed)
    seed_rng = np.random.default_rng(root.spawn(1)[0])
    try:
        seeds, seed_rank = _resolve_seeds(args, g, seed_rng)
        return unify_seeds(g, seeds), seed_rank
    except GraphError as exc:
        raise CliError(str(exc), EXIT_BAD_SEEDS) from None


def _run_algo(algo, ug, args, rng):
    """Dispatch one algorithm of `ALGORITHMS` (its callers check the name
    first, with `_check_algo_and_k`); returns (blockers, samples, ratio,
    report)."""
    params = AlgoParams(k=args.k, epsilon=args.epsilon, delta=args.delta,
                        gamma=args.gamma)
    if algo == "sandimin" or algo == "sandimin-minus":
        fn = sand_imin if algo == "sandimin" else sand_imin_minus
        result = fn(ug, params, rng)
        samples = sum(cert.samples_primary
                      for cert in result.certificates.values())
        return (result.chosen, samples, result.empirical_ratio,
                result.as_dict())
    if algo == "lhga":
        blockers = lhga(ug, args.k)
        return blockers, 0, None, {"blockers": list(blockers)}
    if algo == "ag":
        blockers = ag(ug, args.k, args.realizations, rng)
    elif algo == "gr":
        blockers = gr(ug, args.k, args.realizations, rng)
    else:
        blockers = mc_greedy(ug, args.k, args.trials, rng)
    samples = args.realizations if algo in ("ag", "gr") else args.trials
    return blockers, samples, None, {"blockers": list(blockers)}


def _evaluate_decrease(ug, blockers, args, rng):
    """The decrease of `blockers` to the run's --gamma and --delta, from at
    most --eval-trials paired cascades (`diffusion.stopping_rule_decrease`):
    the base and the residual spread of each come from one realization."""
    return stopping_rule_decrease(ug, blockers, args.gamma, args.delta, rng,
                                  args.eval_trials)


def _format_row(values):
    out = []
    for v in values:
        if v is None:
            out.append("")
        elif isinstance(v, float):
            out.append(f"{v:.6f}")
        else:
            out.append(str(v))
    return out


def _write_csv(path, rows):
    """Append `rows` to the CSV file `path`, or write them to stdout when
    it is None, under a header when nothing precedes them.  A field that
    holds a comma or a quote, such as a graph file's name, is quoted."""
    def write(fh, header):
        out = csv.writer(fh, lineterminator="\n")
        if header:
            out.writerow(CSV_FIELDS)
        out.writerows(_format_row(r) for r in rows)

    if path is None:
        write(sys.stdout, True)
    else:
        with open(path, "a", encoding="utf-8", newline="") as fh:
            write(fh, fh.tell() == 0)       # a new or empty file


def _check_algo_and_k(algo, k):
    if algo not in ALGORITHMS:
        raise CliError(f"unknown algorithm {algo!r}; choose from "
                       f"{ALGORITHMS}", EXIT_UNKNOWN_ALGO)
    if k <= 0:
        raise CliError(f"k must be positive, got {k}", EXIT_BAD_K)


def _check_outputs(args):
    """--out and --json must name files in existing directories; checked
    before any work, so a bad path ends with exit 2 and writes nothing."""
    for flag, path in (("--out", args.out), ("--json", args.json)):
        if path is None:
            continue
        if not path:
            reason = "is empty"
        elif os.path.isdir(path):
            reason = "is a directory"
        elif not os.path.isdir(os.path.dirname(path) or "."):
            reason = "names a missing directory"
        else:
            continue
        raise CliError(f"{flag} {path!r} {reason}", EXIT_USAGE)


def _load_run_graph(args):
    """Check --out and --json, then load --graph; an unset --delta
    defaults to 1/n."""
    _check_outputs(args)
    g, dataset = _load_graph(args.graph, args.undirected, args.prob,
                             args.prob_value)
    if args.delta is None:
        args.delta = 1.0 / g.n
    return g, dataset


def _run_rows(args, ug, dataset, seed_rank):
    """All --repeats of one algorithm run: (CSV rows, JSON reports)."""
    rows = []
    reports = []
    for rep in range(args.repeats):
        rep_seq = np.random.SeedSequence(args.rng_seed,
                                         spawn_key=(1, rep))
        algo_rng = np.random.default_rng(rep_seq.spawn(1)[0])
        eval_rng = np.random.default_rng(rep_seq.spawn(1)[0])
        t0 = time.perf_counter()
        try:
            blockers, samples, ratio, report = _run_algo(args.algo, ug, args,
                                                         algo_rng)
        except GraphError as exc:
            raise CliError(str(exc), EXIT_BAD_GRAPH) from None
        elapsed = time.perf_counter() - t0
        decrease = _evaluate_decrease(ug, blockers, args, eval_rng)
        rows.append((dataset, args.algo, args.k, len(ug.seeds),
                     args.epsilon, args.delta, args.gamma, rep,
                     args.rng_seed, decrease.value, samples, ratio))
        report.update({"dataset": dataset, "algo": args.algo, "repeat": rep,
                       "decrease_mc": decrease.value,
                       "decrease_trials": decrease.samples_used,
                       "decrease_bounds": [decrease.low, decrease.high],
                       "runtime_s": elapsed, "samples": samples,
                       "seed_rank": seed_rank,
                       "blocker_labels": [int(ug.base.labels[v])
                                          for v in blockers]})
        reports.append(report)
    return rows, reports


def _write_outputs(args, rows, reports):
    _write_csv(args.out, rows)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)


def cmd_run(args):
    _check_algo_and_k(args.algo, args.k)
    g, dataset = _load_run_graph(args)
    ug, seed_rank = _unified_graph(args, g)
    rows, reports = _run_rows(args, ug, dataset, seed_rank)
    _write_outputs(args, rows, reports)
    return EXIT_OK


def cmd_bench(args):
    """Sweep seeds x k x epsilon; the graph is loaded and each seed spec
    resolved once, then every (k, epsilon) cell runs on the same seeds."""
    seeds_list = args.seeds_list.split(";") if args.seeds_list else [None]
    for k in args.k_list:
        _check_algo_and_k(args.algo, k)
    g, dataset = _load_run_graph(args)
    rows, reports = [], []
    for n_seeds in seeds_list:
        sub = argparse.Namespace(**vars(args))
        sub.seeds = n_seeds if n_seeds is not None else args.seeds
        ug, seed_rank = _unified_graph(sub, g)
        for k in args.k_list:
            for eps in args.epsilon_list:
                sub.k, sub.epsilon = k, eps
                cell_rows, cell_reports = _run_rows(sub, ug, dataset,
                                                    seed_rank)
                rows += cell_rows
                reports += cell_reports
    _write_outputs(args, rows, reports)
    print(f"bench: wrote {len(rows)} rows to {args.out or 'stdout'}",
          file=sys.stderr)
    return EXIT_OK


def cmd_oracle(args):
    """Ad-hoc exact values for a tiny graph and one blocker set."""
    from .oracle import ExactModel, OracleLimitError

    g, dataset = _load_graph(args.graph, args.undirected, args.prob,
                             args.prob_value)
    seed_rng = np.random.default_rng(np.random.SeedSequence(0))
    blockers = _label_ids(args.blockers, g, "blocker")
    try:
        seeds, _ = _resolve_seeds(args, g, seed_rng)
        labels = g.labels.tolist()
        for v in blockers:
            if v in seeds:
                raise CliError(f"seed node {labels[v]} cannot be blocked",
                               EXIT_BAD_SEEDS)
        ug = unify_seeds(g, seeds)
        model = ExactModel(ug)
        print(f"dataset={dataset} n={g.n} m={g.m} "
              f"seeds={sorted(labels[v] for v in seeds)} "
              f"blockers={[labels[v] for v in blockers]}")
        print(f"spread(no blocking) = {model.spread():.6f}")
        print(f"decrease            = {model.decrease(blockers):.6f}")
        print(f"lower bound         = {model.lower_bound(blockers):.6f}")
        print(f"upper bound         = {model.upper_bound(blockers):.6f}")
    except GraphError as exc:
        raise CliError(str(exc), EXIT_BAD_SEEDS) from None
    except OracleLimitError as exc:
        raise CliError(str(exc), EXIT_BAD_GRAPH) from None
    return EXIT_OK


def cmd_oracle_check(args):
    from .checks import run_invariant_suite

    results = run_invariant_suite(args.rng_seed)
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _checked(kind, ok, what):
    """An argparse `type=` that parses with `kind` and requires `ok`."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    return parse


def _list_of(parse):
    """An argparse `type=` for a comma-separated list of `parse` values."""
    return lambda text: [parse(part) for part in text.split(",")]


_INT = _checked(int, lambda x: True, "an integer")
_COUNT = _checked(int, lambda x: x >= 1, "a positive integer")
_RNG_SEED = _checked(int, lambda x: x >= 0, "a non-negative integer")
_OPEN_UNIT = _checked(float, lambda x: 0.0 < x < 1.0, "in (0, 1)")
_PROB = _checked(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")


def _add_graph_options(p):
    """--graph and how its probabilities and seeds are chosen."""
    p.add_argument("--graph", required=True,
                   help="edge-list path or fixture:<name> "
                        f"({', '.join(sorted(fixtures.BUNDLED))})")
    p.add_argument("--undirected", action="store_true",
                   help="treat file edges as undirected (doubled)")
    p.add_argument("--prob", choices=("wc", "const"), default="wc",
                   help="edge probability rule for file graphs")
    p.add_argument("--prob-value", type=_PROB, default=0.1)
    p.add_argument("--seeds",
                   help="seed count (bare integer, drawn from the top "
                        "influence pool), or comma-separated node labels; "
                        "use a trailing comma for one explicit label, e.g. "
                        "'42,' (fixtures default to their built-in seeds)")
    p.add_argument("--seed-rank-pool", type=_COUNT, default=200,
                   help="how many top-ranked nodes a seed count is drawn "
                        "from")
    p.add_argument("--pool-trials", type=_COUNT, default=100,
                   help="reverse-reachable samples per node for the "
                        "influence ranking")


def _add_common_options(p, sweep=False):
    _add_graph_options(p)
    p.add_argument("--algo", required=True,
                   help=f"one of {', '.join(ALGORITHMS)}")
    if not sweep:
        p.add_argument("--k", type=int, required=True,
                       help="blocker budget")
        p.add_argument("--epsilon", type=_OPEN_UNIT, default=0.2)
    p.add_argument("--delta", type=_OPEN_UNIT, default=None,
                   help="failure probability (default 1/n)")
    p.add_argument("--gamma", type=_OPEN_UNIT, default=0.1)
    p.add_argument("--trials", type=_COUNT, default=1000,
                   help="Monte-Carlo trials per greedy evaluation (mc)")
    p.add_argument("--realizations", type=_COUNT, default=10_000,
                   help="realizations per round (ag/gr)")
    p.add_argument("--eval-trials", type=_COUNT, default=100_000,
                   help="most paired cascades for the final decrease, "
                        "which stops sooner once its interval meets "
                        "--gamma at --delta")
    p.add_argument("--repeats", type=_COUNT, default=1)
    p.add_argument("--rng-seed", type=_RNG_SEED, default=0)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--json", help="JSON report path")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="imin",
        description="Influence minimization via node blocking")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm, emit CSV")
    _add_common_options(run)
    run.set_defaults(func=cmd_run)

    oc = sub.add_parser("oracle-check",
                        help="exact-oracle invariant suite on fixtures")
    oc.add_argument("--rng-seed", type=_RNG_SEED, default=0)
    oc.set_defaults(func=cmd_oracle_check)

    orc = sub.add_parser("oracle",
                         help="exact spread/decrease/bounds on a tiny graph")
    _add_graph_options(orc)
    orc.add_argument("--blockers", default="",
                     help="comma-separated node labels to block")
    orc.set_defaults(func=cmd_oracle)

    bench = sub.add_parser("bench", help="sweep k / seeds / epsilon")
    _add_common_options(bench, sweep=True)
    bench.add_argument("--k-list", type=_list_of(_INT), default=[1],
                       help="comma-separated budgets")
    bench.add_argument("--epsilon-list", type=_list_of(_OPEN_UNIT),
                       default=[0.2])
    bench.add_argument("--seeds-list", default=None,
                       help="semicolon-separated --seeds specs")
    bench.set_defaults(func=cmd_bench, k=None, epsilon=None)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
