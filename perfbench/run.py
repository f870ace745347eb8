"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mid --seed 1 --seconds 32 --trace 0

Run from the repository root; the package is imported from ./src.  Each
invocation is one fresh, single-threaded process running one workload
(see BENCHMARK.json and perfbench/README.md for the workloads and
metrics).  A run makes round(seconds / case_s) cases, at least three, from
the workload seed.  It prints one line per case and per metric, then, as
its last line, one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics; --trace 1 runs
every case untraced and then traced, and reports the per-layer metrics.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"
MIN_CASES = 3

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decrease_frac": "fraction",
    "ok_frac": "fraction",
}


class DigestStore:
    """Digests of earlier runs in this checkout, keyed by workload, size,
    seed and case; a fixed seed must give the same digest every time."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            self.seen = json.loads(self.path.read_text())
        except FileNotFoundError:
            self.seen = {}

    def agrees(self, key, digest):
        return self.seen.setdefault(key, digest) == digest

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def measure(workload, seed, seconds, trace, size, workdir):
    """Run one workload; returns the result object printed as JSON."""
    import numpy as np

    import workloads

    run_case = workloads.CASES[workload]
    n_cases = max(MIN_CASES, round(seconds / size["case_s"]))
    if trace:
        n_cases = math.ceil(n_cases / 2)   # every case runs twice
        import tracing

        tracer = tracing.Tracer()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    store = DigestStore(workdir / "digests.json")
    size_key = json.dumps(size, sort_keys=True)

    # An untimed toy case first, so no timed case pays first-call costs.
    run_case(np.random.SeedSequence(0), workloads.SIZES["toy"][workload],
             workdir)

    setups, solves, fracs = [], [], []
    traced_solve = untraced_solve = 0.0
    failed = 0
    for i in range(n_cases):
        def case_seq():
            return np.random.SeedSequence(seed, spawn_key=(i,))

        try:
            case = run_case(case_seq(), size, workdir)
            problems = workloads.check(case)
            digest = workloads.digest(case)
            if not store.agrees(f"{workload}/{size_key}/{seed}/{i}", digest):
                problems.append("digest differs from an earlier run")
            if trace:
                with tracer:
                    traced = run_case(case_seq(), size, workdir, tracer.timed)
                if workloads.digest(traced) != digest:
                    problems.append("traced run gave a different digest")
                traced_solve += traced.solve_s
                untraced_solve += case.solve_s
        except Exception:   # a failing case is counted; the run goes on
            traceback.print_exc()
            failed += 1
            continue
        base = case.report["base_spread_estimate"]
        frac = case.report["decrease_estimate"] / base if base > 0 else 0.0
        setups.append(case.setup_s)
        solves.append(case.solve_s)
        fracs.append(frac)
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        failed += bool(problems)
        stops = " ".join(f"{side}={workloads.stop_reason(cert)}"
                         for side, cert in case.report["certificates"].items())
        print(f"case {i}: setup_s {case.setup_s:.4f} solve_s "
              f"{case.solve_s:.4f} decrease_frac {frac:.4f} stop {stops} "
              f"digest {digest} {status}", flush=True)
    store.save()

    if trace:
        values = tracing.layer_metrics(tracer, n_cases, traced_solve,
                                       untraced_solve)
        units = tracing.metric_units()
    else:
        values = {
            "solve_s": statistics.fmean(solves) if solves else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "decrease_frac": statistics.fmean(fracs) if fracs else 0.0,
            "ok_frac": (n_cases - failed) / n_cases,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": n_cases, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="mid, padded or cli-cold")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "imin" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'imin'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.CASES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.CASES)}")
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     workloads.SIZES["full"][args.workload], WORKDIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
