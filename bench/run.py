"""kzeta benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload realcyc-norm --seed 3 --seconds 25 --trace 0

Each workload runs in fresh child processes, one after another, on one core
and with one client in a closed loop.  With --trace 0 it prints the
end-to-end metrics: setup_s is the median over SETUP_RUNS process starts, the
rest come from one process that runs the timed ops, each in several passes.
Times are scaled to a fixed host speed (hostspeed.py).  With --trace 1 it runs
the same ops once untraced and once traced and prints the per-layer metrics;
trace.overhead_s is the difference of the two wall times.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("realcyc-norm", "cyclic-dlog", "korder-factor", "stats")
SETUP_RUNS = 9  # the timed process plus eight that stop after warm-up
CHILD_TIMEOUT_S = 85.0

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("complete_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER_UNITS = {
    "poly.resultant_calls": "count",
    "poly.resultant_s": "s",
    "poly.sylvester_dim_max": "rows",
    "poly.norm_bits_max": "bits",
    "characters.enum_s": "s",
    "characters.dlog_calls": "count",
    "characters.dlog_s": "s",
    "lfun.zeta_s": "s",
    "lfun.self_s": "s",
    "ktheory.w_s": "s",
    "ktheory.verdict_s": "s",
    "ktheory.bound_s": "s",
    "ktheory.density_s": "s",
    "factor.factorize_calls": "count",
    "factor.factorize_s": "s",
    "factor.timeouts": "count",
    "factor.order_digits_max": "digits",
    "factor.sieve_s": "s",
    "factor.sieve_n_max": "count",
    "powersum.bernoulli_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def child(workload: str, seed: int, seconds: float, mode: str, traced: bool) -> dict:
    """Run worker.py in a fresh process and return its summary."""
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "mode": mode,
           "traced": traced, "t0": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(cfg)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError("%s %s process failed:\n%s" % (workload, mode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    main = child(workload, seed, seconds, "timed", False)
    others = [child(workload, seed, seconds, "setup", False) for _ in range(SETUP_RUNS - 1)]
    raw_setups = [main["setup_raw_s"]] + [o["setup_raw_s"] for o in others]
    main["setup_s"] = statistics.median([main["setup_s"]] + [o["setup_s"] for o in others])
    n = main["attempted"]
    print("%s  seed %d  %d ops x %d passes in %.1f s  %d failed  %d wrong  %d incomplete" % (
        workload, seed, n, main["passes"], main["timed_s"], main["failed"], main["wrong"],
        main["incomplete"]))
    print("  host speed factor %.4f (probe median %.6f s of %d tries); raw wall %.4f s, raw setup %.4f s" % (
        main["speed"], main["probe_median_s"], main["probe_tries"], main["wall_raw_s"],
        statistics.median(raw_setups)))
    notes = {
        "wall_s": "sum over ops of the median of %d tries" % main["passes"],
        "op_p50_s": "median over ops of the median of %d tries" % main["passes"],
        "op_tail_s": "p%.1f of %d ops, 10 beyond" % (main["tail_pct"], n),
        "complete_ratio": "fail_ratio %d/%d = %.4f" % (main["failed"], n, main["failed"] / n),
        "setup_s": "median of %d process starts" % SETUP_RUNS,
    }
    for name, unit in END_TO_END:
        print("  %-15s %12.6g %-6s %s" % (name, main[name], unit, notes.get(name, "")))
    return {"summary": main, "metrics": {name: {"value": main[name], "unit": unit}
                                         for name, unit in END_TO_END}}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    plain = child(workload, seed, seconds, "timed", False)
    traced = child(workload, seed, seconds, "timed", True)
    layers = traced["layers"]
    values = dict(layers["metrics"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
    print("%s  seed %d  traced wall %.4f s, untraced %.4f s" % (
        workload, seed, traced["wall_s"], plain["wall_s"]))
    # Table rows are per pass; shares are of the op time of a pass.
    op_s = layers["table"]["op"]["total_s"]
    print("  %-20s %8s %10s %10s %7s" % ("span", "calls", "total_s", "self_s", "share"))
    for name, row in sorted(layers["table"].items(), key=lambda kv: -kv[1]["self_s"]):
        print("  %-20s %8d %10.4f %10.4f %6.1f%%" % (
            name, row["calls"], row["total_s"], row["self_s"], 100 * row["self_s"] / op_s))
    for name, value in values.items():
        print("  %-24s %12.6g %s" % (name, value, PER_LAYER_UNITS[name]))
    summary = dict(traced, attempted=plain["attempted"] + traced["attempted"],
                   failed=plain["failed"] + traced["failed"],
                   correct=plain["correct"] and traced["correct"])
    return {"summary": summary, "metrics": {name: {"value": values[name], "unit": unit}
                                            for name, unit in PER_LAYER_UNITS.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kzeta", "__init__.py")):
        print("bench: no kzeta sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = run_traced if args.trace else run_end_to_end
    try:
        runs = {name: measure(name, args.seed, args.seconds) for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    for name, r in runs.items():
        for inp, why in r["summary"]["problems"]:
            print("  %s op %s: %s" % (name, json.dumps(inp), why))
    if len(runs) == 1:
        metrics = runs[names[0]]["metrics"]
    else:
        metrics = {"%s.%s" % (w, m): v for w, r in runs.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["summary"]["correct"] for r in runs.values()),
        "attempted": sum(r["summary"]["attempted"] for r in runs.values()),
        "failed": sum(r["summary"]["failed"] for r in runs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
