"""One benchmark process: set up, run one workload's timed ops, check them.

Run by run.py as `python3 worker.py '<json config>'`, never directly.  The
config holds workload, seed, seconds, mode ("setup" stops after warm-up),
traced, and t0, the parent's time.monotonic() just before it started this
process.  The last line of stdout is a JSON summary.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# The whole timed phase of one process stays below this, so that a run with a
# traced and an untraced process ends within 180 s; ops not started in time
# count as failed.
MAX_TIMED_S = 60.0
SETUP_PROBES = 5  # host speed probes right after the warm-up, for setup_s


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it."""
    ranked = sorted(latencies)
    if len(ranked) <= 10:
        return ranked[-1], 100.0
    return ranked[-11], 100.0 * (len(ranked) - 10) / len(ranked)


def op_sizes(name: str, inp, result: dict | None) -> dict:
    """Size properties of one op, for attributing slow ops in the trace."""
    from kzeta.characters import FieldSpec

    if name in ("realcyc-norm", "korder-factor", "cyclic-dlog"):
        if name == "cyclic-dlog":
            spec = FieldSpec.prime_cyclic_subfield(*inp)
        else:
            spec = FieldSpec.real_cyclotomic(inp if name == "realcyc-norm" else inp[0])
        sizes = {
            "degree": spec.degree,
            "d_max": max(chi.order for chi in spec.characters),
        }
        if result is not None:
            sizes["order_digits"] = len(result["order"])
        return sizes
    return {"m_digits": len(str(inp[2]))}


def main(cfg: dict) -> dict:
    sys.path.insert(0, SRC_DIR)
    import kzeta

    if not os.path.abspath(kzeta.__file__).startswith(SRC_DIR + os.sep):
        raise RuntimeError("imported kzeta from %s, not from %s" % (kzeta.__file__, SRC_DIR))
    import hostspeed
    import workloads

    wl = workloads.WORKLOADS[cfg["workload"]]
    pins = workloads.load_pins()
    warmup, timed = wl.inputs(cfg["seed"], cfg["seconds"], pins)
    rec = None
    run = wl.run
    if cfg["traced"]:
        import spans

        rec = spans.Recorder()
        rec.install()
        run = rec.wrap("op", run)
    for inp in warmup:
        with workloads.deadline(wl.deadline_s):
            run(inp)
    setup_s = time.monotonic() - cfg["t0"]
    probe = hostspeed.Probe()
    setup_scaled = setup_s * hostspeed.REF_S / probe.sample(SETUP_PROBES)
    if cfg["mode"] == "setup":
        return {"setup_s": setup_scaled, "setup_raw_s": setup_s}

    # Every op runs once per pass, in the same order.  kzeta's memo caches are
    # emptied before each try, so every try does the op's whole work.  Each try
    # is timed next to a host speed probe (hostspeed.py) and stated at the
    # reference speed as REF_S * try / probe; an op's latency is the median of
    # its tries so stated.  A try stopped by its deadline took the deadline's
    # clock time, which does not depend on the host speed: such an op's
    # latency is the median of its raw tries.
    n = len(timed)
    results, failures, differs = [None] * n, [None] * n, [None] * n
    stopped = [False] * n
    raw = [[] for _ in range(n)]
    scaled = [[] for _ in range(n)]
    t_start = time.perf_counter()
    for p in range(wl.passes):
        for i, inp in enumerate(timed):
            if rec is not None:
                rec.begin_op(i)
            workloads.clear_caches()
            ref = probe.recent()
            result, failure = None, None
            t0 = time.perf_counter()
            if t0 - t_start > MAX_TIMED_S:
                failure = "not started: timed phase over %.0f s" % MAX_TIMED_S
            else:
                try:
                    with workloads.deadline(wl.deadline_s):
                        result = run(inp)
                except workloads.DeadlineExceeded:
                    failure = "missed the %.2f s deadline" % wl.deadline_s
                    stopped[i] = True
                except Exception as exc:  # an op that raises is a failed op, not a dead run
                    failure = "raised %r" % (exc,)
            lat = time.perf_counter() - t0
            raw[i].append(lat)
            scaled[i].append(lat * hostspeed.REF_S / ref)
            stopped[i] = stopped[i] or (result is not None and result.get("complete") is False)
            if p == 0:
                results[i] = result
            elif failure is None and result != results[i] and results[i] is not None:
                differs[i] = differs[i] or "pass %d returned another result than pass 1" % (p + 1)
            failures[i] = failures[i] or failure
    timed_s = time.perf_counter() - t_start
    raw_latencies = [statistics.median(r) for r in raw]
    latencies = [
        r if cut else statistics.median(sc) for r, sc, cut in zip(raw_latencies, scaled, stopped)
    ]

    # Checks run after the timed loop, so they take no part in any timing.
    if rec is not None:
        rec.begin_op(-2)
    wrong = workloads.check_default_seed(wl.name, cfg["seed"], timed, results, pins)
    for i, (inp, result) in enumerate(zip(timed, results)):
        if result is not None and wrong[i] is None:
            wrong[i] = wl.check(inp, result, pins)
        wrong[i] = wrong[i] or differs[i]
    ops = [
        {"input": inp, "latency_s": lat, "failure": f, "wrong": w,
         "complete": r is not None and r.get("complete", True)}
        for inp, r, lat, f, w in zip(timed, results, latencies, failures, wrong)
    ]
    n_failed = sum(1 for op in ops if op["failure"] or op["wrong"])
    p_tail, q_tail = tail(latencies)
    summary = {
        "workload": wl.name,
        "attempted": len(ops),
        "failed": n_failed,
        "wrong": sum(1 for op in ops if op["wrong"]),
        "incomplete": sum(1 for op in ops if not op["complete"] and not op["failure"]),
        "correct": not any(op["wrong"] for op in ops),
        "setup_s": setup_scaled,
        "setup_raw_s": setup_s,
        "wall_s": math.fsum(latencies),
        "wall_raw_s": math.fsum(raw_latencies),
        "timed_s": timed_s,
        "passes": wl.passes,
        "speed": probe.factor(),
        "probe_median_s": statistics.median(probe.times),
        "probe_tries": len(probe.times),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": p_tail,
        "tail_pct": q_tail,
        "complete_ratio": sum(op["complete"] for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": [(op["input"], op["failure"] or op["wrong"]) for op in ops
                     if op["failure"] or op["wrong"]][:10],
    }
    if rec is not None:
        for op, inp, result in zip(ops, timed, results):
            op["sizes"] = op_sizes(wl.name, inp, result)
        summary["layers"] = layer_metrics(rec, summary)
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.dump(
            os.path.join(OUT_DIR, "trace-%s.json" % wl.name),
            dict(summary["layers"], workload=wl.name, seed=cfg["seed"], ops=ops),
        )
    return summary


def layer_metrics(rec, summary: dict) -> dict:
    import spans

    # Every pass does the same work, so counts and times are per pass; times
    # are scaled to the reference host speed like every other time.
    timed = rec.timed_spans()
    table = spans.layer_table(timed, summary["passes"])
    for row in table.values():
        row["total_s"] *= summary["speed"]
        row["self_s"] *= summary["speed"]

    def get(name, field):
        return table.get(name, {}).get(field, 0)

    def biggest(name, key):
        return spans.size_max(timed, rec.sizes, name, key)

    metrics = {
        "poly.resultant_calls": get("poly.resultant", "calls"),
        "poly.resultant_s": get("poly.resultant", "total_s"),
        "poly.sylvester_dim_max": biggest("poly.resultant", "dim"),
        "poly.norm_bits_max": biggest("poly.resultant", "bits"),
        "characters.enum_s": get("characters.enum", "total_s"),
        "characters.dlog_calls": get("characters.dlog", "calls"),
        "characters.dlog_s": get("characters.dlog", "total_s"),
        "lfun.zeta_s": get("lfun.zeta", "total_s"),
        "lfun.self_s": get("lfun.zeta", "self_s"),
        "ktheory.w_s": get("ktheory.w", "total_s"),
        "ktheory.verdict_s": get("ktheory.verdict", "total_s"),
        "ktheory.bound_s": get("ktheory.bound", "total_s"),
        "ktheory.density_s": get("ktheory.density", "total_s"),
        "factor.factorize_calls": get("factor.factorize", "calls"),
        "factor.factorize_s": get("factor.factorize", "total_s"),
        "factor.timeouts": summary["incomplete"],
        "factor.order_digits_max": biggest("factor.factorize", "digits"),
        "factor.sieve_s": get("factor.sieve", "total_s"),
        "factor.sieve_n_max": biggest("factor.sieve", "n"),
        "powersum.bernoulli_s": get("powersum.bernoulli", "total_s"),
    }
    setup_table = spans.layer_table([s for s in rec.spans if s[3] == -1])
    return {"metrics": metrics, "table": table, "setup_table": setup_table}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
