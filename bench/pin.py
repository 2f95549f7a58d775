"""Regenerate pins.json from the kzeta sources next to this directory.

    python3 bench/pin.py

Pins, per workload: the canonical results (as short digests) over the whole
input universe of realcyc-norm and korder-factor; the cost of each cyclic-dlog
input (the best of three measured latencies); the density counts that stats
draws from; and the results of the default seed for cyclic-dlog and stats.  Run it only on a commit whose results are trusted:
the benchmark flags every later result that differs.  It takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from kzeta import arith  # noqa: E402

import workloads as w  # noqa: E402


def main() -> None:
    pins: dict = {}
    wl = w.WORKLOADS["realcyc-norm"]
    for m in w.REALCYC_WARMUP:
        wl.run(m)
    uni = {}
    for m in w.realcyc_universe():
        with w.deadline(wl.deadline_s):
            result = wl.run(m)
        uni[str(m)] = {"order": w.digest(result["order"])}
    pins["realcyc-norm"] = {"universe": uni}

    wl = w.WORKLOADS["korder-factor"]
    uni = {}
    for m, k in w.korder_universe():
        with w.deadline(wl.deadline_s):
            result = wl.run((m, k))
        entry = {"order": w.digest(result["order"])}
        if result["complete"]:
            entry["factors"] = w.digest(result["factors"])
        uni["%d,%d" % (m, k)] = entry
    pins["korder-factor"] = {"universe": uni}

    density = {}
    for x in w.DENSITY_XS:
        primes = arith.primes_up_to(x)
        for p in w.DENSITY_PRIMES:
            n_p = sum(1 for q in primes if q % p == 1)
            n_p2 = sum(1 for q in primes if q % (p * p) == 1)
            density["%d,%d" % (p, x)] = [n_p, n_p2]
        del primes
    pins["stats"] = {"density": density}

    wl = w.WORKLOADS["cyclic-dlog"]
    for inp in w.CYCLIC_WARMUP:
        wl.run(inp)
    cost = {}
    for inp in w.cyclic_universe():
        best = math.inf
        for _ in range(3):
            w.clear_caches()
            t0 = time.perf_counter()
            wl.run(inp)
            best = min(best, time.perf_counter() - t0)
        cost["%d,%d" % inp] = round(best, 5)
    pins["cyclic-dlog"] = {"cost": cost}

    for name in ("cyclic-dlog", "stats"):
        wl = w.WORKLOADS[name]
        _, inputs = wl.inputs(w.DEFAULT_SEED, w.PINNED_SECONDS, pins)
        digests = []
        for inp in inputs:
            with w.deadline(wl.deadline_s):
                digests.append(w.digest([inp, wl.run(inp)]))
        pins[name]["default_seed"] = "".join(digests)

    with open(w.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
