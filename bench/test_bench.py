"""Tests of the benchmark itself: seeded inputs, result checks, the deadline,
and the span arithmetic.

    python3 -m pytest -q bench/test_bench.py
"""

import os
import statistics
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
import workloads as w  # noqa: E402
from worker import tail  # noqa: E402

PINS = w.load_pins()


def _key(inp):
    return inp[:4] if isinstance(inp, tuple) and inp[0] == "verdict" else inp


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_inputs_are_deterministic_distinct_and_apart_from_warmup(name):
    make = w.WORKLOADS[name].inputs
    warmup, timed = make(5, 10, PINS)
    assert (warmup, timed) == make(5, 10, PINS)
    assert timed != make(6, 10, PINS)[1]
    keys = [_key(inp) for inp in timed]
    assert len(set(keys)) == len(keys)
    assert not set(map(_key, warmup)) & set(keys)


def test_stratified_sample_keeps_the_total_cost():
    import random

    items = list(range(1, 200))
    totals = [
        sum(w.stratified_sample(random.Random(s), items, float, 20)) for s in range(10)
    ]
    assert max(totals) <= 1.05 * min(totals)


def test_oracle_flags_corrupted_zeta_orders():
    good = w.realcyc_run(61)
    assert w.realcyc_check(61, good, PINS) is None
    bad = {"order": str(int(good["order"]) + 1)}
    assert w.realcyc_check(61, bad, PINS)

    ell, p = 5011, 3
    good = w.cyclic_run((ell, p))
    assert w.cyclic_check((ell, p), good, PINS) is None
    order = int(good["order"])
    bad = {"order": str(order + 1 if order % p == 0 else order * p)}
    assert w.cyclic_check((ell, p), bad, PINS)


def test_oracle_flags_corrupted_factorizations():
    inp = (11, 7)
    good = w.korder_run(inp)
    assert good["complete"] and w.korder_check(inp, good, PINS) is None
    order = int(good["order"])
    assert w.korder_check(inp, dict(good, order=str(order * 3)), PINS)
    q, e = good["factors"][-1]
    wrong_power = good["factors"][:-1] + [[q, e + 1]]
    assert w.korder_check(inp, dict(good, factors=wrong_power), PINS)
    composite = good["factors"][:-1] + [[q * q, e]]
    assert w.korder_check(inp, dict(good, factors=composite), PINS)


def test_oracle_flags_corrupted_verdicts_bounds_and_densities():
    _, timed = w.stats_inputs(3, 1, PINS)
    seen = set()
    for inp in timed:
        if inp[0] in seen:
            continue
        seen.add(inp[0])
        good = w.stats_run(inp)
        assert w.stats_check(inp, good, PINS) is None
        if inp[0] == "density":
            bad = dict(good, n_p2=good["n_p2"] + 1)
        elif inp[0] == "bound":
            bad = {"bound": good["bound"] + 1}
        else:
            bad = dict(good, status="Unknown" if good["status"] != "Unknown" else "GuaranteedDivisible")
        assert w.stats_check(inp, bad, PINS)
    assert seen == {"verdict", "bound", "density"}


def test_default_seed_pins_flag_a_changed_result():
    _, timed = w.cyclic_inputs(w.DEFAULT_SEED, w.PINNED_SECONDS, PINS)
    inp = timed[0]
    good = w.cyclic_run(inp)
    results = [good] + [None] * (len(timed) - 1)
    assert w.check_default_seed("cyclic-dlog", w.DEFAULT_SEED, timed, results, PINS) == [None] * len(timed)
    results[0] = {"order": good["order"] + "0"}
    assert w.check_default_seed("cyclic-dlog", w.DEFAULT_SEED, timed, results, PINS)[0]


def test_deadline_stops_a_known_slow_factorization():
    # The order of K_6 for Q(zeta_61)^+ has a cofactor Pollard rho does not
    # split in any short time; the op returns the exact order, incomplete.
    t0 = time.perf_counter()
    with w.deadline(0.3):
        result = w.korder_run((61, 3))
    assert time.perf_counter() - t0 < 1.0
    assert result["complete"] is False and result["factors"] is None
    assert len(result["order"]) == 113


def test_deadline_escapes_an_op_without_a_partial_result():
    with pytest.raises(w.DeadlineExceeded):
        with w.deadline(0.05):
            w.realcyc_run(227)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert tail([1.0, 2.0]) == (2.0, 100.0)


def test_metric_names_and_units_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [wl["name"] for wl in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == w.PINNED_SECONDS


def test_layer_table_self_time_and_nesting():
    recorded = [
        (1, "b", 0, 0, 1.0, 3.0),
        (2, "b", 1, 0, 1.5, 2.0),
        (3, "c", 0, 0, 4.0, 5.0),
        (0, "a", -1, 0, 0.0, 10.0),
    ]
    table = spans.layer_table(recorded)
    assert table["a"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert table["b"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert table["c"]["self_s"] == 1.0


def test_recorder_attributes_spans_to_ops_and_parents():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    rec.begin_op(4)
    assert outer(1) == 4
    (i_id, i_name, i_parent, i_op, _, _), (o_id, o_name, o_parent, _, _, _) = rec.spans
    assert (i_name, o_name, i_parent, o_parent, i_op) == ("inner", "outer", o_id, -1, 4)


def test_clear_caches_empties_kzeta_memo_caches():
    from kzeta import characters
    from kzeta.arith import poly

    w.realcyc_run(61)
    assert characters.unit_group.cache_info().currsize > 0
    w.clear_caches()
    assert characters.unit_group.cache_info().currsize == 0
    assert poly.cyclotomic_polynomial_any.cache_info().currsize == 0


def test_layer_table_is_per_pass():
    recorded = [(0, "a", -1, 0, 0.0, 2.0), (1, "a", -1, 0, 5.0, 9.0)]
    assert spans.layer_table(recorded, passes=2)["a"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}


def test_probe_samples_when_stale_and_scales_to_the_reference():
    import hostspeed

    probe = hostspeed.Probe(every_s=10.0)
    first = probe.sample(3)
    assert len(probe.times) == 3 and 0 < first < 1
    assert probe.recent() == probe.times[-1] and len(probe.times) == 3  # still fresh
    probe.every_s = 0.0
    probe.recent()
    assert len(probe.times) == 4
    assert probe.factor() == pytest.approx(hostspeed.REF_S / statistics.median(probe.times))
