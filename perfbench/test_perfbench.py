"""Tests of the benchmark's own helpers: python3 -m pytest -q perfbench"""

import inputs
import stats
from tracer import check_spans, self_times


def test_tail_takes_highest_percentile_with_ten_items_beyond():
    values = list(range(1, 1001))  # 1000 items: p99 has 10 above, p99.5 has 5
    assert stats.tail(values) == ("p99", 990)
    assert stats.tail(list(range(1, 1000)))[0] == "p95"  # p99 would leave 9
    assert stats.tail(list(range(1, 21))) == ("p50", 10)
    assert stats.tail(list(range(1, 20))) == ("max", 19)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert stats.tail(values) == stats.tail(sorted(values))


def _spans():
    # job [0, 100) > a [10, 60) > b [20, 30), c [40, 55); d [70, 90)
    start = [0, 10, 20, 40, 70]
    end = [100, 60, 30, 55, 90]
    parent = [-1, 0, 1, 1, 0]
    return start, end, parent


def test_self_time_subtracts_direct_children_only():
    start, end, parent = _spans()
    assert self_times(start, end, parent) == [30, 25, 10, 15, 20]
    assert sum(self_times(start, end, parent)) == end[0] - start[0]
    assert check_spans(start, end, parent) == []


def test_check_spans_flags_strays():
    start, end, parent = _spans()
    assert check_spans(start, end, [-1, 0, 1, 1, -1])  # second root
    assert check_spans(start, [100, 60, 30, 65, 90], parent)  # c outlives a


def test_generator_is_deterministic_per_seed():
    a = inputs.random_strings(1, "fuzz-decide", 8, 50, 1.3)
    assert a == inputs.random_strings(1, "fuzz-decide", 8, 50, 1.3)
    assert a != inputs.random_strings(2, "fuzz-decide", 8, 50, 1.3)
    assert a != inputs.random_strings(1, "oracle-random", 8, 50, 1.3)
    assert all(1 <= len(s) <= inputs.MAX_LEN for s in a)
    assert all(0 <= m < 1 << 64 for s in a for m in s)


def _mask(h, edges):
    return sum(1 << ((i - 1) * h + (j - 1)) for i, j in edges)


def test_oracle_on_hand_built_strings():
    h = 3
    assert inputs.live(h, [])
    assert inputs.live(h, [_mask(h, [(1, 2)]), _mask(h, [(2, 3)])])
    assert not inputs.live(h, [_mask(h, [(1, 2)]), _mask(h, [(3, 1)])])
    assert not inputs.live(h, [_mask(h, [(1, 1)]), _mask(h, [])])
    # Two paths that each break, but a third that survives the whole way.
    z = [_mask(h, [(1, 1), (2, 3)]), _mask(h, [(1, 2), (3, 3)]), _mask(h, [(2, 1)])]
    assert inputs.live(h, z)
    assert not inputs.live(h, z[:2] + [_mask(h, [(1, 1)])])


def test_masks_from_json_matches_edge_layout():
    obj = {"h": 3, "symbols": [[[1, 2]], [[2, 3], [3, 1]]]}
    assert inputs.masks_from_json(obj) == (3, [_mask(3, [(1, 2)]), _mask(3, [(2, 3), (3, 1)])])


def test_metric_names_match_benchmark_json():
    import json
    import os

    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rep = {
        "setup_s": 0.1, "cpu_s": 1.0, "wall_s": 1.1, "peak_rss_mb": 30.0,
        "item_ms": [float(i) for i in range(1, 41)], "check": {"attempted": 40, "failed": 0},
    }
    metrics, _ = run.end_to_end([rep], [rep, rep], "string", "string")
    assert [(k, u) for k, (_, u) in metrics.items()] == [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert metrics["item_p50_ms"][0] == 20.0 and metrics["item_tail_ms"][0] == 30.0  # p75

    summary = {"calls": {}, "self_s": {}, "counters": {}, "faults": []}
    metrics, _, problems = run.per_layer([rep], [dict(rep, trace=summary)] * 2)
    assert problems == []
    assert [(k, u) for k, (_, u) in metrics.items()] == [(m["name"], m["unit"]) for m in bench["per_layer"]]


def test_random_string_symbols_match_from_mask():
    import gc
    import os
    import sys

    import run
    import workloads

    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from owllab.owl import OwlString, OwlSymbol

    for cls in (workloads.FuzzDecide, workloads.OracleRandom):
        w = cls()
        w.count = 20
        try:
            data = w.inputs(3)
        finally:
            gc.unfreeze()
        raw = inputs.random_strings(3, w.name, w.h, 20, w.density)
        assert data["strings"] == [OwlString(w.h, tuple(OwlSymbol.from_mask(w.h, m) for m in s)) for s in raw]
        assert data["live"] == [inputs.live(w.h, s) for s in raw]
