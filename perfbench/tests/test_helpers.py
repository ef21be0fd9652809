"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
from pathlib import Path

import pytest

from common import (
    car_factor,
    memory_rate,
    own_wss,
    percentile,
    rr_equilibrium,
    run_rounds,
    samples_beyond,
    tail_percentile,
    wss_factor,
)
from run import _per_layer
from tracer import Point, Tracer, instrumented, layer_metrics, summarize

MIB = 2**20

# --------------------------------------------------------------------------
# Closed-form rates against hand-computed values
# --------------------------------------------------------------------------


def test_own_wss_is_linear_then_capped():
    assert own_wss(1e6, 300.0, 64e6, 16000) == 5.8e6
    assert own_wss(1e6, 300.0, 64e6, 500_000) == 64e6


def test_wss_factor_ramp():
    llc, ramp = 6 * MIB, 6 * MIB
    assert wss_factor(5.8e6, llc, ramp, 0.55) == 1.0
    assert wss_factor(llc, llc, ramp, 0.55) == 1.0
    # Half-way up the ramp: 1 - 0.45 * 0.5.
    assert wss_factor(9 * MIB, llc, ramp, 0.55) == pytest.approx(0.775)
    assert wss_factor(100 * MIB, llc, ramp, 0.55) == pytest.approx(0.55)


def test_car_factor_knee_and_floor():
    assert car_factor(50e6, 100e6, 250e6, 0.6) == 1.0
    # Half-way between knee and saturation: 1 - 0.4 * 0.5.
    assert car_factor(175e6, 100e6, 250e6, 0.6) == pytest.approx(0.8)
    assert car_factor(300e6, 100e6, 250e6, 0.6) == 0.6


def test_memory_rate_of_nat_at_default_traffic():
    # nat: 2.2us per packet; 16000 flows * 300 B + 1 MB fits the 6 MiB LLC.
    wss = own_wss(1e6, 300.0, 64e6, 16000)
    rate = memory_rate(2.2e-6, wss_factor(wss, 6 * MIB, 6 * MIB, 0.55), 1.0)
    assert rate == pytest.approx(454545.4545, rel=1e-9)


def test_rr_equilibrium_hand_computed():
    # n = (1, 2), t = (1us, 2us): sum n^2 t = 1us + 8us = 9us.
    t1, t2 = rr_equilibrium([1, 2], [1e-6, 2e-6])
    assert t1 == pytest.approx(1 / 9e-6)
    assert t2 == pytest.approx(2 / 9e-6)
    # A single NF gets its solo rate 1 / (n t).
    assert rr_equilibrium([2], [5e-6]) == [pytest.approx(1e5)]


# --------------------------------------------------------------------------
# Percentile rule
# --------------------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile(values, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert tail_percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        tail_percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        tail_percentile(list(range(999)), 99)


def test_run_rounds_runs_at_least_min_rounds():
    calls = []
    assert run_rounds(0.0, calls.append, min_rounds=2) == 2
    assert calls == [0, 1]


# --------------------------------------------------------------------------
# Span -> metric derivation
# --------------------------------------------------------------------------


def span(sid, name, parent, start, end, attrs=None):
    return [sid, name, parent, start, end, attrs]


def test_self_time_subtracts_direct_children():
    spans = [
        span(0, "predictor.build", None, 0.0, 10.0),
        span(1, "mem_model.train", 0, 1.0, 4.0),
        span(2, "simulator.scenario", 0, 5.0, 6.0),
        span(3, "simulator.rr", 2, 5.2, 5.7),
    ]
    stats = summarize(spans)
    assert stats["predictor.build"].self_s == pytest.approx(6.0)
    assert stats["predictor.build"].total_s == pytest.approx(10.0)
    assert stats["simulator.scenario"].self_s == pytest.approx(0.5)
    assert stats["mem_model.train"].self_s == pytest.approx(3.0)


def test_layer_metrics_counts_and_ratios():
    spans = [
        span(0, "catalog.runner", None, 0, 1),
        span(1, "simulator.scenario", 0, 0, 1),
        span(2, "simulator.rr", 1, 0, 0.5),
        span(3, "simulator.rr", 1, 0.5, 1),
        span(4, "catalog.runner", None, 1, 1.1),  # memo hit: no scenario
        span(5, "apps.predict_group", None, 2, 3),
        span(6, "predictor.predict", 5, 2, 2.5),
        span(7, "predictor.predict", 5, 2.5, 3),
        span(8, "apps.optimum", None, 3, 5),
        span(9, "simulator.scenario", 8, 3, 4),
        span(10, "profiler.adaptive", None, 5, 6, {"samples": 42}),
        span(11, "mem_model.train", None, 6, 7, {"rows": 40}),
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans).items()}
    assert m["catalog.runner.requests"] == 2
    assert m["catalog.runner.runs"] == 1
    assert m["catalog.runner.memo_hit_pct"] == 50.0
    assert m["simulator.scenario.calls"] == 2
    assert m["simulator.rr.per_scenario"] == 1.0
    assert m["apps.predict_group.calls"] == 1
    assert m["apps.predict_group.predicts_per_call"] == 2.0
    assert m["apps.oracle.scenarios"] == 1
    assert m["profiler.samples"] == 42
    assert m["mem_model.train.rows"] == 40
    assert m["apps.optimum.self_s"] == pytest.approx(1.0)
    assert "mem_model.train.self_s" not in m  # calls no wrapped entry point
    assert m["predictor.build.s"] == 0.0  # layer not reached: still reported
    assert m["predictor.build.calls"] == 0


def test_layer_metrics_of_no_spans_are_zero():
    m = layer_metrics([])
    assert m and all(v == 0 for v, _ in m.values())


def test_every_derivable_metric_is_declared():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in doc["per_layer"]}
    names = [p.name for p in __import__("tracer").LAYER_POINTS]
    # One span of every layer, each with a child, covers every derivation.
    spans = []
    for i, name in enumerate(names):
        spans.append(span(2 * i, name, None, i, i + 1,
                          {"samples": 1} if name == "profiler.adaptive"
                          else {"rows": 1} if name == "mem_model.train" else None))
        spans.append(span(2 * i + 1, "simulator.scenario", 2 * i, i, i + 0.5))
    spans.append(span(999, "predictor.predict", 2 * names.index("apps.predict_group"), 0, 0))
    derived = set(layer_metrics(spans)) | {"host.calib_s", "trace.overhead_pct"}
    assert derived == declared
    # Every workload reports every metric, reached or not.
    assert set(layer_metrics([])) | {"host.calib_s", "trace.overhead_pct"} == declared


def test_per_layer_takes_counts_once_and_flags_drift():
    setup = [span(0, "predictor.build", None, 0, 1)]
    seg = lambda dur: [span(1, "simulator.scenario", None, 0, dur)]  # noqa: E731
    errors = []
    out = _per_layer([("setup", setup), ("r1", seg(1.0)), ("r3", seg(3.0))],
                     [2.0, 2.2], [2.0], [0.5, 0.7], errors)
    assert errors == []
    assert out["simulator.scenario.calls"] == 1
    assert out["simulator.scenario.s"] == 2.0  # median of the traced rounds
    assert out["predictor.build.calls"] == 1
    assert out["host.calib_s"] == pytest.approx(0.6)
    assert out["trace.overhead_pct"] == pytest.approx(5.0)

    drifting = [("setup", []), ("r1", seg(1.0)), ("r3", seg(1.0) + seg(1.0))]
    _per_layer(drifting, [1.0], [1.0], [1.0], errors)
    assert errors and "simulator.scenario.calls" in errors[0]


# --------------------------------------------------------------------------
# Wrapping the program's entry points
# --------------------------------------------------------------------------


def test_instrumented_wraps_every_binding_and_restores():
    import nicperf.catalog
    import nicperf.simulator
    from nicperf.predictor import NfPredictor

    original = nicperf.simulator.run_scenario
    original_from_json = NfPredictor.__dict__["from_json"]
    tracer = Tracer()
    points = (Point("simulator.scenario", "nicperf.simulator", "run_scenario"),
              Point("predictor.from_json", "nicperf.predictor", "NfPredictor.from_json"))
    with instrumented(tracer, points):
        # The catalog holds its own binding from ``from .simulator import``.
        assert nicperf.catalog.run_scenario is nicperf.simulator.run_scenario
        assert nicperf.catalog.run_scenario is not original
        runner = nicperf.catalog.SimulatorRunner(nicperf.catalog.get_nf("nat"))
        runner.solo_throughput(nicperf.core.DEFAULT_TRAFFIC)
        with pytest.raises(Exception):
            NfPredictor.from_json("{}")
    assert nicperf.simulator.run_scenario is original
    assert nicperf.catalog.run_scenario is original
    assert NfPredictor.__dict__["from_json"] is original_from_json
    names = [s[1] for s in tracer.take()]
    assert names == ["simulator.scenario", "predictor.from_json"]


def test_tracer_records_parent_and_end_on_error():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        raise KeyError("x")

    def outer():
        with pytest.raises(KeyError):
            tracer.wrap(inner, "inner")()

    tracer.wrap(outer, "outer")()
    (o, i) = tracer.take()
    assert (o[1], o[2], i[1], i[2]) == ("outer", None, "inner", o[0])
    assert i[4] is not None and math.isfinite(i[4])
    assert o[3] < i[3] < i[4] < o[4]
