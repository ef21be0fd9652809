import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import default_config
from nicperf.accel_model import AccelModelParams
from nicperf.apps import diagnose
from nicperf.catalog import SimulatorRunner, get_nf
from nicperf.core import (
    DEFAULT_TRAFFIC,
    CounterSnapshot,
    ExecutionPattern,
    InvalidInputError,
    ResourceKind,
    TrafficProfile,
)
from nicperf.predictor import (
    ContentionDescriptor,
    ExtrapolationError,
    NfPredictor,
    _Curve,
    _Footprint,
    _SoloTable,
    build,
)

REGEX_BENCH = AccelModelParams(queue_count=1, t0=10e-6, a=0.0,
                               resource=ResourceKind.REGEX_ACCEL)


def no_contention(bundle):
    return ContentionDescriptor(accel={k: () for k in bundle.accel_models})


def test_build_flowmonitor_shape(bundle_cache):
    p = bundle_cache("flowmonitor", 200)
    assert p.pattern is ExecutionPattern.PIPELINE
    assert set(p.resources) == {ResourceKind.MEMORY, ResourceKind.REGEX_ACCEL}
    params = p.accel_models[ResourceKind.REGEX_ACCEL]
    assert params.queue_count == 1
    assert params.t0 == pytest.approx(1.0e-6, rel=0.01)
    assert params.a == pytest.approx(0.003e-6, rel=0.01)
    assert p.metadata["dataset"]["samples_used"] <= 200


def test_build_detects_rtc_pattern(bundle_cache):
    assert bundle_cache("nids", 200).pattern is ExecutionPattern.RUN_TO_COMPLETION
    assert bundle_cache("ipcomp", 200).pattern is ExecutionPattern.RUN_TO_COMPLETION


def test_solo_prediction_matches_simulator(bundle_cache):
    p = bundle_cache("flowmonitor", 200)
    runner = SimulatorRunner(get_nf("flowmonitor"), seed=0)
    rng = np.random.default_rng(7)
    for _ in range(8):
        traffic = TrafficProfile(
            flow_count=int(rng.integers(1, 500_001)),
            packet_size=int(rng.integers(64, 1501)),
            mtbr=float(rng.uniform(0, 1100)),
        )
        truth = runner.solo_throughput(traffic)
        assert p.t_solo(traffic) == pytest.approx(truth, rel=0.01)


def test_zero_contention_predicts_solo(bundle_cache):
    p = bundle_cache("flowmonitor", 200)
    res = p.predict(DEFAULT_TRAFFIC, no_contention(p))
    assert res.throughput == pytest.approx(res.t_solo, rel=0.02)
    assert not res.saturated
    assert all(d >= 0.0 for d in res.drops.values())


def test_missing_accelerator_descriptor_rejected(bundle_cache):
    p = bundle_cache("flowmonitor", 200)
    with pytest.raises(InvalidInputError, match="regex_accel"):
        p.predict(DEFAULT_TRAFFIC, ContentionDescriptor())


def test_out_of_domain_traffic_rejected(bundle_cache):
    p = bundle_cache("flowmonitor", 200)
    with pytest.raises(ExtrapolationError):
        p.t_solo(TrafficProfile(flow_count=600_000))
    with pytest.raises(ExtrapolationError):
        p.predict(TrafficProfile(mtbr=2000.0), no_contention(p))


def test_prediction_bounded_by_solo(bundle_cache):
    p = bundle_cache("flowmonitor", 200)
    heavy = ContentionDescriptor(
        counters=CounterSnapshot(l2crd=200e6, l2cwr=130e6, memrd=80e6,
                                 memwr=40e6, wss=12 * 2**20),
        accel={ResourceKind.REGEX_ACCEL: ((REGEX_BENCH, 600.0, math.inf),)},
    )
    res = p.predict(DEFAULT_TRAFFIC, heavy)
    assert 0.0 <= res.throughput <= res.t_solo
    assert res.stage_rates[ResourceKind.MEMORY] < p.t_solo(DEFAULT_TRAFFIC)


def test_bundle_roundtrip_byte_identical(bundle_cache):
    p = bundle_cache("flowmonitor", 200)
    text = p.to_json()
    again = NfPredictor.from_json(text)
    assert again.to_json() == text
    res_a = p.predict(DEFAULT_TRAFFIC, no_contention(p))
    res_b = again.predict(DEFAULT_TRAFFIC, no_contention(again))
    assert res_a.throughput == res_b.throughput


def _bundle_doc(bundle_cache) -> dict:
    return json.loads(bundle_cache("flowmonitor", 200).to_json())


@pytest.mark.parametrize("path", [
    ("nf",), ("pattern",), ("solo_table",), ("footprint",),
    ("solo_table", "base_rate"), ("solo_table", "axes"), ("solo_table", "bounds"),
    ("solo_table", "axes", "flow_count", "x"),
    ("footprint", "car_per_pkt"), ("footprint", "mem_frac"), ("footprint", "wss_axis"),
    ("footprint", "wss_axis", "y"), ("footprint", "miss_curve", "x"),
    ("mem_model", "trees"), ("accel_models", "regex_accel", "t0"),
], ids="/".join)
def test_bundle_missing_key_rejected(bundle_cache, path):
    doc = _bundle_doc(bundle_cache)
    *parents, key = path
    part = doc
    for name in parents:
        part = part[name]
    del part[key]
    with pytest.raises(InvalidInputError, match=f"missing key '{key}'"):
        NfPredictor.from_dict(doc)


@pytest.mark.parametrize("field,value,match", [
    ("pattern", "bogus", "pattern: 'bogus' is not a valid ExecutionPattern"),
    ("pattern", None, "pattern: None is not a valid ExecutionPattern"),
    ("accel_models", "memory", "unknown resource 'memory'"),
    ("accel_models", "crypto_accel",
     "accel_models: 'crypto_accel' is not a valid ResourceKind"),
], ids=["pattern-bogus", "pattern-null", "accel-memory", "accel-unknown"])
def test_bundle_unknown_value_rejected(bundle_cache, field, value, match):
    doc = _bundle_doc(bundle_cache)
    if field == "accel_models":
        doc[field] = {value: doc[field]["regex_accel"]}
    else:
        doc[field] = value
    with pytest.raises(InvalidInputError, match=match):
        NfPredictor.from_dict(doc)


def _set(doc: dict, path: tuple, value) -> None:
    *parents, key = path
    for name in parents:
        doc = doc[name]
    doc[key] = value


_AXIS = ("solo_table", "axes", "flow_count")
_MISS = ("footprint", "miss_curve")
_BAD_VALUES = [
    (("accel_models",), [], "expected an object"),
    (("solo_table", "bounds", "flow_count"), [1], "expected 2 items, got 1"),
    (("solo_table", "bounds", "flow_count"), "15", "expected a list"),
    (("solo_table", "base_rate"), math.nan, "_SoloTable.base_rate: expected a number"),
    (("solo_table", "base_rate"), "saturating", "finite and positive"),
    (("solo_table", "base_rate"), 0.0, "finite and positive"),
    (("solo_table", "axes"), [], "_SoloTable.axes"),
    ((*_AXIS, "y", 0), math.nan, "_Curve.y: expected a number"),
    ((*_AXIS, "x", -1), "saturating", "finite"),
    ((*_AXIS, "y"), [1.0, 2.0], "equal non-zero lengths"),
    ((*_AXIS, "x"), "15", "expected a list"),
    (_AXIS, {"x": [], "y": []}, "equal non-zero lengths"),
    (("footprint", "wss_axis", "y", 0), "saturating", "finite"),
    ((*_MISS, "y", 0), math.nan, "_Curve.y: expected a number"),
    ((*_MISS, "x"), [2.0, 1.0], "equal non-zero lengths"),
    (_MISS, {"x": [2.0, 1.0], "y": [0.1, 0.2]}, "ascending"),
]


@pytest.mark.parametrize("path,value,match", _BAD_VALUES, ids=[
    f"{'/'.join(map(str, path))}={json.dumps(value)}" for path, value, _ in _BAD_VALUES])
def test_bundle_bad_value_rejected(bundle_cache, path, value, match):
    doc = _bundle_doc(bundle_cache)
    _set(doc, path, value)
    with pytest.raises(InvalidInputError, match=match):
        NfPredictor.from_dict(doc)


_FLOAT = st.floats(-1e12, 1e12)


@st.composite
def _curves(draw):
    xs = sorted(draw(st.lists(_FLOAT, min_size=1, max_size=12)))
    ys = draw(st.lists(_FLOAT, min_size=len(xs), max_size=len(xs)))
    return _Curve(xs, ys)


_NAMES = st.sampled_from(["flow_count", "packet_size", "mtbr"])
_SOLO_TABLES = st.builds(
    _SoloTable, base_rate=st.floats(1e-6, 1e9),
    axes=st.dictionaries(_NAMES, _curves()),
    bounds=st.dictionaries(_NAMES, st.tuples(_FLOAT, _FLOAT)),
)
_FOOTPRINTS = st.builds(
    _Footprint, car_per_pkt=_FLOAT, irt_per_pkt=_FLOAT, mem_frac=_FLOAT,
    wss_axis=_curves(), miss_curve=st.none() | _curves(),
)


def _wire_roundtrip(part) -> None:
    text = json.dumps(part.to_dict(), sort_keys=True)
    again = type(part).from_dict(json.loads(text))
    assert json.dumps(again.to_dict(), sort_keys=True) == text


@settings(max_examples=60, deadline=None)
@given(part=st.one_of(_SOLO_TABLES, _FOOTPRINTS))
def test_bundle_part_wire_roundtrip(part):
    _wire_roundtrip(part)


def test_descriptor_roundtrip_with_saturating_rate():
    desc = ContentionDescriptor(
        counters=CounterSnapshot(l2crd=1e6, wss=3e6),
        accel={ResourceKind.REGEX_ACCEL: ((REGEX_BENCH, 600.0, math.inf),
                                          (REGEX_BENCH, 100.0, 5e4))},
    )
    again = ContentionDescriptor.from_dict(desc.to_dict())
    assert again == desc
    assert math.isinf(again.accel[ResourceKind.REGEX_ACCEL][0][2])


@pytest.mark.parametrize("attr,rate", [
    (600.0, math.nan), (600.0, -1.0), (math.nan, 5e4), (math.inf, 5e4),
])
def test_descriptor_rejects_nan_and_negative(attr, rate):
    with pytest.raises(InvalidInputError):
        ContentionDescriptor(accel={ResourceKind.REGEX_ACCEL: ((REGEX_BENCH, attr, rate),)})


def test_memory_only_bundle_has_no_accel_models(bundle_cache):
    p = bundle_cache("iptunnel", 200)
    assert p.accel_models == {}
    assert p.resources == (ResourceKind.MEMORY,)
    res = p.predict(DEFAULT_TRAFFIC, ContentionDescriptor())
    assert res.throughput == pytest.approx(res.t_solo, rel=0.02)


def test_contended_memory_prediction_tracks_oracle(bundle_cache):
    p = bundle_cache("iptunnel", 200)
    runner = SimulatorRunner(get_nf("iptunnel"), seed=0)
    rng = np.random.default_rng(3)
    for i in range(6):
        traffic = TrafficProfile(flow_count=int(rng.integers(1, 500_001)))
        levels = {ResourceKind.MEMORY: (float(rng.uniform()),
                                        float(rng.uniform()))}
        row = runner.sample(f"t-{i}", traffic, levels)
        desc = ContentionDescriptor(counters=row.competitor_counters)
        pred = p.predict(traffic, desc).throughput
        assert pred == pytest.approx(row.observed_throughput, rel=0.10)


_TRAFFIC = st.builds(
    TrafficProfile,
    flow_count=st.integers(1, 500_000),
    packet_size=st.integers(64, 1500),
    mtbr=st.floats(0.0, 1100.0),
)
_COUNTERS = st.builds(
    CounterSnapshot, ipc=st.floats(0.0, 10.0), irt=st.floats(0.0, 1e10),
    l2crd=st.floats(0.0, 1e9), l2cwr=st.floats(0.0, 1e9),
    memrd=st.floats(0.0, 1e9), memwr=st.floats(0.0, 1e9), wss=st.floats(0.0, 64e6),
)
_REGEX_COMPETITOR = st.tuples(
    st.builds(AccelModelParams, queue_count=st.integers(1, 4),
              t0=st.floats(1e-7, 1e-4), a=st.floats(0.0, 1e-8),
              resource=st.just(ResourceKind.REGEX_ACCEL)),
    st.floats(0.0, 1100.0),
    st.one_of(st.floats(0.0, 1e7), st.just(math.inf)),
)


_ACCEL_COMPETITOR = st.tuples(
    st.builds(AccelModelParams, queue_count=st.integers(1, 4),
              t0=st.floats(1e-7, 1e-4), a=st.floats(0.0, 1e-8),
              resource=st.sampled_from([ResourceKind.REGEX_ACCEL,
                                        ResourceKind.COMPRESSION_ACCEL]),
              fit_r2=st.none() | st.floats(0.0, 1.0)),
    st.floats(-1e6, 1e6),
    st.one_of(st.floats(0.0, 1e7), st.just(math.inf)),
)


@settings(max_examples=60, deadline=None)
@given(counters=_COUNTERS, accel=st.dictionaries(
    st.sampled_from(list(ResourceKind)), st.lists(_ACCEL_COMPETITOR, max_size=3)))
def test_descriptor_wire_roundtrip(counters, accel):
    desc = ContentionDescriptor(counters=counters, accel=accel)
    _wire_roundtrip(desc)
    assert ContentionDescriptor.from_dict(json.loads(json.dumps(desc.to_dict()))) == desc


@pytest.mark.parametrize("nf", ["nat", "flowmonitor"])
@settings(max_examples=40, deadline=None)
@given(traffic=_TRAFFIC, counters=_COUNTERS,
       competitors=st.lists(_REGEX_COMPETITOR, max_size=3))
def test_prediction_bounded_for_any_valid_descriptor(bundle_cache, nf, traffic,
                                                     counters, competitors):
    p = bundle_cache(nf, 200)
    accel = {kind: tuple(competitors) for kind in p.accel_models}
    desc = ContentionDescriptor(counters=counters, accel=accel)
    res = p.predict(traffic, desc)
    assert res.t_solo == p.t_solo(traffic)
    assert 0.0 <= res.throughput <= res.t_solo
    if len(p.resources) > 1:
        rates = res.stage_rates
        assert diagnose(p, traffic, desc) is min(rates, key=lambda k: (rates[k], k.value))


def test_build_frees_its_runner():
    """No reference cycle made during a build keeps the runner, and its
    memo of every co-run, alive after the build returns."""
    from conftest import default_config

    runner = SimulatorRunner(get_nf("flowmonitor"))
    ref = weakref.ref(runner)
    gc.disable()
    try:
        build("flowmonitor", default_config(quota=40), runner)
        del runner
        assert ref() is None
    finally:
        gc.enable()
