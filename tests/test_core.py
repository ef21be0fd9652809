import json
import math

import pytest

from nicperf.apps import PlacementReport
from nicperf.core import (
    CounterSnapshot,
    InvalidInputError,
    ThroughputSample,
    TrafficProfile,
    ZERO_COUNTERS,
    band_accuracy,
    mape,
)
from nicperf.mem_model import GbrHyperParams
from nicperf.predictor import PredictionResult
from nicperf.profiler import ProfilingConfig
from nicperf.simulator import SimulationResult


def test_mape_exact_prediction():
    assert mape([100.0], [100.0]) == 0.0


def test_mape_symmetric():
    assert mape([90.0, 110.0], [100.0, 100.0]) == pytest.approx(10.0)


def test_mape_hand_arithmetic():
    # |48-50|/50 + |52-50|/50 + |55-50|/50 = 0.04 + 0.04 + 0.10, mean 0.06
    assert mape([48.0, 52.0, 55.0], [50.0, 50.0, 50.0]) == pytest.approx(6.0)


def test_mape_scaling_invariance():
    pred = [90.0, 105.0, 99.0]
    act = [100.0, 100.0, 100.0]
    base = mape(pred, act)
    scaled = mape([p * 7.5 for p in pred], [a * 7.5 for a in act])
    assert scaled == pytest.approx(base)


def test_mape_rejects_bad_vectors():
    with pytest.raises(InvalidInputError):
        mape([], [])
    with pytest.raises(InvalidInputError):
        mape([1.0, 2.0], [1.0])
    with pytest.raises(InvalidInputError):
        mape([1.0], [0.0])


def test_band_accuracy_percent_semantics():
    assert band_accuracy([100.0], [100.0], 5.0) == 100.0
    # both 6% off, outside a 5% band
    assert band_accuracy([94.0, 106.0], [100.0, 100.0], 5.0) == 0.0
    # errors 4, 11, 0, 11 percent: two inside a 10% band
    assert band_accuracy(
        [96.0, 89.0, 100.0, 111.0], [100.0] * 4, 10.0
    ) == pytest.approx(50.0)


def test_band_accuracy_monotone_in_band():
    pred = [91.0, 96.0, 104.0, 120.0]
    act = [100.0] * 4
    accs = [band_accuracy(pred, act, b) for b in (2.0, 5.0, 10.0, 25.0)]
    assert accs == sorted(accs)


def test_band_accuracy_rejects_nonpositive_band():
    with pytest.raises(InvalidInputError):
        band_accuracy([1.0], [1.0], 0.0)


def test_traffic_profile_defaults_and_bounds():
    t = TrafficProfile()
    assert (t.flow_count, t.packet_size, t.mtbr) == (16000, 1500, 600.0)
    with pytest.raises(InvalidInputError):
        TrafficProfile(flow_count=0)
    with pytest.raises(InvalidInputError):
        TrafficProfile(packet_size=63)
    with pytest.raises(InvalidInputError):
        TrafficProfile(packet_size=1501)
    with pytest.raises(InvalidInputError):
        TrafficProfile(mtbr=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            TrafficProfile(mtbr=bad)
        with pytest.raises(InvalidInputError):
            TrafficProfile(flow_count=bad)


def test_traffic_profile_replace_and_roundtrip():
    t = TrafficProfile().replace(mtbr=42.0)
    assert t.mtbr == 42.0
    assert t.flow_count == 16000
    assert TrafficProfile.from_dict(t.to_dict()) == t
    # A missing key takes the field's default.
    assert TrafficProfile.from_dict({"mtbr": 42.0}) == t


def test_counter_snapshot_car_and_sum():
    a = CounterSnapshot(ipc=1.0, irt=2.0, l2crd=30.0, l2cwr=20.0,
                        memrd=5.0, memwr=1.0, wss=1e6)
    b = CounterSnapshot(l2crd=10.0, l2cwr=10.0, wss=2e6)
    assert a.car == 50.0
    s = a + b
    assert s.car == 70.0
    assert s.wss == 3e6
    assert s.ipc == 1.0
    assert (a + ZERO_COUNTERS) == a


def test_counter_snapshot_rejects_negative():
    with pytest.raises(InvalidInputError):
        CounterSnapshot(wss=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            CounterSnapshot(ipc=bad)


def test_counter_snapshot_roundtrip():
    a = CounterSnapshot(ipc=0.5, irt=2e9, l2crd=3e7, l2cwr=2e7,
                        memrd=1e6, memwr=4e5, wss=8e6)
    assert CounterSnapshot.from_dict(a.to_dict()) == a


def test_throughput_sample_roundtrip_and_validation():
    row = ThroughputSample(
        scenario_id="s-0",
        target_nf="nat",
        traffic=TrafficProfile(1000, 512, 0.0),
        competitor_counters=CounterSnapshot(l2crd=1e6, l2cwr=1e6, wss=4e6),
        observed_throughput=123456.0,
    )
    doc = row.to_dict()
    assert ThroughputSample.from_dict(doc) == row
    # Rows written before competitor_match_rate was dropped still load.
    assert ThroughputSample.from_dict({**doc, "competitor_match_rate": 0.0}) == row
    with pytest.raises(InvalidInputError, match="observed_throughput"):
        ThroughputSample.from_dict({**doc, "observed_throughput": "abc"})
    del doc["observed_throughput"]
    with pytest.raises(InvalidInputError, match="observed_throughput"):
        ThroughputSample.from_dict(doc)
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            ThroughputSample("s", "nat", TrafficProfile(), ZERO_COUNTERS, bad)


_ATTRS = [["flow_count", 1, 500000]]
_RESULT = {"throughput": 1.0, "t_solo": 2.0, "drops": {}, "stage_rates": {}}


@pytest.mark.parametrize("cls,doc,match", [
    (PlacementReport, {"nic_count": 1, "nf_count": 2, "violating_instances": "ab"},
     "PlacementReport.violating_instances: expected a list"),
    (ProfilingConfig, {"attributes": _ATTRS, "contention_resources": {"memory": 1}},
     "ProfilingConfig.contention_resources: expected a list"),
    (ProfilingConfig, {"attributes": "flow_count"},
     "ProfilingConfig.attributes: expected a list"),
    (ProfilingConfig, {"attributes": ["flow_count"]},
     "ProfilingConfig.attributes: expected a list"),
    (ProfilingConfig, {"attributes": [["flow_count", 1]]},
     "ProfilingConfig.attributes: expected 3 items, got 2"),
    (PredictionResult, {**_RESULT, "saturated": "yes"},
     "PredictionResult.saturated: expected true or false"),
], ids=["tuple-of-str", "tuple-of-enum", "tuple-given-str", "fixed-tuple-given-str",
        "fixed-tuple-short", "bool"])
def test_codec_rejects_wrong_shape_naming_class_and_key(cls, doc, match):
    with pytest.raises(InvalidInputError, match=match):
        cls.from_dict(doc)


_EMPTY_RESULT = {"per_nf_throughput": {}, "per_nf_counters": {},
                 "per_nf_stage_throughput": {}, "bottleneck": {}}
_BEYOND_64_BITS = "ProfilingConfig.seed: expected an integer of at most 64 bits"


@pytest.mark.parametrize("cls,doc,match", [
    (TrafficProfile, {"flow_count": 16000.7}, "TrafficProfile.flow_count: expected an integer"),
    (TrafficProfile, json.loads('{"flow_count": 1e400}'), "TrafficProfile.flow_count: expected an"),
    (TrafficProfile, {"flow_count": True}, "TrafficProfile.flow_count: expected an integer"),
    (TrafficProfile, {"mtbr": "600"}, "TrafficProfile.mtbr: expected a number"),
    (TrafficProfile, {"mtbr": 10**400}, "TrafficProfile.mtbr: int too large"),
    (ProfilingConfig, {"attributes": _ATTRS, "quota": 40.9}, "ProfilingConfig.quota: expected an"),
    (ProfilingConfig, {"attributes": _ATTRS, "seed": 2.5}, "ProfilingConfig.seed: expected an"),
    (ProfilingConfig, {"attributes": [[{"a": 1}, 0, 1]]},
     "ProfilingConfig.attributes: expected a string"),
    (SimulationResult, {**_EMPTY_RESULT, "bottleneck": [["nat", "memory"]]},
     "SimulationResult.bottleneck: expected an object"),
    # Beyond 64 bits an integer reaches arithmetic that can overflow.
    (ProfilingConfig, {"attributes": _ATTRS, "seed": 2**63}, _BEYOND_64_BITS),
    (ProfilingConfig, {"attributes": _ATTRS, "seed": -(2**63) - 1}, _BEYOND_64_BITS),
    (ProfilingConfig, {"attributes": _ATTRS, "seed": 10**400}, _BEYOND_64_BITS),
    (ProfilingConfig, {"attributes": _ATTRS, "seed": 1e300}, _BEYOND_64_BITS),
], ids=["int-given-fraction", "int-given-overflow", "int-given-bool", "float-given-string",
        "float-given-huge-int", "quota-fraction", "seed-fraction", "str-given-object",
        "dict-given-list", "int-above-64-bits", "int-below-64-bits", "int-given-huge-int",
        "int-given-huge-float"])
def test_codec_scalars_are_not_coerced(cls, doc, match):
    with pytest.raises(InvalidInputError, match=match):
        cls.from_dict(doc)


def test_codec_reads_integral_float_as_int():
    flows = TrafficProfile.from_dict({"flow_count": 16000.0}).flow_count
    assert flows == 16000 and type(flows) is int


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63), 9.2e18])
def test_codec_reads_64_bit_integers(seed):
    # GbrHyperParams.seed is a signed integer with no domain bound of its own.
    assert GbrHyperParams.from_dict({"seed": seed}).seed == seed
