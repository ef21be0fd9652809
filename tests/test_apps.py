import dataclasses
import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicperf import apps
from nicperf.apps import (
    NF_SLOTS,
    Fleet,
    NfInstance,
    PlacementStrategy,
    SlaSpec,
    TrivialDiagnosisNotice,
    diagnose,
    evaluate_placement,
    nic_lower_bound,
    optimal_nic_count,
    place,
    place_sequence,
    predict_group,
)
from nicperf.core import (
    DEFAULT_TRAFFIC,
    ZERO_COUNTERS,
    InvalidInputError,
    ResourceKind,
    TrafficProfile,
)
from nicperf.predictor import ACCEL_ATTRIBUTE, ContentionDescriptor
from nicperf.simulator import ConvergenceError


def light_instance(bundle_cache, i, name="iptunnel", max_drop=0.5):
    # Small flow count keeps the working set tiny: easy to co-locate.
    return NfInstance(
        instance_id=f"{name}-{i}",
        predictor=bundle_cache(name),
        traffic=TrafficProfile(flow_count=100),
        sla=SlaSpec(max_drop),
    )


def test_sla_spec_validation_and_floor():
    with pytest.raises(InvalidInputError):
        SlaSpec(0.0)
    with pytest.raises(InvalidInputError):
        SlaSpec(1.5)
    assert SlaSpec(0.2).floor(1000.0) == pytest.approx(800.0)


def test_monopolization_provisions_per_arrival(bundle_cache):
    arrivals = [light_instance(bundle_cache, i) for i in range(3)]
    fleet = place_sequence(arrivals, PlacementStrategy.MONOPOLIZATION)
    assert len(fleet.nics) == 3
    assert all(len(nic.residents) == 1 for nic in fleet.nics)


def test_greedy_prefers_most_free_slots(bundle_cache):
    fleet = Fleet()
    a, b, c = (light_instance(bundle_cache, i) for i in range(3))
    assert place(fleet, a, PlacementStrategy.GREEDY) == 0
    assert place(fleet, b, PlacementStrategy.GREEDY) == 0
    # Force an emptier NIC into the fleet; greedy must pick it.
    fleet.provision()
    assert place(fleet, c, PlacementStrategy.GREEDY) == 1


def test_greedy_provisions_when_full(bundle_cache):
    arrivals = [light_instance(bundle_cache, i) for i in range(NF_SLOTS + 1)]
    fleet = place_sequence(arrivals, PlacementStrategy.GREEDY)
    assert len(fleet.nics) == 2
    assert len(fleet.nics[0].residents) == NF_SLOTS


def test_contention_aware_packs_compatible_instances(bundle_cache):
    arrivals = [light_instance(bundle_cache, i) for i in range(4)]
    fleet = place_sequence(arrivals, PlacementStrategy.CONTENTION_AWARE)
    assert len(fleet.nics) == 1
    assert not evaluate_placement(fleet).violating_instances


def test_contention_aware_separates_tight_slas(bundle_cache):
    # Flow tables sitting just below the LLC push each other past it once
    # co-located; a 1% tolerated drop cannot absorb that.
    arrivals = [
        NfInstance(f"fs-{i}", bundle_cache("flowstats"),
                   TrafficProfile(flow_count=8_000), SlaSpec(0.01))
        for i in range(3)
    ]
    fleet = place_sequence(arrivals, PlacementStrategy.CONTENTION_AWARE)
    assert len(fleet.nics) == 3


def test_predict_group_consistency(bundle_cache):
    insts = [light_instance(bundle_cache, i) for i in range(3)]
    results = predict_group(insts)
    assert set(results) == {i.instance_id for i in insts}
    solo = insts[0].predictor.t_solo(insts[0].traffic)
    for res in results.values():
        assert 0.0 < res.throughput <= res.t_solo
    # More competitors means no more throughput.
    two = predict_group(insts[:2])[insts[0].instance_id].throughput
    three = results[insts[0].instance_id].throughput
    assert three <= two + 1e-6 * solo
    with pytest.raises(InvalidInputError):
        predict_group([insts[0], insts[0]])
    assert predict_group([]) == {}


def _reference_descriptor(target, others, throughputs, feeds, wss):
    """The target's descriptor, rebuilt from scratch for one iteration."""
    total_wss = sum(wss[inst.instance_id] for inst in [target] + others)
    counters = ZERO_COUNTERS
    for other in others:
        footprint = other.predictor.footprint
        counters = counters + footprint.counters(
            wss[other.instance_id], throughputs[other.instance_id],
            footprint.miss_fraction(total_wss),
        )
    accel = {}
    for kind in target.predictor.accel_models:
        comps = []
        for other in others:
            params = other.predictor.accel_models.get(kind)
            if params is None:
                continue
            attr = other.traffic.attribute(ACCEL_ATTRIBUTE[kind])
            comps.append((params, attr, feeds[other.instance_id]))
        accel[kind] = tuple(comps)
    return ContentionDescriptor(counters=counters, accel=accel)


def _reference_predict_group(instances):
    """predict_group with every competitor input recomputed in every
    iteration."""
    thr = {inst.instance_id: inst.predictor.t_solo(inst.traffic)
           for inst in instances}
    feeds = dict(thr)
    wss = {inst.instance_id: inst.predictor.footprint.wss(inst.traffic)
           for inst in instances}
    results = {}
    for _ in range(apps._GROUP_MAX_ITER):
        worst = 0.0
        for inst in instances:
            others = [o for o in instances if o.instance_id != inst.instance_id]
            desc = _reference_descriptor(inst, others, thr, feeds, wss)
            res = inst.predictor.predict(inst.traffic, desc)
            results[inst.instance_id] = res
            old = thr[inst.instance_id]
            new = (1 - apps._GROUP_DAMPING) * old + apps._GROUP_DAMPING * res.throughput
            thr[inst.instance_id] = new
            feeds[inst.instance_id] = res.stage_rates.get(ResourceKind.MEMORY, new)
            if old > 0:
                worst = max(worst, abs(new - old) / old)
        if worst < apps._GROUP_TOL:
            return results
    raise ConvergenceError("reference fixed point did not converge")


#: Bundles for drawn groups: memory-only NFs, and NFs on the regex and the
#: compression accelerator.
_GROUP_BUNDLES = (("iptunnel", 800), ("flowstats", 800), ("flowmonitor", 800),
                  ("ipcomp", 200))


@st.composite
def _group(draw, bundle_cache):
    """1-4 instances, with traffic inside each bundle's profiled bounds."""
    picks = draw(st.lists(st.sampled_from(_GROUP_BUNDLES), min_size=1, max_size=4))
    group = []
    for k, (name, quota) in enumerate(picks):
        predictor = bundle_cache(name, quota)
        values = {}
        for attr, (lo, hi) in predictor.solo_table.bounds.items():
            if attr == "mtbr":
                values[attr] = draw(st.floats(lo, hi))
            else:
                values[attr] = draw(st.integers(math.ceil(lo), math.floor(hi)))
        group.append(NfInstance(f"{name}-{k}", predictor,
                                TrafficProfile(**values), SlaSpec(0.5)))
    return group


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_predict_group_matches_reference(bundle_cache, data):
    group = data.draw(_group(bundle_cache))
    try:
        want = _reference_predict_group(group)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            predict_group(group)
        return
    got = predict_group(group)
    assert list(got) == list(want)
    for key, res in got.items():
        for field in dataclasses.fields(res):
            assert getattr(res, field.name) == getattr(want[key], field.name), \
                (key, field.name)


def test_predict_group_checks_each_competitor_counter(bundle_cache):
    """A competitor whose footprint gives a negative counter is rejected,
    even when another competitor's counters would hide it in the sum."""
    good = bundle_cache("iptunnel")
    bad = dataclasses.replace(
        good, footprint=dataclasses.replace(good.footprint, car_per_pkt=-1.0))
    traffic = TrafficProfile(flow_count=100)
    group = [NfInstance("target", good, traffic, SlaSpec(0.5)),
             NfInstance("bad", bad, traffic, SlaSpec(0.5)),
             NfInstance("heavy", good, traffic, SlaSpec(0.5))]
    # The sum of the two competitors' cache references is positive.
    assert good.footprint.car_per_pkt > 1.0
    with pytest.raises(InvalidInputError, match="counter l2crd"):
        predict_group(group)


def test_unconverged_group_does_not_meet_slas(bundle_cache, monkeypatch):
    # Two near-LLC flow tables with a loose SLA share a NIC, but not when
    # their group prediction cannot converge.
    arrivals = [
        NfInstance(f"fs-{i}", bundle_cache("flowstats"),
                   TrafficProfile(flow_count=8_000), SlaSpec(0.5))
        for i in range(2)
    ]
    aware = PlacementStrategy.CONTENTION_AWARE
    assert len(place_sequence(arrivals, aware).nics) == 1
    monkeypatch.setattr("nicperf.apps._GROUP_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        predict_group(arrivals)
    assert len(place_sequence(arrivals, aware).nics) == 2


def test_monopolized_fleet_has_no_violations(bundle_cache):
    arrivals = [light_instance(bundle_cache, i, max_drop=0.05)
                for i in range(2)]
    fleet = place_sequence(arrivals, PlacementStrategy.MONOPOLIZATION)
    report = evaluate_placement(fleet)
    assert report.violating_instances == ()
    assert report.violation_pct == 0.0
    assert report.nic_count == 2


def test_overpacked_fleet_violates(bundle_cache):
    # Greedy stacks four near-LLC flow tables with near-zero drop budgets.
    arrivals = [
        NfInstance(f"fs-{i}", bundle_cache("flowstats"),
                   TrafficProfile(flow_count=8_000), SlaSpec(0.02))
        for i in range(4)
    ]
    fleet = place_sequence(arrivals, PlacementStrategy.GREEDY)
    assert len(fleet.nics) == 1
    assert len(evaluate_placement(fleet).violating_instances) > 0


def test_optimal_nic_count_and_wastage(bundle_cache):
    arrivals = [light_instance(bundle_cache, i, max_drop=0.5)
                for i in range(4)]
    opt = optimal_nic_count(arrivals)
    assert opt == 1
    fleet = place_sequence(arrivals, PlacementStrategy.CONTENTION_AWARE)
    report = evaluate_placement(fleet)
    assert report.wastage_pct(opt) == 0.0
    with pytest.raises(InvalidInputError):
        optimal_nic_count(arrivals * 4)  # 16 > the exhaustive cap
    assert optimal_nic_count([]) == 0


def test_nic_lower_bound():
    assert nic_lower_bound(0) == 0
    assert nic_lower_bound(1) == 1
    assert nic_lower_bound(4) == 1
    assert nic_lower_bound(5) == 2


def test_fleet_roundtrip(bundle_cache):
    arrivals = [light_instance(bundle_cache, i) for i in range(2)]
    fleet = place_sequence(arrivals, PlacementStrategy.GREEDY)
    again = Fleet.from_dict(fleet.to_dict())
    assert [n.nic_id for n in again.nics] == [n.nic_id for n in fleet.nics]
    assert [i.instance_id for i in again.instances] == \
        [i.instance_id for i in fleet.instances]
    assert again.instances[0].predictor.to_json() == \
        fleet.instances[0].predictor.to_json()
    doc = fleet.to_dict()
    del doc["nics"][0]["nic_id"]
    with pytest.raises(InvalidInputError, match="Nic: missing key 'nic_id'"):
        Fleet.from_dict(doc)


def test_diagnose_single_resource_is_trivial(bundle_cache):
    p = bundle_cache("iptunnel")
    with pytest.warns(TrivialDiagnosisNotice):
        kind = diagnose(p, DEFAULT_TRAFFIC, ContentionDescriptor())
    assert kind is ResourceKind.MEMORY


def test_diagnose_follows_the_slow_stage(bundle_cache):
    p = bundle_cache("flowmonitor")
    desc = ContentionDescriptor(accel={ResourceKind.REGEX_ACCEL: ()})
    # At the MTBR ceiling the regex stage is solo-bound and slowest.
    assert diagnose(p, DEFAULT_TRAFFIC.replace(mtbr=1100.0), desc) is \
        ResourceKind.REGEX_ACCEL
    assert diagnose(p, DEFAULT_TRAFFIC.replace(mtbr=0.0), desc) is \
        ResourceKind.MEMORY


def test_optimal_nic_count_frees_its_oracles(bundle_cache, monkeypatch):
    """No reference cycle keeps the search's oracles, and their memos,
    alive after it returns."""
    oracles = []

    class RecordedOracle(apps._Oracle):
        def __init__(self):
            super().__init__()
            oracles.append(weakref.ref(self))

    monkeypatch.setattr(apps, "_Oracle", RecordedOracle)
    arrivals = [light_instance(bundle_cache, i) for i in range(3)]
    gc.disable()
    try:
        optimal_nic_count(arrivals)
        assert oracles and all(ref() is None for ref in oracles)
    finally:
        gc.enable()
