import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicperf import simulator
from nicperf.catalog import CATALOG
from nicperf.core import (
    DEFAULT_TRAFFIC,
    ExecutionPattern,
    InvalidInputError,
    ResourceKind,
    TrafficProfile,
)
from nicperf.simulator import (
    BENCH_CAR_MAX,
    BENCH_WSS_MAX,
    LLC_BYTES,
    MEM_PARAMS,
    STABILITY_TOL,
    WARMUP_FRACTION,
    ContentionScenario,
    ConvergenceError,
    NfSpec,
    NfStage,
    make_benchmark_nf,
    memory_throughput,
    run_scenario,
    simulate_accelerator_rr,
)


def equilibrium(specs, i):
    """Closed-form all-saturating round-robin equilibrium of NF i."""
    return specs[i][0] / sum(n * n * t for n, t, _ in specs)


def horizon_for(specs, cycles=4000):
    return cycles * sum(n * n * t for n, t, _ in specs)


def test_rr_solo_rate():
    specs = [(2, 5e-6, math.inf)]
    rates = simulate_accelerator_rr(specs, horizon_for(specs))
    assert rates[0] == pytest.approx(1.0 / (2 * 5e-6), rel=0.01)


def test_rr_matches_closed_form_two_nfs():
    specs = [(1, 4e-6, math.inf), (3, 9e-6, math.inf)]
    rates = simulate_accelerator_rr(specs, horizon_for(specs))
    for i in range(2):
        assert rates[i] == pytest.approx(equilibrium(specs, i), rel=0.01)


def test_rr_equal_specs_equal_rates():
    specs = [(2, 7e-6, math.inf)] * 3
    rates = simulate_accelerator_rr(specs, horizon_for(specs))
    spread = (max(rates) - min(rates)) / max(rates)
    assert spread <= 0.01


def _reference_rr(specs, horizon):
    """The round-robin loop as it was written with a per-visit ``batch``,
    at ``batch = 1``: the reference the simulator must reproduce exactly.
    Inputs are assumed valid."""
    batch = 1
    n_nfs = len(specs)
    visit_nf = []
    for j, (n, _, _) in enumerate(specs):
        visit_nf.extend([j] * n)
    service = [n * t for (n, t, _) in specs]
    saturating = [math.isinf(rate) for (_, _, rate) in specs]
    interarrival = [
        (math.inf if rate == 0 or math.isinf(rate) else 1.0 / rate)
        for (_, _, rate) in specs
    ]
    next_arrival = [0.0 if not math.isinf(ia) else math.inf for ia in interarrival]
    backlog = [0] * n_nfs

    warm_end = WARMUP_FRACTION * horizon
    mid = warm_end + (horizon - warm_end) / 2.0
    served_h1 = [0] * n_nfs
    served_h2 = [0] * n_nfs

    now = 0.0
    n_visits = len(visit_nf)
    i = 0
    idle_streak = 0
    while now < horizon:
        j = visit_nf[i]
        i = (i + 1) % n_visits
        if not saturating[j]:
            while next_arrival[j] <= now:
                backlog[j] += 1
                next_arrival[j] += interarrival[j]
            if backlog[j] == 0:
                idle_streak += 1
                if idle_streak >= n_visits:
                    nxt = min(next_arrival)
                    if math.isinf(nxt):
                        break
                    now = max(now, nxt)
                    idle_streak = 0
                continue
        idle_streak = 0
        served = batch
        if not saturating[j]:
            served = min(batch, backlog[j])
            backlog[j] -= served
        for _ in range(served):
            now += service[j]
            if now >= horizon:
                break
            if now > warm_end:
                if now <= mid:
                    served_h1[j] += 1
                else:
                    served_h2[j] += 1

    half = (horizon - warm_end) / 2.0
    rates = [(a + b) / (2.0 * half) for a, b in zip(served_h1, served_h2)]
    for j in range(n_nfs):
        r1, r2 = served_h1[j] / half, served_h2[j] / half
        ref = max(r1, r2)
        if abs(served_h1[j] - served_h2[j]) <= 2:
            continue
        if ref > 0 and abs(r1 - r2) / ref > STABILITY_TOL:
            raise ConvergenceError(f"NF {j} did not stabilize")
    return rates


# One NF of an RR run: queue count, per-request time, and an offered rate
# that is saturating, zero, or a finite fraction (below or above 1) of the
# NF's solo capacity 1 / (n * t).
_RR_NF = st.tuples(
    st.integers(1, 3),
    st.floats(0.5, 20.0).map(lambda us: us * 1e-6),
    st.one_of(st.just(math.inf), st.just(0.0), st.floats(0.05, 2.0)),
).map(lambda nf: (nf[0], nf[1],
                  nf[2] if nf[2] in (0.0, math.inf) else nf[2] / (nf[0] * nf[1])))


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(_RR_NF, min_size=1, max_size=4),
       cycles=st.integers(200, 2500))
def test_rr_matches_reference(specs, cycles):
    horizon = horizon_for(specs, cycles)
    try:
        expect = _reference_rr(specs, horizon)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            simulate_accelerator_rr(specs, horizon)
        return
    rates = simulate_accelerator_rr(specs, horizon)
    assert rates == expect
    if all(math.isinf(rate) for _, _, rate in specs):
        for i, r in enumerate(rates):
            assert r == pytest.approx(equilibrium(specs, i), rel=0.02)


def test_rr_open_loop_below_capacity_serves_offered_rate():
    # A finite-rate NF far below its share gets everything it offers.
    specs = [(1, 5e-6, 20000.0), (1, 5e-6, math.inf)]
    rates = simulate_accelerator_rr(specs, horizon_for(specs, 20000))
    assert rates[0] == pytest.approx(20000.0, rel=0.02)


def test_rr_input_validation():
    with pytest.raises(InvalidInputError):
        simulate_accelerator_rr([(0, 1e-6, math.inf)], 1.0)
    with pytest.raises(InvalidInputError):
        simulate_accelerator_rr([(1, 0.0, math.inf)], 1.0)
    with pytest.raises(InvalidInputError):
        simulate_accelerator_rr([(1, 1e-6, -1.0)], 1.0)
    with pytest.raises(InvalidInputError):
        simulate_accelerator_rr([(1, 1e-6, math.inf)], 0.0)


def test_memory_throughput_uncontended():
    solo = 400000.0
    assert memory_throughput(1e6, 0.0, 0.0, solo_pps=solo) == solo


def test_memory_throughput_floors():
    solo = 400000.0
    # WSS far past the ramp, CAR past saturation: both floors multiply.
    t = memory_throughput(LLC_BYTES, 300e6, 100 * 2**20, solo_pps=solo)
    assert t == pytest.approx(
        solo * MEM_PARAMS.wss_floor_frac * MEM_PARAMS.car_floor_frac)


_CAR = st.floats(0.0, 400e6)
_WSS = st.floats(0.0, 40 * 2**20)


@settings(max_examples=200, deadline=None)
@given(own=_WSS, car=st.tuples(_CAR, _CAR), wss=st.tuples(_WSS, _WSS))
def test_memory_throughput_monotone(own, car, wss):
    """Non-increasing in competitor CAR and in competitor WSS."""
    solo = 400000.0
    lo_car, hi_car = sorted(car)
    lo_wss, hi_wss = sorted(wss)
    t = memory_throughput(own, lo_car, lo_wss, solo_pps=solo)
    assert memory_throughput(own, hi_car, lo_wss, solo_pps=solo) <= t
    assert memory_throughput(own, lo_car, hi_wss, solo_pps=solo) <= t
    assert 0.0 < memory_throughput(own, hi_car, hi_wss, solo_pps=solo) <= solo


def _mem_nf(name="m", base=2e-6):
    return NfSpec(
        name=name,
        pattern=ExecutionPattern.RUN_TO_COMPLETION,
        stages=(NfStage(ResourceKind.MEMORY, base_time=base),),
        wss_base=1e6,
    )


def test_run_scenario_solo_memory_nf():
    scenario = ContentionScenario(nfs=((_mem_nf(), DEFAULT_TRAFFIC),))
    result = run_scenario(scenario)
    assert result.per_nf_throughput["m"] == pytest.approx(1.0 / 2e-6)
    assert result.bottleneck["m"] is ResourceKind.MEMORY


def test_run_scenario_deterministic():
    scenario = ContentionScenario(nfs=(
        (_mem_nf("a"), DEFAULT_TRAFFIC),
        (make_benchmark_nf(ResourceKind.MEMORY, (0.7, 0.4)), DEFAULT_TRAFFIC),
    ))
    r1 = run_scenario(scenario)
    r2 = run_scenario(scenario)
    assert r1.per_nf_throughput == r2.per_nf_throughput
    assert r1.per_nf_counters == r2.per_nf_counters


def test_counters_track_throughput():
    spec = _mem_nf()
    scenario = ContentionScenario(nfs=((spec, DEFAULT_TRAFFIC),))
    result = run_scenario(scenario)
    snap = result.per_nf_counters["m"]
    t = result.per_nf_throughput["m"]
    assert snap.car == pytest.approx(spec.l2_refs_per_packet * t)
    assert snap.irt == pytest.approx(spec.instructions_per_packet * t)
    assert snap.car == pytest.approx(snap.l2crd + snap.l2cwr)
    assert snap.wss == spec.wss(DEFAULT_TRAFFIC)


def test_memory_bench_pins_emitted_contention():
    bench = make_benchmark_nf(ResourceKind.MEMORY, (0.5, 0.25))
    assert bench.car_override == pytest.approx(0.5 * BENCH_CAR_MAX)
    assert bench.wss_override == pytest.approx(0.25 * BENCH_WSS_MAX)
    scenario = ContentionScenario(nfs=(
        (_mem_nf(), DEFAULT_TRAFFIC), (bench, DEFAULT_TRAFFIC),
    ))
    result = run_scenario(scenario)
    snap = result.per_nf_counters["mem-bench"]
    assert snap.car == pytest.approx(0.5 * BENCH_CAR_MAX)
    assert snap.wss == pytest.approx(0.25 * BENCH_WSS_MAX)


def test_memory_bench_scalar_level_couples_knobs():
    bench = make_benchmark_nf(ResourceKind.MEMORY, 0.8)
    assert bench.car_override == pytest.approx(0.8 * BENCH_CAR_MAX)
    assert bench.wss_override == pytest.approx(0.8 * BENCH_WSS_MAX)


def test_accel_bench_levels():
    sat = make_benchmark_nf(ResourceKind.REGEX_ACCEL, 1.0)
    assert math.isinf(sat.offered_rate)
    half = make_benchmark_nf(ResourceKind.REGEX_ACCEL, 0.5, t0=10e-6)
    assert half.offered_rate == pytest.approx(0.5 / 10e-6)
    with pytest.raises(InvalidInputError):
        make_benchmark_nf(ResourceKind.REGEX_ACCEL, 1.5)
    with pytest.raises(InvalidInputError):
        make_benchmark_nf(ResourceKind.MEMORY, (0.5, 1.5))


def test_accel_bench_contends_like_closed_form():
    # Target pinned saturating against a saturating regex bench: the
    # accelerator stage rate must match the equilibrium formula.
    target = NfSpec(
        name="t",
        pattern=ExecutionPattern.RUN_TO_COMPLETION,
        stages=(NfStage(ResourceKind.REGEX_ACCEL, base_time=3e-6),),
        offered_rate=math.inf,
    )
    bench = make_benchmark_nf(ResourceKind.REGEX_ACCEL, 1.0, t0=10e-6)
    result = run_scenario(ContentionScenario(nfs=(
        (target, DEFAULT_TRAFFIC), (bench, DEFAULT_TRAFFIC),
    )))
    expect = 1.0 / (3e-6 + 10e-6)
    assert result.per_nf_throughput["t"] == pytest.approx(expect, rel=0.01)


def test_scenario_roundtrip():
    scenario = ContentionScenario(
        nfs=(
            (_mem_nf(), TrafficProfile(100, 256, 10.0)),
            (make_benchmark_nf(ResourceKind.REGEX_ACCEL, 0.3), DEFAULT_TRAFFIC),
            # Level 1.0 is a saturating bench: its offered_rate is inf.
            (make_benchmark_nf(ResourceKind.REGEX_ACCEL, 1.0, name="sat-bench"),
             DEFAULT_TRAFFIC),
        ),
    )
    again = ContentionScenario.from_dict(scenario.to_dict())
    assert again == scenario


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        ContentionScenario(nfs=())
    with pytest.raises(InvalidInputError):
        ContentionScenario(nfs=((_mem_nf("x"), DEFAULT_TRAFFIC),
                                (_mem_nf("x"), DEFAULT_TRAFFIC)))
    # At most one regex match per payload byte (MB = 10**6 bytes); a
    # round-robin run under a far larger mtbr would not finish.
    flowmonitor = CATALOG["flowmonitor"]
    ContentionScenario(nfs=((flowmonitor, DEFAULT_TRAFFIC.replace(mtbr=1e6)),))
    for mtbr in (math.nextafter(1e6, math.inf), 1e8, 1e300):
        with pytest.raises(InvalidInputError, match="flowmonitor: mtbr must be at most"):
            ContentionScenario(nfs=((_mem_nf(), DEFAULT_TRAFFIC),
                                    (flowmonitor, DEFAULT_TRAFFIC.replace(mtbr=mtbr))))


def test_nf_spec_validation():
    with pytest.raises(InvalidInputError):
        NfSpec(name="bad", pattern=ExecutionPattern.PIPELINE, stages=())
    with pytest.raises(InvalidInputError):
        NfSpec(
            name="bad",
            pattern=ExecutionPattern.PIPELINE,
            stages=(NfStage(ResourceKind.MEMORY, 1e-6),
                    NfStage(ResourceKind.MEMORY, 2e-6)),
        )
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            NfStage(ResourceKind.MEMORY, bad)


@pytest.mark.parametrize("field,bad", [
    *((f, v) for f in ("wss_ramp_bytes", "wss_floor_frac", "car_knee", "car_sat",
                       "car_floor_frac", "miss_base", "miss_sat")
      for v in (math.nan, math.inf, -math.inf)),
    ("wss_ramp_bytes", 0.0),
    ("car_sat", 100e6),
    ("wss_floor_frac", 1.5),
    ("car_floor_frac", -0.1),
    ("miss_base", 2.0),
    ("miss_sat", -1.0),
])
def test_mem_params_validation(field, bad):
    """The memory subsystem is fixed: a scenario that sets any of its
    parameters is rejected, not run on the default one."""
    doc = ContentionScenario(nfs=((_mem_nf(), DEFAULT_TRAFFIC),)).to_dict()
    with pytest.raises(InvalidInputError, match="mem_params"):
        ContentionScenario.from_dict({**doc, "mem_params": {field: bad}})


# --------------------------------------------------------------------------
# Round-robin memo
# --------------------------------------------------------------------------

def _counting_rr(monkeypatch, fail_first=False):
    """Wraps simulate_accelerator_rr; the returned list holds the input of
    every run it simulated."""
    calls = []

    def wrapper(specs, horizon):
        calls.append(specs)
        if fail_first and len(calls) == 1:
            raise ConvergenceError("injected")
        return simulate_accelerator_rr(specs, horizon)

    monkeypatch.setattr(simulator, "simulate_accelerator_rr", wrapper)
    return calls


def _scenario_outcome(scenario):
    try:
        return run_scenario(scenario).to_dict()
    except ConvergenceError:
        return ConvergenceError


# A co-located NF: a catalog NF at random traffic, or a benchmark NF.
_TRAFFIC = st.one_of(
    st.just(DEFAULT_TRAFFIC),
    st.builds(TrafficProfile, st.floats(1.0, 500_000.0), st.floats(64.0, 1500.0),
              st.floats(0.0, 1100.0)),
)
_LEVEL = st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)
_SCENARIO_NF = st.one_of(
    st.tuples(st.sampled_from(sorted(CATALOG)).map(CATALOG.get), _TRAFFIC),
    st.tuples(st.builds(make_benchmark_nf,
                        st.sampled_from([ResourceKind.REGEX_ACCEL,
                                         ResourceKind.COMPRESSION_ACCEL]),
                        _LEVEL, queue_count=st.integers(1, 3)),
              st.just(DEFAULT_TRAFFIC)),
    st.tuples(st.builds(make_benchmark_nf, st.just(ResourceKind.MEMORY),
                        st.tuples(_LEVEL, _LEVEL)),
              st.just(DEFAULT_TRAFFIC)),
)
_SCENARIO = st.lists(_SCENARIO_NF, min_size=1, max_size=4).map(
    lambda nfs: ContentionScenario(nfs=tuple(
        (dataclasses.replace(spec, name=f"nf{i}"), traffic)
        for i, (spec, traffic) in enumerate(nfs))))


@settings(max_examples=25, deadline=None)
@given(scenario=_SCENARIO)
def test_rr_memo_simulates_each_input_once_per_call(scenario):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counting_rr(monkeypatch)
        first = _scenario_outcome(scenario)
        first_calls = list(calls)
        calls.clear()
        second = _scenario_outcome(scenario)
    # Within a call no input is simulated twice; nothing is kept across
    # calls, so a repeated call simulates the same inputs again and
    # returns the same result.
    assert len(set(first_calls)) == len(first_calls)
    assert calls == first_calls
    assert second == first


def test_rr_memo_does_not_keep_convergence_errors(monkeypatch):
    # Memory contention makes the fixed point iterate about ten times.
    scenario = ContentionScenario(nfs=(
        (CATALOG["flowmonitor"], DEFAULT_TRAFFIC),
        (make_benchmark_nf(ResourceKind.MEMORY, (1.0, 1.0)), DEFAULT_TRAFFIC),
    ))
    expect = run_scenario(scenario).to_dict()
    calls = _counting_rr(monkeypatch, fail_first=True)
    with pytest.raises(ConvergenceError):
        run_scenario(scenario)
    assert run_scenario(scenario).to_dict() == expect
    # The NF is alone and backlogged on its one accelerator, so every
    # iteration meets the same input: simulated once per call.
    assert calls == [calls[0], calls[0]]
