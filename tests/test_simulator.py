import math

import numpy as np
import pytest

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
    ContentionScenario,
    MemParams,
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


def test_rr_batch_invariance_at_saturation():
    # Serving several backlogged requests per visit rescales the cycle but
    # not the long-run shares.
    specs = [(1, 3e-6, math.inf), (2, 10e-6, math.inf)]
    per_batch = [
        simulate_accelerator_rr(specs, horizon_for(specs, 4000 * b), batch=b)
        for b in (1, 4, 16)
    ]
    for rates in per_batch[1:]:
        for r, ref in zip(rates, per_batch[0]):
            assert r == pytest.approx(ref, rel=0.02)


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
    p = MemParams()
    solo = 400000.0
    assert memory_throughput(1e6, 0.0, 0.0, p, solo_pps=solo) == solo


def test_memory_throughput_floors():
    p = MemParams()
    solo = 400000.0
    llc = 6 * 2**20
    # WSS far past the ramp, CAR past saturation: both floors multiply.
    t = memory_throughput(llc, 300e6, 100 * 2**20, p, solo_pps=solo)
    assert t == pytest.approx(solo * p.wss_floor_frac * p.car_floor_frac)


def test_memory_throughput_monotone():
    p = MemParams()
    solo = 400000.0
    cars = np.linspace(0, 300e6, 13)
    ts = [memory_throughput(4e6, c, 4e6, p, solo_pps=solo) for c in cars]
    assert all(a >= b for a, b in zip(ts, ts[1:]))
    wsss = np.linspace(0, 20 * 2**20, 13)
    ts = [memory_throughput(2e6, 50e6, w, p, solo_pps=solo) for w in wsss]
    assert all(a >= b for a, b in zip(ts, ts[1:]))


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
        seed=3,
        noise_sigma=0.01,
    )
    again = ContentionScenario.from_dict(scenario.to_dict())
    assert again == scenario


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        ContentionScenario(nfs=())
    with pytest.raises(InvalidInputError):
        ContentionScenario(nfs=((_mem_nf("x"), DEFAULT_TRAFFIC),
                                (_mem_nf("x"), DEFAULT_TRAFFIC)))


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
    with pytest.raises(InvalidInputError, match=field):
        MemParams(**{field: bad})
    with pytest.raises(InvalidInputError):
        MemParams.from_dict({field: str(bad)})
