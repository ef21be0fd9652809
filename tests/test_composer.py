import numpy as np
import pytest

from nicperf.catalog import SimulatorRunner, get_nf
from nicperf.composer import (
    AmbiguousPatternError,
    PerResourceDrops,
    compose_pipeline,
    compose_rtc,
    detect_pattern,
)
from nicperf.core import ExecutionPattern, InvalidInputError, ResourceKind

R = [ResourceKind.MEMORY, ResourceKind.REGEX_ACCEL,
     ResourceKind.COMPRESSION_ACCEL]


def random_drops(rng, r):
    t_solo = rng.uniform(1e4, 1e6)
    drops = {R[k]: t_solo * rng.uniform(0.0, 0.9) for k in range(r)}
    return PerResourceDrops(t_solo, drops)


def test_rtc_equals_summed_sojourn_times():
    # 1/(sum 1/(T - dT_k) - (r-1)/T) == 1/(1/T + sum of per-resource
    # sojourn-time increases); both forms must agree to machine precision.
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = random_drops(rng, int(rng.integers(1, 4)))
        delta_t = sum(1.0 / (d.t_solo - v) - 1.0 / d.t_solo
                      for v in d.drops.values())
        expect = 1.0 / (1.0 / d.t_solo + delta_t)
        assert compose_rtc(d) == pytest.approx(expect, rel=1e-12)


def test_pipeline_invariant_to_non_max_drops():
    rng = np.random.default_rng(1)
    for _ in range(200):
        d = random_drops(rng, 3)
        t = compose_pipeline(d)
        worst = max(d.drops, key=d.drops.get)
        shrunk = {
            k: (v if k == worst else v * rng.uniform(0.0, 1.0))
            for k, v in d.drops.items()
        }
        assert compose_pipeline(PerResourceDrops(d.t_solo, shrunk)) == t


def test_single_resource_formulas_coincide():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = random_drops(rng, 1)
        expect = d.t_solo - next(iter(d.drops.values()))
        assert compose_pipeline(d) == pytest.approx(expect, rel=1e-12)
        assert compose_rtc(d) == pytest.approx(expect, rel=1e-12)


def test_drops_validation():
    with pytest.raises(InvalidInputError):
        PerResourceDrops(0.0, {ResourceKind.MEMORY: 0.0})
    with pytest.raises(InvalidInputError):
        PerResourceDrops(100.0, {})
    with pytest.raises(InvalidInputError):
        PerResourceDrops(100.0, {ResourceKind.MEMORY: 100.0})
    with pytest.raises(InvalidInputError):
        PerResourceDrops(100.0, {ResourceKind.MEMORY: -1.0})


def test_detect_pattern_pipeline_nf():
    runner = SimulatorRunner(get_nf("flowmonitor"))
    report = detect_pattern(
        runner.probe, (ResourceKind.MEMORY, ResourceKind.REGEX_ACCEL)
    )
    assert report.pattern is ExecutionPattern.PIPELINE
    assert report.pipeline_mape < report.rtc_mape


def test_detect_pattern_rtc_nf():
    runner = SimulatorRunner(get_nf("nids"))
    report = detect_pattern(
        runner.probe, (ResourceKind.MEMORY, ResourceKind.REGEX_ACCEL)
    )
    assert report.pattern is ExecutionPattern.RUN_TO_COMPLETION
    assert report.rtc_mape < report.pipeline_mape


def test_detect_pattern_ambiguous_when_one_resource_is_inert():
    # If contention on the second resource never moves throughput, every
    # grid point is a single-resource point and the formulas coincide.
    t_solo = 1e5

    def probe(levels):
        return t_solo - 3e4 * levels.get(ResourceKind.MEMORY, 0.0)

    with pytest.raises(AmbiguousPatternError) as exc:
        detect_pattern(probe, (ResourceKind.MEMORY, ResourceKind.REGEX_ACCEL))
    assert exc.value.pipeline_mape == pytest.approx(exc.value.rtc_mape)
