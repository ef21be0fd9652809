"""Synthetic NF catalog plus the simulator-backed profiling runner.

The catalog defines the workloads all higher layers are trained and
evaluated on: six memory-only NFs with distinct traffic sensitivities and
three multi-resource NFs that also exercise the accelerators.

SimulatorRunner is the bridge between opaque-handle callbacks (profiler,
parameter inference, pattern detection) and the simulator: it co-runs a
target NF with benchmark NFs at requested contention levels and memoizes
every configuration.  Every co-run is simulated on the simulator's one
fixed NIC.  Accelerator-stage throughput is treated as observable during
offline profiling (the devices expose request counters), and inference
co-runs drive the target at saturating load.
"""

from __future__ import annotations

import dataclasses
import math

from .accel_model import AccelModelParams
from .core import (
    DEFAULT_TRAFFIC,
    CounterSnapshot,
    ExecutionPattern,
    InvalidInputError,
    ResourceKind,
    ThroughputSample,
    TrafficProfile,
)
from .predictor import ACCEL_ATTRIBUTE, ContentionDescriptor
from .simulator import (
    ContentionScenario,
    NfSpec,
    NfStage,
    SimulationResult,
    levels_key,
    make_benchmark_nf,
    run_scenario,
)

__all__ = [
    "CATALOG",
    "TRAFFIC_SENSITIVE_NFS",
    "MULTI_RESOURCE_NFS",
    "ATTRIBUTE_RANGES",
    "get_nf",
    "SimulatorRunner",
    "bench_contention",
]

#: Profiling bounds per traffic attribute.
ATTRIBUTE_RANGES = {
    "flow_count": (1.0, 500_000.0),
    "packet_size": (64.0, 1500.0),
    "mtbr": (0.0, 1100.0),
}


def _mem_stage(base: float, byte_cost: float = 0.0) -> NfStage:
    coeffs = {"byte_cost": byte_cost} if byte_cost else {}
    return NfStage(ResourceKind.MEMORY, base_time=base, traffic_coeffs=coeffs)


def _mem_nf(name: str, *, base: float, byte_cost: float = 0.0,
            wss_base: float, wss_per_flow: float) -> NfSpec:
    return NfSpec(
        name=name,
        pattern=ExecutionPattern.RUN_TO_COMPLETION,
        stages=(_mem_stage(base, byte_cost),),
        wss_base=wss_base,
        wss_per_flow=wss_per_flow,
    )


# Memory-only NFs.  Flow-table NFs: the working set grows with the flow
# count, so solo throughput falls over the flow range where wss crosses
# the LLC; the per-flow footprint sets where that transition sits and how
# wide it is.  Per-byte NFs: packet size drives the per-packet time.
_FLOWSTATS = _mem_nf("flowstats", base=2.5e-6, wss_base=1e6, wss_per_flow=512.0)
_NAT = _mem_nf("nat", base=2.2e-6, wss_base=1e6, wss_per_flow=300.0)
_FLOWCLASSIFIER = _mem_nf(
    "flowclassifier", base=1.2e-6, wss_base=2e6, wss_per_flow=320.0
)
_FLOWTRACKER = _mem_nf("flowtracker", base=2.8e-6, wss_base=0.5e6, wss_per_flow=1024.0)
_IPTUNNEL = _mem_nf("iptunnel", base=1.5e-6, wss_base=2e6, wss_per_flow=128.0)
_DPICACHE = _mem_nf("dpicache", base=1.8e-6, wss_base=1e6, wss_per_flow=256.0)

# Multi-resource NFs.
_FLOWMONITOR = NfSpec(
    name="flowmonitor",
    pattern=ExecutionPattern.PIPELINE,
    stages=(
        _mem_stage(2.5e-6),
        NfStage(ResourceKind.REGEX_ACCEL, base_time=1.0e-6,
                traffic_coeffs={"match_cost": 0.003e-6}),
    ),
    queue_count=1,
    wss_base=1e6,
    wss_per_flow=128.0,
)
_NIDS = NfSpec(
    name="nids",
    pattern=ExecutionPattern.RUN_TO_COMPLETION,
    stages=(
        _mem_stage(2.0e-6),
        NfStage(ResourceKind.REGEX_ACCEL, base_time=0.8e-6,
                traffic_coeffs={"match_cost": 0.002e-6}),
    ),
    queue_count=2,
    wss_base=1e6,
    wss_per_flow=96.0,
)
_IPCOMP = NfSpec(
    name="ipcomp",
    pattern=ExecutionPattern.RUN_TO_COMPLETION,
    stages=(
        _mem_stage(2.0e-6),
        NfStage(ResourceKind.COMPRESSION_ACCEL, base_time=0.5e-6,
                traffic_coeffs={"byte_cost": 1.2e-9}),
    ),
    queue_count=1,
    wss_base=1e6,
    wss_per_flow=64.0,
)

TRAFFIC_SENSITIVE_NFS = (
    "flowstats", "nat", "flowclassifier", "flowtracker", "iptunnel", "dpicache",
)
MULTI_RESOURCE_NFS = ("flowmonitor", "nids", "ipcomp")

CATALOG: dict[str, NfSpec] = {
    spec.name: spec
    for spec in (
        _FLOWSTATS, _NAT, _FLOWCLASSIFIER, _FLOWTRACKER, _IPTUNNEL, _DPICACHE,
        _FLOWMONITOR, _NIDS, _IPCOMP,
    )
}


def get_nf(name: str) -> NfSpec:
    try:
        return CATALOG[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown NF {name!r}; known: {', '.join(sorted(CATALOG))}"
        ) from None


class SimulatorRunner:
    """Executes co-runs of one target NF against benchmark NFs.

    Contention is expressed as a mapping ResourceKind -> level in [0, 1];
    each non-zero level adds the matching benchmark NF to the scenario.
    Results are memoized per configuration, and ``runs`` counts actual
    simulator invocations.  Every scenario the runner simulates shares one
    round-robin memo (``run_scenario``'s ``rr_runs``) for the runner's
    lifetime, so touch detection, parameter inference, pattern probes and
    profiling of one build simulate each round-robin input once.  The
    simulator is deterministic, so ``seed`` is accepted for existing
    callers and has no effect.
    """

    def __init__(self, spec: NfSpec, *, seed: int = 0):
        self.spec = spec
        self.runs = 0
        self._memo: dict = {}
        self._rr_runs: dict = {}

    # -- scenario plumbing --------------------------------------------------

    def _execute(
        self, traffic: TrafficProfile, levels, *, saturate: bool = False,
        extra: NfSpec | None = None,
    ) -> SimulationResult:
        on = levels_key(levels)
        key = (traffic, on, saturate,
               None if extra is None else (extra.name, extra.queue_count,
                                           extra.stages[0].base_time,
                                           extra.offered_rate))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        spec = self.spec
        if saturate:
            spec = dataclasses.replace(spec, offered_rate=math.inf)
        nfs = [(spec, traffic)]
        for value, level in on:
            bench = make_benchmark_nf(ResourceKind(value), level, name=f"bench-{value}")
            nfs.append((bench, DEFAULT_TRAFFIC))
        if extra is not None:
            nfs.append((extra, DEFAULT_TRAFFIC))
        result = run_scenario(ContentionScenario(nfs=tuple(nfs)), rr_runs=self._rr_runs)
        self.runs += 1
        self._memo[key] = result
        return result

    # -- profiling-facing observables ---------------------------------------

    def run(self, traffic: TrafficProfile, levels=None) -> SimulationResult:
        return self._execute(traffic, levels or {})

    def throughput(self, traffic: TrafficProfile, levels=None) -> float:
        return self.run(traffic, levels).per_nf_throughput[self.spec.name]

    def solo_throughput(self, traffic: TrafficProfile) -> float:
        return self.throughput(traffic, {})

    def own_counters(self, traffic: TrafficProfile) -> CounterSnapshot:
        return self.run(traffic, {}).per_nf_counters[self.spec.name]

    def sample(
        self, scenario_id: str, traffic: TrafficProfile, levels
    ) -> ThroughputSample:
        result = self.run(traffic, levels)
        name = self.spec.name
        return ThroughputSample(
            scenario_id=scenario_id,
            target_nf=name,
            traffic=traffic,
            competitor_counters=result.competitor_counters(name),
            observed_throughput=result.per_nf_throughput[name],
        )

    def probe(self, levels) -> float:
        """Pattern-detection probe: end-to-end throughput at default traffic."""
        return self.throughput(DEFAULT_TRAFFIC, levels)

    # -- accelerator-stage observables (device request counters) ------------

    def accel_stage_solo(self, kind: ResourceKind, traffic: TrafficProfile) -> float:
        """Uncontended accelerator-stage throughput with the target backlogged."""
        result = self._execute(traffic, {}, saturate=True)
        return result.per_nf_stage_throughput[self.spec.name][kind]

    def accel_corun(self, kind: ResourceKind, n_bench: int, t_bench: float) -> float:
        """Target's accelerator-stage equilibrium rate at default traffic
        against a known bench."""
        bench = make_benchmark_nf(
            kind, 1.0, queue_count=n_bench, t0=t_bench,
            name=f"infer-bench-{kind.value}",
        )
        result = self._execute(DEFAULT_TRAFFIC, {}, saturate=True, extra=bench)
        return result.per_nf_stage_throughput[self.spec.name][kind]


def bench_contention(kinds, levels, counters: CounterSnapshot) -> ContentionDescriptor:
    """What a ``SimulatorRunner`` co-run at ``levels``, whose competitors emit
    ``counters``, puts on each accelerator of ``kinds``: its benchmark NF."""
    accel = {}
    for kind in kinds:
        lvl = levels.get(kind, 0.0)
        if lvl <= 0:
            accel[kind] = ()
            continue
        bench = make_benchmark_nf(kind, lvl)
        (stage,) = bench.stages
        params = AccelModelParams(
            queue_count=bench.queue_count, t0=stage.base_time,
            a=sum(stage.traffic_coeffs.values()), resource=kind)
        attr = DEFAULT_TRAFFIC.attribute(ACCEL_ATTRIBUTE[kind])
        accel[kind] = ((params, attr, bench.offered_rate),)
    return ContentionDescriptor(counters=counters, accel=accel)
