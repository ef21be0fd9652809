"""Deterministic SmartNIC contention simulator.

Stands in for a hardware testbed as the ground-truth oracle.  Co-located
NFs contend for round-robin-scheduled accelerators and a saturating
memory subsystem; a run returns steady-state throughputs and synthetic
performance counters.

Accelerator semantics: the shared device cycles round-robin over every
request queue, serving at most one request per visit.  A visit on behalf
of an NF with ``n`` queues occupies the device for ``n * t`` seconds
(its request stream is striped across its queues), so the all-saturating
equilibrium throughput of NF ``i`` is exactly

    T_i = n_i / sum_j(n_j^2 * t_j)

which is the closed form the white-box accelerator model predicts.  Solo
throughput is 1 / (n * t) under the same semantics, consistent with the
closed form evaluated with a single NF.

A run in which every offered rate is infinite (the inference co-runs and
saturated solo stages) serves every visit, so it takes a vectorised path:
the time after each visit is a sequential ``np.cumsum`` of the per-visit
service times over whole cycles, the same floats the event loop's
``now += service`` adds up, and the half-window counts are ``np.bincount``
of the visits before the horizon.  Both paths give the same rates to the
bit and share one stability check.

The simulated NIC is fixed (BlueField-2): its last-level cache
(``LLC_BYTES``), memory subsystem (``MEM_PARAMS``) and round-robin
horizon (``SIM_CYCLES``) are constants, so a scenario is just its NFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .composer import compose_rates
from .core import (
    Codec,
    CounterSnapshot,
    ExecutionPattern,
    InvalidInputError,
    ResourceKind,
    TrafficProfile,
)

__all__ = [
    "NfStage",
    "NfSpec",
    "MemParams",
    "LLC_BYTES",
    "MEM_PARAMS",
    "SIM_CYCLES",
    "ContentionScenario",
    "SimulationResult",
    "ConvergenceError",
    "simulate_accelerator_rr",
    "memory_throughput",
    "run_scenario",
    "make_benchmark_nf",
    "levels_key",
    "BENCH_CAR_MAX",
    "BENCH_WSS_MAX",
]

SATURATING = math.inf

#: Fraction of the horizon discarded as warm-up before measuring.
WARMUP_FRACTION = 0.1
#: Two half-window throughput estimates must agree within this fraction.
STABILITY_TOL = 0.005
#: Round-robin cycles per accelerator run (sets the run's horizon).
SIM_CYCLES = 2500
#: Visits per block of a round-robin run in which every queue is
#: backlogged (see ``_rr_backlogged``); bounds the run's arrays.
_RR_BLOCK_VISITS = 1 << 13
#: Highest mtbr a scenario accepts: one regex match per payload byte,
#: with MB = 10**6 bytes.  Request times grow with mtbr, and a round-robin
#: run under a far larger one would not finish.
_MAX_MTBR = 1e6
#: Most request queues an NF may have.  A round-robin run visits every
#: queue about SIM_CYCLES times, so its cost grows with the queue count:
#: ``nicperf simulate`` on scenarios/example.json with flowmonitor at 64
#: queues took 4 s on a 2-core host, at 256 queues 42 s, and at 1024 did
#: not finish in 120 s.
_MAX_QUEUES = 64


class ConvergenceError(RuntimeError):
    """A simulation failed to reach a stable steady state."""


# --------------------------------------------------------------------------
# NF definitions
# --------------------------------------------------------------------------

# Each traffic coefficient an NfStage accepts, and the traffic attribute it scales.
_COEFF_ATTRIBUTE = {"match_cost": "mtbr", "byte_cost": "packet_size"}


@dataclass(frozen=True)
class NfStage(Codec):
    """One processing block of an NF; uses exactly one resource.

    base_time is the seconds-per-packet on this resource at zero traffic
    modulation.  traffic_coeffs modulates the per-packet time:

      * ``match_cost``: seconds added per matches/MB of MTBR (accelerator
        stages driven by payload matching)
      * ``byte_cost``: seconds added per byte of packet size (memory and
        compression stages doing per-byte work)
    """

    resource: ResourceKind
    base_time: float
    traffic_coeffs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 < self.base_time < math.inf:
            raise InvalidInputError(
                f"base_time must be finite and positive, got {self.base_time}"
            )
        for key, v in self.traffic_coeffs.items():
            if key not in _COEFF_ATTRIBUTE:
                raise InvalidInputError(f"NfStage.traffic_coeffs: unknown key {key!r}, "
                                        f"expected one of {sorted(_COEFF_ATTRIBUTE)}")
            if not 0 <= v < math.inf:
                raise InvalidInputError(
                    f"NfStage.traffic_coeffs: {key!r} must be finite and >= 0, got {v}")
        object.__setattr__(self, "traffic_coeffs", dict(self.traffic_coeffs))

    def unit_time(self, traffic: TrafficProfile) -> float:
        """Per-packet (per-request) time at the given traffic."""
        t = self.base_time
        for key, attribute in _COEFF_ATTRIBUTE.items():
            t += self.traffic_coeffs.get(key, 0.0) * getattr(traffic, attribute)
        return t


@dataclass(frozen=True)
class NfSpec(Codec):
    """A synthetic NF definition; drives the simulator.

    The working set grows linearly with flow count and is capped:
    ``wss = min(wss_base + wss_per_flow * flows, wss_cap)``.

    ``offered_rate`` controls how the NF loads accelerators: ``None``
    means closed-loop (fed by its own other stages), ``math.inf`` means
    always backlogged, a finite value is an open-loop arrival rate.
    ``car_override``/``wss_override`` pin the emitted contention level of
    benchmark NFs regardless of their achieved throughput.
    """

    name: str
    pattern: ExecutionPattern
    stages: tuple[NfStage, ...]
    queue_count: int = 1
    wss_base: float = 1e6
    wss_per_flow: float = 0.0
    wss_cap: float = 64e6
    l2_refs_per_packet: float = 50.0
    instructions_per_packet: float = 4000.0
    offered_rate: float | None = None
    car_override: float | None = None
    wss_override: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.queue_count <= _MAX_QUEUES:
            raise InvalidInputError(
                f"{self.name}: queue_count must be in [1, {_MAX_QUEUES}], got {self.queue_count}")
        if not self.stages:
            raise InvalidInputError("an NF needs at least one stage")
        kinds = [s.resource for s in self.stages]
        if len(set(kinds)) != len(kinds):
            raise InvalidInputError("at most one stage per resource kind")
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def resources(self) -> tuple[ResourceKind, ...]:
        return tuple(s.resource for s in self.stages)

    def wss(self, traffic: TrafficProfile) -> float:
        if self.wss_override is not None:
            return self.wss_override
        return min(self.wss_base + self.wss_per_flow * traffic.flow_count, self.wss_cap)


# --------------------------------------------------------------------------
# Memory subsystem
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MemParams:
    """Piece-wise-linear memory-penalty parameters of the simulated NIC.

    Capacity of a memory stage is its solo rate scaled by two factors:

      * a WSS factor that falls linearly from 1 to ``wss_floor_frac`` as
        the combined working set crosses the LLC and fills ``wss_ramp_bytes``
        beyond it (LLC saturation);
      * a CAR factor that is flat at 1 below ``car_knee`` ref/s, falls
        linearly to ``car_floor_frac`` at ``car_sat``, and is flat beyond.

    ``miss_base``/``miss_sat`` shape the emitted memory-access counters.
    """

    wss_ramp_bytes: float = 6 * 2**20
    wss_floor_frac: float = 0.55
    car_knee: float = 100e6
    car_sat: float = 250e6
    car_floor_frac: float = 0.60
    miss_base: float = 0.04
    miss_sat: float = 0.45


#: The simulated NIC's last-level cache, in bytes.
LLC_BYTES = 6 * 2**20
#: The simulated NIC's memory subsystem.
MEM_PARAMS = MemParams()


def _wss_ramp_frac(total_wss: float) -> float:
    if total_wss <= LLC_BYTES:
        return 0.0
    return min(1.0, (total_wss - LLC_BYTES) / MEM_PARAMS.wss_ramp_bytes)


def memory_throughput(
    own_wss: float,
    competitor_car: float,
    competitor_wss: float,
    *,
    solo_pps: float,
) -> float:
    """Capacity (packets/s) of a memory stage under contention.

    ``solo_pps`` is the stage's uncontended, cache-resident rate.  The
    result is a total, deterministic, piece-wise-linear function, monotone
    non-increasing in both competitor CAR and combined WSS.
    """
    params = MEM_PARAMS
    ramp = _wss_ramp_frac(own_wss + competitor_wss)
    wss_factor = 1.0 - (1.0 - params.wss_floor_frac) * ramp
    if competitor_car <= params.car_knee:
        car_factor = 1.0
    elif competitor_car >= params.car_sat:
        car_factor = params.car_floor_frac
    else:
        span = (competitor_car - params.car_knee) / (params.car_sat - params.car_knee)
        car_factor = 1.0 - (1.0 - params.car_floor_frac) * span
    return solo_pps * wss_factor * car_factor


# --------------------------------------------------------------------------
# Round-robin accelerator simulation
# --------------------------------------------------------------------------

def simulate_accelerator_rr(
    specs: Sequence[tuple[int, float, float]],
    horizon: float,
) -> list[float]:
    """Discrete-event round-robin service of one accelerator.

    ``specs`` lists (queue_count, per_request_time, offered_rate) per NF;
    an infinite offered_rate means the queues are always backlogged.  One
    server cycles over all queues, serving one request per visit to a
    non-empty queue.  Returns the long-run service throughput per NF
    measured after a warm-up prefix, and requires the estimate to
    stabilize across two half-windows.
    """
    if horizon <= 0:
        raise InvalidInputError(f"horizon must be positive, got {horizon}")
    for n, t, rate in specs:
        if not 1 <= n <= _MAX_QUEUES:
            raise InvalidInputError(f"queue_count must be in [1, {_MAX_QUEUES}], got {n}")
        if t <= 0:
            raise InvalidInputError("per_request_time must be positive")
        if rate < 0:
            raise InvalidInputError("offered_rate must be non-negative")

    # Flatten into a visit schedule: one slot per queue, in NF order.
    visit_nf = [j for j, (n, _, _) in enumerate(specs) for _ in range(n)]
    # Service time per visit scales with the NF's queue count (see module
    # docstring for the equilibrium this realizes).
    service = [n * t for (n, t, _) in specs]
    warm_end = WARMUP_FRACTION * horizon
    mid = warm_end + (horizon - warm_end) / 2.0
    if all(math.isinf(rate) for (_, _, rate) in specs):
        served_h1, served_h2 = _rr_backlogged(
            visit_nf, service, len(specs), horizon, warm_end, mid)
    else:
        served_h1, served_h2 = _rr_events(specs, visit_nf, service, horizon, warm_end, mid)

    half = (horizon - warm_end) / 2.0
    rates = [(a + b) / (2.0 * half) for a, b in zip(served_h1, served_h2)]
    for j in range(len(specs)):
        r1, r2 = served_h1[j] / half, served_h2[j] / half
        ref = max(r1, r2)
        # A couple of requests of slack: deterministic arrivals can land
        # just either side of the window midpoint.
        if abs(served_h1[j] - served_h2[j]) <= 2:
            continue
        if ref > 0 and abs(r1 - r2) / ref > STABILITY_TOL:
            raise ConvergenceError(
                f"throughput of NF {j} did not stabilize: "
                f"half-window rates {r1:.6g} vs {r2:.6g} req/s"
            )
    return rates


def _rr_events(
    specs: Sequence[tuple[int, float, float]], visit_nf: list[int], service: list[float],
    horizon: float, warm_end: float, mid: float,
) -> tuple[list[int], list[int]]:
    """Requests served per NF in each half-window, one visit at a time."""
    n_nfs = len(specs)
    saturating = [math.isinf(rate) for (_, _, rate) in specs]
    # Deterministic open-loop arrivals, per NF, striped over its queues.
    interarrival = [
        (math.inf if rate == 0 or math.isinf(rate) else 1.0 / rate)
        for (_, _, rate) in specs
    ]
    next_arrival = [0.0 if not math.isinf(ia) else math.inf for ia in interarrival]
    backlog = [0] * n_nfs  # arrived-but-unserved requests of finite-rate NFs
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
            # Materialize arrivals up to now.
            while next_arrival[j] <= now:
                backlog[j] += 1
                next_arrival[j] += interarrival[j]
            if backlog[j] == 0:
                idle_streak += 1
                if idle_streak >= n_visits:
                    # Whole cycle empty: jump to the earliest arrival.
                    nxt = min(next_arrival)
                    if math.isinf(nxt):
                        break
                    now = max(now, nxt)
                    idle_streak = 0
                continue
            backlog[j] -= 1
        idle_streak = 0
        now += service[j]
        if now >= horizon:
            break
        if now > warm_end:
            if now <= mid:
                served_h1[j] += 1
            else:
                served_h2[j] += 1
    return served_h1, served_h2


def _rr_backlogged(
    visit_nf: list[int], service: list[float], n_nfs: int,
    horizon: float, warm_end: float, mid: float,
) -> tuple[list[int], list[int]]:
    """``_rr_events`` when every queue is always backlogged, vectorised.

    Every visit serves, so the visit order repeats whole cycles and the
    time after each visit is the running sum of the per-visit service
    times.  ``np.cumsum`` adds in sequence, as ``now += service[j]`` does,
    so the sums are the same floats.  The run is cut at the first sum at
    or past the horizon, and the sums in each half-window are counted per
    NF.  It goes in blocks of whole cycles, enough to pass the horizon but
    at most ``_RR_BLOCK_VISITS`` visits (or one cycle, if that is more),
    each block's sums starting from the last one's final ``now``, so
    memory stays bounded for any horizon.
    """
    per_visit = [service[j] for j in visit_nf]
    # Enough cycles to pass the horizon, up to a block; a short guess
    # costs one more block.
    cycles = max(1, int(min(_RR_BLOCK_VISITS // len(visit_nf), horizon / sum(per_visit) + 2)))
    nf = np.tile(visit_nf, cycles)
    steps = np.empty(len(nf) + 1)
    steps[1:] = np.tile(per_visit, cycles)
    served_h1 = served_h2 = np.zeros(n_nfs, dtype=np.int64)
    now = 0.0
    while True:
        steps[0] = now
        ends = np.cumsum(steps)[1:]
        stop = int(ends.searchsorted(horizon, side="left"))
        done, by = ends[:stop], nf[:stop]
        served_h1 = served_h1 + np.bincount(
            by[(done > warm_end) & (done <= mid)], minlength=n_nfs)
        served_h2 = served_h2 + np.bincount(by[done > mid], minlength=n_nfs)
        if stop < len(ends):
            return served_h1.tolist(), served_h2.tolist()
        now = ends[-1]


def _default_horizon(specs: Sequence[tuple[int, float, float]]) -> float:
    cycle = sum(n * n * t for (n, t, _) in specs)
    return max(cycle * SIM_CYCLES, 1e-6)


# --------------------------------------------------------------------------
# Scenario
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _ContentionScenarioNf(Codec):
    """One co-located NF of a ContentionScenario document."""

    spec: NfSpec
    traffic: TrafficProfile


@dataclass(frozen=True)
class _ContentionScenarioWire(Codec):
    """A ContentionScenario document: ``nfs``, a list of ``{spec, traffic}``."""

    nfs: tuple[_ContentionScenarioNf, ...]


@dataclass(frozen=True)
class ContentionScenario(Codec):
    """A set of co-located NFs plus their traffic: one simulated co-run."""

    nfs: tuple[tuple[NfSpec, TrafficProfile], ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.nfs) <= 4:
            raise InvalidInputError("a scenario holds 1..4 NFs")
        names = [spec.name for spec, _ in self.nfs]
        if len(set(names)) != len(names):
            raise InvalidInputError("NF names within a scenario must be unique")
        for spec, traffic in self.nfs:
            if traffic.mtbr > _MAX_MTBR:
                raise InvalidInputError(
                    f"{spec.name}: mtbr must be at most {_MAX_MTBR:g} (one match "
                    f"per payload byte), got {traffic.mtbr:g}"
                )
        object.__setattr__(self, "nfs", tuple((s, t) for s, t in self.nfs))

    def to_dict(self) -> dict:
        return _ContentionScenarioWire(
            tuple(_ContentionScenarioNf(s, t) for s, t in self.nfs)).to_dict()

    # The NIC is fixed, so a key that would set it is an error, not ignored.
    @classmethod
    def from_dict(cls, d: dict) -> "ContentionScenario":
        unknown = sorted(set(d) - {"nfs"}) if isinstance(d, dict) else ()
        if unknown:
            raise InvalidInputError(
                f"ContentionScenario: unknown keys {', '.join(unknown)}; "
                "a scenario holds only 'nfs', the simulated NIC is fixed"
            )
        wire = _ContentionScenarioWire.from_dict(d)
        return cls(tuple((e.spec, e.traffic) for e in wire.nfs))


@dataclass(frozen=True)
class SimulationResult(Codec):
    per_nf_throughput: dict[str, float]
    per_nf_counters: dict[str, CounterSnapshot]
    per_nf_stage_throughput: dict[str, dict[ResourceKind, float]]
    bottleneck: dict[str, ResourceKind]

    def competitor_counters(self, target: str) -> CounterSnapshot:
        """Elementwise sum of counters over every NF except ``target``."""
        total = CounterSnapshot()
        for name, snap in self.per_nf_counters.items():
            if name != target:
                total = total + snap
        return total


# CPU emission constants for synthetic counters (2 cores at 2.5 GHz).
_CPU_HZ = 2 * 2.5e9
_L2_READ_SHARE = 0.6
_MEM_READ_SHARE = 0.7
# Instructions retired per L2 reference when CAR is pinned by an override;
# matches the instructions_per_packet / l2_refs_per_packet ratio of the
# regular NF definitions so counter features stay on one scale.
_IRT_PER_L2REF = 80.0


def run_scenario(
    scenario: ContentionScenario, rr_runs: dict[tuple, list[float]] | None = None,
) -> SimulationResult:
    """Simulate one co-run to steady state.

    Per-stage contended rates are computed self-consistently: an NF's
    emitted cache traffic scales with its throughput, and its offered
    rate at an accelerator is capped by its other stages.  The fixed
    point is damped (0.5) and must settle within 0.1% in 100 iterations.
    A round-robin input met again (a saturated NF alone on its
    accelerator meets the same one in every iteration) is not simulated
    again.  ``rr_runs`` maps each round-robin input to its rates; it is
    read and extended, so a caller that passes one dict to many
    scenarios shares their runs, as a ``SimulatorRunner`` does for its
    lifetime.  By default it is a fresh dict kept for this call only, as
    ``nicperf simulate`` and the placement oracle use it.  A run is a
    pure function of its input, which also fixes the horizon, so results
    do not depend on what the dict already holds; a run that raises
    ``ConvergenceError`` is not stored.
    """
    specs = [spec for spec, _ in scenario.nfs]
    traffics = {spec.name: traffic for spec, traffic in scenario.nfs}
    names = [s.name for s in specs]

    wss = {s.name: s.wss(traffics[s.name]) for s in specs}
    unit_times = {
        s.name: {st.resource: st.unit_time(traffics[s.name]) for st in s.stages}
        for s in specs
    }
    solo_rates = {
        s.name: {
            kind: (1.0 / (s.queue_count * t) if kind.is_accelerator else 1.0 / t)
            for kind, t in unit_times[s.name].items()
        }
        for s in specs
    }

    # Initial throughput guess: solo composition.
    thr = {
        s.name: compose_rates(s.pattern, list(solo_rates[s.name].values()))
        for s in specs
    }
    stage_thr: dict[str, dict[ResourceKind, float]] = {n: {} for n in names}

    accel_kinds = sorted(
        {st.resource for s in specs for st in s.stages if st.resource.is_accelerator},
        key=lambda k: k.value,
    )

    def car_of(spec: NfSpec) -> float:
        if spec.car_override is not None:
            return spec.car_override
        return spec.l2_refs_per_packet * thr[spec.name]

    if rr_runs is None:
        rr_runs = {}
    converged = False
    for _ in range(100):
        new_stage_thr: dict[str, dict[ResourceKind, float]] = {n: {} for n in names}

        # Memory stages.
        for s in specs:
            if ResourceKind.MEMORY not in unit_times[s.name]:
                continue
            comp_car = sum(car_of(o) for o in specs if o.name != s.name)
            comp_wss = sum(wss[o.name] for o in specs if o.name != s.name)
            new_stage_thr[s.name][ResourceKind.MEMORY] = memory_throughput(
                wss[s.name], comp_car, comp_wss,
                solo_pps=solo_rates[s.name][ResourceKind.MEMORY],
            )

        # Accelerator stages: one RR run per (accelerator, target) with the
        # target backlogged (capacity semantics) and competitors at their
        # current feed rates.
        for kind in accel_kinds:
            users = [s for s in specs if kind in unit_times[s.name]]
            if not users:
                continue

            def feed(spec: NfSpec) -> float:
                if spec.offered_rate is not None:
                    return spec.offered_rate
                others = [
                    r for k, r in stage_thr[spec.name].items() if k != kind
                ] or [r for k, r in solo_rates[spec.name].items() if k != kind]
                if not others:
                    return SATURATING
                return min(others)

            for i, target in enumerate(users):
                rr_specs = tuple(
                    (s.queue_count, unit_times[s.name][kind],
                     SATURATING if s is target else feed(s))
                    for s in users
                )
                rates = rr_runs.get(rr_specs)
                if rates is None:
                    rates = simulate_accelerator_rr(
                        rr_specs, _default_horizon(rr_specs))
                    rr_runs[rr_specs] = rates
                new_stage_thr[target.name][kind] = rates[i]

        new_thr = {}
        for s in specs:
            rates = [new_stage_thr[s.name][k] for k in unit_times[s.name]]
            t = compose_rates(s.pattern, rates)
            if s.offered_rate is not None and not math.isinf(s.offered_rate):
                t = min(t, s.offered_rate)
            new_thr[s.name] = t

        err = max(abs(new_thr[n] - thr[n]) / max(new_thr[n], 1e-12) for n in names)
        stage_thr = new_stage_thr
        thr = {n: 0.5 * thr[n] + 0.5 * new_thr[n] for n in names}
        if err < 1e-3:
            thr = new_thr
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"scenario fixed point did not converge; last throughputs {thr}"
        )

    # Counters: deterministic emission from the converged state.
    params = MEM_PARAMS
    counters: dict[str, CounterSnapshot] = {}
    bottleneck: dict[str, ResourceKind] = {}
    for s in specs:
        name = s.name
        t = thr[name]
        car = car_of(s)
        total_wss = wss[name] + sum(wss[o.name] for o in specs if o.name != name)
        ramp = _wss_ramp_frac(total_wss)
        miss = params.miss_base + (params.miss_sat - params.miss_base) * ramp
        mem_rate = car * miss
        if s.car_override is not None:
            irt = car * _IRT_PER_L2REF
        else:
            irt = s.instructions_per_packet * t
        values = {
            "ipc": irt / _CPU_HZ,
            "irt": irt,
            "l2crd": car * _L2_READ_SHARE,
            "l2cwr": car * (1.0 - _L2_READ_SHARE),
            "memrd": mem_rate * _MEM_READ_SHARE,
            "memwr": mem_rate * (1.0 - _MEM_READ_SHARE),
            "wss": s.wss_override if s.wss_override is not None else wss[name],
        }
        counters[name] = CounterSnapshot(**values)
        bottleneck[name] = min(stage_thr[name], key=lambda k: stage_thr[name][k])

    return SimulationResult(
        per_nf_throughput=dict(thr),
        per_nf_counters=counters,
        per_nf_stage_throughput={n: dict(v) for n, v in stage_thr.items()},
        bottleneck=bottleneck,
    )


# --------------------------------------------------------------------------
# Benchmark NFs
# --------------------------------------------------------------------------

BENCH_CAR_MAX = 250e6  # refs/s at level 1.0
BENCH_WSS_MAX = 12 * 2**20  # bytes at level 1.0


def make_benchmark_nf(
    kind: ResourceKind,
    level: float,
    *,
    queue_count: int = 1,
    t0: float = 10e-6,
    a: float = 0.0,
    name: str | None = None,
) -> NfSpec:
    """A single-stage synthetic NF that asserts a configurable contention level.

    ``level`` is in [0, 1].  For the memory bench it pins the emitted CAR
    and WSS (``level * BENCH_CAR_MAX`` / ``level * BENCH_WSS_MAX``).  For
    accelerator benches, level 1 is a saturating queue and lower levels
    are open-loop offered rates in the linear pre-equilibrium region;
    ``t0``/``a`` set the bench's known per-request time ``t0 + a * mtbr``
    (the bench's own traffic MTBR supplies the modulation).
    """
    if kind is ResourceKind.MEMORY:
        # The memory bench has two independent knobs: a scalar level pins
        # CAR and WSS together, a (car_level, wss_level) pair decouples
        # them so cache-pressure and access-rate effects are identifiable.
        car_level, wss_level = level if isinstance(level, tuple) else (level, level)
        for lv in (car_level, wss_level):
            if not 0.0 <= lv <= 1.0:
                raise InvalidInputError(f"level must be in [0, 1], got {lv}")
        return NfSpec(
            name=name or "mem-bench",
            pattern=ExecutionPattern.RUN_TO_COMPLETION,
            stages=(NfStage(ResourceKind.MEMORY, base_time=1e-6),),
            wss_base=0.0,
            car_override=car_level * BENCH_CAR_MAX,
            wss_override=wss_level * BENCH_WSS_MAX,
            instructions_per_packet=500.0,
        )
    if not 0.0 <= level <= 1.0:
        raise InvalidInputError(f"level must be in [0, 1], got {level}")
    if kind not in (ResourceKind.REGEX_ACCEL, ResourceKind.COMPRESSION_ACCEL):
        raise InvalidInputError(f"unknown benchmark kind {kind!r}")
    coeff = "match_cost" if kind is ResourceKind.REGEX_ACCEL else "byte_cost"
    default_name = "regex-bench" if kind is ResourceKind.REGEX_ACCEL else "compression-bench"
    # Solo service capacity is 1 / (n * t0); sub-saturating levels offer a
    # fraction of it so co-runners sit in the linear throughput-drop region.
    rate = SATURATING if level >= 1.0 else level / (queue_count * t0)
    return NfSpec(
        name=name or default_name,
        pattern=ExecutionPattern.RUN_TO_COMPLETION,
        stages=(NfStage(kind, base_time=t0, traffic_coeffs={coeff: a}),),
        queue_count=queue_count,
        # Pure device load: requests are DMA-fed, no CPU or cache footprint.
        wss_base=0.0,
        l2_refs_per_packet=0.0,
        instructions_per_packet=0.0,
        offered_rate=rate,
    )


def levels_key(levels) -> tuple:
    """Canonical form of a contention-level mapping (ResourceKind -> level):
    the switched-on levels as sorted (resource value, level) pairs.  A
    memory level may be a (car_level, wss_level) pair; it is on when
    either part is."""
    out = []
    for kind, v in levels.items():
        if max(v) > 0 if isinstance(v, tuple) else v > 0:
            out.append((kind.value, tuple(v) if isinstance(v, tuple) else float(v)))
    return tuple(sorted(out))
