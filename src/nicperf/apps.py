"""Operator-facing applications: SLA-aware placement and bottleneck diagnosis.

Placement is online: arrivals are placed one at a time onto a fleet of
SmartNICs with four NF slots each (8 cores, 2 per NF).  The
contention-aware strategy only uses prediction bundles, never the
oracle; the oracle comes back in evaluate_placement to score the
resulting fleet, and in the branch-and-bound search for the smallest
feasible fleet that placement quality is measured against.  The oracle
simulates every group on the same fixed NIC as the profiling runner.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import warnings

from .catalog import get_nf
from .core import (
    Codec,
    InvalidInputError,
    ResourceKind,
    TrafficProfile,
    ZERO_COUNTERS,
)
from .predictor import (
    ACCEL_ATTRIBUTE,
    ContentionDescriptor,
    NfPredictor,
    PredictionResult,
)
from .simulator import ContentionScenario, ConvergenceError, run_scenario

__all__ = [
    "NF_SLOTS",
    "SlaSpec",
    "NfInstance",
    "Nic",
    "Fleet",
    "PlacementStrategy",
    "TrivialDiagnosisNotice",
    "predict_group",
    "place",
    "place_sequence",
    "PlacementReport",
    "evaluate_placement",
    "optimal_nic_count",
    "OPTIMUM_MAX_INSTANCES",
    "nic_lower_bound",
    "diagnose",
]

#: NF slots per SmartNIC: 8 cores, 2 dedicated cores per NF.
NF_SLOTS = 4

_GROUP_DAMPING = 0.5
_GROUP_TOL = 1e-3
_GROUP_MAX_ITER = 50

#: Largest instance set optimal_nic_count searches exhaustively.
OPTIMUM_MAX_INSTANCES = 12


@dataclasses.dataclass(frozen=True)
class SlaSpec:
    """Maximum allowed throughput drop relative to the solo baseline."""

    max_drop_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.max_drop_ratio <= 1.0:
            raise InvalidInputError(
                f"max_drop_ratio must be in (0, 1], got {self.max_drop_ratio}"
            )

    def floor(self, solo: float) -> float:
        """Lowest acceptable throughput given a solo baseline."""
        return (1.0 - self.max_drop_ratio) * solo


@dataclasses.dataclass(frozen=True)
class NfInstance(Codec):
    """One arriving NF: its prediction bundle, traffic, and SLA."""

    instance_id: str
    predictor: NfPredictor
    traffic: TrafficProfile
    sla: SlaSpec

    def to_dict(self) -> dict:
        return _NfInstanceWire(self.instance_id, self.predictor.to_dict(), self.traffic,
                               self.sla.max_drop_ratio).to_dict()

    @classmethod
    def from_dict(cls, d: dict) -> "NfInstance":
        w = _NfInstanceWire.from_dict(d)
        return cls(w.instance_id, NfPredictor.from_dict(w.bundle), w.traffic,
                   SlaSpec(w.max_drop_ratio))


@dataclasses.dataclass(frozen=True)
class _NfInstanceWire(Codec):
    """An NfInstance as ``to_dict`` writes it, its bundle still a document."""

    instance_id: str
    bundle: dict
    traffic: TrafficProfile
    max_drop_ratio: float


@dataclasses.dataclass
class Nic(Codec):
    nic_id: int
    residents: list[NfInstance] = dataclasses.field(default_factory=list)

    @property
    def free_slots(self) -> int:
        return NF_SLOTS - len(self.residents)


@dataclasses.dataclass
class Fleet(Codec):
    nics: list[Nic] = dataclasses.field(default_factory=list)

    def provision(self) -> Nic:
        nic = Nic(nic_id=len(self.nics))
        self.nics.append(nic)
        return nic

    @property
    def instances(self) -> list[NfInstance]:
        return [inst for nic in self.nics for inst in nic.residents]


class PlacementStrategy(str, enum.Enum):
    MONOPOLIZATION = "monopolization"
    GREEDY = "greedy"
    CONTENTION_AWARE = "contention-aware"


# --------------------------------------------------------------------------
# Group prediction
# --------------------------------------------------------------------------

def predict_group(instances: list[NfInstance]) -> dict:
    """Predicted throughput per instance when co-located on one NIC.

    Self-consistent fixed point: each instance's competitors emit
    counters proportional to their own predicted throughput and offer
    accelerator load at their predicted memory-stage rate (an NF's
    accelerator feed is capped by its other stages, not by its end-to-end
    rate).  Returns instance_id -> PredictionResult; raises
    ConvergenceError if the fixed point does not settle within
    ``_GROUP_MAX_ITER`` iterations.

    What the fixed point does not change is computed once per call: each
    instance's solo throughput and own working set; for each target, the
    NIC's combined working set (the target's, then its competitors' in
    group order), each competitor's miss fraction at that total, and,
    for each of the target's accelerators, the ``(params, attribute
    value)`` of the competitors using it.  Each iteration only scales
    the competitors' footprints by their current throughput, pairs the
    accelerator competitors with their current feeds, and predicts.
    """
    if not instances:
        return {}
    ids = [inst.instance_id for inst in instances]
    if len(set(ids)) != len(ids):
        raise InvalidInputError("instance ids must be unique within a group")
    thr = [inst.predictor.t_solo(inst.traffic) for inst in instances]
    feeds = list(thr)
    wss = [inst.predictor.footprint.wss(inst.traffic) for inst in instances]
    # Per target: (footprint, own wss, miss fraction, index) of each
    # competitor, and kind -> (params, attribute value, index) of each
    # competitor on that accelerator.
    fixed = []
    for i, inst in enumerate(instances):
        others = [j for j in range(len(instances)) if j != i]
        # Every NF's miss fraction depends on the combined working set of
        # the whole NIC, target included.
        total_wss = sum(wss[j] for j in [i] + others)
        mem = [(instances[j].predictor.footprint, wss[j],
                instances[j].predictor.footprint.miss_fraction(total_wss), j)
               for j in others]
        accel = {
            kind: [(instances[j].predictor.accel_models[kind],
                    instances[j].traffic.attribute(ACCEL_ATTRIBUTE[kind]), j)
                   for j in others if kind in instances[j].predictor.accel_models]
            for kind in inst.predictor.accel_models
        }
        fixed.append((mem, accel))
    results: dict[str, PredictionResult] = {}
    for _ in range(_GROUP_MAX_ITER):
        worst = 0.0
        for i, (inst, (mem, accel)) in enumerate(zip(instances, fixed)):
            counters = ZERO_COUNTERS
            for footprint, own, frac, j in mem:
                counters = counters + footprint.counters(own, thr[j], frac)
            desc = ContentionDescriptor(counters, {
                kind: tuple((params, attr, feeds[j]) for params, attr, j in comps)
                for kind, comps in accel.items()
            })
            res = inst.predictor.predict(inst.traffic, desc)
            results[inst.instance_id] = res
            old = thr[i]
            new = (1 - _GROUP_DAMPING) * old + _GROUP_DAMPING * res.throughput
            thr[i] = new
            feeds[i] = res.stage_rates.get(ResourceKind.MEMORY, new)
            if old > 0:
                worst = max(worst, abs(new - old) / old)
        if worst < _GROUP_TOL:
            return results
    raise ConvergenceError(
        f"group prediction did not converge in {_GROUP_MAX_ITER} iterations; "
        f"last relative change {worst:.3g}"
    )


def _group_meets_slas(instances: list[NfInstance]) -> bool:
    """A group whose prediction does not converge does not meet its SLAs."""
    try:
        results = predict_group(instances)
    except ConvergenceError:
        return False
    for inst in instances:
        res = results[inst.instance_id]
        if res.saturated:
            return False
        if res.throughput < inst.sla.floor(res.t_solo):
            return False
    return True


# --------------------------------------------------------------------------
# Placement
# --------------------------------------------------------------------------

def place(fleet: Fleet, arrival: NfInstance, strategy: PlacementStrategy) -> int:
    """Place one arrival, provisioning a new NIC when needed.

    Returns the chosen NIC id.  Deterministic: ties break toward the
    lowest NIC id.
    """
    strategy = PlacementStrategy(strategy)
    if strategy is PlacementStrategy.MONOPOLIZATION:
        nic = fleet.provision()
    elif strategy is PlacementStrategy.GREEDY:
        open_nics = [n for n in fleet.nics if n.free_slots > 0]
        if open_nics:
            nic = max(open_nics, key=lambda n: (n.free_slots, -n.nic_id))
        else:
            nic = fleet.provision()
    else:
        nic = None
        for cand in fleet.nics:
            if cand.free_slots <= 0:
                continue
            if _group_meets_slas(cand.residents + [arrival]):
                nic = cand
                break
        if nic is None:
            nic = fleet.provision()
    nic.residents.append(arrival)
    return nic.nic_id


def place_sequence(
    arrivals: list[NfInstance], strategy: PlacementStrategy
) -> Fleet:
    fleet = Fleet()
    for arrival in arrivals:
        place(fleet, arrival, strategy)
    return fleet


# --------------------------------------------------------------------------
# Oracle evaluation
# --------------------------------------------------------------------------

class _Oracle:
    """Ground-truth throughputs for instance groups; solo runs are memoized."""

    def __init__(self):
        self._solo_memo: dict = {}

    def _throughputs(self, named: list[tuple[str, NfInstance]]) -> dict:
        """Simulated throughput of each instance's catalog NF, renamed."""
        result = run_scenario(ContentionScenario(
            nfs=tuple(
                (dataclasses.replace(get_nf(i.predictor.nf), name=name),
                 i.traffic)
                for name, i in named
            ),
        ))
        return dict(result.per_nf_throughput)

    def solo_throughput(self, inst: NfInstance) -> float:
        key = (inst.predictor.nf, inst.traffic)
        hit = self._solo_memo.get(key)
        if hit is None:
            hit = self._throughputs([("solo", inst)])["solo"]
            self._solo_memo[key] = hit
        return hit

    def violations(self, instances: list[NfInstance]) -> list[str]:
        if len(instances) <= 1:
            return []
        # Instance ids keep co-located copies of the same NF distinct.
        thr = self._throughputs([(i.instance_id, i) for i in instances])
        out = []
        for inst in instances:
            solo = self.solo_throughput(inst)
            if thr[inst.instance_id] < inst.sla.floor(solo):
                out.append(inst.instance_id)
        return out


@dataclasses.dataclass(frozen=True)
class PlacementReport(Codec):
    nic_count: int
    nf_count: int
    violating_instances: tuple[str, ...]

    @property
    def violation_pct(self) -> float:
        if self.nf_count == 0:
            return 0.0
        return 100.0 * len(self.violating_instances) / self.nf_count

    def wastage_pct(self, optimum_nics: int) -> float:
        if optimum_nics == self.nic_count == 0:  # an empty fleet is optimal
            return 0.0
        if optimum_nics <= 0:
            raise InvalidInputError("optimum NIC count must be positive")
        return 100.0 * (self.nic_count - optimum_nics) / optimum_nics

    def to_dict(self) -> dict:
        return {**super().to_dict(), "violation_pct": self.violation_pct}


def evaluate_placement(fleet: Fleet) -> PlacementReport:
    """Score a fully placed fleet against the ground-truth simulator."""
    oracle = _Oracle()
    violating: list[str] = []
    for nic in fleet.nics:
        violating.extend(oracle.violations(nic.residents))
    return PlacementReport(
        nic_count=len(fleet.nics),
        nf_count=len(fleet.instances),
        violating_instances=tuple(violating),
    )


def nic_lower_bound(nf_count: int) -> int:
    """Slot-capacity lower bound on the NIC count."""
    return math.ceil(nf_count / NF_SLOTS)


def optimal_nic_count(instances: list[NfInstance]) -> int:
    """Smallest violation-free fleet size, by branch and bound.

    Feasibility of a candidate NIC load is checked with the ground-truth
    simulator and memoized per instance subset.  Exponential in the
    instance count; capped at ``OPTIMUM_MAX_INSTANCES``.
    """
    if len(instances) > OPTIMUM_MAX_INSTANCES:
        raise InvalidInputError(
            f"exhaustive search is capped at {OPTIMUM_MAX_INSTANCES} instances; "
            f"got {len(instances)} (use nic_lower_bound instead)"
        )
    if not instances:
        return 0
    oracle = _Oracle()
    feas_memo: dict[frozenset, bool] = {}

    def feasible(idx: frozenset) -> bool:
        hit = feas_memo.get(idx)
        if hit is None:
            hit = not oracle.violations([instances[i] for i in sorted(idx)])
            feas_memo[idx] = hit
        return hit

    best = len(instances)  # monopolization always works

    def search(next_i: int, bins: list[set]) -> None:
        nonlocal best
        remaining = len(instances) - next_i
        free = sum(NF_SLOTS - len(b) for b in bins)
        overflow_bins = math.ceil(max(0, remaining - free) / NF_SLOTS)
        if len(bins) + overflow_bins >= best:
            return
        if next_i == len(instances):
            best = len(bins)
            return
        for b in bins:
            if len(b) < NF_SLOTS and feasible(frozenset(b | {next_i})):
                b.add(next_i)
                search(next_i + 1, bins)
                b.remove(next_i)
        bins.append({next_i})
        search(next_i + 1, bins)
        bins.pop()

    try:
        search(0, [])
    finally:
        # The recursive closure refers to itself; dropping the name frees
        # it, and with it the oracle and its memo, now rather than at the
        # next cyclic garbage collection.
        del search
    return best


# --------------------------------------------------------------------------
# Diagnosis
# --------------------------------------------------------------------------

class TrivialDiagnosisNotice(UserWarning):
    """The bundle models a single resource; diagnosis is immediate."""


def diagnose(
    p: NfPredictor,
    traffic: TrafficProfile,
    contention: ContentionDescriptor,
) -> ResourceKind:
    """Predicted bottleneck resource at a (traffic, contention) point.

    The bottleneck is the resource whose contended stage rate is lowest:
    the binding stage of a pipeline, and the largest sojourn-time share
    under run-to-completion.  This also covers bottlenecks that bind at
    zero contention (a slow accelerator stage under heavy traffic),
    which a largest-throughput-drop rule would miss.
    """
    resources = p.resources
    if len(resources) < 2:
        warnings.warn(
            f"single-resource bundle: bottleneck is {resources[0].value} "
            "by construction",
            TrivialDiagnosisNotice,
        )
        return resources[0]
    rates = p.predict(traffic, contention).stage_rates
    return min(rates, key=lambda k: (rates[k], k.value))
