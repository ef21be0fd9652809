"""End-to-end training and prediction pipeline.

build() turns an opaque NF handle (a profiling runner) into a serialized
predictor bundle: per-resource models, the execution pattern, a solo
throughput table, and a counter footprint for placement decisions.
predict() evaluates the bundle at a (traffic, contention) point by
computing per-resource throughput drops and composing them according to
the NF's execution pattern.

The black-box memory model is trained on the memory-path rate rather
than raw end-to-end throughput: each profiled row's accelerator-stage
sojourn (known analytically once accelerator parameters are inferred) is
stripped out first, so the learned surface does not depend on
accelerator-bound traffic attributes.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from . import mem_model
from .accel_model import AccelModelParams, infer_params, predict_at_offered_load
from .composer import (
    PerResourceDrops,
    compose_pipeline,
    compose_rates,
    compose_rtc,
    detect_pattern,
)
from .core import (
    DEFAULT_TRAFFIC,
    Codec,
    CounterSnapshot,
    ExecutionPattern,
    InvalidInputError,
    ResourceKind,
    TrafficProfile,
    ZERO_COUNTERS,
)
from .mem_model import GbrHyperParams, GbrModel
from .profiler import ProfilingConfig, adaptive_profile, _make_traffic, _resolve_eps

__all__ = [
    "ACCEL_ATTRIBUTE",
    "ContentionDescriptor",
    "ExtrapolationError",
    "PredictionResult",
    "NfPredictor",
    "build",
]

BUNDLE_SCHEMA = "nf-predictor"
BUNDLE_VERSION = 1

#: Traffic attribute that modulates each accelerator's per-request time.
ACCEL_ATTRIBUTE = {
    ResourceKind.REGEX_ACCEL: "mtbr",
    ResourceKind.COMPRESSION_ACCEL: "packet_size",
}

#: Benchmark settings (queue count, per-request time) for queue-count
#: inference; known competitor costs spanning a wide range.
_INFER_BENCH = ((1, 5e-6), (2, 8e-6), (1, 20e-6))

#: Attribute grids for the per-request-time regression.
_INFER_ATTR_GRID = {
    "mtbr": (0.0, 200.0, 400.0, 700.0, 1100.0),
    "packet_size": (64.0, 400.0, 800.0, 1200.0, 1500.0),
}

#: Solo-sweep resolution per attribute axis.
_AXIS_POINTS = {"flow_count": 129}
_AXIS_POINTS_DEFAULT = 65


class ExtrapolationError(RuntimeError):
    """Requested traffic lies outside the profiled attribute box."""


@dataclasses.dataclass(frozen=True)
class _Competitor(Codec):
    """Wire form of one accelerator competitor in a ContentionDescriptor;
    an absent offered rate means always backlogged."""

    params: AccelModelParams
    attr_value: float
    offered_rate: float = math.inf


@dataclasses.dataclass(frozen=True)
class _ContentionWire(Codec):
    """Wire form of a ContentionDescriptor."""

    counters: CounterSnapshot = ZERO_COUNTERS
    accel: dict[ResourceKind, tuple[_Competitor, ...]] = dataclasses.field(
        default_factory=dict)


@dataclasses.dataclass(frozen=True)
class ContentionDescriptor:
    """Competitor contention as seen by one target NF.

    counters aggregates (sums) the competitors' memory-side counters.
    accel maps each accelerator kind to the competitors using it, as
    (params, traffic attribute value, offered rate) triples; offered
    rate may be infinite for an always-backlogged competitor, but not
    NaN or negative, and the attribute value must be finite.
    """

    counters: CounterSnapshot = ZERO_COUNTERS
    accel: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        norm = {}
        for kind, comps in self.accel.items():
            kind = ResourceKind(kind)
            norm[kind] = tuple(
                (p, float(attr), float(rate)) for p, attr, rate in comps
            )
            for _, attr, rate in norm[kind]:
                if not math.isfinite(attr):
                    raise InvalidInputError(
                        f"{kind.value} attribute value must be finite, got {attr}"
                    )
                if not rate >= 0:
                    raise InvalidInputError(
                        f"{kind.value} offered rate must be non-negative, got {rate}"
                    )
        object.__setattr__(self, "accel", norm)

    def to_dict(self) -> dict:
        accel = {kind: tuple(_Competitor(*c) for c in comps)
                 for kind, comps in self.accel.items()}
        return _ContentionWire(self.counters, accel).to_dict()

    @classmethod
    def from_dict(cls, d: dict) -> "ContentionDescriptor":
        wire = _ContentionWire.from_dict(d)
        accel = {kind: tuple((c.params, c.attr_value, c.offered_rate) for c in comps)
                 for kind, comps in wire.accel.items()}
        return cls(wire.counters, accel)


@dataclasses.dataclass(frozen=True)
class PredictionResult(Codec):
    throughput: float
    t_solo: float
    drops: dict[ResourceKind, float]
    stage_rates: dict[ResourceKind, float]
    saturated: bool = False


@dataclasses.dataclass(frozen=True, eq=False)
class _Curve(Codec):
    """A piece-wise-linear curve through the points ``(x[i], y[i])``,
    written ``{"x": [...], "y": [...]}``.

    Both are float arrays of one non-zero length, finite throughout, with
    ``x`` ascending (ties allowed).  The curve indexes as its ``(x, y)``
    pair.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        xs = np.asarray(self.x, dtype=float)
        ys = np.asarray(self.y, dtype=float)
        if len(xs) != len(ys) or not len(xs):
            raise InvalidInputError(
                f"_Curve: x and y need equal non-zero lengths, got {len(xs)} and {len(ys)}")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise InvalidInputError("_Curve: x and y must be finite")
        if (np.diff(xs) < 0).any():
            raise InvalidInputError("_Curve: x must be ascending")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)

    def __getitem__(self, i: int) -> np.ndarray:
        return (self.x, self.y)[i]

    def at(self, v: float) -> float:
        return float(np.interp(v, self.x, self.y))


@dataclasses.dataclass(frozen=True, eq=False)
class _SoloTable(Codec):
    """Memory-path solo rate as a multiplicative per-axis interpolation.

    Each axis is the rate curve measured while sweeping one attribute
    with the others at their defaults; the joint rate is the finite,
    positive base rate scaled by each axis's relative effect.  Exact when
    the attribute effects are multiplicatively separable, which
    piece-wise-linear cache behavior is.  bounds holds each profiled
    attribute's (min, max).
    """

    base_rate: float
    axes: dict[str, _Curve]
    bounds: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        if not 0 < self.base_rate < math.inf:
            raise InvalidInputError(
                f"_SoloTable: base_rate must be finite and positive, got {self.base_rate}")

    def check_bounds(self, traffic: TrafficProfile) -> None:
        for name, (lo, hi) in self.bounds.items():
            v = traffic.attribute(name)
            if not lo <= v <= hi:
                raise ExtrapolationError(
                    f"{name}={v} outside the profiled range [{lo}, {hi}]"
                )

    def rate(self, traffic: TrafficProfile) -> float:
        out = self.base_rate
        for name, curve in self.axes.items():
            out *= curve.at(traffic.attribute(name)) / self.base_rate
        return out


@dataclasses.dataclass(frozen=True, eq=False)
class _Footprint(Codec):
    """The NF's own observable counter emission, for placement checks.

    Rates scale with achieved throughput; the working set follows the
    flow count (the ``wss_axis`` curve, interpolated from solo sweeps).
    Main-memory traffic per cache reference grows with the combined
    working set of the NIC: the ``miss_curve`` over that working set is
    recovered from the profiled co-run rows, and is None, falling back to
    the solo miss fraction ``mem_frac``, when the rows gave none.
    """

    car_per_pkt: float
    irt_per_pkt: float
    mem_frac: float
    wss_axis: _Curve
    miss_curve: _Curve | None = None

    def wss(self, traffic: TrafficProfile) -> float:
        return self.wss_axis.at(traffic.flow_count)

    def miss_fraction(self, total_wss: float) -> float:
        """Share of cache references that go to main memory on a NIC whose
        combined working set is ``total_wss``."""
        if self.miss_curve is not None:
            return self.miss_curve.at(total_wss)
        return self.mem_frac

    def counters(self, wss: float, throughput: float,
                 frac: float) -> CounterSnapshot:
        """Counters at ``throughput`` with own working set ``wss`` and miss
        fraction ``frac`` (see ``miss_fraction``)."""
        car = self.car_per_pkt * throughput
        irt = self.irt_per_pkt * throughput
        mem = car * frac
        return CounterSnapshot(
            ipc=irt / 5e9,
            irt=irt,
            l2crd=car * 0.6,
            l2cwr=car * 0.4,
            memrd=mem * 0.7,
            memwr=mem * 0.3,
            wss=wss,
        )


@dataclasses.dataclass
class NfPredictor:
    """Serializable prediction bundle for one NF."""

    nf_name: str
    pattern: ExecutionPattern
    solo_table: _SoloTable
    mem_model: GbrModel | None
    accel_models: dict
    footprint: _Footprint
    metadata: dict

    @property
    def resources(self) -> tuple[ResourceKind, ...]:
        kinds = list(self.accel_models)
        if self.mem_model is not None:
            kinds.append(ResourceKind.MEMORY)
        return tuple(sorted(kinds, key=lambda k: k.value))

    def _solo_rates(self, traffic: TrafficProfile) -> list[float]:
        """Uncontended memory-path rate, then each accelerator's solo rate
        in ``accel_models`` order."""
        self.solo_table.check_bounds(traffic)
        rates = [self.solo_table.rate(traffic)]
        for kind, params in self.accel_models.items():
            rates.append(params.solo_rate(traffic.attribute(ACCEL_ATTRIBUTE[kind])))
        return rates

    def t_solo(self, traffic: TrafficProfile) -> float:
        """Predicted uncontended end-to-end throughput."""
        return compose_rates(self.pattern, self._solo_rates(traffic))

    # -- prediction ----------------------------------------------------------

    def predict(
        self, traffic: TrafficProfile, contention: ContentionDescriptor
    ) -> PredictionResult:
        """Predicted throughput, with the per-resource contended rates
        (``stage_rates``) and the drops composed from them."""
        solo = self._solo_rates(traffic)
        t_solo = compose_rates(self.pattern, solo)
        rates: dict[ResourceKind, float] = {}
        if self.mem_model is not None:
            # The wss feature is the combined working set: competitors'
            # plus the target's own (cache pressure is shared).
            counters = dataclasses.replace(
                contention.counters,
                wss=contention.counters.wss + self.footprint.wss(traffic),
            )
            feats = mem_model.feature_vector(counters, traffic)
            rates[ResourceKind.MEMORY] = max(
                1e-9, min(mem_model.predict(self.mem_model, feats), solo[0]),
            )
        for kind, params in self.accel_models.items():
            if kind not in contention.accel:
                raise InvalidInputError(
                    f"missing contention descriptor for {kind.value}"
                )
            attr = traffic.attribute(ACCEL_ATTRIBUTE[kind])
            rates[kind] = predict_at_offered_load(
                params, attr, contention.accel[kind]
            )

        # Per-resource drop: solo end-to-end minus the end-to-end rate with
        # only that resource contended (the others at their solo rates).
        solo_by_kind = list(zip(self.accel_models, solo[1:]))
        if self.mem_model is not None:
            solo_by_kind.insert(0, (ResourceKind.MEMORY, solo[0]))
        drops: dict[ResourceKind, float] = {}
        saturated = False
        for kind, r_cont in rates.items():
            alone = [r_cont if k is kind else r for k, r in solo_by_kind]
            t_alone = compose_rates(self.pattern, alone)
            drop = max(0.0, t_solo - t_alone)
            if drop >= t_solo:
                drop = 0.99 * t_solo
                saturated = True
            drops[kind] = drop

        if len(drops) == 1:
            ((kind, drop),) = drops.items()
            throughput = t_solo - drop
        else:
            d = PerResourceDrops(t_solo, drops)
            if self.pattern is ExecutionPattern.PIPELINE:
                throughput = compose_pipeline(d)
            else:
                throughput = compose_rtc(d)
        throughput = min(throughput, t_solo)
        return PredictionResult(
            throughput=max(throughput, 0.0),
            t_solo=t_solo,
            drops=drops,
            stage_rates=rates,
            saturated=saturated,
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": BUNDLE_SCHEMA,
            "schema_version": BUNDLE_VERSION,
            "nf": self.nf_name,
            "pattern": self.pattern.value,
            "solo_table": self.solo_table.to_dict(),
            "mem_model": None if self.mem_model is None else self.mem_model.to_dict(),
            "accel_models": {
                kind.value: p.to_dict() for kind, p in self.accel_models.items()
            },
            "footprint": self.footprint.to_dict(),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NfPredictor":
        if not isinstance(doc, dict) or doc.get("schema") != BUNDLE_SCHEMA:
            raise InvalidInputError("not a predictor bundle file")
        where = "NfPredictor"
        for key in ("nf", "pattern", "solo_table", "footprint"):
            if key not in doc:
                raise InvalidInputError(f"{where}: missing key {key!r}")
        pattern = doc["pattern"]
        try:
            pattern = ExecutionPattern(pattern)
        except ValueError:
            raise InvalidInputError(
                f"{where}: unknown pattern {pattern!r}, expected one of "
                f"{[p.value for p in ExecutionPattern]}"
            ) from None
        accels = {k.value: k for k in ACCEL_ATTRIBUTE}
        accel_doc = doc.get("accel_models", {})
        if not isinstance(accel_doc, dict):
            raise InvalidInputError(
                f"{where}.accel_models: expected an object, got {accel_doc!r}")
        accel_models = {}
        for k, v in accel_doc.items():
            if k not in accels:
                raise InvalidInputError(
                    f"{where}.accel_models: unknown resource {k!r}, "
                    f"expected one of {sorted(accels)}"
                )
            accel_models[accels[k]] = AccelModelParams.from_dict(v)
        mem = doc.get("mem_model")
        return cls(
            nf_name=doc["nf"],
            pattern=pattern,
            solo_table=_SoloTable.from_dict(doc["solo_table"]),
            mem_model=None if mem is None else GbrModel.from_dict(mem),
            accel_models=accel_models,
            footprint=_Footprint.from_dict(doc["footprint"]),
            metadata=doc.get("metadata", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "NfPredictor":
        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------------
# Bundle construction
# --------------------------------------------------------------------------

def _touched_resources(runner, eps0: float) -> list[ResourceKind]:
    base = runner.solo_throughput(DEFAULT_TRAFFIC)
    touched = []
    for kind in (ResourceKind.MEMORY, ResourceKind.REGEX_ACCEL,
                 ResourceKind.COMPRESSION_ACCEL):
        contended = runner.throughput(DEFAULT_TRAFFIC, {kind: 1.0})
        if base - contended > eps0:
            touched.append(kind)
    return touched


def _infer_accel(runner, kind: ResourceKind) -> AccelModelParams:
    attr = ACCEL_ATTRIBUTE[kind]

    def corun(n_bench: int, t_bench: float) -> float:
        return runner.accel_corun(kind, n_bench, t_bench)

    def solo(value: float) -> float:
        return runner.accel_stage_solo(kind, _make_traffic({attr: value}))

    return infer_params(corun, solo, _INFER_BENCH, _INFER_ATTR_GRID[attr], kind)


def _mem_path_rate(e2e: float, pattern: ExecutionPattern,
                   accel_solo: list[float]) -> float | None:
    """Strip known accelerator-stage sojourn from an end-to-end rate.

    Returns None when the memory path is censored (a pipeline point where
    an accelerator stage is the binding one).
    """
    if not accel_solo:
        return e2e
    if pattern is ExecutionPattern.PIPELINE:
        if e2e >= 0.98 * min(accel_solo):
            return None
        return e2e
    inv = 1.0 / e2e - sum(1.0 / r for r in accel_solo)
    if inv <= 0:
        return None
    return 1.0 / inv


def build(
    nf_name: str,
    config: ProfilingConfig,
    runner,
    *,
    dataset=None,
) -> NfPredictor:
    """Profile, train, and assemble the prediction bundle for one NF.

    Deterministic given the config seed.  Stages: resource touch
    detection, accelerator parameter inference, execution-pattern
    detection, adaptive memory-contention profiling plus model training,
    solo-throughput sweeps, and counter-footprint calibration.  Passing a
    previously collected ProfilingDataset skips the profiling stage.
    """
    t_solo_default = runner.solo_throughput(DEFAULT_TRAFFIC)
    eps0, _ = _resolve_eps(config, runner)
    touched = _touched_resources(runner, eps0)
    if not touched:
        raise InvalidInputError(
            f"{nf_name} shows no contention sensitivity; nothing to model"
        )

    accel_models = {
        kind: _infer_accel(runner, kind) for kind in touched if kind.is_accelerator
    }

    if len(touched) == 1:
        pattern = ExecutionPattern.RUN_TO_COMPLETION
        pattern_report = None
    else:
        report = detect_pattern(runner.probe, touched)
        pattern = report.pattern
        pattern_report = {"pipeline_mape": report.pipeline_mape,
                          "rtc_mape": report.rtc_mape}

    # Attribute bounds from the profiling config.
    bounds = {name: (lo, hi) for name, lo, hi in config.attributes}
    accel_bound = {ACCEL_ATTRIBUTE[k] for k in accel_models}

    # Pin accelerator-bound attributes low while sweeping the others, so
    # accelerator stages are as fast as possible and the memory path is
    # observable; strip their (analytically known) sojourn afterwards.
    pins = {a: bounds[a][0] for a in accel_bound if a in bounds}

    def accel_solos(traffic: TrafficProfile) -> list[float]:
        return [p.solo_rate(traffic.attribute(ACCEL_ATTRIBUTE[k]))
                for k, p in accel_models.items()]

    def mem_rate_at(values: dict[str, float]) -> tuple[TrafficProfile, float]:
        traffic = _make_traffic({**pins, **values})
        e2e = runner.solo_throughput(traffic)
        rate = _mem_path_rate(e2e, pattern, accel_solos(traffic))
        if rate is None:
            # Accelerator-censored pipeline point; fall back to the bound.
            rate = e2e
        return traffic, rate

    base_traffic, base_rate = mem_rate_at({})
    axes: dict[str, _Curve] = {}
    wss_axis: _Curve | None = None
    for name, lo, hi in config.attributes:
        if name in accel_bound:
            continue
        n_pts = _AXIS_POINTS.get(name, _AXIS_POINTS_DEFAULT)
        xs = list(np.linspace(lo, hi, n_pts))
        ys = []
        wss_ys = []
        for x in xs:
            traffic, rate = mem_rate_at({name: x})
            ys.append(rate)
            if name == "flow_count":
                wss_ys.append(runner.own_counters(traffic).wss)
        axes[name] = _Curve(xs, ys)
        if name == "flow_count":
            wss_axis = _Curve(xs, wss_ys)
    solo_table = _SoloTable(base_rate, axes, bounds)
    solo_counters = runner.own_counters(DEFAULT_TRAFFIC)
    if wss_axis is None:
        wss_axis = _Curve([1.0], [solo_counters.wss])

    # Black-box memory model from adaptive profiling, retargeted to the
    # memory-path rate.
    gbr = None
    dataset_info: dict = {}
    if ResourceKind.MEMORY in touched:
        if dataset is None:
            dataset = adaptive_profile(nf_name, config, runner)
        rows = []
        for row in dataset.rows:
            rate = _mem_path_rate(row.observed_throughput, pattern,
                                  accel_solos(row.traffic))
            if rate is None:
                continue
            # Same combined-working-set convention as at predict time.
            counters = dataclasses.replace(
                row.competitor_counters,
                wss=row.competitor_counters.wss + wss_axis.at(row.traffic.flow_count),
            )
            rows.append(dataclasses.replace(
                row, observed_throughput=rate, competitor_counters=counters,
            ))
        gbr = mem_model.train(rows)
        dataset_info = {
            "strategy": dataset.strategy.value,
            "samples_used": dataset.samples_used,
            "rows_trained": len(rows),
            "pruned_attributes": list(dataset.pruned_attributes),
        }

    car_pp = solo_counters.car / t_solo_default
    irt_pp = solo_counters.irt / t_solo_default
    mem_frac = ((solo_counters.memrd + solo_counters.memwr) / solo_counters.car
                if solo_counters.car > 0 else 0.0)

    # Miss fraction as a function of the NIC's combined working set,
    # recovered from the profiled co-run rows (competitor wss plus the
    # target's own at the row's traffic).
    miss_curve = None
    if dataset is not None:
        pts = []
        for row in dataset.rows:
            c = row.competitor_counters
            if c.car <= 0:
                continue
            own = wss_axis.at(row.traffic.flow_count)
            pts.append((c.wss + own, (c.memrd + c.memwr) / c.car))
        if len(pts) >= 2:
            pts.sort()
            miss_curve = _Curve([x for x, _ in pts], [y for _, y in pts])
    footprint = _Footprint(car_pp, irt_pp, mem_frac, wss_axis, miss_curve)

    metadata = {
        "version": BUNDLE_VERSION,
        "config": config.to_dict(),
        "hyper": GbrHyperParams().to_dict(),
        "eps0": eps0,
        "touched": [k.value for k in touched],
        "pattern_report": pattern_report,
        "dataset": dataset_info,
        "t_solo_default": t_solo_default,
    }
    return NfPredictor(
        nf_name=nf_name,
        pattern=pattern,
        solo_table=solo_table,
        mem_model=gbr,
        accel_models=accel_models,
        footprint=footprint,
        metadata=metadata,
    )
