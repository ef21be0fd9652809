"""Workload ``accel-build``: bundle construction for multi-resource NFs.

A round calls ``build()`` and ``to_json()`` through the Python API for
the three multi-resource NFs of the catalog, then times held-out
``NfPredictor.predict`` calls against benchmark-NF contention
descriptors.  Most of the build time is the pure-Python round-robin
accelerator simulation; the round also exercises accelerator-parameter
inference and execution-pattern detection.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from common import median, rr_equilibrium, sha256_text, strata

#: Profiling quota per NF.
QUOTA = 100
#: Profiling seed of the bundles, the same in every run: the workload
#: seed varies the held-out points, so every run builds the same bundles
#: and the build work does not change with the seed.
PROFILE_SEED = 1
#: Held-out (traffic, contention) points per NF.
HELD_OUT = 30
#: Timed passes over the held-out points of each NF, after one untimed
#: warm-up pass.
PREDICT_PASSES = 60
#: Seeded saturating round-robin scenarios checked against the closed form.
RR_CHECKS = 6
MAX_MAPE = 6.0
MIN_ACC10 = 90.0


def _accel_stage(spec):
    (stage,) = [s for s in spec.stages if s.resource.is_accelerator]
    return stage


class AccelBuild:
    setup_repeats = 3

    def __init__(self, seed: int, work: Path):
        from nicperf.catalog import MULTI_RESOURCE_NFS

        self.seed = seed
        self.work = work
        self.nfs = MULTI_RESOURCE_NFS
        self.round_digests: list[dict] = []
        self.round_predictions: list[list[float]] = []

    def setup(self) -> None:
        """The profiling config, and the traffic and contention levels of
        the held-out points, drawn from strata so every seed spans the
        ranges alike."""
        from nicperf.catalog import ATTRIBUTE_RANGES
        from nicperf.core import TrafficProfile
        from nicperf.profiler import ProfilingConfig

        rng = np.random.default_rng([self.seed, 2])
        self.config = ProfilingConfig(
            attributes=tuple((n, lo, hi) for n, (lo, hi) in ATTRIBUTE_RANGES.items()),
            quota=QUOTA, seed=PROFILE_SEED)
        self.inputs: dict[str, list] = {}
        for nf in self.nfs:
            flows, sizes, mtbrs, cars, wsss, levels = (
                strata(rng, HELD_OUT, lo, hi) for lo, hi in
                ((1, 500_001), (64, 1501), (0.0, 1100.0), (0, 1), (0, 1), (0, 1)))
            self.inputs[nf] = [
                (TrafficProfile(flow_count=int(flows[i]), packet_size=int(sizes[i]),
                                mtbr=float(mtbrs[i])),
                 (float(cars[i]), float(wsss[i])), float(levels[i]))
                for i in range(HELD_OUT)]

    def prepare(self) -> None:
        """Co-runs every held-out point with benchmark NFs once: the
        competitor counters of the contention descriptors, and the
        simulator truth the checks compare the predictions with."""
        from nicperf.accel_model import AccelModelParams
        from nicperf.catalog import SimulatorRunner, get_nf
        from nicperf.core import DEFAULT_TRAFFIC, ResourceKind
        from nicperf.predictor import ACCEL_ATTRIBUTE, ContentionDescriptor
        from nicperf.simulator import make_benchmark_nf

        self.points: dict[str, list] = {}
        for nf in self.nfs:
            spec = get_nf(nf)
            kind = _accel_stage(spec).resource
            runner = SimulatorRunner(spec, seed=0)
            pts = []
            for i, (traffic, mem, level) in enumerate(self.inputs[nf]):
                sample = runner.sample(f"held-out-{i}", traffic,
                                       {ResourceKind.MEMORY: mem, kind: level})
                bench = make_benchmark_nf(kind, level)
                (bstage,) = bench.stages
                params = AccelModelParams(
                    queue_count=bench.queue_count, t0=bstage.base_time,
                    a=sum(bstage.traffic_coeffs.values()), resource=kind)
                desc = ContentionDescriptor(
                    counters=sample.competitor_counters,
                    accel={kind: ((params, DEFAULT_TRAFFIC.attribute(ACCEL_ATTRIBUTE[kind]),
                                   bench.offered_rate),)})
                pts.append((traffic, desc, sample.observed_throughput))
            self.points[nf] = pts

    def run_round(self) -> dict:
        from nicperf.catalog import SimulatorRunner, get_nf
        from nicperf.predictor import build

        self.bundles = {}
        texts = {}
        preds: list[float] = []
        build_s = predict_s = 0.0
        for nf in self.nfs:
            runner = SimulatorRunner(get_nf(nf), seed=0)
            t = time.perf_counter()
            bundle = build(nf, self.config, runner)
            texts[nf] = bundle.to_json()
            build_s += time.perf_counter() - t
            self.bundles[nf] = bundle

            # Each NF's predict calls follow its build, so the predict time
            # samples the host across the whole round.
            calls = [(traffic, desc) for traffic, desc, _ in self.points[nf]]
            out = [bundle.predict(traffic, desc).throughput for traffic, desc in calls]
            t = time.perf_counter()
            for _ in range(PREDICT_PASSES):
                for i, (traffic, desc) in enumerate(calls):
                    out[i] = bundle.predict(traffic, desc).throughput
            predict_s += time.perf_counter() - t
            preds += out
        self.round_digests.append(
            {f"{nf}.bundle.json": sha256_text(texts[nf] + "\n") for nf in self.nfs})
        self.round_predictions.append(preds)
        n_timed = PREDICT_PASSES * len(preds)
        return {"build_s": build_s, "predict_per_s": n_timed / predict_s,
                "attempted": 2 * len(self.nfs) + n_timed + len(preds), "failed": 0}

    @staticmethod
    def metrics(rounds: list[dict]) -> dict:
        """``build_s``: build() + to_json() over the NFs; ``query_per_s``:
        held-out predict calls per second."""
        return {
            "build_s": median([r["build_s"] for r in rounds]),
            "query_per_s": median([r["predict_per_s"] for r in rounds]),
        }

    def phases(self, rounds: list[dict]) -> dict:
        return {"predict_calls_timed": PREDICT_PASSES * sum(len(p) for p in self.points.values())}

    def digests(self) -> dict:
        return self.round_digests[-1] if self.round_digests else {}

    # -- checks ----------------------------------------------------------------

    def checks(self) -> list[str]:
        from nicperf.catalog import get_nf
        from nicperf.simulator import simulate_accelerator_rr

        errors: list[str] = []
        for nf in self.nfs:
            spec = get_nf(nf)
            stage = _accel_stage(spec)
            p = self.bundles[nf].accel_models[stage.resource]
            a_true = sum(stage.traffic_coeffs.values())
            if p.queue_count != spec.queue_count:
                errors.append(f"{nf}: inferred n={p.queue_count}, catalog {spec.queue_count}")
            if abs(p.t0 - stage.base_time) > 0.01 * stage.base_time:
                errors.append(f"{nf}: inferred t0={p.t0}, catalog {stage.base_time}")
            if abs(p.a - a_true) > 0.01 * a_true:
                errors.append(f"{nf}: inferred a={p.a}, catalog {a_true}")
            if self.bundles[nf].pattern != spec.pattern:
                errors.append(f"{nf}: detected {self.bundles[nf].pattern.value}, "
                              f"catalog {spec.pattern.value}")

        truth = [t for nf in self.nfs for _, _, t in self.points[nf]]
        preds = self.round_predictions[-1]
        errs = [abs(p - t) / t for p, t in zip(preds, truth)]
        mape = 100.0 * sum(errs) / len(errs)
        acc10 = 100.0 * sum(e <= 0.10 for e in errs) / len(errs)
        if not mape <= MAX_MAPE:
            errors.append(f"held-out MAPE {mape:.3f} > {MAX_MAPE}")
        if not acc10 >= MIN_ACC10:
            errors.append(f"held-out acc10 {acc10:.1f} < {MIN_ACC10}")

        rng = np.random.default_rng([self.seed, 3])
        for _ in range(RR_CHECKS):
            k = int(rng.integers(2, 5))
            queues = [int(rng.integers(1, 4)) for _ in range(k)]
            times = [float(rng.uniform(0.5e-6, 20e-6)) for _ in range(k)]
            specs = [(n, t, math.inf) for n, t in zip(queues, times)]
            horizon = 2500 * sum(n * n * t for n, t in zip(queues, times))
            got = simulate_accelerator_rr(specs, horizon)
            for g, want in zip(got, rr_equilibrium(queues, times)):
                if abs(g - want) > 0.02 * want:
                    errors.append(f"round-robin {specs}: {g} vs closed form {want}")

        if any(d != self.round_digests[0] for d in self.round_digests):
            errors.append("bundles differ between rounds of the same seed")
        if any(p != self.round_predictions[0] for p in self.round_predictions):
            errors.append("predictions differ between rounds of the same seed")
        return errors
