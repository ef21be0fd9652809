"""Build a prediction bundle for one NF and check it against held-out
co-runs.

Profiles the NF through the simulator under a 200-sample quota, trains
the bundle, then scores it on random (traffic, contention) points the
profiler never saw.

Usage: python3 demos/train_and_predict.py [--nf flowmonitor] [--points 40]
"""

import argparse
import time

import numpy as np

from nicperf.accel_model import AccelModelParams
from nicperf.catalog import ATTRIBUTE_RANGES, SimulatorRunner, get_nf
from nicperf.core import (
    DEFAULT_TRAFFIC,
    ResourceKind,
    TrafficProfile,
    band_accuracy,
    mape,
)
from nicperf.predictor import ACCEL_ATTRIBUTE, ContentionDescriptor, build
from nicperf.profiler import ProfilingConfig
from nicperf.simulator import make_benchmark_nf


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--nf", default="flowmonitor")
    ap.add_argument("--points", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    config = ProfilingConfig(
        attributes=tuple((n, lo, hi) for n, (lo, hi) in ATTRIBUTE_RANGES.items()),
        quota=200,
        seed=args.seed,
    )
    runner = SimulatorRunner(get_nf(args.nf), seed=args.seed)

    t0 = time.time()
    bundle = build(args.nf, config, runner)
    print(f"built {args.nf} bundle in {time.time() - t0:.1f}s "
          f"({runner.runs} simulator runs, pattern: {bundle.pattern.value})")
    for kind, params in bundle.accel_models.items():
        print(f"  inferred {kind.value}: n={params.queue_count} "
              f"t0={params.t0 * 1e6:.2f}us a={params.a:.3g}")

    rng = np.random.default_rng(args.seed + 1)
    preds, actuals = [], []
    for i in range(args.points):
        traffic = TrafficProfile(
            flow_count=int(rng.integers(1, 500_001)),
            packet_size=int(rng.integers(64, 1501)),
            mtbr=float(rng.uniform(0, 1100)),
        )
        u = float(rng.uniform())
        v = float(rng.uniform())
        levels = {ResourceKind.MEMORY: u}
        accel = {}
        for kind in bundle.accel_models:
            if kind is ResourceKind.REGEX_ACCEL and v > 0:
                levels[kind] = v
                # The same benchmark NF the runner co-runs at this level.
                bench = make_benchmark_nf(kind, v)
                (stage,) = bench.stages
                params = AccelModelParams(
                    queue_count=bench.queue_count, t0=stage.base_time,
                    a=sum(stage.traffic_coeffs.values()), resource=kind)
                attr = DEFAULT_TRAFFIC.attribute(ACCEL_ATTRIBUTE[kind])
                accel[kind] = ((params, attr, bench.offered_rate),)
            else:
                accel[kind] = ()
        sample = runner.sample(f"demo-{i}", traffic, levels)
        desc = ContentionDescriptor(counters=sample.competitor_counters,
                                    accel=accel)
        preds.append(bundle.predict(traffic, desc).throughput)
        actuals.append(sample.observed_throughput)

    print(f"\nheld-out accuracy over {args.points} points:")
    print(f"  MAPE      {mape(preds, actuals):.2f}%")
    print(f"  +/-5% acc  {band_accuracy(preds, actuals, 5.0):.1f}%")
    print(f"  +/-10% acc {band_accuracy(preds, actuals, 10.0):.1f}%")


if __name__ == "__main__":
    main()
