"""Benchmark of nicperf: one seeded workload per process.

    python3 perfbench/run.py --workload mem-cli --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports nicperf from its
``src/``.  The workload's set-up runs several times; rounds of the same
operations then repeat until ``--seconds`` would be exceeded, and the
outputs of the program are checked against references computed apart
from it.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
the same names on every workload; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer metrics
derived from the spans, which are also written to ``perfbench/out/``.
A run whose metrics are not exactly the declared ones is not correct.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("mem-cli", "accel-build", "place-fleet")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement window; rounds repeat while one more fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def import_nicperf(src: Path) -> None:
    """Puts ``src`` first on the path and imports nicperf from it, with
    BLAS pinned to one thread."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    if not (src / "nicperf" / "__init__.py").is_file():
        raise SystemExit(f"no nicperf sources under {src}")
    sys.path.insert(0, str(src))
    import nicperf
    import nicperf.apps
    import nicperf.cli  # noqa: F401

    if Path(nicperf.__file__).resolve().parent != (src / "nicperf").resolve():
        raise SystemExit(f"imported nicperf from {nicperf.__file__}, not {src}")


def make_workload(name: str, seed: int, work: Path):
    if name == "mem-cli":
        from mem_cli import MemCli as cls
    elif name == "accel-build":
        from accel_build import AccelBuild as cls
    else:
        from place_fleet import PlaceFleet as cls
    return cls(seed, work)


def _declared(trace: bool) -> dict:
    """Name -> unit of the metrics a run must report."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _per_layer(segments, traced_durations, untraced_durations, calib, errors) -> dict:
    """Per-layer metrics: counts from the first traced round (they must
    repeat exactly in every traced round), times as medians."""
    from common import median
    from tracer import layer_metrics

    setup = segments[0][1]
    per_round = [layer_metrics(setup + spans) for _, spans in segments[1:]]
    out = {}
    for name, (value, is_count) in per_round[0].items():
        if is_count:
            if any(r.get(name, (None,))[0] != value for r in per_round):
                errors.append(f"per-layer count {name} differs between traced rounds")
            out[name] = value
        else:
            out[name] = median([r[name][0] for r in per_round])
    out["host.calib_s"] = sum(calib) / len(calib)
    out["trace.overhead_pct"] = 100.0 * (
        median(traced_durations) / median(untraced_durations) - 1.0)
    return out


def run(args) -> dict:
    import_nicperf(ROOT / "src")
    from common import host_calibration, median, peak_rss_mb, run_rounds
    from tracer import Tracer, instrumented, write_spans

    import_s = time.perf_counter() - _PROCESS_START
    calib = [host_calibration()]
    declared = _declared(bool(args.trace))
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(args.workload, args.seed, work)
        tracer = Tracer()
        segments: list[tuple[str, list]] = []

        setup_times = []
        for i in range(wl.setup_repeats):
            traced = args.trace and i == wl.setup_repeats - 1
            t = time.perf_counter()
            with instrumented(tracer) if traced else contextlib.nullcontext():
                wl.setup()
            setup_times.append(time.perf_counter() - t)
        if args.trace:
            segments.append(("setup", tracer.take()))
        # The benchmark's own reference computations: once, untimed.
        wl.prepare()

        rounds: list[dict] = []
        untraced_durations: list[float] = []
        traced_durations: list[float] = []

        def one_round(i: int) -> None:
            traced = args.trace and i % 2 == 1
            t = time.perf_counter()
            with instrumented(tracer) if traced else contextlib.nullcontext():
                rounds.append(wl.run_round())
            (traced_durations if traced else untraced_durations).append(
                time.perf_counter() - t)
            if traced:
                segments.append((f"round{i}", tracer.take()))

        run_rounds(args.seconds, one_round, min_rounds=2 if args.trace else 1)

        try:
            errors = wl.checks()
        except Exception as exc:  # a check that cannot run is a failed check
            errors = [f"check raised {exc!r}"]
        calib.append(host_calibration())

        for name, digest in sorted(wl.digests().items()):
            print(f"sha256 {digest}  {name}")
        print(f"rounds {len(rounds)} (traced {len(traced_durations)}); "
              f"setup runs {', '.join(f'{s:.3f}' for s in setup_times)} s; "
              f"host.calib_s {calib[0]:.4f} -> {calib[1]:.4f}")
        print("phases " + json.dumps(wl.phases(rounds), sort_keys=True))

        if args.trace:
            metrics = _per_layer(segments, traced_durations, untraced_durations,
                                 calib, errors)
            spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
            write_spans(spans_path, segments)
            print(f"spans {spans_path.relative_to(ROOT)}; "
                  f"tracing overhead {metrics['trace.overhead_pct']:.2f}%")
        else:
            metrics = wl.metrics(rounds)
            metrics["round_s"] = median(untraced_durations)
            metrics["setup_s"] = import_s + median(setup_times)
            metrics["peak_rss_mb"] = peak_rss_mb()

        if set(metrics) != set(declared):
            errors.append(f"metrics {sorted(metrics)} are not the declared "
                          f"{sorted(declared)}")
        for e in errors:
            print(f"CHECK FAILED: {e}")
        return {
            "correct": not errors,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                        for name, unit in sorted(declared.items())},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
