"""Command-line surface.

Subcommands cover the whole workflow: simulate a scenario, profile an NF
into a dataset, train a prediction bundle, predict and evaluate, run the
placement strategies, and diagnose bottlenecks.  Every command that
writes a file also writes a run manifest beside it (inputs, outputs,
seeds, digests) so runs can be reproduced and outputs verified.

Exit codes: 0 success, 1 usage error, 2 domain error.  Domain errors
print a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .accel_model import AccelModelParams, InferenceError
from .apps import (
    OPTIMUM_MAX_INSTANCES,
    Fleet,
    NfInstance,
    PlacementReport,
    PlacementStrategy,
    SlaSpec,
    diagnose,
    evaluate_placement,
    nic_lower_bound,
    optimal_nic_count,
    place_sequence,
)
from .catalog import ATTRIBUTE_RANGES, SimulatorRunner, get_nf
from .composer import AmbiguousPatternError
from .core import (
    DEFAULT_TRAFFIC,
    Codec,
    InvalidInputError,
    ResourceKind,
    TrafficProfile,
    _read_text,
    band_accuracy,
    mape,
)
from .predictor import (
    ACCEL_ATTRIBUTE,
    ContentionDescriptor,
    ExtrapolationError,
    NfPredictor,
    build,
)
from .profiler import (
    FullProfileConfig,
    ProfilingConfig,
    QuotaExhaustedError,
    Strategy,
    adaptive_profile,
    full_profile,
    load_dataset,
    random_profile,
    save_dataset,
)
from .simulator import (
    ContentionScenario,
    ConvergenceError,
    SimulationResult,
    make_benchmark_nf,
    run_scenario,
)

REPORT_SCHEMA_VERSION = 1

_ERROR_TYPES = {
    ExtrapolationError: "out-of-domain",
    InvalidInputError: "invalid-input",
    ConvergenceError: "non-convergence",
    InferenceError: "inference-failure",
    AmbiguousPatternError: "ambiguous-pattern",
    QuotaExhaustedError: "quota-exhausted",
    FileNotFoundError: "missing-file",
    json.JSONDecodeError: "malformed-json",
}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_json(path) -> dict:
    return json.loads(_read_text(path))


def _dump_json(doc, path: Path) -> None:
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    )


def _write_manifest(command: str, args: argparse.Namespace,
                    inputs: list[str], outputs: list[str]) -> None:
    doc = {
        "schema": "run-manifest",
        "tool_version": __version__,
        "command": command,
        "arguments": {
            k: v for k, v in sorted(vars(args).items()) if k != "func"
        },
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
    }
    main_out = Path(outputs[0])
    Path(str(main_out) + ".manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
    )


@dataclasses.dataclass(frozen=True)
class _Point(Codec):
    """One point of an evaluate grid: traffic, and a benchmark contention
    level in [0, 1] per resource, which for memory may be a (car, wss) pair."""

    traffic: TrafficProfile
    levels: dict[ResourceKind, float | tuple[float, float]] = dataclasses.field(
        default_factory=dict)

    def __post_init__(self) -> None:
        for kind, level in self.levels.items():
            pair = isinstance(level, tuple)
            if (pair and kind is not ResourceKind.MEMORY) or not all(
                    0 <= x <= 1 for x in (level if pair else (level,))):
                raise InvalidInputError(
                    f"{type(self).__name__}.levels: {kind.value} needs a level in [0, 1], "
                    f"or for memory a pair of them, got {level!r}")


@dataclasses.dataclass(frozen=True)
class _Grid(Codec):
    """An evaluate test grid."""

    points: tuple[_Point, ...]


# Keyword-only: the required attribute follows the point's defaulted fields.
@dataclasses.dataclass(frozen=True, kw_only=True)
class _Sweep(_Point):
    """A diagnose sweep from the point ``traffic``/``levels`` along one
    traffic attribute: over ``values``, or ``points`` evenly spaced values
    from ``start`` to ``stop``."""

    traffic: TrafficProfile = DEFAULT_TRAFFIC
    attribute: str
    values: tuple[float, ...] | None = None
    start: float | None = None
    stop: float | None = None
    points: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.attribute not in ATTRIBUTE_RANGES:
            raise InvalidInputError(
                f"sweep attribute must be one of {', '.join(ATTRIBUTE_RANGES)}, "
                f"got {self.attribute!r}")
        if self.values is None:
            if None in (self.start, self.stop, self.points):
                raise InvalidInputError("_Sweep: needs 'values', or 'start', 'stop' and 'points'")
            lo, hi, n = self.start, self.stop, self.points
            if n < 2:
                raise InvalidInputError(f"a start/stop sweep needs points >= 2, got {n}")
            object.__setattr__(self, "values",
                               tuple(lo + (hi - lo) * i / (n - 1) for i in range(n)))
        if not self.values:
            raise InvalidInputError("the sweep has no values")
        # An absent start or stop counts as 0.
        if not all(map(math.isfinite, (*self.values, self.start or 0, self.stop or 0))):
            raise InvalidInputError("_Sweep: values, start and stop must be finite")


@dataclasses.dataclass(frozen=True)
class _PathArrival(Codec):
    """An arrival whose bundle is a file, relative to the arrivals file."""

    instance_id: str
    bundle_path: str
    traffic: TrafficProfile
    max_drop_ratio: float

    def __post_init__(self) -> None:
        SlaSpec(self.max_drop_ratio)  # raises on a ratio outside (0, 1]


@dataclasses.dataclass(frozen=True)
class _Arrivals(Codec):
    """A schedule input: inline (``bundle``) or ``bundle_path`` arrivals."""

    arrivals: tuple[dict, ...]


@dataclasses.dataclass(frozen=True)
class _ScoredReport(PlacementReport):
    """A schedule-eval output: the report, and the optimum when computed."""

    optimum_nic_count: int | None = None


def _bench_descriptor(bundle: NfPredictor, levels: dict, counters) -> ContentionDescriptor:
    """Contention descriptor for co-running against benchmark NFs."""
    accel = {}
    for kind in bundle.accel_models:
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


def _config_from_dataset(dataset) -> ProfilingConfig:
    cfg = dataset.config
    if "attributes" in cfg:
        return ProfilingConfig.from_dict(cfg)
    # Full-grid datasets carry the grid instead of attribute bounds.
    full = FullProfileConfig.from_dict(cfg)
    return ProfilingConfig(
        attributes=tuple((n, min(v), max(v)) for n, v in full.grid.items()),
        seed=full.seed,
    )


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    scenario = ContentionScenario.from_dict(_load_json(args.scenario))
    result = run_scenario(scenario)
    _dump_json({"schema": "simulation-result", **result.to_dict()}, args.out)
    _write_manifest("simulate", args, [args.scenario], [args.out])
    return 0


def cmd_profile(args) -> int:
    runner = SimulatorRunner(get_nf(args.nf))
    full = args.strategy == Strategy.FULL
    config = (FullProfileConfig if full else ProfilingConfig).from_dict(_load_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    fn = (full_profile if full else
          adaptive_profile if args.strategy == Strategy.ADAPTIVE else random_profile)
    save_dataset(fn(args.nf, config, runner), args.out)
    _write_manifest("profile", args, [args.config], [args.out])
    return 0


def cmd_train(args) -> int:
    runner = SimulatorRunner(get_nf(args.nf))
    dataset = load_dataset(args.dataset)
    if dataset.nf_name != args.nf:
        raise InvalidInputError(
            f"dataset was profiled for {dataset.nf_name!r}, not {args.nf!r}"
        )
    config = _config_from_dataset(dataset)
    bundle = build(args.nf, config, runner, dataset=dataset)
    Path(args.out).write_text(bundle.to_json() + "\n")
    _write_manifest("train", args, [args.dataset], [args.out])
    return 0


def cmd_predict(args) -> int:
    bundle = NfPredictor.from_json(_read_text(args.bundle))
    traffic = TrafficProfile.from_dict(_load_json(args.traffic))
    contention = ContentionDescriptor.from_dict(_load_json(args.contention))
    result = bundle.predict(traffic, contention)
    doc = {"schema": "prediction", "nf": bundle.nf_name, **result.to_dict()}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if args.out:
        Path(args.out).write_text(text + "\n")
        _write_manifest("predict", args,
                        [args.bundle, args.traffic, args.contention], [args.out])
    else:
        print(text)
    return 0


def _evaluator(bundle_text: str) -> tuple[NfPredictor, SimulatorRunner]:
    bundle = NfPredictor.from_json(bundle_text)
    return bundle, SimulatorRunner(get_nf(bundle.nf_name))


def _evaluate_point(bundle: NfPredictor, runner: SimulatorRunner,
                    point: _Point) -> tuple[float, float]:
    """One grid point -> (actual, predicted).

    The traffic is checked against the bundle's profiled domain before
    the simulator runs, since a simulation outside it need not return
    (``mtbr`` 1e300 under regex contention does not).
    """
    bundle.solo_table.check_bounds(point.traffic)
    sample = runner.sample("eval", point.traffic, point.levels)
    desc = _bench_descriptor(bundle, point.levels, sample.competitor_counters)
    pred = bundle.predict(point.traffic, desc)
    return sample.observed_throughput, pred.throughput


#: The bundle and runner of an ``evaluate --jobs`` worker process, set
#: once by the pool's initializer.
_worker_evaluator: tuple | None = None


def _init_worker(bundle_text: str) -> None:
    global _worker_evaluator
    _worker_evaluator = _evaluator(bundle_text)


def _worker_point(point: _Point) -> tuple[float, float]:
    return _evaluate_point(*_worker_evaluator, point)


def cmd_evaluate(args) -> int:
    bundle_text = _read_text(args.bundle)
    # Parsed here also with --jobs, so a bad bundle fails before any worker starts.
    evaluator = _evaluator(bundle_text)
    doc = _load_json(args.testgrid)
    points = _Grid.from_dict(doc).points
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_init_worker,
                                 initargs=(bundle_text,)) as pool:
            pairs = list(pool.map(_worker_point, points))
    else:
        pairs = [_evaluate_point(*evaluator, p) for p in points]

    actuals = [a for a, _ in pairs]
    preds = [p for _, p in pairs]
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["row_type", "flow_count", "packet_size", "mtbr", "levels",
                    "actual", "predicted", "error_pct"])
        # The traffic and levels cells echo the file's own values.
        for point, (actual, pred) in zip(doc["points"], pairs):
            t = point["traffic"]
            w.writerow([
                "point", t.get("flow_count"), t.get("packet_size"), t.get("mtbr"),
                json.dumps(point.get("levels", {}), sort_keys=True),
                f"{actual:.6g}", f"{pred:.6g}",
                f"{100.0 * abs(pred - actual) / actual:.4f}",
            ])
        w.writerow(["summary_mape", "", "", "", "", "", "",
                    f"{mape(preds, actuals):.4f}"])
        w.writerow(["summary_acc5", "", "", "", "", "", "",
                    f"{band_accuracy(preds, actuals, 5.0):.2f}"])
        w.writerow(["summary_acc10", "", "", "", "", "", "",
                    f"{band_accuracy(preds, actuals, 10.0):.2f}"])
    _write_manifest("evaluate", args, [args.bundle, args.testgrid], [args.out])
    return 0


def _load_arrivals(path: str) -> list[NfInstance]:
    base = Path(path).parent
    parsed: dict[Path, NfPredictor] = {}
    out = []
    for entry in _Arrivals.from_dict(_load_json(path)).arrivals:
        if "bundle_path" not in entry:
            out.append(NfInstance.from_dict(entry))
            continue
        arrival = _PathArrival.from_dict(entry)
        bpath = base / arrival.bundle_path  # an absolute bundle_path stays as it is
        if bpath not in parsed:
            parsed[bpath] = NfPredictor.from_json(_read_text(bpath))
        out.append(NfInstance(arrival.instance_id, parsed[bpath], arrival.traffic,
                              SlaSpec(arrival.max_drop_ratio)))
    return out


def cmd_schedule(args) -> int:
    arrivals = _load_arrivals(args.arrivals)
    fleet = place_sequence(arrivals, PlacementStrategy(args.strategy))
    _dump_json({"schema": "fleet", **fleet.to_dict()}, args.out)
    _write_manifest("schedule", args, [args.arrivals], [args.out])
    return 0


def cmd_schedule_eval(args) -> int:
    fleet = Fleet.from_dict(_load_json(args.fleet))
    report = evaluate_placement(fleet)
    out_doc = {"schema": "placement-report", **report.to_dict()}
    n = report.nf_count
    if args.optimum and n <= OPTIMUM_MAX_INSTANCES:
        opt = optimal_nic_count(fleet.instances)
        out_doc["optimum_nic_count"] = opt
        out_doc["wastage_pct"] = report.wastage_pct(opt)
    else:
        out_doc["nic_lower_bound"] = nic_lower_bound(n)
    text = json.dumps(out_doc, sort_keys=True, separators=(",", ":"))
    if args.out:
        Path(args.out).write_text(text + "\n")
        _write_manifest("schedule-eval", args, [args.fleet], [args.out])
    else:
        print(text)
    return 0


def cmd_diagnose(args) -> int:
    bundle = NfPredictor.from_json(_read_text(args.bundle))
    sweep = _Sweep.from_dict(_load_json(args.sweep))
    attr, levels = sweep.attribute, sweep.levels
    runner = SimulatorRunner(get_nf(bundle.nf_name))

    rows = []
    agree = 0
    for v in sweep.values:
        traffic = sweep.traffic.replace(**{attr: int(round(v)) if attr != "mtbr" else v})
        result = runner.run(traffic, levels)
        truth = result.bottleneck[bundle.nf_name]
        sample = runner.sample(f"diag-{v:g}", traffic, levels)
        desc = _bench_descriptor(bundle, levels, sample.competitor_counters)
        pred = diagnose(bundle, traffic, desc)
        agree += pred == truth
        rows.append((v, pred.value, truth.value, pred == truth))

    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["row_type", attr, "predicted_bottleneck",
                    "simulated_bottleneck", "agree"])
        for v, p, t, ok in rows:
            w.writerow(["point", f"{v:g}", p, t, str(ok).lower()])
        w.writerow(["summary_agreement_pct", "", "", "",
                    f"{100.0 * agree / len(rows):.2f}"])
    _write_manifest("diagnose", args, [args.bundle, args.sweep], [args.out])
    return 0


def _summarize_input(path: Path) -> dict:
    """One summary row per report input, keyed by its schema."""
    if path.suffix == ".csv":
        rows = list(csv.reader(_read_text(path).splitlines()))
        summary = {r[0]: r[-1] for r in rows[1:] if r and r[0].startswith("summary_")}
        kind = "evaluation" if "summary_mape" in summary else "diagnosis"
        return {"input": path.name, "kind": kind, **summary}
    doc = _load_json(path)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == "placement-report":
        report = _ScoredReport.from_dict(doc)
        out = {"input": path.name, "kind": "placement",
               "nic_count": report.nic_count, "nf_count": report.nf_count,
               "violation_pct": f"{report.violation_pct:.4f}"}
        if report.optimum_nic_count is not None:
            out["wastage_pct"] = f"{report.wastage_pct(report.optimum_nic_count):.4f}"
        return out
    if schema == "simulation-result":
        return {"input": path.name, "kind": "simulation",
                "nf_count": len(SimulationResult.from_dict(doc).per_nf_throughput)}
    raise InvalidInputError(f"unrecognized report input {path}")


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = [_summarize_input(Path(p)) for p in args.inputs]
    fields = ["schema_version", "input", "kind"]
    for s in summaries:
        for k in s:
            if k not in fields:
                fields.append(k)
    out_path = out_dir / "summary.csv"
    with out_path.open("w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields, restval="")
        w.writeheader()
        for s in summaries:
            w.writerow({"schema_version": REPORT_SCHEMA_VERSION, **s})
    _write_manifest("report", args, list(args.inputs), [str(out_path)])
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="nicperf", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        return p

    p = add("simulate", cmd_simulate, help="run one ground-truth scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)

    p = add("profile", cmd_profile, help="collect a training dataset")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--nf", required=True)
    p.add_argument("--strategy", required=True, choices=[s.value for s in Strategy])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, help="build a prediction bundle")
    p.add_argument("--nf", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = add("predict", cmd_predict, help="one prediction with breakdown")
    p.add_argument("--bundle", required=True)
    p.add_argument("--traffic", required=True)
    p.add_argument("--contention", required=True)
    p.add_argument("--out")

    p = add("evaluate", cmd_evaluate, help="accuracy table on a test grid")
    p.add_argument("--bundle", required=True)
    p.add_argument("--testgrid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="max concurrent worker processes")

    p = add("schedule", cmd_schedule, help="place an arrival sequence")
    p.add_argument("--arrivals", required=True)
    p.add_argument("--strategy", required=True,
                   choices=[s.value for s in PlacementStrategy])
    p.add_argument("--out", required=True)

    p = add("schedule-eval", cmd_schedule_eval,
            help="score a placed fleet against the simulator")
    p.add_argument("--fleet", required=True)
    p.add_argument("--optimum", action="store_true",
                   help="also compute the exhaustive optimum "
                        f"(<= {OPTIMUM_MAX_INSTANCES} NFs)")
    p.add_argument("--out")

    p = add("diagnose", cmd_diagnose, help="bottleneck sweep table")
    p.add_argument("--bundle", required=True)
    p.add_argument("--sweep", required=True)
    p.add_argument("--out", required=True)

    p = add("report", cmd_report, help="aggregate outputs into tables")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_ERROR_TYPES) as exc:
        for etype, label in _ERROR_TYPES.items():
            if isinstance(exc, etype):
                break
        print(json.dumps({"error": {"type": label, "message": str(exc)}},
                         sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
