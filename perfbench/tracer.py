"""In-memory span recorder that wraps nicperf's public entry points.

A traced run installs a wrapper around each entry point listed in
``LAYER_POINTS`` for the duration of a ``with instrumented(tracer):``
block and restores the originals afterwards.  Nothing inside ``src/``
changes: the wrappers are installed on every nicperf module attribute
that holds the wrapped object, so calls through ``from .x import f``
bindings are seen too.

A span is ``[id, name, parent_id, start, end, attrs]``; the parent is
the innermost open span when the call starts.  ``layer_metrics`` turns a
list of spans into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Span fields.
ID, NAME, PARENT, START, END, ATTRS = range(6)


class Tracer:
    """Records spans in memory; ``spans`` is cleared per segment."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 0

    def take(self) -> list[list]:
        """Returns the spans recorded so far and starts a new segment."""
        if self._stack:
            raise RuntimeError("cannot cut a segment while spans are open")
        out, self.spans = self.spans, []
        return out

    def wrap(self, fn: Callable, name: str,
             attrs: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._next_id, name,
                    self._stack[-1] if self._stack else None,
                    self.clock(), None, None]
            self._next_id += 1
            self.spans.append(span)
            self._stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[END] = self.clock()
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced


@dataclass(frozen=True)
class Point:
    """One wrapped entry point: ``module`` + dotted ``attr`` -> span name."""

    name: str
    module: str
    attr: str
    attrs: Callable | None = None


def _samples_used(args, dataset) -> dict:
    return {"samples": dataset.samples_used}


def _train_rows(args, model) -> dict:
    return {"rows": len(args[0])}


LAYER_POINTS = (
    Point("cli.profile", "nicperf.cli", "cmd_profile"),
    Point("cli.train", "nicperf.cli", "cmd_train"),
    Point("cli.evaluate", "nicperf.cli", "cmd_evaluate"),
    Point("predictor.build", "nicperf.predictor", "build"),
    Point("predictor.to_json", "nicperf.predictor", "NfPredictor.to_json"),
    Point("predictor.from_json", "nicperf.predictor", "NfPredictor.from_json"),
    Point("predictor.predict", "nicperf.predictor", "NfPredictor.predict"),
    Point("profiler.adaptive", "nicperf.profiler", "adaptive_profile",
          _samples_used),
    Point("mem_model.train", "nicperf.mem_model", "train", _train_rows),
    Point("mem_model.predict", "nicperf.mem_model", "predict"),
    Point("accel_model.infer", "nicperf.accel_model", "infer_params"),
    Point("accel_model.offered_load", "nicperf.accel_model",
          "predict_at_offered_load"),
    Point("composer.detect", "nicperf.composer", "detect_pattern"),
    Point("catalog.runner", "nicperf.catalog", "SimulatorRunner._execute"),
    Point("simulator.scenario", "nicperf.simulator", "run_scenario"),
    Point("simulator.rr", "nicperf.simulator", "simulate_accelerator_rr"),
    Point("apps.place", "nicperf.apps", "place"),
    Point("apps.predict_group", "nicperf.apps", "predict_group"),
    Point("apps.evaluate", "nicperf.apps", "evaluate_placement"),
    Point("apps.optimum", "nicperf.apps", "optimal_nic_count"),
)


def _sites(target) -> list[tuple[object, str]]:
    """Every nicperf module attribute bound to ``target``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nicperf" or mod_name.startswith("nicperf.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                out.append((mod, attr))
    return out


@contextlib.contextmanager
def instrumented(tracer: Tracer, points=LAYER_POINTS):
    """Wraps every point for the duration of the block, then restores."""
    saved: list[tuple[object, str, object]] = []

    def install(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for p in points:
            owner = importlib.import_module(p.module)
            *path, leaf = p.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
            if path:  # a method: keep its descriptor kind
                if isinstance(raw, classmethod):
                    install(owner, leaf, classmethod(
                        tracer.wrap(raw.__func__, p.name, p.attrs)))
                else:
                    install(owner, leaf, tracer.wrap(raw, p.name, p.attrs))
            else:
                wrapped = tracer.wrap(raw, p.name, p.attrs)
                for mod, attr in _sites(raw):
                    install(mod, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# --------------------------------------------------------------------------
# Span -> metric derivation
# --------------------------------------------------------------------------

@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[list]) -> dict[str, NameStats]:
    """Calls, total time and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; in one thread children never overlap.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
    out: dict[str, NameStats] = {}
    for s in spans:
        st = out.setdefault(s[NAME], NameStats())
        dur = s[END] - s[START]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_time.get(s[ID], 0.0)
    return out


def count_children(spans: list[list], child: str, parents: tuple[str, ...],
                   direct: bool = True) -> int:
    """Spans named ``child`` under a span named in ``parents``.

    ``direct`` counts only immediate children; otherwise any ancestor.
    """
    by_id = {s[ID]: s for s in spans}
    n = 0
    for s in spans:
        if s[NAME] != child:
            continue
        p = s[PARENT]
        while p is not None and p in by_id:
            if by_id[p][NAME] in parents:
                n += 1
                break
            if direct:
                break
            p = by_id[p][PARENT]
    return n


def _attr_sum(spans: list[list], name: str, key: str) -> int:
    return sum(s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS])


#: Timed spans, reported as their total time.
_TIMES = {
    "cli.profile": "cli.profile_s",
    "cli.train": "cli.train_s",
    "cli.evaluate": "cli.evaluate_s",
    "predictor.build": "predictor.build.s",
    "predictor.to_json": "predictor.to_json.s",
    "predictor.from_json": "predictor.from_json.s",
    "predictor.predict": "predictor.predict.s",
    "profiler.adaptive": "profiler.adaptive.s",
    "mem_model.train": "mem_model.train.s",
    "mem_model.predict": "mem_model.predict.s",
    "accel_model.infer": "accel_model.infer.s",
    "accel_model.offered_load": "accel_model.offered_load.s",
    "composer.detect": "composer.detect.s",
    "simulator.scenario": "simulator.scenario.s",
    "simulator.rr": "simulator.rr.s",
    "apps.predict_group": "apps.predict_group.s",
    "apps.evaluate": "apps.evaluate.s",
    "apps.optimum": "apps.optimum.s",
}

#: Spans that call other wrapped entry points; these also report their
#: self time.
_NESTING = (
    "cli.profile", "cli.train", "cli.evaluate", "predictor.build",
    "predictor.predict", "profiler.adaptive", "accel_model.infer",
    "composer.detect", "simulator.scenario", "apps.predict_group",
    "apps.evaluate", "apps.optimum",
)

#: Spans reported with a call count.
_CALLS = (
    "predictor.build", "predictor.from_json", "predictor.predict",
    "mem_model.train", "mem_model.predict", "accel_model.offered_load",
    "simulator.scenario", "simulator.rr", "apps.place", "apps.predict_group",
)


def self_metric(metric: str) -> str:
    """``predictor.build.s`` -> ``predictor.build.self_s``;
    ``cli.train_s`` -> ``cli.train_self_s``."""
    return metric[:-1] + "self_s"


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, bool]]:
    """Per-layer metrics of one traced segment.

    Returns name -> (value, is_count) for every metric, on every
    workload: a layer the segment did not reach reads 0 calls and 0 s.
    """
    stats = summarize(spans)
    empty = NameStats()

    def get(name: str) -> NameStats:
        return stats.get(name, empty)

    out: dict[str, tuple[float, bool]] = {}
    for name, metric in _TIMES.items():
        out[metric] = (get(name).total_s, False)
        if name in _NESTING:
            out[self_metric(metric)] = (get(name).self_s, False)
    for name in _CALLS:
        out[f"{name}.calls"] = (get(name).calls, True)
    out["profiler.samples"] = (_attr_sum(spans, "profiler.adaptive", "samples"), True)
    out["mem_model.train.rows"] = (_attr_sum(spans, "mem_model.train", "rows"), True)

    requests = get("catalog.runner").calls
    runs = count_children(spans, "simulator.scenario", ("catalog.runner",))
    out["catalog.runner.requests"] = (requests, True)
    out["catalog.runner.runs"] = (runs, True)
    out["catalog.runner.memo_hit_pct"] = (
        100.0 * (requests - runs) / requests if requests else 0.0, True)

    scenarios = get("simulator.scenario").calls
    out["simulator.rr.per_scenario"] = (
        get("simulator.rr").calls / scenarios if scenarios else 0.0, True)

    groups = get("apps.predict_group").calls
    predicts = count_children(spans, "predictor.predict", ("apps.predict_group",))
    out["apps.predict_group.predicts_per_call"] = (
        predicts / groups if groups else 0.0, True)

    out["apps.oracle.scenarios"] = (count_children(
        spans, "simulator.scenario", ("apps.evaluate", "apps.optimum"),
        direct=False), True)
    return out


def write_spans(path, segments: list[tuple[str, list[list]]]) -> None:
    """One JSON object per span, tagged with its segment label."""
    with open(path, "w") as f:
        for label, spans in segments:
            for s in spans:
                f.write(json.dumps({
                    "segment": label, "id": s[ID], "name": s[NAME],
                    "parent": s[PARENT], "start": s[START], "end": s[END],
                    **({"attrs": s[ATTRS]} if s[ATTRS] else {}),
                }, sort_keys=True) + "\n")
