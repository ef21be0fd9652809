"""End-to-end acceptance suite.

Each test pins a qualitative claim of the toolkit against the built-in
simulator: closed-form queueing accuracy, composition algebra, model
accuracy and ablations, profiling efficiency, scheduling quality,
diagnosis agreement, and reproducibility.  Thresholds and runtime
budgets are fixed; the helpers mirror the CLI's conventions.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import default_config
from nicperf.accel_model import AccelModelParams, predict_equilibrium
from nicperf.apps import (
    NfInstance,
    PlacementStrategy,
    SlaSpec,
    diagnose,
    evaluate_placement,
    optimal_nic_count,
    place_sequence,
)
from nicperf.catalog import (
    ATTRIBUTE_RANGES,
    CATALOG,
    TRAFFIC_SENSITIVE_NFS,
    SimulatorRunner,
    get_nf,
)
from nicperf.composer import PerResourceDrops, compose_pipeline, compose_rtc
from nicperf.core import (
    DEFAULT_TRAFFIC,
    ExecutionPattern,
    ResourceKind,
    TrafficProfile,
    band_accuracy,
    mape,
)
from nicperf.mem_model import feature_vector, predict, train
from nicperf.predictor import ContentionDescriptor, NfPredictor, build
from nicperf.profiler import (
    FullProfileConfig,
    ProfilingConfig,
    _make_traffic,
    adaptive_profile,
    full_profile,
    random_profile,
    save_dataset,
    load_dataset,
)
from nicperf.simulator import ContentionScenario, run_scenario, simulate_accelerator_rr

REGEX_BENCH = AccelModelParams(queue_count=1, t0=10e-6, a=0.0,
                               resource=ResourceKind.REGEX_ACCEL)


def bench_regex_entry(level):
    """Descriptor entry mirroring the simulator's regex benchmark NF."""
    rate = math.inf if level >= 1.0 else level / 10e-6
    return (REGEX_BENCH, DEFAULT_TRAFFIC.mtbr, rate)


def random_traffic(rng):
    return TrafficProfile(
        flow_count=int(rng.integers(1, 500_001)),
        packet_size=int(rng.integers(64, 1501)),
        mtbr=float(rng.uniform(0, 1100)),
    )


# --------------------------------------------------------------------------
# 1. The discrete-event round-robin simulation agrees with the closed form.
# --------------------------------------------------------------------------

def test_queueing_closed_form_matches_simulation():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    predicted, actual = [], []
    for _ in range(50):
        n_nfs = int(rng.integers(1, 5))
        specs = [
            (int(rng.integers(1, 5)), float(rng.uniform(1e-6, 100e-6)), math.inf)
            for _ in range(n_nfs)
        ]
        horizon = 2500 * sum(n * n * t for n, t, _ in specs)
        rates = simulate_accelerator_rr(specs, horizon)
        for i, (n, t, _) in enumerate(specs):
            target = AccelModelParams(queue_count=n, t0=t)
            comps = [(AccelModelParams(queue_count=m, t0=u), 0.0)
                     for j, (m, u, _) in enumerate(specs) if j != i]
            predicted.append(predict_equilibrium(target, 0.0, comps))
            actual.append(rates[i])
    assert mape(predicted, actual) <= 2.0
    assert time.monotonic() - start <= 60.0


# --------------------------------------------------------------------------
# 2. Equilibrium properties: fairness at equal settings, linear decline
#    below the equilibrium.
# --------------------------------------------------------------------------

def test_equilibrium_fairness_and_linear_onset():
    rng = np.random.default_rng(1)
    # Equal-setting NFs reach equal throughput.
    for _ in range(5):
        n = int(rng.integers(1, 4))
        t = float(rng.uniform(2e-6, 50e-6))
        k = int(rng.integers(2, 5))
        specs = [(n, t, math.inf)] * k
        horizon = 2500 * sum(m * m * u for m, u, _ in specs)
        rates = simulate_accelerator_rr(specs, horizon)
        assert (max(rates) - min(rates)) / max(rates) <= 0.01

    # A backlogged target declines linearly in a competitor's offered rate
    # until the competitor reaches its equilibrium share.
    target = (1, 4e-6)
    comp = (2, 6e-6)
    comp_eq = comp[0] / (target[0] ** 2 * target[1] + comp[0] ** 2 * comp[1])
    xs = np.linspace(0.0, 0.95 * comp_eq, 8)
    ys = []
    for r in xs:
        specs = [(target[0], target[1], math.inf), (comp[0], comp[1], float(r))]
        horizon = 20000 * sum(m * m * u for m, u, _ in specs)
        ys.append(simulate_accelerator_rr(specs, horizon)[0])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    r2 = 1.0 - np.sum((ys - fit) ** 2) / np.sum((ys - np.mean(ys)) ** 2)
    assert slope < 0
    assert r2 >= 0.99


# --------------------------------------------------------------------------
# 3. Composition algebra identities.
# --------------------------------------------------------------------------

def test_composition_algebra_identities():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    kinds = list(ResourceKind)
    for _ in range(1000):
        r = int(rng.integers(1, 4))
        t_solo = float(rng.uniform(1e4, 1e6))
        drops = {kinds[k]: t_solo * float(rng.uniform(0, 0.9)) for k in range(r)}
        d = PerResourceDrops(t_solo, drops)
        # Run-to-completion equals the summed-sojourn-time form exactly.
        delta = sum(1.0 / (t_solo - v) - 1.0 / t_solo for v in drops.values())
        assert compose_rtc(d) == pytest.approx(1.0 / (1.0 / t_solo + delta),
                                               rel=1e-12)
        # Pipeline ignores every non-binding drop.
        worst = max(drops.values())
        assert compose_pipeline(d) == pytest.approx(t_solo - worst, rel=1e-12)
        if r == 1:
            assert compose_rtc(d) == pytest.approx(compose_pipeline(d), rel=1e-12)
    assert time.monotonic() - start <= 5.0


# --------------------------------------------------------------------------
# 4. Matching the execution pattern beats naive composition.
# --------------------------------------------------------------------------

def _composition_residuals(nf_name):
    runner = SimulatorRunner(get_nf(nf_name), seed=0)
    t_solo = runner.probe({})
    levels = (0.35, 0.7, 1.0)
    resources = (ResourceKind.MEMORY, ResourceKind.REGEX_ACCEL)
    drop_at = {
        kind: {lvl: max(0.0, t_solo - runner.probe({kind: lvl}))
               for lvl in levels}
        for kind in resources
    }
    measured, pipe, rtc, naive_sum = [], [], [], []
    for lm in levels:
        for la in levels:
            drops = {ResourceKind.MEMORY: drop_at[ResourceKind.MEMORY][lm],
                     ResourceKind.REGEX_ACCEL: drop_at[ResourceKind.REGEX_ACCEL][la]}
            d = PerResourceDrops(t_solo, {k: min(v, 0.999 * t_solo)
                                          for k, v in drops.items()})
            measured.append(runner.probe({ResourceKind.MEMORY: lm,
                                          ResourceKind.REGEX_ACCEL: la}))
            pipe.append(compose_pipeline(d))
            rtc.append(compose_rtc(d))
            naive_sum.append(max(1e-9, t_solo - sum(drops.values())))
    return (mape(pipe, measured), mape(rtc, measured), mape(naive_sum, measured))


def test_pattern_matched_composition_beats_naive():
    start = time.monotonic()
    pipe_res, rtc_res, _ = _composition_residuals("flowmonitor")
    assert pipe_res <= 2.0  # matched: pipeline formula on a pipeline NF

    pipe_res, rtc_res, sum_res = _composition_residuals("nids")
    assert rtc_res <= 2.0  # matched: run-to-completion formula
    assert sum_res >= 5.0  # drops are not additive end to end
    assert pipe_res >= 5.0  # the binding-stage rule understates the loss
    assert time.monotonic() - start <= 300.0


# --------------------------------------------------------------------------
# 5 + 6. End-to-end accuracy on a held-out grid, and the ablation cost of
#        dropping the accelerator model.
# --------------------------------------------------------------------------

def test_end_to_end_accuracy_and_accelerator_ablation(bundle_cache):
    start = time.monotonic()
    p = bundle_cache("flowmonitor", 200)
    runner = SimulatorRunner(get_nf("flowmonitor"), seed=0)
    rng = np.random.default_rng(42)
    rows = []
    for i in range(120):
        traffic = random_traffic(rng)
        u = float(rng.uniform())
        v = float(rng.uniform())
        levels = {}
        if u > 0:
            levels[ResourceKind.MEMORY] = u
        if v > 0:
            levels[ResourceKind.REGEX_ACCEL] = v
        sample = runner.sample(f"ev-{i}", traffic, levels)
        comps = (bench_regex_entry(v),) if v > 0 else ()
        desc = ContentionDescriptor(counters=sample.competitor_counters,
                                    accel={ResourceKind.REGEX_ACCEL: comps})
        no_accel = ContentionDescriptor(counters=sample.competitor_counters,
                                        accel={ResourceKind.REGEX_ACCEL: ()})
        rows.append((
            sample.observed_throughput,
            p.predict(traffic, desc).throughput,
            p.predict(traffic, no_accel).throughput,
            v,
        ))

    truths = [r[0] for r in rows]
    full = [r[1] for r in rows]
    assert mape(full, truths) <= 6.0
    assert band_accuracy(full, truths, 10.0) >= 90.0

    # Ablation: ignoring accelerator contention must at least double the
    # median error under heavy regex load.
    hi = [(t, f, a) for t, f, a, v in rows if v >= 0.7]
    assert len(hi) >= 20
    med_full = np.median([abs(f - t) for t, f, _ in hi])
    med_ablation = np.median([abs(a - t) for t, _, a in hi])
    assert med_ablation >= 2.0 * med_full
    assert time.monotonic() - start <= 600.0


# --------------------------------------------------------------------------
# 7. Adaptive profiling efficiency against random and full profiling.
# --------------------------------------------------------------------------

def _combined_wss(runner, row):
    own = runner.own_counters(row.traffic).wss
    counters = dataclasses.replace(
        row.competitor_counters, wss=row.competitor_counters.wss + own)
    return counters


def _fit(runner, rows):
    rows = [dataclasses.replace(r, competitor_counters=_combined_wss(runner, r))
            for r in rows]
    return train(rows)


def _holdout_mape(model, runner, points):
    preds, actuals = [], []
    for traffic, levels in points:
        row = runner.sample("holdout", traffic, levels)
        feats = feature_vector(_combined_wss(runner, row), traffic)
        preds.append(predict(model, feats))
        actuals.append(row.observed_throughput)
    return mape(preds, actuals)


def test_adaptive_profiling_efficiency():
    start = time.monotonic()
    attrs = tuple((n, *ATTRIBUTE_RANGES[n]) for n in ("flow_count", "packet_size"))
    cfg = ProfilingConfig(attributes=attrs, quota=200, seed=7)
    grid = {"flow_count": list(np.linspace(1, 500_000, 200)),
            "packet_size": list(np.linspace(64, 1500, 16))}

    rng = np.random.default_rng(123)
    beats_random = 0
    close_to_full = 0
    for name in TRAFFIC_SENSITIVE_NFS:
        runner = SimulatorRunner(get_nf(name), seed=0)
        points = []
        for _ in range(300):
            traffic = _make_traffic({
                "flow_count": rng.uniform(1, 500_000),
                "packet_size": rng.uniform(64, 1500),
            })
            levels = {ResourceKind.MEMORY: (float(rng.uniform()),
                                            float(rng.uniform()))}
            points.append((traffic, levels))

        results = {}
        for label, ds in (
            ("adaptive", adaptive_profile(name, cfg, runner)),
            ("random", random_profile(name, cfg, runner)),
            ("full", full_profile(name, FullProfileConfig(grid), runner)),
        ):
            results[label] = _holdout_mape(_fit(runner, ds.rows), runner, points)
        beats_random += results["adaptive"] < results["random"]
        close_to_full += results["adaptive"] - results["full"] <= 1.5

    assert beats_random == 6
    assert close_to_full >= 4
    assert time.monotonic() - start <= 1800.0


# --------------------------------------------------------------------------
# 8. Contention-aware placement: fewer SLA violations than greedy, near
#    the exhaustive optimum in fleet size.
# --------------------------------------------------------------------------

def _arrival_sequence(bundles, seed, n):
    rng = np.random.default_rng(seed)
    names = sorted(bundles)
    out = []
    for i in range(n):
        name = names[rng.integers(len(names))]
        out.append(NfInstance(
            instance_id=f"{name}-{i}",
            predictor=bundles[name],
            traffic=random_traffic(rng),
            sla=SlaSpec(float(rng.uniform(0.05, 0.20))),
        ))
    return out


def test_contention_aware_scheduling(bundle_cache):
    start = time.monotonic()
    bundles = {name: bundle_cache(name) for name in CATALOG}

    violations = {PlacementStrategy.GREEDY: 0,
                  PlacementStrategy.CONTENTION_AWARE: 0}
    total_nfs = 0
    for s in range(20):
        arrivals = _arrival_sequence(bundles, 1000 + s, 100)
        total_nfs += len(arrivals)
        for strategy in violations:
            fleet = place_sequence(arrivals, strategy)
            report = evaluate_placement(fleet)
            violations[strategy] += len(report.violating_instances)

    greedy_rate = violations[PlacementStrategy.GREEDY] / total_nfs
    aware_rate = violations[PlacementStrategy.CONTENTION_AWARE] / total_nfs
    assert aware_rate <= greedy_rate / 5.0

    # NIC wastage against the exhaustive optimum on small instances.
    placed = optimum = 0
    for s in range(20):
        arrivals = _arrival_sequence(bundles, 2000 + s, 12)
        fleet = place_sequence(arrivals, PlacementStrategy.CONTENTION_AWARE)
        placed += len(fleet.nics)
        optimum += optimal_nic_count(arrivals)
    assert 100.0 * (placed - optimum) / optimum <= 5.0
    assert time.monotonic() - start <= 1200.0


# --------------------------------------------------------------------------
# 9. Bottleneck diagnosis along a traffic sweep.
# --------------------------------------------------------------------------

def test_diagnosis_agrees_with_simulated_bottleneck(bundle_cache):
    start = time.monotonic()
    p = bundle_cache("flowmonitor")
    runner = SimulatorRunner(get_nf("flowmonitor"), seed=0)
    levels = {ResourceKind.MEMORY: 0.5}

    agree = ablation_agree = scored = 0
    for mtbr in np.linspace(0.0, 1100.0, 23):
        traffic = DEFAULT_TRAFFIC.replace(mtbr=float(mtbr))
        result = runner.run(traffic, levels)
        truth = result.bottleneck["flowmonitor"]
        stage = sorted(result.per_nf_stage_throughput["flowmonitor"].values())
        if (stage[1] - stage[0]) / stage[1] < 0.10:
            continue  # near-crossover points are out of scope
        scored += 1
        sample = runner.sample(f"diag-{mtbr:.0f}", traffic, levels)
        desc = ContentionDescriptor(
            counters=sample.competitor_counters,
            accel={ResourceKind.REGEX_ACCEL: ()},
        )
        agree += diagnose(p, traffic, desc) == truth
        # A memory-only model can only ever blame memory.
        ablation_agree += truth is ResourceKind.MEMORY

    assert scored >= 10
    assert agree == scored
    assert ablation_agree < agree
    assert time.monotonic() - start <= 300.0


# --------------------------------------------------------------------------
# 10. Determinism and byte-identical round trips.
# --------------------------------------------------------------------------

def test_determinism_and_byte_identical_roundtrips(tmp_path):
    cfg = default_config(quota=60)
    bundle_a = build("iptunnel", cfg, SimulatorRunner(get_nf("iptunnel")))
    bundle_b = build("iptunnel", cfg, SimulatorRunner(get_nf("iptunnel")))
    text = bundle_a.to_json()
    assert bundle_b.to_json() == text
    assert NfPredictor.from_json(text).to_json() == text

    ds = random_profile("iptunnel", cfg, SimulatorRunner(get_nf("iptunnel")))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(ds, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    scenario = ContentionScenario(nfs=((get_nf("nids"), DEFAULT_TRAFFIC),))
    again = ContentionScenario.from_dict(scenario.to_dict())
    assert again == scenario
    r1 = run_scenario(scenario)
    r2 = run_scenario(again)
    assert r1.per_nf_throughput == r2.per_nf_throughput
    assert r1.per_nf_counters == r2.per_nf_counters
