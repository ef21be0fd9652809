import csv
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicperf.catalog import ATTRIBUTE_RANGES, SimulatorRunner
from nicperf.cli import (
    _Arrivals,
    _Grid,
    _PathArrival,
    _Point,
    _ScoredReport,
    _Sweep,
    _load_arrivals,
    main,
)
from nicperf.core import InvalidInputError
from nicperf.profiler import FullProfileConfig, Strategy, _Manifest

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "example.json"


def read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture()
def flowmonitor_bundle(bundle_cache, tmp_path):
    path = tmp_path / "flowmonitor.bundle.json"
    path.write_text(bundle_cache("flowmonitor", 200).to_json() + "\n")
    return path


def test_simulate_matches_closed_form(tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--scenario", str(SCENARIO), "--out", str(out)]) == 0
    doc = read_json(out)
    # The example scenario pits flowmonitor (regex time 1e-6 + 0.003e-6 *
    # 400 = 2.2us, one queue) against a saturating 10us regex bench, so
    # its end-to-end rate is the round-robin equilibrium 1 / 12.2us.
    assert doc["per_nf_throughput"]["flowmonitor"] == \
        pytest.approx(1.0 / 12.2e-6, rel=0.01)
    assert doc["bottleneck"]["flowmonitor"] == "regex_accel"


def test_simulate_reproducible_and_manifested(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["simulate", "--scenario", str(SCENARIO), "--out", str(out1)])
    main(["simulate", "--scenario", str(SCENARIO), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    manifest = read_json(str(out1) + ".manifest.json")
    assert manifest["schema"] == "run-manifest"
    assert manifest["command"] == "simulate"
    digest = hashlib.sha256(out1.read_bytes()).hexdigest()
    assert manifest["outputs"][str(out1)] == digest
    assert manifest["inputs"][str(SCENARIO)] == \
        hashlib.sha256(SCENARIO.read_bytes()).hexdigest()


def test_simulate_rejects_nic_settings(tmp_path, capsys):
    # The simulated NIC is fixed; a scenario that tries to set it fails
    # rather than printing numbers for hardware it did not ask for.
    doc = read_json(SCENARIO)
    doc.update(llc_bytes=8e6, mem_params={"car_knee": 1e8}, noise_sigma=0.0,
               seed=0, sim_cycles=2500)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["simulate", "--scenario", str(scenario),
               "--out", str(tmp_path / "sim.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "invalid-input"
    for key in ("llc_bytes", "mem_params", "noise_sigma", "seed", "sim_cycles"):
        assert key in err["message"]
    assert not (tmp_path / "sim.json").exists()


def _invalid_input_message(capsys) -> str:
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "invalid-input"
    return err["message"]


@pytest.mark.parametrize("missing", ["spec", "traffic"])
def test_simulate_rejects_nf_entry_without_key(tmp_path, capsys, missing):
    doc = read_json(SCENARIO)
    del doc["nfs"][0][missing]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["simulate", "--scenario", str(scenario),
               "--out", str(tmp_path / "sim.json")])
    assert rc == 2
    message = _invalid_input_message(capsys)
    assert "ContentionScenario" in message and repr(missing) in message


def test_simulate_rejects_nf_entry_not_an_object(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"nfs": ["flowmonitor"]}))
    rc = main(["simulate", "--scenario", str(scenario),
               "--out", str(tmp_path / "sim.json")])
    assert rc == 2
    assert "ContentionScenario" in _invalid_input_message(capsys)


def test_simulate_rejects_mtbr_above_one_match_per_byte(tmp_path, capsys, monkeypatch):
    # The check must come before any round-robin run, which would not
    # finish at this mtbr.
    def rr(*args, **kwargs):
        raise AssertionError("simulated a scenario with mtbr 1e8")

    monkeypatch.setattr("nicperf.simulator.simulate_accelerator_rr", rr)
    doc = read_json(SCENARIO)
    doc["nfs"][0]["traffic"]["mtbr"] = 1e8
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["simulate", "--scenario", str(scenario),
               "--out", str(tmp_path / "sim.json")])
    assert rc == 2
    assert _invalid_input_message(capsys).startswith(
        "flowmonitor: mtbr must be at most 1e+06")
    assert not (tmp_path / "sim.json").exists()


@pytest.mark.parametrize("missing", ["bundle", "traffic", "max_drop_ratio"])
def test_schedule_eval_rejects_resident_without_key(tmp_path, capsys, missing):
    resident = {"instance_id": "fm-0", "bundle": {},
                "traffic": {"flow_count": 1000, "packet_size": 1500, "mtbr": 100},
                "max_drop_ratio": 0.5}
    del resident[missing]
    fleet = tmp_path / "fleet.json"
    fleet.write_text(json.dumps(
        {"schema": "fleet", "nics": [{"nic_id": 0, "residents": [resident]}]}))
    rc = main(["schedule-eval", "--fleet", str(fleet),
               "--out", str(tmp_path / "report.json")])
    assert rc == 2
    message = _invalid_input_message(capsys)
    assert "NfInstance" in message and repr(missing) in message


def test_profile_train_predict_workflow(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "attributes": [["flow_count", 1, 500000],
                       ["packet_size", 64, 1500],
                       ["mtbr", 0, 1100]],
        "quota": 60,
        "seed": 0,
    }))
    dataset = tmp_path / "iptunnel.jsonl"
    assert main(["profile", "--nf", "iptunnel", "--strategy", "random",
                 "--config", str(cfg), "--out", str(dataset)]) == 0
    assert len(dataset.read_text().splitlines()) == 60

    bundle = tmp_path / "iptunnel.bundle.json"
    assert main(["train", "--nf", "iptunnel", "--dataset", str(dataset),
                 "--out", str(bundle)]) == 0
    doc = read_json(bundle)
    assert doc["schema"] == "nf-predictor"
    assert doc["nf"] == "iptunnel"

    traffic = tmp_path / "traffic.json"
    traffic.write_text(json.dumps(
        {"flow_count": 20000, "packet_size": 512, "mtbr": 0}))
    contention = tmp_path / "contention.json"
    contention.write_text(json.dumps({"counters": {
        "ipc": 0, "irt": 0, "l2crd": 60e6, "l2cwr": 40e6,
        "memrd": 10e6, "memwr": 5e6, "wss": 6e6}}))
    pred_out = tmp_path / "pred.json"
    assert main(["predict", "--bundle", str(bundle), "--traffic", str(traffic),
                 "--contention", str(contention), "--out", str(pred_out)]) == 0
    pred = read_json(pred_out)
    assert 0 < pred["throughput"] <= pred["t_solo"]


def test_train_rejects_foreign_dataset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "attributes": [["flow_count", 1, 500000]], "quota": 40, "seed": 0}))
    dataset = tmp_path / "nat.jsonl"
    main(["profile", "--nf", "nat", "--strategy", "random",
          "--config", str(cfg), "--out", str(dataset)])
    rc = main(["train", "--nf", "iptunnel", "--dataset", str(dataset),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "invalid-input"


def test_evaluate_writes_summary_rows(flowmonitor_bundle, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points": [
        {"traffic": {"flow_count": 16000, "packet_size": 1500, "mtbr": 600},
         "levels": {"memory": [0.5, 0.5]}},
        {"traffic": {"flow_count": 50000, "packet_size": 700, "mtbr": 100},
         "levels": {"memory": [0.9, 0.2], "regex_accel": 1.0}},
        {"traffic": {"flow_count": 1000, "packet_size": 200, "mtbr": 900},
         "levels": {}},
    ]}))
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--bundle", str(flowmonitor_bundle),
                 "--testgrid", str(grid), "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    kinds = [r[0] for r in rows]
    assert kinds.count("point") == 3
    assert {"summary_mape", "summary_acc5", "summary_acc10"} <= set(kinds)
    summary = {r[0]: float(r[-1]) for r in rows if r[0].startswith("summary_")}
    assert summary["summary_mape"] < 15.0
    # Worker processes parse the bundle once each and give the same table.
    out2 = tmp_path / "eval2.csv"
    assert main(["evaluate", "--bundle", str(flowmonitor_bundle), "--jobs", "2",
                 "--testgrid", str(grid), "--out", str(out2)]) == 0
    assert out2.read_bytes() == out.read_bytes()


def test_schedule_and_eval(flowmonitor_bundle, tmp_path):
    arrivals = tmp_path / "arrivals.json"
    arrivals.write_text(json.dumps({"arrivals": [
        {"instance_id": f"fm-{i}",
         "bundle_path": flowmonitor_bundle.name,
         "traffic": {"flow_count": 1000, "packet_size": 1500, "mtbr": 100},
         "max_drop_ratio": 0.5}
        for i in range(3)
    ]}))
    # Arrivals naming the same bundle file share one parsed predictor.
    loaded = _load_arrivals(str(arrivals))
    assert all(a.predictor is loaded[0].predictor for a in loaded)
    fleet_out = tmp_path / "fleet.json"
    assert main(["schedule", "--arrivals", str(arrivals),
                 "--strategy", "contention-aware", "--out", str(fleet_out)]) == 0
    report_out = tmp_path / "report.json"
    assert main(["schedule-eval", "--fleet", str(fleet_out), "--optimum",
                 "--out", str(report_out)]) == 0
    report = read_json(report_out)
    assert report["nf_count"] == 3
    assert report["violation_pct"] == 0.0
    assert report["nic_count"] == report["optimum_nic_count"]
    assert report["wastage_pct"] == 0.0


def test_diagnose_sweep(flowmonitor_bundle, tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "attribute": "mtbr",
        "values": [0, 1100],
        "traffic": {"flow_count": 16000, "packet_size": 1500, "mtbr": 600},
        "levels": {"memory": [0.5, 0.5]},
    }))
    out = tmp_path / "diag.csv"
    assert main(["diagnose", "--bundle", str(flowmonitor_bundle),
                 "--sweep", str(sweep), "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    points = {float(r[1]): r for r in rows if r[0] == "point"}
    assert points[0.0][1:4] == ["0", "memory", "memory"]
    assert points[1100.0][2] == "regex_accel"
    assert rows[-1][0] == "summary_agreement_pct"
    assert float(rows[-1][-1]) == 100.0

    # Without a "traffic" key the sweep runs at the default traffic.
    sweep.write_text(json.dumps({"attribute": "mtbr", "values": [1100]}))
    assert main(["diagnose", "--bundle", str(flowmonitor_bundle),
                 "--sweep", str(sweep), "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[1][1:3] == ["1100", "regex_accel"]


@pytest.mark.parametrize("sweep", [
    {"attribute": "foo", "values": [1, 2]},
    {"attribute": "mtbr", "start": 0, "stop": 1100, "points": 1},
    {"attribute": "mtbr", "values": []},
    {"attribute": "mtbr", "values": 5},
], ids=["unknown-attribute", "one-point", "no-values", "values-not-a-list"])
def test_diagnose_rejects_malformed_sweep(flowmonitor_bundle, tmp_path, capsys, sweep):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    out = tmp_path / "diag.csv"
    rc = main(["diagnose", "--bundle", str(flowmonitor_bundle),
               "--sweep", str(path), "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "invalid-input"
    assert not out.exists()


def test_report_aggregates(flowmonitor_bundle, tmp_path):
    sim_out = tmp_path / "sim.json"
    main(["simulate", "--scenario", str(SCENARIO), "--out", str(sim_out)])
    report_dir = tmp_path / "report"
    assert main(["report", "--inputs", str(sim_out),
                 "--out", str(report_dir)]) == 0
    rows = list(csv.DictReader((report_dir / "summary.csv").open()))
    assert rows[0]["kind"] == "simulation"
    assert rows[0]["schema_version"] == "1"


def test_missing_file_is_a_domain_error(tmp_path, capsys):
    rc = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "missing-file"


def test_out_of_domain_prediction(flowmonitor_bundle, tmp_path, capsys):
    traffic = tmp_path / "traffic.json"
    traffic.write_text(json.dumps(
        {"flow_count": 16000, "packet_size": 1500, "mtbr": 5000}))
    contention = tmp_path / "contention.json"
    contention.write_text(json.dumps({"accel": {"regex_accel": []}}))
    rc = main(["predict", "--bundle", str(flowmonitor_bundle),
               "--traffic", str(traffic), "--contention", str(contention)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "out-of-domain"


def test_predict_rejects_bundle_without_footprint(flowmonitor_bundle, tmp_path, capsys):
    doc = read_json(flowmonitor_bundle)
    del doc["footprint"]
    bundle = tmp_path / "no-footprint.bundle.json"
    bundle.write_text(json.dumps(doc))
    traffic = tmp_path / "traffic.json"
    traffic.write_text(json.dumps({"flow_count": 16000, "packet_size": 1500, "mtbr": 600}))
    contention = tmp_path / "contention.json"
    contention.write_text(json.dumps({"accel": {"regex_accel": []}}))
    rc = main(["predict", "--bundle", str(bundle), "--traffic", str(traffic),
               "--contention", str(contention)])
    assert rc == 2
    assert "'footprint'" in _invalid_input_message(capsys)


def _predict(tmp_path, bundle, contention) -> int:
    traffic = tmp_path / "traffic.json"
    traffic.write_text(json.dumps({"flow_count": 16000, "packet_size": 1500, "mtbr": 600}))
    path = tmp_path / "contention.json"
    path.write_text(json.dumps(contention))
    return main(["predict", "--bundle", str(bundle), "--traffic", str(traffic),
                 "--contention", str(path)])


def test_predict_rejects_contention_list(flowmonitor_bundle, tmp_path, capsys):
    assert _predict(tmp_path, flowmonitor_bundle, [{"accel": {"regex_accel": []}}]) == 2
    _invalid_input_message(capsys)


def test_predict_rejects_accel_entry_without_params(flowmonitor_bundle, tmp_path, capsys):
    contention = {"accel": {"regex_accel": [{"attr_value": 600.0}]}}
    assert _predict(tmp_path, flowmonitor_bundle, contention) == 2
    assert "'params'" in _invalid_input_message(capsys)


def test_predict_rejects_short_bounds(flowmonitor_bundle, tmp_path, capsys):
    doc = read_json(flowmonitor_bundle)
    doc["solo_table"]["bounds"]["flow_count"] = [1]
    bundle = tmp_path / "short-bounds.bundle.json"
    bundle.write_text(json.dumps(doc))
    assert _predict(tmp_path, bundle, {"accel": {"regex_accel": []}}) == 2
    assert "bounds" in _invalid_input_message(capsys)


def test_evaluate_checks_domain_before_simulating(flowmonitor_bundle, tmp_path, capsys,
                                                  monkeypatch):
    # Outside the profiled domain the simulator need not return; the point
    # must fail before it runs.
    def sample(*args):
        raise AssertionError("simulated an out-of-domain point")

    monkeypatch.setattr(SimulatorRunner, "sample", sample)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points": [
        {"traffic": {"flow_count": 16000, "packet_size": 1500, "mtbr": 1e300},
         "levels": {"memory": [0.5, 0.5], "regex_accel": 0.3}}]}))
    rc = main(["evaluate", "--bundle", str(flowmonitor_bundle),
               "--testgrid", str(grid), "--out", str(tmp_path / "eval.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "out-of-domain"
    assert err["message"].startswith("mtbr=1e+300 outside the profiled range")


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required arguments
    assert exc.value.code == 1
    # --seed is an option of profile only.
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "s.json", "--out", "o.json", "--seed", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["train", "--nf", "nat", "--dataset", "d.jsonl", "--out", "b.json",
              "--seed", "1"])
    assert exc.value.code == 1


_TRAFFIC = {"flow_count": 16000, "packet_size": 1500, "mtbr": 600}


def _write(path, doc):
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return str(path)


def _evaluate_on(doc):
    return lambda tmp, bundle: ["evaluate", "--bundle", str(bundle), "--testgrid",
                                _write(tmp / "grid.json", doc), "--out", str(tmp / "eval.csv")]


def _levels(levels):
    return _evaluate_on({"points": [{"traffic": _TRAFFIC, "levels": levels}]})


def _profile_full(doc):
    return lambda tmp, bundle: ["profile", "--nf", "nat", "--strategy", "full", "--config",
                                _write(tmp / "cfg.json", doc), "--out", str(tmp / "nat.jsonl")]


def _schedule(doc):
    return lambda tmp, bundle: ["schedule", "--arrivals", _write(tmp / "arrivals.json", doc),
                                "--strategy", "greedy", "--out", str(tmp / "fleet.json")]


def _train_without_nf(tmp, bundle):
    (tmp / "nat.jsonl").write_text("")
    _write(tmp / "nat.manifest.json", {"strategy": "random", "samples_used": 0,
                                       "pruned_attributes": [], "config": {}})
    return ["train", "--nf", "nat", "--dataset", str(tmp / "nat.jsonl"),
            "--out", str(tmp / "nat.bundle.json")]


def _report_without_nic_count(tmp, bundle):
    doc = {"schema": "placement-report", "nf_count": 1, "violating_instances": []}
    return ["report", "--inputs", _write(tmp / "report.json", doc), "--out", str(tmp / "r")]


@pytest.mark.parametrize("argv,words", [
    (_evaluate_on({"points": 5}), ["_Grid.points", "expected a list"]),
    (_levels([1]), ["_Point.levels", "expected an object"]),
    (_levels({"regex_accel": [0.5, 0.5]}), ["_Point.levels", "regex_accel"]),
    (_levels({"memory": math.nan}), ["_Point.levels", "memory"]),
    (_levels({"memory": -0.5}), ["_Point.levels", "memory"]),
    (_schedule({"arrivals": ["x"]}), ["_Arrivals.arrivals", "expected an object"]),
    (_schedule({"arrivals": [{"instance_id": "a", "bundle_path": "a.json",
                              "traffic": _TRAFFIC}]}),
     ["_PathArrival", "'max_drop_ratio'"]),
    (_schedule({"arrivals": [{"instance_id": "a", "bundle": {}, "traffic": _TRAFFIC,
                              "max_drop_ratio": "0.5"}]}),
     ["NfInstance", "max_drop_ratio", "expected a number"]),
    (_schedule({"arrivals": [{"instance_id": 7, "bundle": {}, "traffic": _TRAFFIC,
                              "max_drop_ratio": 0.5}]}),
     ["NfInstance", "instance_id", "expected a string"]),
    (_profile_full({"grid": {"flow_count": "12"}}), ["FullProfileConfig.grid", "a list"]),
    (_profile_full({"grid": {"flows": [1, 2]}}), ["FullProfileConfig.grid", "'flows'"]),
    (_profile_full({"grid": {"flow_count": [1, 2]}, "contention_resources": {"memory": 1}}),
     ["FullProfileConfig.contention_resources", "expected a list"]),
    (lambda tmp, bundle: ["diagnose", "--bundle", str(bundle), "--out", str(tmp / "d.csv"),
                          "--sweep", _write(tmp / "sweep.json",
                                            {"attribute": "mtbr", "start": 0, "points": 3})],
     ["_Sweep", "'stop'"]),
    (_train_without_nf, ["_Manifest", "'nf'"]),
    (_report_without_nic_count, ["_ScoredReport", "'nic_count'"]),
    (_evaluate_on(b'{"points": [], "note": "\xff"}'), ["grid.json", "UTF-8"]),
], ids=["grid-points-not-a-list", "levels-list", "accel-level-pair", "memory-level-nan",
        "memory-level-negative", "arrival-not-an-object", "arrival-without-max-drop-ratio",
        "inline-arrival-string-ratio", "inline-arrival-numeric-id",
        "full-grid-string", "full-grid-unknown-attribute", "full-resources-object",
        "sweep-without-stop", "manifest-without-nf", "report-without-nic-count",
        "not-utf8"])
def test_bad_input_file_is_invalid_input(flowmonitor_bundle, tmp_path, capsys, argv, words):
    assert main(argv(tmp_path, flowmonitor_bundle)) == 2
    message = _invalid_input_message(capsys)
    assert all(w in message for w in words), message


def test_profile_rejects_nan_threshold(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"attributes": [["mtbr", 0, 1100]], "eps0": math.nan})
    assert main(["profile", "--nf", "nat", "--strategy", "adaptive", "--config", cfg,
                 "--out", str(tmp_path / "nat.jsonl")]) == 2
    assert "eps0" in _invalid_input_message(capsys)


def test_full_profile_then_train(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "grid": {"packet_size": [64, 1500], "flow_count": [1000, 50000, 100000, 200000, 400000]},
        "draws_per_cell": 3, "seed": 2, "contention_resources": ["memory"]})
    dataset = tmp_path / "nat.jsonl"
    assert main(["profile", "--nf", "nat", "--strategy", "full", "--seed", "4",
                 "--config", cfg, "--out", str(dataset)]) == 0
    assert len(dataset.read_text().splitlines()) == 30
    config = read_json(tmp_path / "nat.manifest.json")["config"]
    assert config["seed"] == 4
    assert config["grid"]["packet_size"] == [64.0, 1500.0]
    bundle = tmp_path / "nat.bundle.json"
    assert main(["train", "--nf", "nat", "--dataset", str(dataset), "--out", str(bundle)]) == 0
    # train rebuilds the profiling box from the grid's extremes.
    assert read_json(bundle)["solo_table"]["bounds"]["flow_count"] == [1000.0, 400000.0]


_UNIT = st.floats(0.0, 1.0)
_NUM = st.floats(-1e6, 1e6)
_TEXT = st.text(max_size=5)
_TRAFFIC_DOCS = st.fixed_dictionaries({
    "flow_count": st.integers(1, 500_000), "packet_size": st.integers(64, 1500),
    "mtbr": st.floats(0.0, 1100.0)})
_LEVELS = st.fixed_dictionaries({}, optional={
    "memory": st.one_of(_UNIT, st.lists(_UNIT, min_size=2, max_size=2)),
    "regex_accel": _UNIT, "compression_accel": _UNIT})
_POINTS = st.fixed_dictionaries({"traffic": _TRAFFIC_DOCS}, optional={"levels": _LEVELS})
_ATTRIBUTE = st.sampled_from(sorted(ATTRIBUTE_RANGES))
_SWEEP_TAIL = {"traffic": _TRAFFIC_DOCS, "levels": _LEVELS}

#: Each new input type with a strategy for its wire documents.
_INPUT_DOCS = {
    _Point: _POINTS,
    _Grid: st.fixed_dictionaries({"points": st.lists(_POINTS, max_size=3)}),
    _Sweep: st.one_of(
        st.fixed_dictionaries({"attribute": _ATTRIBUTE,
                               "values": st.lists(_NUM, min_size=1, max_size=4)},
                              optional=_SWEEP_TAIL),
        st.fixed_dictionaries({"attribute": _ATTRIBUTE, "start": _NUM, "stop": _NUM,
                               "points": st.integers(2, 5)}, optional=_SWEEP_TAIL)),
    _PathArrival: st.fixed_dictionaries({
        "instance_id": _TEXT, "bundle_path": _TEXT, "traffic": _TRAFFIC_DOCS,
        "max_drop_ratio": st.floats(0.0, 1.0, exclude_min=True)}),
    _Arrivals: st.fixed_dictionaries({
        "arrivals": st.lists(st.dictionaries(_TEXT, st.integers()), max_size=3)}),
    _ScoredReport: st.fixed_dictionaries({
        "nic_count": st.integers(0, 9), "nf_count": st.integers(0, 9),
        "violating_instances": st.lists(_TEXT, max_size=3)},
        optional={"optimum_nic_count": st.integers(1, 9)}),
    FullProfileConfig: st.fixed_dictionaries(
        {"grid": st.dictionaries(_ATTRIBUTE, st.lists(_NUM, min_size=1, max_size=4),
                                 min_size=1)},
        optional={"draws_per_cell": st.integers(1, 3), "seed": st.integers(0, 2**32),
                  "contention_resources": st.lists(st.sampled_from(["memory", "regex_accel"]),
                                                   max_size=2)}),
    _Manifest: st.fixed_dictionaries({
        "nf": _TEXT, "strategy": st.sampled_from([s.value for s in Strategy]),
        "samples_used": st.integers(0, 99), "pruned_attributes": st.lists(_TEXT),
        "config": st.dictionaries(_TEXT, st.integers())}),
}


def _float_paths(doc, path=()):
    if isinstance(doc, float):
        yield path
    elif isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _float_paths(value, (*path, key))


def _with_nan(doc, path):
    if not path:
        return math.nan
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _with_nan(doc[path[0]], path[1:])
    return copy


@pytest.mark.parametrize("cls", list(_INPUT_DOCS), ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_input_types_roundtrip_and_reject_nan(cls, data):
    doc = data.draw(_INPUT_DOCS[cls])
    value = cls.from_dict(doc)
    again = cls.from_dict(json.loads(json.dumps(value.to_dict())))
    assert again == value and again.to_dict() == value.to_dict()
    for path in _float_paths(doc):
        with pytest.raises(InvalidInputError):
            cls.from_dict(_with_nan(doc, path))
