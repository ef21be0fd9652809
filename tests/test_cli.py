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
from nicperf.accel_model import AccelModelParams
from nicperf.apps import Fleet, Nic, NfInstance, PlacementReport, _NfInstanceWire
from nicperf.core import (
    Codec,
    CounterSnapshot,
    ExecutionPattern,
    InvalidInputError,
    ResourceKind,
    ThroughputSample,
    TrafficProfile,
)
from nicperf.mem_model import FEATURE_NAMES, GbrHyperParams, GbrModel, _GbrWire
from nicperf.predictor import (
    NfPredictor,
    PredictionResult,
    _Competitor,
    _ContentionWire,
    _Curve,
    _Footprint,
    _SoloTable,
)
from nicperf.profiler import FullProfileConfig, ProfilingConfig, Strategy, _Manifest
from nicperf.simulator import (
    ContentionScenario,
    NfSpec,
    NfStage,
    SimulationResult,
    _ContentionScenarioNf,
    _ContentionScenarioWire,
)

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


@pytest.mark.parametrize("coeffs,words", [
    ({"matchcost": 3e-9}, ["NfStage.traffic_coeffs", "'matchcost'"]),
    ({"match_cost": math.nan},
     ["NfStage.traffic_coeffs.match_cost: expected a number, got nan"]),
    ({"match_cost": -3e-9}, ["NfStage.traffic_coeffs", "'match_cost'"]),
], ids=["misspelt", "nan", "negative"])
def test_simulate_rejects_bad_stage_coefficient(tmp_path, capsys, coeffs, words):
    # A misspelt key would otherwise be ignored: flowmonitor's regex stage
    # would run at its base time and report 90909 pps instead of 81967.
    doc = read_json(SCENARIO)
    doc["nfs"][0]["spec"]["stages"][1]["traffic_coeffs"] = coeffs
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["simulate", "--scenario", str(scenario),
               "--out", str(tmp_path / "sim.json")])
    assert rc == 2
    message = _invalid_input_message(capsys)
    assert all(w in message for w in words), message
    assert not (tmp_path / "sim.json").exists()


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


@pytest.mark.parametrize("queues", [65, 2**20, 2**62])
def test_simulate_rejects_queue_count_above_bound(tmp_path, capsys, monkeypatch, queues):
    # Checked when the scenario is read: a round-robin run over 2**20
    # queues would not finish, and one over 2**62 would run out of memory.
    def run(*args, **kwargs):
        raise AssertionError(f"simulated a scenario with {queues} queues")

    monkeypatch.setattr("nicperf.cli.run_scenario", run)
    doc = read_json(SCENARIO)
    doc["nfs"][0]["spec"]["queue_count"] = queues
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["simulate", "--scenario", str(scenario),
               "--out", str(tmp_path / "sim.json")])
    assert rc == 2
    assert _invalid_input_message(capsys) == (
        f"flowmonitor: queue_count must be in [1, 64], got {queues}")
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


@pytest.mark.parametrize("key,value,message", [
    ("rows", 60, "nat.manifest.json counts 60 rows, but nat.jsonl has 35"),
    ("schema", "run-manifest", "not a dataset manifest: schema 'run-manifest'"),
], ids=["rows", "schema"])
def test_train_checks_dataset_manifest(tmp_path, capsys, key, value, message):
    # A manifest that miscounts its rows, or is no dataset manifest, would
    # otherwise train, and the bundle would record the manifest's count.
    dataset = tmp_path / "nat.jsonl"
    assert main(["profile", "--nf", "nat", "--strategy", "random", "--config",
                 str(SCENARIO.parent / "cfg.json"), "--out", str(dataset)]) == 0
    dataset.write_text("".join(dataset.read_text().splitlines(keepends=True)[:35]))
    manifest = tmp_path / "nat.manifest.json"
    _write(manifest, {**read_json(manifest), "rows": 35, key: value})
    assert main(["train", "--nf", "nat", "--dataset", str(dataset),
                 "--out", str(tmp_path / "nat.bundle.json")]) == 2
    assert _invalid_input_message(capsys) == message
    assert not (tmp_path / "nat.bundle.json").exists()


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


@pytest.mark.parametrize("fleet", [
    lambda tmp: SCENARIO.parent / "cfg.json",
    lambda tmp: _write(tmp / "fleet.json", {"nics": []}),
], ids=["profiling-config", "no-schema"])
def test_schedule_eval_rejects_non_fleet(tmp_path, capsys, fleet):
    # Read as a fleet, either would score as 0 NICs with no violations.
    report = tmp_path / "report.json"
    assert main(["schedule-eval", "--fleet", str(fleet(tmp_path)), "--out", str(report)]) == 2
    assert _invalid_input_message(capsys) == "not a fleet file"
    assert not report.exists()


def test_empty_fleet_scores_against_empty_optimum(tmp_path):
    fleet, report = tmp_path / "fleet.json", tmp_path / "report.json"
    assert main(["schedule", "--arrivals", _write(tmp_path / "arrivals.json", {"arrivals": []}),
                 "--strategy", "greedy", "--out", str(fleet)]) == 0
    assert main(["schedule-eval", "--fleet", str(fleet), "--optimum", "--out", str(report)]) == 0
    doc = read_json(report)
    assert (doc["nic_count"], doc["optimum_nic_count"], doc["wastage_pct"]) == (0, 0, 0.0)
    assert main(["report", "--inputs", str(report), "--out", str(tmp_path / "r")]) == 0
    (row,) = csv.DictReader((tmp_path / "r" / "summary.csv").open())
    assert (row["kind"], row["wastage_pct"]) == ("placement", "0.0000")
    # A fleet with NICs still needs an optimum of at least one.
    with pytest.raises(InvalidInputError, match="optimum NIC count must be positive"):
        PlacementReport(nic_count=1, nf_count=1, violating_instances=()).wastage_pct(0)


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


@pytest.mark.parametrize("key,value", [
    ("base_score", "abc"), ("base_score", "1.5"), ("base_score", True),
    ("base_score", math.nan), ("base_score", "saturating"),
    ("learning_rate", math.nan), ("learning_rate", 0),
], ids=["base-string", "base-numeric-string", "base-true", "base-nan", "base-saturating",
        "rate-nan", "rate-zero"])
def test_predict_rejects_bad_gbr_number(flowmonitor_bundle, tmp_path, capsys, key, value):
    # Each would otherwise be coerced, crash, or predict ~1e-9 pps and exit 0.
    doc = read_json(flowmonitor_bundle)
    gbr = doc["mem_model"]
    (gbr if key == "base_score" else gbr["hyper"])[key] = value
    bundle = tmp_path / "tampered.bundle.json"
    bundle.write_text(json.dumps(doc))
    assert _predict(tmp_path, bundle, {"accel": {"regex_accel": []}}) == 2
    assert key in _invalid_input_message(capsys)


@pytest.mark.parametrize("part,version", [
    (lambda doc: doc, 99), (lambda doc: doc["mem_model"], 7),
], ids=["bundle", "mem-model"])
def test_predict_rejects_unknown_schema_version(flowmonitor_bundle, tmp_path, capsys,
                                                part, version):
    # A document of another format version must not be read as this one.
    doc = read_json(flowmonitor_bundle)
    part(doc)["schema_version"] = version
    bundle = tmp_path / "future.bundle.json"
    bundle.write_text(json.dumps(doc))
    assert _predict(tmp_path, bundle, {"accel": {"regex_accel": []}}) == 2
    assert f"schema_version {version} is not supported" in _invalid_input_message(capsys)


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


def _evaluate_on(doc, *options):
    return lambda tmp, bundle: ["evaluate", "--bundle", str(bundle), "--testgrid",
                                _write(tmp / "grid.json", doc), "--out", str(tmp / "eval.csv"),
                                *options]


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


def _simulate_queue_count(count):
    def argv(tmp, bundle):
        doc = read_json(SCENARIO)
        doc["nfs"][0]["spec"]["queue_count"] = count
        return ["simulate", "--scenario", _write(tmp / "scenario.json", doc),
                "--out", str(tmp / "sim.json")]
    return argv


def _report_without_nic_count(tmp, bundle):
    doc = {"schema": "placement-report", "nf_count": 1, "violating_instances": []}
    return ["report", "--inputs", _write(tmp / "report.json", doc), "--out", str(tmp / "r")]


@pytest.mark.parametrize("argv,words", [
    (_evaluate_on({"points": 5}), ["_Grid.points", "expected a list"]),
    (_evaluate_on({"points": []}), ["_Grid.points", "no points"]),
    (_evaluate_on({"points": [{"traffic": _TRAFFIC}]}, "--jobs", "0"),
     ["--jobs must be at least 1, got 0"]),
    (_evaluate_on({"points": [{"traffic": _TRAFFIC}]}, "--jobs", "-5"),
     ["--jobs must be at least 1, got -5"]),
    (_levels([1]), ["_Point.levels", "expected an object"]),
    (_levels({"regex_accel": [0.5, 0.5]}), ["_Point.levels", "regex_accel"]),
    (_levels({"memory": math.nan}), ["_Point.levels.memory: expected a number, got nan"]),
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
    (_simulate_queue_count(10**400), ["NfSpec.queue_count", "at most 64 bits"]),
], ids=["grid-points-not-a-list", "grid-without-points", "jobs-zero", "jobs-negative",
        "levels-list", "accel-level-pair", "memory-level-nan",
        "memory-level-negative", "arrival-not-an-object", "arrival-without-max-drop-ratio",
        "inline-arrival-string-ratio", "inline-arrival-numeric-id",
        "full-grid-string", "full-grid-unknown-attribute", "full-resources-object",
        "sweep-without-stop", "manifest-without-nf", "report-without-nic-count",
        "not-utf8", "queue-count-oversized"])
def test_bad_input_file_is_invalid_input(flowmonitor_bundle, tmp_path, capsys, argv, words):
    assert main(argv(tmp_path, flowmonitor_bundle)) == 2
    message = _invalid_input_message(capsys)
    assert all(w in message for w in words), message


def test_profile_rejects_nan_threshold(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"attributes": [["mtbr", 0, 1100]], "eps0": math.nan})
    assert main(["profile", "--nf", "nat", "--strategy", "adaptive", "--config", cfg,
                 "--out", str(tmp_path / "nat.jsonl")]) == 2
    assert "eps0" in _invalid_input_message(capsys)


@pytest.mark.parametrize("strategy,cfg", [
    ("random", {"attributes": [["mtbr", 0, 1100]], "quota": 30}),
    ("full", {"grid": {"flow_count": [1000, 2000]}}),
], ids=["random", "full"])
@pytest.mark.parametrize("in_config", [True, False], ids=["config", "option"])
def test_profile_rejects_negative_seed(tmp_path, capsys, strategy, cfg, in_config):
    argv = ["profile", "--nf", "nat", "--strategy", strategy,
            "--out", str(tmp_path / "nat.jsonl"),
            "--config", _write(tmp_path / "cfg.json", {**cfg, "seed": -1} if in_config else cfg)]
    assert main(argv if in_config else [*argv, "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in _invalid_input_message(capsys)
    assert not (tmp_path / "nat.jsonl").exists()


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

_POS = st.floats(1e-9, 1e9)
_KINDS = st.sampled_from([k.value for k in ResourceKind])
_ACCELS = st.sampled_from([k.value for k in ResourceKind if k.is_accelerator])
_PATTERNS = st.sampled_from([p.value for p in ExecutionPattern])
_COUNTERS = st.fixed_dictionaries({}, optional={
    k: st.floats(0.0, 1e12) for k in CounterSnapshot.__dataclass_fields__})
_ACCEL_PARAMS = st.fixed_dictionaries(
    {"queue_count": st.integers(1, 8), "t0": _POS},
    optional={"a": st.floats(0.0, 1e-6), "resource": _KINDS,
              "fit_r2": st.none() | st.floats(-1.0, 1.0)})
_HYPER = st.fixed_dictionaries({}, optional={
    "n_trees": st.integers(0, 300), "max_depth": st.integers(0, 8),
    "learning_rate": st.floats(1e-6, 1.0), "subsample": st.floats(0.0, 1.0),
    "min_samples_leaf": st.integers(1, 9), "seed": st.integers(0, 9)})
_LEAF = st.builds(lambda v: {"feature": [-1], "threshold": [0.0], "left": [-1],
                             "right": [-1], "value": [v]}, _NUM)
_STUMP = st.builds(lambda f, t, lo, hi: {
    "feature": [f, -1, -1], "threshold": [t, 0.0, 0.0], "left": [1, -1, -1],
    "right": [2, -1, -1], "value": [0.0, lo, hi]},
    st.integers(0, len(FEATURE_NAMES) - 1), _NUM, _NUM, _NUM)
_GBR_HEAD = {"feature_order": st.just(list(FEATURE_NAMES)), "base_score": _NUM,
             "hyper": _HYPER}
_GBR_DOCS = st.fixed_dictionaries({
    "schema": st.just("gbr-model"), **_GBR_HEAD,
    "trees": st.lists(_LEAF | _STUMP, max_size=2)})
_CURVES = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "x": st.lists(_NUM, min_size=n, max_size=n).map(sorted),
    "y": st.lists(_NUM, min_size=n, max_size=n)}))
_SOLO_TABLES = st.fixed_dictionaries({
    "base_rate": _POS, "axes": st.dictionaries(_ATTRIBUTE, _CURVES, max_size=1),
    "bounds": st.dictionaries(_ATTRIBUTE, st.lists(_NUM, min_size=2, max_size=2),
                              max_size=2)})
_FOOTPRINTS = st.fixed_dictionaries(
    {"car_per_pkt": _NUM, "irt_per_pkt": _NUM, "mem_frac": _NUM, "wss_axis": _CURVES},
    optional={"miss_curve": st.none() | _CURVES})
_BUNDLES = st.fixed_dictionaries(
    {"schema": st.just("nf-predictor"), "nf": _TEXT,
     "pattern": _PATTERNS,
     "solo_table": _SOLO_TABLES, "footprint": _FOOTPRINTS},
    optional={"schema_version": st.just(1), "mem_model": st.none() | _GBR_DOCS,
              "accel_models": st.dictionaries(_ACCELS, _ACCEL_PARAMS, max_size=1),
              "metadata": st.dictionaries(_TEXT, st.integers(), max_size=2)})
_INSTANCES = st.fixed_dictionaries({
    "instance_id": _TEXT, "bundle": _BUNDLES, "traffic": _TRAFFIC_DOCS,
    "max_drop_ratio": st.floats(0.0, 1.0, exclude_min=True)})
_NICS = st.fixed_dictionaries({"nic_id": st.integers(0, 9)},
                              optional={"residents": st.lists(_INSTANCES, max_size=1)})
_STAGES = st.fixed_dictionaries(
    {"resource": _KINDS, "base_time": _POS},
    optional={"traffic_coeffs": st.fixed_dictionaries({}, optional={
        "match_cost": st.floats(0.0, 1e-6), "byte_cost": st.floats(0.0, 1e-6)})})
_SPECS = st.fixed_dictionaries(
    {"name": _TEXT, "pattern": _PATTERNS,
     "stages": st.lists(_STAGES, min_size=1, max_size=3, unique_by=lambda d: d["resource"])},
    optional={"queue_count": st.integers(1, 4), "wss_base": _NUM, "wss_per_flow": _NUM,
              "wss_cap": _NUM, "l2_refs_per_packet": _NUM,
              "instructions_per_packet": _NUM, "offered_rate": st.none() | _NUM,
              "car_override": st.none() | _NUM, "wss_override": st.none() | _NUM})
_SCENARIO_NFS = st.fixed_dictionaries({"spec": _SPECS, "traffic": _TRAFFIC_DOCS})
_COMPETITORS = st.fixed_dictionaries(
    {"params": _ACCEL_PARAMS, "attr_value": _NUM},
    optional={"offered_rate": st.just("saturating") | st.floats(0.0, 1e9)})
_ATTRIBUTE_BOXES = st.tuples(_ATTRIBUTE, _NUM, _NUM).filter(lambda t: t[1] != t[2]).map(
    lambda t: [t[0], *sorted(t[1:])])

#: Every Codec type with a strategy for its wire documents.
_INPUT_DOCS = {
    _Point: _POINTS,
    _Grid: st.fixed_dictionaries({"points": st.lists(_POINTS, min_size=1, max_size=3)}),
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
        "config": st.dictionaries(_TEXT, st.integers()),
        "schema": st.just("profiling-dataset"), "rows": st.integers(0, 99)}),
    TrafficProfile: _TRAFFIC_DOCS,
    CounterSnapshot: _COUNTERS,
    ThroughputSample: st.fixed_dictionaries({
        "scenario_id": _TEXT, "target_nf": _TEXT, "traffic": _TRAFFIC_DOCS,
        "competitor_counters": _COUNTERS, "observed_throughput": _POS}),
    AccelModelParams: _ACCEL_PARAMS,
    GbrHyperParams: _HYPER,
    # The wire leaves trees to GbrModel, so here they are opaque objects.
    _GbrWire: st.fixed_dictionaries({**_GBR_HEAD, "trees": st.lists(
        st.dictionaries(_TEXT, st.integers()), max_size=2)},
        optional={"schema": _TEXT, "schema_version": st.just(1)}),
    GbrModel: _GBR_DOCS,
    NfStage: _STAGES,
    NfSpec: _SPECS,
    _ContentionScenarioNf: _SCENARIO_NFS,
    _ContentionScenarioWire: st.fixed_dictionaries({"nfs": st.lists(_SCENARIO_NFS, max_size=2)}),
    ContentionScenario: st.fixed_dictionaries({"nfs": st.lists(
        _SCENARIO_NFS, min_size=1, max_size=4, unique_by=lambda e: e["spec"]["name"])}),
    SimulationResult: st.fixed_dictionaries({
        "per_nf_throughput": st.dictionaries(_TEXT, _NUM, max_size=2),
        "per_nf_counters": st.dictionaries(_TEXT, _COUNTERS, max_size=2),
        "per_nf_stage_throughput": st.dictionaries(
            _TEXT, st.dictionaries(_KINDS, _NUM), max_size=2),
        "bottleneck": st.dictionaries(_TEXT, _KINDS, max_size=2)}),
    _Competitor: _COMPETITORS,
    _ContentionWire: st.fixed_dictionaries({}, optional={
        "counters": _COUNTERS,
        "accel": st.dictionaries(_KINDS, st.lists(_COMPETITORS, max_size=2))}),
    PredictionResult: st.fixed_dictionaries(
        {"throughput": _NUM, "t_solo": _NUM, "drops": st.dictionaries(_KINDS, _NUM),
         "stage_rates": st.dictionaries(_KINDS, _NUM)},
        optional={"saturated": st.booleans()}),
    _Curve: _CURVES,
    _SoloTable: _SOLO_TABLES,
    _Footprint: _FOOTPRINTS,
    NfPredictor: _BUNDLES,
    ProfilingConfig: st.fixed_dictionaries(
        {"attributes": st.lists(_ATTRIBUTE_BOXES, min_size=1, max_size=3)},
        optional={"quota": st.integers(10, 300), "m": st.integers(1, 10),
                  "eps0": st.none() | _POS, "eps1": st.none() | _POS,
                  "seed": st.integers(0, 9), "min_box_frac": st.floats(1e-4, 0.5),
                  "contention_resources": st.lists(_KINDS, max_size=2)}),
    NfInstance: _INSTANCES,
    # The wire leaves the bundle to NfPredictor, so here it is an opaque object.
    _NfInstanceWire: st.fixed_dictionaries({
        "instance_id": _TEXT, "bundle": st.dictionaries(_TEXT, st.integers()),
        "traffic": _TRAFFIC_DOCS, "max_drop_ratio": _NUM}),
    Nic: _NICS,
    Fleet: st.fixed_dictionaries({}, optional={"nics": st.lists(_NICS, max_size=2)}),
    PlacementReport: st.fixed_dictionaries({
        "nic_count": st.integers(0, 9), "nf_count": st.integers(0, 9),
        "violating_instances": st.lists(_TEXT, max_size=3)}),
}


# Types that compare by identity: a _Curve, a GbrModel and whatever holds one.
_BY_IDENTITY = {_Curve, GbrModel, _SoloTable, _Footprint, NfPredictor, NfInstance, Nic, Fleet}


def _codec_types(cls=Codec):
    """Every subclass of ``cls`` that nicperf defines, at any depth."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("nicperf."):
            yield sub
        yield from _codec_types(sub)


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


@pytest.mark.parametrize("cls", sorted(set(_codec_types()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_input_types_roundtrip_and_reject_nan(cls, data):
    assert cls in _INPUT_DOCS, f"{cls.__name__} needs a strategy in _INPUT_DOCS"
    doc = data.draw(_INPUT_DOCS[cls])
    value = cls.from_dict(doc)
    text = json.dumps(value.to_dict(), sort_keys=True)
    again = cls.from_dict(json.loads(text))
    assert again == value or cls in _BY_IDENTITY
    assert json.dumps(again.to_dict(), sort_keys=True) == text
    for path in _float_paths(doc):
        with pytest.raises(InvalidInputError):
            cls.from_dict(_with_nan(doc, path))
