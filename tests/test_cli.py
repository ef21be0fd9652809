import csv
import hashlib
import json
from pathlib import Path

import pytest

from nicperf.cli import _load_arrivals, main

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
