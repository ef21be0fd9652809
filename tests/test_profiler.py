import math

import numpy as np
import pytest

from conftest import default_config
from nicperf.catalog import SimulatorRunner, get_nf
from nicperf.core import InvalidInputError, ResourceKind
from nicperf.profiler import (
    FULL_PROFILE_CAP,
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


def runner_for(name):
    return SimulatorRunner(get_nf(name), seed=0)


def test_adaptive_respects_quota():
    ds = adaptive_profile("nat", default_config(quota=60), runner_for("nat"))
    assert ds.samples_used <= 60
    assert len(ds.rows) == ds.samples_used
    assert ds.strategy is Strategy.ADAPTIVE


def test_adaptive_deterministic():
    a = adaptive_profile("nat", default_config(quota=80), runner_for("nat"))
    b = adaptive_profile("nat", default_config(quota=80), runner_for("nat"))
    assert [r.to_dict() for r in a.rows] == [r.to_dict() for r in b.rows]


def test_adaptive_prunes_inert_attributes():
    # A memory-only flow-table NF does not react to packet size or MTBR.
    ds = adaptive_profile(
        "flowstats", default_config(quota=120), runner_for("flowstats")
    )
    assert "mtbr" in ds.pruned_attributes
    assert "packet_size" in ds.pruned_attributes
    assert "flow_count" not in ds.pruned_attributes


def test_adaptive_concentrates_on_the_transition():
    # flowtracker's working set crosses the LLC around 5K..12K flows; the
    # recursion should put far more of its contended samples there than a
    # uniform draw over [1, 200K] would.
    cfg = default_config(
        attributes=(("flow_count", 1.0, 200_000.0),), quota=150
    )
    ds = adaptive_profile("flowtracker", cfg, runner_for("flowtracker"))
    contended = [r.traffic.flow_count for r in ds.rows
                 if r.competitor_counters.car > 0]
    assert len(contended) >= 30
    in_box = sum(1 for f in contended if f <= 20_000)
    assert in_box / len(contended) >= 0.3  # uniform would give ~0.1


def test_quota_cannot_cover_pruning_probes():
    cfg = default_config(quota=4, m=1)
    with pytest.raises(QuotaExhaustedError):
        adaptive_profile("nat", cfg, runner_for("nat"))


def test_memoization_counts_only_new_runs():
    runner = runner_for("nat")
    adaptive_profile("nat", default_config(quota=80), runner)
    first = runner.runs
    adaptive_profile("nat", default_config(quota=80), runner)
    assert runner.runs == first  # every configuration repeats


def test_random_profile_fills_quota():
    ds = random_profile("iptunnel", default_config(quota=50),
                        runner_for("iptunnel"))
    assert ds.samples_used == 50
    # Memory contention draws carry decoupled CAR and WSS knobs, so the
    # two counter channels must not be perfectly correlated.
    cars = np.array([r.competitor_counters.car for r in ds.rows])
    wsss = np.array([r.competitor_counters.wss for r in ds.rows])
    live = cars > 0
    corr = np.corrcoef(cars[live], wsss[live])[0, 1]
    assert abs(corr) < 0.9


def test_full_profile_grid_and_cap():
    runner = runner_for("iptunnel")
    grid = {"flow_count": [1.0, 250_000.0, 500_000.0],
            "packet_size": [64.0, 1500.0]}
    ds = full_profile("iptunnel", FullProfileConfig(grid), runner)
    assert ds.samples_used == 6
    assert ds.strategy is Strategy.FULL
    for bad in ({"grid": {"flow_count": list(range(FULL_PROFILE_CAP + 1))}},
                {"grid": {"flow_count": [1.0]}, "draws_per_cell": 0},
                {"grid": {"flows": [1.0]}},
                {"grid": {"mtbr": [1.0, math.inf]}},
                {"grid": {"mtbr": []}}):
        with pytest.raises(InvalidInputError):
            FullProfileConfig(**bad)


def test_dataset_save_load_roundtrip(tmp_path):
    ds = random_profile("nat", default_config(quota=40), runner_for("nat"))
    path = tmp_path / "nat.jsonl"
    save_dataset(ds, path)
    again = load_dataset(path)
    assert again.nf_name == ds.nf_name
    assert again.strategy == ds.strategy
    assert again.samples_used == ds.samples_used
    assert [r.to_dict() for r in again.rows] == [r.to_dict() for r in ds.rows]
    # Saving the loaded dataset reproduces the file byte for byte.
    save_dataset(again, tmp_path / "nat2.jsonl")
    assert (tmp_path / "nat2.jsonl").read_bytes() == path.read_bytes()


def test_load_dataset_requires_manifest(tmp_path):
    # The rows alone are not a dataset: strategy and config live in the manifest.
    path = tmp_path / "nat.jsonl"
    path.write_text("")
    with pytest.raises(InvalidInputError, match="nat.manifest.json"):
        load_dataset(path)


def test_config_validation_and_roundtrip():
    with pytest.raises(InvalidInputError):
        ProfilingConfig(attributes=())
    with pytest.raises(InvalidInputError):
        ProfilingConfig(attributes=(("mtbr", 5.0, 1.0),))
    with pytest.raises(InvalidInputError):
        ProfilingConfig(attributes=(("mtbr", 0.0, 1.0),), quota=5, m=10)
    for bad in ((("flows", 0.0, 1.0),), (("mtbr", 0.0, math.inf),)):
        with pytest.raises(InvalidInputError):
            ProfilingConfig(attributes=bad)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            ProfilingConfig(attributes=(("mtbr", 0.0, 1.0),), eps1=eps)
    cfg = default_config(quota=77, eps0=100.0,
                         contention_resources=(ResourceKind.MEMORY,
                                               ResourceKind.REGEX_ACCEL))
    assert ProfilingConfig.from_dict(cfg.to_dict()) == cfg
