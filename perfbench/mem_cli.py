"""Workload ``mem-cli``: the documented CLI workflow on memory-only NFs.

For each memory-only NF of the catalog a round runs ``nicperf profile``
(adaptive) -> ``nicperf train`` -> ``nicperf evaluate`` in-process
through ``nicperf.cli.main``.  Memory-only scenarios simulate cheaply,
so the time goes to GBR training and to the CLI's own file I/O and
bundle parsing.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

from common import (
    car_factor,
    median,
    memory_rate,
    own_wss,
    sha256_file,
    wss_factor,
)

#: Profiling quota per NF.
QUOTA = 100
#: Held-out evaluate points per NF.
GRID_POINTS = 40
#: Profiled attribute box (the catalog's full ranges).
ATTRIBUTES = [["flow_count", 1, 500000], ["packet_size", 64, 1500], ["mtbr", 0, 1100]]
#: Acceptance thresholds of the method.
MAX_MAPE = 6.0
MIN_ACC10 = 90.0


class MemCli:
    setup_repeats = 3

    def __init__(self, seed: int, work: Path):
        from nicperf.catalog import TRAFFIC_SENSITIVE_NFS
        from nicperf.cli import main

        self.seed = seed
        self.work = work
        self.nfs = TRAFFIC_SENSITIVE_NFS
        self.cli = main
        self.round_digests: list[dict] = []

    def path(self, nf: str, suffix: str) -> Path:
        return self.work / f"{nf}{suffix}"

    def setup(self) -> None:
        """Writes one profiling config and one held-out grid per NF."""
        rng = np.random.default_rng([self.seed, 1])
        self.grids: dict[str, list[dict]] = {}
        for nf in self.nfs:
            cfg = {"attributes": ATTRIBUTES, "quota": QUOTA, "seed": self.seed}
            self.path(nf, ".cfg.json").write_text(json.dumps(cfg))
            points = []
            for _ in range(GRID_POINTS):
                points.append({
                    "traffic": {
                        "flow_count": int(rng.integers(1, 500_001)),
                        "packet_size": int(rng.integers(64, 1501)),
                        "mtbr": float(rng.uniform(0.0, 1100.0)),
                    },
                    "levels": {"memory": [float(rng.uniform()), float(rng.uniform())]},
                })
            self.grids[nf] = points
            self.path(nf, ".grid.json").write_text(json.dumps({"points": points}))

    def prepare(self) -> None:
        """No reference computation is needed before the rounds."""

    def _cli(self, *argv: str) -> None:
        self.attempted += 1
        self.failed += self.cli(list(argv)) != 0

    def run_round(self) -> dict:
        """Each NF's evaluate follows its own profile and train, so the
        build and the evaluate times both sample the host across the whole
        round rather than one stretch of it each."""
        self.attempted = self.failed = 0
        build_s = evaluate_s = 0.0
        for nf in self.nfs:
            t = time.perf_counter()
            self._cli("profile", "--nf", nf, "--strategy", "adaptive",
                      "--config", str(self.path(nf, ".cfg.json")),
                      "--out", str(self.path(nf, ".jsonl")))
            self._cli("train", "--nf", nf, "--dataset", str(self.path(nf, ".jsonl")),
                      "--out", str(self.path(nf, ".bundle.json")))
            build_s += time.perf_counter() - t
            t = time.perf_counter()
            self._cli("evaluate", "--bundle", str(self.path(nf, ".bundle.json")),
                      "--testgrid", str(self.path(nf, ".grid.json")),
                      "--out", str(self.path(nf, ".eval.csv")), "--jobs", "1")
            evaluate_s += time.perf_counter() - t
        self.round_digests.append(self.digests())
        return {"build_s": build_s, "evaluate_s": evaluate_s,
                "attempted": self.attempted, "failed": self.failed}

    def metrics(self, rounds: list[dict]) -> dict:
        """``build_s``: profile + train over the NFs; ``query_per_s``:
        grid points answered per second of ``nicperf evaluate``."""
        points = sum(len(g) for g in self.grids.values())
        return {
            "build_s": median([r["build_s"] for r in rounds]),
            "query_per_s": median([points / r["evaluate_s"] for r in rounds]),
        }

    def phases(self, rounds: list[dict]) -> dict:
        acc10 = {}
        for nf in self.nfs:
            rows = csv.reader(self.path(nf, ".eval.csv").open(newline=""))
            acc10.update({nf: float(r[-1]) for r in rows if r[0] == "summary_acc10"})
        return {"evaluate_s": median([r["evaluate_s"] for r in rounds]),
                "grid_points": sum(len(g) for g in self.grids.values()),
                "acc10_by_nf": acc10}

    def digests(self) -> dict:
        out = {}
        for nf in self.nfs:
            for suffix in (".jsonl", ".bundle.json", ".eval.csv"):
                p = self.path(nf, suffix)
                if p.exists():
                    out[p.name] = sha256_file(p)
        return out

    # -- checks ----------------------------------------------------------------

    def checks(self) -> list[str]:
        from nicperf.catalog import get_nf
        from nicperf.core import DEFAULT_TRAFFIC
        from nicperf.predictor import NfPredictor
        from nicperf.simulator import BENCH_CAR_MAX, BENCH_WSS_MAX, MemParams

        errors: list[str] = []
        mp = MemParams()
        llc = 6 * 2**20  # SimulatorRunner default, used by the CLI

        def truth(spec, flow_count: int, packet_size: int,
                  car_level: float = 0.0, wss_level: float = 0.0) -> float:
            (stage,) = spec.stages
            unit = stage.base_time + stage.traffic_coeffs.get("byte_cost", 0.0) * packet_size
            own = own_wss(spec.wss_base, spec.wss_per_flow, spec.wss_cap, flow_count)
            return memory_rate(
                unit,
                wss_factor(own + wss_level * BENCH_WSS_MAX, llc,
                           mp.wss_ramp_bytes, mp.wss_floor_frac),
                car_factor(car_level * BENCH_CAR_MAX, mp.car_knee, mp.car_sat,
                           mp.car_floor_frac),
            )

        within = total = 0
        for nf in self.nfs:
            spec = get_nf(nf)
            rows = list(csv.reader(self.path(nf, ".eval.csv").open(newline="")))
            points = [r for r in rows[1:] if r[0] == "point"]
            if len(points) != len(self.grids[nf]):
                errors.append(f"{nf}: {len(points)} evaluate rows for "
                              f"{len(self.grids[nf])} grid points")
            for row, p in zip(points, self.grids[nf]):
                t, (car, wss) = p["traffic"], p["levels"]["memory"]
                want = truth(spec, t["flow_count"], t["packet_size"], car, wss)
                got = float(row[5])
                if abs(got - want) > 1e-5 * want:
                    errors.append(f"{nf}: actual {got} != closed form {want} at {p}")
                    break
            summary = {r[0]: float(r[-1]) for r in rows if r[0].startswith("summary_")}
            if not summary.get("summary_mape", 1e9) <= MAX_MAPE:
                errors.append(f"{nf}: MAPE {summary.get('summary_mape')} > {MAX_MAPE}")
            errs = [float(r[7]) for r in points]
            within += sum(e <= 10.0 for e in errs)
            total += len(errs)
            acc10 = 100.0 * sum(e <= 10.0 for e in errs) / len(errs)
            if abs(summary.get("summary_acc10", -1) - acc10) > 0.01:
                errors.append(f"{nf}: summary acc10 {summary.get('summary_acc10')} is not "
                              f"the share of its points within 10%, {acc10:.2f}")

            text = self.path(nf, ".bundle.json").read_text()
            bundle = NfPredictor.from_json(text)
            if bundle.to_json() + "\n" != text:
                errors.append(f"{nf}: from_json(to_json(bundle)) changed the bytes")
            default = truth(spec, DEFAULT_TRAFFIC.flow_count, DEFAULT_TRAFFIC.packet_size)
            if abs(bundle.metadata["t_solo_default"] - default) > 1e-9 * default:
                errors.append(f"{nf}: t_solo_default {bundle.metadata['t_solo_default']}"
                              f" != closed form {default}")
            xs = bundle.solo_table.axes["flow_count"][0]
            for x in xs:
                traffic = DEFAULT_TRAFFIC.replace(flow_count=int(round(x)))
                want = truth(spec, traffic.flow_count, traffic.packet_size)
                got = bundle.t_solo(traffic)
                if abs(got - want) > 1e-4 * want:
                    errors.append(f"{nf}: t_solo {got} != closed form {want} at {traffic}")
                    break

            for out in (".jsonl", ".bundle.json", ".eval.csv"):
                manifest = json.loads(Path(str(self.path(nf, out)) + ".manifest.json").read_text())
                for role in ("inputs", "outputs"):
                    for p, digest in manifest[role].items():
                        if sha256_file(Path(p)) != digest:
                            errors.append(f"{nf}: manifest digest of {p} is stale")

        # Accuracy within 10% is gated over every point of every NF: on one
        # NF's 40 points a share near 95% moves by 2.5 points per point.
        if not 100.0 * within / total >= MIN_ACC10:
            errors.append(f"acc10 over all points {100.0 * within / total:.2f} < {MIN_ACC10}")
        if any(d != self.round_digests[0] for d in self.round_digests):
            errors.append("outputs differ between rounds of the same seed")
        return errors
