"""Workload ``place-fleet``: online placement and oracle scoring.

Set-up draws seeded arrival sequences.  A round builds bundles with
the code under test for a mix of memory-only and multi-resource NFs,
places the sequences one at a time with the contention-aware strategy
(timed per arrival), places them greedily, and then scores fleets with
the oracle: ``evaluate_placement`` on the contention-aware and the
greedy fleets, and ``optimal_nic_count`` on small arrival sets.  No
training happens while placing or scoring.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from common import median, sha256_text, strata, tail_percentile

#: Bundles: two memory-only NFs and one multi-resource NF.
NFS = ("nat", "iptunnel", "ipcomp")
QUOTA = 200
#: Profiling seed of the bundles, the same in every run: the workload
#: seed varies the arrivals, not the models placing them.
PROFILE_SEED = 1
#: Every arrival accepts at most this throughput drop below its solo rate.
MAX_DROP = 0.10
#: Timed arrival sequences, and arrivals of each NF per sequence.
SEQUENCES = 36
PER_NF = {"nat": 3, "iptunnel": 3, "ipcomp": 3}
#: Small arrival sets for the exhaustive optimum, and arrivals per NF.
#: The wastage check sums over every set: with 32 sets (about 64 NICs)
#: one set placed one NIC over the optimum reads 1.6%, so the check
#: tests the strategy's mean wastage, not the luck of one set.
OPT_SETS = 32
OPT_PER_NF = {"nat": 3, "iptunnel": 2, "ipcomp": 1}
#: Checks: aware violations at most this share of greedy violations,
#: and summed NIC wastage against the optimum at most this percentage.
MAX_VIOLATION_SHARE = 0.2
MAX_WASTAGE_PCT = 5.0


class PlaceFleet:
    setup_repeats = 3

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.round_fleets: list[tuple] = []

    def setup(self) -> None:
        """Draws the arrival sequences: NFs, traffic and order."""
        self.sequence_draws = self._draws(np.random.default_rng([self.seed, 4]),
                                          np.random.default_rng(4), PER_NF, SEQUENCES)
        self.small_set_draws = self._draws(np.random.default_rng([self.seed, 5]),
                                           np.random.default_rng(5), OPT_PER_NF, OPT_SETS)

    def prepare(self) -> None:
        """No reference computation is needed before the rounds."""

    @staticmethod
    def _draws(rng, template, per_nf: dict, count: int) -> list:
        """``count`` arrival sequences of ``(nf, traffic)``, each with
        ``per_nf[nf]`` arrivals of every NF.

        Each attribute of each NF is spread over its range in as many
        equal strata as the NF has arrivals in all ``count`` sequences;
        ``rng`` draws the value within each stratum, and ``template``,
        which does not follow the seed, assigns the strata to arrivals and
        orders each sequence.  So every seed places the same mix: over
        ten seeds the GBR predictions made while placing 36 sequences
        varied by 0.4% (CV), against 5% with strata per sequence and 10%
        with the order and the strata drawn from the seed as well.
        """
        from nicperf.core import TrafficProfile

        values = {nf: [strata(rng, count * per_nf[nf], lo, hi, template)
                       for lo, hi in ((1, 500_000), (64, 1500), (0.0, 1100.0))]
                  for nf in NFS}
        out = []
        for k in range(count):
            drawn = []
            for nf in NFS:
                n = per_nf[nf]
                for j in range(k * n, (k + 1) * n):
                    flows, size, mtbr = (v[j] for v in values[nf])
                    drawn.append((nf, TrafficProfile(int(round(flows)), int(round(size)),
                                                     float(mtbr))))
            out.append([drawn[j] for j in template.permutation(len(drawn))])
        return out

    def _instances(self, draws: list, tag: str) -> list:
        from nicperf.apps import NfInstance, SlaSpec

        return [[NfInstance(f"{tag}{k}-{i}-{nf}", self.bundles[nf], traffic, SlaSpec(MAX_DROP))
                 for i, (nf, traffic) in enumerate(seq)]
                for k, seq in enumerate(draws)]

    def run_round(self) -> dict:
        from nicperf.apps import (
            Fleet,
            PlacementStrategy,
            evaluate_placement,
            optimal_nic_count,
            place,
            place_sequence,
        )
        from nicperf.catalog import ATTRIBUTE_RANGES, SimulatorRunner, get_nf
        from nicperf.predictor import build
        from nicperf.profiler import ProfilingConfig

        config = ProfilingConfig(
            attributes=tuple((n, lo, hi) for n, (lo, hi) in ATTRIBUTE_RANGES.items()),
            quota=QUOTA, seed=PROFILE_SEED)
        self.bundles = {}
        self.texts = {}
        t = time.perf_counter()
        for nf in NFS:
            self.bundles[nf] = build(nf, config, SimulatorRunner(get_nf(nf), seed=0))
            self.texts[nf] = self.bundles[nf].to_json()
        build_s = time.perf_counter() - t
        self.sequences = self._instances(self.sequence_draws, "s")
        self.small_sets = self._instances(self.small_set_draws, "o")

        # Each sequence is placed and then scored before the next, so the
        # placement time samples the host across the whole round.
        latencies = []
        aware, greedy, reports = [], [], []
        score_s = 0.0
        for seq in self.sequences:
            fleet = Fleet()
            for arrival in seq:
                t = time.perf_counter()
                place(fleet, arrival, PlacementStrategy.CONTENTION_AWARE)
                latencies.append(time.perf_counter() - t)
            aware.append(fleet)
            greedy.append(place_sequence(seq, PlacementStrategy.GREEDY))
            t = time.perf_counter()
            reports.append((evaluate_placement(aware[-1]), evaluate_placement(greedy[-1])))
            score_s += time.perf_counter() - t
        small_aware = [place_sequence(s, PlacementStrategy.CONTENTION_AWARE)
                       for s in self.small_sets]

        t = time.perf_counter()
        small_reports = [evaluate_placement(f) for f in small_aware]
        optimum = [optimal_nic_count(s) for s in self.small_sets]
        score_s += time.perf_counter() - t

        self.round_fleets.append((aware, greedy, small_aware, reports, optimum,
                                  small_reports))
        n_arrivals = sum(len(s) for s in self.sequences)
        n_small = sum(len(s) for s in self.small_sets)
        return {"build_s": build_s, "latencies": latencies, "score_s": score_s,
                "attempted": 2 * n_arrivals + n_small + 2 * SEQUENCES + 2 * OPT_SETS,
                "failed": 0}

    @staticmethod
    def metrics(rounds: list[dict]) -> dict:
        """``build_s``: build() + to_json() over the NFs; ``query_per_s``:
        arrivals placed per second over every timed sequence."""
        lat = [x for r in rounds for x in r["latencies"]]
        return {"build_s": median([r["build_s"] for r in rounds]),
                "query_per_s": len(lat) / sum(lat)}

    def phases(self, rounds: list[dict]) -> dict:
        lat = [x for r in rounds for x in r["latencies"]]
        reports = self.round_fleets[-1][3]
        wastage, left_out = self.small_set_wastage()
        return {"place_ms_p90": 1000.0 * tail_percentile(lat, 90),
                "place_samples": len(lat),
                "score_s": median([r["score_s"] for r in rounds]),
                "violations_aware": sum(len(a.violating_instances) for a, _ in reports),
                "violations_greedy": sum(len(g.violating_instances) for _, g in reports),
                "small_set_wastage_pct": wastage,
                "small_sets_violating": left_out}

    def digests(self) -> dict:
        return {f"{nf}.bundle.json": sha256_text(self.texts[nf] + "\n") for nf in NFS}

    def fleet_signature(self, k: int) -> list:
        aware, greedy, small_aware, reports, optimum, small_reports = self.round_fleets[k]
        nics = [[[i.instance_id for i in nic.residents] for nic in f.nics]
                for f in aware + greedy + small_aware]
        return [nics, [(a.violating_instances, g.violating_instances) for a, g in reports],
                optimum, [r.violating_instances for r in small_reports]]

    def small_set_wastage(self) -> tuple[float, int]:
        """Summed NIC wastage in percent of the optimum over the small sets
        whose contention-aware fleet the oracle finds violation-free, and
        the number of sets left out because theirs is not."""
        _, _, small_aware, _, optimum, small_reports = self.round_fleets[-1]
        placed = best = left_out = 0
        for fleet, opt, report in zip(small_aware, optimum, small_reports):
            if report.violating_instances:
                left_out += 1
                continue
            placed += len(fleet.nics)
            best += opt
        return 100.0 * (placed - best) / best, left_out

    # -- checks ----------------------------------------------------------------

    def checks(self) -> list[str]:
        from nicperf.apps import NF_SLOTS

        errors: list[str] = []
        aware, greedy, small_aware, reports, optimum, small_reports = self.round_fleets[-1]
        for seqs, fleets, label in ((self.sequences, aware, "aware"),
                                    (self.sequences, greedy, "greedy"),
                                    (self.small_sets, small_aware, "small aware")):
            for seq, fleet in zip(seqs, fleets):
                placed = [i.instance_id for nic in fleet.nics for i in nic.residents]
                if sorted(placed) != sorted(a.instance_id for a in seq):
                    errors.append(f"{label}: arrivals not placed exactly once")
                if any(len(nic.residents) > NF_SLOTS for nic in fleet.nics):
                    errors.append(f"{label}: a NIC holds more than {NF_SLOTS} NFs")

        v_aware = sum(len(a.violating_instances) for a, _ in reports)
        v_greedy = sum(len(g.violating_instances) for _, g in reports)
        if v_aware > MAX_VIOLATION_SHARE * v_greedy:
            errors.append(f"aware violations {v_aware} > {MAX_VIOLATION_SHARE} x "
                          f"greedy violations {v_greedy}")

        for s, fleet, opt, report in zip(self.small_sets, small_aware, optimum,
                                         small_reports):
            lower = math.ceil(len(s) / NF_SLOTS)
            if opt < lower:
                errors.append(f"optimum {opt} below the slot bound {lower}")
            # The optimum is the smallest violation-free fleet, so a fleet
            # below it must violate an SLA.
            if not report.violating_instances and opt > len(fleet.nics):
                errors.append(f"optimum {opt} above a violation-free fleet of "
                              f"{len(fleet.nics)} NICs")
        wastage, _ = self.small_set_wastage()
        if wastage > MAX_WASTAGE_PCT:
            errors.append(f"summed NIC wastage {wastage:.2f}% > {MAX_WASTAGE_PCT}%")

        first = self.fleet_signature(0)
        if any(self.fleet_signature(k) != first for k in range(1, len(self.round_fleets))):
            errors.append("placements differ between rounds of the same seed")
        return errors
