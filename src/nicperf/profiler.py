"""Offline data collection over the traffic-attribute space.

Three strategies produce training datasets from co-run measurements:

  * full      -- the complete Cartesian traffic grid, one or more random
                 contention draws per cell; expensive, used as the
                 reference for efficiency comparisons.
  * random    -- quota-many uniform-random (traffic, contention) draws.
  * adaptive  -- prune traffic attributes the NF is insensitive to, then
                 binary-split sampling along the joint attribute diagonal,
                 concentrating samples where solo throughput changes.

All strategies are seeded and deterministic, memoize repeated
configurations, and never exceed the sample quota.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from enum import Enum
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_TRAFFIC,
    Codec,
    InvalidInputError,
    ResourceKind,
    ThroughputSample,
    TrafficProfile,
    _read_text,
)
from .simulator import levels_key

__all__ = [
    "ProfilingConfig",
    "FullProfileConfig",
    "ProfilingDataset",
    "Strategy",
    "QuotaExhaustedError",
    "adaptive_profile",
    "random_profile",
    "full_profile",
    "save_dataset",
    "load_dataset",
]

#: Attributes stored as integers in TrafficProfile.
_INT_ATTRS = ("flow_count", "packet_size")

#: The ``schema`` of a dataset manifest.
_DATASET_SCHEMA = "profiling-dataset"

#: Hard cap on full-profiling dataset size.
FULL_PROFILE_CAP = 20_000


class Strategy(str, Enum):
    FULL = "full"
    RANDOM = "random"
    ADAPTIVE = "adaptive"


class QuotaExhaustedError(RuntimeError):
    """The sample quota cannot cover the mandatory pruning probes."""


def _check_names(owner: str, names) -> None:
    for name in names:
        if name not in TrafficProfile.__dataclass_fields__:
            raise InvalidInputError(f"{owner}: unknown traffic attribute {name!r}")


def _make_traffic(values: dict[str, float],
                  base: TrafficProfile = DEFAULT_TRAFFIC) -> TrafficProfile:
    """``base`` with ``values`` set, the integer attributes rounded."""
    kw = {}
    for name, v in values.items():
        kw[name] = int(round(v)) if name in _INT_ATTRS else float(v)
    return base.replace(**kw)


@dataclasses.dataclass(frozen=True)
class ProfilingConfig(Codec):
    """Hyperparameters of one profiling run.

    eps0 (attribute pruning) and eps1 (recursion stop) default to 5% of
    the NF's solo throughput at default traffic, resolved when profiling
    starts.  min_box_frac floors the recursion box width per attribute.
    """

    attributes: tuple[tuple[str, float, float], ...]
    quota: int = 200
    eps0: float | None = None
    eps1: float | None = None
    m: int = 10
    seed: int = 0
    min_box_frac: float = 1.0 / 512.0
    contention_resources: tuple[ResourceKind, ...] = (ResourceKind.MEMORY,)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise InvalidInputError("need at least one traffic attribute")
        _check_names("ProfilingConfig.attributes", (a[0] for a in self.attributes))
        for name, lo, hi in self.attributes:
            if not -math.inf < lo < hi < math.inf:
                raise InvalidInputError(f"attribute {name}: need finite min < max")
        if self.m < 1:
            raise InvalidInputError("m must be >= 1")
        if self.quota < self.m:
            raise InvalidInputError("quota must cover at least m samples")
        for eps in (self.eps0, self.eps1):
            if eps is not None and not 0 < eps < math.inf:
                raise InvalidInputError("eps0 and eps1 must be finite and positive")
        if not 0 < self.min_box_frac < 1:
            raise InvalidInputError("min_box_frac must be in (0, 1)")
        # np.random.default_rng would reject it with a ValueError.
        if self.seed < 0:
            raise InvalidInputError(f"ProfilingConfig.seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "attributes",
                           tuple((str(n), float(a), float(b))
                                 for n, a, b in self.attributes))
        object.__setattr__(self, "contention_resources",
                           tuple(ResourceKind(r) for r in self.contention_resources))


@dataclasses.dataclass(frozen=True)
class FullProfileConfig(Codec):
    """The full strategy's grid: every combination of each traffic
    attribute's listed values, with draws_per_cell random contention
    draws per cell and at most FULL_PROFILE_CAP samples in all."""

    grid: dict[str, tuple[float, ...]]
    draws_per_cell: int = 1
    seed: int = 0
    contention_resources: tuple[ResourceKind, ...] = (ResourceKind.MEMORY,)

    def __post_init__(self) -> None:
        grid = {n: tuple(map(float, self.grid[n])) for n in sorted(self.grid)}
        object.__setattr__(self, "grid", grid)
        _check_names("FullProfileConfig.grid", grid)
        if not grid or not all(grid.values()) or \
                not all(map(math.isfinite, itertools.chain(*grid.values()))):
            raise InvalidInputError("FullProfileConfig.grid: need finite values per attribute")
        if self.seed < 0:
            raise InvalidInputError(f"FullProfileConfig.seed must be >= 0, got {self.seed}")
        size = self.draws_per_cell * math.prod(map(len, grid.values()))
        if not 0 < size <= FULL_PROFILE_CAP:
            raise InvalidInputError(f"full grid would need {size} samples, not 1 to the cap "
                                    f"of {FULL_PROFILE_CAP} (draws_per_cell must be >= 1)")


@dataclasses.dataclass
class ProfilingDataset:
    nf_name: str
    strategy: Strategy
    rows: list[ThroughputSample]
    pruned_attributes: tuple[str, ...]
    samples_used: int
    config: dict


class _Book:
    """Mutable sample accounting: memoization, quota, and row collection."""

    def __init__(self, nf_name: str, strategy: Strategy, quota: int | None):
        self.nf_name = nf_name
        self.strategy = strategy
        self.quota = quota
        self.rows: list[ThroughputSample] = []
        self.used = 0
        self._memo: dict = {}

    def full(self) -> bool:
        return self.quota is not None and self.used >= self.quota

    def dataset(self, config: dict, pruned: tuple[str, ...] = ()) -> ProfilingDataset:
        """The rows collected so far, as a dataset profiled under ``config``."""
        return ProfilingDataset(self.nf_name, self.strategy, self.rows, pruned,
                                self.used, config)


def _draw_levels(rng, resources) -> dict:
    """Random contention draw; the memory bench gets two independent
    knobs (access rate, working set) so their effects stay identifiable."""
    out = {}
    for r in resources:
        if r is ResourceKind.MEMORY:
            out[r] = (float(rng.uniform()), float(rng.uniform()))
        else:
            out[r] = float(rng.uniform())
    return out


def profile_one(book: _Book, traffic: TrafficProfile, levels, runner) -> float:
    """One (possibly memoized) co-run; counts only unseen configurations."""
    key = (traffic, levels_key(levels))
    hit = book._memo.get(key)
    if hit is not None:
        return hit
    sid = f"{book.nf_name}-{book.strategy.value}-{book.used:05d}"
    row = runner.sample(sid, traffic, levels)
    book._memo[key] = row.observed_throughput
    book.rows.append(row)
    book.used += 1
    return row.observed_throughput


def _resolve_eps(config: ProfilingConfig, runner) -> tuple[float, float]:
    if config.eps0 is not None and config.eps1 is not None:
        return config.eps0, config.eps1
    base = runner.solo_throughput(DEFAULT_TRAFFIC)
    dflt = 0.05 * base
    return config.eps0 or dflt, config.eps1 or dflt


def adaptive_profile(nf_name: str, config: ProfilingConfig, runner) -> ProfilingDataset:
    """Two-phase adaptive profiling under a hard sample quota.

    Phase 1 probes solo throughput at each attribute's bounds (others at
    default) and prunes attributes whose swing stays under eps0.  Phase 2
    recursively splits the joint box of the remaining attributes: when
    the solo-throughput gap between the box corners reaches eps1, it
    collects m samples at the box midpoint under random contention and
    recurses into both halves, upper half first.
    """
    eps0, eps1 = _resolve_eps(config, runner)
    rng = np.random.default_rng(config.seed)
    book = _Book(nf_name, Strategy.ADAPTIVE, config.quota)

    if config.quota < 2 * len(config.attributes):
        raise QuotaExhaustedError(
            f"quota {config.quota} cannot cover {2 * len(config.attributes)} "
            "pruning probes"
        )

    kept: list[tuple[str, float, float]] = []
    pruned: list[str] = []
    for name, lo, hi in config.attributes:
        t_lo = profile_one(book, _make_traffic({name: lo}), {}, runner)
        t_hi = profile_one(book, _make_traffic({name: hi}), {}, runner)
        if abs(t_hi - t_lo) < eps0:
            pruned.append(name)
        else:
            kept.append((name, lo, hi))

    def draw_levels() -> dict:
        return _draw_levels(rng, config.contention_resources)

    names = [a[0] for a in kept]
    ranges = np.array([[a[1], a[2]] for a in kept], dtype=float)

    # Depth first, upper half first: a stack of boxes, not a recursive
    # closure, whose self-reference would keep the runner alive after
    # the call until the next cyclic garbage collection.
    boxes = [(ranges[:, 0].copy(), ranges[:, 1].copy())] if kept else []
    while boxes and not book.full():
        lo, hi = boxes.pop()
        t_lo = profile_one(book, _make_traffic(dict(zip(names, lo))), {}, runner)
        if book.full():
            break
        t_hi = profile_one(book, _make_traffic(dict(zip(names, hi))), {}, runner)
        if abs(t_hi - t_lo) < eps1:
            continue
        widths = hi - lo
        floors = config.min_box_frac * (ranges[:, 1] - ranges[:, 0])
        if np.all(widths <= floors):
            continue
        mid = (lo + hi) / 2.0
        mid_traffic = _make_traffic(dict(zip(names, mid)))
        for _ in range(config.m):
            if book.full():
                break
            profile_one(book, mid_traffic, draw_levels(), runner)
        boxes.append((lo, mid))
        boxes.append((mid, hi))

    return book.dataset({**config.to_dict(), "eps0": eps0, "eps1": eps1}, tuple(pruned))


def random_profile(nf_name: str, config: ProfilingConfig, runner) -> ProfilingDataset:
    """Quota-many uniform-random (traffic, contention) samples, seeded."""
    rng = np.random.default_rng(config.seed)
    book = _Book(nf_name, Strategy.RANDOM, config.quota)
    attempts = 0
    while not book.full() and attempts < 20 * config.quota:
        attempts += 1
        values = {name: float(rng.uniform(lo, hi))
                  for name, lo, hi in config.attributes}
        levels = _draw_levels(rng, config.contention_resources)
        profile_one(book, _make_traffic(values), levels, runner)
    return book.dataset(config.to_dict())


def full_profile(nf_name: str, config: FullProfileConfig, runner) -> ProfilingDataset:
    """The complete Cartesian traffic grid with random contention draws."""
    rng = np.random.default_rng(config.seed)
    book = _Book(nf_name, Strategy.FULL, None)
    names = list(config.grid)
    for combo in itertools.product(*config.grid.values()):
        traffic = _make_traffic(dict(zip(names, combo)))
        for _ in range(config.draws_per_cell):
            profile_one(book, traffic, _draw_levels(rng, config.contention_resources), runner)
    return book.dataset(config.to_dict())


# --------------------------------------------------------------------------
# Persistence: JSONL rows plus a sidecar manifest.
# --------------------------------------------------------------------------

def _manifest_path(jsonl_path: Path) -> Path:
    return jsonl_path.with_suffix(".manifest.json")


def save_dataset(dataset: ProfilingDataset, path: str | Path) -> Path:
    """Writes rows as JSONL and the run manifest beside it; returns the
    manifest path."""
    path = Path(path)
    with path.open("w") as f:
        for row in dataset.rows:
            f.write(json.dumps(row.to_dict(), sort_keys=True,
                               separators=(",", ":")) + "\n")
    manifest = _Manifest(
        nf=dataset.nf_name, strategy=dataset.strategy, samples_used=dataset.samples_used,
        pruned_attributes=dataset.pruned_attributes, config=dataset.config,
        schema=_DATASET_SCHEMA, rows=len(dataset.rows)).to_dict()
    mpath = _manifest_path(path)
    mpath.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return mpath


@dataclasses.dataclass(frozen=True)
class _Manifest(Codec):
    """A dataset manifest; ``rows`` counts the rows of the JSONL beside it."""

    nf: str
    strategy: Strategy
    samples_used: int
    pruned_attributes: tuple[str, ...]
    config: dict
    schema: str
    rows: int

    def __post_init__(self) -> None:
        if self.schema != _DATASET_SCHEMA:
            raise InvalidInputError(f"not a dataset manifest: schema {self.schema!r}")


def load_dataset(path: str | Path) -> ProfilingDataset:
    path = Path(path)
    rows = [ThroughputSample.from_dict(json.loads(line))
            for line in _read_text(path).splitlines() if line.strip()]
    mpath = _manifest_path(path)
    if not mpath.exists():
        raise InvalidInputError(
            f"dataset {path} has no manifest {mpath.name}; "
            "a dataset is the JSONL rows plus the manifest profile writes"
        )
    m = _Manifest.from_dict(json.loads(_read_text(mpath)))
    if m.rows != len(rows):
        raise InvalidInputError(f"{mpath.name} counts {m.rows} rows, but {path.name} "
                                f"has {len(rows)}")
    return ProfilingDataset(
        nf_name=m.nf,
        strategy=m.strategy,
        rows=rows,
        pruned_attributes=m.pruned_attributes,
        samples_used=m.samples_used,
        config=m.config,
    )
