"""Execution-pattern-based composition of per-resource throughput drops.

A per-resource model gives the throughput drop each contended resource
would cause on its own; the end-to-end effect depends on whether the NF
runs as a pipeline (slowest stage wins) or run-to-completion (sojourn
times add up).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .core import ExecutionPattern, InvalidInputError, ResourceKind, mape

__all__ = [
    "PerResourceDrops",
    "AmbiguousPatternError",
    "PatternReport",
    "compose_pipeline",
    "compose_rtc",
    "compose_rates",
    "detect_pattern",
]


@dataclass(frozen=True)
class PerResourceDrops:
    """Solo throughput plus the drop attributed to each resource alone."""

    t_solo: float
    drops: Mapping[ResourceKind, float]

    def __post_init__(self) -> None:
        if self.t_solo <= 0:
            raise InvalidInputError("t_solo must be positive")
        if not self.drops:
            raise InvalidInputError("need at least one resource drop")
        for kind, d in self.drops.items():
            if not 0.0 <= d < self.t_solo:
                raise InvalidInputError(
                    f"drop for {kind.value} must be in [0, t_solo); got {d}"
                )
        object.__setattr__(self, "drops", dict(self.drops))

    @property
    def r(self) -> int:
        return len(self.drops)


def compose_pipeline(d: PerResourceDrops) -> float:
    """End-to-end throughput of a pipeline NF: T_solo - max drop."""
    return d.t_solo - max(d.drops.values())


def compose_rtc(d: PerResourceDrops) -> float:
    """End-to-end throughput of a run-to-completion NF.

    1 / (sum_j 1/(T_solo - dT_j) - (r - 1)/T_solo): contended sojourn
    times add, with the uncontended portion counted once.
    """
    inv = sum(1.0 / (d.t_solo - drop) for drop in d.drops.values())
    return 1.0 / (inv - (d.r - 1) / d.t_solo)


def compose_rates(pattern: ExecutionPattern, rates: Sequence[float]) -> float:
    """End-to-end rate of stages running at the given rates: the slowest
    stage of a pipeline, or summed per-packet times under run-to-completion."""
    if pattern is ExecutionPattern.PIPELINE:
        return min(rates)
    return 1.0 / sum(1.0 / r for r in rates)


class AmbiguousPatternError(RuntimeError):
    """Both composition formulas fit equally well."""

    def __init__(self, pipeline_mape: float, rtc_mape: float):
        super().__init__(
            f"cannot distinguish execution patterns: pipeline residual "
            f"{pipeline_mape:.3f}% vs run-to-completion {rtc_mape:.3f}%"
        )
        self.pipeline_mape = pipeline_mape
        self.rtc_mape = rtc_mape


@dataclass(frozen=True)
class PatternReport:
    pattern: ExecutionPattern
    pipeline_mape: float
    rtc_mape: float


#: A probe callback: maps per-resource contention levels (empty = solo) to
#: the target's measured end-to-end throughput.
ProbeRunner = Callable[[Mapping[ResourceKind, float]], float]

#: Contention levels probed per resource; two resources give a 9-point grid.
PROBE_LEVELS = (0.35, 0.7, 1.0)

#: Residual MAPEs closer than this many percentage points are ambiguous.
AMBIGUITY_MARGIN = 1.0


def detect_pattern(
    runner: ProbeRunner,
    resources: Sequence[ResourceKind],
) -> PatternReport:
    """Decide the execution pattern of an opaque NF by curve fitting.

    Measures end-to-end throughput on the cartesian grid of PROBE_LEVELS
    over the given resources, derives per-resource drops from
    single-resource probe runs, and returns the pattern whose composition
    formula has the lower residual MAPE.  Residuals within
    AMBIGUITY_MARGIN percentage points of each other (always the case for
    a single resource, where the formulas coincide) raise
    AmbiguousPatternError.
    """
    t_solo = runner({})
    # Per-resource drops at each probed level.
    drop_at: dict[ResourceKind, dict[float, float]] = {}
    for kind in resources:
        drop_at[kind] = {
            lvl: max(0.0, t_solo - runner({kind: lvl})) for lvl in PROBE_LEVELS
        }

    measured: list[float] = []
    pred_pipe: list[float] = []
    pred_rtc: list[float] = []

    for combo in itertools.product(PROBE_LEVELS, repeat=len(resources)):
        assignment = dict(zip(resources, combo))
        drops = {k: min(drop_at[k][v], t_solo * 0.999) for k, v in assignment.items()}
        d = PerResourceDrops(t_solo, drops)
        measured.append(runner(assignment))
        pred_pipe.append(compose_pipeline(d))
        pred_rtc.append(compose_rtc(d))
    m_pipe = mape(pred_pipe, measured)
    m_rtc = mape(pred_rtc, measured)
    if abs(m_pipe - m_rtc) < AMBIGUITY_MARGIN:
        raise AmbiguousPatternError(m_pipe, m_rtc)
    pattern = (
        ExecutionPattern.PIPELINE if m_pipe < m_rtc else ExecutionPattern.RUN_TO_COMPLETION
    )
    return PatternReport(pattern=pattern, pipeline_mape=m_pipe, rtc_mape=m_rtc)
