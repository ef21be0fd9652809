"""White-box queueing model of accelerator contention.

The shared accelerator round-robins over the request queues of every
co-located NF.  At equilibrium (all queues backlogged) NF ``i`` with
``n_i`` queues sustains

    T_i = n_i / sum_j(n_j^2 * t_j),      t_j = t_{j,0} + a_j * m_j

where ``t_j`` is NF ``j``'s average per-request time and ``m_j`` its
traffic attribute (matches/MB for regex, payload bytes for compression).
The parameter-inference procedure is black-box compatible: it only needs
equilibrium throughputs from co-runs with a benchmark NF whose own
parameters are known.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Codec, InvalidInputError, ResourceKind

__all__ = [
    "AccelModelParams",
    "InferenceError",
    "PoorFitWarning",
    "predict_equilibrium",
    "predict_at_offered_load",
    "infer_params",
]


class InferenceError(RuntimeError):
    """Parameter inference produced an inconsistent or non-finite system."""


class PoorFitWarning(UserWarning):
    """The per-request-time regression fit has R^2 below 0.95."""


@dataclass(frozen=True)
class AccelModelParams(Codec):
    """Per-NF accelerator parameters: n queues, t = t0 + a * attr."""

    queue_count: int
    t0: float
    a: float = 0.0
    resource: ResourceKind = ResourceKind.REGEX_ACCEL
    fit_r2: float | None = None  # regression quality, when inferred

    def __post_init__(self) -> None:
        if self.queue_count < 1:
            raise InvalidInputError("queue_count must be >= 1")
        if not 0 < self.t0 < math.inf:
            raise InvalidInputError(f"t0 must be finite and positive, got {self.t0}")
        if not 0 <= self.a < math.inf:
            raise InvalidInputError(f"a must be finite and non-negative, got {self.a}")

    def request_time(self, attr_value: float) -> float:
        return self.t0 + self.a * attr_value

    def solo_rate(self, attr_value: float) -> float:
        """Uncontended accelerator throughput at the given traffic."""
        return 1.0 / (self.queue_count * self.request_time(attr_value))


def predict_equilibrium(
    target: AccelModelParams,
    target_mtbr: float,
    competitors: Sequence[tuple[AccelModelParams, float]] = (),
) -> float:
    """Equilibrium throughput of the target under round-robin sharing.

    ``competitors`` pairs each co-located NF's parameters with its own
    traffic attribute value.  With no competitors this reduces to the
    solo rate 1 / (n * t).
    """
    denom = target.queue_count**2 * target.request_time(target_mtbr)
    for params, mtbr in competitors:
        denom += params.queue_count**2 * params.request_time(mtbr)
    return target.queue_count / denom


def predict_at_offered_load(
    target: AccelModelParams,
    target_mtbr: float,
    competitors: Sequence[tuple[AccelModelParams, float, float]] = (),
) -> float:
    """Accelerator throughput of the target below or at equilibrium.

    Each competitor is (params, attr_value, offered_rate) with
    ``offered_rate`` in requests/s (``inf`` for saturating).  Below the
    equilibrium the drop is linear in the competitor's offered rate,
    anchored at (zero load -> solo rate) and (equilibrium load ->
    equilibrium value); a saturating competitor sits at the equilibrium
    anchor.
    """
    if not competitors:
        return target.solo_rate(target_mtbr)
    # Water-filling over the round-robin fluid shares: competitors offering
    # less than their equilibrium share consume exactly offered * n * t of
    # the device; the backlogged set (target included) splits the rest in
    # proportion to n^2 * t.  For a single competitor this is the linear
    # drop from (zero load, solo rate) to (equilibrium load, equilibrium
    # value).
    entries = [
        (p.queue_count, p.request_time(m), rate) for p, m, rate in competitors
    ]
    backlogged = [np.isinf(rate) for _, _, rate in entries]
    tgt_cost = target.queue_count**2 * target.request_time(target_mtbr)
    while True:
        open_share = sum(
            rate * n * t
            for (n, t, rate), b in zip(entries, backlogged)
            if not b
        )
        denom = tgt_cost + sum(
            n * n * t for (n, t, _), b in zip(entries, backlogged) if b
        )
        residual = max(0.0, 1.0 - open_share)
        promoted = False
        for i, ((n, t, rate), b) in enumerate(zip(entries, backlogged)):
            if b:
                continue
            share = n * residual / denom  # rate it would get if backlogged
            if rate > share:
                backlogged[i] = True
                promoted = True
        if not promoted:
            return target.queue_count * residual / denom


def _solve_pair(
    t_a: float, c_a: float, t_b: float, c_b: float
) -> tuple[float, float]:
    """Solve two equilibrium equations T = n / (u + c) for (n, u)."""
    if t_a <= 0 or t_b <= 0 or t_a == t_b:
        raise InferenceError("equilibrium throughputs must be positive and distinct")
    n = (c_a - c_b) / (1.0 / t_a - 1.0 / t_b)
    u = n / t_a - c_a
    return n, u


def infer_params(
    corun: Callable[[int, float], float],
    solo: Callable[[float], float],
    bench_settings: Sequence[tuple[int, float]],
    attr_values: Sequence[float],
    resource: ResourceKind = ResourceKind.REGEX_ACCEL,
) -> AccelModelParams:
    """Infer (n, t0, a) for an opaque NF from equilibrium measurements.

    ``corun(n_bench, t_bench)`` must co-run the target with a saturating
    benchmark NF at the given known setting and return the target's
    equilibrium throughput.  ``solo(attr_value)`` must return the
    target's solo accelerator throughput at the given traffic attribute.

    Step 1 solves pairs of equilibrium equations for the queue count
    (structural: rounded to an integer, pairs must agree) and the
    contended-time constant.  Step 2 fits t = t0 + a * attr by least
    squares on the solo measurements, corrected by the inferred queue
    count.  A fit with R^2 < 0.95 attaches a PoorFitWarning.
    """
    if len(bench_settings) < 2:
        raise InvalidInputError("need at least two benchmark settings")
    if len(attr_values) < 3:
        raise InvalidInputError("need at least three traffic attribute values")

    costs = [n * n * t for n, t in bench_settings]
    throughputs = [corun(n, t) for n, t in bench_settings]

    estimates = []
    for i in range(1, len(bench_settings)):
        n_est, u_est = _solve_pair(throughputs[0], costs[0], throughputs[i], costs[i])
        if not np.isfinite(n_est) or n_est <= 0 or u_est <= 0:
            raise InferenceError(
                f"inconsistent system: n={n_est!r}, n^2*t={u_est!r}"
            )
        estimates.append(n_est)
    rounded = [max(1, round(e)) for e in estimates]
    if max(abs(e - r) for e, r in zip(estimates, rounded)) > 0.25 or len(set(rounded)) > 1:
        raise InferenceError(f"queue-count estimates disagree: {estimates}")
    n = rounded[0]

    # Solo accelerator throughput is 1 / (n * t); recover t per attr value.
    xs = np.asarray(attr_values, dtype=float)
    ts = np.array([1.0 / (n * solo(v)) for v in xs])
    a_fit, t0_fit = np.polyfit(xs, ts, 1)
    a_fit = max(0.0, float(a_fit))
    residual = ts - (t0_fit + a_fit * xs)
    ss_tot = float(np.sum((ts - ts.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(residual**2)) / ss_tot
    if t0_fit <= 0 or not np.isfinite(t0_fit):
        raise InferenceError(f"non-physical base request time {t0_fit!r}")
    if r2 < 0.95:
        warnings.warn(
            f"per-request-time regression fits poorly (R^2 = {r2:.3f})",
            PoorFitWarning,
        )
    return AccelModelParams(
        queue_count=n, t0=float(t0_fit), a=a_fit, resource=resource, fit_r2=r2
    )
