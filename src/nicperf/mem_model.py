"""Black-box memory-subsystem contention model.

A least-squares gradient-boosted ensemble of binary regression trees over
the competitor's 7 performance counters plus the target's 3 traffic
attributes (10 features, fixed order).  Tree ensembles fit the
piece-wise-linear shape of memory contention well; features are used raw
since tree splits are scale-invariant.

Implemented in-repo so that training is bit-deterministic and the model
file round-trips exactly.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Codec,
    CounterSnapshot,
    InvalidInputError,
    ThroughputSample,
    TrafficProfile,
)

__all__ = [
    "FEATURE_NAMES",
    "GbrHyperParams",
    "GbrModel",
    "DegenerateDataWarning",
    "feature_vector",
    "train",
    "predict",
]

#: Fixed feature order: competitor counters then target traffic attributes.
FEATURE_NAMES = (
    "ipc", "irt", "l2crd", "l2cwr", "memrd", "memwr", "wss",
    "flow_count", "packet_size", "mtbr",
)

SCHEMA_VERSION = 1
MAX_BINS = 64


class DegenerateDataWarning(UserWarning):
    """Training data had a constant target; the model is a constant."""


def feature_vector(counters: CounterSnapshot, traffic: TrafficProfile) -> np.ndarray:
    c = counters
    return np.array(
        [c.ipc, c.irt, c.l2crd, c.l2cwr, c.memrd, c.memwr, c.wss,
         traffic.flow_count, traffic.packet_size, traffic.mtbr],
        dtype=float,
    )


@dataclass(frozen=True)
class GbrHyperParams(Codec):
    n_trees: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    subsample: float = 1.0
    min_samples_leaf: int = 2
    seed: int = 0


@dataclass
class _Tree(Codec):
    """Flat-array binary regression tree.

    Internal node i splits on feature[i] at threshold[i]; left/right hold
    child indices.  A leaf has feature -1 and its prediction in value.
    """

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_leaf(self, val: float) -> int:
        return self._add(-1, 0.0, -1, -1, val)

    def add_split(self, feat: int, thr: float) -> int:
        return self._add(feat, thr, -1, -1, 0.0)

    def _add(self, feat: int, thr: float, lo: int, hi: int, val: float) -> int:
        self.feature.append(feat)
        self.threshold.append(thr)
        self.left.append(lo)
        self.right.append(hi)
        self.value.append(val)
        return len(self.feature) - 1

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        out = np.empty(len(x))
        feature = self.feature
        for row in range(len(x)):
            i = 0
            while feature[i] >= 0:
                if x[row, feature[i]] <= self.threshold[i]:
                    i = self.left[i]
                else:
                    i = self.right[i]
            out[row] = self.value[i]
        return out


def _best_split(
    x: np.ndarray, residual: np.ndarray, min_leaf: int
) -> tuple[int, float, np.ndarray] | None:
    """Histogram split search: best (feature, threshold, left mask) by SSE gain."""
    n, n_feat = x.shape
    total_sum = residual.sum()
    base = total_sum**2 / n
    best_gain = 1e-12
    best = None
    for f in range(n_feat):
        col = x[:, f]
        # Candidate thresholds from quantile bin edges of this node's rows.
        uniq = np.unique(col)
        if len(uniq) < 2:
            continue
        if len(uniq) > MAX_BINS:
            qs = np.quantile(col, np.linspace(0, 1, MAX_BINS + 1)[1:-1])
            cands = np.unique(qs)
        else:
            cands = (uniq[:-1] + uniq[1:]) / 2.0
        order = np.argsort(col, kind="stable")
        col_sorted = col[order]
        res_sorted = residual[order]
        cum = np.cumsum(res_sorted)
        # Rows with value <= threshold go left.
        counts = np.searchsorted(col_sorted, cands, side="right")
        ok = (counts >= min_leaf) & (counts <= n - min_leaf)
        if not ok.any():
            continue
        counts = counts[ok]
        cands = cands[ok]
        s_left = cum[counts - 1]
        gains = s_left**2 / counts + (total_sum - s_left) ** 2 / (n - counts) - base
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best = (f, float(cands[i]), int(counts[i]))
    if best is None:
        return None
    f, thr, _ = best
    return f, thr, x[:, f] <= thr


def _fit_tree(
    x: np.ndarray, residual: np.ndarray, max_depth: int, min_leaf: int
) -> _Tree:
    tree = _Tree()

    def grow(rows: np.ndarray, depth: int) -> int:
        res = residual[rows]
        if depth >= max_depth or len(rows) < 2 * min_leaf:
            return tree.add_leaf(float(res.mean()))
        split = _best_split(x[rows], res, min_leaf)
        if split is None:
            return tree.add_leaf(float(res.mean()))
        f, thr, left_mask = split
        node = tree.add_split(f, thr)
        tree.left[node] = grow(rows[left_mask], depth + 1)
        tree.right[node] = grow(rows[~left_mask], depth + 1)
        return node

    grow(np.arange(len(x)), 0)
    return tree


@dataclass
class GbrModel:
    """Trained gradient-boosted regression ensemble (throughput in pps)."""

    base_score: float
    trees: list[_Tree]
    hyper: GbrHyperParams
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(self.feature_names):
            raise InvalidInputError(
                f"expected {len(self.feature_names)} features, got {x.shape[1]}"
            )
        out = np.full(len(x), self.base_score)
        lr = self.hyper.learning_rate
        for tree in self.trees:
            out += lr * tree.predict(x)
        return np.maximum(out, 0.0)

    def to_dict(self) -> dict:
        return {
            "schema": "gbr-model",
            "schema_version": SCHEMA_VERSION,
            "feature_order": list(self.feature_names),
            "base_score": self.base_score,
            "hyper": self.hyper.to_dict(),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GbrModel":
        if doc.get("schema") != "gbr-model":
            raise InvalidInputError("not a gbr-model file")
        return cls(
            base_score=float(doc["base_score"]),
            trees=[_Tree.from_dict(t) for t in doc["trees"]],
            hyper=GbrHyperParams.from_dict(doc["hyper"]),
            feature_names=tuple(doc["feature_order"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "GbrModel":
        return cls.from_dict(json.loads(text))


def train(
    samples: list[ThroughputSample],
    hyper: GbrHyperParams = GbrHyperParams(),
) -> GbrModel:
    """Fit the boosted ensemble to observed throughput.

    Deterministic given the samples, hyperparameters, and seed.  A
    constant-target dataset yields a constant model with a warning.
    """
    if len(samples) < 30:
        raise InvalidInputError(f"need at least 30 samples, got {len(samples)}")
    x = np.array([feature_vector(s.competitor_counters, s.traffic) for s in samples])
    y = np.array([s.observed_throughput for s in samples])
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise InvalidInputError("features and targets must be finite")

    base = float(y.mean())
    if np.ptp(y) == 0.0:
        warnings.warn("constant training target; model is constant", DegenerateDataWarning)
        return GbrModel(base_score=base, trees=[], hyper=hyper)

    rng = np.random.default_rng(hyper.seed)
    current = np.full(len(y), base)
    trees: list[_Tree] = []
    for _ in range(hyper.n_trees):
        residual = y - current
        if hyper.subsample < 1.0:
            rows = rng.random(len(y)) < hyper.subsample
            if rows.sum() < 2 * hyper.min_samples_leaf:
                rows = np.ones(len(y), dtype=bool)
            tree = _fit_tree(
                x[rows], residual[rows], hyper.max_depth, hyper.min_samples_leaf
            )
        else:
            tree = _fit_tree(x, residual, hyper.max_depth, hyper.min_samples_leaf)
        current = current + hyper.learning_rate * tree.predict(x)
        trees.append(tree)
    return GbrModel(base_score=base, trees=trees, hyper=hyper)


def predict(model: GbrModel, features: np.ndarray) -> float:
    """Deterministic single-row prediction, clamped below at 0."""
    arr = np.asarray(features, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != len(model.feature_names):
        raise InvalidInputError(
            f"expected a {len(model.feature_names)}-vector, got shape {arr.shape}"
        )
    return float(model.predict_matrix(arr)[0])
