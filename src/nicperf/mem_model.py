"""Black-box memory-subsystem contention model.

A least-squares gradient-boosted ensemble of binary regression trees over
the competitor's 7 performance counters plus the target's 3 traffic
attributes (10 features, fixed order).  Tree ensembles fit the
piece-wise-linear shape of memory contention well; features are used raw
since tree splits are scale-invariant.

Implemented in-repo so that training is bit-deterministic and the model
file round-trips exactly.

``train`` grows each tree in wire form: a dict of five parallel lists
(``_TREE_KEYS``), one entry per node in pre-order.  Internal node i splits
on ``feature[i]`` at ``threshold[i]`` and ``left[i]``/``right[i]`` are its
children; a leaf has feature -1, children -1 and its output in
``value[i]``.

The split search is the exact greedy algorithm on column blocks sorted
once (XGBoost; Chen & Guestrin, KDD 2016, §4.1): ``train`` argsorts each
feature column once, stably, and every node of every tree takes its rows'
sorted order from that block instead of sorting again.  Each node searches
all features in one vectorised pass, with the same candidates, prefix sums
and tie-breaks as a per-feature search that sorts the node's rows, so the
trees are the same to the bit (``_candidates`` and ``_best_split`` have
the details).  A feature with more than MAX_BINS distinct values cuts at
its quantiles, which ``_sorted_quantiles`` reads off the sorted block with
numpy's "linear" formula, step for step, instead of ``np.quantile``
copying and partitioning rows that are already sorted.

A node's candidates (features, thresholds and left counts, after the
leaf-size filter) depend on its rows alone; only their scoring reads the
residual.  The root has the same rows in every tree, and a depth-1 node
recurs whenever its root split does: on nat and flowstats training sets
of 100 and 182 rows, 200 trees had only 20 to 37 distinct root splits.
So ``train`` keeps a memo for the length of the call, keyed by a node's
row bytes, and nodes at depth 0 and 1 take their candidates from it; it
holds at most 1 + 2 x (distinct root splits) entries.  Deeper nodes recur
less and are more numerous: memoising every depth trained 100 nat rows in
about 108 ms against 160 to 185 ms, but on 182 rows it was no faster and
its tracemalloc peak was 5.1 MB against 1.6 MB (1.1 MB without a memo).
The memo keeps the candidates, with int32 features and counts, but not
the sorted block, which each node takes again in three numpy calls;
keeping that too, and intp integers, raised the 182-row peak to 2.3 MB.

In memory the ensemble exists only in compiled form: flat node arrays
holding every tree back to back, the layout QuickScorer (Lucchese et al.,
SIGIR 2015) walks.  Tree t starts at node ``roots[t]``; node i holds
``feature[i]``, ``threshold[i]`` and the child pair
``children[i] = (left, right)`` as node indices, and a leaf's children are
the leaf itself.  A row steps to ``children[i, 0]`` when
``x[feature[i]] <= threshold[i]`` and to ``children[i, 1]`` otherwise, so
NaN goes right.  ``depth`` is the depth of the deepest tree: ``predict``
walks every tree at once for exactly that many steps, which leaves the row
at its leaf in every tree, since a leaf reached early steps onto itself
whatever its comparison gives.  So a leaf's threshold decides nothing,
and the leaf keeps its output value there: there is no ``value`` array
(8 of 40 bytes a node).  On the wire a leaf's threshold and an internal
node's value are +0.0; ``_compile`` rejects any other bits there, and
``to_dict`` writes 0.0 back, so model bytes still round-trip.

``feature``, ``children`` and ``roots`` are ``np.intp``, numpy's index
type: every step of the walk indexes with them, and narrower integers
would be converted to ``intp`` again on each step.  Against ``int16``
features and ``int32`` children that costs 14 bytes a node (about 65 KB
for a 4.6k-node model) and nothing on the wire, which writes the indices
as Python ints.

A prediction is ``base + lr*v_1 + ... + lr*v_T`` for the leaf values v_t
of trees 1..T, added left to right: the last element of a sequential
``np.cumsum`` over ``[base, lr*v_1, ..., lr*v_T]``.  This is bit-identical
to adding one tree's scaled output at a time to a running total, which is
how the ensemble was fitted; ``np.sum`` adds pairwise and would not be.
A model's document is a ``_GbrWire``: ``GbrModel.to_dict`` rebuilds its
wire trees from the arrays, so model bytes round-trip.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain

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
    """The training constants, recorded as ``hyper`` in every model.

    ``train`` always uses these defaults, and ``predict`` reads
    ``learning_rate`` from the record a model carries.  Every row is
    fitted in every tree, so ``subsample`` is 1.0 and ``seed`` draws
    nothing; both stay in the record because every model file has them.
    """

    n_trees: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    subsample: float = 1.0
    min_samples_leaf: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise InvalidInputError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")


_QS = np.linspace(0, 1, MAX_BINS + 1)[1:-1]


def _sorted_quantiles(xs: np.ndarray) -> np.ndarray:
    """``np.quantile(xs, _QS, axis=1).T`` for rows ``xs`` already sorted.

    numpy's "linear" method, step for step, without its copy and
    ``partition`` of the rows: the virtual index ``(n - 1) * q`` (exact for
    these dyadic q, so equal to Hyndman & Fan's ``n*q + (1 - q) - 1``), its
    floor and the next index, both set to -1 at or past the last index and
    to 0 below the first, ``gamma`` the index less that floor, and then
    ``a + (b - a)*gamma``, or ``b - (b - a)*(1 - gamma)`` where
    ``gamma >= 0.5``.
    """
    n = xs.shape[1]
    vi = (n - 1) * _QS
    prev = np.floor(vi)
    nxt = prev + 1
    above, below = vi >= n - 1, vi < 0
    prev[above] = nxt[above] = -1
    prev[below] = nxt[below] = 0
    gamma = vi - prev
    a, b = xs[:, prev.astype(np.intp)], xs[:, nxt.astype(np.intp)]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _sorted_block(order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (features x rows) block of each feature's node rows, sorted.

    ``order`` is the stable argsort of each row of the feature-major
    training matrix, made once per ``train``; ``rows`` are the node's rows
    in ascending order.  Keeping the node's entries of ``order`` gives a
    stable argsort of the node's rows, with ties in row order.
    """
    member = np.zeros(order.shape[1], dtype=bool)
    member[rows] = True
    return order[member[order]].reshape(len(order), len(rows))


def _candidates(
    xT: np.ndarray, idx: np.ndarray, min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A node's split candidates, which depend on its rows alone.

    ``xT`` is the feature-major training matrix and ``idx`` the node's
    ``_sorted_block``.  Returns ``(feat, cands, counts)``: for every
    candidate that leaves at least ``min_leaf`` rows on each side, its
    feature, its threshold and the number of the node's rows up to it,
    in feature order.  Rows with value <= threshold go left.  The
    candidates are the midpoints between the node's distinct values of
    each feature, or at most MAX_BINS - 1 quantile cut points when a
    feature has more than MAX_BINS distinct values.  All features are
    searched at once:

    - the midpoint ``(a + b) / 2`` at a change point a < b of a sorted row
      sends the j + 1 values up to a left.  When it rounds onto b (a and b
      adjacent floats) or overflows to +-inf, ``searchsorted`` counts;
    - the quantile cut points of every feature with more distinct values
      come from ``_sorted_quantiles`` on its sorted row, which is
      ``np.quantile`` without the copy and ``partition``.  They come out
      non-decreasing, so dropping each one equal to its left neighbour
      (a change point of the row) leaves the values ``np.unique`` would,
      in its order.  (A cut point between two neighbours whose difference
      overflows is +-inf or NaN, and its count, 0 or all rows, fails the
      leaf check).
    """
    n = idx.shape[1]
    xs = np.take_along_axis(xT, idx, axis=1)
    change = xs[:, 1:] != xs[:, :-1]
    few = change.sum(axis=1) < MAX_BINS
    feat, j = np.nonzero(change & few[:, None])
    a, b = xs[feat, j], xs[feat, j + 1]
    cands = (a + b) / 2.0
    counts = j + 1
    for i in np.flatnonzero(~((a <= cands) & (cands < b))):
        counts[i] = xs[feat[i]].searchsorted(cands[i], side="right")
    many = np.flatnonzero(~few)
    if many.size:
        qs = _sorted_quantiles(xs[many])
        new = np.ones(qs.shape, dtype=bool)
        new[:, 1:] = qs[:, 1:] != qs[:, :-1]
        q_counts = np.stack([xs[f].searchsorted(q, side="right") for f, q in zip(many, qs)])
        feat = np.concatenate([feat, np.repeat(many, new.sum(axis=1))])
        cands = np.concatenate([cands, qs[new]])
        counts = np.concatenate([counts, q_counts[new]])
        by_feat = np.argsort(feat, kind="stable")
        feat, cands, counts = feat[by_feat], cands[by_feat], counts[by_feat]
    ok = (counts >= min_leaf) & (counts <= n - min_leaf)
    return feat[ok], cands[ok], counts[ok]


def _best_split(
    xT: np.ndarray, rows: np.ndarray, residual: np.ndarray, idx: np.ndarray,
    candidates: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, float, np.ndarray] | None:
    """Best (feature, threshold, left mask over ``rows``) by SSE gain.

    Scores the node's ``_candidates`` against ``residual``, with the
    prefix sums of each feature's sorted rows ``idx``.  The gains of all
    candidates, in feature order, go through one ``argmax``.  Its first
    maximum is the first maximum of the first feature to reach it, which
    is a per-feature search's choice.  A gain is NaN only when the node's
    total or its square overflows, and then none beats the floor in
    either search.
    """
    feat, cands, counts = candidates
    if not feat.size:
        return None
    n = len(rows)
    cum = np.cumsum(residual[idx], axis=1)
    total_sum = residual[rows].sum()
    base = total_sum**2 / n
    s_left = cum[feat, counts - 1]
    gains = s_left**2 / counts + (total_sum - s_left) ** 2 / (n - counts) - base
    i = int(np.argmax(gains))
    if not gains[i] > 1e-12:
        return None
    f, thr = int(feat[i]), float(cands[i])
    return f, thr, xT[f, rows] <= thr


_TREE_KEYS = ("feature", "threshold", "left", "right", "value")

#: Nodes at depths below this take their candidates from ``train``'s memo.
_MEMO_DEPTH = 2


def _fit_tree(
    xT: np.ndarray, order: np.ndarray, residual: np.ndarray, max_depth: int,
    min_leaf: int, memo: dict,
) -> tuple[dict, np.ndarray]:
    """Grows one wire-form tree on every training row (see ``_candidates``).

    Also returns the value of the leaf each row reaches.  The stack pops a
    node's left subtree before its right one, so nodes are numbered in
    pre-order.  A node at depth 0 or 1 takes its ``_candidates`` from
    ``memo``, keyed by its rows' bytes, and stores them there on a miss,
    with int32 features and counts to halve what the memo holds of them;
    the caller shares one ``memo`` among trees grown on the same ``xT``,
    ``order`` and ``min_leaf``.
    """
    tree = {k: [] for k in _TREE_KEYS}
    reached = np.empty(len(residual))
    # (rows, depth, (parent, "left" or "right"), or None for the root)
    stack = [(np.arange(len(residual)), 0, None)]
    while stack:
        rows, depth, edge = stack.pop()
        node = len(tree["feature"])
        if edge is not None:
            parent, side = edge
            tree[side][parent] = node
        split = None
        if depth < max_depth and len(rows) >= 2 * min_leaf:
            idx = _sorted_block(order, rows)
            if depth < _MEMO_DEPTH:
                rows_key = rows.tobytes()
                candidates = memo.get(rows_key)
                if candidates is None:
                    feat, cands, counts = _candidates(xT, idx, min_leaf)
                    candidates = memo[rows_key] = (
                        feat.astype(np.int32), cands, counts.astype(np.int32))
            else:
                candidates = _candidates(xT, idx, min_leaf)
            split = _best_split(xT, rows, residual, idx, candidates)
        if split is None:
            feat, thr, val = -1, 0.0, float(residual[rows].sum() / len(rows))
            reached[rows] = val
        else:
            feat, thr, left_mask = split
            val = 0.0
            stack.append((rows[~left_mask], depth + 1, (node, "right")))
            stack.append((rows[left_mask], depth + 1, (node, "left")))
        for key, v in zip(_TREE_KEYS, (feat, thr, -1, -1, val)):
            tree[key].append(v)
    return tree, reached


def _compile(trees: list, n_features: int) -> tuple:
    """Flat node arrays of wire-form trees, vectorised over all of them.

    Returns (feature, threshold, children, roots, depth), with each leaf's
    value in its ``threshold`` slot.  Raises InvalidInputError for a tree
    with no nodes, fields of unequal length, a non-finite threshold or
    value, a leaf threshold or internal-node value that is not +0.0 (the
    slot each node leaves unused, so that ``to_dict`` writes back what was
    read), a split feature or child index out of range, or a cycle.
    """
    try:
        cols = [[t[k] for t in trees] for k in _TREE_KEYS]
        lens = np.array([[len(a) for a in col] for col in cols], dtype=np.int64)
        feature, threshold, left, right, value = (
            np.array(list(chain.from_iterable(col)), dtype=dt)
            for col, dt in zip(cols, (np.int64, float, np.int64, np.int64, float))
        )
    except KeyError as exc:
        raise InvalidInputError(f"gbr tree: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"gbr tree: {exc}") from None
    sizes = lens[0]
    bad = np.flatnonzero((lens != sizes).any(axis=0) | (sizes == 0))
    if bad.size:
        raise InvalidInputError(
            f"gbr tree {bad[0]}: fields must be non-empty and of equal length"
        )
    if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
        raise InvalidInputError("gbr tree thresholds and values must be finite")

    n = len(feature)
    roots = np.cumsum(sizes) - sizes
    offset = np.repeat(roots, sizes)
    size = np.repeat(sizes, sizes)
    leaf = feature < 0
    # +0.0 is the one float whose bits are all zero.
    bad = np.flatnonzero(np.where(leaf, threshold, value).view(np.uint64))
    if bad.size:
        raise InvalidInputError(
            f"gbr tree {_tree_of(roots, bad[0])}: node {bad[0] - offset[bad[0]]} "
            "has a nonzero leaf threshold or internal-node value"
        )
    local = np.stack([left, right], axis=1)
    bad = np.flatnonzero(~leaf & ((feature >= n_features)
                                  | (local < 0).any(axis=1)
                                  | (local >= size[:, None]).any(axis=1)))
    if bad.size:
        raise InvalidInputError(
            f"gbr tree {_tree_of(roots, bad[0])}: node {bad[0] - offset[bad[0]]} "
            "has a feature or child index out of range"
        )
    node = np.arange(n)
    children = np.where(leaf[:, None], node[:, None], local + offset[:, None])

    # Levels until every root-to-leaf path has ended; an acyclic tree of
    # s nodes has none longer than s - 1 edges.
    depth = 0
    frontier = roots[~leaf[roots]]
    while frontier.size:
        if depth >= sizes.max():
            raise InvalidInputError(
                f"gbr tree {_tree_of(roots, frontier[0])}: its nodes form a cycle"
            )
        frontier = np.unique(children[frontier])
        frontier = frontier[~leaf[frontier]]
        depth += 1
    return (np.where(leaf, -1, feature).astype(np.intp), np.where(leaf, value, threshold),
            children.astype(np.intp), roots.astype(np.intp), depth)


def _tree_of(roots: np.ndarray, node: int) -> int:
    return int(np.searchsorted(roots, node, side="right")) - 1


@dataclass(frozen=True, kw_only=True)
class _GbrWire(Codec):
    """A GbrModel document of version ``SCHEMA_VERSION``; ``_compile``
    checks its wire-form ``trees``."""

    schema: str = "gbr-model"
    schema_version: int = SCHEMA_VERSION
    feature_order: tuple[str, ...]
    base_score: float
    hyper: GbrHyperParams
    trees: list[dict]

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise InvalidInputError(f"gbr-model schema_version {self.schema_version} is not "
                                    f"supported; this nicperf reads version {SCHEMA_VERSION}")
        # feature_vector always builds FEATURE_NAMES order; a model fitted
        # on another order would silently misread every feature.
        if self.feature_order != FEATURE_NAMES:
            raise InvalidInputError(f"GbrModel: feature_order must be {list(FEATURE_NAMES)}, "
                                    f"got {list(self.feature_order)!r}")
        if not math.isfinite(self.base_score):
            raise InvalidInputError(
                f"GbrModel: base_score must be finite, got {self.base_score}")


class GbrModel(Codec):
    """Trained gradient-boosted regression ensemble (throughput in pps).

    Holds the trees only in compiled form (see the module docstring);
    ``trees`` are wire-form tree dicts, compiled on construction.
    """

    def __init__(self, base_score: float, trees: list, hyper: GbrHyperParams):
        self.base_score = base_score
        self.hyper = hyper
        (self.feature, self.threshold, self.children, self.roots,
         self.depth) = _compile(trees, len(FEATURE_NAMES))

    def to_dict(self) -> dict:
        n = len(self.feature)
        leaf = self.children[:, 0] == np.arange(n)
        offset = np.repeat(self.roots, np.diff(self.roots, append=n))[:, None]
        local = np.where(leaf[:, None], -1, self.children - offset)
        cols = dict(zip(_TREE_KEYS, (
            np.where(leaf, -1, self.feature).tolist(),
            np.where(leaf, 0.0, self.threshold).tolist(),
            local[:, 0].tolist(), local[:, 1].tolist(),
            np.where(leaf, self.threshold, 0.0).tolist())))
        ends = [*self.roots.tolist(), n]
        trees = [{k: col[a:b] for k, col in cols.items()} for a, b in zip(ends, ends[1:])]
        return _GbrWire(feature_order=FEATURE_NAMES, base_score=self.base_score,
                        hyper=self.hyper, trees=trees).to_dict()

    @classmethod
    def from_dict(cls, doc: dict) -> "GbrModel":
        if not isinstance(doc, dict) or doc.get("schema") != "gbr-model":
            raise InvalidInputError("not a gbr-model file")
        w = _GbrWire.from_dict(doc)
        return cls(base_score=w.base_score, trees=w.trees, hyper=w.hyper)


def train(samples: list[ThroughputSample]) -> GbrModel:
    """Fit the boosted ensemble to observed throughput with ``GbrHyperParams()``.

    Deterministic given the samples.  A constant-target dataset yields a
    constant model with a warning.
    """
    if len(samples) < 30:
        raise InvalidInputError(f"need at least 30 samples, got {len(samples)}")
    x = np.array([feature_vector(s.competitor_counters, s.traffic) for s in samples])
    y = np.array([s.observed_throughput for s in samples])
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise InvalidInputError("features and targets must be finite")

    hyper = GbrHyperParams()
    base = float(y.mean())
    if np.ptp(y) == 0.0:
        warnings.warn("constant training target; model is constant", DegenerateDataWarning)
        return GbrModel(base_score=base, trees=[], hyper=hyper)

    xT = np.ascontiguousarray(x.T)
    order = np.argsort(xT, axis=1, kind="stable")
    current = np.full(len(y), base)
    trees: list[dict] = []
    memo: dict = {}
    for _ in range(hyper.n_trees):
        tree, reached = _fit_tree(xT, order, y - current, hyper.max_depth,
                                  hyper.min_samples_leaf, memo)
        current = current + hyper.learning_rate * reached
        trees.append(tree)
    return GbrModel(base_score=base, trees=trees, hyper=hyper)


def predict(model: GbrModel, features: np.ndarray) -> float:
    """Deterministic single-row prediction, clamped below at 0."""
    row = np.asarray(features, dtype=float)
    if row.shape != (len(FEATURE_NAMES),):
        raise InvalidInputError(
            f"expected a {len(FEATURE_NAMES)}-vector, got shape {row.shape}"
        )
    child = model.children.ravel()
    idx = model.roots
    for _ in range(model.depth):
        idx = child[2 * idx + ~(row[model.feature[idx]] <= model.threshold[idx])]
    terms = np.empty(len(idx) + 1)
    terms[0] = model.base_score
    np.multiply(model.hyper.learning_rate, model.threshold[idx], out=terms[1:])
    return float(np.maximum(np.cumsum(terms)[-1], 0.0))
