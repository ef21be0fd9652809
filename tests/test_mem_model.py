import gc
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nicperf.core import (
    CounterSnapshot,
    InvalidInputError,
    ThroughputSample,
    TrafficProfile,
)
from nicperf.mem_model import (
    _TREE_KEYS,
    FEATURE_NAMES,
    MAX_BINS,
    DegenerateDataWarning,
    GbrHyperParams,
    GbrModel,
    _fit_tree,
    feature_vector,
    predict,
    train,
)


def _sample(i, counters, throughput, traffic=None):
    return ThroughputSample(
        scenario_id=f"s-{i}",
        target_nf="t",
        traffic=traffic or TrafficProfile(),
        competitor_counters=counters,
        observed_throughput=throughput,
    )


def _synthetic_rows(n=200, seed=0):
    """Piece-wise-linear throughput in competitor CAR and WSS, the shape
    the memory model has to learn."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        car = rng.uniform(0, 250e6)
        wss = rng.uniform(0, 12e6)
        counters = CounterSnapshot(
            ipc=0.4, irt=2e9, l2crd=car * 0.6, l2cwr=car * 0.4,
            memrd=car * 0.05, memwr=car * 0.02, wss=wss,
        )
        car_factor = 1.0 - 0.4 * min(1.0, max(0.0, (car - 100e6) / 150e6))
        wss_factor = 1.0 - 0.45 * min(1.0, wss / 12e6)
        rows.append(_sample(i, counters, 4e5 * car_factor * wss_factor))
    return rows


def test_feature_vector_order():
    counters = CounterSnapshot(ipc=1, irt=2, l2crd=3, l2cwr=4,
                               memrd=5, memwr=6, wss=7)
    v = feature_vector(counters, TrafficProfile(10, 100, 42.0))
    assert v.tolist() == [1, 2, 3, 4, 5, 6, 7, 10, 100, 42.0]
    assert len(FEATURE_NAMES) == 10


def test_train_learns_piecewise_surface():
    rows = _synthetic_rows()
    model = train(rows)
    test = _synthetic_rows(n=60, seed=99)
    errs = []
    for row in test:
        p = predict(model, feature_vector(row.competitor_counters, row.traffic))
        errs.append(abs(p - row.observed_throughput) / row.observed_throughput)
    assert float(np.mean(errs)) < 0.03


def _to_json(model):
    return json.dumps(model.to_dict(), sort_keys=True, separators=(",", ":"))


def test_train_deterministic():
    rows = _synthetic_rows(n=80)
    assert _to_json(train(rows)) == _to_json(train(rows))


def test_train_leaves_no_cyclic_garbage():
    rows = _synthetic_rows(n=40)
    gc.collect()
    gc.disable()
    try:
        train(rows)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_model_json_roundtrip_byte_identical():
    model = train(_synthetic_rows(n=60))
    text = _to_json(model)
    again = GbrModel.from_dict(json.loads(text))
    assert _to_json(again) == text
    x = feature_vector(CounterSnapshot(wss=5e6, l2crd=6e7, l2cwr=4e7),
                       TrafficProfile())
    assert predict(again, x) == predict(model, x)


def test_constant_target_warns_and_predicts_constant():
    rows = [_sample(i, CounterSnapshot(wss=float(i) * 1e5), 5e5)
            for i in range(40)]
    with pytest.warns(DegenerateDataWarning):
        model = train(rows)
    assert model.to_dict()["trees"] == []
    x = feature_vector(CounterSnapshot(wss=9e9), TrafficProfile())
    assert predict(model, x) == pytest.approx(5e5)


def test_train_requires_30_samples():
    with pytest.raises(InvalidInputError):
        train(_synthetic_rows(n=29))


def test_predict_rejects_wrong_shape():
    model = GbrModel(5e5, [], GbrHyperParams())
    for shape in [(9,), (11,), (1, 10), ()]:
        with pytest.raises(InvalidInputError):
            predict(model, np.zeros(shape))


def test_prediction_clamped_at_zero():
    # Extrapolating a boosted ensemble can go negative; the API must not.
    rows = _synthetic_rows(n=60)
    model = train(rows)
    x = feature_vector(
        CounterSnapshot(l2crd=1e12, l2cwr=1e12, memrd=1e12, memwr=1e12, wss=1e12),
        TrafficProfile(),
    )
    assert predict(model, x) >= 0.0


def test_hyper_roundtrip():
    h = GbrHyperParams(n_trees=17, max_depth=3, learning_rate=0.2,
                       subsample=0.7, min_samples_leaf=4, seed=11)
    assert GbrHyperParams.from_dict(h.to_dict()) == h


# -- compiled ensemble against the per-tree list walk ---------------------------

def _reference_tree(tree: dict, x: np.ndarray) -> np.ndarray:
    """One wire-form tree, walked row by row over its lists."""
    out = np.empty(len(x))
    feature = tree["feature"]
    for row in range(len(x)):
        i = 0
        while feature[i] >= 0:
            if x[row, feature[i]] <= tree["threshold"][i]:
                i = tree["left"][i]
            else:
                i = tree["right"][i]
        out[row] = tree["value"][i]
    return out


def _reference_predict(doc: dict, x) -> np.ndarray:
    """The ensemble as a running total, one tree at a time, clamped at 0."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.full(len(x), doc["base_score"])
    lr = doc["hyper"]["learning_rate"]
    for tree in doc["trees"]:
        out += lr * _reference_tree(tree, x)
    return np.maximum(out, 0.0)


_THRESHOLDS = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _wire_tree(draw, max_depth=5):
    """A random tree in wire form, its leaves at mixed depths."""
    tree = {k: [] for k in ("feature", "threshold", "left", "right", "value")}

    def add(feat, thr, val):
        for k, v in zip(tree, (feat, thr, -1, -1, val)):
            tree[k].append(v)
        return len(tree["feature"]) - 1

    def grow(depth):
        if depth >= max_depth or not draw(st.booleans()):
            return add(-1, 0.0, draw(st.floats(-1e5, 1e5, allow_nan=False)))
        node = add(draw(st.integers(0, len(FEATURE_NAMES) - 1)), draw(_THRESHOLDS), 0.0)
        tree["left"][node] = grow(depth + 1)
        tree["right"][node] = grow(depth + 1)
        return node

    grow(0)
    return tree


@st.composite
def _model_and_rows(draw):
    doc = GbrModel(0.0, [], GbrHyperParams()).to_dict()
    doc["base_score"] = draw(st.floats(-1e5, 1e5, allow_nan=False))
    doc["hyper"]["learning_rate"] = draw(st.floats(0.01, 1.0))
    doc["trees"] = draw(st.lists(_wire_tree(), max_size=12))
    thresholds = [t for tree in doc["trees"] for t, f in zip(tree["threshold"], tree["feature"])
                  if f >= 0]
    value = st.one_of(st.floats(), st.sampled_from([np.nan, np.inf, -np.inf]),
                      *([st.sampled_from(thresholds)] if thresholds else []))
    rows = draw(st.lists(st.lists(value, min_size=len(FEATURE_NAMES),
                                  max_size=len(FEATURE_NAMES)),
                         min_size=1, max_size=8))
    return doc, np.array(rows, dtype=float)


def _predictions(model, x) -> np.ndarray:
    return np.array([predict(model, row) for row in x])


@settings(max_examples=150, deadline=None)
@given(_model_and_rows())
def test_compiled_walk_matches_reference_bit_for_bit(case):
    doc, x = case
    model = GbrModel.from_dict(doc)
    assert _predictions(model, x).tobytes() == _reference_predict(doc, x).tobytes()


def test_trained_model_matches_reference():
    model = train(_synthetic_rows(n=80))
    doc = model.to_dict()
    x = np.array([feature_vector(r.competitor_counters, r.traffic)
                  for r in _synthetic_rows(n=25, seed=7)])
    assert _predictions(model, x).tobytes() == _reference_predict(doc, x).tobytes()


@pytest.mark.parametrize("model", [
    train(_synthetic_rows(n=60)),
    GbrModel(5e5, [], GbrHyperParams()),
], ids=["trained", "constant"])
def test_dict_roundtrip_byte_identical(model):
    text = json.dumps(model.to_dict(), sort_keys=True)
    again = GbrModel.from_dict(json.loads(text))
    assert json.dumps(again.to_dict(), sort_keys=True) == text


def _one_tree_doc(**fields):
    tree = {"feature": [0, -1, -1], "threshold": [1.0, 0.0, 0.0],
            "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, 1.0, 2.0]}
    tree.update(fields)
    doc = GbrModel(0.0, [], GbrHyperParams()).to_dict()
    doc["trees"] = [tree]
    return doc


def test_one_tree_doc_is_valid():
    model = GbrModel.from_dict(_one_tree_doc())
    assert predict(model, np.array([0.5] + [0.0] * 9)) == 0.1
    assert predict(model, np.full(10, np.nan)) == pytest.approx(0.2)


@pytest.mark.parametrize("fields", [
    {"left": [3, -1, -1]},                       # child past the tree's end
    {"feature": [0, 0, -1], "left": [1, -2, -1]},  # negative child index
    {"feature": [10, -1, -1]},                   # no such feature
    {"left": [0, -1, -1]},                       # node is its own child
    {"feature": [0, 0, -1], "left": [1, 0, -1], "right": [2, 2, -1]},  # cycle
    {"value": [0.0, 1.0]},                       # fields of unequal length
    {k: [] for k in ("feature", "threshold", "left", "right", "value")},
    {"threshold": [None, 0.0, 0.0]},
    {"value": [0.0, float("nan"), 2.0]},
    {"feature": ["x", -1, -1]},
])
def test_malformed_tree_rejected(fields):
    with pytest.raises(InvalidInputError):
        GbrModel.from_dict(_one_tree_doc(**fields))


def test_tree_missing_key_rejected():
    doc = _one_tree_doc()
    del doc["trees"][0]["right"]
    with pytest.raises(InvalidInputError):
        GbrModel.from_dict(doc)


@pytest.mark.parametrize("key", ["base_score", "trees", "hyper", "feature_order"])
def test_model_missing_key_rejected(key):
    doc = _one_tree_doc()
    del doc[key]
    with pytest.raises(InvalidInputError, match=f"missing key '{key}'"):
        GbrModel.from_dict(doc)


@pytest.mark.parametrize("order", [
    list(reversed(FEATURE_NAMES)),
    list(FEATURE_NAMES[:-1]),
    [*FEATURE_NAMES, "extra"],
    [],
])
def test_model_foreign_feature_order_rejected(order):
    doc = _one_tree_doc()
    doc["feature_order"] = order
    with pytest.raises(InvalidInputError, match="feature_order"):
        GbrModel.from_dict(doc)


# -- split search on pre-sorted columns against the per-node search -------------

def _reference_best_split(x, residual, min_leaf):
    """Best (feature, threshold, left mask), sorting the node's rows of every
    feature again: the search ``_best_split`` must reproduce exactly."""
    n, n_feat = x.shape
    total_sum = residual.sum()
    base = total_sum**2 / n
    best_gain = 1e-12
    best = None
    for f in range(n_feat):
        col = x[:, f]
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
        cum = np.cumsum(residual[order])
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
            best = (f, float(cands[i]))
    if best is None:
        return None
    f, thr = best
    return f, thr, x[:, f] <= thr


def _reference_fit_tree(x, residual, max_depth, min_leaf):
    tree = {k: [] for k in _TREE_KEYS}
    reached = np.empty(len(x))
    stack = [(np.arange(len(x)), 0, None)]
    while stack:
        rows, depth, edge = stack.pop()
        node = len(tree["feature"])
        if edge is not None:
            parent, side = edge
            tree[side][parent] = node
        res = residual[rows]
        split = None
        if depth < max_depth and len(rows) >= 2 * min_leaf:
            split = _reference_best_split(x[rows], res, min_leaf)
        if split is None:
            feat, thr, val = -1, 0.0, float(res.mean())
            reached[rows] = val
        else:
            feat, thr, left_mask = split
            val = 0.0
            stack.append((rows[~left_mask], depth + 1, (node, "right")))
            stack.append((rows[left_mask], depth + 1, (node, "left")))
        for key, v in zip(_TREE_KEYS, (feat, thr, -1, -1, val)):
            tree[key].append(v)
    return tree, reached


def _sorted_fit_tree(x, residual, max_depth, min_leaf):
    """``_fit_tree`` on the column blocks ``train`` sorts once."""
    xT = np.ascontiguousarray(x.T)
    return _fit_tree(xT, np.argsort(xT, axis=1, kind="stable"), residual, max_depth, min_leaf)


def _column(rng, kind, k):
    if kind == "constant":
        return np.full(k, rng.normal())
    if kind == "ties":
        return rng.choice(rng.normal(size=rng.integers(2, 6)), k)
    if kind == "adjacent":
        # Neighbouring floats, where (a + b) / 2 can round onto b;
        # 5e-324 is the smallest subnormal.
        a = rng.choice([1.0, 3.7e5, -2.5e-3, 5e-324, 1e-310])
        return a + rng.integers(0, 4, k) * np.spacing(a)
    if kind == "huge":
        # a + b overflows to +-inf for two values of one sign.
        return rng.choice([-1.0, 1.0], k) * rng.uniform(1.6e308, 1.79e308, k)
    if kind == "few":  # up to just past MAX_BINS distinct values
        return rng.integers(0, rng.integers(2, MAX_BINS + 3), k).astype(float)
    return rng.normal(size=k) * 10.0 ** rng.integers(-3, 9)  # "many" distinct


_KINDS = ("constant", "ties", "adjacent", "huge", "few", "many")


@st.composite
def _training_block(draw):
    k = draw(st.integers(2, 160))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=len(FEATURE_NAMES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.stack([_column(rng, kind, k) for kind in kinds], axis=1)
    residual = {
        "normal": lambda: rng.normal(size=k) * 1e5,
        "tied": lambda: rng.choice([-1.0, 0.0, 2.0], k),
        # Squares overflow, so gains can be inf - inf = NaN.
        "huge": lambda: rng.normal(size=k) * 1e155,
    }[draw(st.sampled_from(["normal", "tied", "huge"]))]()
    return x, residual, draw(st.integers(1, 5)), draw(st.integers(1, max(1, k // 2)))


# Feature 0 has 100 distinct values, so its cut points are quantiles;
# feature 1 has two.  Both split the rows 50/50 with the same gain, and
# the lower feature wins the tie.
_QUANTILE_TIE = (np.stack([np.arange(100.0), np.repeat([0.0, 1.0], 50)], axis=1),
                 np.repeat([-1.0, 1.0], 50), 1, 1)


@settings(max_examples=300, deadline=None)
@given(_training_block())
@example(_QUANTILE_TIE)
def test_sorted_split_search_matches_reference(case):
    x, residual, max_depth, min_leaf = case
    with np.errstate(over="ignore", invalid="ignore"):
        tree, reached = _sorted_fit_tree(x, residual, max_depth, min_leaf)
        ref_tree, ref_reached = _reference_fit_tree(x, residual, max_depth, min_leaf)
    assert json.dumps(tree) == json.dumps(ref_tree)
    assert reached.tobytes() == ref_reached.tobytes()


def _reference_train(samples):
    x = np.array([feature_vector(s.competitor_counters, s.traffic) for s in samples])
    y = np.array([s.observed_throughput for s in samples])
    hyper = GbrHyperParams()
    base = float(y.mean())
    current = np.full(len(y), base)
    trees = []
    for _ in range(hyper.n_trees):
        tree, reached = _reference_fit_tree(x, y - current, hyper.max_depth,
                                            hyper.min_samples_leaf)
        current = current + hyper.learning_rate * reached
        trees.append(tree)
    return GbrModel(base_score=base, trees=trees, hyper=hyper)


def test_train_matches_reference_byte_for_byte():
    rows = _synthetic_rows(400)
    assert _to_json(train(rows)) == _to_json(_reference_train(rows))
