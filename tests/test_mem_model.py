import numpy as np
import pytest

from nicperf.core import (
    CounterSnapshot,
    InvalidInputError,
    ThroughputSample,
    TrafficProfile,
)
from nicperf.mem_model import (
    FEATURE_NAMES,
    DegenerateDataWarning,
    GbrHyperParams,
    GbrModel,
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


def test_train_deterministic():
    rows = _synthetic_rows(n=80)
    m1 = train(rows, GbrHyperParams(n_trees=40, subsample=0.8, seed=5))
    m2 = train(rows, GbrHyperParams(n_trees=40, subsample=0.8, seed=5))
    assert m1.to_json() == m2.to_json()


def test_model_json_roundtrip_byte_identical():
    model = train(_synthetic_rows(n=60), GbrHyperParams(n_trees=25))
    text = model.to_json()
    again = GbrModel.from_json(text)
    assert again.to_json() == text
    x = feature_vector(CounterSnapshot(wss=5e6, l2crd=6e7, l2cwr=4e7),
                       TrafficProfile())
    assert predict(again, x) == predict(model, x)


def test_constant_target_warns_and_predicts_constant():
    rows = [_sample(i, CounterSnapshot(wss=float(i) * 1e5), 5e5)
            for i in range(40)]
    with pytest.warns(DegenerateDataWarning):
        model = train(rows)
    assert model.trees == []
    x = feature_vector(CounterSnapshot(wss=9e9), TrafficProfile())
    assert predict(model, x) == pytest.approx(5e5)


def test_train_requires_30_samples():
    with pytest.raises(InvalidInputError):
        train(_synthetic_rows(n=29))


def test_predict_rejects_wrong_shape():
    model = train(_synthetic_rows(n=40), GbrHyperParams(n_trees=5))
    with pytest.raises(InvalidInputError):
        predict(model, np.zeros(9))


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
