import math

import numpy as np
import pytest

from nicperf.accel_model import (
    AccelModelParams,
    InferenceError,
    PoorFitWarning,
    infer_params,
    predict_at_offered_load,
    predict_equilibrium,
)
from nicperf.core import InvalidInputError, ResourceKind


P1 = AccelModelParams(queue_count=1, t0=2e-6, a=0.003e-6)
P2 = AccelModelParams(queue_count=2, t0=5e-6)


def test_solo_rate():
    assert P1.solo_rate(0.0) == pytest.approx(1.0 / 2e-6)
    assert P1.solo_rate(1000.0) == pytest.approx(1.0 / 5e-6)
    assert P2.solo_rate(0.0) == pytest.approx(1.0 / (2 * 5e-6))


def test_equilibrium_formula():
    # T_i = n_i / sum_j n_j^2 t_j
    t = predict_equilibrium(P1, 400.0, [(P2, 0.0)])
    expect = 1.0 / (P1.request_time(400.0) + 4 * 5e-6)
    assert t == pytest.approx(expect)


def test_equilibrium_no_competitors_is_solo():
    assert predict_equilibrium(P1, 250.0) == pytest.approx(P1.solo_rate(250.0))


def test_offered_load_endpoints():
    # Zero competitors: solo.  Saturating competitor: the equilibrium.
    assert predict_at_offered_load(P1, 100.0) == P1.solo_rate(100.0)
    sat = predict_at_offered_load(P1, 100.0, [(P2, 0.0, math.inf)])
    assert sat == pytest.approx(predict_equilibrium(P1, 100.0, [(P2, 0.0)]))
    # A competitor offering nothing costs nothing.
    idle = predict_at_offered_load(P1, 100.0, [(P2, 0.0, 0.0)])
    assert idle == pytest.approx(P1.solo_rate(100.0))


def test_offered_load_linear_below_equilibrium():
    solo = P1.solo_rate(0.0)
    eq = predict_equilibrium(P1, 0.0, [(P2, 0.0)])
    comp_eq = predict_equilibrium(P2, 0.0, [(P1, 0.0)])
    rates = np.linspace(0.0, comp_eq, 9)
    ts = [predict_at_offered_load(P1, 0.0, [(P2, 0.0, r)]) for r in rates]
    # Endpoints anchor at (0, solo) and (equilibrium load, equilibrium).
    assert ts[0] == pytest.approx(solo)
    assert ts[-1] == pytest.approx(eq)
    expected = solo + (eq - solo) * rates / comp_eq
    assert np.allclose(ts, expected, rtol=1e-9)


def test_offered_load_monotone_in_competitor_rate():
    rates = np.linspace(0.0, 2e5, 21)
    ts = [predict_at_offered_load(P1, 0.0, [(P2, 0.0, r)]) for r in rates]
    assert all(a >= b for a, b in zip(ts, ts[1:]))


def _oracle_corun(truth: AccelModelParams, attr: float):
    def corun(n_bench: int, t_bench: float) -> float:
        denom = (truth.queue_count**2 * truth.request_time(attr)
                 + n_bench**2 * t_bench)
        return truth.queue_count / denom

    return corun


def test_infer_params_recovers_truth():
    truth = AccelModelParams(queue_count=2, t0=0.8e-6, a=0.002e-6)
    attr = 600.0
    params = infer_params(
        _oracle_corun(truth, attr),
        lambda v: truth.solo_rate(v),
        bench_settings=((1, 5e-6), (2, 8e-6), (1, 20e-6)),
        attr_values=(0.0, 200.0, 500.0, 1000.0),
    )
    assert params.queue_count == truth.queue_count
    assert params.t0 == pytest.approx(truth.t0, rel=1e-6)
    assert params.a == pytest.approx(truth.a, rel=1e-6)
    assert params.fit_r2 == pytest.approx(1.0)


def test_infer_params_flat_attribute():
    truth = AccelModelParams(queue_count=1, t0=4e-6, a=0.0,
                             resource=ResourceKind.COMPRESSION_ACCEL)
    params = infer_params(
        _oracle_corun(truth, 0.0),
        lambda v: truth.solo_rate(v),
        bench_settings=((1, 5e-6), (1, 20e-6)),
        attr_values=(64.0, 700.0, 1500.0),
        resource=ResourceKind.COMPRESSION_ACCEL,
    )
    assert params.queue_count == 1
    assert params.a == 0.0
    assert params.t0 == pytest.approx(4e-6, rel=1e-6)


def test_infer_params_poor_fit_warning():
    truth = AccelModelParams(queue_count=1, t0=4e-6)

    def step_solo(v):
        # A step in per-request time: no line fits it well.
        return 1.0 / (4e-6 if v < 500.0 else 12e-6)

    with pytest.warns(PoorFitWarning):
        infer_params(
            _oracle_corun(truth, 0.0),
            step_solo,
            bench_settings=((1, 5e-6), (1, 20e-6)),
            attr_values=(0.0, 300.0, 600.0, 900.0),
        )


def test_infer_params_inconsistent_measurements():
    # Throughputs that do not come from any single (n, t) pair.
    answers = iter([1e5, 9e4, 2e4])

    with pytest.raises(InferenceError):
        infer_params(
            lambda n, t: next(answers),
            lambda v: 1e5,
            bench_settings=((1, 5e-6), (2, 8e-6), (1, 20e-6)),
            attr_values=(0.0, 100.0, 200.0),
        )


def test_infer_params_preconditions():
    with pytest.raises(InvalidInputError):
        infer_params(lambda n, t: 1.0, lambda v: 1.0,
                     bench_settings=((1, 5e-6),), attr_values=(0.0, 1.0, 2.0))
    with pytest.raises(InvalidInputError):
        infer_params(lambda n, t: 1.0, lambda v: 1.0,
                     bench_settings=((1, 5e-6), (1, 9e-6)), attr_values=(0.0,))


def test_params_validation_and_roundtrip():
    with pytest.raises(InvalidInputError):
        AccelModelParams(queue_count=0, t0=1e-6)
    with pytest.raises(InvalidInputError):
        AccelModelParams(queue_count=1, t0=0.0)
    with pytest.raises(InvalidInputError):
        AccelModelParams(queue_count=1, t0=1e-6, a=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            AccelModelParams(queue_count=1, t0=bad)
        with pytest.raises(InvalidInputError):
            AccelModelParams(queue_count=1, t0=1e-6, a=bad)
        with pytest.raises(InvalidInputError):
            AccelModelParams.from_dict({"queue_count": 1, "t0": 1e-6, "a": str(bad)})
    p = AccelModelParams(queue_count=3, t0=2e-6, a=1e-9,
                         resource=ResourceKind.COMPRESSION_ACCEL, fit_r2=0.99)
    assert AccelModelParams.from_dict(p.to_dict()) == p
