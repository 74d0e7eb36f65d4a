"""Capacity traces: constant, fluctuating, shaped, stepped."""

import math

import numpy as np
import pytest

from repro.netsim.trace import (
    ConstantTrace,
    FluctuatingTrace,
    ShapedTrace,
    SteppedTrace,
    positive_capacity,
)


def test_constant_trace_is_constant():
    trace = ConstantTrace(100.0)
    assert trace.capacity_at(0.0) == 100.0
    assert trace.capacity_at(123.4) == 100.0


def test_constant_trace_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantTrace(0.0)


@pytest.mark.parametrize("capacity", [math.nan, math.inf, -math.inf])
def test_positive_capacity_rejects_non_finite(capacity):
    # NaN passes a plain ``<= 0`` test; a blank CSV cell loads as NaN.
    with pytest.raises(ValueError, match="positive and finite"):
        positive_capacity(capacity)
    with pytest.raises(ValueError):
        ConstantTrace(capacity)


def test_fluctuating_trace_deterministic_per_time():
    rng = np.random.default_rng(1)
    trace = FluctuatingTrace(200.0, sigma=0.1, tau_s=2.0, duration_s=10.0, rng=rng)
    assert trace.capacity_at(3.3) == trace.capacity_at(3.3)


def test_fluctuating_trace_stays_near_base():
    rng = np.random.default_rng(2)
    trace = FluctuatingTrace(200.0, sigma=0.05, tau_s=2.0, duration_s=30.0, rng=rng)
    values = [trace.capacity_at(t) for t in np.arange(0, 30, 0.05)]
    assert abs(np.mean(values) - 200.0) / 200.0 < 0.1
    assert min(values) > 0


def test_fluctuating_trace_zero_sigma_is_constant():
    rng = np.random.default_rng(3)
    trace = FluctuatingTrace(150.0, sigma=0.0, tau_s=1.0, duration_s=5.0, rng=rng)
    assert trace.capacity_at(2.0) == pytest.approx(150.0)


def test_fluctuating_trace_floor():
    rng = np.random.default_rng(4)
    trace = FluctuatingTrace(
        100.0, sigma=1.5, tau_s=0.2, duration_s=20.0, rng=rng, floor_fraction=0.05
    )
    values = [trace.capacity_at(t) for t in np.arange(0, 20, 0.05)]
    assert min(values) >= 5.0 - 1e-9


def test_fluctuating_trace_wraps_beyond_duration():
    rng = np.random.default_rng(5)
    trace = FluctuatingTrace(100.0, sigma=0.1, tau_s=1.0, duration_s=10.0, rng=rng)
    assert trace.capacity_at(12.5) == pytest.approx(trace.capacity_at(2.5))


def test_shaped_trace_alternates():
    trace = ShapedTrace(100.0, throttled_mbps=40.0, period_s=4.0, duty_cycle=0.5)
    assert trace.capacity_at(1.0) == 100.0
    assert trace.capacity_at(3.0) == 40.0
    assert trace.capacity_at(5.0) == 100.0  # next period


def test_shaped_trace_validation():
    with pytest.raises(ValueError):
        ShapedTrace(100.0, throttled_mbps=150.0, period_s=4.0)
    with pytest.raises(ValueError):
        ShapedTrace(100.0, throttled_mbps=50.0, period_s=4.0, duty_cycle=0.0)
    with pytest.raises(ValueError):
        ShapedTrace(100.0, throttled_mbps=50.0, period_s=-1.0)


def test_stepped_trace_piecewise():
    trace = SteppedTrace([(0.0, 100.0), (5.0, 50.0), (10.0, 200.0)])
    assert trace.capacity_at(0.0) == 100.0
    assert trace.capacity_at(4.99) == 100.0
    assert trace.capacity_at(5.0) == 50.0
    assert trace.capacity_at(99.0) == 200.0


def test_stepped_trace_validation():
    with pytest.raises(ValueError):
        SteppedTrace([])
    with pytest.raises(ValueError):
        SteppedTrace([(1.0, 100.0)])  # must start at 0
    with pytest.raises(ValueError):
        SteppedTrace([(0.0, 100.0), (2.0, -5.0)])
    with pytest.raises(ValueError):
        SteppedTrace([(0.0, 100.0), (5.0, 50.0), (3.0, 60.0)])  # unordered


def test_mean_capacity_over_window():
    trace = ShapedTrace(100.0, throttled_mbps=50.0, period_s=2.0, duty_cycle=0.5)
    mean = trace.mean_capacity(0.0, 2.0, step_s=0.01)
    assert mean == pytest.approx(75.0, rel=0.02)


def test_mean_capacity_empty_window_rejected():
    trace = ConstantTrace(10.0)
    with pytest.raises(ValueError):
        trace.mean_capacity(1.0, 1.0)


def ou_grid_reference(base_mbps, sigma, tau_s, duration_s, rng,
                      floor_fraction=0.05):
    """FluctuatingTrace's capacity grid by the per-step AR(1) loop, with
    the same draws in the same order."""
    step = FluctuatingTrace.GRID_STEP_S
    n = max(2, int(math.ceil(duration_s / step)) + 1)
    a = math.exp(-step / tau_s)
    noise_scale = sigma * math.sqrt(max(0.0, 1.0 - a * a))
    x = np.empty(n)
    x[0] = rng.normal(0.0, sigma) if sigma > 0 else 0.0
    shocks = rng.normal(0.0, 1.0, size=n - 1)
    for k in range(n - 1):
        x[k + 1] = a * x[k] + noise_scale * shocks[k]
    return np.maximum(base_mbps * (1.0 + x), floor_fraction * base_mbps)


def test_fluctuating_trace_lfilter_matches_python_loop():
    """The scipy.lfilter evaluation of the OU recurrence must be bitwise
    identical to the Python loop — same filter, same float operations,
    just batched."""
    cases = [
        (180.0, dict(sigma=0.12, tau_s=1.5, duration_s=20.0)),
        (100.0, dict(sigma=1.5, tau_s=0.2, duration_s=20.0)),
        (55.0, dict(sigma=0.3, tau_s=8.0, duration_s=0.01)),
        (150.0, dict(sigma=0.0, tau_s=1.0, duration_s=5.0)),
    ]
    for seed, (base, kwargs) in enumerate(cases):
        trace = FluctuatingTrace(
            base, rng=np.random.default_rng(seed), **kwargs
        )
        reference = ou_grid_reference(
            base, rng=np.random.default_rng(seed), **kwargs
        )
        assert trace._grid.tobytes() == reference.tobytes()
