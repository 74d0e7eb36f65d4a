"""Convergence detector (§5.1's 10-sample, 3% rule)."""

import numpy as np
import pytest

from repro.core.convergence import (
    WINDOW,
    ConvergenceDetector,
    RollingConvergenceKernel,
)


def test_not_converged_before_full_window():
    det = ConvergenceDetector()
    for _ in range(9):
        det.push(100.0)
    assert not det.converged()
    det.push(100.0)
    assert det.converged()


def test_three_percent_rule_boundary():
    det = ConvergenceDetector()
    for _ in range(9):
        det.push(100.0)
    det.push(97.1)  # spread 2.9% — converged
    assert det.converged()

    det2 = ConvergenceDetector()
    for _ in range(9):
        det2.push(100.0)
    det2.push(96.0)  # spread 4% — not converged
    assert not det2.converged()


def test_value_is_window_mean():
    det = ConvergenceDetector()
    for v in [100.0] * 5 + [98.0] * 5:
        det.push(v)
    assert det.converged()
    assert det.value() == pytest.approx(99.0)


def test_value_none_before_convergence():
    det = ConvergenceDetector()
    det.push(100.0)
    assert det.value() is None


def test_sliding_window_forgets_old_noise():
    det = ConvergenceDetector()
    det.push(10.0)  # noise
    for _ in range(10):
        det.push(100.0)
    assert det.converged()


def test_reset_clears_window():
    det = ConvergenceDetector()
    for _ in range(10):
        det.push(100.0)
    det.reset()
    assert det.count == 0
    assert not det.converged()


def test_zero_samples_never_converge():
    det = ConvergenceDetector()
    for _ in range(10):
        det.push(0.0)
    assert not det.converged()


def test_negative_sample_rejected():
    det = ConvergenceDetector()
    with pytest.raises(ValueError):
        det.push(-1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ConvergenceDetector(window=1)
    with pytest.raises(ValueError):
        ConvergenceDetector(threshold=0.0)
    with pytest.raises(ValueError):
        ConvergenceDetector(threshold=1.0)


def test_custom_window_and_threshold():
    det = ConvergenceDetector(window=3, threshold=0.10)
    det.push(100.0)
    det.push(95.0)
    det.push(92.0)
    assert det.converged()  # 8% spread within the 10% threshold


def test_nan_sample_rejected():
    """Regression: ``sample < 0`` is False for NaN, so NaN used to slip
    into the window and poison the spread arithmetic (NaN comparisons
    are all False, so a NaN-bearing window could report converged)."""
    det = ConvergenceDetector()
    with pytest.raises(ValueError):
        det.push(float("nan"))
    assert det.count == 0  # nothing entered the window


def test_infinite_sample_rejected():
    det = ConvergenceDetector()
    for value in (float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            det.push(value)
    # The detector stays usable after the rejections.
    for _ in range(10):
        det.push(100.0)
    assert det.converged()


def test_kernel_matches_detectors_under_random_pushes_and_resets():
    """The columnar kernel against N scalar detectors fed the same
    pushes and resets: the same convergence mask after every step, and
    ``values`` equal to each detector's ``value()`` bit for bit, with
    converged windows ending at every ring position."""
    rng = np.random.default_rng(2024)
    n = 64
    kernel = RollingConvergenceKernel(n)
    detectors = [ConvergenceDetector() for _ in range(n)]
    level = rng.uniform(5.0, 900.0, size=n)
    noise = np.where(rng.random(n) < 0.75, 0.004, 0.05)
    every = np.arange(n)
    checked = 0
    ends = set()
    for _ in range(300):
        idx = np.flatnonzero(rng.random(n) < 0.8)
        shocks = rng.standard_normal(idx.size)
        samples = level[idx] * (1.0 + noise[idx] * shocks)
        kernel.push(idx, samples)
        for i, sample in zip(idx, samples):
            detectors[i].push(sample)
        reset = np.flatnonzero(rng.random(n) < 0.03)
        kernel.reset(reset)
        for i in reset:
            detectors[i].reset()
        conv = kernel.converged(every)
        assert conv.tolist() == [d.converged() for d in detectors]
        done = np.flatnonzero(conv)
        if done.size:
            expected = np.array([detectors[i].value() for i in done])
            assert kernel.values(done).tobytes() == expected.tobytes()
            ends.update(kernel._pos[done].tolist())
            checked += done.size
    assert checked > 1000
    assert ends == set(range(WINDOW))
