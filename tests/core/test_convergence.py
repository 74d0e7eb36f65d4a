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
    """The columnar kernel against scalar detectors fed the same
    pushes, resets and compactions.  Every live row pushes at each
    step, as a bank's sessions do; rows are reset and dropped at
    random.  After every step the convergence mask is the live
    detectors', ``values`` equals each converged detector's
    ``value()`` bit for bit, and every ``ordered_window`` is the
    detector's deque in order; converged windows end at every ring
    position."""
    rng = np.random.default_rng(2024)
    n = 96
    kernel = RollingConvergenceKernel(n)
    detectors = [ConvergenceDetector() for _ in range(n)]
    level = rng.uniform(5.0, 900.0, size=n)
    noise = np.where(rng.random(n) < 0.75, 0.004, 0.05)
    checked = 0
    compactions = 0
    ends = set()
    for step in range(300):
        samples = level * (1.0 + noise * rng.standard_normal(kernel.n))
        kernel.push(samples)
        for detector, sample in zip(detectors, samples):
            detector.push(sample)
        reset = np.flatnonzero(rng.random(kernel.n) < 0.03)
        kernel.reset(reset)
        for i in reset:
            detectors[i].reset()
        conv = kernel.converged()
        assert conv.tolist() == [d.converged() for d in detectors]
        done = np.flatnonzero(conv)
        if done.size:
            expected = np.array([detectors[i].value() for i in done])
            assert kernel.values(done).tobytes() == expected.tobytes()
            # The newest sample sits in the column this step wrote.
            ends.add(step % WINDOW)
            checked += done.size
        for i, detector in enumerate(detectors):
            assert kernel.ordered_window(i).tolist() == list(detector._samples)
        if rng.random() < 0.1:
            keep = rng.random(kernel.n) >= 0.05
            kernel.compact(keep)
            detectors = [d for d, kept in zip(detectors, keep) if kept]
            level, noise = level[keep], noise[keep]
            compactions += 1
        assert kernel.n == len(detectors)
    assert checked > 1000
    assert compactions > 20 and kernel.n < n
    assert ends == set(range(WINDOW))


def test_kernel_push_takes_one_finite_sample_per_live_row():
    kernel = RollingConvergenceKernel(3)
    for bad in ([1.0, 2.0], [1.0, float("nan"), 2.0], [1.0, -1.0, 2.0]):
        with pytest.raises(ValueError):
            kernel.push(np.array(bad))
    kernel.compact(np.array([True, False, True]))
    kernel.push(np.array([1.0, 2.0]))
    assert kernel.ordered_window(1).tolist() == [2.0]
