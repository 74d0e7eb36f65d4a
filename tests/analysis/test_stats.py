"""Statistical helpers."""

import numpy as np
import pytest

from repro.analysis.stats import (
    cdf,
    cdf_at,
    pdf_histogram,
    poisson_bootstrap_ci,
    summarize,
)


def test_summary_values():
    s = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s.mean == pytest.approx(22.0)
    assert s.median == pytest.approx(3.0)
    assert s.max == pytest.approx(100.0)
    assert s.n == 5
    assert s.as_dict()["mean"] == pytest.approx(22.0)


def test_summary_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_cdf_monotone_and_normalised():
    xs, ps = cdf([3.0, 1.0, 2.0])
    assert list(xs) == [1.0, 2.0, 3.0]
    assert ps[-1] == pytest.approx(1.0)
    assert all(np.diff(ps) > 0)


def test_cdf_at_threshold():
    values = [10.0, 20.0, 30.0, 40.0]
    assert cdf_at(values, 25.0) == pytest.approx(0.5)
    assert cdf_at(values, 5.0) == 0.0
    assert cdf_at(values, 100.0) == 1.0


def test_cdf_empty_rejected():
    with pytest.raises(ValueError):
        cdf([])
    with pytest.raises(ValueError):
        cdf_at([], 1.0)


def test_pdf_histogram_density_normalised(rng):
    values = rng.normal(100, 10, size=5000)
    centres, density = pdf_histogram(values, bins=50)
    bin_width = centres[1] - centres[0]
    assert np.sum(density) * bin_width == pytest.approx(1.0, abs=0.01)


def test_pdf_histogram_range_cap(rng):
    values = rng.normal(100, 10, size=1000)
    centres, _ = pdf_histogram(values, bins=20, range_max=120.0)
    assert centres.max() < 120.0


def test_pdf_histogram_empty_range_rejected(rng):
    values = rng.normal(100, 1, size=100)
    with pytest.raises(ValueError):
        pdf_histogram(values, bins=20, range_max=10.0)


def test_pdf_histogram_empty_rejected():
    with pytest.raises(ValueError):
        pdf_histogram([])


def test_bootstrap_ci_brackets_the_mean(rng):
    values = rng.normal(100.0, 10.0, size=500)
    point, low, high = poisson_bootstrap_ci(values, seed=0)
    assert low < point < high
    assert point == pytest.approx(float(np.mean(values)))
    # The 95% CI of a 500-sample mean with sigma 10 is roughly ±0.9.
    assert high - low < 4.0


def test_bootstrap_ci_narrows_with_sample_size(rng):
    small = rng.normal(100.0, 10.0, size=50)
    large = rng.normal(100.0, 10.0, size=5000)
    _, lo_s, hi_s = poisson_bootstrap_ci(small, seed=1)
    _, lo_l, hi_l = poisson_bootstrap_ci(large, seed=1)
    assert (hi_l - lo_l) < (hi_s - lo_s)


def test_bootstrap_ci_validation():
    with pytest.raises(ValueError):
        poisson_bootstrap_ci(np.array([]), seed=0)
    with pytest.raises(ValueError):
        poisson_bootstrap_ci(np.array([1.0]), seed=0, confidence=1.5)
    with pytest.raises(ValueError):
        poisson_bootstrap_ci(np.array([1.0]), seed=0, n_resamples=5)


def test_bootstrap_ci_deterministic():
    values = np.arange(100, dtype=float)
    a = poisson_bootstrap_ci(values, seed=3)
    b = poisson_bootstrap_ci(values, seed=3)
    assert a == b
    assert poisson_bootstrap_ci(values, seed=4) != a
