"""Statistical helpers for the analysis pipeline.

The bootstrap confidence interval is :func:`poisson_bootstrap_ci`
(re-exported from :mod:`repro.analysis.streams`, with
:class:`PoissonBootstrapStream` for incremental use): a percentile CI
computed in one pass over an array or its column chunks, bit-identical
for any chunking, so in-memory and out-of-core samples share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.analysis.streams import (  # noqa: F401  (re-exports)
    PoissonBootstrapStream,
    poisson_bootstrap_ci,
)


@dataclass(frozen=True)
class BandwidthSummary:
    """The mean/median/max triple the paper annotates on its CDFs."""

    mean: float
    median: float
    max: float
    n: int

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "median": self.median,
            "max": self.max,
            "n": self.n,
        }


def summarize(values: Sequence[float]) -> BandwidthSummary:
    """Mean, median, max, and count of a bandwidth sample."""
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        raise ValueError("cannot summarise an empty sample")
    return BandwidthSummary(
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        max=float(arr.max()),
        n=len(arr),
    )


def cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative probability)."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if len(arr) == 0:
        raise ValueError("cannot build a CDF from an empty sample")
    probs = np.arange(1, len(arr) + 1) / len(arr)
    return arr, probs


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of values at or below ``threshold``."""
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        raise ValueError("cannot evaluate a CDF on an empty sample")
    return float(np.mean(arr <= threshold))


def pdf_histogram(
    values: Sequence[float],
    bins: int = 60,
    range_max: float = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalised histogram (bin centres, density) — how the paper
    draws its probability-distribution figures (16, 18, 19)."""
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        raise ValueError("cannot build a PDF from an empty sample")
    hi = range_max if range_max is not None else float(arr.max())
    in_range = arr[(arr >= 0.0) & (arr <= hi)]
    if len(in_range) == 0:
        raise ValueError(f"no samples fall within [0, {hi}]")
    density, edges = np.histogram(
        in_range, bins=bins, range=(0.0, hi), density=True
    )
    centres = (edges[:-1] + edges[1:]) / 2.0
    return centres, density
