"""Hour-of-day aggregation (Figure 10) and diurnal demand rates.

Besides aggregating a measured dataset per hour — one streaming fold
(:func:`hourly_profile_stream`), which :func:`hourly_profile` runs
over an in-memory or mapped dataset's own chunks — this module converts
the paper's diurnal volume profile into the *forward* quantities the
fleet-day simulator needs: expected test arrivals per second and the
aggregate backend demand (Mbps of concurrently-running tests) at any
hour, for a user base of any size (§5.2 sizes for 3.54M users).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.dataset.records import Dataset, GroupReduceStream
from repro.radio.sleeping import DiurnalProfile


@dataclass(frozen=True)
class HourlyProfile:
    """Test volume and mean bandwidth per hour of day."""

    counts: Dict[int, int]
    mean_bandwidth: Dict[int, float]

    def window_mean_bandwidth(self, start_hour: int, end_hour: int) -> float:
        """Test-weighted mean bandwidth over ``[start, end)`` hours."""
        hours = [h for h in range(start_hour, end_hour) if self.counts.get(h)]
        if not hours:
            raise ValueError(f"no tests in hours [{start_hour}, {end_hour})")
        weights = np.array([self.counts[h] for h in hours], dtype=float)
        values = np.array([self.mean_bandwidth[h] for h in hours])
        return float(np.average(values, weights=weights))

    def window_count(self, start_hour: int, end_hour: int) -> int:
        return sum(self.counts.get(h, 0) for h in range(start_hour, end_hour))


def arrival_rate_per_s(
    hour: int,
    tests_per_day: float,
    profile: Optional[DiurnalProfile] = None,
) -> float:
    """Expected test arrivals per second during ``hour``.

    The daily volume is spread over the 24 hours in proportion to the
    diurnal profile's volume shares (Figure 10's shape by default).
    """
    if tests_per_day < 0:
        raise ValueError(f"tests_per_day cannot be negative, got {tests_per_day}")
    profile = profile or DiurnalProfile()
    return tests_per_day * profile.volume_share(hour) / 3600.0


def expected_demand_mbps(
    hour: int,
    tests_per_day: float,
    mean_test_demand_mbps: float,
    mean_test_duration_s: float,
    profile: Optional[DiurnalProfile] = None,
) -> float:
    """Expected aggregate backend demand during ``hour``, in Mbps.

    By Little's law the mean number of concurrently-running tests is
    ``arrival_rate x duration``; each occupies its access bandwidth
    while it runs, so the pool must carry that many tests' worth of
    mean demand.  (A quantile of instantaneous demand — see
    :func:`repro.deploy.workload.estimate_workload` — sits above this
    mean; the fleet re-planner applies its own headroom on top.)
    """
    if mean_test_demand_mbps < 0 or mean_test_duration_s < 0:
        raise ValueError("demand and duration cannot be negative")
    rate = arrival_rate_per_s(hour, tests_per_day, profile)
    return rate * mean_test_duration_s * mean_test_demand_mbps


def hourly_profile(dataset: Dataset, tech: str) -> HourlyProfile:
    """Per-hour test counts and mean bandwidth for one technology: the
    :func:`hourly_profile_stream` fold over the dataset's own chunks."""
    return hourly_profile_stream(
        dataset.iter_chunks(columns=["tech", "hour", "bandwidth_mbps"]), tech
    )


def hourly_profile_stream(
    chunks: Iterable[Mapping[str, np.ndarray]], tech: str
) -> HourlyProfile:
    """Per-hour test counts and mean bandwidth for one technology, in
    one pass over column chunks.

    Feed it ``dataset.iter_chunks(columns=["tech", "hour",
    "bandwidth_mbps"])`` — in-memory or mapped — and it produces the
    same profile, bit for bit, for any chunk partition of the same
    rows, at O(chunk) peak memory.
    """
    stream = GroupReduceStream()
    for chunk in chunks:
        mask = chunk["tech"] == tech
        stream.update(chunk["hour"][mask], chunk["bandwidth_mbps"][mask])
    hours, means, counts = stream.result()
    if not hours:
        raise ValueError(f"no {tech} tests in the dataset")
    return HourlyProfile(
        counts={int(h): int(n) for h, n in zip(hours, counts)},
        mean_bandwidth={int(h): float(m) for h, m in zip(hours, means)},
    )
