"""Longitudinal matched-group analysis (§3.1).

Beyond the global 2020→2021 averages, the paper checks that the
decline is not a composition artifact: for *the same user group* —
customers of the same ISP in the same city — average 4G bandwidth fell
12-31% and 5G fell 5-23%.  With synthetic campaigns the stable group
key is (ISP, city tier); this module computes per-group declines and
their summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.dataset.records import Dataset, GroupReduceStream

#: Minimum tests a group needs in both years to be compared.
MIN_GROUP_TESTS = 40


@dataclass(frozen=True)
class GroupDecline:
    """Year-over-year change for one matched group.

    ``decline`` is positive when bandwidth *fell*.
    """

    isp: int
    city_tier: str
    mean_before: float
    mean_after: float

    @property
    def decline(self) -> float:
        return 1.0 - self.mean_after / self.mean_before


def matched_group_declines(
    ds_before: Dataset,
    ds_after: Dataset,
    tech: str,
    min_tests: int = MIN_GROUP_TESTS,
) -> List[GroupDecline]:
    """Per-(ISP, city tier) declines between two campaigns: the
    :func:`matched_group_declines_stream` fold over each dataset's own
    chunks."""
    columns = ["tech", "isp", "city_tier", "bandwidth_mbps"]
    return matched_group_declines_stream(
        ds_before.iter_chunks(columns=columns),
        ds_after.iter_chunks(columns=columns),
        tech,
        min_tests,
    )


def _declines_from_group_means(
    means_before: Dict[Tuple[int, str], Tuple[float, int]],
    means_after: Dict[Tuple[int, str], Tuple[float, int]],
    tech: str,
    min_tests: int,
) -> List[GroupDecline]:
    declines = []
    for key in sorted(set(means_before) & set(means_after)):
        mean_b, n_b = means_before[key]
        mean_a, n_a = means_after[key]
        if n_b >= min_tests and n_a >= min_tests:
            declines.append(
                GroupDecline(
                    isp=key[0], city_tier=key[1],
                    mean_before=mean_b, mean_after=mean_a,
                )
            )
    if not declines:
        raise ValueError(
            f"no (ISP, tier) group reaches {min_tests} {tech} tests in "
            "both campaigns; use larger campaigns"
        )
    return declines


def stream_group_means(
    chunks: Iterable[Mapping[str, np.ndarray]], tech: str
) -> Tuple[int, Dict[Tuple[int, str], Tuple[float, int]]]:
    """Single-pass (ISP, city-tier) group means for one technology.

    Returns ``(matching row count, {(isp, tier): (mean, n)})``; the
    per-group means are bit-identical for any chunk partition of the
    same rows (see :mod:`repro.analysis.streams` for why).
    """
    stream = GroupReduceStream()
    total = 0
    for chunk in chunks:
        mask = chunk["tech"] == tech
        total += int(mask.sum())
        stream.update_pairs(
            chunk["isp"][mask],
            chunk["city_tier"][mask],
            chunk["bandwidth_mbps"][mask],
        )
    return total, stream.result_dict()


def matched_group_declines_stream(
    chunks_before: Iterable[Mapping[str, np.ndarray]],
    chunks_after: Iterable[Mapping[str, np.ndarray]],
    tech: str,
    min_tests: int = MIN_GROUP_TESTS,
) -> List[GroupDecline]:
    """Per-(ISP, city tier) declines in one pass over each campaign's
    column chunks.

    Feed it two ``iter_chunks(columns=["tech", "isp", "city_tier",
    "bandwidth_mbps"])`` streams; the :class:`GroupDecline` list is
    the same for any chunk partition, at O(chunk) peak memory.
    """
    n_before, means_before = stream_group_means(chunks_before, tech)
    n_after, means_after = stream_group_means(chunks_after, tech)
    if n_before == 0 or n_after == 0:
        raise ValueError(f"both campaigns need {tech} tests")
    return _declines_from_group_means(
        means_before, means_after, tech, min_tests
    )


def decline_summary(declines: List[GroupDecline]) -> Dict[str, float]:
    """Range and central tendency of matched-group declines."""
    if not declines:
        raise ValueError("no declines to summarise")
    values = np.array([d.decline for d in declines])
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(values.mean()),
        "declining_share": float((values > 0).mean()),
        "n_groups": len(declines),
    }
