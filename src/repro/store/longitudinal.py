"""Longitudinal views over the catalog: the paper's own analysis,
applied to our own runs.

The paper's headline longitudinal result — 4G declining from 68 to
53 Mbps between August and November (§3.1) — exists only because
months of runs stayed queryable and comparable.  With runs ingested
into a :class:`~repro.store.catalog.RunStore`, the same question can
be asked of *our* catalog: pick two months, pool every measured
dataset in each, and rerun the decline analysis
(:mod:`repro.analysis.longitudinal`), falling back to the plain mean
comparison when no matched (ISP, city-tier) group reaches the
paper's sample-size floor.

:func:`compare_months` runs in one of two modes.  ``"stream"`` (the
default) folds each month's runs chunk by chunk — means and matched
(ISP, city-tier) group means in a single pass per month at O(chunk)
peak memory, which is what lets a 10M-row month compare under the
flat-RSS ceiling.  ``"oracle"`` pools everything in memory first and
runs the in-memory analysis over the pooled datasets; both modes
produce bit-identical results (``tests/store/test_ooc_store.py`` holds
them to that).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.longitudinal import (
    _declines_from_group_means,
    decline_summary,
    matched_group_declines,
)
from repro.analysis.streams import GroupReduceStream, MeanStream
from repro.dataset.records import Dataset
from repro.store.catalog import MONTHS, RunRecord, RunStore
from repro.store.errors import StoreError

__all__ = [
    "compare_months",
    "monthly_dataset",
]

#: Columns the month comparison needs — the streaming pass reads only
#: these files of an out-of-core payload.
_COMPARE_COLUMNS = ("tech", "isp", "city_tier", "bandwidth_mbps")


def _month_runs(
    store: RunStore, month: str, kind: Optional[str]
) -> List[RunRecord]:
    """The month's dataset-bearing runs, oldest first (the stable
    pooling order shared by both compare modes)."""
    if month not in MONTHS:
        raise StoreError(f"month must be one of {MONTHS}, got {month!r}")
    runs = [
        run for run in store.list_runs(kind=kind, month=month)
        if run.has_dataset
    ]
    if not runs:
        raise StoreError(
            f"no {kind or 'any'}-kind runs with datasets for month "
            f"{month!r} in {store.layout.root}"
        )
    return sorted(runs, key=lambda r: (r.created_unix_s, r.run_id))


def monthly_dataset(
    store: RunStore, month: str, kind: Optional[str] = "campaign"
) -> Dataset:
    """Every measured dataset ingested under ``month``, pooled into
    one in-memory dataset (runs without a dataset payload are
    skipped; out-of-core payloads are materialised)."""
    pooled: Optional[Dataset] = None
    for run in _month_runs(store, month, kind):
        dataset = store.load_dataset(run.run_id).to_memory()
        pooled = dataset if pooled is None else pooled.concat(dataset)
    return pooled


def _month_chunks(
    store: RunStore, runs: List[RunRecord]
) -> Iterator[Mapping[str, np.ndarray]]:
    """Chunk stream over a month's runs in pooling order."""
    for run in runs:
        dataset = store.load_dataset(run.run_id)
        for chunk in dataset.iter_chunks(columns=list(_COMPARE_COLUMNS)):
            yield chunk


def _month_fold(
    store: RunStore, runs: List[RunRecord], tech: str
) -> Tuple[MeanStream, Dict]:
    """One pass over a month: overall mean + (ISP, tier) group means
    for ``tech`` rows."""
    mean = MeanStream()
    groups = GroupReduceStream()
    for chunk in _month_chunks(store, runs):
        mask = chunk["tech"] == tech
        mean.update(chunk["bandwidth_mbps"][mask])
        groups.update_pairs(
            chunk["isp"][mask],
            chunk["city_tier"][mask],
            chunk["bandwidth_mbps"][mask],
        )
    return mean, groups.result_dict()


def compare_months(
    store: RunStore,
    months: Sequence[str],
    tech: str = "4G",
    min_group_tests: int = 40,
    kind: Optional[str] = "campaign",
    mode: str = "stream",
) -> Dict:
    """The Aug→Nov decline analysis over the store's own runs.

    Returns a dict with per-month pooled means for ``tech``, the
    overall decline fraction (positive = bandwidth fell), and — when
    at least one matched (ISP, city tier) group reaches
    ``min_group_tests`` in both months — the matched-group summary
    from :func:`repro.analysis.longitudinal.decline_summary`.

    Means use the sequential-sum semantics of the stream folds in both
    modes, so ``"stream"`` and ``"oracle"`` agree bit for bit.
    """
    if len(months) != 2:
        raise StoreError(
            f"compare needs exactly two months, got {list(months)}"
        )
    if mode not in ("stream", "oracle"):
        raise StoreError(
            f"mode must be 'stream' or 'oracle', got {mode!r}"
        )
    before_month, after_month = months

    if mode == "oracle":
        before = monthly_dataset(store, before_month, kind=kind)
        after = monthly_dataset(store, after_month, kind=kind)
        mean_s_before, mean_s_after = MeanStream(), MeanStream()
        mean_s_before.update(before.where(tech=tech).bandwidth)
        mean_s_after.update(after.where(tech=tech).bandwidth)
        n_before, n_after = mean_s_before.count, mean_s_after.count
        declines = None
        if n_before and n_after:
            try:
                declines = matched_group_declines(
                    before, after, tech=tech, min_tests=min_group_tests
                )
            except ValueError:
                declines = None
    else:
        runs_before = _month_runs(store, before_month, kind)
        runs_after = _month_runs(store, after_month, kind)
        mean_s_before, groups_before = _month_fold(store, runs_before, tech)
        mean_s_after, groups_after = _month_fold(store, runs_after, tech)
        n_before, n_after = mean_s_before.count, mean_s_after.count
        declines = None
        if n_before and n_after:
            try:
                declines = _declines_from_group_means(
                    groups_before, groups_after, tech, min_group_tests
                )
            except ValueError:
                declines = None

    if n_before == 0 or n_after == 0:
        raise StoreError(
            f"both months need {tech} rows "
            f"({before_month}: {n_before}, {after_month}: {n_after})"
        )
    mean_before = mean_s_before.result()
    mean_after = mean_s_after.result()
    result: Dict = {
        "months": [before_month, after_month],
        "tech": tech,
        "n_before": n_before,
        "n_after": n_after,
        "mean_before_mbps": mean_before,
        "mean_after_mbps": mean_after,
        "decline": 1.0 - mean_after / mean_before,
        "groups": decline_summary(declines) if declines else None,
    }
    return result
