"""The §2 data-collection path: per-row inputs of measured campaigns.

The paper's dataset consists of *BTS-APP results* annotated with the
PHY/MAC context the collection plugin recorded.  The fast generator
(:mod:`repro.dataset.generator`) emits ground-truth access capacities
directly; a measured campaign
(:func:`repro.harness.parallel.run_campaign`) is the faithful slow
path: take each generated context, build a simulated environment whose
true capacity is the context's bandwidth, run an actual bandwidth test
over it, and record the *measured* value alongside the context —
exactly what the deployed plugin does.  This module holds what that
path needs per campaign and per row: the subset it measures, each
row's environment, and the error statistics of the result.

Beyond fidelity, this closes a validation loop: the §3 analyses run on
measured campaigns must agree with the same analyses on ground-truth
campaigns, because a 10-second flooding test is an accurate estimator.
``tests/integration`` and the benchmark suite check exactly that.

Every per-row decision here is a pure function of ``(seed, row)`` —
subset selection and each row's environment RNG derive from the seed,
never from global state or the order rows happen to run in.  That
determinism is what lets a campaign checkpoint an interrupted run and
resume it bit-identically, on any shard count.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.dataset.records import Dataset
from repro.harness.pairs import environment_for_record
from repro.testbed.env import TestEnvironment


def campaign_subset(
    contexts: Dataset, seed: int = 0, max_tests: Optional[int] = None
) -> Dataset:
    """The deterministic subset a measured campaign operates on.

    Subsampling (when ``max_tests`` caps the run) draws from
    ``default_rng(seed)``, so the same ``(contexts, seed, max_tests)``
    always yields the same rows in the same order.
    """
    if len(contexts) == 0:
        raise ValueError("no contexts to measure")
    n = len(contexts) if max_tests is None else min(max_tests, len(contexts))
    rng = np.random.default_rng(seed)
    return contexts if n == len(contexts) else contexts.sample(n, rng)


def row_environment(
    subset: Dataset, index: int, seed: int, attempt: int = 0
) -> TestEnvironment:
    """Build row ``index``'s simulated environment.

    The RNG is derived purely from ``(seed, index, attempt)``:
    attempt 0 uses the historical ``seed + 31 x (index + 1)`` stream
    (so first-attempt results never change), and each
    retry gets an independent stream — a row that failed on transient
    simulated weather sees fresh weather, while an interrupted-and-
    resumed campaign replays identical environments.
    """
    if not 0 <= index < len(subset):
        raise IndexError(f"row {index} outside subset of {len(subset)}")
    if attempt < 0:
        raise ValueError(f"attempt must be non-negative, got {attempt}")
    rng = (
        np.random.default_rng(seed + 31 * (index + 1))
        if attempt == 0
        else np.random.default_rng([seed, index, attempt])
    )
    return environment_for_record(
        float(subset.bandwidth[index]),
        str(subset.column("tech")[index]),
        rng=rng,
        n_servers=5,
        server_capacity_mbps=1000.0,
    )


def measurement_error_stats(
    contexts: Dataset, measured: Dataset
) -> Dict[str, float]:
    """Relative-error statistics of a measured campaign against its
    ground-truth contexts (matched by ``test_id``)."""
    truth_by_id = dict(
        zip(contexts.column("test_id").tolist(), contexts.bandwidth.tolist())
    )
    errors = []
    for test_id, value in zip(
        measured.column("test_id").tolist(), measured.bandwidth.tolist()
    ):
        truth = truth_by_id.get(test_id)
        if truth and truth > 0:
            errors.append(abs(value - truth) / truth)
    if not errors:
        raise ValueError("no matching test ids between the datasets")
    arr = np.asarray(errors)
    return {
        "mean_rel_error": float(arr.mean()),
        "median_rel_error": float(np.median(arr)),
        "p95_rel_error": float(np.quantile(arr, 0.95)),
        "n": len(arr),
    }
