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
row's environment (:func:`row_environment`), and the error statistics
of the result.

The session bank needs one float per row, not an environment: the
mean access capacity over the probing window.  :func:`row_capacities`
computes exactly the float ``row_environment(...).true_mean_capacity``
would give, for a block of rows at once, without building an
environment, network, link or server for any of them.  It makes each
row's own draws in the same order from the same RNG, draws only the
prefix of the OU grid the window reaches, and runs the recursion, the
interpolation and the mean as array passes over the block.

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
from repro.harness.pairs import (
    ACCESS_TAU_S,
    ACCESS_TRACE_S,
    _access_draws,
    environment_for_record,
)
from repro.netsim.trace import (
    ShapedTrace,
    grid_points,
    grid_positions,
    interpolate,
    ou_draws,
    ou_grids,
    positive_capacity,
    sample_times,
)
from repro.testbed.env import TestEnvironment

#: Uplink capacity of each of a row's measurement servers, in Mbps.
SERVER_CAPACITY_MBPS = 1000.0

#: Rows per array pass of :func:`row_capacities`: enough to amortise
#: the per-call cost of the passes, few enough that the block's
#: temporaries (about ten arrays of rows x window points) leave no
#: mark on peak RSS; 1024-row blocks added ~5 MiB to the peak of a
#: banked 5000-row campaign.
CAPACITY_BLOCK = 256


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


def _row_rng(
    n_rows: int, index: int, seed: int, attempt: int = 0
) -> np.random.Generator:
    """The RNG of row ``index``'s environment, derived purely from
    ``(seed, index, attempt)``.

    Attempt 0 uses the historical ``seed + 31 x (index + 1)`` stream
    (so first-attempt results never change), and each retry gets an
    independent stream — a row that failed on transient simulated
    weather sees fresh weather, while an interrupted-and-resumed
    campaign replays identical environments.
    """
    if not 0 <= index < n_rows:
        raise IndexError(f"row {index} outside subset of {n_rows}")
    if attempt < 0:
        raise ValueError(f"attempt must be non-negative, got {attempt}")
    if attempt == 0:
        return np.random.default_rng(seed + 31 * (index + 1))
    return np.random.default_rng([seed, index, attempt])


def row_environment(
    subset: Dataset, index: int, seed: int, attempt: int = 0
) -> TestEnvironment:
    """Build row ``index``'s simulated environment for ``attempt``."""
    return environment_for_record(
        float(subset.bandwidth[index]),
        str(subset.column("tech")[index]),
        rng=_row_rng(len(subset), index, seed, attempt),
        n_servers=5,
        server_capacity_mbps=SERVER_CAPACITY_MBPS,
    )


def row_capacities(
    subset: Dataset, indices, seed: int, window_s: float
) -> np.ndarray:
    """Mean access capacity over ``[0, window_s)`` of each row's first
    attempt.

    Element ``k`` is, bit for bit,
    ``row_environment(subset, indices[k], seed).true_mean_capacity(0.0,
    window_s)``, with the same errors for a bad index or a capacity
    that is not positive.  Rows go through the array passes
    :data:`CAPACITY_BLOCK` at a time; a shaped link (1% of rows) takes
    its own trace's mean.
    """
    indices = [int(i) for i in indices]
    out = np.empty(len(indices))
    lo, hi, frac = grid_positions(
        sample_times(0.0, window_s), ACCESS_TRACE_S,
        grid_points(ACCESS_TRACE_S),
    )
    # The window reads grid points 0..max(hi), so max(hi) shocks; the
    # row's stream is never read after them.
    n_shocks = int(hi.max())
    n_rows = len(subset)
    bandwidth = subset.bandwidth
    for start in range(0, len(indices), CAPACITY_BLOCK):
        ou_rows, bases, sigmas, x0s, shocks = [], [], [], [], []
        for k in range(start, min(start + CAPACITY_BLOCK, len(indices))):
            index = indices[k]
            rng = _row_rng(n_rows, index, seed)
            base = positive_capacity(float(bandwidth[index]))
            weather = _access_draws(base, rng)
            if isinstance(weather, ShapedTrace):
                out[k] = weather.mean_capacity(0.0, window_s)
                continue
            x0, row_shocks = ou_draws(rng, weather, n_shocks)
            ou_rows.append(k)
            bases.append(base)
            sigmas.append(weather)
            x0s.append(x0)
            shocks.append(row_shocks)
        if ou_rows:
            grids = ou_grids(
                bases, sigmas, x0s, np.array(shocks), ACCESS_TAU_S
            )
            # Indexing leaves the samples F-ordered; over C-ordered
            # rows, mean(axis=1) is each row's own pairwise sum, which
            # is what the per-row mean computes.
            samples = np.ascontiguousarray(interpolate(grids, lo, hi, frac))
            out[ou_rows] = samples.mean(axis=1)
    return out


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
