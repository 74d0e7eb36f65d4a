"""Independent reference implementations of the analysis folds.

Each reference computes what a ``src/`` kernel computes by a
differently structured route over the same inputs, so a test that
compares the two byte for byte pins the kernel down:

* :func:`group_reduce` is a whole-array group-by: one
  ``np.unique(return_inverse=True)`` and two ``np.bincount`` passes.
  ``np.bincount`` accumulates weights sequentially in row order, which
  is the sum :class:`~repro.dataset.records.GroupReduceStream` must
  reproduce for any chunk partition.
* :func:`poisson_bootstrap` is the Poisson bootstrap over the whole
  array, blocks outer and resamples inner, with 1-D arithmetic per
  resample; :class:`~repro.analysis.streams.PoissonBootstrapStream`
  must match it for any chunking.
"""

import numpy as np

from repro.analysis.streams import BOOTSTRAP_BLOCK_ROWS, _POISSON_CDF
from repro.dataset.substreams import SLOT_BOOTSTRAP, uniform_block


def group_reduce(keys, values):
    """``(unique_keys, means, counts)`` with groups in sorted key
    order."""
    keys = np.asarray(keys)
    values = np.asarray(values, dtype=np.float64)
    if len(keys) == 0:
        return keys, np.empty(0), np.empty(0, dtype=np.int64)
    unique, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(unique))
    sums = np.bincount(inverse, weights=values, minlength=len(unique))
    return unique, sums / counts, counts.astype(np.int64)


def group_means_by_pair(first, second, values):
    """``{(first, second): (mean, count)}`` through one
    :func:`group_reduce` over factorized composite codes."""
    first_vals, first_inv = np.unique(first, return_inverse=True)
    second_vals, second_inv = np.unique(second, return_inverse=True)
    width = len(second_vals)
    codes, means, counts = group_reduce(
        first_inv * width + second_inv, values
    )
    firsts, seconds = first_vals.tolist(), second_vals.tolist()
    return {
        (firsts[code // width], seconds[code % width]): (mean, n)
        for code, mean, n in zip(
            codes.tolist(), means.tolist(), counts.tolist()
        )
    }


def poisson_bootstrap(values, seed, n_resamples, confidence=0.95,
                      statistic="mean"):
    """``(point, low, high)`` of the Poisson bootstrap over ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    n = len(arr)
    # Point estimate with the folds' sequential-sum semantics.
    total = np.bincount(np.zeros(n, dtype=np.intp), weights=arr)[0]
    point = float(total / n) if statistic == "mean" else float(total)
    sums = np.zeros(n_resamples, dtype=np.float64)
    ns = np.zeros(n_resamples, dtype=np.int64)
    for block, start in enumerate(range(0, n, BOOTSTRAP_BLOCK_ROWS)):
        rows = arr[start:start + BOOTSTRAP_BLOCK_ROWS]
        blen = len(rows)
        words = uniform_block(
            seed,
            SLOT_BOOTSTRAP,
            block * n_resamples * BOOTSTRAP_BLOCK_ROWS,
            n_resamples * blen,
        ).reshape(n_resamples, blen)
        for r in range(n_resamples):
            mult_r = np.searchsorted(_POISSON_CDF, words[r], side="right")
            sums[r] += (mult_r * rows).sum()
            ns[r] += int(mult_r.sum())
    if statistic == "mean":
        stats = np.where(ns > 0, sums / np.maximum(ns, 1), point)
    else:
        stats = sums
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(stats, [alpha, 1.0 - alpha])
    return point, float(low), float(high)
