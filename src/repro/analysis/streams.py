"""Single-pass streaming folds: group means, means and the bootstrap.

Every analysis the paper runs at corpus scale — per-group means
(§3.1's (ISP, city-tier) decline table), hourly profiles (§5.2), and
bootstrap confidence intervals — reduces to a handful of folds over
the rows.  This module provides those folds as **chunk streams**: feed
them :meth:`Dataset.iter_chunks` output (in-memory slices or the
out-of-core mapped reader's positioned reads — the fold cannot tell)
and peak RSS stays at O(chunk) however many rows go by.  An in-memory
analysis runs the same fold over the dataset's own chunks, so each
kernel has one implementation.

Why the results are *bit*-identical for any chunk partition, rather
than merely close:

* Sums accumulate with ``np.add.at`` onto persistent accumulators.
  ``np.add.at`` is unbuffered, so it applies the additions in row
  order, one chunk at a time.  A left fold split at any chunk boundary
  is the same left fold, so the final IEEE-754 sums match to the last
  bit for **any** chunk partition of the same rows.  (A
  per-chunk-partials-then-combine scheme would NOT have this
  property: float addition is not associative.)  The group-by fold,
  :class:`~repro.dataset.records.GroupReduceStream`, lives with the
  dataset, whose ``group_mean_bandwidth`` runs it; it is re-exported
  here.
* Counts are exact integers; means are then one ``sums / counts``
  division.
* The bootstrap cannot replay an rng-stateful index draw chunkwise,
  so it is a **Poisson bootstrap** (per-row multiplicities ~
  Poisson(1)) on the counter-based Philox substream fabric: each draw
  is a pure function of ``(seed, SLOT_BOOTSTRAP, word index)``, so any
  chunking of the rows reads the same words.  A word's multiplicity is
  the count of Poisson(1) CDF entries at or below it: compares against
  the table's head, a binary search only for the rare words past it.
  That count is the integer a binary search of the whole table
  returns, so the resample sums see the same floats.

Note these folds use *sequential-sum* semantics.  ``np.mean`` uses
pairwise summation and will differ in the last ulps — compare the
folds against a row-order sequential sum, not against ``np.mean``.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

import numpy as np

from repro.dataset.records import GroupReduceStream
from repro.dataset.substreams import SLOT_BOOTSTRAP, check_seed, uniform_block

__all__ = [
    "BOOTSTRAP_BLOCK_ROWS",
    "GroupReduceStream",
    "MeanStream",
    "PoissonBootstrapStream",
    "poisson_bootstrap_ci",
]


class MeanStream:
    """Streaming sequential-sum mean (a one-group group-by fold)."""

    def __init__(self) -> None:
        self._acc = np.zeros(1, dtype=np.float64)
        self._n = 0

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            return
        np.add.at(self._acc, np.zeros(len(values), dtype=np.intp), values)
        self._n += len(values)

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return float(self._acc[0])

    def result(self) -> float:
        """Sequential-sum mean of everything folded (empty → NaN)."""
        if self._n == 0:
            return float("nan")
        return float(self._acc[0] / self._n)


#: Canonical bootstrap block size: rows ``[b*B, (b+1)*B)`` consume
#: Philox words ``[b*R*B, b*R*B + R*len)`` of SLOT_BOOTSTRAP.  Fixed —
#: changing it changes which uniforms each row sees.
BOOTSTRAP_BLOCK_ROWS = 1024

#: Poisson(1) multiplicities are inverted through a cumulative table;
#: P(X > 32) < 1e-36, far below the 2^-53 resolution of the uniforms.
#: In float64 the table reaches 1.0 at k = 18, so no uniform in
#: ``[0, 1)`` draws more than 18: :func:`_poisson_multiplicities`
#: counts into ``int8``.
_POISSON_MAX_K = 32

#: Head thresholds counted by compares: a uniform at or past the last
#: of them (P(X >= 5) ~ 0.37%) takes the binary search instead.  On a
#: 200x1024 block (2-vCPU Xeon VM, numpy 2.4) 5 compares take 0.51 ms,
#: 4 take 0.69 ms (the 1.9% tail costs more to gather) and 6 take
#: 0.53 ms; the binary search of every word takes 4.1 ms.
_POISSON_HEAD = 5


def _poisson_cdf_table() -> np.ndarray:
    pmf = np.empty(_POISSON_MAX_K + 1)
    pmf[0] = np.exp(-1.0)
    for k in range(1, _POISSON_MAX_K + 1):
        pmf[k] = pmf[k - 1] / k
    table = np.cumsum(pmf)
    table[-1] = 1.0  # saturate: searchsorted can never step past the end
    return table


_POISSON_CDF = _poisson_cdf_table()


def _poisson_multiplicities(u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(_POISSON_CDF, u, side="right")`` as ``int8``.

    The count of table entries at or below ``u``, taken as one
    in-place ``>=`` compare per head threshold; only the rare
    uniforms at or past the last head threshold are binary-searched.
    The counts are exact integers, so they equal the search's.
    """
    mult = np.zeros(u.shape, dtype=np.int8)
    hit = np.empty(u.shape, dtype=bool)
    for threshold in _POISSON_CDF[:_POISSON_HEAD]:
        np.greater_equal(u, threshold, out=hit)
        mult += hit.view(np.int8)
    tail = np.flatnonzero(hit)  # at or past the last head threshold
    if len(tail):
        mult.flat[tail] = np.searchsorted(
            _POISSON_CDF, u.flat[tail], side="right"
        )
    return mult


class PoissonBootstrapStream:
    """Streaming percentile bootstrap over chunked values.

    A classic bootstrap draws ``n`` indices per resample — impossible
    in one pass when ``n`` is unknown and the rows go by once.  The
    Poisson bootstrap replaces the multinomial row-multiplicities with
    independent Poisson(1) counts, which need only the current chunk:
    resample ``r``'s statistic over row multiplicities ``m[r, i]`` is
    a running ``(sum, count)`` pair.

    Multiplicities come from the deterministic Philox substream fabric
    (:data:`~repro.dataset.substreams.SLOT_BOOTSTRAP`), keyed by the
    row's absolute position — so the resample draw for row ``i`` does
    not depend on how the rows were chunked, and any chunking yields
    bit-identical intervals.  Statistics: ``"mean"`` (empty resample →
    the point estimate) or ``"sum"`` (empty resample → 0.0).

    >>> stream = PoissonBootstrapStream(seed=7)
    >>> for chunk in dataset.iter_chunks():            # doctest: +SKIP
    ...     stream.update(chunk["bandwidth_mbps"])
    >>> point, low, high = stream.result()             # doctest: +SKIP
    """

    def __init__(
        self,
        seed: int,
        n_resamples: int = 1000,
        confidence: float = 0.95,
        statistic: str = "mean",
    ) -> None:
        if not 0 < confidence < 1:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        if n_resamples < 10:
            raise ValueError(f"need >= 10 resamples, got {n_resamples}")
        if statistic not in ("mean", "sum"):
            raise ValueError(
                f"statistic must be 'mean' or 'sum', got {statistic!r}"
            )
        self.seed = check_seed(seed)
        self.n_resamples = int(n_resamples)
        self.confidence = float(confidence)
        self.statistic = statistic
        self._sums = np.zeros(self.n_resamples, dtype=np.float64)
        self._ns = np.zeros(self.n_resamples, dtype=np.int64)
        self._point = MeanStream()
        self._block = 0
        self._pending = np.empty(0, dtype=np.float64)

    def update(self, values: np.ndarray) -> None:
        """Fold one chunk of values (any chunking; order matters)."""
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            return
        self._point.update(values)
        # Re-block to the canonical BOOTSTRAP_BLOCK_ROWS grid so the
        # Philox words a row consumes depend only on its absolute
        # position, never on the caller's chunk boundaries.
        if len(self._pending):
            values = np.concatenate([self._pending, values])
            self._pending = np.empty(0, dtype=np.float64)
        full = (len(values) // BOOTSTRAP_BLOCK_ROWS) * BOOTSTRAP_BLOCK_ROWS
        for start in range(0, full, BOOTSTRAP_BLOCK_ROWS):
            self._fold(values[start:start + BOOTSTRAP_BLOCK_ROWS])
        if full < len(values):
            self._pending = values[full:].copy()

    def _resample_sums(self, block: int, rows: np.ndarray):
        """Per-resample ``(sum, count)`` of block ``block``'s rows."""
        blen = len(rows)
        words = uniform_block(
            self.seed,
            SLOT_BOOTSTRAP,
            block * self.n_resamples * BOOTSTRAP_BLOCK_ROWS,
            self.n_resamples * blen,
        ).reshape(self.n_resamples, blen)
        mult = _poisson_multiplicities(words)
        return (mult * rows).sum(axis=1), mult.sum(axis=1)

    def _fold(self, rows: np.ndarray) -> None:
        sums, ns = self._resample_sums(self._block, rows)
        self._sums += sums
        self._ns += ns
        self._block += 1

    def result(self) -> Tuple[float, float, float]:
        """``(point, low, high)`` of everything folded so far.

        The partial tail block is folded into copies, so calling this
        mid-stream leaves the stream exactly as it was: rows fed later
        still read the Philox words of their absolute positions.
        """
        if self._point.count == 0:
            raise ValueError("cannot bootstrap an empty sample")
        sums, ns = self._sums, self._ns
        if len(self._pending):
            tail_sums, tail_ns = self._resample_sums(
                self._block, self._pending
            )
            sums, ns = sums + tail_sums, ns + tail_ns
        if self.statistic == "mean":
            point = self._point.result()
            stats = np.where(ns > 0, sums / np.maximum(ns, 1), point)
        else:
            point = self._point.total
            stats = sums
        alpha = (1.0 - self.confidence) / 2.0
        low, high = np.quantile(stats, [alpha, 1.0 - alpha])
        return float(point), float(low), float(high)


def poisson_bootstrap_ci(
    values: Union[np.ndarray, Iterable[np.ndarray]],
    seed: int,
    n_resamples: int = 1000,
    confidence: float = 0.95,
    statistic: str = "mean",
) -> Tuple[float, float, float]:
    """Poisson-bootstrap CI over an array or an iterable of chunks:
    one :class:`PoissonBootstrapStream` pass."""
    stream = PoissonBootstrapStream(
        seed,
        n_resamples=n_resamples,
        confidence=confidence,
        statistic=statistic,
    )
    chunks = [values] if isinstance(values, np.ndarray) else values
    for chunk in chunks:
        stream.update(chunk)
    return stream.result()
