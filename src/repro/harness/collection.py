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
environment, network, link or server for any of them.  It seeds the
block's RNGs in one array pass (:func:`_block_rngs`, numpy's
``SeedSequence`` mix over every row at once), and each row then makes
the per-row path's draws, in its order, in two calls on an RNG whose
state equals :func:`_row_rng`'s: two doubles for the shaping gate and
sigma, then the normals of the OU start and of the prefix of shocks
the window reaches.  The gate (:func:`repro.harness.pairs._access_gate`)
is the per-row path's own, applied to the whole block; the uniform
and normal scaling, the recursion, the interpolation and the mean run
as array passes over the block.  :func:`_row_rng` stays the per-row
path (environments, retries, the flood bank) and the reference the
kernel is tested against.

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
from numpy.random.bit_generator import ISeedSequence

from repro.dataset.records import Dataset
from repro.harness.pairs import (
    ACCESS_TAU_S,
    ACCESS_TRACE_S,
    _access_gate,
    _shaped_trace,
    environment_for_record,
)
from repro.netsim.trace import (
    grid_points,
    grid_positions,
    interpolate,
    ou_grids,
    positive_capacities,
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

# numpy's SeedSequence constants (``bit_generator.pyx``, after
# O'Neill's ``seed_seq_fe``): the entropy pool's size in uint32 words,
# the hash constant's start and multiplier while mixing entropy in, the
# same pair while drawing the state out, and the pool mix multipliers.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


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


class _RowSeed(ISeedSequence):
    """One row's PCG64 seed: the four ``uint64`` words
    ``SeedSequence(entropy).generate_state(4, np.uint64)`` gives."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(
                f"a row seed holds 4 uint64 words, asked for {n_words} "
                f"{dtype}"
            )
        return self._words


def _constants(start: int, mult: int, n: int) -> np.ndarray:
    """``start`` and its ``n`` successive wrapping products by
    ``mult``, as a ``(n + 1, 1)`` uint32 column."""
    values = [start]
    for _ in range(n):
        values.append((values[-1] * mult) & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, h: np.ndarray, call: int, k: int):
    """numpy's ``hashmix``, calls ``call .. call + k - 1`` at once:
    row ``r`` of ``values`` is mixed under hash constant ``h[call + r]``,
    which the call then advances to ``h[call + r + 1]``."""
    values = (values ^ h[call:call + k]) * h[call + 1:call + k + 1]
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of two uint32 arrays, elementwise."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _seed_words(base: int, offsets: np.ndarray) -> np.ndarray:
    """The four ``uint64`` PCG64 seed words of each entropy value
    ``base + offsets[k]``, as ``SeedSequence`` derives them.

    ``base`` is a non-negative int of any size, ``offsets`` a uint64
    array.  Every pass is a wrapping uint32 array op over the rows.
    The hash constants advance the same way for every row, so each
    sequence is computed once as a uint32 column; no operand is a
    Python int of 2**32 or more, which NEP 50 refuses against uint32.
    """
    # words[j] is word j of every value, little-endian uint32, zero-
    # padded to the pool size: hashing a missing word and a zero word
    # is the same below the pool size, and no further.
    width = max(_POOL_SIZE, -(-base.bit_length() // 32) + 1)
    words = np.empty((width, len(offsets)), dtype=np.uint32)
    rest = offsets
    for j in range(width):
        total = (rest & _MASK32) + ((base >> 32 * j) & _MASK32)
        words[j] = total & _MASK32
        rest = (rest >> 32) + (total >> 32)
    # A row has word j when it or a later word is non-zero.
    present = np.logical_or.accumulate(words[::-1] != 0, axis=0)[::-1]

    # One hashmix call per pool word, per (src, dst) pair of pool words
    # and per (word past the pool, dst): 4 x width calls in all.
    h = _constants(_INIT_A, _MULT_A, _POOL_SIZE * width)
    pool = _hashmix(words[:_POOL_SIZE], h, 0, _POOL_SIZE)
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h, call, 3))
        call += 3
    for j in range(_POOL_SIZE, width):
        mixed = _mix(pool, _hashmix(words[j], h, call, _POOL_SIZE))
        pool = np.where(present[j], mixed, pool)
        call += _POOL_SIZE

    g = _constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = (np.concatenate([pool, pool]) ^ g[:-1]) * g[1:]
    state ^= state >> 16
    return (
        np.ascontiguousarray(state.T, dtype="<u4")
        .view("<u8")
        .astype(np.uint64)
    )


def _block_rngs(seed: int, indices) -> list:
    """The first-attempt RNGs of rows ``indices``, seeded in one array
    pass; each one's state equals ``_row_rng(..., index, seed)``'s."""
    indices = np.asarray(indices, dtype=np.int64)
    first = int(indices.min())
    base = seed + 31 * (first + 1)
    if base < 0:
        raise ValueError("expected non-negative integer")
    offsets = (indices - first).astype(np.uint64) * np.uint64(31)
    return [
        np.random.Generator(np.random.PCG64(_RowSeed(words)))
        for words in _seed_words(base, offsets)
    ]


def row_capacities(
    subset: Dataset, indices, seed: int, window_s: float
) -> np.ndarray:
    """Mean access capacity over ``[0, window_s)`` of each row's first
    attempt.

    Element ``k`` is, bit for bit,
    ``row_environment(subset, indices[k], seed).true_mean_capacity(0.0,
    window_s)``, with the same errors for a bad index or a capacity
    that is not positive; every index and capacity is checked before
    any row is seeded.  Rows go through the array passes
    :data:`CAPACITY_BLOCK` at a time, starting with their RNGs'
    seeding.  A fluctuating row makes two draw calls: ``random`` for
    its shaping gate and sigma, and ``standard_normal`` for its OU
    start and shocks, which numpy's ``normal(0, s)`` scales as
    ``0.0 + s * z``.  A shaped link (1% of rows) takes its own trace's
    mean.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    n_rows = len(subset)
    outside = (indices < 0) | (indices >= n_rows)
    if outside.any():
        raise IndexError(
            f"row {indices[outside.argmax()]} outside subset of {n_rows}"
        )
    bases = positive_capacities(subset.bandwidth[indices])
    out = np.empty(len(indices))
    lo, hi, frac = grid_positions(
        sample_times(0.0, window_s), ACCESS_TRACE_S,
        grid_points(ACCESS_TRACE_S),
    )
    # The window reads grid points 0..max(hi), so max(hi) shocks; the
    # row's stream is never read after them.
    n_shocks = int(hi.max())
    # Each row's first two doubles, then its OU start and shocks.
    uniforms = np.empty((CAPACITY_BLOCK, 2))
    normals = np.empty((CAPACITY_BLOCK, n_shocks + 1))
    for start in range(0, len(indices), CAPACITY_BLOCK):
        block = indices[start:start + CAPACITY_BLOCK]
        base = bases[start:start + CAPACITY_BLOCK]
        rngs = _block_rngs(seed, block)
        u = uniforms[:len(block)]
        for row_u, rng in zip(u, rngs):
            rng.random(out=row_u)
        shaped, sigma = _access_gate(u)
        for k in np.flatnonzero(shaped):
            out[start + k] = _shaped_trace(
                float(base[k]), u[k, 1], rngs[k]
            ).mean_capacity(0.0, window_s)
        ou_rows = np.flatnonzero(~shaped)
        if not ou_rows.size:
            continue
        z = normals[:ou_rows.size]
        for row_z, k in zip(z, ou_rows):
            rngs[k].standard_normal(out=row_z)
        sigma = sigma[ou_rows]
        # normal(0, 1, n) is 0.0 + 1.0 * z, and 1.0 * z is z.
        shocks = z[:, 1:]
        shocks += 0.0
        grids = ou_grids(
            base[ou_rows], sigma, 0.0 + sigma * z[:, 0], shocks,
            ACCESS_TAU_S,
        )
        # Indexing leaves the samples F-ordered; over C-ordered rows,
        # mean(axis=1) is each row's own pairwise sum, which is what
        # the per-row mean computes.
        samples = np.ascontiguousarray(interpolate(grids, lo, hi, frac))
        out[start + ou_rows] = samples.mean(axis=1)
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
