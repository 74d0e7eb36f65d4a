"""Counter-based random substreams for the dataset engine.

The paper-scale generator needs every row's randomness to be a **pure
function of ``(seed, test_id)``** so that

* a chunked pass at any chunk size (down to one row) and any sharded
  pass all produce bit-identical datasets, and
* chunk size and chunk order cannot change the result by construction.

The contract: each *kind* of draw a row makes (its technology pick,
its RSS level, its fading term, ...) owns a fixed integer **slot**.
Slot ``s`` under root seed ``seed`` names one Philox counter stream
``Philox(key=(seed, s))``; the uniform feeding row ``i``'s draw for
that slot is **word ``i``** of that stream.  :func:`uniform_block`
materialises any contiguous window of a slot's words in one vectorized
call (Philox is counter-based: ``advance`` jumps to the window start
in O(1)), so a one-row window reads the very word a wide window
holds at that position.

Non-uniform draws are derived from those uniforms through
deterministic inverse-CDF transforms (:func:`ppf_normal`,
:func:`ppf_beta`, :func:`pick`, ...).  Each transform consumes exactly
one uniform, so the word position of every draw is independent of any
other row **and** of which branch (4G/5G/3G/WiFi) the row takes.
SciPy provides the exact inverse CDFs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# SciPy is imported lazily on the first inverse-CDF call: importing
# scipy.special costs ~30 MiB of RSS, which matters to out-of-core
# consumers whose whole budget is a flat ceiling.
_special = None


def _resolve_special():
    """scipy.special, imported on first use."""
    global _special
    if _special is None:
        from scipy import special

        _special = special
    return _special

#: Philox words per counter increment (Philox4x64 emits 4 words).
_WORDS_PER_BLOCK = 4


def check_seed(seed: int) -> int:
    """``seed`` as an int, or ``ValueError`` unless it fits the 64-bit
    Philox key word, ``[0, 2**64)``."""
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


# -- slot registry -----------------------------------------------------
#
# Row slots are indexed by test_id; user slots by user_id.  The IDs are
# part of the determinism contract: renumbering them reshuffles every
# campaign, so append new slots, never reorder.

SLOT_TECH = 0
SLOT_USER = 1
SLOT_HOUR = 2
SLOT_ISP = 3
SLOT_BAND = 4
SLOT_URBAN = 5
SLOT_RSS_LEVEL = 6
SLOT_RSRP = 7
SLOT_FADE = 8
SLOT_SNR = 9
SLOT_LOAD = 10
SLOT_LTEA_GATE = 11
SLOT_LTEA_CARRIERS = 12
SLOT_LTEA_LOAD = 13
SLOT_DENSE = 14
SLOT_WIFI_BAND = 15
SLOT_PLAN = 16
SLOT_PLAN_SHIFT = 17
SLOT_LINK_PHY = 18
SLOT_LINK_CONTENTION = 19
SLOT_WIRE = 20
SLOT_WIFI_RSS = 21
SLOT_XTRAFFIC_GATE = 22
SLOT_XTRAFFIC_SHARE = 23

#: User-table slots (position = user_id, not test_id).
SLOT_USER_MODEL = 64
SLOT_USER_VERSION = 65
SLOT_USER_CITY_TIER = 66
SLOT_USER_CITY_MEMBER = 67

#: Analysis-side slots (position = resample-block word index, not
#: test_id — see repro.analysis.streams.PoissonBootstrapStream).
SLOT_BOOTSTRAP = 128


def uniform_block(seed: int, slot: int, start: int, count: int) -> np.ndarray:
    """Words ``[start, start + count)`` of slot ``slot``'s stream as
    float64 uniforms in ``[0, 1)``.

    Pure function of ``(seed, slot, start, count)``;
    ``uniform_block(s, k, 0, n)[i] == uniform_block(s, k, i, 1)[0]``
    for every ``i < n`` — the invariance that makes a campaign's output
    independent of its chunk size.
    """
    if start < 0 or count < 0:
        raise ValueError(f"need start >= 0 and count >= 0, got {start}, {count}")
    # A uint64 array: numpy would carry a tuple holding an int >= 2**63
    # through float64 and drop the key's low bits.
    key = np.array([check_seed(seed), slot], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    blocks, offset = divmod(start, _WORDS_PER_BLOCK)
    if blocks:
        bitgen.advance(blocks)
    gen = np.random.Generator(bitgen)
    if offset:
        gen.random(offset)  # discard words before the window
    return gen.random(count)


# -- inverse-CDF transforms --------------------------------------------
#
# Every transform is elementwise and NumPy-vectorized; a one-row chunk
# calls them on length-1 arrays, a wide chunk on long ones.  NumPy's
# ufunc loops are bit-identical across array sizes, which the substream
# contract tests assert end to end.

#: Uniforms are clipped into this open interval before any inverse CDF
#: so u == 0.0 (probability 2^-53 per draw) cannot produce infinities.
_U_LO = 2.0 ** -64
_U_HI = 1.0 - 2.0 ** -53


def _clip_u(u: np.ndarray) -> np.ndarray:
    return np.clip(u, _U_LO, _U_HI)


def _ndtri(u: np.ndarray) -> np.ndarray:
    return _resolve_special().ndtri(u)


def _betaincinv(a, b, u):
    return _resolve_special().betaincinv(a, b, u)


def ppf_normal(u: np.ndarray, mean, sigma) -> np.ndarray:
    """Normal(mean, sigma) draw from a uniform (inverse CDF)."""
    return np.asarray(mean) + np.asarray(sigma) * _ndtri(_clip_u(u))


def ppf_lognormal(u: np.ndarray, mu, sigma) -> np.ndarray:
    """LogNormal(mu, sigma) draw from a uniform."""
    return np.exp(ppf_normal(u, mu, sigma))


def ppf_beta(u: np.ndarray, a, b) -> np.ndarray:
    """Beta(a, b) draw from a uniform (inverse regularized betainc)."""
    return _betaincinv(np.asarray(a, dtype=np.float64),
                       np.asarray(b, dtype=np.float64),
                       _clip_u(u))


def ppf_uniform(u: np.ndarray, low, high) -> np.ndarray:
    """Uniform(low, high) draw from a unit uniform."""
    return np.asarray(low) + np.asarray(u) * (np.asarray(high) - np.asarray(low))


def cdf_of(probs: Sequence[float]) -> np.ndarray:
    """Normalised cumulative weights for :func:`pick`."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("probs must be a non-empty 1-D sequence")
    if np.any(p < 0) or p.sum() <= 0:
        raise ValueError("probs must be non-negative with positive total")
    return np.cumsum(p / p.sum())


def pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Categorical draw: index ``i`` with probability ``p[i]``.

    ``cdf`` is :func:`cdf_of` output.  Equivalent in law to
    ``rng.choice(len(p), p=p)`` but a pure function of ``u``.
    """
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, len(cdf) - 1).astype(np.int64)


def pick_rows(cdf_matrix: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise categorical draw with a per-row distribution.

    ``cdf_matrix[r]`` is the cumulative distribution to use for rows
    where ``rows == r`` (pad unused tail entries with 1.0).
    """
    cdfs = cdf_matrix[rows]
    idx = (cdfs <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf_matrix.shape[1] - 1).astype(np.int64)


def index_from_uniform(u: np.ndarray, n: int) -> np.ndarray:
    """Uniform integer in ``[0, n)`` from a unit uniform."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return np.minimum((u * n).astype(np.int64), n - 1)
