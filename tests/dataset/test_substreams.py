"""Counter-based substream contract (the dataset engine's RNG core)."""

import warnings

import numpy as np
import pytest

from repro.dataset import substreams as ss


def test_uniform_block_is_positional():
    """Reading [0, n) in one call == any concatenation of sub-reads."""
    whole = ss.uniform_block(123, 7, 0, 100)
    parts = np.concatenate([
        ss.uniform_block(123, 7, 0, 13),
        ss.uniform_block(123, 7, 13, 29),
        ss.uniform_block(123, 7, 42, 58),
    ])
    assert whole.tobytes() == parts.tobytes()


def test_uniform_block_single_positions():
    """Row i's draw is the i-th word — even one at a time."""
    whole = ss.uniform_block(5, 2, 0, 17)
    singles = np.array([ss.uniform_block(5, 2, i, 1)[0] for i in range(17)])
    assert whole.tobytes() == singles.tobytes()


def test_uniform_block_unaligned_starts():
    """Starts that are not multiples of the Philox block size work."""
    whole = ss.uniform_block(99, 0, 0, 64)
    for start in (1, 2, 3, 5, 63):
        tail = ss.uniform_block(99, 0, start, 64 - start)
        assert tail.tobytes() == whole[start:].tobytes()


def test_streams_differ_across_slots_and_seeds():
    a = ss.uniform_block(1, 0, 0, 32)
    assert not np.array_equal(a, ss.uniform_block(1, 1, 0, 32))
    assert not np.array_equal(a, ss.uniform_block(2, 0, 0, 32))


def test_uniform_block_range():
    u = ss.uniform_block(3, 3, 0, 10_000)
    assert (u >= 0.0).all() and (u < 1.0).all()


def test_seeds_past_2_63_keep_their_low_key_bits():
    """Neighbouring seeds >= 2**63 name different streams: the key
    never passes through float64, which would round them together."""
    high = 2 ** 63
    assert not np.array_equal(
        ss.uniform_block(high, 0, 0, 32), ss.uniform_block(high + 1, 0, 0, 32)
    )


def test_largest_seed_runs_without_a_cast_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = ss.uniform_block(2 ** 64 - 1, 128, 5, 16)
    assert len(u) == 16


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_uniform_block_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        ss.uniform_block(seed, 0, 0, 4)


def test_ppf_normal_matches_generator_distribution():
    u = ss.uniform_block(11, 0, 0, 50_000)
    x = ss.ppf_normal(u, 5.0, 2.0)
    assert x.mean() == pytest.approx(5.0, abs=0.05)
    assert x.std() == pytest.approx(2.0, abs=0.05)


def test_ppf_lognormal_median():
    u = ss.uniform_block(12, 0, 0, 50_000)
    x = ss.ppf_lognormal(u, np.log(4.0), 0.8)
    assert np.median(x) == pytest.approx(4.0, rel=0.05)


def test_ppf_beta_moments():
    u = ss.uniform_block(13, 0, 0, 50_000)
    x = ss.ppf_beta(u, 3.2, 1.8)
    assert (x > 0.0).all() and (x < 1.0).all()
    assert x.mean() == pytest.approx(3.2 / (3.2 + 1.8), abs=0.01)


def test_ppf_beta_broadcasts_parameters():
    u = np.full(4, 0.5)
    a = np.array([2.0, 3.0, 2.0, 5.0])
    b = np.array([2.0, 1.0, 5.0, 1.0])
    x = ss.ppf_beta(u, a, b)
    for i in range(4):
        assert x[i] == pytest.approx(
            ss.ppf_beta(np.array([0.5]), a[i], b[i])[0]
        )


def test_ppf_uniform_bounds():
    u = ss.uniform_block(14, 0, 0, 1_000)
    x = ss.ppf_uniform(u, -110.0, -100.0)
    assert (x >= -110.0).all() and (x <= -100.0).all()


def test_cdf_of_normalizes():
    cdf = ss.cdf_of([2.0, 1.0, 1.0])
    assert cdf == pytest.approx([0.5, 0.75, 1.0])


def test_pick_matches_weights():
    cdf = ss.cdf_of([0.2, 0.3, 0.5])
    u = ss.uniform_block(15, 0, 0, 60_000)
    idx = ss.pick(cdf, u)
    shares = np.bincount(idx, minlength=3) / len(idx)
    assert shares == pytest.approx([0.2, 0.3, 0.5], abs=0.01)


def test_pick_rows_selects_per_row_cdf():
    cdf = np.array([
        ss.cdf_of([1.0, 0.0]),   # always index 0
        ss.cdf_of([0.0, 1.0]),   # always index 1
    ])
    rows = np.array([0, 1, 0, 1])
    u = np.array([0.3, 0.3, 0.9, 0.9])
    assert ss.pick_rows(cdf, rows, u).tolist() == [0, 1, 0, 1]


def test_index_from_uniform_covers_range():
    u = ss.uniform_block(16, 0, 0, 10_000)
    idx = ss.index_from_uniform(u, 7)
    assert idx.min() == 0 and idx.max() == 6
