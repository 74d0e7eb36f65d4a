"""Property-based identity: streaming kernels match their independent
references for any chunk partition and row order, and the out-of-core
roundtrip preserves bytes for arbitrary partitions."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.streams import (
    GroupReduceStream,
    MeanStream,
    poisson_bootstrap_ci,
)
from repro.dataset.generator import CampaignConfig, generate_campaign
from repro.dataset.ooc import npd_file_index, open_mapped, write_npd
from repro.dataset.records import SCHEMA

from ..analysis.reference import group_reduce, poisson_bootstrap

_CAMPAIGN = generate_campaign(CampaignConfig(year=2020, n_tests=600, seed=21))


def _partition(n, cuts):
    """Sorted unique cut points -> chunk slices covering [0, n)."""
    bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
    return list(zip(bounds[:-1], bounds[1:]))


@st.composite
def partitions(draw, n=600):
    cuts = draw(st.lists(st.integers(0, 10_000), max_size=8))
    return _partition(n, cuts)


@given(parts=partitions())
@settings(max_examples=20, deadline=None)
def test_group_stream_invariant_to_chunk_partition(parts):
    tech = _CAMPAIGN.column("tech")
    bw = _CAMPAIGN.bandwidth
    stream = GroupReduceStream()
    for lo, hi in parts:
        stream.update(tech[lo:hi], bw[lo:hi])
    keys, means, counts = stream.result()
    ref_keys, ref_means, ref_counts = group_reduce(tech, bw)
    assert keys == ref_keys.tolist()
    assert means.tobytes() == ref_means.tobytes()
    assert counts.tolist() == ref_counts.tolist()


@given(parts=partitions(), order_seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_group_stream_matches_oracle_under_row_permutation(
    parts, order_seed
):
    # Reordering rows changes the accumulation order, so the streamed
    # floats must equal the reference's *on the same order* — the two
    # move in lockstep, whatever the order.
    perm = np.random.default_rng(order_seed).permutation(len(_CAMPAIGN))
    tech = _CAMPAIGN.column("tech")[perm]
    bw = _CAMPAIGN.bandwidth[perm]
    stream = GroupReduceStream()
    for lo, hi in parts:
        stream.update(tech[lo:hi], bw[lo:hi])
    keys, means, _ = stream.result()
    ref_keys, ref_means, _ = group_reduce(tech, bw)
    assert keys == ref_keys.tolist()
    assert means.tobytes() == ref_means.tobytes()


@given(parts=partitions())
@settings(max_examples=20, deadline=None)
def test_mean_stream_invariant_to_chunk_partition(parts):
    bw = _CAMPAIGN.bandwidth
    stream = MeanStream()
    for lo, hi in parts:
        stream.update(bw[lo:hi])
    acc = np.zeros(1)
    np.add.at(acc, np.zeros(len(bw), np.intp), bw)
    assert stream.total == acc[0]
    assert stream.result() == acc[0] / len(bw)


@given(parts=partitions())
@settings(max_examples=10, deadline=None)
def test_bootstrap_invariant_to_chunk_partition(parts):
    bw = _CAMPAIGN.bandwidth
    chunked = poisson_bootstrap_ci(
        [bw[lo:hi] for lo, hi in parts], seed=2, n_resamples=50
    )
    assert chunked == poisson_bootstrap(bw, seed=2, n_resamples=50)


@given(parts=partitions())
@settings(max_examples=10, deadline=None)
def test_npd_bytes_invariant_to_write_partition(parts, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("npd")
    columns = {name: _CAMPAIGN.column(name) for name in SCHEMA}

    def chunks():
        for lo, hi in parts:
            yield {name: col[lo:hi] for name, col in columns.items()}

    path = tmp_path / "part.npd"
    write_npd(path, chunks())
    ref_path = tmp_path / "whole.npd"
    write_npd(ref_path, iter([columns]))
    index, ref_index = npd_file_index(path), npd_file_index(ref_path)
    assert {
        name: entry["sha256"] for name, entry in index.items()
    } == {
        name: entry["sha256"] for name, entry in ref_index.items()
    }

    mapped = open_mapped(path)
    assert mapped.column("bandwidth_mbps").tobytes() == \
        _CAMPAIGN.bandwidth.tobytes()
    assert mapped.verify_checksums() is None
