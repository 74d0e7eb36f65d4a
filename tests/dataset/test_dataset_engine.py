"""The chunked generator: any chunk size, down to the per-row
reference (``chunk_size=1``), produces the same bytes."""

import numpy as np
import pytest

from repro.dataset.generator import (
    CampaignConfig,
    generate_campaign,
    iter_campaign_chunks,
)
from repro.dataset.records import SCHEMA, Dataset


def assert_datasets_byte_identical(a: Dataset, b: Dataset) -> None:
    assert len(a) == len(b)
    for name in SCHEMA:
        col_a, col_b = a.column(name), b.column(name)
        assert col_a.dtype == col_b.dtype, name
        if col_a.dtype == object:
            assert (col_a == col_b).all(), name
        else:
            assert col_a.tobytes() == col_b.tobytes(), name


def per_row_oracle(config: CampaignConfig) -> Dataset:
    """The campaign assembled one record at a time: each row's scalars
    are appended to per-column lists, and the columns are typed from
    the schema at the end — no chunk concatenation."""
    columns = {name: [] for name in SCHEMA}
    for row in iter_campaign_chunks(config, chunk_size=1):
        assert set(row) == set(SCHEMA)
        for name, value in row.items():
            columns[name].append(value[0])
    return Dataset(
        {name: np.array(col, dtype=SCHEMA[name]) for name, col in columns.items()}
    )


@pytest.fixture(scope="module")
def small_config():
    return CampaignConfig(year=2021, n_tests=3_000, seed=4242)


@pytest.fixture(scope="module")
def small_reference(small_config):
    return generate_campaign(small_config, chunk_size=3_000)


@pytest.mark.parametrize("chunk_size", [1, 7, 256, 1_000, 2_999, 100_000])
def test_chunk_size_invariant(small_config, small_reference, chunk_size):
    """Any chunk partition produces the exact same bytes; ``1`` is the
    per-row reference."""
    chunked = generate_campaign(small_config, chunk_size=chunk_size)
    assert_datasets_byte_identical(small_reference, chunked)


def test_oracle_equality(small_config, small_reference):
    """The record-at-a-time oracle and the chunked path agree byte for
    byte."""
    assert_datasets_byte_identical(small_reference, per_row_oracle(small_config))


def test_oracle_equality_2020():
    """The per-row reference on a pre-refarming campaign (different
    band tables)."""
    config = CampaignConfig(year=2020, n_tests=1_500, seed=99)
    assert_datasets_byte_identical(
        generate_campaign(config),
        generate_campaign(config, chunk_size=1),
    )


def test_chunk_order_invariant(small_config, small_reference):
    """Chunks assembled out of order still reproduce the dataset."""
    chunks = list(iter_campaign_chunks(small_config, chunk_size=700))
    shuffled = [chunks[i] for i in (3, 0, 4, 1, 2)]
    merged = Dataset.from_chunks(shuffled)
    order = np.argsort(merged.column("test_id"))
    reordered = Dataset(
        {name: merged.column(name)[order] for name in SCHEMA}
    )
    assert_datasets_byte_identical(small_reference, reordered)


def test_iter_campaign_chunks_covers_all_rows(small_config):
    chunks = list(iter_campaign_chunks(small_config, chunk_size=999))
    assert [len(c["test_id"]) for c in chunks] == [999, 999, 999, 3]
    ids = np.concatenate([c["test_id"] for c in chunks])
    assert np.array_equal(ids, np.arange(3_000))


def test_invalid_chunk_size_rejected(small_config):
    with pytest.raises(ValueError):
        list(iter_campaign_chunks(small_config, chunk_size=0))


def test_same_prefix_for_larger_campaign_draws():
    """Per-row draws depend on test_id only — but user tables depend on
    campaign size, so only same-size campaigns are comparable."""
    config = CampaignConfig(n_tests=500, seed=31)
    again = CampaignConfig(n_tests=500, seed=31)
    assert_datasets_byte_identical(
        generate_campaign(config), generate_campaign(again)
    )


def test_stratified_shares_respected_on_fast_path():
    config = CampaignConfig(
        n_tests=30_000, seed=8,
        tech_shares={"4G": 0.5, "5G": 0.5},
    )
    ds = generate_campaign(config)
    counts = ds.group_counts("tech")
    assert set(counts) == {"4G", "5G"}
    assert counts["4G"] / len(ds) == pytest.approx(0.5, abs=0.02)
