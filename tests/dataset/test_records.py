"""Columnar dataset container."""

import numpy as np
import pytest

from repro.dataset.records import (
    SCHEMA,
    Dataset,
    GroupReduceStream,
    TestRecord,
)


def tiny_record(test_id=0, tech="4G", bandwidth=50.0, **overrides):
    base = dict(
        test_id=test_id, user_id=1, year=2021, hour=12, tech=tech, isp=1,
        city_id=3, city_tier="mega", urban=True, dense_urban=False,
        band="B3", channel_mhz=20.0, rss_level=4, rsrp_dbm=-90.0,
        snr_db=20.0, android_version=11, vendor="vendor-001",
        device_model="model-0001", plan_mbps=0, cell_load=0.5,
        lte_advanced=False, sleeping=False, bandwidth_mbps=bandwidth,
    )
    base.update(overrides)
    return TestRecord(**base)


@pytest.fixture
def tiny_dataset():
    records = [
        tiny_record(0, "4G", 50.0),
        tiny_record(1, "4G", 30.0, isp=2),
        tiny_record(2, "5G", 300.0, band="N78"),
        tiny_record(3, "WiFi5", 200.0, band="5GHz", plan_mbps=200, rss_level=0),
    ]
    return Dataset.from_records(records)


def test_round_trip_via_records(tiny_dataset):
    records = list(tiny_dataset.records())
    assert len(records) == 4
    assert records[2].tech == "5G"
    assert records[3].plan_mbps == 200


def test_len_and_column(tiny_dataset):
    assert len(tiny_dataset) == 4
    assert list(tiny_dataset.column("tech")) == ["4G", "4G", "5G", "WiFi5"]


def test_unknown_column_raises(tiny_dataset):
    with pytest.raises(KeyError):
        tiny_dataset.column("nope")


def test_where_filters(tiny_dataset):
    assert len(tiny_dataset.where(tech="4G")) == 2
    assert len(tiny_dataset.where(tech="4G", isp=2)) == 1
    assert len(tiny_dataset.where(tech="3G")) == 0


def test_filter_mask_length_checked(tiny_dataset):
    with pytest.raises(ValueError):
        tiny_dataset.filter(np.array([True, False]))


def test_mean_median(tiny_dataset):
    lte = tiny_dataset.where(tech="4G")
    assert lte.mean_bandwidth() == pytest.approx(40.0)
    assert lte.median_bandwidth() == pytest.approx(40.0)


def test_empty_aggregates_are_nan(tiny_dataset):
    empty = tiny_dataset.where(tech="3G")
    assert np.isnan(empty.mean_bandwidth())
    assert np.isnan(empty.median_bandwidth())


def test_group_mean_and_counts(tiny_dataset):
    means = tiny_dataset.group_mean_bandwidth("tech")
    assert means["4G"] == pytest.approx(40.0)
    counts = tiny_dataset.group_counts("tech")
    assert counts == {"4G": 2, "5G": 1, "WiFi5": 1}


def test_sample_without_replacement(tiny_dataset, rng):
    sub = tiny_dataset.sample(3, rng)
    assert len(sub) == 3
    assert len(set(sub.column("test_id").tolist())) == 3
    with pytest.raises(ValueError):
        tiny_dataset.sample(5, rng)


def test_concat(tiny_dataset):
    doubled = tiny_dataset.concat(tiny_dataset)
    assert len(doubled) == 8


def test_missing_column_rejected():
    with pytest.raises(ValueError):
        Dataset({"test_id": np.array([1])})


def test_unknown_extra_column_rejected(tiny_dataset):
    columns = {name: tiny_dataset.column(name) for name in SCHEMA}
    columns["bogus"] = np.array([1, 2, 3, 4])
    with pytest.raises(ValueError):
        Dataset(columns)


def test_mismatched_lengths_rejected(tiny_dataset):
    columns = {name: tiny_dataset.column(name) for name in SCHEMA}
    columns["hour"] = np.array([1, 2])
    with pytest.raises(ValueError):
        Dataset(columns)


def test_from_records_empty_rejected():
    with pytest.raises(ValueError):
        Dataset.from_records([])


def test_records_limit(tiny_dataset):
    assert len(list(tiny_dataset.records(limit=2))) == 2


def assert_same_columns(a, b):
    for name in SCHEMA:
        col_a, col_b = a.column(name), b.column(name)
        assert col_a.dtype == col_b.dtype, name
        if col_a.dtype == object:
            assert (col_a == col_b).all(), name
        else:
            eq = (col_a == col_b) | (np.isnan(col_a) & np.isnan(col_b)) \
                if col_a.dtype == np.float64 else col_a == col_b
            assert eq.all(), name


def test_npz_round_trip(tiny_dataset, tmp_path):
    path = tmp_path / "d.npz"
    tiny_dataset.to_npz(path)
    assert_same_columns(tiny_dataset, Dataset.from_npz(path))


def test_npz_round_trip_compressed(tiny_dataset, tmp_path):
    path = tmp_path / "d.npz"
    tiny_dataset.to_npz(path, compress=True)
    assert_same_columns(tiny_dataset, Dataset.from_npz(path))


def test_npz_preserves_nan(tmp_path):
    ds = Dataset.from_records(
        [tiny_record(0, "WiFi5", 150.0, rsrp_dbm=float("nan"),
                     snr_db=float("nan"))]
    )
    path = tmp_path / "d.npz"
    ds.to_npz(path)
    back = Dataset.from_npz(path)
    assert np.isnan(back.column("rsrp_dbm")[0])
    assert np.isnan(back.column("snr_db")[0])


def test_npz_column_mismatch_rejected(tiny_dataset, tmp_path):
    path = tmp_path / "d.npz"
    np.savez(path, test_id=np.array([1]))
    with pytest.raises(ValueError):
        Dataset.from_npz(path)


def test_save_load_dispatch_on_suffix(tiny_dataset, tmp_path):
    npz, csv_ = tmp_path / "d.npz", tmp_path / "d.csv"
    tiny_dataset.save(npz)
    tiny_dataset.save(csv_)
    assert_same_columns(tiny_dataset, Dataset.load(npz))
    assert_same_columns(tiny_dataset, Dataset.load(csv_))


@pytest.mark.parametrize("name", ["d.NPZ", "d.Npz", "d.nPz"])
def test_save_load_suffix_dispatch_is_case_insensitive(
    tiny_dataset, tmp_path, name
):
    """Regression: an uppercase .NPZ suffix used to fall through to
    the CSV writer, and load then tried to parse the binary as CSV."""
    path = tmp_path / name
    tiny_dataset.save(path)
    # The binary format was actually chosen — and at this exact path
    # (np.savez left to its own devices appends a lowercase ".npz").
    assert path.read_bytes()[:2] == b"PK"
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert_same_columns(tiny_dataset, Dataset.load(path))


def test_from_chunks_matches_concat(tiny_dataset):
    columns = {name: tiny_dataset.column(name) for name in SCHEMA}
    half_a = {name: col[:2] for name, col in columns.items()}
    half_b = {name: col[2:] for name, col in columns.items()}
    merged = Dataset.from_chunks([half_a, half_b])
    assert_same_columns(tiny_dataset, merged)


def test_from_chunks_single_chunk(tiny_dataset):
    columns = {name: tiny_dataset.column(name) for name in SCHEMA}
    assert_same_columns(tiny_dataset, Dataset.from_chunks([columns]))


def test_from_chunks_empty_rejected():
    with pytest.raises(ValueError):
        Dataset.from_chunks([])


def test_group_reduce_means_and_counts():
    stream = GroupReduceStream()
    stream.update(np.array(["b", "a", "b"]), np.array([2.0, 1.0, 4.0]))
    stream.update(np.array(["a", "c"]), np.array([3.0, 10.0]))
    uniq, means, counts = stream.result()
    assert uniq == ["a", "b", "c"]
    assert means == pytest.approx([2.0, 3.0, 10.0])
    assert counts.tolist() == [2, 2, 1]


def test_group_reduce_empty():
    stream = GroupReduceStream()
    stream.update(np.array([]), np.array([]))
    uniq, means, counts = stream.result()
    assert len(uniq) == len(means) == len(counts) == 0


def test_group_reduce_length_mismatch():
    with pytest.raises(ValueError):
        GroupReduceStream().update(np.array([1, 2]), np.array([1.0]))
