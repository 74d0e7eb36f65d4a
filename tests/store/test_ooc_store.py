"""Out-of-core payloads in the run store: streaming ingest, mapped
loads, schema/column reads, fsck, the mixed-layout month compare, and
the flat-RSS ceiling of a paper-scale round trip."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.dataset.generator import (
    CampaignConfig,
    generate_campaign,
    iter_campaign_chunks,
)
from repro.dataset.ooc import MappedDataset
from repro.store import (
    CorruptPayloadError,
    RunStore,
    StoreError,
    compare_months,
    fsck,
)


def make_manifest(seed=1, n_rows=80, created=1660000000.0):
    return {
        "kind": "campaign",
        "seed": seed,
        "created_unix_s": created,
        "run": {"n_rows": n_rows},
    }


@pytest.fixture(scope="module")
def config():
    return CampaignConfig(year=2020, n_tests=80, seed=13)


@pytest.fixture(scope="module")
def dataset(config):
    return generate_campaign(config)


@pytest.fixture
def store(tmp_path):
    with RunStore.open(tmp_path / "store") as s:
        yield s


def _ingest_npd(store, config, seed=1, month="aug"):
    return store.ingest_chunks(
        make_manifest(seed=seed, n_rows=config.n_tests),
        iter_campaign_chunks(config, chunk_size=17),
        month=month,
    )


def test_ingest_chunks_creates_npd_payload(store, config, dataset):
    run_id = _ingest_npd(store, config)
    run = store.get_run(run_id)
    assert run.has_dataset
    assert run.n_rows == 80
    assert run.mean_mbps == pytest.approx(float(dataset.bandwidth.mean()),
                                          abs=1e-5)
    assert "manifest.json" in run.files
    assert any(name.startswith("dataset.npd/") for name in run.files)


def test_ingest_chunks_idempotent(store, config):
    a = _ingest_npd(store, config)
    b = _ingest_npd(store, config)
    assert a == b
    assert len(store.list_runs()) == 1


def test_load_dataset_maps_and_matches(store, config, dataset):
    run_id = _ingest_npd(store, config)
    loaded = store.load_dataset(run_id)
    assert isinstance(loaded, MappedDataset)
    assert loaded.column("bandwidth_mbps").tobytes() == \
        dataset.bandwidth.tobytes()
    assert loaded.column("tech").astype(object).tolist() == \
        dataset.column("tech").tolist()


def test_ingest_run_layout_dispatch(store, dataset):
    npz_id = store.ingest_run(make_manifest(seed=2), dataset, month="aug")
    npd_id = store.ingest_run(
        make_manifest(seed=3), dataset, month="aug", layout="npd"
    )
    assert "dataset.npz" in store.get_run(npz_id).files
    assert any(n.startswith("dataset.npd/")
               for n in store.get_run(npd_id).files)
    with pytest.raises(StoreError):
        store.ingest_run(make_manifest(seed=4), dataset, layout="parquet")


def test_dataset_schema_reads_headers_only(store, config, dataset):
    run_id = _ingest_npd(store, config)
    schema = store.dataset_schema(run_id)
    assert schema["layout"] == "npd"
    assert schema["n_rows"] == 80
    assert schema["columns"]["bandwidth_mbps"] == "<f8"

    npz_id = store.ingest_run(make_manifest(seed=5), dataset, month="aug")
    npz_schema = store.dataset_schema(npz_id)
    assert npz_schema["layout"] == "npz"
    assert npz_schema["n_rows"] == 80
    assert npz_schema["columns"] == schema["columns"]


def test_load_columns_subset(store, config, dataset):
    run_id = _ingest_npd(store, config)
    columns = store.load_columns(run_id, ["tech", "bandwidth_mbps"])
    assert set(columns) == {"tech", "bandwidth_mbps"}
    assert columns["bandwidth_mbps"].tobytes() == dataset.bandwidth.tobytes()
    with pytest.raises(StoreError, match="unknown columns"):
        store.load_columns(run_id, ["nope"])


def test_corrupt_npd_column_detected_on_load(store, config, tmp_path):
    run_id = _ingest_npd(store, config)
    victim = (store.layout.payload_dir(run_id) / "dataset.npd"
              / "bandwidth_mbps.npy")
    blob = bytearray(victim.read_bytes())
    blob[300] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(CorruptPayloadError):
        store.load_dataset(run_id)


def test_fsck_quarantines_corrupt_npd(tmp_path, config):
    root = tmp_path / "store"
    with RunStore.open(root) as store:
        run_id = _ingest_npd(store, config)
        victim = (store.layout.payload_dir(run_id) / "dataset.npd"
                  / "tech.npy")
        blob = bytearray(victim.read_bytes())
        blob[150] ^= 0xFF
        victim.write_bytes(bytes(blob))
    report = fsck(root, repair=True)
    assert any(f.action == "quarantined" for f in report.findings)
    assert (root / "quarantine" / run_id / "dataset.npd"
            / "tech.npy").exists()
    with RunStore.open(root) as store:
        assert store.list_runs() == []


def test_fsck_clean_on_intact_npd(tmp_path, config):
    root = tmp_path / "store"
    with RunStore.open(root) as store:
        _ingest_npd(store, config)
    report = fsck(root, repair=False)
    assert report.clean
    assert report.verified_files > 2  # every column file was hashed


def test_compare_months_stream_equals_oracle_mixed_layouts(store):
    ds_aug = generate_campaign(CampaignConfig(year=2020, n_tests=3000,
                                              seed=31))
    ds_nov = generate_campaign(CampaignConfig(year=2021, n_tests=3000,
                                              seed=32))
    store.ingest_run(make_manifest(seed=31, n_rows=3000), ds_aug,
                     month="aug", layout="npd")
    store.ingest_run(make_manifest(seed=32, n_rows=3000), ds_nov,
                     month="nov", layout="npz")
    streamed = compare_months(store, ("aug", "nov"), tech="4G",
                              min_group_tests=10, mode="stream")
    oracle = compare_months(store, ("aug", "nov"), tech="4G",
                            min_group_tests=10, mode="oracle")
    assert streamed == oracle
    assert streamed["decline"] > 0  # refarming fell between the years


def test_compare_months_rejects_bad_mode(store):
    with pytest.raises(StoreError, match="mode must be"):
        compare_months(store, ("aug", "nov"), mode="turbo")


# -- flat RSS ---------------------------------------------------------------

#: Peak RSS (MiB) each command of a 2M-row generate -> ingest -> compare
#: round trip must stay under.  The out-of-core path holds a chunk, not
#: a campaign: in memory, one 1M-row campaign alone costs ~0.8 GiB.
FLAT_RSS_CEILING_MIB = 150.0

#: Runs each argv of the JSON list in ``sys.argv[1]`` and prints its
#: exit code and its own peak RSS (``ru_maxrss``, KiB on Linux), one
#: JSON pair per line.  The commands start from this small interpreter
#: rather than from the test process because at exec the kernel folds
#: the replaced image's high-water mark into the new program's
#: ``ru_maxrss``: started from pytest, a command would report at least
#: pytest's own size.
_PEAK_RSS_LAUNCHER = """
import json, os, subprocess, sys
for argv in json.loads(sys.argv[1]):
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, usage.ru_maxrss]), flush=True)
"""


def test_paper_scale_round_trip_stays_under_flat_rss_ceiling(tmp_path):
    """Two 1M-row months streamed from the generator into a store, then
    the §3.1 Aug->Nov compare, each command in its own interpreter as a
    user would run it; every one stays under the ceiling."""
    store = str(tmp_path / "store")
    cli = [sys.executable, "-m", "repro.cli"]
    commands = [
        cli + ["generate", "--year", "2020", "--n-tests", "1000000",
               "--seed", "20220801", "--store", store,
               "--store-month", "aug"],
        cli + ["generate", "--year", "2021", "--n-tests", "1000000",
               "--seed", "20220802", "--store", store,
               "--store-month", "nov"],
        cli + ["runs", "compare", "--store", store, "--months", "aug,nov"],
    ]
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, json.dumps(commands)],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert result.returncode == 0, result.stderr
    legs = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(legs) == len(commands), result.stderr
    for argv, (code, peak_kib) in zip(commands, legs):
        assert code == 0, (argv[3:], result.stderr)
        assert 0 < peak_kib / 1024 < FLAT_RSS_CEILING_MIB, (
            argv[3:], peak_kib / 1024
        )
