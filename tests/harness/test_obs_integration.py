"""Observability instrumentation end to end: byte-identical datasets,
deterministic shard merges, manifests next to checkpoints.

The sharded runs here are BTS-APP campaigns of 8-24 rows, which the
flood bank measures in-process whatever ``n_shards`` says; they run
the per-row engine (``mode="oracle"``) so they fork real workers.
"""

import json

import numpy as np
import pytest

from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.dataset.records import SCHEMA
from repro.harness.config import CampaignConfig
from repro.harness.parallel import run_campaign
from repro.obs.manifest import load_manifest, manifest_path_for
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture(scope="module")
def contexts():
    return generate_campaign(GenerationConfig(year=2021, n_tests=40,
                                              seed=404))


def sharded(**kwargs):
    """A BTS-APP config whose rows fork per-row workers."""
    return CampaignConfig(mode="oracle", **kwargs)


def datasets_identical(a, b):
    assert len(a) == len(b)
    for name in SCHEMA:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype == np.float64:
            assert np.array_equal(ca, cb, equal_nan=True), name
        else:
            assert np.array_equal(ca, cb), name


def test_instrumented_sharded_run_is_byte_identical(contexts, tmp_path):
    """The tentpole invariant: turning observability on (manifest +
    per-shard metrics) cannot change a single output byte."""
    plain = run_campaign(
        contexts, CampaignConfig(seed=3, max_tests=16, n_shards=1)
    )
    manifest_path = tmp_path / "run.manifest.json"
    instrumented = run_campaign(
        contexts,
        sharded(seed=3, max_tests=16, n_shards=8, manifest_path=manifest_path),
    )
    datasets_identical(plain.dataset, instrumented.dataset)
    manifest = load_manifest(manifest_path)
    assert manifest["run"]["workers"] == instrumented.workers > 1
    assert len(manifest["shards"]) == instrumented.workers


def test_sharded_manifest_shard_rows_sum_to_max_tests(contexts, tmp_path):
    manifest_path = tmp_path / "run.manifest.json"
    config = sharded(
        seed=3, max_tests=24, n_shards=8, manifest_path=manifest_path
    )
    report = run_campaign(contexts, config)
    manifest = load_manifest(manifest_path)
    shards = manifest["shards"]
    assert len(shards) == manifest["run"]["workers"] == 8
    assert sum(s["rows"] for s in shards) == 24
    assert manifest["run"]["n_rows"] == 24
    assert manifest["run"]["n_shards"] == 8
    assert manifest["run"]["rows_per_s"] > 0
    # The merged metric mirror of the same accounting.
    metrics = manifest["metrics"]
    assert metrics["parallel.shard.rows"]["value"] == 24
    assert metrics["campaign.rows_measured"]["value"] == report.n_measured
    assert metrics["campaign.row_wall_s"]["count"] == 24
    # Outcome taxonomy counts cover every row.
    assert sum(manifest["outcomes"].values()) == 24


def test_serial_manifest_lands_next_to_checkpoint(contexts, tmp_path):
    ckpt = tmp_path / "serial.ckpt"
    config = CampaignConfig(
        seed=5, max_tests=8, n_shards=1, checkpoint_path=ckpt
    )
    report = run_campaign(contexts, config)
    manifest = load_manifest(manifest_path_for(ckpt))
    assert manifest["run"]["n_measured"] == report.n_measured
    assert manifest["run"]["n_shards"] == 1
    assert manifest["run"]["workers"] == 0
    assert manifest["shards"] == []
    assert manifest["seed"] == 5
    assert manifest["metrics"]["campaign.rows_measured"]["value"] == 8


def test_sharded_manifest_lands_next_to_checkpoint(contexts, tmp_path):
    ckpt = tmp_path / "sharded.ckpt"
    config = sharded(
        seed=5, max_tests=12, n_shards=4, checkpoint_path=ckpt
    )
    run_campaign(contexts, config)
    manifest = load_manifest(manifest_path_for(ckpt))
    assert manifest["run"]["workers"] == 4
    assert sum(s["rows"] for s in manifest["shards"]) == 12


def test_small_banked_run_records_no_workers(contexts, tmp_path):
    """``run.n_shards`` echoes the request; ``run.workers`` says what
    forked, and ``shards`` lists only forked workers."""
    manifest_path = tmp_path / "run.manifest.json"
    report = run_campaign(contexts, CampaignConfig(
        seed=3, max_tests=12, n_shards=4, manifest_path=manifest_path
    ))
    manifest = load_manifest(manifest_path)
    assert report.workers == 0
    assert manifest["run"]["n_shards"] == 4
    assert manifest["run"]["workers"] == 0
    assert manifest["shards"] == []


def test_unmanifested_run_stays_dark(contexts, tmp_path):
    """No manifest destination, no caller registry: nothing written,
    nothing recorded."""
    report = run_campaign(contexts, sharded(seed=3, max_tests=8, n_shards=2))
    assert report.workers == 2
    assert list(tmp_path.iterdir()) == []


def test_caller_registry_collects_serial_metrics(contexts):
    reg = MetricsRegistry()
    with use_registry(reg):
        report = run_campaign(
            contexts, CampaignConfig(seed=3, max_tests=6)
        )
    assert reg.counter("campaign.rows_measured").value == report.n_measured
    assert reg.counter("campaign.outcome.converged").value > 0
    hist = reg.histogram("campaign.row_wall_s")
    assert hist.count == 6
    assert hist.min > 0


def test_caller_registry_receives_merged_shard_metrics(contexts):
    """Worker processes cannot see the parent's registry, so their
    snapshots ride back on the done event and merge into it."""
    reg = MetricsRegistry()
    with use_registry(reg):
        report = run_campaign(
            contexts, sharded(seed=3, max_tests=16, n_shards=4)
        )
    assert report.workers == 4
    assert reg.counter("campaign.rows_measured").value == report.n_measured
    assert reg.counter("parallel.shard.rows").value == 16
    assert reg.histogram("campaign.row_wall_s").count == 16


def test_manifest_json_loads_plainly(contexts, tmp_path):
    """The manifest is consumable without repro imports."""
    manifest_path = tmp_path / "m.json"
    run_campaign(
        contexts,
        sharded(seed=3, max_tests=8, n_shards=2, manifest_path=manifest_path),
    )
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    assert manifest["config"]["test"] == "bts-app"
    assert manifest["versions"]["repro"]
