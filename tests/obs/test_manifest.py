"""Run manifest: schema round-trip, versions, path conventions."""

import json
from pathlib import Path

import pytest

from repro.harness.config import CampaignConfig
from repro.harness.runtime import CampaignReport
from repro.obs import manifest as manifest_module
from repro.obs.manifest import (
    MANIFEST_VERSION,
    ManifestError,
    build_campaign_manifest,
    describe_versions,
    load_manifest,
    manifest_path_for,
    write_manifest,
)
from repro.obs.metrics import MetricsRegistry


def make_report(**overrides):
    base = dict(
        dataset=None, quarantined=[], n_rows=10, n_measured=9,
        retries=2, backoff_wait_s=1.5, resumed_rows=0,
        checkpoints_written=1,
    )
    base.update(overrides)
    return CampaignReport(**base)


def test_manifest_round_trip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("campaign.rows_measured").inc(9)
    reg.counter("campaign.outcome.converged").inc(8)
    reg.counter("campaign.outcome.timeout").inc(1)
    reg.histogram("campaign.row_wall_s").observe(0.5)
    config = CampaignConfig(
        seed=42, max_tests=10, checkpoint_path=tmp_path / "run.ckpt"
    )
    manifest = build_campaign_manifest(
        config, make_report(), metrics=reg.to_dict(), elapsed_s=2.0
    )
    path = write_manifest(tmp_path / "run.manifest.json", manifest)
    loaded = load_manifest(path)
    assert loaded == json.loads(json.dumps(manifest))  # JSON-stable
    assert loaded["manifest_version"] == MANIFEST_VERSION
    assert loaded["kind"] == "campaign"
    assert loaded["seed"] == 42
    assert loaded["run"]["n_measured"] == 9
    assert loaded["run"]["rows_per_s"] == pytest.approx(5.0)
    # Outcome taxonomy is lifted out of the metric namespace.
    assert loaded["outcomes"] == {"converged": 8, "timeout": 1}
    # Paths serialize as strings, not Path reprs.
    assert loaded["config"]["checkpoint_path"].endswith("run.ckpt")
    assert loaded["config"]["retry"]["max_attempts"] == 3


def test_manifest_schema_keys_are_stable(tmp_path):
    manifest = build_campaign_manifest(CampaignConfig(), make_report())
    assert set(manifest) == {
        "manifest_version", "kind", "created_unix_s", "seed", "config",
        "versions", "run", "outcomes", "attribution", "shards", "metrics",
    }
    assert manifest["shards"] == []
    assert manifest["metrics"] == {}


def test_describe_versions_fields():
    versions = describe_versions()
    assert set(versions) >= {"repro", "python", "numpy", "git"}
    assert versions["repro"]  # non-empty package version


def test_git_state_is_described_once_per_process(monkeypatch):
    """Manifests share one ``git describe``: a loop of campaigns starts
    no subprocess (and no index refresh) per manifest."""
    calls = []
    real_run = manifest_module.subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(manifest_module.subprocess, "run", counting_run)
    manifest_module._git_describe.cache_clear()
    first = build_campaign_manifest(CampaignConfig(), make_report())
    second = build_campaign_manifest(CampaignConfig(), make_report())
    assert len(calls) == 1
    assert first["versions"]["git"] == second["versions"]["git"]


def test_manifest_path_for_is_checkpoint_sibling():
    assert manifest_path_for("/a/b/run.ckpt") == Path(
        "/a/b/run.ckpt.manifest.json"
    )


def test_load_rejects_missing_and_corrupt(tmp_path):
    with pytest.raises(ManifestError, match="no such manifest"):
        load_manifest(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestError, match="unreadable"):
        load_manifest(bad)
    wrong_shape = tmp_path / "list.json"
    wrong_shape.write_text("[1, 2]")
    with pytest.raises(ManifestError, match="JSON object"):
        load_manifest(wrong_shape)


def test_load_rejects_future_schema(tmp_path):
    future = tmp_path / "future.json"
    future.write_text(json.dumps({"manifest_version": MANIFEST_VERSION + 1}))
    with pytest.raises(ManifestError, match="unsupported"):
        load_manifest(future)


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    path = write_manifest(
        tmp_path / "m.json",
        build_campaign_manifest(CampaignConfig(), make_report()),
    )
    assert path.exists()
    assert list(tmp_path.iterdir()) == [path]
