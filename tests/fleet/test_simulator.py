"""The fleet-day simulator end to end: accounting, manifests,
determinism across runs and worker counts."""

import copy
import json

import pytest

from repro.fleet.simulator import FleetDayConfig, FleetDayReport, run_fleet_day
from repro.obs.manifest import (
    ManifestError,
    load_manifest,
    verify_fleet_accounting,
    write_manifest,
)

SMALL = dict(users=20_000, hours=3, seed=7)
BLACKOUT = (("Beijing", 3600.0, 5400.0),)


def deterministic_bytes(manifest, *dropped):
    """The whole manifest as JSON bytes, less its wall-clock fields
    (``created_unix_s``, ``run.elapsed_s``) and each ``(section, key)``
    in ``dropped``.  The blackout leaves ``outcomes`` as it is at this
    size; it moves breaker trips and the ``health.*`` metrics, so those
    are compared too."""
    kept = copy.deepcopy(manifest)
    del kept["created_unix_s"]
    for section, key in (("run", "elapsed_s"),) + dropped:
        del kept[section][key]
    return json.dumps(kept, sort_keys=True).encode()


def test_quiet_day_everything_completes():
    report, manifest = run_fleet_day(FleetDayConfig(**SMALL))
    assert report.admitted > 0
    assert report.balanced
    assert report.failed == 0 and report.rejected == 0
    verify_fleet_accounting(manifest)
    assert manifest["kind"] == "fleet-day"
    assert manifest["manifest_version"] == 1
    assert manifest["run"]["users"] == SMALL["users"]


def test_blackout_day_still_balances():
    report, manifest = run_fleet_day(
        FleetDayConfig(blackouts=BLACKOUT, **SMALL)
    )
    assert report.balanced
    assert report.breaker_trips > 0  # the outage tripped breakers
    verify_fleet_accounting(manifest)


def test_same_seed_same_outcomes_byte_identical():
    config = FleetDayConfig(blackouts=BLACKOUT, **SMALL)
    _, first = run_fleet_day(config)
    _, second = run_fleet_day(config)
    assert first["run"]["breaker_trips"] > 0
    assert deterministic_bytes(first) == deterministic_bytes(second)


def test_worker_count_never_changes_outcomes():
    serial = FleetDayConfig(blackouts=BLACKOUT, **SMALL)
    sharded = FleetDayConfig(blackouts=BLACKOUT, workers=4, **SMALL)
    _, a = run_fleet_day(serial)
    _, b = run_fleet_day(sharded)
    assert a["run"]["breaker_trips"] > 0
    workers = (("config", "workers"), ("run", "workers"))
    assert deterministic_bytes(a, *workers) == deterministic_bytes(b, *workers)


def test_different_seed_different_outcomes():
    _, a = run_fleet_day(FleetDayConfig(users=20_000, hours=3, seed=1))
    _, b = run_fleet_day(FleetDayConfig(users=20_000, hours=3, seed=2))
    assert a["outcomes"]["admitted"] != b["outcomes"]["admitted"]


def test_manifest_round_trips_and_verifies(tmp_path):
    _, manifest = run_fleet_day(FleetDayConfig(**SMALL))
    path = write_manifest(tmp_path / "fleet.manifest.json", manifest)
    loaded = load_manifest(path)
    verify_fleet_accounting(loaded)
    assert loaded["outcomes"] == manifest["outcomes"]


def test_accounting_verifier_rejects_imbalance():
    _, manifest = run_fleet_day(FleetDayConfig(**SMALL))
    manifest["outcomes"]["completed"] += 1  # a silently-dropped test
    with pytest.raises(ManifestError, match="imbalance"):
        verify_fleet_accounting(manifest)
    with pytest.raises(ManifestError, match="outcomes"):
        verify_fleet_accounting({"manifest_version": 1})
    with pytest.raises(ManifestError, match="missing"):
        verify_fleet_accounting({"outcomes": {"admitted": 1}})


def test_report_balanced_property():
    report = FleetDayReport(admitted=4, completed=2, degraded=1,
                            rejected=1, failed=0)
    assert report.balanced
    report.failed = 1
    assert not report.balanced


def test_config_validation():
    with pytest.raises(ValueError, match="users"):
        FleetDayConfig(users=0)
    with pytest.raises(ValueError, match="hours"):
        FleetDayConfig(users=10, hours=25)
    with pytest.raises(ValueError, match="unknown blackout domain"):
        FleetDayConfig(users=10, blackouts=(("Atlantis", 0.0, 1.0),))
    with pytest.raises(ValueError, match="bad blackout window"):
        FleetDayConfig(users=10, blackouts=(("Beijing", 5.0, 5.0),))
    with pytest.raises(ValueError, match="workers"):
        FleetDayConfig(users=10, workers=0)
    with pytest.raises(ValueError, match="slo_wait_s"):
        FleetDayConfig(users=10, slo_wait_s=-1.0)
    with pytest.raises(ValueError, match="degraded_duration_factor"):
        FleetDayConfig(users=10, degraded_duration_factor=2.0)
    with pytest.raises(ValueError, match="tests_per_user_day"):
        FleetDayConfig(users=10, tests_per_user_day=0.0)
    with pytest.raises(ValueError, match="headroom"):
        FleetDayConfig(users=10, headroom=0.2)
    with pytest.raises(ValueError, match="retire_threshold"):
        FleetDayConfig(users=10, headroom=1.3, retire_threshold=1.1)


def test_metrics_snapshot_lands_in_the_manifest():
    _, manifest = run_fleet_day(FleetDayConfig(**SMALL))
    metrics = manifest["metrics"]
    assert metrics["fleet.admitted"]["value"] == (
        manifest["outcomes"]["admitted"]
    )
    assert metrics["fleet.outcome.completed"]["value"] == (
        manifest["outcomes"]["completed"]
    )
    assert "fleet.queue.wait_s" in metrics
