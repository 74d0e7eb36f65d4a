"""Run manifests: the machine-readable record of one campaign run.

A checkpoint says *where a run got to*; a manifest says *what the run
was and what happened inside it* — the seed and frozen config, the
toolchain versions that produced it, the merged metric snapshot, the
outcome taxonomy counts, and (for sharded runs) per-shard row counts
and throughput.  Feamster & Livingood's critique of speed-test
platforms is exactly that these provenance facts are usually lost; a
manifest travels next to the dataset so every number stays auditable.

Manifests are plain JSON with a versioned schema::

    {
      "manifest_version": 1,
      "kind": "campaign",
      "created_unix_s": ...,
      "seed": ..., "config": {...}, "versions": {...},
      "run": {"n_rows": ..., "n_measured": ..., "n_quarantined": ...,
               "retries": ..., "resumed_rows": ..., "elapsed_s": ...,
               "rows_per_s": ..., "n_shards": ..., "workers": ...},
      "outcomes": {"converged": ..., "timeout": ..., ...},
      "shards": [{"shard_id": ..., "rows": ..., "elapsed_s": ...,
                   "rows_per_s": ..., "retries": ..., "quarantined": ...}],
      "metrics": { <MetricsRegistry.to_dict() snapshot> }
    }

Writes are atomic (temp + rename), mirroring the checkpoint codec, and
:func:`manifest_path_for` names the default sibling of a checkpoint
(``<ckpt>.manifest.json``) so every checkpointed run can leave one
behind without extra configuration.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.ioutil import atomic_write_json

__all__ = [
    "MANIFEST_VERSION",
    "ManifestError",
    "build_campaign_manifest",
    "build_fleet_manifest",
    "describe_versions",
    "load_manifest",
    "manifest_path_for",
    "verify_fleet_accounting",
    "write_manifest",
]

#: Manifest file schema version.
MANIFEST_VERSION = 1


class ManifestError(ValueError):
    """A manifest file is missing, corrupt, or from a newer schema."""


def manifest_path_for(checkpoint_path: Union[str, Path]) -> Path:
    """The default manifest location next to a checkpoint."""
    checkpoint_path = Path(checkpoint_path)
    return checkpoint_path.with_name(checkpoint_path.name + ".manifest.json")


@functools.lru_cache(maxsize=None)
def _git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the source tree, if the
    tree is a git checkout and git is installed.

    Runs once per process: every manifest describes the tree as the
    process first saw it (one subprocess, one index refresh).
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def describe_versions() -> Dict[str, Optional[str]]:
    """Toolchain identity: package, interpreter, numpy, git state."""
    import numpy

    from repro import __version__

    return {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "git": _git_describe(),
    }


def _jsonable_config(config) -> Dict:
    """A frozen dataclass config as plain JSON (Paths become strings,
    enums their values)."""
    def convert(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {
                f.name: convert(getattr(value, f.name))
                for f in dataclasses.fields(value)
            }
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, Path):
            return str(value)
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        return value

    return convert(config)


def build_campaign_manifest(
    config,
    report,
    metrics: Optional[Dict[str, Dict]] = None,
    shards: Optional[List[Dict]] = None,
    elapsed_s: Optional[float] = None,
) -> Dict:
    """Assemble the manifest dict for one finished campaign run.

    Parameters
    ----------
    config:
        The run's :class:`~repro.harness.config.CampaignConfig`.
    report:
        The :class:`~repro.harness.runtime.CampaignReport` produced.
    metrics:
        Merged :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
        snapshot (shards folded in shard-id order).
    shards:
        Per-shard accounting rows, one per forked worker (none for an
        in-process run).  ``run.n_shards`` echoes the requested cap
        and ``run.workers`` the workers forked.
    elapsed_s:
        Supervisor wall-clock for the whole run.
    """
    outcomes: Dict[str, int] = {}
    for name, entry in (metrics or {}).items():
        prefix = "campaign.outcome."
        if name.startswith(prefix) and entry.get("kind") == "counter":
            outcomes[name[len(prefix):]] = int(entry["value"])
    rows_per_s = (
        report.n_rows / elapsed_s
        if elapsed_s is not None and elapsed_s > 0
        else None
    )
    return {
        "manifest_version": MANIFEST_VERSION,
        "kind": "campaign",
        "created_unix_s": time.time(),
        "seed": config.seed,
        "config": _jsonable_config(config),
        "versions": describe_versions(),
        "run": {
            "n_rows": report.n_rows,
            "n_measured": report.n_measured,
            "n_quarantined": report.n_quarantined,
            "retries": report.retries,
            "backoff_wait_s": report.backoff_wait_s,
            "resumed_rows": report.resumed_rows,
            "checkpoints_written": report.checkpoints_written,
            "elapsed_s": elapsed_s,
            "rows_per_s": rows_per_s,
            "n_shards": config.n_shards,
            "workers": report.workers,
        },
        "outcomes": outcomes,
        "attribution": getattr(report, "attribution", None),
        "shards": shards or [],
        "metrics": metrics or {},
    }


def build_fleet_manifest(
    config,
    report,
    metrics: Optional[Dict[str, Dict]] = None,
) -> Dict:
    """Assemble the schema-v1 manifest for one fleet-day run.

    The ``outcomes`` block is the deterministic core: pure counts that
    must be byte-identical for the same (seed, fault plan, demand
    curve) regardless of wall time or worker count — the surrounding
    ``created_unix_s`` / ``versions`` / timing fields are allowed to
    differ between runs.

    Parameters
    ----------
    config:
        The run's :class:`~repro.fleet.simulator.FleetDayConfig`.
    report:
        The :class:`~repro.fleet.simulator.FleetDayReport` produced.
    metrics:
        :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` snapshot of
        the run's registry.
    """
    outcomes = {
        "admitted": report.admitted,
        "completed": report.completed,
        "degraded": report.degraded,
        "rejected": report.rejected,
        "failed": report.failed,
    }
    return {
        "manifest_version": MANIFEST_VERSION,
        "kind": "fleet-day",
        "created_unix_s": time.time(),
        "seed": config.seed,
        "config": _jsonable_config(config),
        "versions": describe_versions(),
        "run": {
            "users": config.users,
            "sim_hours": config.hours,
            "workers": config.workers,
            "slo_violations": report.slo_violations,
            "failovers": report.failovers,
            "breaker_trips": report.breaker_trips,
            "replans": report.replans,
            "servers_bought": report.servers_bought,
            "servers_retired": report.servers_retired,
            "infeasible_replans": report.infeasible_replans,
            "queue_wait_p50_s": report.queue_wait_p50_s,
            "queue_wait_p99_s": report.queue_wait_p99_s,
            "peak_demand_mbps": report.peak_demand_mbps,
            "final_capacity_mbps": report.final_capacity_mbps,
            "cost_per_hour_usd": report.cost_per_hour_usd,
            "elapsed_s": report.elapsed_s,
        },
        "outcomes": outcomes,
        "metrics": metrics or {},
    }


def verify_fleet_accounting(manifest: Dict) -> None:
    """Check the fleet SLO-accounting invariant.

    Every admitted test must resolve to exactly one terminal outcome:
    ``admitted == completed + degraded + rejected + failed``.  Raises
    :class:`ManifestError` on any imbalance (a silently-dropped or
    double-counted test); CI runs this against the smoke manifest.
    """
    outcomes = manifest.get("outcomes")
    if not isinstance(outcomes, dict):
        raise ManifestError("fleet manifest has no outcomes block")
    required = ("admitted", "completed", "degraded", "rejected", "failed")
    missing = [key for key in required if key not in outcomes]
    if missing:
        raise ManifestError(f"outcomes block missing {missing}")
    resolved = sum(int(outcomes[k]) for k in required[1:])
    admitted = int(outcomes["admitted"])
    if admitted != resolved:
        raise ManifestError(
            f"SLO accounting imbalance: admitted {admitted} != "
            f"completed + degraded + rejected + failed = {resolved}"
        )


def write_manifest(path: Union[str, Path], manifest: Dict) -> Path:
    """Durable atomic write (temp + fsync + rename + dir fsync),
    mirroring the checkpoint codec."""
    return atomic_write_json(
        path, manifest, indent=2, sort_keys=False, trailing_newline=True
    )


def load_manifest(path: Union[str, Path]) -> Dict:
    """Read and validate a manifest written by :func:`write_manifest`."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"{path}: no such manifest")
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: unreadable manifest ({exc})")
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    version = manifest.get("manifest_version")
    if not isinstance(version, int) or version > MANIFEST_VERSION:
        raise ManifestError(
            f"{path}: unsupported manifest_version {version!r} "
            f"(this build reads <= {MANIFEST_VERSION})"
        )
    return manifest
