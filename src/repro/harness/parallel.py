"""The campaign driver: :func:`run_campaign`, in-process or sharded.

A measured campaign takes each generated context, builds its simulated
environment, runs the configured bandwidth test over it under
supervision (retries, quarantine — see
:func:`repro.harness.runtime.measure_row`), and records the measured
value alongside the context.  :func:`run_campaign` is the one way to
run one.  Every run goes through the same steps:

* **Subset and fingerprint.**  The config's ``(seed, max_tests)``
  resolve the rows (:func:`repro.harness.collection.campaign_subset`);
  the fingerprint ties a checkpoint to exactly that campaign.
* **One executor rule** (:func:`repro.harness.runtime.executor_for`).
  The service and :class:`~repro.execmode.ExecutionMode` pick what
  runs the rows — the flood bank for BTS-APP, the session bank for
  the loopback, or per-row :func:`repro.harness.runtime.measure_row`
  — and with it how many rows a forked worker needs to pay for itself.
* **One row loop** (:func:`_measure_rows`).  It runs that executor a
  batch at a time (one bank, or one row on the per-row engine), and
  flushes a checkpoint every ``checkpoint_every`` finished rows and
  once more on every exit path, a crash or kill included.
* **One finish step** (:func:`_finish`).  It sets the rows/s gauge,
  writes the run manifest and ingests the run into the store, when the
  config asks for either.

``config.n_shards`` is an upper bound.  The run forks
``min(n_shards, rows left // rows per worker)`` workers, the
executor's measured crossover; at one or fewer the row loop runs
in-process, checkpointing straight to ``checkpoint_path``.  Otherwise
each worker runs the same row loop over its rows into
``<checkpoint>.shard-<k>``:

* **Sharding never changes results.**  A row belongs to shard
  ``crc32(seed bytes + row bytes) % workers`` (:func:`shard_of`) — a
  pure function of the campaign seed and the row's global subset index.
  Since every per-row decision is itself a pure function of
  ``(seed, row, attempt)`` (see
  :func:`repro.harness.collection.row_environment`), *where* a row
  executes is invisible to *what* it produces: any worker count yields
  byte-identical datasets and identical quarantine sets.
* **Shard checkpoints are ordinary checkpoints.**  They use the one
  checkpoint codec with *global* row indices and the campaign
  fingerprint; the supervisor merges them (dict union keyed by row
  index) into the main checkpoint.  A resume reads every
  ``.shard-<k>`` file beside the checkpoint, whatever worker count
  wrote it, and a successful run leaves only the main checkpoint.
* **Progress streaming.**  Workers push one event per finished batch
  (a bank, or one row on the per-row engine) carrying its counts; the
  supervisor folds them into per-shard :class:`ShardProgress`
  counters and forwards each update to the optional ``on_progress``
  callback.  In-process runs report the same batches, as shard 0.

Workers are rebuilt from data, not shared objects: a shard receives
the subset's raw columns and the frozen
:class:`~repro.harness.config.CampaignConfig`, and rebuilds ``Dataset``
and service locally.  That keeps the engine correct under both
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import operator
import queue as queue_mod
import re
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.dataset.records import Dataset, SCHEMA
from repro.harness import runtime
from repro.harness.collection import campaign_subset
from repro.harness.config import CampaignConfig
from repro.harness.runtime import (
    CampaignReport,
    _RowState,
    _state_from_json,
    _state_to_json,
    build_report,  # noqa: F401 - a trace site of benchmarks/pipeline
    campaign_fingerprint,
    executor_for,
    ingest_report,
    iter_banked_rows,
    load_checkpoint,
    measure_row,
    write_checkpoint,
)
from repro.netsim.trace import positive_capacity
from repro.obs.manifest import build_campaign_manifest, write_manifest
from repro.obs.metrics import (
    MetricsRegistry,
    NullRegistry,
    active_registry,
    use_registry,
)
from repro.obs.trace import span

__all__ = [
    "ShardProgress",
    "run_campaign",
    "shard_checkpoint_path",
    "shard_of",
]

#: Seconds between liveness checks while draining the progress queue.
_POLL_S = 0.25


def shard_of(seed: int, row: int, n_shards: int) -> int:
    """The shard owning global subset row ``row``.

    A keyed hash of ``(seed, row)`` rather than ``row % n_shards``: the
    assignment is stable under any enumeration order, spreads
    contiguous hot regions across workers, and — because per-row
    results never depend on their shard — is free to change between
    engine versions without invalidating checkpoints.  The hash reads
    the seed's unsigned little-endian bytes, 8 of them below ``2**64``
    and as many as it needs above, so any non-negative seed has a
    shard; below ``2**63`` those are the bytes of a signed 64-bit
    seed.  CRC is affine, so for a power-of-two ``n_shards`` the seed
    only relabels one fixed partition of the rows: with two shards,
    rows 0 and 1 always share one.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(_ROW_KEY.pack(row), _seed_crc(seed)) % n_shards


#: A row's bytes in the shard hash.
_ROW_KEY = struct.Struct("<q")


def _seed_crc(seed: int) -> int:
    """The CRC of the seed's bytes, which :func:`shard_of` continues
    over each row's bytes (``crc32(b, crc32(a)) == crc32(a + b)``)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return zlib.crc32(
        seed.to_bytes(max(8, (seed.bit_length() + 7) // 8), "little")
    )


def shard_checkpoint_path(base: Path, shard_id: int) -> Path:
    """Where shard ``shard_id`` flushes its progress."""
    base = Path(base)
    return base.with_name(f"{base.name}.shard-{shard_id}")


@dataclass
class ShardProgress:
    """Live counters for one shard, streamed to the supervisor."""

    shard_id: int
    n_rows: int
    done: int = 0
    quarantined: int = 0
    retries: int = 0
    finished: bool = False

    def fold(self, rows: int, retries: int, quarantined: int) -> None:
        """Count one finished batch: a bank, or a single row."""
        self.done += rows
        self.retries += retries
        self.quarantined += quarantined


# -- the row loop ----------------------------------------------------------


def _measure_rows(
    service,
    config: CampaignConfig,
    subset: Dataset,
    indices: List[int],
    rows: Dict[int, _RowState],
    fingerprint: Dict,
    checkpoint_path: Optional[Path],
    on_batch: Callable[[int, int, int], None],
) -> int:
    """Measure ``indices`` into ``rows``; return the checkpoint flushes.

    Rows run on the executor :func:`~repro.harness.runtime.executor_for`
    picks, a batch at a time: a lockstep bank, or one row on the
    per-row engine; either way their results are byte-identical (the
    oracle contract).  Each finished batch reports its
    ``(rows, retries, quarantined)`` counts to ``on_batch``.  ``rows``
    is flushed to ``checkpoint_path`` every ``config.checkpoint_every``
    finished rows and once more on every exit path — normal
    completion, a service bug, or a kill — so a resume never loses
    finished rows.
    """
    if executor_for(service, config.mode).run_bank is None:
        batches = (
            [(i, measure_row(service, config.retry, subset, i, config.seed))]
            for i in indices
        )
    else:
        batches = iter_banked_rows(service, subset, indices, config.seed)
    flushes = 0
    since_flush = 0
    try:
        for batch in batches:
            retries = quarantined = 0
            for index, state in batch:
                rows[index] = state
                retries += state.attempts - 1
                quarantined += state.quarantine is not None
                since_flush += 1
                if (
                    checkpoint_path is not None
                    and since_flush >= config.checkpoint_every
                ):
                    write_checkpoint(checkpoint_path, fingerprint, rows)
                    flushes += 1
                    since_flush = 0
            on_batch(len(batch), retries, quarantined)
    finally:
        if checkpoint_path is not None and since_flush > 0:
            write_checkpoint(checkpoint_path, fingerprint, rows)
            flushes += 1
    return flushes


def _plan_workers(
    config: CampaignConfig, todo: List[int], rows_per_worker: int
) -> Dict[int, List[int]]:
    """The rows of each worker to fork, by shard id; empty when the run
    stays in-process.

    ``config.n_shards`` is an upper bound: each worker needs
    ``rows_per_worker`` rows to pay for itself, the executor's
    measured crossover (see :class:`~repro.harness.runtime.Executor`).
    Rows go to ``shard_of(seed, i, workers)``, the seed's CRC taken
    once.  A shard the hash leaves empty forks nothing, and a plan
    left with one worker runs in-process, which costs less and gives
    the same bytes.
    """
    workers = min(config.n_shards, len(todo) // rows_per_worker)
    if workers <= 1:
        return {}
    seed_crc = _seed_crc(config.seed)
    pending: Dict[int, List[int]] = {}
    for i in todo:
        shard = zlib.crc32(_ROW_KEY.pack(i), seed_crc) % workers
        pending.setdefault(shard, []).append(i)
    if len(pending) <= 1:
        return {}
    return dict(sorted(pending.items()))


# -- the driver ------------------------------------------------------------


def run_campaign(
    contexts: Dataset,
    config: CampaignConfig,
    resume: bool = False,
    on_progress: Optional[Callable[[ShardProgress], None]] = None,
    salvage: bool = False,
) -> CampaignReport:
    """Measure a campaign per its config.

    ``config.n_shards`` caps the worker processes; the run forks only
    as many as the rows left to measure pay for (see
    :func:`_plan_workers`), and none below two, and reports the count
    as ``report.workers``.  Where rows run never changes the report:
    it is byte-identical for any worker count — datasets, quarantine
    sets, accounted backoff, attribution.  With ``resume=True``
    completed rows are restored from the checkpoint and every
    ``.shard-<k>`` file beside it, whatever worker count wrote them,
    instead of re-measured.  A checkpoint or shard file from a
    *different* campaign raises
    :class:`~repro.harness.runtime.CheckpointError`; a truncated or
    corrupt one raises
    :class:`~repro.harness.runtime.CorruptCheckpointError` unless
    ``salvage=True`` drops the damaged tail and re-measures it.  A
    successful run leaves the merged main checkpoint and no shard file.

    When a manifest destination resolves (explicit
    ``config.manifest_path``, or the checkpoint's sibling) or the
    config names a run store, the run collects metrics into a fresh
    registry — unless the caller already routed one via
    :func:`repro.obs.metrics.use_registry` — writes the manifest on
    the way out, and ingests the finished run into the store.
    """
    started = time.perf_counter()
    service = config.make_test()
    # Raises for mode='vectorized' with a test no bank serves.
    executor = executor_for(service, config.mode)
    subset = campaign_subset(
        contexts, seed=config.seed, max_tests=config.max_tests
    )
    # Every row's environment needs a positive, finite capacity.  Check
    # them all before any row runs or any shard forks, so a bad context
    # fails the same way in-process, sharded and banked.
    for bandwidth in subset.bandwidth.tolist():
        positive_capacity(bandwidth)
    fingerprint = campaign_fingerprint(
        subset, config.seed, config.max_tests, service.name
    )
    ckpt = config.checkpoint_path
    rows: Dict[int, _RowState] = {}
    merges = 0
    if resume and ckpt is not None:
        rows, merges = _load_progress(ckpt, fingerprint, salvage)
    resumed_rows = sum(1 for s in rows.values() if s.done)
    todo = [i for i in range(len(subset)) if not (i in rows and rows[i].done)]
    pending = _plan_workers(config, todo, executor.rows_per_worker)

    recorded = (
        config.resolved_manifest_path() is not None
        or config.store_path is not None
    )
    own_registry = (
        MetricsRegistry()
        if recorded and isinstance(active_registry(), NullRegistry)
        else None
    )
    with use_registry(own_registry):
        if pending:
            progress, shards = _run_shards(
                config, subset, pending, rows, fingerprint, on_progress,
                started,
            )
            flushes = int(ckpt is not None)
        else:
            progress, flushes = _run_in_process(
                service, config, subset, todo, rows, fingerprint, on_progress
            )
            shards = None
        if ckpt is not None:
            # The main checkpoint holds every row: shard files, this
            # run's or a stale layout's, are redundant.
            for path in _shard_files(ckpt):
                path.unlink(missing_ok=True)
        # Looked up on its own module at call time, where the pipeline
        # benchmark's digest-gate test substitutes a perturbed builder.
        report = runtime.build_report(
            subset,
            rows,
            resumed_rows,
            sum(p.retries for p in progress.values()),
            merges + flushes,
        )
        report.workers = len(pending)
        _finish(config, report, time.perf_counter() - started, shards)
    return report


def _shard_files(ckpt: Path) -> List[Path]:
    """Every ``<ckpt>.shard-<k>`` file beside ``ckpt``, whatever worker
    count wrote it; an atomic write's ``.tmp`` never matches."""
    name = re.compile(re.escape(ckpt.name) + r"\.shard-[0-9]+")
    return sorted(
        path
        for path in ckpt.parent.glob(glob.escape(ckpt.name) + ".shard-*")
        if name.fullmatch(path.name)
    )


def _load_progress(
    ckpt: Path, fingerprint: Dict, salvage: bool
) -> Tuple[Dict[int, _RowState], int]:
    """Rows finished by earlier runs: the main checkpoint plus every
    shard file a killed sharded run left, and the checkpoint flushes
    spent (0 or 1).

    Shard files are folded into the main checkpoint, and removed,
    before any row runs: the workers of this run overwrite
    ``.shard-<k>`` files, and a kill must not lose the rows they held.
    """
    rows = load_checkpoint(ckpt, fingerprint, salvage=salvage)
    shard_files = _shard_files(ckpt)
    for path in shard_files:
        for index, state in load_checkpoint(
            path, fingerprint, salvage=salvage
        ).items():
            if state.done:
                rows.setdefault(index, state)
    if not shard_files:
        return rows, 0
    write_checkpoint(ckpt, fingerprint, rows)
    for path in shard_files:
        path.unlink()
    return rows, 1


def _run_in_process(
    service,
    config: CampaignConfig,
    subset: Dataset,
    todo: List[int],
    rows: Dict[int, _RowState],
    fingerprint: Dict,
    on_progress: Optional[Callable[[ShardProgress], None]],
):
    """Run the row loop in this process, straight into
    ``checkpoint_path``, reporting progress as shard 0.

    Returns the progress (keyed like :func:`_run_shards`'s) and the
    checkpoint flushes.
    """
    progress = ShardProgress(shard_id=0, n_rows=len(todo))

    def on_batch(*counts: int) -> None:
        progress.fold(*counts)
        if on_progress is not None:
            on_progress(progress)

    with span("campaign.serial"):
        flushes = _measure_rows(
            service, config, subset, todo, rows, fingerprint,
            config.checkpoint_path, on_batch,
        )
    progress.finished = True
    if on_progress is not None:
        on_progress(progress)
    return {0: progress}, flushes


def _finish(
    config: CampaignConfig,
    report: CampaignReport,
    elapsed_s: float,
    shards: Optional[List[Dict]],
) -> None:
    """Set the rows/s gauge, then write the run manifest and ingest the
    run into the catalog when the config asks for either."""
    metrics = active_registry()
    if elapsed_s > 0:
        metrics.gauge("campaign.rows_per_s").set(report.n_rows / elapsed_s)
    manifest_path = config.resolved_manifest_path()
    if manifest_path is None and config.store_path is None:
        return
    manifest = build_campaign_manifest(
        config,
        report,
        metrics=metrics.to_dict(),
        shards=shards,
        elapsed_s=elapsed_s,
    )
    if manifest_path is not None:
        write_manifest(manifest_path, manifest)
    if config.store_path is not None:
        report.store_run_id = ingest_report(
            config.store_path, manifest, report, month=config.store_month
        )


# -- sharded execution -----------------------------------------------------


def _shard_worker(
    shard_id: int,
    row_indices: List[int],
    columns: Dict,
    config: CampaignConfig,
    fingerprint: Dict,
    checkpoint_path: Optional[Path],
    events: "mp.Queue",
    instrument: bool,
) -> None:
    """One worker process: run the row loop over this shard's rows.

    The worker flushes ``checkpoint_path`` like any in-process run and
    reports the counts of every finished batch (a bank, or one row on
    the per-row engine), then a final ``done`` event carrying its rows
    (and any error).  With ``instrument=True`` it records into its own
    process-local :class:`~repro.obs.metrics.MetricsRegistry` and
    ships the snapshot back inside the ``done`` event, so the
    supervisor can merge per-shard metrics deterministically.
    """
    subset = Dataset(columns)
    service = config.make_test()
    registry = MetricsRegistry() if instrument else None
    rows: Dict[int, _RowState] = {}
    started = time.perf_counter()

    def on_batch(*counts: int) -> None:
        events.put(("progress", shard_id) + counts)

    error = None
    try:
        with use_registry(registry):
            _measure_rows(
                service, config, subset, row_indices, rows, fingerprint,
                checkpoint_path, on_batch,
            )
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        # Report on every exit path: the supervisor fails the run on
        # an error and keeps the rows either way.
        snapshot = None
        if registry is not None:
            elapsed = time.perf_counter() - started
            if elapsed > 0:
                registry.gauge("parallel.shard.rows_per_s").set(
                    len(rows) / elapsed
                )
            registry.counter("parallel.shard.rows").inc(len(rows))
            snapshot = registry.to_dict()
        events.put((
            "done",
            shard_id,
            {i: _state_to_json(s) for i, s in rows.items()},
            error,
            snapshot,
        ))


def _mp_context():
    """Prefer ``fork`` (cheap, no import round-trip); fall back to the
    platform default where fork is unavailable."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context()


def _run_shards(
    config: CampaignConfig,
    subset: Dataset,
    pending: Dict[int, List[int]],
    rows: Dict[int, _RowState],
    fingerprint: Dict,
    on_progress: Optional[Callable[[ShardProgress], None]],
    started: float,
):
    """Fork one worker per shard of ``pending`` and fold their rows
    into ``rows``.

    Returns the per-shard progress and the manifest's per-shard rows.
    With a checkpoint configured, the shard files are merged into the
    main checkpoint — also when a worker failed, so a resume loses at
    most ``checkpoint_every - 1`` rows per shard.  Worker metric
    snapshots are folded into the active registry in **shard-id
    order**, never arrival order, so the merged snapshot is
    reproducible run to run.
    """
    ckpt = config.checkpoint_path
    metrics = active_registry()
    instrument = not isinstance(metrics, NullRegistry)
    progress = {
        k: ShardProgress(shard_id=k, n_rows=len(indices))
        for k, indices in pending.items()
    }

    ctx = _mp_context()
    events: "mp.Queue" = ctx.Queue()
    columns = {name: subset.column(name) for name in SCHEMA}
    workers = {}
    for shard_id, indices in pending.items():
        proc = ctx.Process(
            target=_shard_worker,
            args=(
                shard_id,
                indices,
                columns,
                config,
                fingerprint,
                (
                    shard_checkpoint_path(ckpt, shard_id)
                    if ckpt is not None
                    else None
                ),
                events,
                instrument,
            ),
            daemon=True,
        )
        proc.start()
        workers[shard_id] = proc

    errors: List[str] = []
    finished = set()
    #: Per-shard metric snapshots and wall-clock, keyed by shard id.
    shard_snapshots: Dict[int, Dict] = {}
    shard_elapsed: Dict[int, float] = {}
    try:
        while len(finished) < len(workers):
            try:
                event = events.get(timeout=_POLL_S)
            except queue_mod.Empty:
                # A worker that died without reporting (killed, OOM)
                # fails the run; its shard file is salvaged below.
                for k, proc in workers.items():
                    if k not in finished and not proc.is_alive():
                        finished.add(k)
                        progress[k].finished = True
                        errors.append(
                            f"shard {k}: worker exited without a result "
                            f"(exit code {proc.exitcode})"
                        )
                continue
            kind, shard_id = event[0], event[1]
            snap = progress[shard_id]
            if kind == "progress":
                snap.fold(*event[2:])
            else:
                _, _, raw_rows, error, metrics_snapshot = event
                for index, entry in raw_rows.items():
                    rows[int(index)] = _state_from_json(entry)
                if metrics_snapshot is not None:
                    shard_snapshots[shard_id] = metrics_snapshot
                shard_elapsed[shard_id] = time.perf_counter() - started
                snap.finished = True
                finished.add(shard_id)
                if error is not None:
                    errors.append(f"shard {shard_id}: {error}")
            if on_progress is not None:
                on_progress(snap)
    finally:
        for proc in workers.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join()

    salvaged_rows = 0
    if ckpt is not None:
        # Recover rows a dead worker flushed but never reported.
        for shard_id in workers:
            try:
                salvaged = load_checkpoint(
                    shard_checkpoint_path(ckpt, shard_id), fingerprint
                )
            except Exception:
                salvaged = {}
            for index, state in salvaged.items():
                if state.done and index not in rows:
                    rows[index] = state
                    salvaged_rows += 1
        # The merge IS an ordinary checkpoint: any later run resumes
        # from it directly.
        write_checkpoint(ckpt, fingerprint, rows)

    if errors:
        raise RuntimeError(
            "sharded campaign failed: " + "; ".join(errors)
        )

    with span("campaign.merge_metrics", shards=len(shard_snapshots)):
        for shard_id in sorted(shard_snapshots):
            metrics.merge_snapshot(shard_snapshots[shard_id])
    metrics.counter("parallel.rows_salvaged").inc(salvaged_rows)
    shards = []
    for shard_id in sorted(progress):
        snap = progress[shard_id]
        wall = shard_elapsed.get(shard_id)
        shards.append({
            "shard_id": shard_id,
            "rows": snap.done,
            "retries": snap.retries,
            "quarantined": snap.quarantined,
            "elapsed_s": wall,
            "rows_per_s": snap.done / wall if wall else None,
        })
    return progress, shards
