"""Per-row supervision, checkpoints and reports for measured campaigns.

The building blocks :func:`repro.harness.parallel.run_campaign` drives,
in-process or inside shard workers.  At the paper's scale — 23.6M
crowdsourced tests collected over months — individual tests fail,
servers die mid-campaign, and runs get interrupted, so every row runs
under supervision:

* **Per-row retries** (:func:`measure_row`).  A row whose test raises,
  or whose result comes back with an unusable
  :class:`~repro.baselines.common.TestOutcome`, is retried up to
  :attr:`RetryPolicy.max_attempts` times with exponential backoff and
  deterministic jitter.  Backoff delays are *accounted*, not slept:
  the runtime is simulation-side, so the wait a real deployment would
  incur is summed into :attr:`CampaignReport.backoff_wait_s` instead
  of stalling the process, and the jitter draws from a seeded RNG —
  never the wall clock — so every run of the same campaign retries
  identically.
* **Lockstep banks** (:func:`iter_banked_rows`), byte-identical to
  :func:`measure_row` by the oracle contract.  Loopback rows run
  through :class:`~repro.core.sessionbank.SessionBank`, which reads
  one float per row that
  :func:`~repro.harness.collection.row_capacities` computes for a
  block of rows at once, so no banked loopback row builds an
  environment.  BTS-APP rows build their environments and run through
  the flood bank (:meth:`~repro.baselines.btsapp.BtsApp.run_bank`).
* **Quarantine.**  Rows that exhaust their retries are never silently
  dropped: they are excluded from the measured dataset and recorded as
  :class:`QuarantinedRow` entries carrying the final outcome (or
  error) so downstream analyses can reason about the bias of what is
  missing.
* **Checkpoints** (:func:`write_checkpoint` / :func:`load_checkpoint`).
  Progress is flushed atomically (write-temp-then-rename); a damaged
  file raises :class:`CorruptCheckpointError` unless salvaged.
  Because every per-row decision is a pure function of
  ``(seed, row, attempt)`` (see
  :func:`repro.harness.collection.row_environment`), a campaign
  interrupted at an arbitrary row and resumed from its checkpoint
  produces a dataset *bit-identical* to the uninterrupted run.
* **Report assembly** (:func:`build_report`) and **store ingest**
  (:func:`ingest_report`), once per run, whatever its shard count.
"""

from __future__ import annotations

import json
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.baselines.btsapp import BtsApp
from repro.baselines.common import BandwidthTestService
from repro.core.attribution import attribute_rows, attribution_summary
from repro.core.variants import LoopbackSwiftest
from repro.dataset.records import Dataset, SCHEMA
from repro.execmode import ExecutionMode
from repro.ioutil import atomic_write_json
from repro.harness.collection import (
    SERVER_CAPACITY_MBPS,
    row_capacities,
    row_environment,
)
from repro.harness.config import CampaignConfig, RetryPolicy
from repro.obs.metrics import active_registry

__all__ = [
    "BANK_SIZE",
    "CHECKPOINT_VERSION",
    "CampaignConfig",
    "CampaignReport",
    "CheckpointError",
    "CorruptCheckpointError",
    "Executor",
    "FLOOD_BANK_ROWS_PER_WORKER",
    "FLOOD_BANK_SIZE",
    "PER_ROW_ROWS_PER_WORKER",
    "QuarantinedRow",
    "RetryPolicy",
    "SESSION_BANK_ROWS_PER_WORKER",
    "bankable_service",
    "build_report",
    "campaign_fingerprint",
    "executor_for",
    "iter_banked_rows",
    "load_checkpoint",
    "ingest_report",
    "measure_row",
    "write_checkpoint",
]

#: Checkpoint file format version.
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is corrupt or belongs to a different campaign."""


class CorruptCheckpointError(CheckpointError):
    """A checkpoint (or ``.shard-<k>``) file is truncated or corrupt.

    Raised on ``--resume`` instead of a raw decode traceback; resume
    with ``salvage=True`` (CLI: ``--resume --salvage``) to drop the
    damaged tail and continue from the last good row.
    """


@dataclass(frozen=True)
class QuarantinedRow:
    """One row that exhausted its retries.

    ``outcome`` is the final :class:`~repro.baselines.common.TestOutcome`
    value when the service returned one, or ``"error"`` when every
    attempt raised (``error`` then holds the last exception's text).
    """

    row_index: int
    test_id: int
    attempts: int
    outcome: str
    error: str = ""


@dataclass
class CampaignReport:
    """What a supervised campaign run produced.

    Attributes
    ----------
    dataset:
        Measured rows (context columns plus measured
        ``bandwidth_mbps``), in subset order, quarantined rows
        excluded.  ``None`` when every row was quarantined.
    quarantined:
        Rows that exhausted their retries, in subset order.
    n_rows / n_measured:
        Subset size and how many rows produced a usable measurement.
    retries:
        Extra attempts spent beyond each row's first.
    backoff_wait_s:
        Total accounted (not slept) backoff delay.
    resumed_rows:
        Rows restored from the checkpoint rather than re-measured.
    checkpoints_written:
        Times the checkpoint file was flushed during this run.
    store_run_id:
        Catalog id the run was ingested under when the config names a
        run store (see :mod:`repro.store`); ``None`` otherwise.
    attribution:
        Bottleneck-attribution summary over the measured rows
        (:func:`repro.core.attribution.attribution_summary`, including
        agreement against the generator's ground-truth ``bottleneck``
        column); ``None`` when nothing was measured.
    workers:
        Shard worker processes the run forked; ``0`` when it ran
        in-process.
    """

    dataset: Optional[Dataset]
    quarantined: List[QuarantinedRow]
    n_rows: int
    n_measured: int
    retries: int = 0
    backoff_wait_s: float = 0.0
    resumed_rows: int = 0
    checkpoints_written: int = 0
    store_run_id: Optional[str] = None
    attribution: Optional[Dict] = None
    workers: int = 0

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)


@dataclass
class _RowState:
    """Per-row progress, as persisted in the checkpoint."""

    measured_mbps: Optional[float] = None
    attempts: int = 0
    quarantine: Optional[QuarantinedRow] = None
    backoff_wait_s: float = 0.0

    @property
    def done(self) -> bool:
        return self.measured_mbps is not None or self.quarantine is not None


# -- shared per-row supervision --------------------------------------------


def measure_row(
    service: BandwidthTestService,
    retry: RetryPolicy,
    subset: Dataset,
    index: int,
    seed: int,
) -> _RowState:
    """Run one row to completion: retry until a usable result or the
    attempt budget is spent, then quarantine.

    This is *the* per-row unit of work — the campaign's row loop calls
    it in-process or in a shard worker, and it depends only on its
    arguments, so a row lands on the same result whichever process
    executes it.

    Metrics (rows measured/retried/quarantined, the final outcome
    taxonomy, a per-row wall-time histogram) are recorded into the
    active :mod:`repro.obs` registry — a no-op unless the caller
    opted in, and never an input to the measurement itself.
    """
    metrics = active_registry()
    started = time.perf_counter()
    state = _RowState()
    last_outcome = "error"
    last_error = ""
    final_outcome = None
    for attempt in range(retry.max_attempts):
        if attempt:
            state.backoff_wait_s += retry.delay_s(seed, index, attempt)
        state.attempts = attempt + 1
        env = row_environment(subset, index, seed, attempt=attempt)
        try:
            result = service.run(env)
        except Exception as exc:
            last_outcome = "error"
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        if result.outcome.usable:
            state.measured_mbps = float(result.bandwidth_mbps)
            final_outcome = result.outcome.value
            break
        last_outcome = result.outcome.value
        last_error = ""
    if final_outcome is None:
        state.quarantine = QuarantinedRow(
            row_index=index,
            test_id=int(subset.column("test_id")[index]),
            attempts=state.attempts,
            outcome=last_outcome,
            error=last_error,
        )
        final_outcome = last_outcome
        metrics.counter("campaign.rows_quarantined").inc()
    else:
        metrics.counter("campaign.rows_measured").inc()
    metrics.counter("campaign.retries").inc(state.attempts - 1)
    metrics.counter(f"campaign.outcome.{final_outcome}").inc()
    metrics.histogram("campaign.row_wall_s").observe(
        time.perf_counter() - started
    )
    return state


# -- the batched (session-bank) executor -----------------------------------

#: Rows grouped into one lockstep SessionBank call.  Large enough to
#: amortize the per-tick Python overhead across thousands of sessions,
#: small enough that a bank's column arrays stay cache- and
#: checkpoint-friendly.  The value never changes results (oracle
#: contract: bank results are invariant to bank size).
BANK_SIZE = 4096

#: Rows grouped into one lockstep flood bank call.  Far below
#: :data:`BANK_SIZE`: a banked BTS-APP row keeps its environment, its
#: 200 samples and 20 congestion-control objects alive for the whole
#: bank, about 45 KiB of peak RSS a row, and wider banks stop paying
#: off here (on a 2-vCPU VM, a 600-row campaign ran fastest at 256 of
#: bank sizes from 5 to 600).  The value never changes results.
FLOOD_BANK_SIZE = 256

# Rows a forked shard worker needs before it pays for itself, one
# constant per executor (see :class:`Executor`).  A run of N rows forks
# at most N // rows_per_worker workers.  Each table is a campaign's
# wall time over 2 forced workers divided by in-process, the median of
# 5-9 paired runs with no store, on a 2-vCPU VM, with workers sending
# one progress event per bank.  None of these values changes results.

#: Session-bank (banked loopback) rows per worker.  Campaign rows:
#: 600: 1.42, 1200: 1.23, 1600: 1.01, 2048: 0.92-0.97, 2400: 0.88,
#: 3200: 0.90, 4096: 0.74-0.79, 9600: 0.84, 10000: 0.68, 30000: 0.66.
#: Two workers break even near 1600 rows and pay reliably from 4096.
SESSION_BANK_ROWS_PER_WORKER = 2048

#: Flood-bank (banked BTS-APP) rows per worker.  Campaign rows:
#: 8: 1.06, 12: 0.94, 16: 0.99, 24: 0.87, 32: 0.88, 64: 0.68,
#: 128: 0.65.  Two workers break even near 16 rows.
FLOOD_BANK_ROWS_PER_WORKER = 16

#: Per-row engine rows per worker.  Campaign rows: BTS-APP ``oracle``
#: 4: 0.62, 8: 0.67; Speedtest 4: 0.62.  Two rows never split over
#: two shards (see :func:`repro.harness.parallel.shard_of`), so 4 is
#: the smallest measurable size.  The per-row loopback, a one-session
#: bank a row, pays only from about 64 rows (4: 3.08, 16: 1.46,
#: 64: 1.00, 256: 0.93) but shares this floor, as it forked at any
#: size before workers were counted.
PER_ROW_ROWS_PER_WORKER = 2


def bankable_service(service) -> bool:
    """Whether ``service`` can execute rows through a lockstep bank.

    Two services are bankable, each only as its exact class (a
    subclass may change what a run does).  One is BTS-APP
    (:class:`~repro.baselines.btsapp.BtsApp`), through the flood bank
    (:meth:`~repro.baselines.btsapp.BtsApp.run_bank`).  The other is
    the loopback Swiftest
    (:class:`~repro.core.variants.LoopbackSwiftest`), whose every run
    already takes the columnar
    :class:`~repro.core.sessionbank.SessionBank`, one session wide;
    banked, its rows share wide banks and skip their environments.
    Everything else takes the per-row engine: Speedtest, whose fixed
    15 s Cubic flood no bank serves yet; FAST, FastBTS and
    ``tcp-swiftest``, which stop early; and the fluid
    fitted-model client.  This is the ``auto`` case of
    :func:`executor_for`.
    """
    return executor_for(service, ExecutionMode.AUTO).run_bank is not None


@dataclass(frozen=True)
class Executor:
    """What runs a campaign's rows, and when forking pays for it.

    ``run_bank`` measures one bank of rows (``None`` for the per-row
    engine, :func:`measure_row`); ``bank_size`` is the rows per bank
    call.  ``rows_per_worker`` is the measured size below which a
    forked shard worker costs more than it saves, so
    :func:`repro.harness.parallel.run_campaign` forks at most
    ``rows left // rows_per_worker`` workers.
    """

    run_bank: Optional[Callable]
    bank_size: int
    rows_per_worker: int


def executor_for(service, mode) -> Executor:
    """The executor that runs ``service``'s rows under ``mode``.

    The one rule every campaign path reads: the row loop picks its
    executor here, :func:`bankable_service` is its ``auto`` case, and
    the driver sizes its fan-out from the executor's
    ``rows_per_worker``.  ``oracle`` always takes the per-row engine
    (one environment a row, with retries; a loopback row is then a
    one-session bank fed the environment's capacity); ``auto`` takes a
    bank when one serves the service; ``vectorized`` demands one and
    raises ``ValueError`` otherwise.
    """
    mode = ExecutionMode.coerce(mode)
    if mode is not ExecutionMode.ORACLE:
        if type(service) is BtsApp:
            return _FLOOD_BANK
        if type(service) is LoopbackSwiftest:
            return _SESSION_BANK
    if mode is ExecutionMode.VECTORIZED:
        raise ValueError(
            f"mode='vectorized' requires a bankable test "
            f"(bts-app or swiftest-loopback), got "
            f"{service.name!r}; use mode='auto' or 'oracle'"
        )
    return _PER_ROW


def iter_banked_rows(
    service,
    subset: Dataset,
    indices,
    seed: int,
    bank_size: Optional[int] = None,
):
    """Measure ``indices`` through a lockstep bank, yielding each bank's
    rows as a list of ``(index, _RowState)`` once the bank finishes.

    The batched counterpart of calling :func:`measure_row` per index
    for a :func:`bankable_service`: rows are packed ``bank_size`` at a
    time (default :data:`FLOOD_BANK_SIZE` for BTS-APP,
    :data:`BANK_SIZE` for the loopback) into one bank call, whose
    results are byte-identical to the per-row engine's (the oracle
    contract), so the caller's checkpoints and reports cannot tell the
    difference.

    * BTS-APP rows build their environments with
      :func:`~repro.harness.collection.row_environment`, so each row's
      RNG stream continues into its flood, and run through
      :meth:`~repro.baselines.btsapp.BtsApp.run_bank`.
    * A loopback bank needs one float per row, the mean access
      capacity over the probing window, and
      :func:`~repro.harness.collection.row_capacities` computes it
      without building the row's environment.

    Every row can be banked, at its first attempt: a campaign row
    carries no fault plan, its capacity is positive (the campaign
    checks its contexts; the OU floor is a share of a positive base, a
    shaped link's throttle is clamped to ``(0, base]``), and a
    fault-free BTS-APP flood always converges.

    Banks are yielded in ``indices`` order, rows in ``indices`` order
    within each; per-row results are order-free by construction.

    Metrics parity: every integer in the metrics snapshot is what
    calling :func:`measure_row` per row records (rows measured, zero
    retries, the outcome taxonomy, one ``campaign.row_wall_s``
    observation a row), but the counters are looked up once per call
    and incremented once per bank, by the bank's counts.  Each row
    observes an even share of its bank's wall time, which runs from
    before the bank's inputs (capacities or environments) are built.
    """
    executor = executor_for(service, ExecutionMode.AUTO)
    if executor.run_bank is None:
        raise ValueError(f"{type(service).__name__} cannot be banked")
    if bank_size is None:
        bank_size = executor.bank_size
    indices = list(indices)
    if not indices:
        return
    metrics = active_registry()
    measured = metrics.counter("campaign.rows_measured")
    retries = metrics.counter("campaign.retries")
    row_wall = metrics.histogram("campaign.row_wall_s")
    for start in range(0, len(indices), bank_size):
        pending = indices[start:start + bank_size]
        bandwidth, outcomes, bank_s = executor.run_bank(
            service, subset, pending, seed
        )
        measured.inc(len(pending))
        retries.inc(0)
        for value, count in Counter(o.value for o in outcomes).items():
            metrics.counter(f"campaign.outcome.{value}").inc(count)
        per_row_s = bank_s / len(pending)
        batch = []
        for index, mbps in zip(pending, bandwidth):
            row_wall.observe(per_row_s)
            batch.append(
                (index, _RowState(measured_mbps=float(mbps), attempts=1))
            )
        yield batch


def _flood_bank(service, subset: Dataset, pending, seed: int):
    """One BTS-APP bank over rows ``pending``: each row's bandwidth and
    outcome, and the seconds the bank took, environments included."""
    started = time.perf_counter()
    envs = [row_environment(subset, index, seed) for index in pending]
    results = service.run_bank(envs)
    bank_s = time.perf_counter() - started
    return (
        [result.bandwidth_mbps for result in results],
        [result.outcome for result in results],
        bank_s,
    )


def _session_bank(service, subset: Dataset, pending, seed: int):
    """One loopback bank over rows ``pending``: each row's bandwidth
    and outcome, and the seconds the bank took, capacities included.
    Only the bandwidth array outlives the call; the bank's per-tick
    sample arrays are freed before the next block's capacity pass."""
    from repro.core.sessionbank import run_session_bank

    started = time.perf_counter()
    capacities = row_capacities(subset, pending, seed, service.max_duration_s)
    bank = run_session_bank(
        service.model,
        capacities,
        server_capacity_mbps=SERVER_CAPACITY_MBPS,
        max_duration_s=service.max_duration_s,
    )
    bank_s = time.perf_counter() - started
    return (
        bank.bandwidth_mbps,
        [bank.outcome(pos) for pos in range(len(pending))],
        bank_s,
    )


_FLOOD_BANK = Executor(
    _flood_bank, FLOOD_BANK_SIZE, FLOOD_BANK_ROWS_PER_WORKER
)
_SESSION_BANK = Executor(
    _session_bank, BANK_SIZE, SESSION_BANK_ROWS_PER_WORKER
)
_PER_ROW = Executor(None, 1, PER_ROW_ROWS_PER_WORKER)


# -- shared report assembly ------------------------------------------------


def build_report(
    subset: Dataset,
    rows: Dict[int, _RowState],
    resumed_rows: int = 0,
    retries: int = 0,
    checkpoints_written: int = 0,
) -> CampaignReport:
    """Assemble the campaign report from per-row states.

    Rows are emitted in subset order regardless of the order they were
    measured in — completion order (and therefore sharding) cannot
    affect the output bytes.

    Measured home-path rows are attributed to their binding hop here —
    the single assembly point of every campaign run, so the
    ``bottleneck_attr`` column and the attribution summary are
    automatically identical across shard counts.
    """
    n = len(subset)
    measured_idx = [
        i for i in range(n)
        if i in rows and rows[i].measured_mbps is not None
    ]
    quarantined = [
        rows[i].quarantine for i in range(n)
        if i in rows and rows[i].quarantine is not None
    ]
    dataset: Optional[Dataset] = None
    attribution: Optional[Dict] = None
    if measured_idx:
        mask = np.zeros(n, dtype=bool)
        mask[measured_idx] = True
        kept = subset.filter(mask)
        columns = {
            name: np.array(kept.column(name), copy=True)
            for name in SCHEMA
        }
        columns["bandwidth_mbps"] = np.array(
            [rows[i].measured_mbps for i in measured_idx],
            dtype=np.float64,
        )
        columns["bottleneck_attr"] = attribute_rows(
            columns["bandwidth_mbps"],
            columns["plan_mbps"],
            columns["air_mbps"],
            columns["android_version"],
        )
        attribution = attribution_summary(
            columns["bottleneck_attr"], columns["bottleneck"]
        )
        dataset = Dataset(columns)
    return CampaignReport(
        dataset=dataset,
        quarantined=quarantined,
        n_rows=n,
        n_measured=len(measured_idx),
        retries=retries,
        backoff_wait_s=sum(s.backoff_wait_s for s in rows.values()),
        resumed_rows=resumed_rows,
        checkpoints_written=checkpoints_written,
        attribution=attribution,
    )


# -- shared checkpoint codec -----------------------------------------------


def campaign_fingerprint(
    subset: Dataset,
    seed: int,
    max_tests: Optional[int],
    service_name: str,
) -> Dict:
    """Identity of a campaign: a checkpoint only resumes runs over the
    exact same subset with the same seed and service."""
    ids = np.ascontiguousarray(subset.column("test_id").astype(np.int64))
    return {
        "version": CHECKPOINT_VERSION,
        "seed": int(seed),
        "max_tests": max_tests,
        "n_rows": len(subset),
        "service": service_name,
        "test_ids_crc": zlib.crc32(ids.tobytes()),
    }


def _state_to_json(state: _RowState) -> Dict:
    return {
        "measured_mbps": state.measured_mbps,
        "attempts": state.attempts,
        "backoff_wait_s": state.backoff_wait_s,
        "quarantine": (
            None if state.quarantine is None else {
                "row_index": state.quarantine.row_index,
                "test_id": state.quarantine.test_id,
                "attempts": state.quarantine.attempts,
                "outcome": state.quarantine.outcome,
                "error": state.quarantine.error,
            }
        ),
    }


def _state_from_json(entry: Dict) -> _RowState:
    quarantine = entry.get("quarantine")
    return _RowState(
        measured_mbps=entry.get("measured_mbps"),
        attempts=int(entry.get("attempts", 0)),
        backoff_wait_s=float(entry.get("backoff_wait_s", 0.0)),
        quarantine=(
            None if quarantine is None else QuarantinedRow(**quarantine)
        ),
    )


def write_checkpoint(
    path: Union[str, Path], fingerprint: Dict, rows: Dict[int, _RowState]
) -> None:
    """Atomic flush: write a sibling temp file, then rename over the
    checkpoint so a kill mid-write never corrupts it.

    The same codec serves the main checkpoint and the per-shard
    ``<path>.shard-<k>`` files — row keys are always *global* subset
    indices, which is what makes shard files mergeable into (and
    indistinguishable from) the main checkpoint.

    Writes are durable, not just atomic: the temp file is fsynced
    before the rename and the directory after it (see
    :mod:`repro.ioutil`), so a flushed checkpoint survives power loss,
    not merely a process kill.
    """
    path = Path(path)
    payload = {
        "fingerprint": fingerprint,
        "rows": {
            str(i): _state_to_json(s) for i, s in rows.items() if s.done
        },
    }
    atomic_write_json(path, payload)


def _salvage_checkpoint(text: str):
    """Parse the longest intact prefix of a damaged checkpoint.

    The checkpoint is one JSON document, so a truncated write makes
    ``json.loads`` reject the whole file even though every row before
    the cut parsed fine.  This walks the document with
    ``JSONDecoder.raw_decode`` — fingerprint first, then one
    ``"index": {state}`` pair at a time — and stops at the first
    damage, keeping everything before it.  Returns ``(fingerprint,
    rows_json)``; ``(None, {})`` when not even the fingerprint
    survived (the resume then starts fresh).
    """
    decoder = json.JSONDecoder()

    def skip_ws(pos: int) -> int:
        while pos < len(text) and text[pos] in " \t\r\n,":
            pos += 1
        return pos

    try:
        key_at = text.index('"fingerprint"')
        colon = text.index(":", key_at + len('"fingerprint"'))
        fingerprint, pos = decoder.raw_decode(text, skip_ws(colon + 1))
        if not isinstance(fingerprint, dict):
            return None, {}
    except (ValueError, IndexError):
        return None, {}
    rows: Dict[str, Dict] = {}
    try:
        rows_at = text.index('"rows"', pos)
        brace = text.index("{", rows_at + len('"rows"'))
        pos = skip_ws(brace + 1)
        while pos < len(text) and text[pos] != "}":
            key, pos = decoder.raw_decode(text, pos)
            pos = skip_ws(pos)
            if text[pos] != ":":
                break
            entry, pos = decoder.raw_decode(text, skip_ws(pos + 1))
            # Only keep a row whose state decodes fully: a torn write
            # inside the entry is caught by raw_decode above, and a
            # well-formed but nonsensical entry is caught here.
            _state_from_json(entry)
            rows[str(int(key))] = entry
            pos = skip_ws(pos)
    except (ValueError, IndexError, KeyError, TypeError):
        pass  # damage reached: keep the rows parsed so far
    return fingerprint, rows


def load_checkpoint(
    path: Union[str, Path], fingerprint: Dict, salvage: bool = False
) -> Dict[int, _RowState]:
    """Restore per-row progress; absent file means a fresh start.

    A truncated or corrupt file raises the typed
    :class:`CorruptCheckpointError`; with ``salvage=True`` the intact
    prefix is recovered instead (see :func:`_salvage_checkpoint`) and
    the damaged tail is simply re-measured — per-row determinism makes
    that safe.  A fingerprint mismatch (a checkpoint from a *different*
    campaign) is never salvaged: measuring on top of it would silently
    mix two campaigns.
    """
    path = Path(path)
    if not path.exists():
        return {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise CorruptCheckpointError(f"{path}: unreadable checkpoint ({exc})")
    try:
        payload = json.loads(text)
        stored = payload["fingerprint"]
        raw_rows = payload["rows"]
        if not isinstance(raw_rows, dict):
            raise TypeError("rows must be an object")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        if not salvage:
            raise CorruptCheckpointError(
                f"{path}: truncated or corrupt checkpoint ({exc}); "
                f"resume with --salvage to drop the damaged tail and "
                f"continue from the last good row"
            )
        stored, raw_rows = _salvage_checkpoint(text)
        if stored is None:
            return {}
    if stored != fingerprint:
        raise CheckpointError(
            f"{path}: checkpoint belongs to a different "
            f"campaign (stored {stored}, expected {fingerprint})"
        )
    rows: Dict[int, _RowState] = {}
    for key, entry in raw_rows.items():
        try:
            rows[int(key)] = _state_from_json(entry)
        except (KeyError, TypeError, ValueError) as exc:
            if not salvage:
                raise CorruptCheckpointError(
                    f"{path}: row {key!r} is corrupt ({exc}); resume "
                    f"with --salvage to drop it and re-measure"
                )
    return rows


# -- store ingest ----------------------------------------------------------


def ingest_report(
    store_path: Union[str, Path],
    manifest: Dict,
    report: CampaignReport,
    month: Optional[str] = None,
) -> str:
    """Commit a finished campaign (manifest + measured dataset) into
    the run store at ``store_path``; returns the catalog run id.

    The store's WAL commit protocol makes this safe to call at the
    very end of a run: a kill mid-ingest leaves the catalog exactly as
    it was, and rerunning the campaign re-ingests idempotently.
    """
    from repro.store import RunStore

    with RunStore.open(store_path) as store:
        return store.ingest_run(manifest, report.dataset, month=month)
