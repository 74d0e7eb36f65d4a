"""The local experiment catalog: sqlite index over journaled payloads.

Layout of a store rooted at ``<root>``::

    <root>/
      journal.wal           -- the WAL (source of truth, append-only)
      catalog.sqlite        -- queryable index (replayable cache)
      payloads/<run_id>/    -- manifest.json [+ dataset.npz] per run
      payloads/.ingest-*    -- in-flight ingests (crash debris if seen)
      quarantine/<run_id>/  -- entries evicted by fsck, plus a typed
      quarantine/<run_id>.report.json      report of why

Commit protocol (the order is the whole point)::

    payload files -> fsync each -> fsync dir -> rename into place
      -> fsync payloads/ -> journal append + fsync   <- COMMIT POINT
      -> sqlite index row

A ``kill -9`` anywhere before the journal append leaves at worst an
orphaned payload directory — swept into quarantine by fsck, invisible
to every query.  A kill after the append but before the index row is
healed on the next open: :meth:`RunStore.recover` replays committed
journal records into the index.  The index itself is therefore
disposable; fsck can rebuild it from the journal alone.

Run ids are content-addressed (sha256 over the canonical manifest and
payload checksums, truncated to 12 hex chars), which makes ingest
idempotent: re-ingesting the byte-identical run — e.g. a caller
retrying after a crash — lands on the same id and is a no-op.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sqlite3
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from repro.dataset.ooc import (
    NPD_META,
    DatasetWriter,
    MappedDataset,
    npd_file_index,
    read_npd_meta,
)
from repro.dataset.records import SCHEMA, Dataset
from repro.analysis.streams import MeanStream
from repro.ioutil import fsync_dir, fsync_rename
from repro.store.errors import (
    CorruptPayloadError,
    RunNotFoundError,
    StoreError,
)
from repro.store.journal import Journal, crash_write_limit, maybe_crash

__all__ = [
    "MONTHS",
    "OOC_ROW_THRESHOLD",
    "RunRecord",
    "RunStore",
    "StoreLayout",
    "month_of",
    "sha256_bytes",
    "sha256_file",
]

#: Lowercase month labels, in calendar order — the vocabulary of
#: ``repro runs compare --months``.
MONTHS = (
    "jan", "feb", "mar", "apr", "may", "jun",
    "jul", "aug", "sep", "oct", "nov", "dec",
)

#: Prefix of in-flight ingest directories under ``payloads/``.
INGEST_TMP_PREFIX = ".ingest-"

#: Dataset payload names.  ``dataset.npz`` is the original in-memory
#: archive; ``dataset.npd`` is the out-of-core column directory whose
#: per-file checksums appear in ``files`` as ``dataset.npd/<file>``.
DATASET_NPZ = "dataset.npz"
DATASET_NPD = "dataset.npd"

#: :meth:`RunStore.ingest_run` spills in-memory datasets at or above
#: this many rows to the out-of-core ``dataset.npd`` layout (mapped
#: datasets always go there); smaller ones keep ``dataset.npz``.
OOC_ROW_THRESHOLD = 1_000_000

_INDEX_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id         TEXT PRIMARY KEY,
    kind           TEXT NOT NULL,
    created_unix_s REAL NOT NULL,
    month          TEXT NOT NULL,
    seed           INTEGER,
    label          TEXT NOT NULL DEFAULT '',
    n_rows         INTEGER,
    n_measured     INTEGER,
    mean_mbps      REAL,
    has_dataset    INTEGER NOT NULL,
    files_json     TEXT NOT NULL,
    manifest_json  TEXT NOT NULL
)
"""


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Union[str, Path], chunk: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def month_of(unix_s: float) -> str:
    """UTC month label ('aug') of a unix timestamp."""
    return MONTHS[time.gmtime(unix_s).tm_mon - 1]


@dataclass(frozen=True)
class StoreLayout:
    """Where a store's pieces live; shared with fsck."""

    root: Path

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.wal"

    @property
    def index_path(self) -> Path:
        return self.root / "catalog.sqlite"

    @property
    def payloads_dir(self) -> Path:
        return self.root / "payloads"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def payload_dir(self, run_id: str) -> Path:
        return self.payloads_dir / run_id

    def ingest_tmp_dir(self, run_id: str) -> Path:
        return self.payloads_dir / f"{INGEST_TMP_PREFIX}{run_id}"

    def quarantine_entry(self, run_id: str) -> Path:
        return self.quarantine_dir / run_id

    def quarantine_report(self, run_id: str) -> Path:
        return self.quarantine_dir / f"{run_id}.report.json"


@dataclass(frozen=True)
class RunRecord:
    """One committed run, as the index sees it."""

    run_id: str
    kind: str
    created_unix_s: float
    month: str
    seed: Optional[int]
    label: str
    n_rows: Optional[int]
    n_measured: Optional[int]
    mean_mbps: Optional[float]
    has_dataset: bool
    files: Dict[str, Dict]     #: name -> {"sha256": ..., "bytes": ...}

    @property
    def short_id(self) -> str:
        return self.run_id[:12]


def _manifest_summary(manifest: Dict) -> Dict:
    """Summary columns lifted from a manifest for the index row."""
    run = manifest.get("run", {}) if isinstance(manifest, dict) else {}
    return {
        "seed": manifest.get("seed"),
        "n_rows": run.get("n_rows"),
        "n_measured": run.get("n_measured"),
    }


class RunStore:
    """The catalog: every mutation WAL-journaled, every read indexed.

    Open with :meth:`RunStore.open` (creates the layout on first use
    and replays any journal records a crash kept out of the index).
    """

    def __init__(self, root: Union[str, Path], recover: bool = True):
        self.layout = StoreLayout(Path(root))
        self.layout.root.mkdir(parents=True, exist_ok=True)
        self.layout.payloads_dir.mkdir(exist_ok=True)
        self.layout.quarantine_dir.mkdir(exist_ok=True)
        self.journal = Journal(self.layout.journal_path)
        self._db = sqlite3.connect(str(self.layout.index_path))
        self._db.execute(_INDEX_SCHEMA)
        self._db.commit()
        if recover:
            self.recover()

    @classmethod
    def open(cls, root: Union[str, Path]) -> "RunStore":
        return cls(root)

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recovery ------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Light crash recovery on open: truncate a torn journal tail
        and replay committed records missing from the index.

        Orphan payloads, checksum drift and journal-body corruption
        are *detected and repaired by fsck*, not here — open must stay
        cheap and must never destroy evidence fsck could report on.
        """
        scan = self.journal.scan()
        stats = {"torn_tail_bytes": 0, "replayed": 0}
        if scan.torn_tail_at is not None:
            stats["torn_tail_bytes"] = self.journal.truncate_torn_tail(scan)
        indexed = {
            row[0] for row in self._db.execute("SELECT run_id FROM runs")
        }
        quarantined = {
            r.run_id for r in scan.records if r.op == "quarantine"
        }
        for run_id, record in scan.committed().items():
            if run_id in indexed:
                continue
            if not self.layout.payload_dir(run_id).is_dir():
                continue  # missing payload: fsck's problem, not ours
            self._apply_commit(record.fields)
            stats["replayed"] += 1
        # Quarantine ops must also be reflected (a crash between the
        # journal append and the index delete is the mirror case).
        for run_id in quarantined:
            if run_id in indexed and run_id not in scan.committed():
                self._db.execute(
                    "DELETE FROM runs WHERE run_id = ?", (run_id,)
                )
        self._db.commit()
        return stats

    # -- ingest --------------------------------------------------------

    def ingest_run(
        self,
        manifest: Dict,
        dataset: Optional[Dataset] = None,
        label: str = "",
        month: Optional[str] = None,
    ) -> str:
        """Commit one run (manifest + optional measured dataset).

        Returns the content-addressed run id.  Idempotent: ingesting
        identical content again is a no-op returning the same id.
        ``month`` overrides the label derived from the manifest's
        ``created_unix_s`` (the longitudinal view groups by it).

        The dataset decides its payload format.  A mapped dataset, or
        one of at least :data:`OOC_ROW_THRESHOLD` rows, streams to an
        out-of-core ``dataset.npd`` column directory at O(chunk) memory
        (through :meth:`ingest_chunks`); anything else is buffered in
        memory as ``dataset.npz``.
        """
        if not isinstance(manifest, dict):
            raise StoreError("manifest must be a dict")
        if month is not None and month not in MONTHS:
            raise StoreError(
                f"month must be one of {MONTHS}, got {month!r}"
            )
        if dataset is not None and (
            isinstance(dataset, MappedDataset)
            or len(dataset) >= OOC_ROW_THRESHOLD
        ):
            return self.ingest_chunks(
                manifest, dataset.iter_chunks(), label=label, month=month
            )

        manifest_bytes = json.dumps(
            manifest, indent=2, sort_keys=True
        ).encode("utf-8")
        files: Dict[str, Dict] = {
            "manifest.json": {
                "sha256": sha256_bytes(manifest_bytes),
                "bytes": len(manifest_bytes),
            }
        }
        blobs: Dict[str, bytes] = {"manifest.json": manifest_bytes}
        if dataset is not None:
            buffer = io.BytesIO()
            dataset.to_npz(buffer)
            npz = buffer.getvalue()
            files[DATASET_NPZ] = {
                "sha256": sha256_bytes(npz), "bytes": len(npz),
            }
            blobs[DATASET_NPZ] = npz

        kind = str(manifest.get("kind", "run"))
        identity = json.dumps(
            [kind, files, label], separators=(",", ":"), sort_keys=True
        )
        run_id = sha256_bytes(identity.encode("utf-8"))[:12]

        committed = self.journal.scan().committed()
        if run_id in committed:
            # Already durable (possibly from a crashed caller retrying)
            # — just make sure the index caught up.
            self.recover()
            return run_id

        created = float(manifest.get("created_unix_s") or time.time())
        month = month or month_of(created)
        summary = _manifest_summary(manifest)
        mean_mbps = _dataset_mean(dataset)

        maybe_crash("store.before_payload")
        tmp_dir = self.layout.ingest_tmp_dir(run_id)
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)
        for name, data in sorted(blobs.items()):
            self._write_payload_file(tmp_dir / name, data)
        fsync_dir(tmp_dir)
        maybe_crash("store.after_payload_tmp")
        final_dir = self.layout.payload_dir(run_id)
        if final_dir.exists():  # stale orphan from an earlier crash
            shutil.rmtree(final_dir)
        fsync_rename(tmp_dir, final_dir)
        maybe_crash("store.after_payload_rename")

        record = self.journal.append(
            "commit",
            run_id=run_id,
            kind=kind,
            created_unix_s=created,
            month=month,
            seed=summary["seed"],
            label=label,
            n_rows=summary["n_rows"],
            n_measured=summary["n_measured"],
            mean_mbps=mean_mbps,
            files=files,
        )
        maybe_crash("store.after_journal_append")
        self._apply_commit(record)
        self._db.commit()
        maybe_crash("store.after_index_apply")
        return run_id

    def ingest_chunks(
        self,
        manifest: Dict,
        chunks: Iterable[Mapping[str, "np.ndarray"]],
        label: str = "",
        month: Optional[str] = None,
    ) -> str:
        """Commit one run whose dataset arrives as column chunks.

        The out-of-core ingest path: chunks (e.g. straight from
        ``iter_campaign_chunks``) stream through a
        :class:`~repro.dataset.ooc.DatasetWriter` into a
        ``dataset.npd`` payload without the dataset ever being
        resident — peak memory is O(chunk) regardless of row count.
        Same commit protocol, idempotency, and crash points as
        :meth:`ingest_run`; the ``files`` map carries one
        checksummed entry per column file (``dataset.npd/<file>``).
        """
        if not isinstance(manifest, dict):
            raise StoreError("manifest must be a dict")
        if month is not None and month not in MONTHS:
            raise StoreError(
                f"month must be one of {MONTHS}, got {month!r}"
            )
        manifest_bytes = json.dumps(
            manifest, indent=2, sort_keys=True
        ).encode("utf-8")
        kind = str(manifest.get("kind", "run"))

        # The run id is content-addressed, so it cannot be known until
        # the chunks have streamed through; stage under a pid-scoped
        # .ingest-* name (fsck sweeps those on crash) and rename once
        # the id is in hand.
        maybe_crash("store.before_payload")
        stage = self.layout.payloads_dir / (
            f"{INGEST_TMP_PREFIX}stage-{os.getpid()}"
        )
        if stage.exists():
            shutil.rmtree(stage)
        stage.mkdir(parents=True)
        try:
            self._write_payload_file(stage / "manifest.json", manifest_bytes)
            mean = MeanStream()
            with DatasetWriter(stage / DATASET_NPD) as writer:
                for chunk in chunks:
                    writer.append(chunk)
                    mean.update(chunk["bandwidth_mbps"])
                    del chunk  # before the next chunk is produced
            files: Dict[str, Dict] = {
                "manifest.json": {
                    "sha256": sha256_bytes(manifest_bytes),
                    "bytes": len(manifest_bytes),
                }
            }
            for name, entry in sorted(
                npd_file_index(stage / DATASET_NPD).items()
            ):
                files[f"{DATASET_NPD}/{name}"] = entry
            fsync_dir(stage)
            maybe_crash("store.after_payload_tmp")

            identity = json.dumps(
                [kind, files, label], separators=(",", ":"), sort_keys=True
            )
            run_id = sha256_bytes(identity.encode("utf-8"))[:12]
            committed = self.journal.scan().committed()
            if run_id in committed:
                shutil.rmtree(stage)
                self.recover()
                return run_id
            final_dir = self.layout.payload_dir(run_id)
            if final_dir.exists():  # stale orphan from an earlier crash
                shutil.rmtree(final_dir)
            fsync_rename(stage, final_dir)
        except BaseException:
            if stage.exists():
                shutil.rmtree(stage, ignore_errors=True)
            raise
        maybe_crash("store.after_payload_rename")

        created = float(manifest.get("created_unix_s") or time.time())
        month = month or month_of(created)
        summary = _manifest_summary(manifest)
        n_rows = summary["n_rows"]
        if n_rows is None:
            n_rows = writer.n_rows
        record = self.journal.append(
            "commit",
            run_id=run_id,
            kind=kind,
            created_unix_s=created,
            month=month,
            seed=summary["seed"],
            label=label,
            n_rows=n_rows,
            n_measured=summary["n_measured"],
            mean_mbps=(
                round(mean.result(), 6) if mean.count else None
            ),
            files=files,
        )
        maybe_crash("store.after_journal_append")
        self._apply_commit(record)
        self._db.commit()
        maybe_crash("store.after_index_apply")
        return run_id

    def _write_payload_file(self, path: Path, data: bytes) -> None:
        """Write one payload file, fsynced; honours the
        ``mid_payload_write`` crash point by stopping after
        ``REPRO_STORE_CRASH_BYTES`` bytes of the largest file."""
        limit = None
        if os.environ.get("REPRO_STORE_CRASH_POINT") == "store.mid_payload_write":
            limit = crash_write_limit()
            if limit is None:
                limit = len(data) // 2
        with open(path, "wb") as handle:
            if limit is not None:
                handle.write(data[:limit])
                handle.flush()
                os.fsync(handle.fileno())
                maybe_crash("store.mid_payload_write")
            handle.write(data if limit is None else data[limit:])
            handle.flush()
            os.fsync(handle.fileno())

    def _apply_commit(self, record: Dict) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO runs (run_id, kind, created_unix_s, "
            "month, seed, label, n_rows, n_measured, mean_mbps, "
            "has_dataset, files_json, manifest_json) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record["run_id"],
                record["kind"],
                record["created_unix_s"],
                record["month"],
                record.get("seed"),
                record.get("label", ""),
                record.get("n_rows"),
                record.get("n_measured"),
                record.get("mean_mbps"),
                int(_has_dataset_files(record.get("files", {}))),
                json.dumps(record.get("files", {}), sort_keys=True),
                self._stored_manifest_text(record["run_id"]),
            ),
        )

    def _stored_manifest_text(self, run_id: str) -> str:
        path = self.layout.payload_dir(run_id) / "manifest.json"
        try:
            return path.read_text()
        except OSError:
            return "{}"

    # -- queries -------------------------------------------------------

    def list_runs(
        self,
        kind: Optional[str] = None,
        month: Optional[str] = None,
    ) -> List[RunRecord]:
        """Committed runs, newest first."""
        query = (
            "SELECT run_id, kind, created_unix_s, month, seed, label, "
            "n_rows, n_measured, mean_mbps, has_dataset, files_json "
            "FROM runs"
        )
        conditions, params = [], []
        if kind is not None:
            conditions.append("kind = ?")
            params.append(kind)
        if month is not None:
            conditions.append("month = ?")
            params.append(month)
        if conditions:
            query += " WHERE " + " AND ".join(conditions)
        query += " ORDER BY created_unix_s DESC, run_id"
        return [
            self._row_to_record(row)
            for row in self._db.execute(query, params)
        ]

    @staticmethod
    def _row_to_record(row) -> RunRecord:
        return RunRecord(
            run_id=row[0],
            kind=row[1],
            created_unix_s=row[2],
            month=row[3],
            seed=row[4],
            label=row[5],
            n_rows=row[6],
            n_measured=row[7],
            mean_mbps=row[8],
            has_dataset=bool(row[9]),
            files=json.loads(row[10]),
        )

    def get_run(self, run_id: str) -> RunRecord:
        """Look a run up by id or unambiguous id prefix."""
        rows = list(self._db.execute(
            "SELECT run_id, kind, created_unix_s, month, seed, label, "
            "n_rows, n_measured, mean_mbps, has_dataset, files_json "
            "FROM runs WHERE run_id = ? OR run_id LIKE ?",
            (run_id, run_id + "%"),
        ))
        if not rows:
            raise RunNotFoundError(f"no run matches {run_id!r}")
        if len(rows) > 1:
            ids = ", ".join(sorted(row[0] for row in rows))
            raise RunNotFoundError(
                f"{run_id!r} is ambiguous (matches {ids})"
            )
        return self._row_to_record(rows[0])

    def load_manifest(self, run_id: str) -> Dict:
        """The manifest payload of a run, checksum-verified."""
        record = self.get_run(run_id)
        data = self._verified_payload(record, "manifest.json")
        return json.loads(data.decode("utf-8"))

    def load_dataset(self, run_id: str) -> Dataset:
        """The measured dataset of a run, checksum-verified.

        npz payloads load fully into memory (as before); npd payloads
        come back as a :class:`~repro.dataset.ooc.MappedDataset` —
        every column file is checksum-verified (streamed, not
        materialised), then mapped lazily.
        """
        record = self.get_run(run_id)
        if not record.has_dataset:
            raise StoreError(f"run {record.short_id} has no dataset payload")
        if DATASET_NPZ in record.files:
            self._verified_payload(record, DATASET_NPZ, read=False)
            return Dataset.from_npz(
                self.layout.payload_dir(record.run_id) / DATASET_NPZ
            )
        for name in self._npd_members(record):
            self._verified_payload(record, name, read=False)
        return Dataset.open_mapped(
            self.layout.payload_dir(record.run_id) / DATASET_NPD
        )

    @staticmethod
    def _npd_members(record: RunRecord) -> List[str]:
        return sorted(
            name for name in record.files
            if name.startswith(DATASET_NPD + "/")
        )

    def dataset_schema(self, run_id: str) -> Dict:
        """Row count and column dtypes from the payload headers alone.

        Reads the npd meta file or the npz member headers — never a
        column's data — so ``repro runs show`` stays O(1) however
        large the dataset is.  Returns ``{"layout", "n_rows",
        "columns": {name: dtype descr}}``.
        """
        record = self.get_run(run_id)
        if not record.has_dataset:
            raise StoreError(f"run {record.short_id} has no dataset payload")
        payload_dir = self.layout.payload_dir(record.run_id)
        if DATASET_NPZ in record.files:
            path = payload_dir / DATASET_NPZ
            if not path.exists():
                raise CorruptPayloadError(
                    f"run {record.short_id}: {DATASET_NPZ} is missing on "
                    f"disk; run `repro store fsck --repair`"
                )
            columns: Dict[str, str] = {}
            n_rows = None
            try:
                with zipfile.ZipFile(path) as archive:
                    for member in sorted(archive.namelist()):
                        with archive.open(member) as handle:
                            version = np.lib.format.read_magic(handle)
                            if version == (1, 0):
                                header = np.lib.format.read_array_header_1_0
                            elif version == (2, 0):
                                header = np.lib.format.read_array_header_2_0
                            else:
                                raise ValueError(
                                    f"unsupported npy version {version} "
                                    f"in member {member!r}"
                                )
                            shape, _, dtype = header(handle)
                        name = member[:-4] if member.endswith(".npy") else member
                        columns[name] = np.lib.format.dtype_to_descr(dtype)
                        if n_rows is None and shape:
                            n_rows = int(shape[0])
            except (zipfile.BadZipFile, ValueError, OSError) as exc:
                raise CorruptPayloadError(
                    f"run {record.short_id}: {DATASET_NPZ} headers are "
                    f"unreadable ({exc}); run `repro store fsck --repair`"
                )
            return {
                "layout": "npz",
                "n_rows": n_rows or 0,
                "columns": columns,
            }
        meta_name = f"{DATASET_NPD}/{NPD_META}"
        self._verified_payload(record, meta_name, read=False)
        meta = read_npd_meta(payload_dir / DATASET_NPD)
        return {
            "layout": "npd",
            "n_rows": int(meta["n_rows"]),
            "columns": {
                name: entry["descr"]
                for name, entry in sorted(meta["columns"].items())
            },
        }

    def load_columns(
        self, run_id: str, names: List[str]
    ) -> Dict[str, "np.ndarray"]:
        """Load only the named columns of a run's dataset.

        For npd payloads this verifies and maps just the requested
        column files; npz payloads (single-archive) are verified whole
        but only the requested members are decoded.
        """
        unknown = sorted(set(names) - set(SCHEMA))
        if unknown:
            raise StoreError(
                f"unknown columns {unknown}; known: {sorted(SCHEMA)}"
            )
        record = self.get_run(run_id)
        if not record.has_dataset:
            raise StoreError(f"run {record.short_id} has no dataset payload")
        payload_dir = self.layout.payload_dir(record.run_id)
        if DATASET_NPZ in record.files:
            self._verified_payload(record, DATASET_NPZ, read=False)
            with np.load(
                payload_dir / DATASET_NPZ, allow_pickle=False
            ) as archive:
                return {name: archive[name] for name in names}
        meta = read_npd_meta(payload_dir / DATASET_NPD)
        out: Dict[str, np.ndarray] = {}
        self._verified_payload(
            record, f"{DATASET_NPD}/{NPD_META}", read=False
        )
        mapped = Dataset.open_mapped(payload_dir / DATASET_NPD)
        for name in names:
            self._verified_payload(
                record, f"{DATASET_NPD}/{meta['columns'][name]['file']}",
                read=False,
            )
            out[name] = mapped.column(name)
        return out

    def _verified_payload(
        self, record: RunRecord, name: str, read: bool = True
    ) -> Optional[bytes]:
        expected = record.files.get(name)
        path = self.layout.payload_dir(record.run_id) / name
        if expected is None:
            raise StoreError(f"run {record.short_id} has no {name}")
        if not path.exists():
            raise CorruptPayloadError(
                f"run {record.short_id}: {name} is missing on disk; "
                f"run `repro store fsck --repair`"
            )
        actual = sha256_file(path)
        if actual != expected["sha256"]:
            raise CorruptPayloadError(
                f"run {record.short_id}: {name} fails its commit-time "
                f"checksum (expected {expected['sha256'][:12]}, found "
                f"{actual[:12]}); run `repro store fsck --repair`"
            )
        return path.read_bytes() if read else None

    # -- comparisons ---------------------------------------------------

    def diff_runs(self, run_a: str, run_b: str) -> Dict[str, Dict]:
        """Field-level differences between two runs' records and
        manifests (summary stats, seed, config, outcome counts)."""
        a, b = self.get_run(run_a), self.get_run(run_b)
        man_a, man_b = self.load_manifest(a.run_id), self.load_manifest(b.run_id)
        diff: Dict[str, Dict] = {}

        def note(field: str, va, vb) -> None:
            if va != vb:
                diff[field] = {"a": va, "b": vb}

        note("kind", a.kind, b.kind)
        note("month", a.month, b.month)
        note("seed", a.seed, b.seed)
        note("n_rows", a.n_rows, b.n_rows)
        note("n_measured", a.n_measured, b.n_measured)
        note("mean_mbps", a.mean_mbps, b.mean_mbps)
        note(
            "config.test",
            man_a.get("config", {}).get("test"),
            man_b.get("config", {}).get("test"),
        )
        out_a = man_a.get("outcomes", {})
        out_b = man_b.get("outcomes", {})
        for key in sorted(set(out_a) | set(out_b)):
            note(f"outcomes.{key}", out_a.get(key, 0), out_b.get(key, 0))
        return diff


def _has_dataset_files(files: Dict[str, Dict]) -> bool:
    """A run has a dataset if it carries the npz archive or any file
    of the out-of-core column directory."""
    return DATASET_NPZ in files or any(
        name.startswith(DATASET_NPD + "/") for name in files
    )


def _dataset_mean(dataset: Optional[Dataset]) -> Optional[float]:
    if dataset is None or len(dataset) == 0:
        return None
    return round(float(dataset.mean_bandwidth()), 6)
