"""Out-of-core columnar dataset backend (``.npd`` directories).

The in-memory :class:`~repro.dataset.records.Dataset` caps every
analysis at what fits in RAM — a single 1M-row campaign costs about
0.8 GiB of resident memory there, and the paper's own
corpus is 23.6M rows (§2).  This module is the spill-to-disk half of
the fix: a **chunk writer** that any chunk producer (the generator's
:func:`~repro.dataset.generator.iter_campaign_chunks`, the sharded
campaign finisher, a dataset's own :meth:`iter_chunks`) can append to,
and a **memory-mapped reader** whose random access never materialises
a column.

Layout of a dataset at ``<path>.npd``::

    <path>.npd/
      _meta.json        -- n_rows, per-column dtype + sha256 + bytes
      test_id.npy       -- one standard .npy (version 1.0) per column
      bandwidth_mbps.npy
      ...

Each column file is a *plain* ``.npy``: ``np.load(f, mmap_mode="r")``
maps it zero-copy, and any numpy tool can read it.  The writer does
not know the row count (or the final string widths) until the last
chunk, so every file starts with a fixed 128-byte reserved header that
is rewritten in place at close — data always begins at byte 128.

Two read paths, with different RSS behaviour, on purpose:

* :meth:`MappedDataset.column` returns an ``np.memmap`` — lazy,
  zero-copy, but *touched pages count toward process RSS* (they are
  reclaimable, yet a full-column scan still spikes the high-water
  mark).  Right for random access and small slices.
* :meth:`MappedDataset.iter_chunks` reads each chunk with positioned
  ``read()`` + ``np.frombuffer`` — fresh small buffers, so a whole-
  dataset streaming fold keeps peak RSS at O(chunk), which is what the
  flat-RSS test in ``tests/store/test_ooc_store.py`` gates.

String columns (``object`` dtype in :data:`SCHEMA`) are stored as
fixed-width little-endian UTF-32 (``<U*``), widened in place if a
later chunk brings a longer value; readers get ``U`` arrays whose
``tolist()`` values are identical to the in-memory object columns.

Writes are atomic: everything lands in a ``.tmp``-suffixed sibling
directory that is fsynced and renamed over the destination only at
:meth:`DatasetWriter.finalize`; a crash mid-write leaves the old
dataset (if any) untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.dataset.records import SCHEMA, Dataset
from repro.ioutil import atomic_write_json, fsync_dir, fsync_rename

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "DatasetWriter",
    "MappedDataset",
    "NPD_FORMAT",
    "NPD_META",
    "NpdIntegrityError",
    "npd_file_index",
    "open_mapped",
    "read_npd_meta",
    "write_npd",
]

#: Meta file name inside a ``.npd`` directory.
NPD_META = "_meta.json"

#: Format tag in the meta file.
NPD_FORMAT = "repro-npd"

#: Current layout version.
NPD_VERSION = 1

#: Reserved bytes at the start of every column file; the final .npy
#: header is rewritten into this window at close, so data always
#: starts at this offset.
_HEADER_SPACE = 128

#: Rows per chunk for streaming reads/writes (matches the generator's
#: DEFAULT_CHUNK_SIZE so a generate -> ingest pipeline re-chunks
#: nothing).
DEFAULT_CHUNK_ROWS = 65_536

_NPY_MAGIC = b"\x93NUMPY"


class NpdIntegrityError(ValueError):
    """A mapped dataset failed its recorded checksums or layout."""


def _sha256_file(path: Union[str, Path], chunk: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _npy_header(descr: str, n_rows: int) -> bytes:
    """A version-1.0 .npy header padded to exactly ``_HEADER_SPACE``."""
    body = (
        "{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }"
        % (descr, n_rows)
    )
    space = _HEADER_SPACE - len(_NPY_MAGIC) - 2 - 2  # version + length field
    if len(body) >= space:
        raise ValueError(
            f"npy header for descr {descr!r} exceeds the reserved "
            f"{_HEADER_SPACE}-byte window"
        )
    body = body.ljust(space - 1) + "\n"
    return (
        _NPY_MAGIC
        + bytes([NPD_VERSION, 0])
        + struct.pack("<H", len(body))
        + body.encode("latin1")
    )


def _descr(dtype: np.dtype) -> str:
    return np.lib.format.dtype_to_descr(dtype)


class _ColumnWriter:
    """One column's streamed .npy file, with in-place string widening."""

    def __init__(self, directory: Path, name: str, schema_dtype) -> None:
        self.name = name
        self.path = directory / f"{name}.npy"
        self.is_string = schema_dtype is object
        self.schema_dtype = schema_dtype
        self.dtype: Optional[np.dtype] = None
        self.rows = 0
        self._handle = None

    def append(self, column: np.ndarray) -> None:
        if self.is_string:
            data = np.asarray(column)
            if data.dtype.kind != "U":  # an object column: cast per row
                data = data.astype("U")
            chunk_width = max(data.dtype.itemsize // 4, 1)
            if self.dtype is None:
                self.dtype = np.dtype(f"<U{chunk_width}")
                self._open()
            elif chunk_width > self.dtype.itemsize // 4:
                self._widen(chunk_width)
            data = np.ascontiguousarray(data.astype(self.dtype, copy=False))
        else:
            if self.dtype is None:
                self.dtype = np.dtype(self.schema_dtype)
                self._open()
            data = np.ascontiguousarray(
                np.asarray(column, dtype=self.dtype)
            )
        self._handle.write(data)  # straight from the array's buffer
        self.rows += len(data)

    def _open(self) -> None:
        self._handle = open(self.path, "wb")
        self._handle.write(b"\x00" * _HEADER_SPACE)

    def _widen(self, new_width: int) -> None:
        """Re-encode the rows already on disk at a wider string width.

        Streams block-by-block through a sibling temp file, so peak
        memory stays O(block) however many rows came before."""
        new_dtype = np.dtype(f"<U{new_width}")
        tmp = self.path.with_name(self.path.name + ".widen")
        self._handle.flush()
        block_rows = max(1, (4 << 20) // max(self.dtype.itemsize, 1))
        with open(self.path, "rb") as src, open(tmp, "wb") as dst:
            dst.write(b"\x00" * _HEADER_SPACE)
            src.seek(_HEADER_SPACE)
            remaining = self.rows
            while remaining:
                k = min(block_rows, remaining)
                block = np.frombuffer(
                    src.read(k * self.dtype.itemsize), dtype=self.dtype
                )
                dst.write(block.astype(new_dtype).tobytes())
                remaining -= k
        self._handle.close()
        os.replace(tmp, self.path)
        self.dtype = new_dtype
        self._handle = open(self.path, "r+b")
        self._handle.seek(0, os.SEEK_END)

    def close(self) -> None:
        if self.dtype is None:  # zero rows appended
            self.dtype = (
                np.dtype("<U1") if self.is_string
                else np.dtype(self.schema_dtype)
            )
            self._open()
        self._handle.seek(0)
        self._handle.write(_npy_header(_descr(self.dtype), self.rows))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None

    def abort(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class DatasetWriter:
    """Spill-to-disk chunk writer producing a ``.npd`` directory.

    Usage::

        with DatasetWriter("campaign.npd") as writer:
            for chunk in iter_campaign_chunks(config):
                writer.append(chunk)
                del chunk
        mapped = open_mapped("campaign.npd")

    ``append`` takes the same ``{column name: array}`` mappings the
    generator's chunk iterator and :meth:`Dataset.iter_chunks` yield.
    Every column is written straight from its array's buffer.  A string
    column that arrives as fixed-width ``U`` (the generator's stream,
    :meth:`MappedDataset.iter_chunks`) is stored as it is, or widened
    to the file's width; an ``object`` column (an in-memory dataset's
    chunks) is first cast with ``astype("U")``, one ``str`` at a time.
    Peak memory is O(one chunk) if the caller drops each chunk before
    producing the next; the destination appears atomically at
    :meth:`finalize` (which the context manager calls on clean exit —
    an exception aborts and removes the temp directory instead).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.parent / f"{self.path.name}.tmp{os.getpid()}"
        if self._tmp.exists():
            shutil.rmtree(self._tmp)
        self._tmp.mkdir()
        self._writers = {
            name: _ColumnWriter(self._tmp, name, dtype)
            for name, dtype in SCHEMA.items()
        }
        self.n_rows = 0
        self.meta: Optional[Dict] = None

    def append(self, chunk: Mapping[str, np.ndarray]) -> None:
        """Append one full-schema column chunk."""
        if self.meta is not None:
            raise ValueError("writer is already finalized")
        missing = set(SCHEMA) - set(chunk)
        if missing:
            raise ValueError(f"chunk missing columns: {sorted(missing)}")
        lengths = {len(chunk[name]) for name in SCHEMA}
        if len(lengths) > 1:
            raise ValueError(
                f"chunk column lengths disagree: {sorted(lengths)}"
            )
        for name in SCHEMA:
            self._writers[name].append(chunk[name])
        self.n_rows += lengths.pop() if lengths else 0

    def finalize(self) -> Path:
        """Close every column, write the meta file, and atomically
        rename the directory into place.  Returns the final path."""
        if self.meta is not None:
            return self.path
        columns: Dict[str, Dict] = {}
        for name in SCHEMA:
            writer = self._writers[name]
            writer.close()
            columns[name] = {
                "file": f"{name}.npy",
                "descr": _descr(writer.dtype),
                "sha256": _sha256_file(writer.path),
                "bytes": writer.path.stat().st_size,
            }
        meta = {
            "format": NPD_FORMAT,
            "version": NPD_VERSION,
            "n_rows": self.n_rows,
            "data_offset": _HEADER_SPACE,
            "columns": columns,
        }
        atomic_write_json(
            self._tmp / NPD_META, meta, indent=2, trailing_newline=True
        )
        fsync_dir(self._tmp)
        if self.path.exists():
            if self.path.is_dir():
                if any(self.path.iterdir()) and not (
                    self.path / NPD_META
                ).exists():
                    raise ValueError(
                        f"refusing to overwrite {self.path}: existing "
                        f"directory is not a {NPD_FORMAT} dataset"
                    )
                shutil.rmtree(self.path)
            else:
                self.path.unlink()
        fsync_rename(self._tmp, self.path)
        self.meta = meta
        return self.path

    def abort(self) -> None:
        """Discard everything written so far."""
        for writer in self._writers.values():
            writer.abort()
        if self._tmp.exists():
            shutil.rmtree(self._tmp)

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            self.abort()


def write_npd(
    path: Union[str, Path],
    chunks: Iterator[Mapping[str, np.ndarray]],
) -> Path:
    """Stream ``chunks`` into a ``.npd`` dataset at ``path``, holding
    one chunk at a time."""
    with DatasetWriter(path) as writer:
        for chunk in chunks:
            writer.append(chunk)
            del chunk
    return Path(path)


def read_npd_meta(path: Union[str, Path]) -> Dict:
    """Parse and validate a ``.npd`` directory's meta file."""
    path = Path(path)
    meta_path = path / NPD_META
    if not meta_path.is_file():
        raise NpdIntegrityError(f"{path}: no {NPD_META} (not a npd dataset)")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise NpdIntegrityError(f"{path}: unreadable {NPD_META} ({exc})")
    if meta.get("format") != NPD_FORMAT:
        raise NpdIntegrityError(
            f"{path}: format {meta.get('format')!r} != {NPD_FORMAT!r}"
        )
    if meta.get("version") != NPD_VERSION:
        raise NpdIntegrityError(
            f"{path}: unsupported version {meta.get('version')!r}"
        )
    present = set(meta.get("columns", {}))
    if present != set(SCHEMA):
        missing = set(SCHEMA) - present
        extra = present - set(SCHEMA)
        raise NpdIntegrityError(
            f"{path}: column mismatch (missing={sorted(missing)}, "
            f"extra={sorted(extra)})"
        )
    return meta


def npd_file_index(path: Union[str, Path]) -> Dict[str, Dict]:
    """``{relative name: {"sha256", "bytes"}}`` for every file of a
    finalized ``.npd`` directory (the run store's payload manifest)."""
    path = Path(path)
    meta = read_npd_meta(path)
    index = {
        NPD_META: {
            "sha256": _sha256_file(path / NPD_META),
            "bytes": (path / NPD_META).stat().st_size,
        }
    }
    for name, entry in meta["columns"].items():
        index[entry["file"]] = {
            "sha256": entry["sha256"], "bytes": entry["bytes"],
        }
    return index


class MappedDataset(Dataset):
    """A :class:`Dataset` whose columns live on disk, mapped lazily.

    Column access returns ``np.memmap`` views (``U`` dtype for the
    schema's string columns); :meth:`iter_chunks` streams fresh
    buffers so folds stay at O(chunk) RSS; selection methods
    (:meth:`filter`, :meth:`where`, :meth:`sample`) materialise their
    result as a plain in-memory :class:`Dataset` with the schema's
    ``object`` string dtype — downstream analyses see exactly what an
    in-memory load would have given them.
    """

    def __init__(self, path: Union[str, Path]):
        # Deliberately no super().__init__: there is no columns dict
        # to validate — _columns below synthesises the mapped view.
        path = Path(path)
        self._path = path
        self._meta = read_npd_meta(path)
        self._mapped: Dict[str, np.ndarray] = {}

    # -- basics --------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def meta(self) -> Dict:
        return self._meta

    def __len__(self) -> int:
        return int(self._meta["n_rows"])

    @property
    def _columns(self) -> Dict[str, np.ndarray]:
        # Inherited Dataset methods (concat, sample, records, to_npz,
        # group_counts, ...) read self._columns; give them the mapped
        # views.  Building the dict is cheap — maps are cached and a
        # memmap open touches no data pages.
        return {name: self.column(name) for name in SCHEMA}

    def _file(self, name: str) -> Path:
        return self._path / self._meta["columns"][name]["file"]

    def column(self, name: str) -> np.ndarray:
        """Lazily memory-mapped column (read-only; do not mutate)."""
        if name not in SCHEMA:
            raise KeyError(f"unknown column {name!r}; known: {sorted(SCHEMA)}")
        if name not in self._mapped:
            entry = self._meta["columns"][name]
            dtype = np.dtype(entry["descr"])
            if len(self) == 0:
                self._mapped[name] = np.empty(0, dtype=dtype)
            else:
                arr = np.load(self._file(name), mmap_mode="r")
                if arr.shape != (len(self),) or arr.dtype != dtype:
                    raise NpdIntegrityError(
                        f"{self._path}: {name} header ({arr.dtype}, "
                        f"{arr.shape}) disagrees with {NPD_META} "
                        f"({dtype}, ({len(self)},))"
                    )
                self._mapped[name] = arr
        return self._mapped[name]

    @property
    def bandwidth(self) -> np.ndarray:
        return self.column("bandwidth_mbps")

    # -- streaming reads -----------------------------------------------

    def iter_chunks(
        self,
        chunk_size: int = DEFAULT_CHUNK_ROWS,
        columns: Optional[Sequence[str]] = None,
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Stream ``{name: array}`` chunks via positioned reads.

        Unlike slicing the memmaps, each chunk is a *fresh* buffer:
        the pages of previous chunks are never resident, so a fold
        over the whole dataset peaks at O(chunk) RSS.  String columns
        come back as fixed-width ``U`` arrays.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        names = self._chunk_column_names(columns)
        n = len(self)
        if n == 0:
            return
        offset = int(self._meta["data_offset"])
        handles = {name: open(self._file(name), "rb") for name in names}
        dtypes = {
            name: np.dtype(self._meta["columns"][name]["descr"])
            for name in names
        }
        try:
            for start in range(0, n, chunk_size):
                count = min(chunk_size, n - start)
                out: Dict[str, np.ndarray] = {}
                for name in names:
                    dtype = dtypes[name]
                    handle = handles[name]
                    handle.seek(offset + start * dtype.itemsize)
                    buf = handle.read(count * dtype.itemsize)
                    if len(buf) != count * dtype.itemsize:
                        raise NpdIntegrityError(
                            f"{self._path}: {name} truncated at row {start}"
                        )
                    out[name] = np.frombuffer(buf, dtype=dtype)
                yield out
        finally:
            for handle in handles.values():
                handle.close()

    # -- materialisation -----------------------------------------------

    def to_memory(self) -> Dataset:
        """Fully materialise as a plain in-memory :class:`Dataset`
        (string columns back to ``object`` dtype, byte-identical to
        what :meth:`Dataset.from_npz` of the same rows would give)."""
        columns = {}
        for name in SCHEMA:
            loaded = np.array(self.column(name))
            columns[name] = (
                loaded.astype(object) if SCHEMA[name] is object else loaded
            )
        return Dataset(columns)

    def filter(self, mask: np.ndarray) -> Dataset:
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise ValueError(
                f"mask length {len(mask)} != dataset length {len(self)}"
            )
        columns = {}
        for name in SCHEMA:
            selected = self.column(name)[mask]
            columns[name] = (
                selected.astype(object) if SCHEMA[name] is object
                else selected
            )
        return Dataset(columns)

    # -- integrity -----------------------------------------------------

    def verify_checksums(self) -> None:
        """Stream-hash every column file against the meta's recorded
        sha256; raises :class:`NpdIntegrityError` on any drift."""
        for name in SCHEMA:
            entry = self._meta["columns"][name]
            path = self._file(name)
            if not path.is_file():
                raise NpdIntegrityError(f"{self._path}: {name} file missing")
            size = path.stat().st_size
            actual = _sha256_file(path)
            if actual != entry["sha256"] or size != entry["bytes"]:
                raise NpdIntegrityError(
                    f"{self._path}: {name} fails its checksum "
                    f"(expected {entry['sha256'][:12]} "
                    f"({entry['bytes']} B), found {actual[:12]} ({size} B))"
                )


def open_mapped(path: Union[str, Path]) -> MappedDataset:
    """Open a ``.npd`` dataset for lazy memory-mapped access."""
    return MappedDataset(path)
