"""Columnar test-record storage.

A measurement campaign produces hundreds of thousands of records; a
columnar layout over numpy arrays keeps filtering and aggregation fast
while exposing a record-oriented view for readability in tests and
examples.  The schema mirrors what the paper's data-collection plugin
records (§2): the test result plus PHY/MAC context.  Datasets
round-trip through CSV (:meth:`Dataset.to_csv` /
:meth:`Dataset.from_csv`) for interoperability and through NPZ
(:meth:`Dataset.to_npz` / :meth:`Dataset.from_npz`) for paper-scale
campaigns — the columnar binary format loads millions of rows in well
under a second, where CSV parsing alone takes tens of seconds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

#: Column names and their numpy dtypes.  String columns use object
#: arrays (band names, tech names are short and low-cardinality).
SCHEMA: Dict[str, object] = {
    "test_id": np.int64,
    "user_id": np.int64,
    "year": np.int16,
    "hour": np.int8,
    "tech": object,            # '3G' | '4G' | '5G' | 'WiFi4' | 'WiFi5' | 'WiFi6'
    "isp": np.int8,            # 1..4
    "city_id": np.int32,
    "city_tier": object,       # 'mega' | 'medium' | 'small'
    "urban": bool,
    "dense_urban": bool,
    "band": object,            # 'B3', 'N78', '2.4GHz', '5GHz', ...
    "channel_mhz": np.float64,
    "rss_level": np.int8,      # 1..5 cellular and home-path WiFi; else 0
    "rsrp_dbm": np.float64,    # NaN for WiFi
    "snr_db": np.float64,      # NaN for WiFi
    "android_version": np.int8,
    "vendor": object,
    "device_model": object,
    "plan_mbps": np.int32,     # fixed broadband plan; 0 for cellular
    "cell_load": np.float64,
    "lte_advanced": bool,
    "sleeping": bool,
    "bandwidth_mbps": np.float64,
    "air_mbps": np.float64,       # effective WiFi air-link rate; 0 for cellular
    "wire_mbps": np.float64,      # delivered broadband rate; 0 for cellular
    "xtraffic_mbps": np.float64,  # LAN competitor demand on the air hop
    "bottleneck": np.int8,        # ground-truth binding hop; see wifi.homepath
    "bottleneck_attr": np.int8,   # Swiftest-attributed hop; 0 = unattributed
}


class GroupReduceStream:
    """Per-group count and mean as a fold over row chunks.

    >>> stream = GroupReduceStream()
    >>> for chunk in dataset.iter_chunks():            # doctest: +SKIP
    ...     stream.update(chunk["hour"], chunk["bandwidth_mbps"])
    >>> keys, means, counts = stream.result()          # doctest: +SKIP

    Each group's sum accumulates through an unbuffered ``np.add.at``
    onto a persistent accumulator — sequentially, in row order — so
    ``result()`` is bit-identical for any chunk partition of the same
    row sequence, one whole-dataset chunk included.  (Per-chunk
    partial sums combined at the end would not be: float addition is
    not associative.)  Every per-group mean in the package is this
    fold: :meth:`Dataset.group_mean_bandwidth`, the hourly profile and
    the longitudinal matched groups.
    """

    def __init__(self) -> None:
        self._slots: Dict = {}
        self._sums = np.zeros(64, dtype=np.float64)
        self._counts = np.zeros(64, dtype=np.int64)

    def _slot(self, key) -> int:
        slot = self._slots.get(key)
        if slot is None:
            slot = len(self._slots)
            self._slots[key] = slot
        return slot

    def _grow(self) -> None:
        needed = len(self._slots)
        if needed <= len(self._sums):
            return
        size = len(self._sums)
        while size < needed:
            size *= 2
        sums = np.zeros(size, dtype=np.float64)
        counts = np.zeros(size, dtype=np.int64)
        sums[: len(self._sums)] = self._sums
        counts[: len(self._counts)] = self._counts
        self._sums, self._counts = sums, counts

    def update(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Fold one chunk of (key, value) rows."""
        keys = np.asarray(keys)
        values = np.asarray(values, dtype=np.float64)
        if len(keys) != len(values):
            raise ValueError(
                f"keys length {len(keys)} != values length {len(values)}"
            )
        if len(keys) == 0:
            return
        unique, inverse = np.unique(keys, return_inverse=True)
        slots = np.fromiter(
            (self._slot(k) for k in unique.tolist()),
            dtype=np.intp,
            count=len(unique),
        )
        self._grow()
        rows = slots[inverse.reshape(-1)]
        np.add.at(self._sums, rows, values)
        np.add.at(self._counts, rows, 1)

    def update_pairs(
        self,
        first: np.ndarray,
        second: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Fold one chunk keyed by ``(first, second)`` tuples — the
        (ISP, city-tier) factorisation of the longitudinal analysis."""
        first = np.asarray(first)
        second = np.asarray(second)
        values = np.asarray(values, dtype=np.float64)
        if not (len(first) == len(second) == len(values)):
            raise ValueError(
                f"column lengths disagree: {len(first)}, {len(second)}, "
                f"{len(values)}"
            )
        if len(values) == 0:
            return
        ua, ia = np.unique(first, return_inverse=True)
        ub, ib = np.unique(second, return_inverse=True)
        nb = len(ub)
        codes = ia.reshape(-1) * nb + ib.reshape(-1)
        code_vals, code_inv = np.unique(codes, return_inverse=True)
        la, lb = ua.tolist(), ub.tolist()
        slots = np.fromiter(
            (
                self._slot((la[c // nb], lb[c % nb]))
                for c in code_vals.tolist()
            ),
            dtype=np.intp,
            count=len(code_vals),
        )
        self._grow()
        rows = slots[code_inv.reshape(-1)]
        np.add.at(self._sums, rows, values)
        np.add.at(self._counts, rows, 1)

    def result(self) -> Tuple[List, np.ndarray, np.ndarray]:
        """``(sorted keys, means, counts)``, with keys as a python
        list."""
        if not self._slots:
            return [], np.empty(0), np.empty(0, dtype=np.int64)
        keys = sorted(self._slots)
        idx = np.fromiter(
            (self._slots[k] for k in keys), dtype=np.intp, count=len(keys)
        )
        sums = self._sums[idx]
        counts = self._counts[idx]
        return keys, sums / counts, counts.copy()

    def result_dict(self) -> Dict:
        """``{key: (mean, count)}`` with python floats/ints."""
        keys, means, counts = self.result()
        return {
            key: (float(mean), int(count))
            for key, mean, count in zip(keys, means.tolist(), counts.tolist())
        }



@dataclass(frozen=True)
class TestRecord:
    """Row-oriented view of a single test, for readability."""

    #: Not a pytest test class despite the name.
    __test__ = False

    test_id: int
    user_id: int
    year: int
    hour: int
    tech: str
    isp: int
    city_id: int
    city_tier: str
    urban: bool
    dense_urban: bool
    band: str
    channel_mhz: float
    rss_level: int
    rsrp_dbm: float
    snr_db: float
    android_version: int
    vendor: str
    device_model: str
    plan_mbps: int
    cell_load: float
    lte_advanced: bool
    sleeping: bool
    bandwidth_mbps: float
    # Home-path columns (PR 10); default so pre-existing row literals
    # and fixtures stay valid.
    air_mbps: float = 0.0
    wire_mbps: float = 0.0
    xtraffic_mbps: float = 0.0
    bottleneck: int = 0
    bottleneck_attr: int = 0


class Dataset:
    """An immutable columnar collection of test records."""

    def __init__(self, columns: Mapping[str, np.ndarray]):
        missing = set(SCHEMA) - set(columns)
        if missing:
            raise ValueError(f"missing columns: {sorted(missing)}")
        extra = set(columns) - set(SCHEMA)
        if extra:
            raise ValueError(f"unknown columns: {sorted(extra)}")
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"column lengths disagree: {lengths}")
        self._columns = {
            name: np.asarray(columns[name]) for name in SCHEMA
        }

    # -- basics --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns["test_id"])

    def column(self, name: str) -> np.ndarray:
        """Raw column array (do not mutate)."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"unknown column {name!r}; known: {sorted(SCHEMA)}")

    @property
    def bandwidth(self) -> np.ndarray:
        """Shorthand for the bandwidth column, the most-used one."""
        return self._columns["bandwidth_mbps"]

    # -- selection -----------------------------------------------------

    def filter(self, mask: np.ndarray) -> "Dataset":
        """New dataset with rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise ValueError(
                f"mask length {len(mask)} != dataset length {len(self)}"
            )
        return Dataset({name: col[mask] for name, col in self._columns.items()})

    def where(self, **equals) -> "Dataset":
        """Rows matching all column==value conditions.

        >>> ds.where(tech="5G", isp=3)          # doctest: +SKIP
        """
        mask = np.ones(len(self), dtype=bool)
        for name, value in equals.items():
            mask &= self.column(name) == value
        return self.filter(mask)

    def sample(self, n: int, rng: np.random.Generator) -> "Dataset":
        """Uniform random subsample without replacement."""
        if n > len(self):
            raise ValueError(f"cannot sample {n} of {len(self)} rows")
        idx = rng.choice(len(self), size=n, replace=False)
        return Dataset({name: col[idx] for name, col in self._columns.items()})

    def concat(self, other: "Dataset") -> "Dataset":
        """Row-wise concatenation of two datasets."""
        return Dataset(
            {
                name: np.concatenate([col, other.column(name)])
                for name, col in self._columns.items()
            }
        )

    # -- streaming view ------------------------------------------------

    def _chunk_column_names(self, columns) -> List[str]:
        if columns is None:
            return list(SCHEMA)
        names = list(columns)
        unknown = set(names) - set(SCHEMA)
        if unknown:
            raise KeyError(
                f"unknown columns {sorted(unknown)}; known: {sorted(SCHEMA)}"
            )
        return names

    def iter_chunks(
        self,
        chunk_size: int = 65_536,
        columns=None,
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Yield ``{column name: array}`` chunks of at most
        ``chunk_size`` rows, in row order.

        This is the producer side of the streaming-fold contract: any
        kernel written as a left fold over these chunks (see
        :mod:`repro.analysis.streams`) sees the same values in the
        same order as a whole-array pass.  ``columns`` restricts the
        yielded mapping (the mapped backend then reads only those
        files).  For the in-memory dataset chunks are slice views —
        no copies.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        names = self._chunk_column_names(columns)
        n = len(self)
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            yield {
                name: self._columns[name][start:stop] for name in names
            }

    def to_memory(self) -> "Dataset":
        """This dataset with all columns resident in memory (identity
        for the in-memory class; materialises mapped datasets)."""
        return self

    @staticmethod
    def from_chunks(chunks: List[Mapping[str, np.ndarray]]) -> "Dataset":
        """Assemble a dataset from column chunks.

        Each chunk is a full ``{column name: array}`` mapping; columns
        are joined with one ``np.concatenate`` per column — a
        single-chunk input is adopted without copying.  String columns
        keep the chunks' dtype: ``generate_campaign`` passes the
        schema's ``object`` arrays, while chunks from
        ``iter_campaign_chunks`` or :meth:`MappedDataset.iter_chunks
        <repro.dataset.ooc.MappedDataset.iter_chunks>` carry fixed-width
        ``U`` arrays, which concatenate to the widest chunk's width
        (``astype(object)`` gives the schema's dtype back).
        """
        if not chunks:
            raise ValueError("cannot build a dataset from zero chunks")
        if len(chunks) == 1:
            return Dataset(chunks[0])
        return Dataset(
            {
                name: np.concatenate([chunk[name] for chunk in chunks])
                for name in SCHEMA
            }
        )

    # -- aggregation ---------------------------------------------------

    def mean_bandwidth(self) -> float:
        """Average bandwidth over all rows (NaN-safe, empty → NaN)."""
        if len(self) == 0:
            return float("nan")
        return float(np.mean(self.bandwidth))

    def median_bandwidth(self) -> float:
        """Median bandwidth over all rows (empty → NaN)."""
        if len(self) == 0:
            return float("nan")
        return float(np.median(self.bandwidth))

    def group_mean_bandwidth(self, key: str) -> Dict:
        """``{group value: mean bandwidth}`` over a grouping column."""
        stream = GroupReduceStream()
        for chunk in self.iter_chunks(columns=[key, "bandwidth_mbps"]):
            stream.update(chunk[key], chunk["bandwidth_mbps"])
        keys, means, _ = stream.result()
        return dict(zip(keys, means.tolist()))

    def group_counts(self, key: str) -> Dict:
        """``{group value: row count}`` over a grouping column."""
        column = self.column(key)
        values, counts = np.unique(column, return_counts=True)
        return {v: int(c) for v, c in zip(values.tolist(), counts.tolist())}

    # -- record view ---------------------------------------------------

    def records(self, limit: Optional[int] = None) -> Iterator[TestRecord]:
        """Iterate rows as :class:`TestRecord` objects."""
        n = len(self) if limit is None else min(limit, len(self))
        names = list(SCHEMA)
        for i in range(n):
            yield TestRecord(**{name: self._columns[name][i] for name in names})

    @staticmethod
    def from_records(records: List[TestRecord]) -> "Dataset":
        """Build a dataset from row objects (mostly for tests)."""
        if not records:
            raise ValueError("cannot build a dataset from zero records")
        columns = {
            name: np.array(
                [getattr(r, name) for r in records], dtype=SCHEMA[name]
            )
            for name in SCHEMA
        }
        return Dataset(columns)

    # -- persistence -----------------------------------------------------

    def to_csv(
        self, path: Union[str, Path], chunk_size: int = 65_536
    ) -> None:
        """Write the dataset to a CSV file with a header row.

        Streams :meth:`iter_chunks`-sized blocks: each chunk is
        formatted with one vectorized ``astype('U')`` pass per column
        (elementwise ``str()``, so the bytes are identical to the old
        whole-column pass and to per-cell formatting) and appended
        with ``writerows``.  Peak memory is O(chunk), which is what
        lets a memory-mapped 10M-row dataset export without
        materialising — the old implementation held every column's
        full string copy at once.
        """
        names = list(SCHEMA)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            for chunk in self.iter_chunks(chunk_size=chunk_size):
                cells = [chunk[name].astype("U").tolist() for name in names]
                writer.writerows(zip(*cells))

    @staticmethod
    def from_csv(path: Union[str, Path]) -> "Dataset":
        """Read a dataset previously written by :meth:`to_csv`.

        Raises :class:`ValueError` on a missing/extra column or an
        empty file.
        """
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty CSV")
            rows = list(reader)
        if set(header) != set(SCHEMA):
            missing = set(SCHEMA) - set(header)
            extra = set(header) - set(SCHEMA)
            raise ValueError(
                f"{path}: column mismatch (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        if not rows:
            raise ValueError(f"{path}: no data rows")
        index = {name: header.index(name) for name in SCHEMA}
        raw_columns = list(zip(*rows))
        columns = {}
        for name, dtype in SCHEMA.items():
            raw = raw_columns[index[name]]
            columns[name] = _parse_csv_column(raw, dtype)
        return Dataset(columns)

    def to_npz(self, path, compress: bool = False) -> None:
        """Write the dataset as a columnar ``.npz`` archive.

        String columns are stored as fixed-width unicode (no pickling,
        so archives are portable and safe to load).  ``compress=True``
        trades write speed for roughly 3-4x smaller files.  ``path``
        may also be an open binary file object (the run store streams
        archives through checksumming writers).
        """
        arrays = {
            name: col.astype("U") if SCHEMA[name] is object else col
            for name, col in self._columns.items()
        }
        save = np.savez_compressed if compress else np.savez
        if hasattr(path, "write"):
            save(path, **arrays)
            return
        # Write through an open handle: np.savez appends a lowercase
        # ".npz" to any path not already ending in exactly that, which
        # would silently relocate e.g. "data.NPZ" to "data.NPZ.npz".
        with open(path, "wb") as handle:
            save(handle, **arrays)

    @staticmethod
    def from_npz(path: Union[str, Path]) -> "Dataset":
        """Read a dataset previously written by :meth:`to_npz`."""
        with np.load(path, allow_pickle=False) as archive:
            present = set(archive.files)
            if present != set(SCHEMA):
                missing = set(SCHEMA) - present
                extra = present - set(SCHEMA)
                raise ValueError(
                    f"{path}: column mismatch (missing={sorted(missing)}, "
                    f"extra={sorted(extra)})"
                )
            columns = {}
            for name, dtype in SCHEMA.items():
                loaded = archive[name]
                columns[name] = (
                    loaded.astype(object) if dtype is object
                    else loaded.astype(dtype, copy=False)
                )
        return Dataset(columns)

    def to_npd(
        self, path: Union[str, Path], chunk_size: int = 65_536
    ) -> None:
        """Write as an out-of-core ``.npd`` column directory (one
        mappable ``.npy`` per column; see :mod:`repro.dataset.ooc`),
        streamed in O(chunk) memory."""
        from repro.dataset.ooc import write_npd

        write_npd(path, self.iter_chunks(chunk_size=chunk_size))

    def save(self, path: Union[str, Path]) -> None:
        """Write to ``path``, picking the format from its suffix.

        ``.npz`` (any case: ``.NPZ``, ``.Npz``, …) uses the columnar
        binary archive, ``.npd`` the out-of-core column directory;
        anything else is written as CSV.
        """
        suffix = Path(path).suffix.lower()
        if suffix == ".npz":
            self.to_npz(path)
        elif suffix == ".npd":
            self.to_npd(path)
        else:
            self.to_csv(path)

    @staticmethod
    def open_mapped(path: Union[str, Path]) -> "Dataset":
        """Open a ``.npd`` directory as a lazily memory-mapped dataset
        (no column data is read until accessed)."""
        from repro.dataset.ooc import open_mapped

        return open_mapped(path)

    @staticmethod
    def load(path: Union[str, Path]) -> "Dataset":
        """Read a dataset saved by :meth:`save` (suffix-dispatched,
        case-insensitively — ``data.NPZ`` is binary, not CSV).
        ``.npd`` directories open memory-mapped."""
        suffix = Path(path).suffix.lower()
        if suffix == ".npz":
            return Dataset.from_npz(path)
        if suffix == ".npd":
            return Dataset.open_mapped(path)
        return Dataset.from_csv(path)


#: Bool cell spellings accepted from external CSVs.  Our own writer
#: emits "True"/"False"; lowercase and 0/1 cover common external tools.
_CSV_TRUE = ("True", "true", "1")
_CSV_FALSE = ("False", "false", "0")


def _parse_csv_column(raw, dtype) -> np.ndarray:
    """Parse one CSV column (tuple of cell strings) in bulk.

    Bool columns accept ``{"True", "true", "1"}`` / ``{"False",
    "false", "0"}`` and raise :class:`ValueError` on anything else —
    an unrecognized spelling must not silently round-trip to False.
    """
    if dtype is object:
        return np.array(raw, dtype=object)
    cells = np.array(raw, dtype="U")
    if dtype is bool:
        true = np.isin(cells, _CSV_TRUE)
        recognized = true | np.isin(cells, _CSV_FALSE)
        if not recognized.all():
            bad = cells[~recognized][0]
            raise ValueError(
                f"unrecognized bool cell {bad!r} (accepted: "
                f"{sorted(_CSV_TRUE + _CSV_FALSE)})"
            )
        return true
    if dtype is np.float64:
        return np.where(cells == "", "nan", cells).astype(np.float64)
    return cells.astype(dtype)
