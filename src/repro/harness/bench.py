"""Campaign- and dataset-engine performance benchmarks.

Times the *before* and *after* of this engine generation at several
campaign sizes so future PRs inherit a perf trajectory in
``BENCH_campaign.json``:

* **serial** — the historical execution path: one process,
  ``n_shards=1``, and the per-packet loopback interval loop
  (``mode='oracle'``), i.e. what campaigns cost before the sharded
  engine landed;
* **sharded** — the current default: lockstep session banks
  (:mod:`repro.core.sessionbank`) under
  :func:`repro.harness.parallel.run_campaign` with up to
  :data:`DEFAULT_SHARDS` shard workers.  ``n_shards`` is a cap, and a
  banked loopback worker pays for itself only past 2,048 rows, so at
  the default sizes the run forks none.

Both paths run the same frozen
:class:`~repro.harness.config.CampaignConfig` recipe apart from those
two switches, and the benchmark *verifies* (not assumes) that their
measured datasets are **byte-identical** by comparing serialized CSV
bytes — the acceptance check that vectorization and sharding are pure
speed, zero semantics.

Peak RSS is read from ``getrusage`` (self + reaped children, so shard
workers are included) — no external profiler dependency.

:func:`run_dataset_bench` (``repro bench dataset``) applies the same
discipline to the dataset engine: it times the chunked
:func:`~repro.dataset.generator.generate_campaign` against the same
engine run row by row (``chunk_size=1``, the per-row baseline), and
verifies that every chunking yields byte-identical outputs before
reporting any speedup into ``BENCH_dataset.json``.

:func:`run_sessions_bench` (``repro bench sessions``) benchmarks the
session bank itself: N lockstep loopback sessions against the
per-packet per-session oracle, verifying byte-identity field by field
plus invariance to bank size and row order before reporting the
speedup into ``BENCH_sessions.json``.
"""

from __future__ import annotations

import json
import resource
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.dataset.generator import DEFAULT_CHUNK_SIZE, generate_campaign
from repro.ioutil import atomic_write_json
from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.records import SCHEMA, Dataset
from repro.dataset.sampling import demo_campaign
from repro.harness.config import CampaignConfig
from repro.harness.parallel import run_campaign

#: Campaign sizes (rows) timed by the full benchmark; CI's bench-smoke
#: job runs only the smallest.
DEFAULT_SIZES: Tuple[int, ...] = (16, 48, 96)

#: Shard cap (``n_shards``) of the "after" configuration.
DEFAULT_SHARDS = 8

#: Seed of the seeded demo campaign.
DEFAULT_SEED = 20220801


@dataclass
class BenchCase:
    """Serial-vs-sharded timing at one campaign size."""

    size: int
    serial_s: float
    sharded_s: float
    serial_rows_per_s: float
    sharded_rows_per_s: float
    speedup: float
    byte_identical: bool
    n_quarantined: int
    peak_rss_mb: float = 0.0


def _dataset_csv_bytes(dataset: Dataset) -> bytes:
    """The dataset's serialized CSV bytes — the byte-identity oracle."""
    with tempfile.NamedTemporaryFile(suffix=".csv") as handle:
        dataset.to_csv(handle.name)
        return Path(handle.name).read_bytes()


def peak_rss_mb() -> float:
    """Peak resident set size in MiB, including reaped shard workers."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


class PeakRssTracker:
    """Peak RSS of one code region, as a context manager.

    ``getrusage``'s high-water mark is monotone over the process
    lifetime, which makes it useless for asking "what did *this*
    phase cost?" once any earlier phase peaked higher.  On Linux,
    writing ``"5"`` to ``/proc/self/clear_refs`` resets ``VmHWM`` to
    the current RSS, so each tracked region gets its own high-water
    mark; child processes reaped during the region are folded in via
    the rise of the children's rusage counter.  Where the reset is
    unavailable the tracker degrades to the cumulative
    :func:`peak_rss_mb` (an over-estimate, never an under-estimate —
    safe for ceiling gates).

    >>> with PeakRssTracker() as rss:                  # doctest: +SKIP
    ...     run_phase()
    >>> rss.peak_mb                                    # doctest: +SKIP
    """

    def __enter__(self) -> "PeakRssTracker":
        self.peak_mb: float = 0.0
        self._children_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss
        self._reset_ok = False
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
            self._reset_ok = True
        except OSError:
            pass
        return self

    def __exit__(self, *exc) -> None:
        self.peak_mb = self._read()

    @staticmethod
    def _vmhwm_kb() -> Optional[int]:
        try:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except (OSError, ValueError, IndexError):
            pass
        return None

    def _read(self) -> float:
        if self._reset_ok:
            vmhwm_kb = self._vmhwm_kb()
            if vmhwm_kb is not None:
                children_kb = resource.getrusage(
                    resource.RUSAGE_CHILDREN
                ).ru_maxrss
                grew_kb = max(0, children_kb - self._children_kb)
                return (vmhwm_kb + grew_kb) / 1024.0
        return peak_rss_mb()


def bench_one_size(
    size: int, n_shards: int = DEFAULT_SHARDS, seed: int = DEFAULT_SEED
) -> BenchCase:
    """Time serial vs sharded execution of one seeded demo campaign."""
    contexts = demo_campaign(size, seed=seed)
    serial_cfg = CampaignConfig(
        seed=seed,
        test="swiftest-loopback",
        test_kwargs={"mode": "oracle"},
        n_shards=1,
        mode="oracle",
    )
    sharded_cfg = CampaignConfig(
        seed=seed,
        test="swiftest-loopback",
        test_kwargs={"mode": "vectorized"},
        n_shards=n_shards,
    )

    with PeakRssTracker() as rss:
        start = time.perf_counter()
        serial = run_campaign(contexts, serial_cfg)
        serial_s = time.perf_counter() - start

        start = time.perf_counter()
        sharded = run_campaign(contexts, sharded_cfg)
        sharded_s = time.perf_counter() - start

    identical = (
        serial.dataset is not None
        and sharded.dataset is not None
        and _dataset_csv_bytes(serial.dataset)
        == _dataset_csv_bytes(sharded.dataset)
        and serial.quarantined == sharded.quarantined
    )
    return BenchCase(
        size=size,
        serial_s=serial_s,
        sharded_s=sharded_s,
        serial_rows_per_s=size / serial_s if serial_s > 0 else float("inf"),
        sharded_rows_per_s=size / sharded_s if sharded_s > 0 else float("inf"),
        speedup=serial_s / sharded_s if sharded_s > 0 else float("inf"),
        byte_identical=identical,
        n_quarantined=serial.n_quarantined,
        peak_rss_mb=rss.peak_mb,
    )


def run_campaign_bench(
    sizes: Sequence[int] = DEFAULT_SIZES,
    n_shards: int = DEFAULT_SHARDS,
    seed: int = DEFAULT_SEED,
    out_path: Optional[Union[str, Path]] = None,
) -> Dict:
    """The full benchmark: every size, one JSON summary.

    When ``out_path`` is given the summary is written there
    (``BENCH_campaign.json`` by convention).
    """
    if not sizes:
        raise ValueError("at least one campaign size is required")
    cases: List[BenchCase] = [
        bench_one_size(size, n_shards=n_shards, seed=seed) for size in sizes
    ]
    summary = {
        "benchmark": "campaign-engine",
        "seed": seed,
        "n_shards": n_shards,
        "sizes": list(sizes),
        "cases": [asdict(case) for case in cases],
        "min_speedup": min(case.speedup for case in cases),
        "max_speedup": max(case.speedup for case in cases),
        "all_byte_identical": all(case.byte_identical for case in cases),
        "peak_rss_mb": peak_rss_mb(),
    }
    if out_path is not None:
        out_path = Path(out_path)
        atomic_write_json(out_path, summary, indent=2, trailing_newline=True)
    return summary


# -- dataset engine ----------------------------------------------------

#: Dataset sizes (rows) timed by the full dataset benchmark.
DATASET_DEFAULT_ROWS: Tuple[int, ...] = (100_000,)

#: Rows the per-row baseline (``chunk_size=1``) is timed on (it is
#: one to two orders of magnitude slower than the chunked engine, so
#: the oracle leg uses its own smaller campaign and speedup compares
#: rows-per-second rates; its equality check runs on this same
#: campaign at the benchmark's chunk size).
DATASET_DEFAULT_ORACLE_ROWS = 5_000


@dataclass
class DatasetBenchCase:
    """Chunked-vs-per-row timing at one campaign size; the ``oracle_*``
    fields describe the per-row (``chunk_size=1``) leg."""

    rows: int
    oracle_rows: int
    chunk_size: int
    vectorized_s: float
    oracle_s: float
    vectorized_rows_per_s: float
    oracle_rows_per_s: float
    speedup: float
    chunked_byte_identical: bool
    oracle_byte_identical: bool
    peak_rss_mb: float = 0.0


def _dataset_fingerprint(dataset: Dataset) -> Tuple:
    """Column-wise byte-level identity key (cheaper than CSV bytes)."""
    parts = []
    for name in SCHEMA:
        column = dataset.column(name)
        if column.dtype == object:
            parts.append(tuple(column.tolist()))
        else:
            parts.append((str(column.dtype), column.tobytes()))
    return tuple(parts)


def bench_dataset_case(
    rows: int,
    oracle_rows: int = DATASET_DEFAULT_ORACLE_ROWS,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    seed: int = DEFAULT_SEED,
    year: int = 2021,
) -> DatasetBenchCase:
    """Time the chunked engine vs the per-row baseline at one size."""
    config = GenerationConfig(year=year, n_tests=rows, seed=seed)

    with PeakRssTracker() as rss:
        start = time.perf_counter()
        chunked = generate_campaign(config, chunk_size=chunk_size)
        vectorized_s = time.perf_counter() - start

    # Chunk-partition invariance: a different chunk size (and the
    # single-chunk run) must reproduce the exact same bytes.
    other_chunk = max(1, chunk_size // 3)
    chunked_identical = (
        _dataset_fingerprint(chunked)
        == _dataset_fingerprint(generate_campaign(config, chunk_size=other_chunk))
        == _dataset_fingerprint(generate_campaign(config, chunk_size=rows))
    )

    # The oracle leg runs a smaller campaign of its own (user tables
    # depend on n_tests, so equality needs both paths on one config).
    oracle_config = GenerationConfig(
        year=year, n_tests=oracle_rows, seed=seed
    )
    start = time.perf_counter()
    oracle = generate_campaign(oracle_config, chunk_size=1)
    oracle_s = time.perf_counter() - start
    oracle_identical = _dataset_fingerprint(oracle) == _dataset_fingerprint(
        generate_campaign(oracle_config, chunk_size=chunk_size)
    )

    vectorized_rate = rows / vectorized_s if vectorized_s > 0 else float("inf")
    oracle_rate = oracle_rows / oracle_s if oracle_s > 0 else float("inf")
    return DatasetBenchCase(
        rows=rows,
        oracle_rows=oracle_rows,
        chunk_size=chunk_size,
        vectorized_s=vectorized_s,
        oracle_s=oracle_s,
        vectorized_rows_per_s=vectorized_rate,
        oracle_rows_per_s=oracle_rate,
        speedup=vectorized_rate / oracle_rate if oracle_rate > 0 else float("inf"),
        chunked_byte_identical=chunked_identical,
        oracle_byte_identical=oracle_identical,
        peak_rss_mb=rss.peak_mb,
    )


def run_dataset_bench(
    rows: Sequence[int] = DATASET_DEFAULT_ROWS,
    oracle_rows: int = DATASET_DEFAULT_ORACLE_ROWS,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    seed: int = DEFAULT_SEED,
    out_path: Optional[Union[str, Path]] = None,
) -> Dict:
    """The dataset-engine benchmark: every size, one JSON summary.

    When ``out_path`` is given the summary is written there
    (``BENCH_dataset.json`` by convention).
    """
    if not rows:
        raise ValueError("at least one campaign size is required")
    cases: List[DatasetBenchCase] = [
        bench_dataset_case(
            n, oracle_rows=oracle_rows, chunk_size=chunk_size, seed=seed
        )
        for n in rows
    ]
    summary = {
        "benchmark": "dataset-engine",
        "seed": seed,
        "chunk_size": chunk_size,
        "rows": list(rows),
        "oracle_rows": oracle_rows,
        "cases": [asdict(case) for case in cases],
        "min_speedup": min(case.speedup for case in cases),
        "max_speedup": max(case.speedup for case in cases),
        "all_byte_identical": all(
            case.chunked_byte_identical and case.oracle_byte_identical
            for case in cases
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    if out_path is not None:
        out_path = Path(out_path)
        atomic_write_json(out_path, summary, indent=2, trailing_newline=True)
    return summary


# -- session-bank benchmark --------------------------------------------------

#: Bank sizes (sessions) timed by the full session-bank benchmark;
#: CI's bench-smoke job runs only the smallest.
SESSIONS_DEFAULT_SIZES: Tuple[int, ...] = (64, 512, 4096)

#: Sessions the per-packet oracle leg is timed on (it runs ~10 rows/s,
#: so the oracle uses a small subset and speedup compares rows/s
#: rates; byte-identity is checked on this same subset).
SESSIONS_DEFAULT_ORACLE = 8

#: Capacity range (Mbps) the benchmark draws sessions from — spans
#: the ladder's hold-low cases through escape-above-top clients.
_SESSIONS_CAPACITY_RANGE = (5.0, 900.0)

#: Server uplink of every benchmark session.
_SESSIONS_SERVER_MBPS = 1000.0


@dataclass
class SessionsBenchCase:
    """Bank-vs-oracle timing at one bank size."""

    n_sessions: int
    oracle_sessions: int
    bank_s: float
    oracle_s: float
    bank_rows_per_s: float
    oracle_rows_per_s: float
    speedup: float
    byte_identical: bool
    order_invariant: bool
    bank_size_invariant: bool
    peak_rss_mb: float = 0.0


def _bank_result_fields(bank, i: int) -> Tuple:
    """Session ``i``'s full result as a comparable tuple."""
    return (
        float(bank.bandwidth_mbps[i]),
        float(bank.duration_s[i]),
        int(bank.packets_delivered[i]),
        int(bank.packets_dropped[i]),
        int(bank.n_rate_commands[i]),
        bank.outcome(i),
        bank.rate_commands_for(i),
        bank.samples_for(i),
    )


def bench_sessions_case(
    n_sessions: int,
    oracle_sessions: int = SESSIONS_DEFAULT_ORACLE,
    seed: int = DEFAULT_SEED,
) -> SessionsBenchCase:
    """Time the lockstep bank vs the per-packet oracle at one size.

    Byte-identity is *verified*, not assumed: the first
    ``oracle_sessions`` sessions are replayed through
    :func:`~repro.core.loopback.run_loopback_session` with
    ``mode='oracle'`` (the historical per-packet loop) and every
    result field — estimate, duration, packet counters, commanded
    rates, the full 50 ms sample stream, outcome — must match the
    bank's exactly.  The case additionally checks the oracle-contract
    invariances: a shuffled bank and sub-banks of sizes {1, 7, 64}
    must reproduce the full bank's bytes.
    """
    import numpy as np

    from repro.core.loopback import run_loopback_session
    from repro.core.sessionbank import run_session_bank
    from repro.core.variants import FixedLadderModel

    if n_sessions < 1:
        raise ValueError(f"need at least one session, got {n_sessions}")
    model = FixedLadderModel()
    rng = np.random.default_rng(seed)
    capacities = rng.uniform(*_SESSIONS_CAPACITY_RANGE, n_sessions)

    with PeakRssTracker() as rss:
        start = time.perf_counter()
        bank = run_session_bank(
            model, capacities, server_capacity_mbps=_SESSIONS_SERVER_MBPS
        )
        bank_s = time.perf_counter() - start

    n_oracle = min(oracle_sessions, n_sessions)
    start = time.perf_counter()
    oracle = [
        run_loopback_session(
            model,
            float(capacities[i]),
            server_capacity_mbps=_SESSIONS_SERVER_MBPS,
            mode="oracle",
        )
        for i in range(n_oracle)
    ]
    oracle_s = time.perf_counter() - start

    identical = all(
        (
            ref.bandwidth_mbps,
            ref.duration_s,
            ref.packets_delivered,
            ref.packets_dropped,
            len(ref.rate_commands),
            ref.outcome,
            ref.rate_commands,
            ref.samples,
        )
        == _bank_result_fields(bank, i)
        for i, ref in enumerate(oracle)
    )

    perm = rng.permutation(n_sessions)
    shuffled = run_session_bank(
        model, capacities[perm], server_capacity_mbps=_SESSIONS_SERVER_MBPS
    )
    order_invariant = all(
        _bank_result_fields(shuffled, pos)
        == _bank_result_fields(bank, int(perm[pos]))
        for pos in range(n_sessions)
    )

    size_invariant = True
    for width in (1, 7, 64):
        checked = 0
        for lo in range(0, n_sessions, width):
            sub = run_session_bank(
                model,
                capacities[lo:lo + width],
                server_capacity_mbps=_SESSIONS_SERVER_MBPS,
            )
            size_invariant = size_invariant and all(
                _bank_result_fields(sub, k)
                == _bank_result_fields(bank, lo + k)
                for k in range(len(sub))
            )
            checked += len(sub)
            if checked >= 128:  # enough sub-banks per width
                break

    bank_rate = n_sessions / bank_s if bank_s > 0 else float("inf")
    oracle_rate = n_oracle / oracle_s if oracle_s > 0 else float("inf")
    return SessionsBenchCase(
        n_sessions=n_sessions,
        oracle_sessions=n_oracle,
        bank_s=bank_s,
        oracle_s=oracle_s,
        bank_rows_per_s=bank_rate,
        oracle_rows_per_s=oracle_rate,
        speedup=bank_rate / oracle_rate if oracle_rate > 0 else float("inf"),
        byte_identical=identical,
        order_invariant=order_invariant,
        bank_size_invariant=size_invariant,
        peak_rss_mb=rss.peak_mb,
    )


def run_sessions_bench(
    sizes: Sequence[int] = SESSIONS_DEFAULT_SIZES,
    oracle_sessions: int = SESSIONS_DEFAULT_ORACLE,
    seed: int = DEFAULT_SEED,
    out_path: Optional[Union[str, Path]] = None,
) -> Dict:
    """The session-bank benchmark: every size, one JSON summary.

    When ``out_path`` is given the summary is written there
    (``BENCH_sessions.json`` by convention).  ``all_byte_identical``
    folds in the invariance checks: it is only true when every case
    matched the oracle *and* was invariant to row order and bank size.
    """
    if not sizes:
        raise ValueError("at least one bank size is required")
    cases: List[SessionsBenchCase] = [
        bench_sessions_case(n, oracle_sessions=oracle_sessions, seed=seed)
        for n in sizes
    ]
    summary = {
        "benchmark": "session-bank",
        "seed": seed,
        "sizes": list(sizes),
        "oracle_sessions": oracle_sessions,
        "cases": [asdict(case) for case in cases],
        "min_speedup": min(case.speedup for case in cases),
        "max_speedup": max(case.speedup for case in cases),
        "all_byte_identical": all(
            case.byte_identical
            and case.order_invariant
            and case.bank_size_invariant
            for case in cases
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    if out_path is not None:
        out_path = Path(out_path)
        atomic_write_json(out_path, summary, indent=2, trailing_newline=True)
    return summary


# -- fleet-day simulator benchmark ------------------------------------------

#: Default fleet-day smoke scale (users, sim-hours).
FLEET_DEFAULT_USERS = 100_000
FLEET_DEFAULT_HOURS = 24


def run_fleet_bench(
    users: int = FLEET_DEFAULT_USERS,
    hours: int = FLEET_DEFAULT_HOURS,
    seed: int = 7,
    workers: int = 2,
    out_path: Optional[Union[str, Path]] = None,
) -> Dict:
    """Benchmark the fleet-day simulator and verify its determinism.

    Runs the same seeded day three times — twice single-worker and once
    with ``workers`` arrival-generation processes — and checks the
    manifests' ``outcomes`` blocks are byte-identical (the contract the
    determinism regression tests pin).  Reports virtual-arrivals/s
    throughput into ``BENCH_fleet.json`` when ``out_path`` is given.
    """
    from repro.fleet.simulator import FleetDayConfig, run_fleet_day

    blackouts = (("Beijing", 8 * 3600.0, 10 * 3600.0),)
    base = FleetDayConfig(
        users=users, hours=hours, seed=seed, blackouts=blackouts
    )
    sharded = FleetDayConfig(
        users=users, hours=hours, seed=seed, workers=workers,
        blackouts=blackouts,
    )

    def one(config):
        with PeakRssTracker() as rss:
            start = time.perf_counter()
            report, manifest = run_fleet_day(config)
            elapsed = time.perf_counter() - start
        outcomes = json.dumps(manifest["outcomes"], sort_keys=True)
        return report, outcomes, elapsed, rss.peak_mb

    report_a, outcomes_a, elapsed_a, peak_a = one(base)
    _, outcomes_b, _, peak_b = one(base)
    _, outcomes_c, _, peak_c = one(sharded)

    summary = {
        "benchmark": "fleet-day",
        "seed": seed,
        "users": users,
        "hours": hours,
        "workers": workers,
        "admitted": report_a.admitted,
        "arrivals_per_s": (
            report_a.admitted / elapsed_a if elapsed_a > 0 else None
        ),
        "elapsed_s": elapsed_a,
        "events_processed": report_a.events_processed,
        "rerun_identical": outcomes_a == outcomes_b,
        "workers_identical": outcomes_a == outcomes_c,
        "all_byte_identical": (
            outcomes_a == outcomes_b == outcomes_c
        ),
        "accounting_balanced": report_a.balanced,
        "case_peak_rss_mb": [peak_a, peak_b, peak_c],
        "peak_rss_mb": peak_rss_mb(),
    }
    if out_path is not None:
        out_path = Path(out_path)
        atomic_write_json(out_path, summary, indent=2, trailing_newline=True)
    return summary


# -- out-of-core backend benchmark ------------------------------------------

#: Rows of the flat-RSS round trip (generate -> ingest -> compare).
OOC_DEFAULT_ROWS = 10_000_000

#: Peak-RSS ceiling (MiB) the streaming phases must stay under — the
#: acceptance gate: 10M rows must cost less than an in-memory 1M-row
#: load did (778 MiB in BENCH_dataset.json).
OOC_DEFAULT_RSS_CEILING_MB = 150.0

#: Rows of the in-memory identity campaign (chunked folds over the
#: mapped payload vs one-chunk folds in memory; this phase materialises
#: on purpose and sits outside the RSS gate).
OOC_DEFAULT_VERIFY_ROWS = 100_000

#: Cap on rows per ingested campaign: the generator's user table (one
#: user per ~7 tests, a handful of object/float arrays) is the only
#: remaining O(campaign) allocation, so months bigger than this are
#: split into several runs and pooled back by ``compare_months``.
OOC_ROWS_PER_INGEST = 2_000_000


def _ooc_identity_checks(
    workdir: Path, rows: int, chunk_size: int, seed: int
) -> Dict[str, bool]:
    """Out-of-core reads and folds vs the in-memory dataset at a
    materialisable size.

    Every check is byte identity, not tolerance: the mapped columns and
    the chunked CSV bytes must equal the in-memory dataset's, each fold
    over the mapped payload's chunks must equal the same fold over the
    in-memory dataset as one chunk, and the bootstrap must not depend on
    its chunking.  The folds have one implementation each, so these
    flags guard the chunked reads and the chunk-partition invariance;
    the comparisons against independent reference implementations are
    in the test suite.
    """
    from repro.analysis.diurnal import hourly_profile_stream
    from repro.analysis.longitudinal import matched_group_declines_stream
    from repro.analysis.streams import GroupReduceStream, poisson_bootstrap_ci
    from repro.dataset.generator import iter_campaign_chunks
    from repro.dataset.ooc import write_npd
    from repro.store.catalog import RunStore
    from repro.store.longitudinal import compare_months

    checks: Dict[str, bool] = {}
    config_a = GenerationConfig(year=2020, n_tests=rows, seed=seed)
    config_b = GenerationConfig(year=2021, n_tests=rows, seed=seed + 1)
    ds_a = generate_campaign(config_a, chunk_size=chunk_size)
    ds_b = generate_campaign(config_b, chunk_size=chunk_size)

    npd = workdir / "verify.npd"
    write_npd(npd, iter_campaign_chunks(config_a, chunk_size=chunk_size))
    mapped = Dataset.open_mapped(npd)
    mapped.verify_checksums()
    checks["mapped_columns_identical"] = (
        _dataset_fingerprint(mapped.to_memory())
        == _dataset_fingerprint(ds_a)
    )

    small_chunk = max(1, chunk_size // 3)
    csv_a, csv_b = workdir / "memory.csv", workdir / "stream.csv"
    ds_a.to_csv(csv_a)
    mapped.to_csv(csv_b, chunk_size=small_chunk)
    checks["to_csv_identical"] = csv_a.read_bytes() == csv_b.read_bytes()

    def mapped_chunks(columns):
        return mapped.iter_chunks(chunk_size=small_chunk, columns=columns)

    def one_chunk(dataset, columns):
        return dataset.iter_chunks(chunk_size=len(dataset), columns=columns)

    def tech_groups(chunks):
        stream = GroupReduceStream()
        for chunk in chunks:
            stream.update(chunk["tech"], chunk["bandwidth_mbps"])
        keys, means, counts = stream.result()
        return keys, means.tobytes(), counts.tolist()

    tech_columns = ["tech", "bandwidth_mbps"]
    checks["group_reduce_identical"] = tech_groups(
        mapped_chunks(tech_columns)
    ) == tech_groups(one_chunk(ds_a, tech_columns))

    hourly_columns = ["tech", "hour", "bandwidth_mbps"]
    checks["hourly_identical"] = hourly_profile_stream(
        mapped_chunks(hourly_columns), "4G"
    ) == hourly_profile_stream(one_chunk(ds_a, hourly_columns), "4G")

    group_columns = ["tech", "isp", "city_tier", "bandwidth_mbps"]
    checks["longitudinal_identical"] = matched_group_declines_stream(
        mapped_chunks(group_columns),
        ds_b.iter_chunks(chunk_size=small_chunk, columns=group_columns),
        "4G",
    ) == matched_group_declines_stream(
        one_chunk(ds_a, group_columns), one_chunk(ds_b, group_columns), "4G"
    )

    sample = ds_a.bandwidth[: min(20_000, rows)]
    split = min(1000, len(sample))
    checks["bootstrap_identical"] = poisson_bootstrap_ci(
        [sample[:split], sample[split:]], seed=seed, n_resamples=200
    ) == poisson_bootstrap_ci(sample, seed=seed, n_resamples=200)

    # compare_months stream vs oracle over a small mixed-layout store
    # (one out-of-core run, one npz run).
    with RunStore(workdir / "verify_store") as store:
        store.ingest_run(
            {"kind": "campaign", "seed": seed, "run": {"n_rows": rows}},
            ds_a, month="aug", layout="npd",
        )
        store.ingest_run(
            {"kind": "campaign", "seed": seed + 1, "run": {"n_rows": rows}},
            ds_b, month="nov", layout="npz",
        )
        checks["compare_months_identical"] = compare_months(
            store, ("aug", "nov"), tech="4G", mode="stream"
        ) == compare_months(
            store, ("aug", "nov"), tech="4G", mode="oracle"
        )
    return checks


def run_ooc_bench(
    rows: int = OOC_DEFAULT_ROWS,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    seed: int = DEFAULT_SEED,
    rss_ceiling_mb: float = OOC_DEFAULT_RSS_CEILING_MB,
    verify_rows: int = OOC_DEFAULT_VERIFY_ROWS,
    out_path: Optional[Union[str, Path]] = None,
    workdir: Optional[Union[str, Path]] = None,
) -> Dict:
    """The flat-RSS gate: a paper-scale round trip that never holds a
    dataset in memory.

    Half the rows go to month "aug" (2020 deployment), half to "nov"
    (2021), each month as one or more campaigns streamed from the
    generator through :meth:`RunStore.ingest_chunks` into out-of-core
    payloads; then the §3.1 month comparison runs in streaming mode
    over the mapped datasets.  Campaigns are capped at
    :data:`OOC_ROWS_PER_INGEST` rows because the generator's user
    table scales with campaign size (one user per ~7 tests) — the cap
    keeps that table, the only O(campaign) allocation left, bounded;
    ``compare_months`` pools a month's runs, so the split changes run
    count, not the analysed rows.  Each phase's peak RSS is measured
    with a fresh high-water mark (:class:`PeakRssTracker`); the gate
    is the max over the two streaming phases, which must stay under
    ``rss_ceiling_mb`` no matter how large ``rows`` is.

    A third phase replays the mapped reads and every streaming fold
    against the in-memory dataset at ``verify_rows`` (materialisable by
    construction; see :func:`_ooc_identity_checks`) and requires byte
    identity; its RSS is reported but deliberately not gated.  When
    ``out_path`` is given the summary is written there
    (``BENCH_ooc.json`` by convention).
    """
    from repro.dataset.generator import iter_campaign_chunks
    from repro.store.catalog import RunStore
    from repro.store.longitudinal import compare_months

    if rows < 2:
        raise ValueError(f"need at least 2 rows, got {rows}")
    cleanup = workdir is None
    workdir = Path(workdir) if workdir is not None else Path(
        tempfile.mkdtemp(prefix="repro-ooc-bench-")
    )
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        half = rows // 2
        legs: List[Tuple[str, int, int, int]] = []
        for month, year in (("aug", 2020), ("nov", 2021)):
            remaining = half
            while remaining > 0:
                leg_rows = min(remaining, OOC_ROWS_PER_INGEST)
                # Distinct seeds per leg: identical content would
                # dedupe under the store's content-addressed ids.
                legs.append((month, year, seed + len(legs), leg_rows))
                remaining -= leg_rows
        with PeakRssTracker() as rss_ingest:
            start = time.perf_counter()
            with RunStore(workdir / "store") as store:
                for month, year, leg_seed, leg_rows in legs:
                    config = GenerationConfig(
                        year=year, n_tests=leg_rows, seed=leg_seed
                    )
                    manifest = {
                        "kind": "campaign",
                        "seed": leg_seed,
                        "created_unix_s": time.time(),
                        "run": {"n_rows": leg_rows},
                    }
                    store.ingest_chunks(
                        manifest,
                        iter_campaign_chunks(config, chunk_size=chunk_size),
                        month=month,
                    )
            ingest_s = time.perf_counter() - start

        with PeakRssTracker() as rss_compare:
            start = time.perf_counter()
            with RunStore(workdir / "store") as store:
                comparison = compare_months(
                    store, ("aug", "nov"), tech="4G", mode="stream"
                )
            compare_s = time.perf_counter() - start

        with PeakRssTracker() as rss_verify:
            start = time.perf_counter()
            identity = _ooc_identity_checks(
                workdir, verify_rows, chunk_size, seed
            )
            verify_s = time.perf_counter() - start
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)

    gated_peak = max(rss_ingest.peak_mb, rss_compare.peak_mb)
    summary = {
        "benchmark": "ooc-backend",
        "seed": seed,
        "rows": 2 * half,
        "chunk_size": chunk_size,
        "verify_rows": verify_rows,
        "rss_ceiling_mb": rss_ceiling_mb,
        "phases": {
            "generate_ingest": {
                "elapsed_s": ingest_s,
                "rows_per_s": (
                    2 * half / ingest_s if ingest_s > 0 else float("inf")
                ),
                "peak_rss_mb": rss_ingest.peak_mb,
            },
            "compare": {
                "elapsed_s": compare_s,
                "rows_per_s": (
                    2 * half / compare_s if compare_s > 0 else float("inf")
                ),
                "peak_rss_mb": rss_compare.peak_mb,
            },
            "verify": {
                "elapsed_s": verify_s,
                "peak_rss_mb": rss_verify.peak_mb,
            },
        },
        "peak_rss_mb": gated_peak,
        "within_ceiling": gated_peak < rss_ceiling_mb,
        "identity": identity,
        "all_byte_identical": all(identity.values()),
        "compare": {
            key: comparison[key]
            for key in (
                "months", "tech", "n_before", "n_after",
                "mean_before_mbps", "mean_after_mbps", "decline",
            )
        },
    }
    if out_path is not None:
        out_path = Path(out_path)
        atomic_write_json(out_path, summary, indent=2, trailing_newline=True)
    return summary


# -- bottleneck attribution gate ---------------------------------------

#: Home-path campaign size of the attribution gate.
ATTRIBUTION_DEFAULT_ROWS = 10_000

#: Shard counts whose measured datasets (including ``bottleneck_attr``)
#: must be byte-identical.
ATTRIBUTION_DEFAULT_SHARDS: Tuple[int, ...] = (1, 2, 8)

#: Minimum required agreement between Swiftest's inferred binding hop
#: and the simulator's ground truth over validated rows.
ATTRIBUTION_MIN_AGREEMENT = 0.90


def run_attribution_bench(
    rows: int = ATTRIBUTION_DEFAULT_ROWS,
    oracle_rows: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    shard_counts: Sequence[int] = ATTRIBUTION_DEFAULT_SHARDS,
    min_agreement: float = ATTRIBUTION_MIN_AGREEMENT,
    out_path: Optional[Union[str, Path]] = None,
    manifest_path: Optional[Union[str, Path]] = None,
) -> Dict:
    """The bottleneck-attribution gate (``repro bench attribution``).

    Generates a seeded home-path campaign (dual-bottleneck WiFi rows
    with ground-truth ``bottleneck`` labels), measures it through the
    loopback Swiftest engine at every shard count in ``shard_counts``,
    and checks three properties:

    * **accuracy** — Swiftest's inferred binding hop agrees with the
      simulator's ground truth on at least ``min_agreement`` of the
      validated rows;
    * **shard invariance** — the measured dataset (including the
      ``bottleneck_attr`` column) and the attribution summary are
      byte-identical across all shard counts;
    * **mode parity** — the per-packet oracle engine and the vectorized
      session bank produce byte-identical measured rows and attribution
      (over the first ``oracle_rows`` rows; ``None`` replays the whole
      campaign).

    When ``manifest_path`` is given the baseline (first shard count)
    run writes its campaign manifest there — including the attribution
    block — for CI to upload as an artifact.
    """
    if rows < 1:
        raise ValueError(f"need at least 1 row, got {rows}")
    if not shard_counts:
        raise ValueError("at least one shard count is required")
    import numpy as np

    config = GenerationConfig(n_tests=rows, seed=seed, home_path=True)
    start = time.perf_counter()
    contexts = generate_campaign(config)
    generate_s = time.perf_counter() - start

    def measure(subset: Dataset, n_shards: int, mode: str = "auto",
                manifest: Optional[Union[str, Path]] = None):
        cfg = CampaignConfig(
            seed=seed,
            test="swiftest-loopback",
            n_shards=n_shards,
            mode=mode,
            manifest_path=Path(manifest) if manifest else None,
        )
        return run_campaign(subset, cfg)

    with PeakRssTracker() as rss:
        reports = {}
        timings = {}
        for i, n_shards in enumerate(shard_counts):
            start = time.perf_counter()
            reports[n_shards] = measure(
                contexts, n_shards,
                manifest=manifest_path if i == 0 else None,
            )
            timings[n_shards] = time.perf_counter() - start
        baseline = reports[shard_counts[0]]
        baseline_bytes = _dataset_csv_bytes(baseline.dataset)
        shard_identical = all(
            _dataset_csv_bytes(reports[n].dataset) == baseline_bytes
            and reports[n].attribution == baseline.attribution
            for n in shard_counts[1:]
        )

        subset = (
            contexts if oracle_rows is None or oracle_rows >= rows
            else contexts.filter(np.arange(rows) < oracle_rows)
        )
        start = time.perf_counter()
        oracle = measure(subset, 1, mode="oracle")
        oracle_s = time.perf_counter() - start
        vectorized = measure(subset, 1, mode="vectorized")
        mode_identical = (
            _dataset_csv_bytes(oracle.dataset)
            == _dataset_csv_bytes(vectorized.dataset)
            and oracle.attribution == vectorized.attribution
        )

    attribution = baseline.attribution or {}
    agreement = attribution.get("agreement")
    accurate = agreement is not None and agreement >= min_agreement
    summary = {
        "benchmark": "bottleneck-attribution",
        "seed": seed,
        "rows": rows,
        "oracle_rows": len(subset),
        "shard_counts": list(shard_counts),
        "generate_s": generate_s,
        "measure_s": {str(n): timings[n] for n in shard_counts},
        "oracle_s": oracle_s,
        "attribution": attribution,
        "min_agreement": min_agreement,
        "accurate": accurate,
        "shard_identical": shard_identical,
        "mode_identical": mode_identical,
        "passed": accurate and shard_identical and mode_identical,
        "peak_rss_mb": rss.peak_mb,
    }
    if out_path is not None:
        out_path = Path(out_path)
        atomic_write_json(out_path, summary, indent=2, trailing_newline=True)
    return summary
