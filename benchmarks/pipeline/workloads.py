"""The four seeded study workloads of the pipeline benchmark.

Each workload is a *unit* of work that the worker repeats until its
measurement window closes.  A unit drives the program only through
its public entry points:

* ``repro.dataset.generator.{CampaignConfig, generate_campaign,
  iter_campaign_chunks}``
* ``repro.harness.config.CampaignConfig``
* ``repro.harness.parallel.run_campaign``
* ``repro.store.catalog.RunStore.{ingest_chunks, list_runs,
  load_dataset}``
* ``repro.store.longitudinal.compare_months``
* ``repro.analysis.diurnal.hourly_profile_stream``
* ``repro.analysis.streams.poisson_bootstrap_ci``
* ``repro.analysis.report.campaign_report``

and returns the timed operations it ran plus a sha256 digest of its
outputs.  Every input derives from the seed, so one seed gives one
digest however often the unit repeats; every unit gets a fresh store,
because content-addressed run ids would turn a re-ingest into a no-op.

A unit runs its work as a few steps of a fraction of a second each,
each under ``watch.step()`` (see :mod:`benchmarks.pipeline.yardstick`),
so the host's speed is sampled between steps rather than once a unit.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.diurnal import hourly_profile_stream
from repro.analysis.report import campaign_report
from repro.analysis.streams import poisson_bootstrap_ci
from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign, iter_campaign_chunks
from repro.harness.config import CampaignConfig
from repro.harness.parallel import run_campaign
from repro.store.catalog import RunStore
from repro.store.longitudinal import compare_months

#: ``created_unix_s`` of every manifest the benchmark ingests itself
#: (2022-08-01T00:00:00Z), so payload bytes never depend on the clock.
MANIFEST_UNIX_S = 1_659_312_000.0

#: Bootstrap resamples of the study's confidence interval.
BOOTSTRAP_RESAMPLES = 200

#: Technologies whose hour-of-day profile the study computes.
HOURLY_TECHS = ("4G", "5G", "WiFi5")

#: Slowest context a measure workload hands to ``run_campaign``.
MIN_MEASURED_MBPS = 1.0

#: ``measure-small`` campaigns per step.
CAMPAIGNS_PER_STEP = 4


@dataclass
class Unit:
    """What one unit did.

    ``samples`` holds one ``(rows, wall seconds)`` pair per timed
    operation: the whole unit (its steps) for most workloads, each
    ``run_campaign`` call for ``measure-small``.  ``attempted`` counts
    measured rows, store commits and analysis calls; ``failed`` the
    rows quarantined.
    """

    samples: List[Tuple[int, float]] = field(default_factory=list)
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    retries: int = 0
    row_attempts: int = 0
    measured: int = 0

    def account(self, report) -> None:
        """Fold in one measured campaign and its store commit."""
        self.attempted += report.n_rows + 1
        self.failed += report.n_quarantined
        self.retries += report.retries
        self.row_attempts += report.n_rows + report.retries
        self.measured += report.n_measured


def digest(*parts) -> str:
    """sha256 over arrays (dtype and raw bytes) and JSON values (floats
    in their exact ``repr``)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def study_ooc(seed: int, sizes: Dict, workdir: Path, trace, watch) -> Unit:
    """Out-of-core study: stream two generated months into npd
    payloads, then compare, profile and bootstrap them from the
    store."""
    n = sizes["rows_per_month"]
    with RunStore.open(workdir / "store") as store:
        for month, year, month_seed in (("aug", 2020, seed),
                                        ("nov", 2021, seed + 1)):
            manifest = {
                "kind": "campaign",
                "seed": month_seed,
                "created_unix_s": MANIFEST_UNIX_S,
                "run": {"n_rows": n},
            }
            with watch.step():
                chunks = iter_campaign_chunks(
                    GenerationConfig(year=year, n_tests=n, seed=month_seed)
                )
                store.ingest_chunks(
                    manifest, trace.tee(chunks, "dataset.generator"),
                    month=month,
                )
        with watch.step(), trace.span("store.longitudinal.compare"):
            comparison = compare_months(
                store, ("aug", "nov"), tech="4G", mode="stream"
            )
        with watch.step():
            (nov,) = store.list_runs(month="nov")
            dataset = store.load_dataset(nov.run_id)
            profiles = {}
            for tech in HOURLY_TECHS:
                with trace.span("analysis.diurnal.hourly"):
                    profile = hourly_profile_stream(
                        dataset.iter_chunks(
                            columns=["tech", "hour", "bandwidth_mbps"]
                        ),
                        tech,
                    )
                profiles[tech] = [profile.counts, profile.mean_bandwidth]
        with watch.step(), trace.span("analysis.streams.bootstrap"):
            ci = poisson_bootstrap_ci(
                (c["bandwidth_mbps"]
                 for c in dataset.iter_chunks(columns=["bandwidth_mbps"])),
                seed=seed,
                n_resamples=BOOTSTRAP_RESAMPLES,
            )
    return Unit(
        samples=[(2 * n, watch.wall)],
        digest=digest(comparison, profiles, list(ci)),
        attempted=2 + 1 + len(HOURLY_TECHS) + 1,
    )


def _contexts(sizes: Dict, seed: int, trace):
    """Generated 2021 contexts, without those too slow to measure.

    A shaped access link (1% of environments) throttles to
    ``max(1 Mbps, a share of capacity)``, which exceeds the capacity of
    a context below 1 Mbps; ``row_environment`` then raises outside
    the retry loop and the whole campaign fails.  Such contexts are
    about 0.02% of the generator's output, and the benchmark leaves
    them out so that no operation fails.
    """
    with trace.span("dataset.generator"):
        contexts = generate_campaign(
            GenerationConfig(year=2021, n_tests=sizes["contexts"], seed=seed)
        )
    trace.count("dataset.generator.rows", len(contexts))
    return contexts.filter(contexts.bandwidth >= MIN_MEASURED_MBPS)


def bandwidth_quantile_rows(contexts, n: int):
    """The ``n`` contexts at evenly spaced bandwidth quantiles, in
    their original order.

    A BTS-APP row costs more the faster its link (more data to move
    through the fluid TCP model), so a random subsample of a few dozen
    rows swings the workload's cost with the seed; a quantile grid
    keeps the cost mix fixed while the rows themselves still come from
    the seed.
    """
    order = np.argsort(contexts.bandwidth, kind="stable")
    picks = order[(2 * np.arange(n) + 1) * len(order) // (2 * n)]
    mask = np.zeros(len(contexts), dtype=bool)
    mask[picks] = True
    return contexts.filter(mask)


#: Columns of a measured run that a measure workload's digest covers.
MEASURED_COLUMNS = ("test_id", "bandwidth_mbps", "bottleneck_attr")


def measure_swiftest(seed: int, sizes: Dict, workdir: Path, trace,
                     watch) -> Unit:
    """Banked Swiftest loopback over many rows, committed and reported:
    the session-bank path, with fluid TCP bypassed."""
    store_path = workdir / "store"
    with watch.step():
        contexts = _contexts(sizes, seed, trace)
    with watch.step(), trace.span("harness.parallel.fanout"):
        result = run_campaign(contexts, CampaignConfig(
            seed=seed,
            max_tests=sizes["tests"],
            test="swiftest-loopback",
            mode="auto",
            n_shards=1,
            store_path=store_path,
        ))
    with watch.step():
        with RunStore.open(store_path) as store:
            measured = store.load_dataset(result.store_run_id)
        with trace.span("analysis.report.report"):
            text = campaign_report(measured)
    unit = Unit(samples=[(result.n_rows, watch.wall)])
    unit.account(result)
    unit.attempted += 1
    unit.digest = digest(
        *(measured.column(name) for name in MEASURED_COLUMNS), text
    )
    return unit


def measure_btsapp(seed: int, sizes: Dict, workdir: Path, trace,
                   watch) -> Unit:
    """BTS-APP, the CLI's default test, row by row over fluid TCP: the
    per-row path, with the session bank bypassed.

    The quantile rows are measured as ``campaigns`` campaigns, campaign
    ``k`` taking every ``campaigns``-th row from the ``k``-th on, so
    every step is short and has the same cost mix.
    """
    unit = Unit()
    store_path = workdir / "store"
    with watch.step():
        contexts = _contexts(sizes, seed, trace)
        rows = bandwidth_quantile_rows(contexts, sizes["tests"])
    position = np.arange(len(rows)) % sizes["campaigns"]
    run_ids, n_rows = [], 0
    for k in range(sizes["campaigns"]):
        with watch.step(), trace.span("harness.parallel.fanout"):
            result = run_campaign(rows.filter(position == k), CampaignConfig(
                seed=seed + k,
                test="bts-app",
                mode="auto",
                n_shards=1,
                store_path=store_path,
            ))
        unit.account(result)
        run_ids.append(result.store_run_id)
        n_rows += result.n_rows
    with watch.step(), RunStore.open(store_path) as store:
        measured = [store.load_dataset(run_id) for run_id in run_ids]
    unit.samples.append((n_rows, watch.wall))
    unit.digest = digest(*(
        run.column(name) for run in measured for name in MEASURED_COLUMNS
    ))
    return unit


def measure_small(seed: int, sizes: Dict, workdir: Path, trace,
                  watch) -> Unit:
    """Back-to-back 48-row sharded campaigns committing to one store:
    fixed per-run cost (fork, subset, manifest, WAL commit)."""
    unit = Unit()
    store_path = workdir / "store"
    with watch.step():
        contexts = _contexts(sizes, seed, trace)
    run_ids = []
    for first in range(0, sizes["campaigns"], CAMPAIGNS_PER_STEP):
        with watch.step():
            for k in range(first, min(first + CAMPAIGNS_PER_STEP,
                                      sizes["campaigns"])):
                config = CampaignConfig(
                    seed=seed + k,
                    max_tests=sizes["tests"],
                    test="swiftest-loopback",
                    mode="auto",
                    n_shards=2,
                    store_path=store_path,
                )
                started = time.perf_counter()
                with trace.span("harness.parallel.fanout"):
                    result = run_campaign(contexts, config)
                unit.samples.append(
                    (result.n_rows, time.perf_counter() - started)
                )
                unit.account(result)
                run_ids.append(result.store_run_id)
    with watch.step(), RunStore.open(store_path) as store:
        committed = {run.run_id for run in store.list_runs()}
        if committed != set(run_ids):
            raise RuntimeError(
                f"store holds {len(committed)} runs, expected {len(run_ids)}"
            )
        bandwidth = [
            store.load_dataset(run_id).column("bandwidth_mbps")
            for run_id in run_ids
        ]
    unit.digest = digest(*bandwidth)
    return unit


@dataclass(frozen=True)
class Workload:
    """One workload: its unit, sizes, and the conditions it runs under."""

    run: Callable[..., Unit]
    sizes: Dict[str, Dict[str, int]]
    test: Optional[str] = None
    mode: Optional[str] = None
    n_shards: Optional[int] = None


#: Workloads by name; ``sizes`` holds the ``full`` and ``smoke`` shapes.
WORKLOADS: Dict[str, Workload] = {
    "study-ooc": Workload(
        study_ooc,
        {"full": {"rows_per_month": 125_000},
         "smoke": {"rows_per_month": 10_000}},
    ),
    "measure-swiftest": Workload(
        measure_swiftest,
        {"full": {"contexts": 10_000, "tests": 5_000},
         "smoke": {"contexts": 1_000, "tests": 200}},
        test="swiftest-loopback", mode="auto", n_shards=1,
    ),
    "measure-btsapp": Workload(
        measure_btsapp,
        {"full": {"contexts": 20_000, "tests": 20, "campaigns": 4},
         "smoke": {"contexts": 1_000, "tests": 2, "campaigns": 2}},
        test="bts-app", mode="auto", n_shards=1,
    ),
    "measure-small": Workload(
        measure_small,
        {"full": {"contexts": 2_000, "campaigns": 20, "tests": 48},
         "smoke": {"contexts": 500, "campaigns": 2, "tests": 48}},
        test="swiftest-loopback", mode="auto", n_shards=2,
    ),
}


def warm_up() -> None:
    """Pay one-time costs before timing: a 2k-row generate, an 8-row
    banked campaign, and a 2-row BTS-APP campaign (which imports
    ``scipy.signal`` lazily)."""
    contexts = generate_campaign(
        GenerationConfig(year=2021, n_tests=2_000, seed=1)
    )
    run_campaign(contexts, CampaignConfig(
        seed=1, max_tests=8, test="swiftest-loopback"
    ))
    run_campaign(contexts, CampaignConfig(seed=1, max_tests=2, test="bts-app"))
