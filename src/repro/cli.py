"""Command-line interface.

The subcommands cover the library's main workflows::

    repro generate --n-tests 50000 --out campaign.csv [--year 2021] \\
        [--chunk-size N] [--home-path] [--store runs/ --store-month aug]
    repro analyze campaign.csv
    repro measure campaign.csv --tests 200 --out measured.csv \\
        --checkpoint run.ckpt [--resume] [--shards 8] [--test NAME] \\
        [--mode oracle|vectorized|auto]
    repro speedtest --bandwidth 320 --tech 5G [--campaign campaign.csv]
    repro plan --tests-per-day 10000 [--campaign campaign.csv]
    repro fleet-day --users 100000 --hours 24 --seed 7 \\
        [--blackout Beijing:8:10] [--manifest fleet.manifest.json]
    repro runs ls --store runs/ [--kind campaign] [--month aug]
    repro runs show RUN_ID --store runs/
    repro runs diff RUN_A RUN_B --store runs/
    repro runs compare --store runs/ --months aug,nov [--tech 4G]
    repro store fsck --store runs/ [--repair] [--json]

Everything runs against the simulator; no network access is needed.
The module is also importable: each ``cmd_*`` function takes parsed
arguments and returns an exit code, so tests drive it directly.

``repro measure`` packs its flags into one frozen
:class:`repro.harness.config.CampaignConfig` and hands it to
:func:`repro.harness.parallel.run_campaign`, the one campaign driver,
whatever ``--shards`` says; the bandwidth test is a name in the
registry (:func:`repro.core.variants.create_bandwidth_test`).
``--shards`` caps the worker processes; the run forks only as many as
its rows pay for, and says how many it forked.  (The
*generation* config of :mod:`repro.dataset.generator` is a different,
older class that shares the name — it is imported here under the
``GenerationConfig`` alias.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.analysis import figures
from repro.core.registry import BandwidthModelRegistry
from repro.core.variants import bandwidth_test_names, create_bandwidth_test
from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.dataset.records import Dataset
from repro.deploy.planner import flooding_reference_cost, plan_deployment
from repro.deploy.plans import onevendor_catalogue
from repro.deploy.workload import estimate_workload

#: Technologies the CLI fits models for by default.
_MODEL_TECHS = ["4G", "5G", "WiFi4", "WiFi5", "WiFi6"]


def _load_or_generate(path: Optional[str], tests: int, seed: int) -> Dataset:
    if path:
        return Dataset.load(path)
    return generate_campaign(
        GenerationConfig(year=2021, n_tests=tests, seed=seed)
    )


# -- subcommands -----------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a campaign with the paper-scale chunked engine.

    The ``.npd`` format and ``--store`` take the out-of-core path:
    chunks stream from the generator straight into the columnar
    writer / catalog ingest, and the per-tech stats fold through
    :class:`~repro.analysis.streams.GroupReduceStream`, so peak memory
    is O(chunk) no matter how many rows are generated.  The printed
    stats are bit-identical between the two paths.
    """
    import time

    from repro.dataset.generator import DEFAULT_CHUNK_SIZE

    if args.chunk_size is not None and args.chunk_size <= 0:
        print(f"error: --chunk-size must be positive, got {args.chunk_size}",
              file=sys.stderr)
        return 2
    if args.store_month and not args.store:
        print("error: --store-month needs --store", file=sys.stderr)
        return 2
    if args.format == "npd" and not (args.out or args.store):
        print("error: --format npd needs --out or --store", file=sys.stderr)
        return 2
    try:
        config = GenerationConfig(
            year=args.year, n_tests=args.n_tests, seed=args.seed,
            home_path=args.home_path,
        )
    except ValueError as exc:  # an out-of-range --n-tests or --seed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    chunk_size = args.chunk_size or DEFAULT_CHUNK_SIZE
    out = args.out
    fmt = args.format
    if fmt and out:  # explicit format wins over the suffix
        wanted = "." + fmt
        # Suffix dispatch is case-insensitive (matching
        # Dataset.save): "data.NPZ" already counts as .npz.
        if not out.lower().endswith(wanted):
            out += wanted
    elif out and not fmt:
        for suffix in ("csv", "npz", "npd"):
            if out.lower().endswith("." + suffix):
                fmt = suffix
                break
    streaming = fmt == "npd" or (args.store and not out)

    def _print_stats(n_rows: int, elapsed: float, per_tech) -> None:
        print(f"generated {n_rows} tests in {elapsed:.2f}s "
              f"({n_rows / elapsed:,.0f} rows/s, "
              f"chunk size {chunk_size}, seed {args.seed})")
        for tech, (mean, n) in sorted(per_tech.items()):
            print(f"  {tech:6s} n={n:7d}  mean {mean:7.1f} Mbps")

    def _manifest() -> dict:
        return {
            "kind": "campaign",
            "seed": args.seed,
            "created_unix_s": time.time(),
            "run": {
                "n_rows": args.n_tests,
                "year": args.year,
                "chunk_size": chunk_size,
            },
        }

    if streaming:
        from repro.analysis.streams import GroupReduceStream
        from repro.dataset.generator import iter_campaign_chunks

        stats = GroupReduceStream()
        counted = 0

        def tee():
            nonlocal counted
            for chunk in iter_campaign_chunks(config, chunk_size=chunk_size):
                stats.update(chunk["tech"], chunk["bandwidth_mbps"])
                counted += len(chunk["bandwidth_mbps"])
                yield chunk

        run_id = None
        start = time.perf_counter()
        if out:
            from repro.dataset.ooc import write_npd

            write_npd(out, tee())
            if args.store:
                from repro.store import RunStore

                with RunStore.open(args.store) as store:
                    run_id = store.ingest_run(
                        _manifest(), Dataset.open_mapped(out),
                        label=args.label or "", month=args.store_month,
                    )
        else:
            from repro.store import RunStore

            with RunStore.open(args.store) as store:
                run_id = store.ingest_chunks(
                    _manifest(), tee(),
                    label=args.label or "", month=args.store_month,
                )
        elapsed = time.perf_counter() - start
        _print_stats(counted, elapsed, stats.result_dict())
        if out:
            print(f"wrote {out}")
        if run_id:
            print(f"stored run {run_id} in {args.store}")
        return 0

    start = time.perf_counter()
    dataset = generate_campaign(config, chunk_size=chunk_size)
    elapsed = time.perf_counter() - start
    per_tech = {
        tech: (mean, dataset.group_counts("tech")[tech])
        for tech, mean in dataset.group_mean_bandwidth("tech").items()
    }
    _print_stats(len(dataset), elapsed, per_tech)
    if out:
        dataset.save(out)
        print(f"wrote {out}")
    if args.store:
        from repro.store import RunStore

        with RunStore.open(args.store) as store:
            run_id = store.ingest_run(
                _manifest(), dataset,
                label=args.label or "", month=args.store_month,
            )
        print(f"stored run {run_id} in {args.store}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the headline §3 analyses on a campaign."""
    dataset = Dataset.load(args.campaign)
    print(f"loaded {len(dataset)} tests from {args.campaign}\n")

    print("4G distribution (paper: median 22 / mean 53):")
    lte = figures.fig04_lte_cdf(dataset)
    print(f"  median {lte['median']:.1f}  mean {lte['mean']:.1f}  "
          f"<10 Mbps {lte['below_10_mbps'] * 100:.1f}%  "
          f">300 Mbps {lte['above_300_mbps'] * 100:.1f}%\n")

    print("5G per band (paper: N1 103 / N28 113 / N41 312 / N78 332):")
    for band, mean in sorted(figures.fig08_nr_band_bandwidth(dataset).items()):
        print(f"  {band:4s} {mean:7.1f} Mbps")
    print()

    print("5G by RSS level (paper: rises 1-4, drops at 5):")
    for level, mean in sorted(figures.fig12_rss_bandwidth(dataset).items()):
        print(f"  level {level}: {mean:7.1f} Mbps")
    print()

    print("WiFi generations (paper: 59 / 208 / 345):")
    for tech, summary in figures.fig13_wifi_cdfs(dataset).items():
        print(f"  {tech:5s} mean {summary.mean:7.1f}  median "
              f"{summary.median:7.1f} Mbps")

    prevalence = figures.fig_bottleneck_prevalence(dataset)
    if prevalence["by_standard"]:
        print()
        print("Home-path bottleneck prevalence (ground truth):")
        for tech, shares in prevalence["by_standard"].items():
            print(f"  {tech:5s} air {shares['air'] * 100:5.1f}%  "
                  f"plan {shares['plan'] * 100:5.1f}%  "
                  f"contention {shares['contention'] * 100:5.1f}%")
        by_rss = prevalence["by_rss"]
        if by_rss:
            pretty = "  ".join(
                f"L{level}:{by_rss[level]['air'] * 100:.0f}%"
                for level in sorted(by_rss)
            )
            print(f"  air-limited share by RSS level: {pretty}")
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    """Re-measure a campaign through a real BTS under supervision."""
    from repro.harness.config import CampaignConfig, RetryPolicy
    from repro.harness.parallel import run_campaign
    from repro.harness.runtime import CorruptCheckpointError

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.salvage and not args.resume:
        print("error: --salvage only makes sense with --resume",
              file=sys.stderr)
        return 2
    if args.test not in bandwidth_test_names():
        print(f"error: unknown test {args.test!r} "
              f"(have {bandwidth_test_names()})", file=sys.stderr)
        return 2
    contexts = Dataset.load(args.campaign)
    try:
        config = CampaignConfig(
            seed=args.seed,
            max_tests=args.tests,
            test=args.test,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            n_shards=args.shards,
            manifest_path=args.manifest,
            store_path=args.store,
            store_month=args.store_month,
            mode=args.mode,
        )
        report = run_campaign(
            contexts, config, resume=args.resume, salvage=args.salvage
        )
    except CorruptCheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # An out-of-range flag (--tests, --shards, --max-attempts,
        # --checkpoint-every, --seed), --mode vectorized with a test
        # no bank can batch, or a context whose bandwidth is not
        # positive and finite (a blank CSV cell loads as NaN).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.workers:
        print(f"sharded across {report.workers} worker(s)")
    elif config.n_shards > 1:
        print(f"in-process: too few rows for {config.n_shards} shards "
              f"to pay for a worker")
    if report.resumed_rows:
        print(f"resumed {report.resumed_rows} row(s) from {args.checkpoint}")
    print(f"measured {report.n_measured}/{report.n_rows} rows "
          f"({report.retries} retries, "
          f"{report.backoff_wait_s:.1f}s backoff accounted)")
    if report.attribution and report.attribution.get("n_attributed"):
        attribution = report.attribution
        shares = "  ".join(
            f"{name} {share * 100:.1f}%"
            for name, share in attribution["shares"].items()
        )
        print(f"bottleneck attribution ({attribution['n_attributed']:,} "
              f"rows): {shares}")
        if attribution.get("agreement") is not None:
            print(f"  agreement with simulated ground truth: "
                  f"{attribution['agreement'] * 100:.1f}%")
    for row in report.quarantined:
        detail = row.error or row.outcome
        print(f"  quarantined test {row.test_id}: "
              f"{detail} after {row.attempts} attempt(s)")
    manifest_path = config.resolved_manifest_path()
    if manifest_path is not None:
        print(f"manifest {manifest_path}")
    if report.store_run_id is not None:
        print(f"stored run {report.store_run_id} in {args.store}")
    if report.dataset is None:
        print("error: every row was quarantined", file=sys.stderr)
        return 1
    if args.out:
        report.dataset.to_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Pretty-print the metric snapshot inside a run manifest."""
    from repro.obs.manifest import ManifestError, load_manifest

    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run = manifest.get("run", {})
    versions = manifest.get("versions", {})
    print(f"manifest {args.manifest} "
          f"(schema v{manifest.get('manifest_version')}, "
          f"kind {manifest.get('kind', '?')})")
    print(f"  seed {manifest.get('seed')}  "
          f"test {manifest.get('config', {}).get('test', '?')}  "
          f"shards {run.get('n_shards', '?')}  "
          f"workers {run.get('workers', '?')}  "
          f"repro {versions.get('repro', '?')}"
          + (f"  git {versions['git']}" if versions.get("git") else ""))
    if run:
        rows_per_s = run.get("rows_per_s")
        rate = f"  ({rows_per_s:,.1f} rows/s)" if rows_per_s else ""
        print(f"  rows {run.get('n_measured')}/{run.get('n_rows')} measured, "
              f"{run.get('n_quarantined')} quarantined, "
              f"{run.get('retries')} retries, "
              f"{run.get('resumed_rows')} resumed{rate}")
    outcomes = manifest.get("outcomes", {})
    if outcomes:
        print("\noutcomes")
        for name in sorted(outcomes):
            print(f"  {name:24s} {outcomes[name]:>10d}")
    shards = manifest.get("shards") or []
    if shards:
        print("\nshards")
        print(f"  {'id':>3s} {'rows':>7s} {'retries':>8s} "
              f"{'quarantined':>12s} {'rows/s':>9s}")
        for shard in shards:
            rate = shard.get("rows_per_s")
            rate_cell = f"{rate:9.1f}" if rate is not None else f"{'-':>9s}"
            print(f"  {shard['shard_id']:3d} {shard['rows']:7d} "
                  f"{shard['retries']:8d} {shard['quarantined']:12d} "
                  f"{rate_cell}")
    metrics = manifest.get("metrics", {})
    counters = {n: e for n, e in metrics.items() if e.get("kind") == "counter"}
    gauges = {n: e for n, e in metrics.items() if e.get("kind") == "gauge"}
    histograms = {
        n: e for n, e in metrics.items() if e.get("kind") == "histogram"
    }
    if counters:
        print("\ncounters")
        for name in sorted(counters):
            print(f"  {name:40s} {counters[name]['value']:>12d}")
    if gauges:
        print("\ngauges")
        for name in sorted(gauges):
            print(f"  {name:40s} {gauges[name]['value']:>12.2f}")
    if histograms:
        print("\nhistograms")
        print(f"  {'name':40s} {'count':>8s} {'mean':>10s} "
              f"{'min':>10s} {'max':>10s}")
        for name in sorted(histograms):
            entry = histograms[name]
            count = entry["count"]
            mean = entry["sum"] / count if count else float("nan")
            lo = entry.get("min")
            hi = entry.get("max")
            print(f"  {name:40s} {count:>8d} {mean:>10.4f} "
                  f"{lo if lo is not None else float('nan'):>10.4f} "
                  f"{hi if hi is not None else float('nan'):>10.4f}")
    if not metrics:
        print("\n(no metrics recorded)")
    return 0


def cmd_speedtest(args: argparse.Namespace) -> int:
    """Run one simulated bandwidth test (Swiftest vs BTS-APP)."""
    from repro.testbed.env import make_environment

    dataset = _load_or_generate(args.campaign, tests=20_000, seed=args.seed)
    registry = BandwidthModelRegistry().fit_from_dataset(
        dataset, techs=_MODEL_TECHS, rng=np.random.default_rng(0)
    )
    if not registry.has_model(args.tech):
        print(f"error: no model for {args.tech!r} "
              f"(have {registry.technologies()})", file=sys.stderr)
        return 1

    env = make_environment(
        args.bandwidth, rng=np.random.default_rng(args.seed),
        tech=args.tech, server_capacity_mbps=100.0,
        fluctuation_sigma=0.04,
    )
    result = create_bandwidth_test("swiftest", registry=registry).run(env)
    print(f"swiftest: {result.bandwidth_mbps:7.1f} Mbps  "
          f"{result.duration_s:.2f}s (+{result.ping_s:.2f}s ping)  "
          f"{result.data_mb:.1f} MB  "
          f"rungs {[round(r) for r in result.rungs_visited]}")
    if args.compare:
        env_legacy = make_environment(
            args.bandwidth, rng=np.random.default_rng(args.seed),
            tech=args.tech, n_servers=5, server_capacity_mbps=1000.0,
            fluctuation_sigma=0.04,
        )
        legacy = create_bandwidth_test("bts-app").run(env_legacy)
        print(f"bts-app : {legacy.bandwidth_mbps:7.1f} Mbps  "
              f"{legacy.duration_s:.2f}s (+{legacy.ping_s:.2f}s ping)  "
              f"{legacy.data_mb:.1f} MB")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a full text report (with terminal plots) for a campaign."""
    from repro.analysis.plots import bar_chart
    from repro.analysis.report import campaign_report

    dataset = Dataset.load(args.campaign)
    print(campaign_report(dataset, title=f"Campaign: {args.campaign}"))
    nr = dataset.where(tech="5G")
    if len(nr):
        print("\n5G per band")
        print("-" * 64)
        print(bar_chart(
            dict(sorted(nr.group_mean_bandwidth("band").items())), width=36
        ))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Plan a cost-effective server deployment (§5.2)."""
    dataset = _load_or_generate(args.campaign, tests=20_000, seed=args.seed)
    workload = estimate_workload(
        dataset.bandwidth,
        tests_per_day=args.tests_per_day,
        mean_test_duration_s=args.duration,
        rng=np.random.default_rng(args.seed),
    )
    print(f"workload: mean {workload.mean_demand_mbps:.1f} Mbps, "
          f"P{workload.quantile * 100:.1f} {workload.required_mbps:.0f} Mbps")
    catalogue = onevendor_catalogue()
    deployment = plan_deployment(
        catalogue, workload.required_mbps * args.headroom
    )
    print(f"plan: {deployment.total_servers} servers / "
          f"{deployment.total_capacity_mbps:.0f} Mbps / "
          f"${deployment.total_cost_usd:,.2f} per month")
    for domain in sorted(deployment.placement.assignments):
        servers = deployment.placement.assignments[domain]
        if servers:
            pretty = ", ".join(f"{bw:.0f}M" for _, bw in servers)
            print(f"  {domain:10s} {pretty}")
    reference = flooding_reference_cost(catalogue)
    print(f"flooding reference (50 x 1 Gbps): ${reference:,.2f} "
          f"({reference / deployment.total_cost_usd:.1f}x more)")
    return 0


def _parse_blackouts(specs: List[str]) -> List[tuple]:
    """``Beijing:8:10`` (hours) → ``("Beijing", 28800.0, 36000.0)``."""
    blackouts = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"blackout must be DOMAIN:START_H:END_H, got {spec!r}"
            )
        domain, start_h, end_h = parts
        blackouts.append(
            (domain, float(start_h) * 3600.0, float(end_h) * 3600.0)
        )
    return blackouts


def cmd_fleet_day(args: argparse.Namespace) -> int:
    """Simulate a full fleet day of operations (arrivals, outages,
    SLO shedding, online re-planning)."""
    from repro.fleet.simulator import FleetDayConfig, run_fleet_day
    from repro.obs.manifest import (
        ManifestError,
        verify_fleet_accounting,
        write_manifest,
    )

    try:
        blackouts = _parse_blackouts(args.blackout or [])
        config = FleetDayConfig(
            users=args.users,
            hours=args.hours,
            seed=args.seed,
            workers=args.workers,
            tests_per_user_day=args.tests_per_user,
            slo_wait_s=args.slo_wait,
            blackouts=tuple(blackouts),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report, manifest = run_fleet_day(
        config, store_path=args.store, store_month=args.store_month
    )

    print(f"fleet day: {args.users:,} users, {args.hours}h, seed {args.seed}"
          + (f", {len(blackouts)} regional outage(s)" if blackouts else ""))
    print(f"  admitted  {report.admitted:>10,}")
    print(f"  completed {report.completed:>10,}")
    print(f"  degraded  {report.degraded:>10,}")
    print(f"  rejected  {report.rejected:>10,}")
    print(f"  failed    {report.failed:>10,}")
    print(f"  SLO violations {report.slo_violations:,}  "
          f"failovers {report.failovers:,}  "
          f"breaker trips {report.breaker_trips:,}")
    print(f"  replans {report.replans}  bought {report.servers_bought}  "
          f"retired {report.servers_retired}  "
          f"infeasible {report.infeasible_replans}")
    if report.queue_wait_p50_s is not None:
        print(f"  queue wait p50 {report.queue_wait_p50_s:.3f}s  "
              f"p99 {report.queue_wait_p99_s:.3f}s")
    print(f"  peak demand {report.peak_demand_mbps:,.0f} Mbps  "
          f"final capacity {report.final_capacity_mbps:,.0f} Mbps  "
          f"${report.cost_per_hour_usd:.4f}/h")
    print(f"  {report.events_processed:,} events in {report.elapsed_s:.2f}s")
    if args.manifest:
        write_manifest(args.manifest, manifest)
        print(f"manifest {args.manifest}")
    if report.store_run_id is not None:
        print(f"stored run {report.store_run_id} in {args.store}")
    try:
        verify_fleet_accounting(manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("accounting balanced: admitted == "
          "completed + degraded + rejected + failed")
    return 0


# -- run store --------------------------------------------------------------


def _store_months():
    from repro.store import MONTHS

    return MONTHS


def _open_store(args: argparse.Namespace):
    """Open the catalog at ``args.store`` for querying, or complain.

    Read-side commands refuse to *create* a store: a typo'd path
    should error, not silently materialise an empty catalog.
    """
    from pathlib import Path

    from repro.store import RunStore

    root = Path(args.store)
    if not root.is_dir():
        print(f"error: no run store at {root} "
              f"(create one by measuring with --store)", file=sys.stderr)
        return None
    return RunStore.open(root)


def _iso(unix_s: float) -> str:
    import time as _time

    return _time.strftime("%Y-%m-%d %H:%M", _time.gmtime(unix_s))


def cmd_runs_ls(args: argparse.Namespace) -> int:
    """List the catalog's committed runs, newest first."""
    store = _open_store(args)
    if store is None:
        return 2
    with store:
        runs = store.list_runs(kind=args.kind, month=args.month)
        if not runs:
            print("no runs" + (f" of kind {args.kind!r}" if args.kind else "")
                  + (f" in month {args.month!r}" if args.month else ""))
            return 0
        print(f"{'run':12s} {'kind':10s} {'month':5s} {'created (UTC)':16s} "
              f"{'rows':>7s} {'meas.':>7s} {'mean Mbps':>10s}  label")
        for run in runs:
            mean = f"{run.mean_mbps:10.1f}" if run.mean_mbps is not None \
                else f"{'-':>10s}"
            rows = f"{run.n_rows:7d}" if run.n_rows is not None else f"{'-':>7s}"
            meas = f"{run.n_measured:7d}" if run.n_measured is not None \
                else f"{'-':>7s}"
            print(f"{run.short_id:12s} {run.kind:10s} {run.month:5s} "
                  f"{_iso(run.created_unix_s):16s} {rows} {meas} {mean}  "
                  f"{run.label}")
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    """Show one run: index row, payload checksums, manifest summary.

    The dataset schema comes from the payload *headers* (npz central
    directory / npd metadata) — no column data is read, so showing a
    10M-row run is as cheap as a 10-row one.  ``--columns`` opts into
    reading just the named columns for a summary.
    """
    from repro.store import RunNotFoundError, StoreError

    store = _open_store(args)
    if store is None:
        return 2
    with store:
        try:
            run = store.get_run(args.run_id)
            manifest = store.load_manifest(run.run_id)
        except RunNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"run {run.run_id}  ({run.kind}, month {run.month})")
        print(f"  created {_iso(run.created_unix_s)} UTC  "
              f"seed {run.seed}  label {run.label or '-'}")
        if run.n_rows is not None:
            rows = (f"{run.n_measured}/{run.n_rows} measured"
                    if run.n_measured is not None else f"{run.n_rows}")
            print(f"  rows {rows}"
                  + (f"  mean {run.mean_mbps:.1f} Mbps"
                     if run.mean_mbps is not None else ""))
        print("  files")
        for name in sorted(run.files):
            entry = run.files[name]
            print(f"    {name:24s} {entry['bytes']:>10d} B  "
                  f"sha256 {entry['sha256'][:16]}…")
        if run.has_dataset:
            try:
                schema = store.dataset_schema(run.run_id)
            except StoreError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(f"  dataset  layout {schema['layout']}  "
                  f"rows {schema['n_rows']}")
            for name, descr in schema["columns"].items():
                print(f"    {name:16s} {descr}")
        outcomes = manifest.get("outcomes", {})
        if outcomes:
            print("  outcomes")
            for key in sorted(outcomes):
                print(f"    {key:24s} {outcomes[key]:>10d}")
        if args.columns:
            names = [c.strip() for c in args.columns.split(",") if c.strip()]
            try:
                columns = store.load_columns(run.run_id, names)
            except StoreError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print("  columns")
            for name in names:
                values = np.asarray(columns[name])
                if len(values) == 0:
                    print(f"    {name:16s} (empty)")
                elif values.dtype.kind in "fiu":
                    print(f"    {name:16s} min {values.min():.3f}  "
                          f"mean {values.mean():.3f}  "
                          f"max {values.max():.3f}")
                else:
                    uniques = np.unique(values.astype("U"))
                    shown = ", ".join(uniques[:8].tolist())
                    more = ("" if len(uniques) <= 8
                            else f", … ({len(uniques)} distinct)")
                    print(f"    {name:16s} {shown}{more}")
    return 0


def cmd_runs_diff(args: argparse.Namespace) -> int:
    """Field-level diff of two catalog runs."""
    from repro.store import RunNotFoundError, StoreError

    store = _open_store(args)
    if store is None:
        return 2
    with store:
        try:
            diff = store.diff_runs(args.run_a, args.run_b)
        except (RunNotFoundError, StoreError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not diff:
            print(f"runs {args.run_a} and {args.run_b} are identical "
                  f"on every compared field")
            return 0
        print(f"{'field':24s} {'a=' + args.run_a:>16s} "
              f"{'b=' + args.run_b:>16s}")
        for field in sorted(diff):
            entry = diff[field]
            print(f"{field:24s} {str(entry['a']):>16s} "
                  f"{str(entry['b']):>16s}")
    return 0


def cmd_runs_compare(args: argparse.Namespace) -> int:
    """The paper's longitudinal decline analysis over the catalog."""
    from repro.store import StoreError, compare_months

    months = [m.strip().lower() for m in args.months.split(",") if m.strip()]
    store = _open_store(args)
    if store is None:
        return 2
    with store:
        try:
            result = compare_months(
                store, months, tech=args.tech,
                min_group_tests=args.min_group_tests, kind=args.kind,
            )
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    before_month, after_month = result["months"]
    print(f"{result['tech']} bandwidth, {before_month} -> {after_month} "
          f"(paper §3.1: 68 -> 53 Mbps, -22%)")
    print(f"  {before_month}: {result['mean_before_mbps']:7.1f} Mbps "
          f"over {result['n_before']:,} tests")
    print(f"  {after_month}: {result['mean_after_mbps']:7.1f} Mbps "
          f"over {result['n_after']:,} tests")
    print(f"  decline {result['decline'] * 100:+.1f}%")
    groups = result["groups"]
    if groups is None:
        print(f"  (no matched (ISP, city-tier) group reaches "
              f"{args.min_group_tests} tests in both months; "
              f"means-only comparison)")
    else:
        print(f"  matched groups: {groups['n_groups']} "
              f"(mean decline {groups['mean'] * 100:+.1f}%, "
              f"range {groups['min'] * 100:+.1f}%..{groups['max'] * 100:+.1f}%, "
              f"{groups['declining_share'] * 100:.0f}% declining)")
    return 0


def cmd_store_fsck(args: argparse.Namespace) -> int:
    """Check (and with --repair, heal) a run store.

    Exit codes follow fsck convention: 0 the store is clean, 1 damage
    was found and fully repaired, 2 damage remains (run again with
    --repair, or the store needs manual attention).
    """
    import json as json_mod

    from pathlib import Path

    from repro.store import fsck

    root = Path(args.store)
    if not root.is_dir():
        print(f"error: no run store at {root}", file=sys.stderr)
        return 2
    report = fsck(root, repair=args.repair)
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        mode = "repair" if args.repair else "check"
        print(f"fsck ({mode}) {root}: {report.checked_runs} run(s), "
              f"{report.verified_files} payload file(s) verified")
        for finding in report.findings:
            who = f" [{finding.run_id}]" if finding.run_id else ""
            print(f"  {finding.kind}{who}: {finding.detail} "
                  f"-> {finding.action}")
        if report.clean:
            print("clean")
    if report.clean:
        return 0
    if report.consistent:
        print(f"repaired {len(report.findings)} finding(s); store is "
              f"consistent")
        return 1
    print("store has unrepaired damage; rerun with --repair",
          file=sys.stderr)
    return 2


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mobile Access Bandwidth in Practice (SIGCOMM'22) "
                    "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser(
        "generate",
        help="generate a campaign with the paper-scale chunked engine",
    )
    p.add_argument("--n-tests", type=int, default=1_000_000,
                   help="campaign size in rows")
    p.add_argument("--year", type=int, default=2021, choices=(2020, 2021))
    p.add_argument("--seed", type=int, default=20210801)
    p.add_argument("--chunk-size", type=int, default=None,
                   help="rows per streamed chunk (bounds peak memory; "
                        "the output is identical for any value)")
    p.add_argument("--format", choices=("csv", "npz", "npd"),
                   help="output format (default: from --out suffix, "
                        "CSV otherwise); npd streams an out-of-core "
                        "column directory at O(chunk) memory")
    p.add_argument("--out", help="output path (.npz, .csv or .npd)")
    p.add_argument("--store",
                   help="run-store root: the generated campaign is "
                        "streamed into this catalog as an out-of-core "
                        "run (created if missing)")
    p.add_argument("--store-month", choices=_store_months(),
                   help="month label the stored run is filed under "
                        "for 'repro runs compare' (default: current "
                        "month)")
    p.add_argument("--label", help="free-form label for the stored run")
    p.add_argument("--home-path", action="store_true",
                   help="model WiFi rows as a two-hop home path "
                        "(RSS-degraded air link, LAN cross traffic, "
                        "ground-truth bottleneck labels)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="run the §3 analyses on a campaign")
    p.add_argument("campaign", help="campaign file (.csv or .npz)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "measure",
        help="re-measure a campaign through a BTS (supervised: retries, "
             "quarantine, checkpoint/resume)",
    )
    p.add_argument("campaign", help="CSV produced by 'repro generate'")
    p.add_argument("--tests", type=int, default=None,
                   help="cap on rows to measure (subsampled by --seed)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path for the measured rows")
    p.add_argument("--checkpoint",
                   help="checkpoint file: progress is flushed here and "
                        "--resume continues an interrupted run")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint if it exists")
    p.add_argument("--checkpoint-every", type=int, default=100,
                   help="finished rows between checkpoint flushes "
                        "(a bank of rows flushes once, when it "
                        "finishes)")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="tries per row before quarantining it")
    p.add_argument("--shards", type=int, default=1,
                   help="at most this many worker processes: a run "
                        "forks only as many as its rows pay for "
                        "(results are identical for any count)")
    p.add_argument("--test", default="bts-app",
                   help="registry name of the bandwidth test to run "
                        "per row")
    p.add_argument("-M", "--manifest",
                   help="write the run manifest (metrics, outcome "
                        "counts, per-shard stats) here; defaults to "
                        "<checkpoint>.manifest.json when --checkpoint "
                        "is set")
    p.add_argument("--salvage", action="store_true",
                   help="with --resume: drop the damaged tail of a "
                        "truncated/corrupt checkpoint and re-measure "
                        "it instead of aborting")
    p.add_argument("--store",
                   help="run-store root: the finished run (manifest + "
                        "dataset) is committed into this crash-safe "
                        "catalog")
    p.add_argument("--store-month", choices=_store_months(),
                   help="month label the stored run is filed under "
                        "for 'repro runs compare' (default: current "
                        "month)")
    p.add_argument("--mode", choices=("oracle", "vectorized", "auto"),
                   default="auto",
                   help="execution mode: 'vectorized' batches rows "
                        "through a lockstep bank (the flood bank for "
                        "bts-app, the session bank for "
                        "swiftest-loopback; errors if the test cannot "
                        "be batched), 'oracle' forces the per-row "
                        "reference engine, 'auto' (default) banks "
                        "whenever it is safe — results are "
                        "byte-identical either way")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser(
        "metrics",
        help="pretty-print the metric snapshot inside a run manifest",
    )
    p.add_argument("manifest",
                   help="manifest JSON written by 'repro measure -M' "
                        "(or next to a checkpoint)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("speedtest", help="run one simulated bandwidth test")
    p.add_argument("--bandwidth", type=float, default=300.0,
                   help="true access capacity in Mbps")
    p.add_argument("--tech", default="5G")
    p.add_argument("--campaign", help="CSV to fit models from (else generated)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compare", action="store_true",
                   help="also run the legacy BTS-APP back to back")
    p.set_defaults(func=cmd_speedtest)

    p = sub.add_parser("report", help="full text report for a campaign")
    p.add_argument("campaign", help="CSV produced by 'repro generate'")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "fleet-day",
        help="simulate a full fleet day (diurnal arrivals, regional "
             "outages, SLO shedding, online re-planning)",
    )
    p.add_argument("--users", type=int, default=100_000,
                   help="user population driving the diurnal demand")
    p.add_argument("--hours", type=int, default=24,
                   help="virtual hours to simulate (1..24)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=1,
                   help="arrival-generation processes (outcomes are "
                        "identical for any worker count)")
    p.add_argument("--tests-per-user", type=float, default=1.0,
                   help="mean daily tests per user")
    p.add_argument("--slo-wait", type=float, default=30.0,
                   help="queue-wait SLO in seconds before a test is "
                        "degraded to a shorter variant")
    p.add_argument("--blackout", action="append", metavar="DOMAIN:START:END",
                   help="regional outage, hours since midnight "
                        "(e.g. Beijing:8:10); repeatable")
    p.add_argument("-M", "--manifest",
                   help="write the schema-v1 fleet manifest here")
    p.add_argument("--store",
                   help="run-store root: the fleet-day manifest is "
                        "committed into this crash-safe catalog")
    p.add_argument("--store-month", choices=_store_months(),
                   help="month label the stored run is filed under")
    p.set_defaults(func=cmd_fleet_day)

    p = sub.add_parser(
        "runs",
        help="query the crash-safe run catalog (see 'measure --store')",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    q = runs_sub.add_parser("ls", help="list committed runs, newest first")
    q.add_argument("--store", required=True, help="run-store root")
    q.add_argument("--kind", help="filter by run kind "
                                  "(campaign, fleet-day, ...)")
    q.add_argument("--month", choices=_store_months(),
                   help="filter by month label")
    q.set_defaults(func=cmd_runs_ls)

    q = runs_sub.add_parser(
        "show", help="show one run's record, checksums and outcomes"
    )
    q.add_argument("run_id", help="run id (unambiguous prefix is enough)")
    q.add_argument("--store", required=True, help="run-store root")
    q.add_argument("--columns", metavar="A,B",
                   help="also read the named dataset columns and "
                        "summarise them (numeric: min/mean/max; "
                        "string: distinct values)")
    q.set_defaults(func=cmd_runs_show)

    q = runs_sub.add_parser("diff", help="field-level diff of two runs")
    q.add_argument("run_a", help="first run id (or prefix)")
    q.add_argument("run_b", help="second run id (or prefix)")
    q.add_argument("--store", required=True, help="run-store root")
    q.set_defaults(func=cmd_runs_diff)

    q = runs_sub.add_parser(
        "compare",
        help="the paper's longitudinal decline analysis (§3.1, Aug->Nov "
             "4G 68->53 Mbps) over the catalog's own runs",
    )
    q.add_argument("--store", required=True, help="run-store root")
    q.add_argument("--months", required=True, metavar="BEFORE,AFTER",
                   help="two month labels, e.g. aug,nov")
    q.add_argument("--tech", default="4G",
                   help="technology to compare (default 4G)")
    q.add_argument("--min-group-tests", type=int, default=40,
                   help="sample-size floor for a matched (ISP, "
                        "city-tier) group")
    q.add_argument("--kind", default="campaign",
                   help="run kind to pool (default campaign)")
    q.set_defaults(func=cmd_runs_compare)

    p = sub.add_parser(
        "store",
        help="maintain a run store (integrity check and repair)",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)

    q = store_sub.add_parser(
        "fsck",
        help="verify journal, index and payload checksums; exit 0 "
             "clean, 1 repaired, 2 damage remains",
    )
    q.add_argument("--store", required=True, help="run-store root")
    q.add_argument("--repair", action="store_true",
                   help="heal what can be healed: replay the journal, "
                        "truncate a torn tail, quarantine corrupt "
                        "entries into <store>/quarantine/")
    q.add_argument("--json", action="store_true",
                   help="print the full fsck report as JSON")
    q.set_defaults(func=cmd_store_fsck)

    p = sub.add_parser("plan", help="plan a server deployment (§5.2)")
    p.add_argument("--tests-per-day", type=int, default=10_000)
    p.add_argument("--duration", type=float, default=1.2,
                   help="mean test duration in seconds")
    p.add_argument("--headroom", type=float, default=2.0,
                   help="provisioning multiple over the P99.9 demand")
    p.add_argument("--campaign", help="CSV to estimate the workload from")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_plan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (head,
        # less); exit quietly like other well-behaved CLIs.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
