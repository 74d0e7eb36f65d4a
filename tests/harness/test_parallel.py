"""run_campaign across shard counts: identity, checkpoint merge,
progress, and how many workers a run forks.

``n_shards`` is an upper bound: a run forks only as many workers as
its executor's rows per worker justify.  Banked loopback campaigns of
a few dozen rows therefore run in-process whatever ``n_shards`` says,
so the tests that exist to exercise real workers reach them through
the per-row engine (``mode="oracle"``, or an unbankable test service)
or through their size, and assert the forked count.  A per-row
loopback row is cheap enough that the loopback's own floor keeps such
runs in-process too; the tests of shard machinery over a few dozen of
them take the per-row engine's floor (``loopback_oracle_forks_early``).
"""

import json
import os

import numpy as np
import pytest

from repro.baselines.common import (
    BandwidthTestService,
    BTSResult,
    TestOutcome,
)
from repro.core.variants import LoopbackSwiftest
from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.dataset.records import SCHEMA, Dataset
from repro.harness.config import CampaignConfig
from repro.harness.parallel import (
    run_campaign,
    shard_checkpoint_path,
    shard_of,
)
from repro.harness.runtime import (
    FLOOD_BANK_ROWS_PER_WORKER,
    PER_ROW_LOOPBACK_ROWS_PER_WORKER,
    PER_ROW_ROWS_PER_WORKER,
    SESSION_BANK_ROWS_PER_WORKER,
    CheckpointError,
)
from repro.obs.manifest import load_manifest


def make_contexts(n_tests):
    return generate_campaign(GenerationConfig(year=2021, n_tests=n_tests,
                                              seed=404))


@pytest.fixture(scope="module")
def contexts():
    return make_contexts(24)


class Fails4G(BandwidthTestService):
    """FAILED on 4G rows — deterministic quarantine, any shard count."""

    name = "loopback-fails-4g"

    def __init__(self):
        self.inner = LoopbackSwiftest()

    def run(self, env):
        if env.tech == "4G":
            return BTSResult(
                service=self.name, bandwidth_mbps=0.0, duration_s=0.0,
                ping_s=0.0, bytes_used=0.0, outcome=TestOutcome.FAILED,
            )
        return self.inner.run(env)


class DiesMidRow(BandwidthTestService):
    """Kills its worker process without reporting — a crash, not an
    error the retry logic can see."""

    name = "loopback-dies"

    def run(self, env):
        os._exit(13)


def datasets_identical(a, b):
    assert len(a) == len(b)
    for name in SCHEMA:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype == np.float64:
            assert np.array_equal(ca, cb, equal_nan=True), name
        else:
            assert np.array_equal(ca, cb), name


def config_with(**kwargs):
    defaults = dict(seed=11, test="swiftest-loopback")
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


def per_row_workers(seed, n_rows, n_shards):
    """Workers a per-row campaign of ``n_rows`` forks: the cap, less
    any shard the hash leaves empty."""
    workers = min(n_shards, n_rows // PER_ROW_ROWS_PER_WORKER)
    if workers <= 1:
        return 0
    forked = len({shard_of(seed, row, workers) for row in range(n_rows)})
    return forked if forked > 1 else 0


# -- shard assignment ---------------------------------------------------


def test_shard_of_is_deterministic_and_in_range():
    for row in range(200):
        k = shard_of(seed=3, row=row, n_shards=8)
        assert 0 <= k < 8
        assert k == shard_of(seed=3, row=row, n_shards=8)


def test_shard_of_depends_on_seed():
    a = [shard_of(1, row, 8) for row in range(64)]
    b = [shard_of(2, row, 8) for row in range(64)]
    assert a != b


def test_shard_of_spreads_rows():
    counts = np.bincount(
        [shard_of(0, row, 4) for row in range(400)], minlength=4
    )
    assert (counts > 0).all()


def test_shard_of_rejects_bad_count():
    with pytest.raises(ValueError):
        shard_of(0, 0, 0)
    with pytest.raises(ValueError, match="seed"):
        shard_of(-1, 0, 2)


def test_shard_of_keeps_signed_64_bit_assignments():
    """Seeds below 2**63 keep the shards they got when the hash packed
    the seed as a signed 64-bit integer."""
    pinned = {
        0: [5, 3, 0, 6, 7, 1, 2, 4],
        11: [0, 6, 5, 3, 2, 4, 7, 1],
        20220801: [7, 1, 2, 4, 5, 3, 0, 6],
        2**63 - 1: [0, 6, 5, 3, 2, 4, 7, 1],
    }
    for seed, shards in pinned.items():
        assert [shard_of(seed, row, 8) for row in range(8)] == shards
    assert shard_of(np.int64(11), 2, 8) == 5


@pytest.mark.usefixtures("loopback_oracle_forks_early")
@pytest.mark.parametrize("seed", [2**63, 2**70, 2**128 - 1])
def test_seeds_past_int64_shard_like_any_other(contexts, seed):
    serial = run_campaign(contexts, config_with(seed=seed))
    sharded = run_campaign(
        contexts, config_with(seed=seed, n_shards=2, mode="oracle")
    )
    assert sharded.workers == 2
    datasets_identical(serial.dataset, sharded.dataset)


# -- determinism across shard counts ------------------------------------


@pytest.fixture(scope="module")
def reference(contexts, tmp_path_factory):
    """In-process per-row run (``mode='oracle'``) with its checkpoint."""
    ck = tmp_path_factory.mktemp("reference") / "run.ckpt"
    report = run_campaign(
        contexts, config_with(mode="oracle", checkpoint_path=ck)
    )
    return report, json.loads(ck.read_text())


@pytest.mark.usefixtures("loopback_oracle_forks_early")
@pytest.mark.parametrize("n_shards", [1, 2, 8])
def test_shard_count_never_changes_results(contexts, reference, tmp_path,
                                           n_shards):
    """The acceptance property: any shard count yields the reference
    run's dataset bytes, quarantine set, accounted backoff, attribution
    summary and checkpoint contents.  One shard runs the session bank
    in-process; more fork per-row workers."""
    expected, expected_checkpoint = reference
    ck = tmp_path / "run.ckpt"
    mode = "auto" if n_shards == 1 else "oracle"
    report = run_campaign(
        contexts,
        config_with(n_shards=n_shards, checkpoint_path=ck, mode=mode),
    )
    assert report.workers == per_row_workers(11, len(contexts), n_shards)
    datasets_identical(expected.dataset, report.dataset)
    assert np.array_equal(report.dataset.column("bottleneck_attr"),
                          expected.dataset.column("bottleneck_attr"))
    assert report.quarantined == expected.quarantined
    assert report.backoff_wait_s == expected.backoff_wait_s
    assert report.retries == expected.retries
    assert report.attribution == expected.attribution
    assert json.loads(ck.read_text()) == expected_checkpoint


def test_quarantine_is_shard_invariant(contexts, registered_test):
    test = registered_test(Fails4G.name, Fails4G)
    reports = {
        n: run_campaign(contexts, config_with(test=test, n_shards=n))
        for n in (1, 2, 8)
    }
    for n, report in reports.items():
        assert report.workers == per_row_workers(11, len(contexts), n)
    quarantined = {
        n: sorted(q.row_index for q in r.quarantined)
        for n, r in reports.items()
    }
    assert quarantined[1], "expected 4G rows in the demo campaign"
    assert quarantined[2] == quarantined[1]
    assert quarantined[8] == quarantined[1]
    datasets_identical(reports[1].dataset, reports[8].dataset)
    for report in reports.values():
        for q in report.quarantined:
            assert q.outcome == TestOutcome.FAILED.value


# -- checkpoints --------------------------------------------------------


@pytest.mark.usefixtures("loopback_oracle_forks_early")
def test_sharded_checkpoint_resumes_serially(tmp_path, contexts):
    """The merged main checkpoint is an ordinary serial checkpoint."""
    ck = tmp_path / "run.ckpt"
    first = run_campaign(
        contexts, config_with(n_shards=4, checkpoint_path=ck, mode="oracle")
    )
    assert first.workers == 4
    assert ck.exists()

    again = run_campaign(
        contexts, config_with(n_shards=1, checkpoint_path=ck), resume=True
    )
    assert again.resumed_rows == len(contexts)
    datasets_identical(first.dataset, again.dataset)


def test_serial_checkpoint_resumes_sharded(tmp_path, contexts):
    """...and vice versa: shards pick up a serial run's checkpoint."""
    ck = tmp_path / "run.ckpt"
    serial = run_campaign(contexts, config_with(checkpoint_path=ck))
    sharded = run_campaign(
        contexts, config_with(n_shards=4, checkpoint_path=ck), resume=True
    )
    assert sharded.resumed_rows == len(contexts)
    datasets_identical(serial.dataset, sharded.dataset)


@pytest.mark.usefixtures("loopback_oracle_forks_early")
def test_shard_files_are_merged_then_removed(tmp_path, contexts):
    ck = tmp_path / "run.ckpt"
    config = config_with(
        n_shards=4, checkpoint_path=ck, checkpoint_every=1, mode="oracle"
    )
    assert run_campaign(contexts, config).workers == 4
    assert ck.exists()
    for shard_id in range(4):
        assert not shard_checkpoint_path(ck, shard_id).exists()


# -- failure containment ------------------------------------------------


def test_dead_worker_fails_loud_but_keeps_checkpoints(tmp_path, contexts,
                                                      registered_test):
    ck = tmp_path / "run.ckpt"
    config = config_with(
        test=registered_test(DiesMidRow.name, DiesMidRow), n_shards=2,
        checkpoint_path=ck, checkpoint_every=1,
    )
    with pytest.raises(RuntimeError, match="without a result"):
        run_campaign(contexts, config)
    # The supervisor still merged whatever the shards flushed.
    assert ck.exists()


class InterruptedMidShard(BandwidthTestService):
    """Measures three rows, then raises past the retry loop."""

    name = "loopback-interrupted"

    def __init__(self):
        self.inner = LoopbackSwiftest()
        self.calls = 0

    def run(self, env):
        self.calls += 1
        if self.calls > 3:
            raise KeyboardInterrupt("operator stop")
        return self.inner.run(env)


def test_worker_error_fails_loud_but_keeps_rows(tmp_path, contexts,
                                                 registered_test):
    ck = tmp_path / "run.ckpt"
    config = config_with(
        test=registered_test(InterruptedMidShard.name, InterruptedMidShard),
        n_shards=2, checkpoint_path=ck, checkpoint_every=1,
    )
    with pytest.raises(RuntimeError, match="KeyboardInterrupt: operator"):
        run_campaign(contexts, config)
    # Each worker reported its three rows before dying; the merged
    # checkpoint holds them all.
    assert len(json.loads(ck.read_text())["rows"]) == 6


# -- progress streaming -------------------------------------------------


def progress_events(contexts, config):
    """Run ``config``; return the report and every progress update as
    ``(shard_id, done, finished)``."""
    events = []
    report = run_campaign(
        contexts, config,
        on_progress=lambda snap: events.append(
            (snap.shard_id, snap.done, snap.finished)
        ),
    )
    assert report.n_measured == len(contexts)
    return report, events


@pytest.mark.usefixtures("loopback_oracle_forks_early")
def test_progress_streams_per_row_events(contexts):
    """Per-row workers report one event per row, then one "finished"
    per forked shard; the batch counts sum to the rows."""
    report, events = progress_events(
        contexts, config_with(n_shards=4, mode="oracle")
    )
    assert report.workers == 4
    per_row = [e for e in events if not e[2]]
    finishes = {e[0] for e in events if e[2]}
    assert len(per_row) + len(finishes) == len(events)
    assert len(per_row) == len(contexts)
    assert finishes == set(range(4))
    last = {}
    for shard_id, done, _ in events:
        last[shard_id] = done
    assert sum(last.values()) == len(contexts)


def test_workers_report_progress_per_bank():
    """A banked worker sends one event per finished bank carrying the
    bank's rows, not one per row."""
    contexts = make_contexts(2 * FLOOD_BANK_ROWS_PER_WORKER)
    report, events = progress_events(
        contexts, CampaignConfig(seed=11, test="bts-app", n_shards=2)
    )
    assert report.workers == 2
    pending = [e for e in events if not e[2]]
    # Each worker's rows fit one flood bank: one event each.
    assert sorted(e[0] for e in pending) == [0, 1]
    assert sum(e[1] for e in pending) == len(contexts)
    assert {e[0] for e in events if e[2]} == {0, 1}


def test_in_process_run_reports_progress_as_shard_zero(contexts):
    """In-process runs report the same batches as workers, as shard 0:
    one event per bank, or per row on the per-row engine."""
    _, events = progress_events(contexts, config_with(n_shards=1))
    assert events == [(0, len(contexts), False), (0, len(contexts), True)]
    _, events = progress_events(
        contexts, config_with(n_shards=1, mode="oracle")
    )
    assert [e[1] for e in events if not e[2]] == list(
        range(1, len(contexts) + 1)
    )
    assert events[-1] == (0, len(contexts), True)


def test_in_process_run_starts_no_worker(contexts, monkeypatch):
    """``n_shards == 1`` runs the row loop in the caller's process: no
    multiprocessing context, no queue, no worker."""
    import repro.harness.parallel as parallel

    def no_workers():
        raise AssertionError("n_shards=1 must not start workers")

    monkeypatch.setattr(parallel, "_mp_context", no_workers)
    report = run_campaign(contexts, config_with(n_shards=1))
    assert report.n_measured == len(contexts)
    assert report.workers == 0


# -- how many workers a run forks ---------------------------------------


def test_small_banked_campaign_forks_nothing(monkeypatch, tmp_path):
    """48 banked loopback rows cost less in-process than over any
    worker: ``n_shards=8`` forks none and gives the same bytes."""
    import repro.harness.parallel as parallel

    contexts = make_contexts(48)
    serial = run_campaign(contexts, config_with())

    def no_workers():
        raise AssertionError("48 banked rows must not fork")

    monkeypatch.setattr(parallel, "_mp_context", no_workers)
    manifest_path = tmp_path / "run.manifest.json"
    report = run_campaign(
        contexts, config_with(n_shards=8, manifest_path=manifest_path)
    )
    manifest = load_manifest(manifest_path)
    assert manifest["run"]["workers"] == 0
    assert manifest["run"]["n_shards"] == 8
    assert manifest["shards"] == []
    datasets_identical(serial.dataset, report.dataset)


@pytest.mark.parametrize("test, mode, rows_per_worker, n_rows, n_shards", [
    # Capped by the floor: rows // rows_per_worker < n_shards.
    ("swiftest-loopback", "auto", SESSION_BANK_ROWS_PER_WORKER,
     2 * SESSION_BANK_ROWS_PER_WORKER + 100, 8),
    ("bts-app", "auto", FLOOD_BANK_ROWS_PER_WORKER,
     2 * FLOOD_BANK_ROWS_PER_WORKER + 3, 8),
    # Capped by n_shards.
    ("swiftest-loopback", "oracle", PER_ROW_LOOPBACK_ROWS_PER_WORKER,
     4 * PER_ROW_LOOPBACK_ROWS_PER_WORKER + 5, 3),
])
def test_fork_count_is_the_lesser_of_shards_and_floor(
        tmp_path, test, mode, rows_per_worker, n_rows, n_shards):
    """Above the floor a run forks ``min(n_shards, rows //
    rows_per_worker)`` workers, and its bytes match the in-process
    run's."""
    contexts = make_contexts(n_rows)
    config = dict(seed=11, test=test, mode=mode)
    serial = run_campaign(contexts, CampaignConfig(**config))
    manifest_path = tmp_path / "run.manifest.json"
    sharded = run_campaign(contexts, CampaignConfig(
        n_shards=n_shards, manifest_path=manifest_path, **config
    ))
    expected = min(n_shards, n_rows // rows_per_worker)
    manifest = load_manifest(manifest_path)
    assert manifest["run"]["workers"] == sharded.workers == expected
    assert [s["shard_id"] for s in manifest["shards"]] == list(
        range(expected)
    )
    datasets_identical(serial.dataset, sharded.dataset)


def test_per_row_loopback_forks_two_workers_at_twice_its_floor():
    """A ``mode="oracle"`` loopback campaign with ``n_shards=2`` stays
    in-process one row below the size that pays for two workers and
    forks both at it, with the in-process run's bytes."""
    n_rows = 2 * PER_ROW_LOOPBACK_ROWS_PER_WORKER
    contexts = make_contexts(n_rows)
    config = dict(seed=11, test="swiftest-loopback", mode="oracle")
    below = run_campaign(contexts, CampaignConfig(
        max_tests=n_rows - 1, n_shards=2, **config
    ))
    at = run_campaign(contexts, CampaignConfig(n_shards=2, **config))
    assert below.workers == 0
    assert at.workers == 2
    serial = run_campaign(contexts, CampaignConfig(**config))
    datasets_identical(serial.dataset, at.dataset)


def test_resumed_rows_do_not_count_toward_the_floor(tmp_path, contexts):
    """The fork rule reads the rows left to measure: a resume with
    three rows left stays in-process however many it has done."""
    ck = tmp_path / "run.ckpt"
    whole = run_campaign(contexts, config_with(checkpoint_path=ck))
    saved = json.loads(ck.read_text())
    for key in list(saved["rows"])[:3]:
        del saved["rows"][key]
    ck.write_text(json.dumps(saved))
    resumed = run_campaign(
        contexts,
        config_with(n_shards=4, checkpoint_path=ck, mode="oracle"),
        resume=True,
    )
    assert resumed.resumed_rows == len(contexts) - 3
    assert resumed.workers == 0
    datasets_identical(whole.dataset, resumed.dataset)


# -- resuming any shard layout ------------------------------------------


def killed_run_files(contexts, tmp_path, n_shards, seed=11):
    """The checkpoint files a sharded run killed after flushing every
    row leaves: ``.shard-0 .. .shard-<n-1>``, no main checkpoint."""
    ck = tmp_path / "run.ckpt"
    whole = run_campaign(contexts, config_with(seed=seed, checkpoint_path=ck))
    saved = json.loads(ck.read_text())
    ck.unlink()
    for shard_id in range(n_shards):
        rows = {
            key: entry for key, entry in saved["rows"].items()
            if shard_of(seed, int(key), n_shards) == shard_id
        }
        shard_checkpoint_path(ck, shard_id).write_text(json.dumps(
            {"fingerprint": saved["fingerprint"], "rows": rows}
        ))
    return ck, whole


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_resume_reads_every_shard_layout(tmp_path, contexts, n_shards):
    """A killed 4-shard run resumes in full at any shard count, and
    the resume leaves only the merged main checkpoint."""
    ck, whole = killed_run_files(contexts, tmp_path, 4)
    resumed = run_campaign(
        contexts, config_with(n_shards=n_shards, checkpoint_path=ck),
        resume=True,
    )
    assert resumed.resumed_rows == len(contexts)
    datasets_identical(whole.dataset, resumed.dataset)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.ckpt", "run.ckpt.manifest.json",
    ]
    assert len(json.loads(ck.read_text())["rows"]) == len(contexts)


@pytest.mark.usefixtures("loopback_oracle_forks_early")
def test_resume_folds_shard_files_before_any_worker_forks(
        tmp_path, contexts, monkeypatch):
    """This run's workers rewrite ``.shard-<k>`` files, so a resume
    first folds the old ones into the main checkpoint: a kill after
    the fork cannot lose the rows they held."""
    import repro.harness.parallel as parallel

    ck, _ = killed_run_files(contexts, tmp_path, 4)
    for shard_id in (2, 3):
        shard_checkpoint_path(ck, shard_id).unlink()
    flushed = sum(
        len(json.loads(shard_checkpoint_path(ck, k).read_text())["rows"])
        for k in (0, 1)
    )

    class Killed(Exception):
        pass

    def killed_at_fork():
        raise Killed

    monkeypatch.setattr(parallel, "_mp_context", killed_at_fork)
    with pytest.raises(Killed):
        run_campaign(
            contexts,
            config_with(n_shards=2, checkpoint_path=ck, mode="oracle"),
            resume=True,
        )
    assert len(json.loads(ck.read_text())["rows"]) == flushed
    assert not shard_checkpoint_path(ck, 0).exists()
    assert not shard_checkpoint_path(ck, 1).exists()


def test_resume_rejects_a_foreign_shard_file_at_any_shard_count(
        tmp_path, contexts):
    """A shard file of a different campaign fails the resume, also at
    a shard count that would never have written it."""
    ck, _ = killed_run_files(contexts, tmp_path, 4, seed=12)
    for n_shards in (1, 2):
        with pytest.raises(CheckpointError, match="different campaign"):
            run_campaign(
                contexts,
                config_with(n_shards=n_shards, checkpoint_path=ck),
                resume=True,
            )


def test_resume_ignores_files_that_only_look_like_shards(tmp_path,
                                                         contexts):
    """Only ``<ckpt>.shard-<integer>`` is a shard file: an atomic
    write's leftover ``.tmp`` or another suffix is never read."""
    ck = tmp_path / "run.ckpt"
    decoys = [
        tmp_path / "run.ckpt.shard-0.tmp",
        tmp_path / "run.ckpt.shard-x",
        tmp_path / "other.ckpt.shard-0",
    ]
    for decoy in decoys:
        decoy.write_text("{not json")
    report = run_campaign(
        contexts, config_with(checkpoint_path=ck), resume=True
    )
    assert report.resumed_rows == 0
    assert all(decoy.exists() for decoy in decoys)


@pytest.mark.usefixtures("loopback_oracle_forks_early")
@pytest.mark.parametrize("n_shards", [1, 2])
@pytest.mark.parametrize("mode", ["oracle", "auto"])
@pytest.mark.parametrize("test", ["bts-app", "swiftest-loopback"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_bandwidth_fails_before_any_row(contexts, monkeypatch,
                                                   test, mode, n_shards,
                                                   bad):
    """A context with no usable capacity fails the whole campaign with
    one ValueError, before any row runs or any worker starts, in every
    mode and at every shard count."""
    import repro.harness.parallel as parallel

    def no_workers():
        raise AssertionError("no worker may start")

    monkeypatch.setattr(parallel, "_mp_context", no_workers)
    columns = {
        name: np.array(contexts.column(name), copy=True) for name in SCHEMA
    }
    columns["bandwidth_mbps"][5] = bad
    config = CampaignConfig(seed=3, test=test, mode=mode, n_shards=n_shards)
    with pytest.raises(ValueError, match="positive and finite"):
        run_campaign(Dataset(columns), config)
