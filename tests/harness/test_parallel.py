"""run_campaign across shard counts: identity, checkpoint merge,
progress."""

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
from repro.dataset.records import SCHEMA, Dataset
from repro.dataset.sampling import demo_campaign
from repro.harness.config import CampaignConfig
from repro.harness.parallel import (
    run_campaign,
    shard_checkpoint_path,
    shard_of,
)


@pytest.fixture(scope="module")
def contexts():
    return demo_campaign(24, seed=404)


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


@pytest.mark.parametrize("seed", [2**63, 2**70])
def test_seeds_past_int64_shard_like_any_other(contexts, seed):
    serial = run_campaign(contexts, config_with(seed=seed))
    sharded = run_campaign(contexts, config_with(seed=seed, n_shards=2))
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


@pytest.mark.parametrize("n_shards", [1, 2, 8])
def test_shard_count_never_changes_results(contexts, reference, tmp_path,
                                           n_shards):
    """The acceptance property: any shard count yields the reference
    run's dataset bytes, quarantine set, accounted backoff, attribution
    summary and checkpoint contents."""
    expected, expected_checkpoint = reference
    ck = tmp_path / "run.ckpt"
    report = run_campaign(
        contexts, config_with(n_shards=n_shards, checkpoint_path=ck)
    )
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


def test_sharded_checkpoint_resumes_serially(tmp_path, contexts):
    """The merged main checkpoint is an ordinary serial checkpoint."""
    ck = tmp_path / "run.ckpt"
    first = run_campaign(
        contexts, config_with(n_shards=4, checkpoint_path=ck)
    )
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


def test_shard_files_are_merged_then_removed(tmp_path, contexts):
    ck = tmp_path / "run.ckpt"
    config = config_with(n_shards=4, checkpoint_path=ck, checkpoint_every=1)
    run_campaign(contexts, config)
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


def test_progress_streams_per_row_events(contexts):
    events = []
    report = run_campaign(
        contexts, config_with(n_shards=4),
        on_progress=lambda snap: events.append(
            (snap.shard_id, snap.done, snap.finished)
        ),
    )
    assert report.n_measured == len(contexts)
    # One event per measured row plus one "finished" per active shard.
    per_row = [e for e in events if not e[2]]
    finishes = {e[0] for e in events if e[2]}
    assert len(per_row) + len(finishes) == len(events)
    assert sum(1 for _ in per_row) == len(contexts)
    assert finishes <= set(range(4))


def test_in_process_run_reports_progress_as_shard_zero(contexts):
    events = []
    report = run_campaign(
        contexts, config_with(n_shards=1),
        on_progress=lambda snap: events.append(
            (snap.shard_id, snap.done, snap.finished)
        ),
    )
    assert report.n_measured == len(contexts)
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
