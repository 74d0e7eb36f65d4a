"""Supervised campaigns: retries, quarantine, checkpoint/resume."""

import json

import numpy as np
import pytest

from repro.baselines.btsapp import BtsApp
from repro.baselines.common import BandwidthTestService, BTSResult, TestOutcome
from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.harness.collection import campaign_subset, row_environment
from repro.harness.config import CampaignConfig
from repro.harness.parallel import run_campaign
from repro.harness.runtime import CheckpointError, RetryPolicy


@pytest.fixture(scope="module")
def contexts():
    return generate_campaign(
        GenerationConfig(n_tests=2_000, seed=71,
                         tech_shares={"4G": 0.5, "WiFi5": 0.5}))


class FlakyOnce(BandwidthTestService):
    """Raises the first time it sees each row; a retry succeeds.

    Keyed on the row's base capacity (attempt-invariant, unlike the
    fluctuating weather), not call order, so behaviour is
    deterministic across resumes."""

    name = "flaky-once"

    def __init__(self):
        self.inner = BtsApp()
        self.seen = set()

    def run(self, env):
        key = env.access.trace.base_mbps
        if key not in self.seen:
            self.seen.add(key)
            raise RuntimeError("transient backend blip")
        return self.inner.run(env)


class AlwaysFails(BandwidthTestService):
    name = "always-fails"

    def run(self, env):
        raise RuntimeError("backend is down")


class FailedOutcome(BandwidthTestService):
    """Returns an unusable FAILED result for 4G rows only."""

    name = "failed-4g"

    def __init__(self):
        self.inner = BtsApp()

    def run(self, env):
        if env.tech == "4G":
            return BTSResult(
                service=self.name, bandwidth_mbps=0.0, duration_s=0.0,
                ping_s=0.0, bytes_used=0.0, outcome=TestOutcome.FAILED,
            )
        return self.inner.run(env)


def datasets_identical(a, b):
    from repro.dataset.records import SCHEMA
    assert len(a) == len(b)
    for name in SCHEMA:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype == np.float64:
            assert np.array_equal(ca, cb, equal_nan=True), name
        else:
            assert np.array_equal(ca, cb), name


# -- retry policy -------------------------------------------------------


def test_retry_policy_backoff_is_exponential_and_deterministic():
    policy = RetryPolicy(max_attempts=4, backoff_base_s=1.0,
                         backoff_factor=2.0, jitter=0.1)
    d1 = policy.delay_s(seed=9, row=3, attempt=1)
    d2 = policy.delay_s(seed=9, row=3, attempt=2)
    d3 = policy.delay_s(seed=9, row=3, attempt=3)
    # Exponential envelope with ±10% jitter.
    assert 0.9 <= d1 <= 1.1
    assert 1.8 <= d2 <= 2.2
    assert 3.6 <= d3 <= 4.4
    # Seeded, not wall clock: identical on every evaluation.
    assert d1 == policy.delay_s(seed=9, row=3, attempt=1)
    # Different rows jitter independently.
    assert d1 != policy.delay_s(seed=9, row=4, attempt=1)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy().delay_s(seed=0, row=0, attempt=0)


# -- clean runs ---------------------------------------------------------


def test_clean_run_matches_unsupervised_measurement(contexts):
    """With nothing failing, supervision is invisible: each row holds
    exactly what one bare test run over its environment measures, and
    every context column passes through untouched."""
    report = run_campaign(contexts, CampaignConfig(seed=5, max_tests=12))
    subset = campaign_subset(contexts, seed=5, max_tests=12)
    assert report.n_measured == report.n_rows == 12
    assert report.quarantined == []
    assert report.retries == 0
    expected = [
        BtsApp().run(row_environment(subset, i, seed=5)).bandwidth_mbps
        for i in range(12)
    ]
    assert report.dataset.bandwidth.tolist() == expected
    for name in ("test_id", "tech", "band", "plan_mbps"):
        assert np.array_equal(report.dataset.column(name),
                              subset.column(name)), name


def test_transient_failures_are_retried_not_quarantined(contexts,
                                                        registered_test):
    test = registered_test(FlakyOnce.name, FlakyOnce)
    report = run_campaign(
        contexts, CampaignConfig(seed=5, max_tests=8, test=test)
    )
    assert report.n_measured == 8
    assert report.quarantined == []
    assert report.retries == 8          # every row needed exactly one retry
    assert report.backoff_wait_s > 0.0  # accounted, deterministic


def test_exhausted_rows_are_quarantined_with_error(contexts,
                                                   registered_test):
    test = registered_test(AlwaysFails.name, AlwaysFails)
    report = run_campaign(contexts, CampaignConfig(
        seed=5, max_tests=5, test=test, retry=RetryPolicy(max_attempts=2),
    ))
    assert report.dataset is None
    assert report.n_measured == 0
    assert len(report.quarantined) == 5
    for row in report.quarantined:
        assert row.attempts == 2
        assert row.outcome == "error"
        assert "backend is down" in row.error


def test_unusable_outcome_rows_are_quarantined_with_outcome(
        contexts, registered_test):
    test = registered_test(FailedOutcome.name, FailedOutcome)
    report = run_campaign(contexts, CampaignConfig(
        seed=5, max_tests=30, test=test, retry=RetryPolicy(max_attempts=2),
    ))
    subset_techs = {"4G", "WiFi5"}
    assert {t for t in report.dataset.column("tech").tolist()} <= subset_techs
    assert report.n_measured + len(report.quarantined) == 30
    assert report.quarantined, "expected some 4G rows in a 30-row subset"
    for row in report.quarantined:
        assert row.outcome == TestOutcome.FAILED.value
        assert row.error == ""
    # Quarantined rows are excluded from the dataset, never zero-filled.
    assert (report.dataset.bandwidth > 0).all()


# -- checkpoint/resume --------------------------------------------------


def test_checkpoint_written_and_resumed(tmp_path, contexts):
    """The per-row engine flushes every ``checkpoint_every`` rows."""
    config = CampaignConfig(seed=7, max_tests=10,
                            checkpoint_path=tmp_path / "run.ckpt",
                            checkpoint_every=4, mode="oracle")
    first = run_campaign(contexts, config)
    assert config.checkpoint_path.exists()
    assert first.checkpoints_written >= 2

    # A resume with everything done re-measures nothing.
    again = run_campaign(contexts, config, resume=True)
    assert again.resumed_rows == 10
    datasets_identical(first.dataset, again.dataset)


def test_bank_flushes_its_checkpoint_once(tmp_path, contexts):
    """A bank's rows all finish at once, so ten banked rows write one
    checkpoint, not one per ``checkpoint_every`` rows."""
    config = CampaignConfig(seed=7, max_tests=10,
                            checkpoint_path=tmp_path / "run.ckpt",
                            checkpoint_every=4)
    report = run_campaign(contexts, config)
    assert report.checkpoints_written == 1
    again = run_campaign(contexts, config, resume=True)
    assert again.resumed_rows == 10
    datasets_identical(report.dataset, again.dataset)


def test_checkpoint_rejects_foreign_campaign(tmp_path, contexts):
    ck = tmp_path / "run.ckpt"
    run_campaign(contexts, CampaignConfig(
        seed=7, max_tests=6, checkpoint_path=ck, checkpoint_every=2,
    ))
    with pytest.raises(CheckpointError):
        run_campaign(contexts, CampaignConfig(
            seed=8, max_tests=6, checkpoint_path=ck, checkpoint_every=2,
        ), resume=True)


def test_corrupt_checkpoint_raises_checkpoint_error(tmp_path, contexts):
    ck = tmp_path / "run.ckpt"
    ck.write_text("{not json")
    with pytest.raises(CheckpointError):
        run_campaign(contexts, CampaignConfig(
            seed=7, max_tests=4, checkpoint_path=ck,
        ), resume=True)


def test_resume_without_checkpoint_file_starts_fresh(tmp_path, contexts):
    report = run_campaign(contexts, CampaignConfig(
        seed=7, max_tests=4, checkpoint_path=tmp_path / "absent.ckpt",
    ), resume=True)
    assert report.resumed_rows == 0
    assert report.n_measured == 4


def test_checkpoint_flushed_on_crash(tmp_path, contexts, registered_test):
    """A service bug mid-campaign must not lose finished rows: the
    checkpoint on disk holds everything completed before the crash."""

    class ExplodesEventually(BandwidthTestService):
        name = "btsapp"  # same fingerprint as the clean service

        def __init__(self):
            self.inner = BtsApp()
            self.calls = 0

        def run(self, env):
            self.calls += 1
            if self.calls > 6:
                raise KeyboardInterrupt  # not caught by retry logic
            return self.inner.run(env)

    ck = tmp_path / "run.ckpt"
    test = registered_test("explodes-eventually", ExplodesEventually)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(contexts, CampaignConfig(
            seed=7, max_tests=10, test=test,
            checkpoint_path=ck, checkpoint_every=100,
        ))
    saved = json.loads(ck.read_text())
    assert len(saved["rows"]) == 6
