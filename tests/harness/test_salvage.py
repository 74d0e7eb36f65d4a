"""Damaged checkpoints: typed errors, and --salvage recovery.

A truncated or corrupt checkpoint must (a) fail loudly with
:class:`CorruptCheckpointError` rather than a JSON traceback, and (b)
under ``salvage=True`` recover the intact prefix, re-measure only the
damaged tail, and land on a dataset byte-identical to the
uninterrupted run.
"""

import json

import numpy as np
import pytest

from repro.dataset.generator import CampaignConfig as GenConfig
from repro.dataset.generator import generate_campaign
from repro.dataset.records import SCHEMA
from repro.harness.config import CampaignConfig
from repro.harness.parallel import run_campaign, shard_checkpoint_path
from repro.harness.runtime import (
    CheckpointError,
    CorruptCheckpointError,
    load_checkpoint,
)

SEED = 13
MAX_TESTS = 12


@pytest.fixture(scope="module")
def contexts():
    return generate_campaign(
        GenConfig(n_tests=1_500, seed=41,
                  tech_shares={"4G": 0.4, "WiFi5": 0.6}))


def config(ck=None, seed=SEED, every=100):
    return CampaignConfig(seed=seed, max_tests=MAX_TESTS,
                          checkpoint_path=ck, checkpoint_every=every)


def resume(contexts, ck, seed=SEED, salvage=False):
    return run_campaign(contexts, config(ck, seed=seed), resume=True,
                        salvage=salvage)


@pytest.fixture(scope="module")
def baseline(contexts):
    return run_campaign(contexts, config())


def datasets_identical(a, b):
    assert len(a) == len(b)
    for name in SCHEMA:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype == np.float64:
            assert np.array_equal(ca, cb, equal_nan=True), name
        else:
            assert (ca == cb).all(), name


def finished_checkpoint(tmp_path, contexts, every=4):
    """Run to completion with checkpoints; return the checkpoint path."""
    ck = tmp_path / "run.ckpt"
    run_campaign(contexts, config(ck, every=every))
    return ck


def truncate(path, keep_fraction):
    raw = path.read_bytes()
    path.write_bytes(raw[: int(len(raw) * keep_fraction)])


class TestTypedErrors:
    def test_truncated_checkpoint_raises_typed_error(self, tmp_path,
                                                     contexts):
        ck = finished_checkpoint(tmp_path, contexts)
        truncate(ck, 0.6)
        with pytest.raises(CorruptCheckpointError, match="salvage"):
            resume(contexts, ck)

    def test_corrupt_error_is_a_checkpoint_error(self):
        # Callers catching the historical type keep working.
        assert issubclass(CorruptCheckpointError, CheckpointError)

    def test_unreadable_row_raises_typed_error(self, tmp_path, contexts):
        ck = finished_checkpoint(tmp_path, contexts)
        payload = json.loads(ck.read_text())
        first = sorted(payload["rows"], key=int)[0]
        payload["rows"][first] = {"attempts": "not-a-number"}
        ck.write_text(json.dumps(payload))
        with pytest.raises(CorruptCheckpointError, match="row"):
            resume(contexts, ck)

    def test_fingerprint_mismatch_stays_plain_checkpoint_error(
            self, tmp_path, contexts):
        """A checkpoint from a *different* campaign must never be
        salvaged — that would silently mix campaigns."""
        ck = finished_checkpoint(tmp_path, contexts)
        with pytest.raises(CheckpointError) as excinfo:
            resume(contexts, ck, seed=SEED + 1, salvage=True)
        assert not isinstance(excinfo.value, CorruptCheckpointError)


class TestSalvage:
    @pytest.mark.parametrize("keep_fraction", [0.3, 0.6, 0.9])
    def test_salvage_recovers_prefix_and_matches_baseline(
            self, tmp_path, contexts, baseline, keep_fraction):
        ck = finished_checkpoint(tmp_path, contexts)
        truncate(ck, keep_fraction)
        report = resume(contexts, ck, salvage=True)
        assert report.n_rows == MAX_TESTS
        datasets_identical(report.dataset, baseline.dataset)

    def test_salvage_skips_damaged_rows_only(self, tmp_path, contexts,
                                             baseline):
        ck = finished_checkpoint(tmp_path, contexts)
        payload = json.loads(ck.read_text())
        damaged = sorted(payload["rows"], key=int)[2]
        payload["rows"][damaged] = {"attempts": "not-a-number"}
        ck.write_text(json.dumps(payload))
        report = resume(contexts, ck, salvage=True)
        # All intact rows resumed; only the damaged one re-measured.
        assert report.resumed_rows == MAX_TESTS - 1
        datasets_identical(report.dataset, baseline.dataset)

    def test_salvage_of_hopeless_file_restarts_from_zero(self, tmp_path,
                                                         contexts,
                                                         baseline):
        ck = tmp_path / "run.ckpt"
        ck.write_text("total garbage, not even json")
        report = resume(contexts, ck, salvage=True)
        assert report.resumed_rows == 0
        datasets_identical(report.dataset, baseline.dataset)

    def test_load_checkpoint_salvage_returns_intact_prefix(self, tmp_path,
                                                           contexts):
        ck = finished_checkpoint(tmp_path, contexts)
        fingerprint = json.loads(ck.read_text())["fingerprint"]
        intact = load_checkpoint(ck, fingerprint, salvage=False)
        truncate(ck, 0.7)
        salvaged = load_checkpoint(ck, fingerprint, salvage=True)
        assert 0 < len(salvaged) < len(intact)
        for index, state in salvaged.items():
            assert state.measured_mbps == intact[index].measured_mbps
            assert state.attempts == intact[index].attempts


class TestShardedSalvage:
    def test_sharded_resume_with_torn_shard_checkpoint(self, tmp_path,
                                                       contexts, baseline):
        # The per-row engine forks for these 12 rows; the flood bank
        # would measure them in-process.
        ck = tmp_path / "run.ckpt"
        config = CampaignConfig(
            seed=SEED, max_tests=MAX_TESTS, n_shards=2,
            checkpoint_path=ck, checkpoint_every=2, mode="oracle",
        )
        assert run_campaign(contexts, config).workers == 2
        # Fabricate the crash state: main checkpoint torn, one shard
        # file torn, the other intact.
        shard0 = shard_checkpoint_path(ck, 0)
        ck.replace(shard0)
        truncate(shard0, 0.5)

        with pytest.raises(CorruptCheckpointError):
            run_campaign(contexts, config, resume=True)

        report = run_campaign(contexts, config, resume=True, salvage=True)
        assert report.n_rows == MAX_TESTS
        assert 0 < report.resumed_rows < MAX_TESTS
        assert report.workers == 2
        datasets_identical(report.dataset, baseline.dataset)
        assert not shard0.exists()
