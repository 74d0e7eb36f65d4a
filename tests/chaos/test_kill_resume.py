"""Chaos: a campaign killed at an arbitrary row and resumed from its
checkpoint must produce a dataset bit-identical to the uninterrupted
run, with quarantined rows carried across the kill."""

import numpy as np
import pytest

from repro.baselines.btsapp import BtsApp
from repro.baselines.common import BandwidthTestService, BTSResult, TestOutcome
from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.dataset.records import SCHEMA
from repro.harness.config import CampaignConfig
from repro.harness.parallel import run_campaign
from repro.harness.runtime import RetryPolicy

pytestmark = pytest.mark.chaos

SEED = 11
MAX_TESTS = 20
RETRY = RetryPolicy(max_attempts=2)
#: Registry name the killed and the resumed phase both run under.
TEST = "quarantine-some"


class QuarantineSome(BandwidthTestService):
    """BTS-APP, except 4G rows come back FAILED — deterministic
    quarantine fodder.  :class:`KilledMidCampaign` inherits its service
    name, so the campaign fingerprint matches across the killed and
    resumed phases."""

    name = "btsapp"

    def __init__(self):
        self.inner = BtsApp()
        self.calls = 0

    def run(self, env):
        self.calls += 1
        if env.tech == "4G":
            return BTSResult(
                service=self.name, bandwidth_mbps=0.0, duration_s=0.0,
                ping_s=0.0, bytes_used=0.0, outcome=TestOutcome.FAILED,
            )
        return self.inner.run(env)


class KilledMidCampaign(QuarantineSome):
    """Same service, but the process dies after ``kill_after`` calls."""

    def __init__(self, kill_after):
        super().__init__()
        self.kill_after = kill_after

    def run(self, env):
        if self.calls >= self.kill_after:
            raise KeyboardInterrupt
        return super().run(env)


def assert_datasets_identical(a, b):
    assert len(a) == len(b)
    for name in SCHEMA:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype == np.float64:
            assert np.array_equal(ca, cb, equal_nan=True), name
        else:
            assert np.array_equal(ca, cb), name


def config(ck=None, every=100):
    return CampaignConfig(seed=SEED, max_tests=MAX_TESTS, test=TEST,
                          retry=RETRY, checkpoint_path=ck,
                          checkpoint_every=every)


@pytest.fixture(scope="module")
def contexts():
    return generate_campaign(
        GenerationConfig(n_tests=1_500, seed=37,
                         tech_shares={"4G": 0.4, "WiFi5": 0.6}))


@pytest.fixture
def run_as(registered_test):
    """``run_as(service, ...)``: run the campaign with ``service``
    registered under :data:`TEST`."""

    def run(service, contexts, ck=None, every=100, resume=False):
        registered_test(TEST, lambda: service)
        return run_campaign(contexts, config(ck, every), resume=resume)

    return run


@pytest.fixture
def baseline(contexts, run_as):
    """The uninterrupted run every killed-and-resumed run must match."""
    return run_as(QuarantineSome(), contexts)


@pytest.mark.parametrize("kill_after", [1, 8, 16])
def test_kill_and_resume_is_bit_identical(tmp_path, contexts, baseline,
                                          run_as, kill_after):
    ck = tmp_path / "run.ckpt"

    # Phase 1: the campaign dies after `kill_after` service calls
    # (calls, not rows: retries of quarantine-bound rows count too, so
    # the kill lands at an arbitrary point in a row's attempt loop).
    with pytest.raises(KeyboardInterrupt):
        run_as(KilledMidCampaign(kill_after), contexts, ck, every=3)
    assert ck.exists(), "the dying run must still flush its checkpoint"

    # Phase 2: a fresh process resumes from the checkpoint.
    service = QuarantineSome()
    resumed = run_as(service, contexts, ck, every=3, resume=True)

    # Rows finished before the kill are restored, not re-measured:
    # every row ends up measured or quarantined, and the resume phase
    # spends strictly fewer service calls than a from-scratch run.
    assert resumed.resumed_rows > 0
    assert resumed.n_measured + resumed.n_quarantined == MAX_TESTS
    assert service.calls < baseline.retries + MAX_TESTS

    # Bit-identical dataset: every schema column, including the
    # re-measured bandwidth, matches the uninterrupted run exactly.
    assert resumed.dataset is not None
    assert_datasets_identical(resumed.dataset, baseline.dataset)

    # Quarantined rows are reported identically — including any
    # quarantined *before* the kill and carried via the checkpoint.
    assert resumed.quarantined == baseline.quarantined
    assert resumed.quarantined, "expected 4G rows in a 20-row subset"


def test_resume_after_clean_finish_remeasures_nothing(tmp_path, contexts,
                                                      baseline, run_as):
    ck = tmp_path / "done.ckpt"
    first = run_as(QuarantineSome(), contexts, ck)
    service = QuarantineSome()
    again = run_as(service, contexts, ck, resume=True)
    assert service.calls == 0
    assert again.resumed_rows == MAX_TESTS
    assert again.quarantined == first.quarantined == baseline.quarantined
    assert_datasets_identical(again.dataset, baseline.dataset)
