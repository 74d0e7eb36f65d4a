"""The unified ExecutionMode API and its campaign-path guarantees.

Covers the enum itself (coercion, JSON behaviour) and the
harness-level contracts: banked and
per-row execution are byte-identical, checkpoints interoperate across
modes (mode is not part of the campaign fingerprint), manifests record
the mode as its plain string.
"""

import json
import time

import numpy as np
import pytest

from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.dataset.records import SCHEMA
from repro.execmode import ExecutionMode
from repro.harness.config import CampaignConfig
from repro.harness.parallel import run_campaign
from repro.harness.runtime import (
    FLOOD_BANK_ROWS_PER_WORKER,
    PER_ROW_LOOPBACK_ROWS_PER_WORKER,
    PER_ROW_ROWS_PER_WORKER,
    executor_for,
    iter_banked_rows,
)
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture(scope="module")
def contexts():
    return generate_campaign(
        GenerationConfig(n_tests=1_000, seed=311,
                         tech_shares={"4G": 0.5, "WiFi5": 0.5})
    )


def datasets_identical(a, b):
    assert len(a) == len(b)
    for name in SCHEMA:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype == np.float64:
            assert np.array_equal(ca, cb, equal_nan=True), name
        else:
            assert np.array_equal(ca, cb), name


# -- the enum -----------------------------------------------------------


def test_coerce_accepts_enum_string_none():
    assert ExecutionMode.coerce(None) is ExecutionMode.AUTO
    assert ExecutionMode.coerce("oracle") is ExecutionMode.ORACLE
    assert ExecutionMode.coerce("VeCtOrIzEd") is ExecutionMode.VECTORIZED
    assert (
        ExecutionMode.coerce(ExecutionMode.AUTO) is ExecutionMode.AUTO
    )


def test_coerce_rejects_unknown():
    with pytest.raises(ValueError, match="unknown execution mode"):
        ExecutionMode.coerce("turbo")


def test_mode_is_json_transparent():
    # str subclass: survives JSON as its plain value and compares
    # equal to it, so manifests and checkpoints need no adapter.
    assert ExecutionMode.AUTO == "auto"
    assert json.loads(json.dumps(ExecutionMode.ORACLE)) == "oracle"


def test_campaign_config_coerces_mode_strings():
    assert CampaignConfig().mode is ExecutionMode.AUTO
    assert (
        CampaignConfig(mode="vectorized").mode is ExecutionMode.VECTORIZED
    )
    with pytest.raises(ValueError):
        CampaignConfig(mode="warp")


# -- banked vs per-row execution ---------------------------------------


def _config(mode, n_shards=1, **kwargs):
    return CampaignConfig(
        seed=13,
        max_tests=48,
        test="swiftest-loopback",
        n_shards=n_shards,
        mode=mode,
        **kwargs,
    )


@pytest.mark.usefixtures("loopback_oracle_forks_early")
def test_banked_campaign_is_byte_identical_to_oracle(contexts):
    """The acceptance property: auto (banked), vectorized and oracle
    runs produce the same dataset bytes, in-process or over workers.
    48 banked rows never fork, so the sharded run is per-row."""
    oracle = run_campaign(contexts, _config("oracle"))
    banked = run_campaign(contexts, _config("auto"))
    forced = run_campaign(contexts, _config("vectorized"))
    sharded = run_campaign(contexts, _config("oracle", n_shards=3))
    assert sharded.workers == 3
    assert banked.workers == forced.workers == 0
    datasets_identical(oracle.dataset, banked.dataset)
    datasets_identical(oracle.dataset, forced.dataset)
    datasets_identical(oracle.dataset, sharded.dataset)


def test_fitted_model_loopback_campaign_is_byte_identical_to_oracle(
    contexts, registry
):
    """A loopback campaign on a fitted model banks under ``auto``, and
    its wide banks give the bytes of per-row runs."""
    config = dict(
        seed=13, max_tests=48, test="swiftest-loopback",
        test_kwargs={"model": registry.model("5G")},
    )
    oracle = run_campaign(contexts, CampaignConfig(mode="oracle", **config))
    banked = run_campaign(contexts, CampaignConfig(mode="auto", **config))
    assert oracle.n_measured == banked.n_measured == 48
    datasets_identical(oracle.dataset, banked.dataset)


def test_vectorized_requires_bankable_test(contexts):
    with pytest.raises(ValueError, match="bankable"):
        run_campaign(
            contexts,
            CampaignConfig(seed=1, max_tests=4, test="fast",
                           mode="vectorized"),
        )
    with pytest.raises(ValueError, match="bankable"):
        run_campaign(
            contexts,
            CampaignConfig(seed=1, max_tests=4, test="fast",
                           n_shards=2, mode="vectorized"),
        )


def bankable(service) -> bool:
    return executor_for(service, "auto").run_bank is not None


def test_bankable_service_predicate(registry):
    from repro.baselines.btsapp import BtsApp
    from repro.baselines.speedtest import SpeedtestLike
    from repro.core.registry import BandwidthModelRegistry
    from repro.core.variants import LoopbackSwiftest, create_bandwidth_test

    assert bankable(LoopbackSwiftest())
    # Every run is already a one-session bank, whatever its ladder.
    assert bankable(LoopbackSwiftest(model=registry.model("5G")))

    class TweakedLoopback(LoopbackSwiftest):
        """A subclass may change what a run does: never banked."""

    assert not bankable(TweakedLoopback())
    for name in ("bts-app", "speedtest"):
        for cc_name in ("cubic", "reno", "bbr"):
            assert bankable(create_bandwidth_test(name, cc_name=cc_name))

    class TweakedBtsApp(BtsApp):
        """A subclass may change what a run does: never banked."""

    class TweakedSpeedtest(SpeedtestLike):
        """A subclass may change what a run does: never banked."""

    assert not bankable(TweakedBtsApp())
    assert not bankable(TweakedSpeedtest())
    # Floods with a stop check, and the fitted-model client.
    for name in ("fast", "fastbts", "tcp-swiftest"):
        assert not bankable(create_bandwidth_test(name)), name
    assert not bankable(
        create_bandwidth_test("swiftest", registry=BandwidthModelRegistry())
    )
    # oracle never banks.
    assert executor_for(SpeedtestLike(), "oracle").run_bank is None


def test_per_row_floors_by_service():
    """Under ``oracle`` the loopback forks from its own measured floor;
    BTS-APP and Speedtest rows, and any loopback subclass, keep the
    per-row engine's."""
    from repro.core.variants import LoopbackSwiftest, create_bandwidth_test

    loopback = executor_for(LoopbackSwiftest(), "oracle")
    assert loopback.run_bank is None
    assert loopback.rows_per_worker == PER_ROW_LOOPBACK_ROWS_PER_WORKER
    assert PER_ROW_LOOPBACK_ROWS_PER_WORKER > PER_ROW_ROWS_PER_WORKER

    class TweakedLoopback(LoopbackSwiftest):
        """Not the exact class: the generic per-row floor."""

    services = [TweakedLoopback()] + [
        create_bandwidth_test(name) for name in ("bts-app", "speedtest")
    ]
    for service in services:
        assert executor_for(service, "oracle").rows_per_worker == (
            PER_ROW_ROWS_PER_WORKER
        ), service.name


def test_iter_banked_rows_refuses_an_unbankable_service(contexts):
    from repro.core.variants import create_bandwidth_test

    rows = iter_banked_rows(create_bandwidth_test("fast"), contexts,
                            [0], 1)
    with pytest.raises(ValueError, match="cannot be banked"):
        next(rows)


def _btsapp_config(mode, n_shards=1, **kwargs):
    kwargs.setdefault("max_tests", 12)
    return CampaignConfig(
        seed=17, test="bts-app", n_shards=n_shards, mode=mode, **kwargs,
    )


def test_banked_btsapp_campaign_is_byte_identical_to_oracle(contexts):
    """BTS-APP rows through the flood bank, in-process or over workers,
    equal the per-row engine's rows.  The campaign holds two workers'
    worth of banked rows, so three shards fork two banked workers; the
    per-row reference forks too."""
    n_rows = 2 * FLOOD_BANK_ROWS_PER_WORKER
    oracle = run_campaign(
        contexts, _btsapp_config("oracle", 2, max_tests=n_rows)
    )
    assert oracle.n_measured == n_rows
    assert oracle.workers == 2
    for mode in ("auto", "vectorized"):
        for n_shards in (1, 3):
            banked = run_campaign(
                contexts, _btsapp_config(mode, n_shards, max_tests=n_rows)
            )
            datasets_identical(oracle.dataset, banked.dataset)
            assert banked.retries == 0
            assert banked.workers == (0 if n_shards == 1 else 2)


def test_banked_btsapp_resumes_an_oracle_checkpoint(contexts, tmp_path):
    """An oracle run killed part-way resumes through the flood bank into
    the bytes of an uninterrupted run."""

    class Interrupted(Exception):
        pass

    def stop_after_five(progress):
        if progress.done == 5:
            raise Interrupted

    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(Interrupted):
        run_campaign(
            contexts,
            _btsapp_config("oracle", checkpoint_path=ckpt,
                           checkpoint_every=1),
            on_progress=stop_after_five,
        )
    resumed = run_campaign(
        contexts, _btsapp_config("auto", checkpoint_path=ckpt), resume=True
    )
    assert 0 < resumed.resumed_rows < 12
    whole = run_campaign(contexts, _btsapp_config("auto"))
    datasets_identical(whole.dataset, resumed.dataset)


def test_loopback_ignores_row_fault_plans(contexts, monkeypatch):
    """The loopback never reads ``env.faults``: per-row runs whose
    environments carry a (no-op) fault plan still match banked runs,
    which build no environment at all, byte for byte."""
    import repro.harness.runtime as runtime_mod
    from repro.netsim.faults import FaultInjector, IIDLoss

    real_row_environment = runtime_mod.row_environment

    def faulty_row_environment(subset, index, seed, attempt=0):
        env = real_row_environment(subset, index, seed, attempt=attempt)
        if index % 3 == 0:  # every third row carries a fault plan
            env.faults = FaultInjector(
                np.random.default_rng([seed, index]),
                loss=IIDLoss(0.0, np.random.default_rng([seed, index, 1])),
            )
        return env

    monkeypatch.setattr(
        runtime_mod, "row_environment", faulty_row_environment
    )
    oracle = run_campaign(contexts, _config("oracle"))
    banked = run_campaign(contexts, _config("auto"))
    datasets_identical(oracle.dataset, banked.dataset)


def test_iter_banked_rows_bank_size_is_invisible(contexts):
    """Any bank_size partition yields the same per-row states, one
    list per bank in ``indices`` order."""
    from repro.core.variants import LoopbackSwiftest
    from repro.harness.collection import campaign_subset

    service = LoopbackSwiftest()
    subset = campaign_subset(contexts, seed=13, max_tests=24)
    indices = list(range(len(subset)))

    def states(bank_size):
        banks = list(iter_banked_rows(
            service, subset, indices, seed=13, bank_size=bank_size,
        ))
        assert [i for bank in banks for i, _ in bank] == indices
        assert [len(bank) for bank in banks[:-1]] == (
            [bank_size] * (len(banks) - 1)
        )
        return {i: s.measured_mbps for bank in banks for i, s in bank}

    reference = states(4096)
    assert states(1) == reference
    assert states(7) == reference


# -- metrics: banked rows record what per-row rows record -----------------


def _campaign_metrics(contexts, config):
    """The ``campaign.*`` counters, and the ``campaign.row_wall_s``
    count and bucket total, of one run under a caller registry."""
    registry = MetricsRegistry()
    with use_registry(registry):
        run_campaign(contexts, config)
    snapshot = registry.to_dict()
    counters = {
        name: entry["value"]
        for name, entry in snapshot.items()
        if name.startswith("campaign.") and entry["kind"] == "counter"
    }
    wall = snapshot["campaign.row_wall_s"]
    return counters, wall["count"], sum(wall["buckets"])


@pytest.mark.parametrize("test, n_rows", [
    ("swiftest-loopback", 48),
    ("bts-app", 8),
])
def test_banked_metrics_equal_per_row_metrics(contexts, test, n_rows):
    """Counting once per bank records the integers counting once per
    row records: rows measured, retries, every outcome, and one wall
    time observation a row."""
    config = dict(seed=17, test=test, max_tests=n_rows)
    banked = _campaign_metrics(
        contexts, CampaignConfig(mode="vectorized", **config)
    )
    per_row = _campaign_metrics(
        contexts, CampaignConfig(mode="oracle", **config)
    )
    assert banked == per_row
    counters, count, bucket_total = banked
    assert counters["campaign.rows_measured"] == n_rows
    assert counters["campaign.retries"] == 0
    assert sum(
        value for name, value in counters.items()
        if name.startswith("campaign.outcome.")
    ) == n_rows
    assert count == bucket_total == n_rows


def test_banked_row_wall_time_covers_the_banks_inputs(
    contexts, monkeypatch
):
    """A bank's wall time, which its rows' ``campaign.row_wall_s``
    share, runs from before its inputs are built, as a per-row
    measurement's runs from before its environment: a loopback bank's
    capacities, a BTS-APP bank's environments."""
    import repro.harness.runtime as runtime_mod

    pause_s = 0.25

    def slowed(build):
        def slow_build(*args, **kwargs):
            time.sleep(pause_s)
            return build(*args, **kwargs)
        return slow_build

    for name in ("row_capacities", "row_environment"):
        monkeypatch.setattr(
            runtime_mod, name, slowed(getattr(runtime_mod, name))
        )
    # One capacity pass for the loopback bank, one environment a row for
    # the BTS-APP bank.
    for test, n_rows, slept_s in (
        ("swiftest-loopback", 48, pause_s),
        ("bts-app", 2, 2 * pause_s),
    ):
        registry = MetricsRegistry()
        with use_registry(registry):
            run_campaign(contexts, CampaignConfig(
                seed=17, test=test, max_tests=n_rows, mode="vectorized"
            ))
        wall = registry.histogram("campaign.row_wall_s")
        assert wall.count == n_rows
        assert wall.sum >= slept_s, test


# -- persistence: checkpoints and manifests ----------------------------


def test_checkpoints_interoperate_across_modes(contexts, tmp_path):
    """Mode is excluded from the campaign fingerprint: a checkpoint
    written under 'oracle' resumes cleanly under 'auto' (and vice
    versa) with every row adopted, not re-measured."""
    ckpt = tmp_path / "run.ckpt"
    first = run_campaign(
        contexts, _config("oracle", checkpoint_path=ckpt)
    )
    resumed = run_campaign(
        contexts, _config("auto", checkpoint_path=ckpt), resume=True
    )
    assert resumed.resumed_rows == first.n_measured
    datasets_identical(first.dataset, resumed.dataset)


def test_manifest_records_mode_as_plain_string(contexts, tmp_path):
    manifest_path = tmp_path / "run.manifest.json"
    run_campaign(
        contexts,
        _config("vectorized", manifest_path=manifest_path),
    )
    manifest = json.loads(manifest_path.read_text())
    assert manifest["config"]["mode"] == "vectorized"
    # Round trip: the stored string coerces straight back.
    assert (
        ExecutionMode.coerce(manifest["config"]["mode"])
        is ExecutionMode.VECTORIZED
    )
