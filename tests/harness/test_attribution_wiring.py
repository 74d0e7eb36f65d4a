"""Attribution through the campaign engine: shard and order invariance,
and the 10k-row accuracy gate."""

import numpy as np
import pytest

from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.harness.config import CampaignConfig
from repro.harness.parallel import run_campaign


@pytest.fixture(scope="module")
def contexts():
    return generate_campaign(
        GenerationConfig(n_tests=300, seed=77, home_path=True)
    )


def measure(ds, n_shards=1, seed=21, mode="auto"):
    return run_campaign(ds, CampaignConfig(
        seed=seed, test="swiftest-loopback", n_shards=n_shards, mode=mode,
    ))


@pytest.mark.usefixtures("loopback_oracle_forks_early")
def test_attribution_byte_identical_across_shards(contexts):
    """300 banked rows never fork, so the sharded runs are per-row."""
    reports = {1: measure(contexts)}
    for n in (2, 8):
        reports[n] = measure(contexts, n_shards=n, mode="oracle")
        assert reports[n].workers == n
    base = reports[1]
    assert base.attribution is not None
    for n in (2, 8):
        assert reports[n].attribution == base.attribution
        for name in ("bandwidth_mbps", "bottleneck", "bottleneck_attr"):
            assert np.array_equal(reports[n].dataset.column(name),
                                  base.dataset.column(name)), (n, name)


def test_attribution_summary_row_order_invariant(contexts):
    """Permuting the campaign permutes per-row labels identically and
    leaves the aggregate attribution summary unchanged.

    Each row's measurement environment is seeded by its position, so
    the permuted run re-measures row contexts at new positions; the
    per-row (bandwidth, attribution) pairs therefore differ, but the
    classifier itself is elementwise — relabelling the *same* measured
    rows in any order gives identical summaries.  We check the strong
    engine-level property on the classifier inputs the engine recorded.
    """
    from repro.core.attribution import attribute_rows, attribution_summary

    report = measure(contexts)
    ds = report.dataset
    perm = np.random.default_rng(3).permutation(len(ds))
    direct = attribute_rows(
        ds.column("bandwidth_mbps"), ds.column("plan_mbps"),
        ds.column("air_mbps"), ds.column("android_version"),
    )
    permuted = attribute_rows(
        ds.column("bandwidth_mbps")[perm], ds.column("plan_mbps")[perm],
        ds.column("air_mbps")[perm], ds.column("android_version")[perm],
    )
    assert np.array_equal(permuted, direct[perm])
    assert attribution_summary(permuted, ds.column("bottleneck")[perm]) \
        == attribution_summary(direct, ds.column("bottleneck"))
    # And the engine stored exactly the classifier's output.
    assert np.array_equal(ds.column("bottleneck_attr"), direct)


def test_oracle_and_vectorized_attribution_agree(contexts):
    oracle = measure(contexts, mode="oracle")
    vectorized = measure(contexts, mode="vectorized")
    assert oracle.attribution == vectorized.attribution
    assert np.array_equal(oracle.dataset.column("bottleneck_attr"),
                          vectorized.dataset.column("bottleneck_attr"))


def test_manifest_carries_attribution(tmp_path, contexts):
    from repro.obs.manifest import load_manifest

    manifest_path = tmp_path / "run.manifest.json"
    report = run_campaign(contexts, CampaignConfig(
        seed=21, test="swiftest-loopback", n_shards=2, mode="oracle",
        manifest_path=manifest_path,
    ))
    manifest = load_manifest(manifest_path)
    assert manifest["run"]["workers"] == 2
    assert manifest["attribution"] == report.attribution
    assert manifest["attribution"]["n_attributed"] > 0


def test_legacy_campaign_reports_without_ground_truth_contention():
    """A non-home-path campaign still gets air/plan attribution and a
    validated agreement figure (its ground truth has no contention)."""
    contexts = generate_campaign(GenerationConfig(n_tests=200, seed=5))
    report = measure(contexts)
    assert report.attribution is not None
    assert report.attribution["n_validated"] > 0
    truth = report.dataset.column("bottleneck")
    assert set(np.unique(truth)) <= {0, 1, 2}


def test_attribution_gate_at_10k_rows(tmp_path):
    """The attribution gate on a seeded 10k-row home-path campaign.

    Swiftest's inferred binding hop agrees with the simulator's ground
    truth on at least 90% of validated rows; 1, 2 and 8 shards give the
    same CSV bytes and attribution (2 and 8 fork banked workers, at
    most one per 2,048 rows); and the per-packet oracle and the session
    bank agree on the first 512 rows.
    """
    seed = 20220801
    contexts = generate_campaign(
        GenerationConfig(n_tests=10_000, seed=seed, home_path=True)
    )

    def csv_bytes(report, name):
        path = tmp_path / f"{name}.csv"
        report.dataset.to_csv(path)
        return path.read_bytes()

    reports = {n: measure(contexts, n_shards=n, seed=seed)
               for n in (1, 2, 8)}
    assert {n: r.workers for n, r in reports.items()} == {1: 0, 2: 2, 8: 4}
    base = reports[1]
    base_bytes = csv_bytes(base, 1)
    for n in (2, 8):
        assert csv_bytes(reports[n], n) == base_bytes
        assert reports[n].attribution == base.attribution
    assert base.attribution["agreement"] >= 0.90

    head = contexts.filter(np.arange(len(contexts)) < 512)
    oracle = measure(head, seed=seed, mode="oracle")
    vectorized = measure(head, seed=seed, mode="vectorized")
    assert csv_bytes(oracle, "oracle") == csv_bytes(vectorized, "vectorized")
    assert oracle.attribution == vectorized.attribution
