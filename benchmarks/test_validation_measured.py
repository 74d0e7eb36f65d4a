"""Validation: the fast generator vs the full measurement path.

The §3 analyses run on *measured* campaigns (every bandwidth produced
by actually running BTS-APP against the simulated link) must agree
with the same analyses on the fast generator's ground-truth values —
otherwise the reproduction's shortcut (analysing capacities directly)
would be unsound.
"""

import numpy as np

from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.harness.collection import measurement_error_stats
from repro.harness.config import CampaignConfig
from repro.harness.parallel import run_campaign


def test_validation_measured_vs_generated(benchmark, record):
    contexts = generate_campaign(
        GenerationConfig(
            n_tests=4_000, seed=71,
            tech_shares={"4G": 0.3, "5G": 0.3, "WiFi5": 0.4},
        )
    )

    report = benchmark.pedantic(
        run_campaign,
        args=(contexts, CampaignConfig(seed=7, max_tests=120)),
        rounds=1,
        iterations=1,
    )
    measured = report.dataset
    stats = measurement_error_stats(contexts, measured)

    # Per-tech means agree between the measured subsample and the
    # ground truth of the same rows.
    truth_by_id = dict(
        zip(contexts.column("test_id").tolist(), contexts.bandwidth.tolist())
    )
    agreements = {}
    for tech in ("4G", "5G", "WiFi5"):
        sub = measured.where(tech=tech)
        if len(sub) < 10:
            continue
        truths = np.array(
            [truth_by_id[i] for i in sub.column("test_id").tolist()]
        )
        agreements[tech] = float(sub.bandwidth.mean() / truths.mean())

    record(
        "validation_measured",
        {
            "median_rel_error": {
                "paper": "BTS-APP is the accuracy reference (§5.3)",
                "measured": round(stats["median_rel_error"], 4),
            },
            **{
                f"{tech}_mean_ratio": {
                    "paper": 1.0, "measured": round(ratio, 3)
                }
                for tech, ratio in agreements.items()
            },
        },
    )
    assert stats["median_rel_error"] < 0.05
    for tech, ratio in agreements.items():
        assert 0.9 < ratio < 1.1, tech
