"""Deployment-scale experiment harness (§5.3).

* :mod:`repro.harness.pairs` — back-to-back Swiftest vs BTS-APP test
  pairs over identical network conditions (Figures 20-22);
* :mod:`repro.harness.comparison` — test groups against FAST and
  FastBTS with BTS-APP as approximate ground truth (Figures 23-25);
* :mod:`repro.harness.utilization` — a month of workload on the
  planned server pool, tracing per-server utilization (Figure 26);
* :mod:`repro.harness.parallel` — :func:`run_campaign`, the one way
  to run a measured campaign: one row loop, in-process for
  ``n_shards == 1`` or in forked workers over deterministic
  row→shard partitions, byte-identical either way;
* :mod:`repro.harness.runtime` — what that row loop is made of:
  per-row retries with deterministic backoff, quarantine accounting,
  the lockstep-bank executor (flood bank, session bank), the
  checkpoint codec, report assembly;
* :mod:`repro.harness.collection` — the subset a campaign measures,
  each row's simulated environment, and the access capacities the
  session bank reads instead;
* :mod:`repro.harness.config` — the frozen
  :class:`~repro.harness.config.CampaignConfig` /
  :class:`~repro.harness.config.RetryPolicy` recipe a campaign runs;
* :mod:`repro.harness.bench` — the engine benchmarks behind
  ``repro bench`` and the ``BENCH_*.json`` files.
"""

from repro.harness.bench import BenchCase, run_campaign_bench
from repro.harness.collection import (
    campaign_subset,
    measurement_error_stats,
    row_environment,
)
from repro.harness.config import CampaignConfig, RetryPolicy
from repro.harness.parallel import (
    ShardProgress,
    run_campaign,
    shard_checkpoint_path,
    shard_of,
)
from repro.harness.runtime import (
    CampaignReport,
    CheckpointError,
    QuarantinedRow,
)
from repro.harness.comparison import ComparisonResult, TestGroup, run_comparison
from repro.harness.pairs import (
    PairCampaign,
    PairObservation,
    environment_for_record,
    run_pair_campaign,
)
from repro.harness.utilization import UtilizationTrace, simulate_utilization

__all__ = [
    "BenchCase",
    "CampaignConfig",
    "CampaignReport",
    "CheckpointError",
    "ComparisonResult",
    "PairCampaign",
    "PairObservation",
    "QuarantinedRow",
    "RetryPolicy",
    "ShardProgress",
    "TestGroup",
    "UtilizationTrace",
    "campaign_subset",
    "environment_for_record",
    "measurement_error_stats",
    "row_environment",
    "run_campaign",
    "run_campaign_bench",
    "run_comparison",
    "run_pair_campaign",
    "shard_checkpoint_path",
    "shard_of",
    "simulate_utilization",
]
