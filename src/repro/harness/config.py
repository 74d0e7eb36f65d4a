"""Campaign measurement configuration.

:class:`CampaignConfig` freezes the whole recipe for a measured
campaign into one immutable value that
:func:`repro.harness.parallel.run_campaign` — in-process, or in the
shard supervisor and every worker process — interprets identically:

* the *subset* identity (``seed``, ``max_tests``) that
  :func:`repro.harness.collection.campaign_subset` resolves;
* the *test* identity (``test`` + ``test_kwargs``), a name in the
  :mod:`repro.core.variants` registry rather than a live object, so a
  worker process can rebuild the exact service from the config alone;
* the *supervision* policy (``retry``, ``checkpoint_path``,
  ``checkpoint_every``);
* the *execution* shape (``n_shards``) — which, by design, never
  changes results (see :func:`repro.harness.parallel.shard_of`).

:class:`RetryPolicy` lives here (re-exported by
:mod:`repro.harness.runtime` for compatibility) because it is part of
the frozen recipe, not of the engine that executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.execmode import ExecutionMode


@dataclass(frozen=True)
class RetryPolicy:
    """How a failing row is retried.

    Attributes
    ----------
    max_attempts:
        Total tries per row (first attempt included).
    backoff_base_s:
        Delay before the first retry.
    backoff_factor:
        Multiplier applied to the delay for each further retry.
    jitter:
        Relative jitter amplitude: each delay is scaled by a factor
        drawn uniformly from ``[1 - jitter, 1 + jitter]`` using a
        seeded RNG, never the wall clock.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff base must be non-negative, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1:
            raise ValueError(
                f"backoff factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_s(self, seed: int, row: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``row``.

        Deterministic: the jitter RNG is seeded from
        ``(seed, row, attempt)``, so the accounted delay is identical
        however many times — or across however many resumes, on
        whichever shard — the row is revisited.
        """
        if attempt < 1:
            raise ValueError(f"retry attempts are 1-based, got {attempt}")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        rng = np.random.default_rng([seed, row, attempt, 0xB0FF])
        return float(base * (1.0 + self.jitter * rng.uniform(-1.0, 1.0)))


@dataclass(frozen=True)
class CampaignConfig:
    """The complete, immutable recipe for one measured campaign.

    Attributes
    ----------
    seed:
        Master seed: drives subset selection and every per-row
        environment (see :func:`repro.harness.collection.row_environment`).
    max_tests:
        Row cap (``None`` measures the whole campaign).  Named after
        the historical keyword; this is the campaign *size*.
    test:
        Registry name of the bandwidth test to run per row (see
        :func:`repro.core.variants.create_bandwidth_test`).
    test_kwargs:
        Constructor keyword arguments for ``test``.  Values must be
        picklable: worker processes rebuild the service from
        ``(test, test_kwargs)`` alone.
    retry:
        Per-row retry policy.
    checkpoint_path:
        When set, progress is persisted here (shards write sibling
        ``<path>.shard-<k>`` files merged into this one).
    checkpoint_every:
        Finished rows between checkpoint flushes.  The flush comes
        after the batch that reaches the count — one row on the
        per-row engine, a whole bank otherwise — so a bank, whose
        rows all finish at once, flushes at most once.
    n_shards:
        Upper bound on the worker processes the rows fan out over.
        A run forks only as many as the rows left to measure pay for
        (the executor's rows per worker, see
        :func:`repro.harness.runtime.executor_for`), and at one or
        fewer runs in-process; ``1`` always does.  Any value yields
        bit-identical datasets.
    manifest_path:
        Where the run manifest (seed, config, merged metric snapshot,
        outcome counts — see :mod:`repro.obs.manifest`) is written.
        Defaults to ``<checkpoint_path>.manifest.json`` when a
        checkpoint is configured, and to nothing otherwise; metrics
        are only collected when a manifest destination resolves, so
        unmanifested runs keep the zero-overhead null instruments.
    store_path:
        Root of a :class:`repro.store.RunStore` catalog.  When set,
        the finished run (manifest + measured dataset) is ingested
        there at end of run under the store's WAL commit protocol,
        and the report carries the catalog run id.
    store_month:
        Month label (``'aug'``, ``'nov'``, …) the ingested run is
        filed under for the longitudinal view; defaults to the
        manifest's creation month.
    mode:
        :class:`~repro.execmode.ExecutionMode` of the campaign
        executor.  ``auto`` (default) runs the rows of a bankable test
        through a lockstep bank (BTS-APP through the flood bank of
        :mod:`repro.baselines.floodbank`, the loopback through the
        columnar :class:`~repro.core.sessionbank.SessionBank`) and any
        other test row by row; ``oracle`` forces the per-row reference
        engine; ``vectorized`` demands a bank and raises when the
        configured test cannot be banked.  By the
        oracle contract the mode never changes results — it is not
        part of the campaign fingerprint, so checkpoints interoperate
        across modes.
    """

    seed: int = 0
    max_tests: Optional[int] = None
    test: str = "bts-app"
    test_kwargs: Dict[str, Any] = field(default_factory=dict)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint_path: Optional[Union[str, Path]] = None
    checkpoint_every: int = 100
    n_shards: int = 1
    manifest_path: Optional[Union[str, Path]] = None
    store_path: Optional[Union[str, Path]] = None
    store_month: Optional[str] = None
    mode: Union[ExecutionMode, str] = ExecutionMode.AUTO

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_tests is not None and self.max_tests < 1:
            raise ValueError(
                f"max_tests must be >= 1 or None, got {self.max_tests}"
            )
        if not self.test:
            raise ValueError("test name must be non-empty")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint interval must be >= 1, got {self.checkpoint_every}"
            )
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.checkpoint_path is not None:
            object.__setattr__(
                self, "checkpoint_path", Path(self.checkpoint_path)
            )
        if self.manifest_path is not None:
            object.__setattr__(
                self, "manifest_path", Path(self.manifest_path)
            )
        if self.store_path is not None:
            object.__setattr__(self, "store_path", Path(self.store_path))
        # Defensive copy: a caller mutating its kwargs dict afterwards
        # must not silently change a frozen config.
        object.__setattr__(self, "test_kwargs", dict(self.test_kwargs))
        object.__setattr__(self, "mode", ExecutionMode.coerce(self.mode))

    def resolved_manifest_path(self) -> Optional[Path]:
        """Where this run's manifest lands: the explicit
        ``manifest_path``, else the checkpoint's sibling
        ``<checkpoint>.manifest.json``, else nowhere."""
        if self.manifest_path is not None:
            return Path(self.manifest_path)
        if self.checkpoint_path is not None:
            from repro.obs.manifest import manifest_path_for

            return manifest_path_for(self.checkpoint_path)
        return None

    def make_test(self):
        """Build the configured bandwidth test from the registry."""
        from repro.core.variants import create_bandwidth_test

        return create_bandwidth_test(self.test, **self.test_kwargs)
