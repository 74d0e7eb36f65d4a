"""The unified :class:`ExecutionMode` switch of the campaign executor.

One engine picks its path by mode at run time: the campaign executor
(:func:`repro.harness.parallel.run_campaign`, whose one rule is
:func:`repro.harness.runtime.executor_for`).  ``oracle`` measures
every row on its own through :func:`repro.harness.runtime.measure_row`,
with its own environment and retries, and the banked paths (the
session bank of :mod:`repro.core.sessionbank` for the loopback, the
flood bank of :mod:`repro.baselines.floodbank` for BTS-APP and
Speedtest) must give
the same rows.  Tests and CI verify that rather than assume it.

An engine whose reference is independent of its kernel keeps that
reference as a plain function, not a mode: the loopback's per-packet
loop (:func:`repro.core.loopback.run_loopback_session`), the one path
that encodes packets on the wire and takes DATA-plane faults, is the
oracle every session-bank result is tested against, and the flood
bank's is the per-row :class:`~repro.baselines.driver.TcpFloodSession`.
Engines whose reference only repeated their fast kernel take no mode:
the dataset generator's per-row reference is ``chunk_size=1``, and the
references of the capacity-trace OU filter and the analysis folds
live in the test suite.

:class:`ExecutionMode` is one tri-state enum:

``oracle``
    Force the per-row engine.  Slower; the reference banked campaigns
    are checked against.
``vectorized``
    Demand a bank; raise when none serves the service (e.g. FAST)
    rather than silently degrade.
``auto``
    The default: take a bank whenever one serves the service, the
    per-row engine otherwise.  Because banked and per-row runs are
    byte-identical, ``auto`` is always safe to leave on.

The module deliberately has no dependencies beyond the standard
library so any layer can import it without cycles.
"""

from __future__ import annotations

import enum
from typing import Union

__all__ = ["ExecutionMode"]


class ExecutionMode(str, enum.Enum):
    """How the campaign executor measures rows: one at a time, or
    through a lockstep bank.

    The enum subclasses :class:`str` so a mode survives JSON round
    trips (config manifests, checkpoints) as its plain value and
    compares equal to it: ``ExecutionMode.AUTO == "auto"``.
    """

    ORACLE = "oracle"
    VECTORIZED = "vectorized"
    AUTO = "auto"

    @classmethod
    def coerce(
        cls, value: Union["ExecutionMode", str, None]
    ) -> "ExecutionMode":
        """Normalise a mode spelled as enum, string or ``None``.

        ``None`` means "no explicit choice" and resolves to ``auto``;
        strings are matched case-insensitively against the enum
        values so CLI flags and JSON both coerce directly.
        """
        if value is None:
            return cls.AUTO
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown execution mode {value!r} "
                f"(expected one of {[m.value for m in cls]})"
            ) from None
