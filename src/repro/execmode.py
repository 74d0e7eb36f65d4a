"""The unified :class:`ExecutionMode` switch for oracle/fast paths.

Two engines keep a *byte-identical oracle* at run time.  One is the
loopback Swiftest session
(:func:`repro.core.loopback.run_loopback_session`,
:class:`repro.core.variants.LoopbackSwiftest`): its per-packet
interval loop is the slow, obviously-correct reference — the only path
that exercises wire encoding and DATA-plane faults — and the
vectorized and banked fast paths must reproduce its output bit for
bit.  The other is the campaign executor
(:func:`repro.harness.parallel.run_campaign`): ``oracle`` measures
every row on its own through
:func:`repro.harness.runtime.measure_row`, and the banked paths (the
session bank for the loopback, the flood bank of
:mod:`repro.baselines.floodbank` for BTS-APP, whose reference is the
per-row :class:`~repro.baselines.driver.TcpFloodSession`) must give
the same rows.  Benchmarks and tests verify both rather than assume
them.  Engines whose
reference only repeated their fast kernel take no mode: the dataset
generator's per-row reference is ``chunk_size=1``, and the references
of the capacity-trace OU filter and the analysis folds live in the
test suite.

:class:`ExecutionMode` is one tri-state enum:

``oracle``
    Force the scalar reference path.  Slow, used as the ground truth
    by benchmarks and identity tests.
``vectorized``
    Demand the fast path; raise when the inputs make it unsound (e.g.
    DATA-plane faults in the loopback) rather than silently degrade.
``auto``
    The default: take the fast path whenever it is sound for the
    inputs at hand, fall back to the oracle per element (per row, per
    session) otherwise.  Because fast path and oracle are
    byte-identical, ``auto`` is always safe to leave on.

The module deliberately has no dependencies beyond the standard
library so any layer can import it without cycles.
"""

from __future__ import annotations

import enum
from typing import Union

__all__ = ["ExecutionMode"]


class ExecutionMode(str, enum.Enum):
    """How an engine with a scalar oracle and a vectorized fast path
    should execute.

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
