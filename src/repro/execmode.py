"""The unified :class:`ExecutionMode` switch for oracle/fast paths.

Three engines in this codebase follow the same *byte-identical oracle*
discipline: a slow, obviously-correct reference implementation is kept
alive forever, a vectorized fast path must reproduce its output bit for
bit, and benchmarks verify (not assume) the equivalence.  Historically
each engine grew its own ``vectorized: bool`` keyword —
:func:`repro.core.loopback.run_loopback_session`,
:func:`repro.dataset.generator.generate_campaign`, the
:class:`repro.netsim.trace.FluctuatingTrace` OU filter — with slightly
different ``None``/``True``/``False`` semantics each time.

:class:`ExecutionMode` replaces them with one tri-state enum:

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
library so every layer (``core``, ``netsim``, ``dataset``,
``harness``) can import it without cycles.
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
