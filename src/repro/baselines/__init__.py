"""Baseline bandwidth testing services the paper measures against.

* :mod:`repro.baselines.btsapp` — the commercial BTS-APP: probing by
  flooding over TCP for a fixed 10 seconds, group-trimmed mean (§2).
* :mod:`repro.baselines.floodbank` — that flood for many environments
  in lockstep, byte-identical to the per-row
  :class:`~repro.baselines.driver.TcpFloodSession`.
* :mod:`repro.baselines.speedtest` — the Speedtest configuration
  BTS-APP derives from: 15 seconds, top-10%/bottom-25% trim (§5.1).
* :mod:`repro.baselines.fast` — Netflix FAST's convergence-based test
  over TCP (reverse-engineered in the FastBTS paper, reimplemented
  here as the authors did).
* :mod:`repro.baselines.fastbts` — FastBTS's crucial-interval sampling
  (NSDI'21), which can converge prematurely during slow start —
  the accuracy weakness §5.3 demonstrates.

All run over the same :class:`repro.testbed.TestEnvironment` as
Swiftest, so comparisons exercise identical network conditions.
"""

from repro.baselines.btsapp import BtsApp
from repro.baselines.common import BandwidthTestService, BTSResult, TestOutcome
from repro.baselines.fast import FastCom
from repro.baselines.fastbts import FastBTS
from repro.baselines.speedtest import SpeedtestLike

__all__ = [
    "BTSResult",
    "BandwidthTestService",
    "BtsApp",
    "FastBTS",
    "FastCom",
    "SpeedtestLike",
    "TestOutcome",
]
