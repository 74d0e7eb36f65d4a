"""Swiftest design-choice variants and the unified BandwidthTest API.

The paper motivates three choices: the statistically-seeded initial
rate (§5.1), the UDP explicit-rate transport (§5.1, §7), and the
3% convergence rule.  Each variant here swaps exactly one of them so
the benchmark suite (``benchmarks/ablations/``) can quantify what the
choice buys:

* :class:`FixedLadderModel` — replaces the fitted mixture with the
  Speedtest-style fixed ladder (start at 25 Mbps, multiplicative
  steps), isolating the value of statistical guidance;
* :class:`TcpSwiftest` — the §7 alternative: keep the convergence
  rule but probe over TCP/BBR flooding instead of commanded-rate UDP,
  isolating the value of skipping slow start;
* :class:`LoopbackSwiftest` — the packet-level protocol loopback
  (:mod:`repro.core.loopback`) packaged as a bandwidth test, the
  cheap per-row service the sharded campaign engine defaults to.

Convergence-threshold ablations need no variant class: pass a custom
:class:`~repro.core.convergence.ConvergenceDetector` through
:class:`~repro.core.probing.ProbingController`.

This module is also the home of the **unified test API**: every
bandwidth test — Swiftest and the four ``baselines/`` tools — satisfies
the :class:`BandwidthTest` protocol (``run(env) -> BTSResult`` plus a
``name``; data usage and server count travel in the result's
``bytes_used`` / ``servers_used``) and is registered **by name** in one
registry.  Harnesses and the CLI look tests up with
:func:`create_bandwidth_test` instead of importing classes, so adding a
tool is one ``register_bandwidth_test`` call, and worker processes can
rebuild a test from its ``(name, kwargs)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.baselines.common import BandwidthTestService, BTSResult, TestOutcome
from repro.baselines.driver import (
    NoReachableServerError,
    TcpFloodSession,
    ping_phase_duration,
)
from repro.core.convergence import ConvergenceDetector
from repro.core.protocol import DATA_PAYLOAD_BYTES
from repro.execmode import ExecutionMode
from repro.tcp.slowstart import check_cc_name
from repro.testbed.env import TestEnvironment


@runtime_checkable
class BandwidthTest(Protocol):
    """What every bandwidth test looks like to harnesses and the CLI.

    A test has a stable ``name`` (the registry key, echoed in
    ``BTSResult.service``) and measures one environment per
    :meth:`run` call.  Per-test resource accounting — bytes
    transferred, servers recruited — is carried by the returned
    :class:`~repro.baselines.common.BTSResult` (``bytes_used``,
    ``servers_used``), not by the test object, so a single instance
    can be reused across rows and processes without hidden state.

    :class:`~repro.baselines.common.BandwidthTestService` subclasses
    satisfy this protocol automatically; duck-typed implementations
    (no base class) work equally well.
    """

    name: str

    def run(self, env: TestEnvironment) -> BTSResult:
        """Execute one bandwidth test against an environment."""
        ...


@dataclass(frozen=True)
class FixedLadderModel:
    """Duck-typed stand-in for a fitted TechnologyModel: the legacy
    fixed probing ladder (25 Mbps, then multiplicative steps).

    Implements the same rate-query protocol as
    :class:`~repro.core.registry.TechnologyModel`, so it plugs directly
    into :class:`~repro.core.probing.ProbingController`.
    """

    start_mbps: float = 25.0
    step_factor: float = 1.5
    top_mbps: float = 10_000.0

    def __post_init__(self) -> None:
        if self.start_mbps <= 0:
            raise ValueError("ladder must start above zero")
        if self.step_factor <= 1.0:
            raise ValueError("step factor must exceed 1")

    def initial_rate_mbps(self) -> float:
        return self.start_mbps

    def next_rate_mbps(self, current_mbps: float) -> Optional[float]:
        nxt = current_mbps * self.step_factor
        return nxt if nxt <= self.top_mbps else None

    def ladder(self) -> List[float]:
        rungs = [self.start_mbps]
        while True:
            nxt = self.next_rate_mbps(rungs[-1])
            if nxt is None:
                break
            rungs.append(nxt)
        return rungs


class TcpSwiftest(BandwidthTestService):
    """Swiftest's stopping rule over TCP/BBR flooding (§7 variant).

    Keeps the 10-sample / 3% convergence rule and the small server
    fleet, but lets TCP discover the rate instead of commanding it over
    UDP — so the test still pays for the slow-start ramp, which is the
    cost this variant exists to measure.
    """

    name = "tcp-swiftest"

    def __init__(self, cc_name: str = "bbr", max_duration_s: float = 10.0):
        self.cc_name = check_cc_name(cc_name)
        self.max_duration_s = max_duration_s

    def run(self, env: TestEnvironment) -> BTSResult:
        ping_s = ping_phase_duration(env, len(env.servers))
        session = TcpFloodSession(env, cc_name=self.cc_name)
        detector = ConvergenceDetector()
        state = {"result": None}

        def stop_check(samples: List[Tuple[float, float]]) -> bool:
            detector.push(samples[-1][1])
            if detector.converged():
                state["result"] = detector.value()
                return True
            return False

        try:
            samples = session.run(self.max_duration_s, stop_check=stop_check)
        except NoReachableServerError as exc:
            return BTSResult(
                service=self.name,
                bandwidth_mbps=0.0,
                duration_s=0.0,
                ping_s=ping_s,
                bytes_used=0.0,
                samples=[],
                servers_used=0,
                meta={"error": str(exc), "transport": "tcp"},
                outcome=TestOutcome.FAILED,
            )
        result = state["result"]
        if result is None:
            values = [s for _, s in samples[-10:]]
            result = float(np.mean(values)) if values else 0.0
        duration = samples[-1][0] if samples else 0.0
        return BTSResult(
            service=self.name,
            bandwidth_mbps=float(result),
            duration_s=duration,
            ping_s=ping_s,
            bytes_used=session.bytes_used,
            samples=samples,
            servers_used=session.servers_used,
            meta={"estimator": "converged-window-mean", "transport": "tcp"},
        )


class LoopbackSwiftest(BandwidthTestService):
    """Swiftest's packet-level protocol loopback as a bandwidth test.

    Wraps :func:`repro.core.loopback.run_loopback_session` behind the
    :class:`BandwidthTest` protocol: the access capacity is the
    environment's true mean capacity over the probing window, the PING
    phase costs one RTT to the nearest server, and the session's
    :class:`~repro.baselines.common.TestOutcome` carries through.

    This is the service behind ``--test swiftest-loopback`` campaigns
    and the pipeline benchmark's measure-swiftest workload: the
    loopback exercises the real protocol state machines yet costs a
    few milliseconds per row once the interval loop is vectorized,
    and whole campaigns of fault-free rows run in lockstep through the
    :class:`~repro.core.sessionbank.SessionBank` (see
    :func:`repro.harness.runtime.iter_banked_rows`).  ``mode`` is the
    :class:`~repro.execmode.ExecutionMode` of the interval loop:
    ``auto`` (default) takes the numpy fast path whenever no data-plane
    faults are injected, ``oracle`` forces the per-packet loop (the
    reference the fast path and the session bank are checked against),
    ``vectorized`` demands the fast path.
    """

    name = "swiftest-loopback"

    def __init__(
        self,
        model=None,
        max_duration_s: float = 5.0,
        mode: Optional["ExecutionMode"] = None,
    ):
        self.model = model if model is not None else FixedLadderModel()
        self.max_duration_s = max_duration_s
        self.mode = ExecutionMode.coerce(mode)

    def run(self, env: TestEnvironment) -> BTSResult:
        from repro.core.loopback import run_loopback_session

        ranked = env.servers_by_rtt()
        ping_s = ranked[0].rtt_s if ranked else 0.0
        server_capacity = (
            ranked[0].capacity_mbps if ranked else 10_000.0
        )
        result = run_loopback_session(
            self.model,
            capacity_mbps=env.true_mean_capacity(0.0, self.max_duration_s),
            tech=env.tech,
            server_capacity_mbps=server_capacity,
            max_duration_s=self.max_duration_s,
            mode=self.mode,
        )
        return BTSResult(
            service=self.name,
            bandwidth_mbps=result.bandwidth_mbps,
            duration_s=result.duration_s,
            ping_s=ping_s,
            bytes_used=result.packets_delivered * DATA_PAYLOAD_BYTES,
            samples=result.samples,
            servers_used=1,
            meta={
                "transport": "udp-loopback",
                "rate_commands": len(result.rate_commands),
            },
            outcome=result.outcome,
        )


# -- the bandwidth-test registry -------------------------------------------

#: name -> factory.  Factories take the test's constructor kwargs and
#: return a fresh instance; they stay callables (not instances) so each
#: lookup yields an independent, unshared test object.
_BANDWIDTH_TESTS: Dict[str, Callable[..., BandwidthTest]] = {}


def register_bandwidth_test(
    name: str, factory: Callable[..., BandwidthTest]
) -> None:
    """Register (or replace) a bandwidth test under ``name``."""
    if not name:
        raise ValueError("bandwidth test name must be non-empty")
    _BANDWIDTH_TESTS[name] = factory


def bandwidth_test_names() -> List[str]:
    """Registered test names, sorted."""
    return sorted(_BANDWIDTH_TESTS)


def create_bandwidth_test(name: str, **kwargs) -> BandwidthTest:
    """Instantiate the test registered under ``name``.

    ``kwargs`` are forwarded to the test's constructor — e.g.
    ``create_bandwidth_test("swiftest", registry=fitted_registry)`` or
    ``create_bandwidth_test("swiftest-loopback", mode="oracle")``.
    """
    try:
        factory = _BANDWIDTH_TESTS[name]
    except KeyError:
        raise KeyError(
            f"unknown bandwidth test {name!r} "
            f"(registered: {bandwidth_test_names()})"
        ) from None
    return factory(**kwargs)


def _register_builtin_tests() -> None:
    """Populate the registry with Swiftest and every baselines/ tool.

    Imports are local: the baselines import this module's
    :class:`NoReachableServerError` handling path, so eager top-level
    imports here would be cyclic.
    """
    from repro.baselines.btsapp import BtsApp
    from repro.baselines.fast import FastCom
    from repro.baselines.fastbts import FastBTS
    from repro.baselines.speedtest import SpeedtestLike
    from repro.core.client import SwiftestClient

    register_bandwidth_test("bts-app", BtsApp)
    register_bandwidth_test("speedtest", SpeedtestLike)
    register_bandwidth_test("fast", FastCom)
    register_bandwidth_test("fastbts", FastBTS)
    register_bandwidth_test("tcp-swiftest", TcpSwiftest)
    register_bandwidth_test("swiftest", SwiftestClient)
    register_bandwidth_test("swiftest-loopback", LoopbackSwiftest)


_register_builtin_tests()
