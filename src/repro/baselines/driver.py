"""TCP flooding driver shared by the loss-based baseline BTSes.

Implements the "probing by flooding" pattern (§2): open parallel TCP
connections to the nearest test server, sample aggregate client
throughput every 50 ms, and progressively recruit additional nearby
servers when the latest sample crosses predefined thresholds (25 Mbps,
35 Mbps, and so on, following Speedtest's design).  Individual BTSes
differ in when they stop and how they turn samples into a result.

The driver is outage-aware: a server that is down when the escalation
ladder reaches it is skipped in favour of the next-ranked candidate,
and a recruited server that dies mid-test has its connections torn
down (their samples would otherwise keep counting a dead server's
last allocation).  The flooding estimate simply rides on the
surviving connections, as a real multi-connection test would.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.tcp.connection import TcpConnection
from repro.tcp.slowstart import make_cc
from repro.testbed.env import TestEnvironment
from repro.units import SAMPLE_INTERVAL_S, serial_sum

#: Simulation slice; four slices per 50 ms sample.
_STEP_S = 0.0125

#: Parallel connections opened per recruited server.
CONNECTIONS_PER_SERVER = 4

#: Maximum servers a flooding test will recruit (5 nearby servers are
#: PINGed per test in BTS-APP's deployment, §2).
MAX_SERVERS = 5


class NoReachableServerError(RuntimeError):
    """Every candidate server was dead at recruit time.

    Raised by :meth:`TcpFloodSession.run` when the initial recruitment
    pass exhausts the ranked candidate list without opening a single
    connection — the flooding test cannot even start.  Services catch
    this and report a ``FAILED``
    :class:`~repro.baselines.common.BTSResult` instead of letting the
    driver fall through to estimator code that would previously die on
    an opaque ``IndexError`` over the empty sample list.
    """

    def __init__(self, n_candidates: int):
        super().__init__(
            f"no reachable test server: all {n_candidates} ranked "
            f"candidate(s) were down at recruit time"
        )
        self.n_candidates = n_candidates


def escalation_thresholds(count: int = 12) -> List[float]:
    """The ladder of samples (Mbps) that trigger recruiting another
    server: 25, 35, then roughly x1.5 steps so gigabit links still
    escalate promptly."""
    ladder = [25.0, 35.0]
    while len(ladder) < count:
        ladder.append(round(ladder[-1] * 1.5, 1))
    return ladder


class TcpFloodSession:
    """One flooding run over a test environment.

    Parameters
    ----------
    env:
        The simulated client/server world.
    cc_name:
        Congestion-control algorithm for the TCP connections (Cubic by
        default, as on production servers).
    """

    def __init__(
        self,
        env: TestEnvironment,
        cc_name: str = "cubic",
        connections_per_server: int = CONNECTIONS_PER_SERVER,
        max_servers: int = MAX_SERVERS,
    ):
        if connections_per_server < 1:
            raise ValueError("need at least one connection per server")
        if max_servers < 1:
            raise ValueError("need at least one server")
        self.env = env
        self.cc_name = cc_name
        self.connections_per_server = connections_per_server
        self.max_servers = max_servers
        self.connections: List[TcpConnection] = []
        self.samples: List[Tuple[float, float]] = []
        self._ranked = env.servers_by_rtt()
        self._servers_used = 0
        self._next_candidate = 0
        #: Connections per recruited server, for mid-test teardown.
        self._server_conns: Dict[str, List[TcpConnection]] = {}
        self._thresholds = escalation_thresholds()
        self._threshold_idx = 0

    # -- internals -----------------------------------------------------

    def _recruit_server(self, now_s: float = 0.0) -> bool:
        """Open connections to the nearest unused *reachable* server.

        Candidates that are down at ``now_s`` are skipped (never
        retried: the escalation ladder keeps moving outward, as a real
        client's connect timeout would force it to)."""
        while (
            self._servers_used < self.max_servers
            and self._next_candidate < len(self._ranked)
        ):
            server = self._ranked[self._next_candidate]
            self._next_candidate += 1
            if not self.env.server_available(server, now_s):
                continue
            conns = [
                TcpConnection(
                    self.env.path_to(server),
                    make_cc(self.cc_name, rng=self.env.rng),
                    rng=self.env.rng,
                    label=f"{server.name}-conn{i}",
                )
                for i in range(self.connections_per_server)
            ]
            for conn in conns:
                conn.start()
            self.connections.extend(conns)
            self._server_conns[server.name] = conns
            self._servers_used += 1
            return True
        return False

    def _prune_dead_servers(self, now_s: float) -> None:
        """Tear down connections to recruited servers that have died;
        their flows must stop competing for (and reporting) bandwidth."""
        if self.env.faults is None:
            return
        for server in self._ranked:
            conns = self._server_conns.get(server.name)
            if not conns or not conns[0].active:
                continue
            if not self.env.server_available(server, now_s):
                for conn in conns:
                    conn.stop()

    def _maybe_escalate(self, sample_mbps: float, now_s: float = 0.0) -> None:
        while (
            self._threshold_idx < len(self._thresholds)
            and sample_mbps >= self._thresholds[self._threshold_idx]
        ):
            self._threshold_idx += 1
            self._recruit_server(now_s)

    # -- public --------------------------------------------------------

    @property
    def servers_used(self) -> int:
        return self._servers_used

    @property
    def bytes_used(self) -> float:
        return serial_sum(c.bytes_received for c in self.connections)

    def run(
        self,
        max_duration_s: float,
        stop_check: Optional[Callable[[List[Tuple[float, float]]], bool]] = None,
    ) -> List[Tuple[float, float]]:
        """Flood for up to ``max_duration_s``, returning the samples.

        ``stop_check`` (if given) is called after each new sample with
        the samples so far; returning True ends the test early —
        convergence-based services (FAST, FastBTS) use it.
        """
        if max_duration_s <= 0:
            raise ValueError(f"duration must be positive, got {max_duration_s}")
        if not self._recruit_server(0.0):
            raise NoReachableServerError(len(self._ranked))

        now = 0.0
        slice_bytes_start = 0.0
        next_sample_at = SAMPLE_INTERVAL_S
        while now < max_duration_s:
            for conn in self.connections:
                if conn.active:
                    conn.pre_allocate(now)
            self.env.network.allocate(now)
            for conn in self.connections:
                if conn.active:
                    conn.post_allocate(now, _STEP_S)
            now += _STEP_S
            if now + 1e-9 >= next_sample_at:
                self._prune_dead_servers(now)
                delivered = self.bytes_used - slice_bytes_start
                sample = delivered * 8 / 1e6 / SAMPLE_INTERVAL_S
                self.samples.append((now, sample))
                slice_bytes_start = self.bytes_used
                next_sample_at += SAMPLE_INTERVAL_S
                self._maybe_escalate(sample, now)
                if stop_check is not None and stop_check(self.samples):
                    break
        self.close()
        return self.samples

    def close(self) -> None:
        """Tear down all connections (idempotent)."""
        for conn in self.connections:
            conn.stop()


def ping_phase_duration(env: TestEnvironment, n_pinged: int) -> float:
    """Time spent PINGing candidate servers before probing.

    PINGs are issued sequentially in practice (one RTT each) to the
    ``n_pinged`` geographically nearest candidates.
    """
    ranked = env.servers_by_rtt()[: max(1, n_pinged)]
    return serial_sum(s.rtt_s for s in ranked)
