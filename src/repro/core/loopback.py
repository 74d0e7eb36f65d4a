"""Packet-level loopback of the Swiftest protocol.

The fluid client (:mod:`repro.core.client`) models many servers'
aggregate rate; this module complements it with a *packet-level* run
of one probing session: real encoded messages
(:mod:`repro.core.protocol`) travel between the client-side probing
logic and a :class:`~repro.core.server.SwiftestServer` over the
discrete-event engine, with a capacity cap dropping DATA packets that
exceed the simulated access link.

It exists to prove the protocol state machines interoperate
end-to-end (session setup → rate commands → paced DATA → FIN), and it
is the oracle of :mod:`repro.core.sessionbank`: every fault-free
session the bank runs, campaign rows and
:class:`~repro.core.variants.LoopbackSwiftest` alike, must match this
per-packet loop field for field.  It is the one path that encodes every
packet on the wire and the one that takes DATA-plane faults.

Both directions can be impaired with a
:class:`~repro.netsim.faults.FaultInjector`:

* ``control_faults`` sits on the control channel.  HELLO /
  RATE_COMMAND / FIN are retransmitted up to ``control_retries`` times
  until an ACK survives the return path; each lost exchange costs
  ``control_timeout_s`` of (accounted) wait time.
* ``data_faults`` sits on the DATA stream.  Lost or corrupted DATA
  packets simply lower the observed rate for that 50 ms sample — the
  sample stream itself never stalls, so the controller keeps running
  through loss bursts and blackouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.baselines.common import TestOutcome
from repro.core.convergence import ConvergenceDetector
from repro.core.probing import ProbingController
from repro.core.protocol import (
    DATA_PAYLOAD_BYTES,
    Ack,
    Data,
    Fin,
    Hello,
    Message,
    ProtocolError,
    RateCommand,
    decode,
)
from repro.core.server import SwiftestServer
from repro.netsim.engine import Simulator
from repro.netsim.faults import Delivery, FaultInjector
from repro.netsim.trace import positive_capacity
from repro.units import SAMPLE_INTERVAL_S


@dataclass
class LoopbackResult:
    """Outcome of a packet-level session.

    Attributes
    ----------
    bandwidth_mbps:
        The converged (or timeout) estimate.
    duration_s:
        Simulated probing time, including control-retransmission waits.
    packets_delivered / packets_dropped:
        DATA packets that survived / were lost to the capacity cap or
        the fault injector.
    rate_commands:
        Every rate the client commanded, in order.
    samples:
        (time, Mbps) client-side 50 ms samples.
    server:
        The server instance, for post-mortem inspection (session
        states, bytes sent).
    outcome:
        How the session concluded (see
        :class:`~repro.baselines.common.TestOutcome`).
    retransmissions:
        Control messages that had to be re-sent.
    packets_corrupted:
        DATA packets that arrived but failed to decode.
    """

    bandwidth_mbps: float
    duration_s: float
    packets_delivered: int
    packets_dropped: int
    rate_commands: List[float]
    samples: List[Tuple[float, float]] = field(repr=False, default_factory=list)
    server: SwiftestServer = field(repr=False, default=None)
    outcome: TestOutcome = TestOutcome.CONVERGED
    retransmissions: int = 0
    packets_corrupted: int = 0


def run_loopback_session(
    model,
    capacity_mbps: float,
    session_id: int = 1,
    tech: str = "5G",
    server_capacity_mbps: float = 10_000.0,
    max_duration_s: float = 5.0,
    data_faults: Optional[FaultInjector] = None,
    control_faults: Optional[FaultInjector] = None,
    control_timeout_s: float = 0.2,
    control_retries: int = 3,
) -> LoopbackResult:
    """Run one probing session at packet granularity.

    Parameters
    ----------
    model:
        Rate model for the controller (a fitted
        :class:`~repro.core.registry.TechnologyModel` or any duck-typed
        ladder).
    capacity_mbps:
        Access-link cap, positive and finite (``ValueError``
        otherwise): DATA packets beyond it within each 50 ms interval
        are dropped, exactly like a policer.
    data_faults / control_faults:
        Optional impairments on the DATA stream and the control
        channel respectively (see module docstring).
    control_timeout_s / control_retries:
        Retransmission budget for each control exchange; a control
        message that is never acked within the budget aborts the
        session setup (outcome ``FAILED``) or, mid-test, degrades it.
    """
    positive_capacity(capacity_mbps)
    if control_timeout_s <= 0:
        raise ValueError(f"control timeout must be positive, got {control_timeout_s}")
    if control_retries < 0:
        raise ValueError(f"control retries must be non-negative, got {control_retries}")
    sim = Simulator()
    server = SwiftestServer("loopback", capacity_mbps=server_capacity_mbps)
    controller = ProbingController(model, detector=ConvergenceDetector())

    state = {
        "delivered": 0,
        "dropped": 0,
        "corrupted": 0,
        "retransmissions": 0,
        "control_wait_s": 0.0,
        "result": None,
        "finished": False,
        "degraded": False,
    }

    def exchange(message: Message) -> bool:
        """One control message through the lossy channel, with bounded
        retransmission until an ACK makes it back."""
        wire = message.pack()
        for attempt in range(control_retries + 1):
            if attempt:
                state["retransmissions"] += 1
                state["control_wait_s"] += control_timeout_s
            deliveries = (
                control_faults.transmit(wire, sim.now)
                if control_faults is not None
                else [Delivery(wire)]
            )
            acked = False
            for delivery in deliveries:
                reply = server.handle_wire(delivery.wire, sim.now)
                if reply is None:
                    continue
                reply_wire = reply.pack()
                replies = (
                    control_faults.transmit(reply_wire, sim.now)
                    if control_faults is not None
                    else [Delivery(reply_wire)]
                )
                for back in replies:
                    try:
                        if isinstance(decode(back.wire), Ack):
                            acked = True
                    except ProtocolError:
                        continue  # corrupted ack: keep waiting
            if acked:
                return True
        return False

    # Session setup: HELLO then the initial RATE_COMMAND, as real
    # encoded bytes through the lossy control channel.
    rate_commands: List[float] = []

    def command_rate(rate_mbps: float) -> bool:
        ok = exchange(
            RateCommand(
                session_id, rate_kbps=int(rate_mbps * 1000), rung=len(rate_commands)
            )
        )
        if ok:
            rate_commands.append(rate_mbps)
        return ok

    if not exchange(Hello(session_id, tech, nonce=7)) or not command_rate(
        controller.rate_mbps
    ):
        # Control plane never came up: the test cannot start.
        return LoopbackResult(
            bandwidth_mbps=0.0,
            duration_s=state["control_wait_s"],
            packets_delivered=0,
            packets_dropped=0,
            rate_commands=rate_commands,
            samples=[],
            server=server,
            outcome=TestOutcome.FAILED,
            retransmissions=state["retransmissions"],
        )

    #: Packets the capacity cap lets through per 50 ms interval.
    budget_per_interval = capacity_mbps * 1e6 / 8 * SAMPLE_INTERVAL_S / (
        DATA_PAYLOAD_BYTES
    )

    samples: List[Tuple[float, float]] = []

    def interval() -> None:
        if state["finished"]:
            return
        packets = server.emit(session_id, sim.now, SAMPLE_INTERVAL_S)
        sent = len(packets)
        # The capacity cap polices first; survivors then cross the
        # (possibly impaired) access link as real wire bytes.
        capped = packets[: int(budget_per_interval)]
        state["dropped"] += len(packets) - len(capped)
        wires = [pkt.pack() for pkt in capped]
        arrived = (
            data_faults.transmit_batch(wires, sim.now)
            if data_faults is not None
            else wires
        )
        state["dropped"] += len(wires) - len(arrived)
        delivered = 0
        for wire in arrived:
            try:
                decoded = decode(wire)
            except ProtocolError:
                # Bit-flipped DATA: unusable, counts as loss.
                state["corrupted"] += 1
                state["dropped"] += 1
                continue
            if decoded.session_id == session_id:
                delivered += 1
        state["delivered"] += delivered
        # Loss-aware sample accounting: a lost packet lowers the
        # observed rate for this interval, nothing stalls the stream.
        rate = delivered * DATA_PAYLOAD_BYTES * 8 / 1e6 / SAMPLE_INTERVAL_S
        samples.append((sim.now + SAMPLE_INTERVAL_S, rate))
        # The client sees sequence numbers, so it knows what fraction
        # of the interval's DATA never arrived (policer and injected
        # loss are indistinguishable gaps from its side); the
        # controller discounts its saturation floor by that fraction,
        # clamped to MAX_LOSS_DISCOUNT.
        loss_frac = max(0.0, 1.0 - delivered / sent) if sent else 0.0
        decision = controller.on_sample(rate, loss_fraction=min(loss_frac, 0.99))
        if decision.finished:
            state["result"] = decision.result_mbps
            state["finished"] = True
            # FIN is best-effort: a server that never hears it reaps
            # the session at its idle timeout instead.
            if not exchange(Fin(session_id, int(decision.result_mbps * 1000))):
                state["degraded"] = True
            return
        if decision.rate_changed:
            if not command_rate(decision.rate_mbps):
                # Couldn't move the server to the new rate: keep
                # probing at the old one, flag the degradation.
                state["degraded"] = True
        if sim.now + SAMPLE_INTERVAL_S < max_duration_s:
            sim.schedule(SAMPLE_INTERVAL_S, interval)
        else:
            state["result"] = controller.force_finish().result_mbps
            state["finished"] = True

    sim.schedule(SAMPLE_INTERVAL_S, interval)
    sim.run()

    if state["degraded"]:
        outcome = TestOutcome.DEGRADED
    elif samples and controller.detector.converged():
        outcome = TestOutcome.CONVERGED
    else:
        outcome = TestOutcome.TIMED_OUT

    return LoopbackResult(
        bandwidth_mbps=float(state["result"]),
        duration_s=sim.now + state["control_wait_s"],
        packets_delivered=state["delivered"],
        packets_dropped=state["dropped"],
        rate_commands=rate_commands,
        samples=samples,
        server=server,
        outcome=outcome,
        retransmissions=state["retransmissions"],
        packets_corrupted=state["corrupted"],
    )
