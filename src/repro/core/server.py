"""Swiftest server-side session logic.

A test server is intentionally dumb: it answers a HELLO, then emits
DATA packets at whatever rate the latest RATE_COMMAND dictates, until
a FIN (or an idle timeout) ends the session.  All intelligence lives
client-side, which is what lets Swiftest run on 100 Mbps budget VMs.

This module implements the protocol state machine over abstract
"send"/"receive" hooks so it can be unit-tested without a network; the
fluid simulation in :mod:`repro.core.client` models the aggregate
effect of many such servers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.protocol import (
    DATA_PAYLOAD_BYTES,
    Ack,
    Data,
    Feedback,
    Fin,
    Hello,
    Message,
    ProtocolError,
    RateCommand,
    decode,
)
from repro.obs.metrics import active_registry

#: Sessions idle longer than this are reaped.
SESSION_TIMEOUT_S = 5.0


class SessionState(enum.Enum):
    AWAITING_RATE = "awaiting_rate"
    SENDING = "sending"
    CLOSED = "closed"


@dataclass
class Session:
    """One client's probing session on a server."""

    session_id: int
    tech: str
    state: SessionState = SessionState.AWAITING_RATE
    rate_mbps: float = 0.0
    rung: int = 0
    next_seq: int = 0
    last_activity_s: float = 0.0
    bytes_sent: float = 0.0
    #: Residual fractional packet carried between pacing intervals.
    _carry_packets: float = 0.0

    def packets_due(self, interval_s: float) -> int:
        """DATA packets to emit over ``interval_s`` at the current
        rate, carrying fractional remainders across calls so the
        long-run rate is exact."""
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        due = (
            self.rate_mbps * 1e6 / 8 * interval_s / DATA_PAYLOAD_BYTES
            + self._carry_packets
        )
        whole = int(due)
        self._carry_packets = due - whole
        return whole


class SwiftestServer:
    """Protocol state machine for one test server."""

    def __init__(self, name: str, capacity_mbps: float):
        if capacity_mbps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_mbps}")
        self.name = name
        self.capacity_mbps = capacity_mbps
        self.sessions: Dict[int, Session] = {}
        #: Datagrams that failed to decode (corruption on the wire).
        self.decode_errors = 0
        #: Well-formed messages for unknown/closed sessions (late
        #: arrivals after a reap, or misrouted retransmissions).
        self.orphan_messages = 0

    # -- message handling ------------------------------------------------

    def handle(self, message: Message, now_s: float) -> Optional[Message]:
        """Process one client message; returns the :class:`Ack` reply
        for control messages (HELLO / RATE_COMMAND / FIN) so lossy-link
        clients know when to stop retransmitting.

        This is the *strict* entry point: orphan messages raise
        :class:`ProtocolError`.  Network-facing callers should use
        :meth:`handle_wire`, which tolerates garbage.
        """
        if isinstance(message, Hello):
            existing = self.sessions.get(message.session_id)
            if existing is not None and existing.state is not SessionState.CLOSED:
                # Retransmitted HELLO: idempotent — keep the session
                # (and any rate already commanded), just re-ack.
                existing.last_activity_s = now_s
            else:
                self.sessions[message.session_id] = Session(
                    session_id=message.session_id,
                    tech=message.tech,
                    last_activity_s=now_s,
                )
            return Ack(message.session_id, Hello.TAG)
        session = self.sessions.get(message.session_id)
        if session is None or session.state is SessionState.CLOSED:
            raise ProtocolError(
                f"message for unknown/closed session {message.session_id}"
            )
        session.last_activity_s = now_s
        if isinstance(message, RateCommand):
            requested = message.rate_mbps
            # A server never promises more than its uplink.
            session.rate_mbps = min(requested, self.capacity_mbps)
            session.rung = message.rung
            session.state = SessionState.SENDING
            return Ack(message.session_id, RateCommand.TAG)
        if isinstance(message, Feedback):
            # Currently informational; recorded for operations metrics.
            return None
        if isinstance(message, Fin):
            session.state = SessionState.CLOSED
            return Ack(message.session_id, Fin.TAG)
        raise ProtocolError(f"server cannot handle {type(message).__name__}")

    def handle_wire(self, wire: bytes, now_s: float) -> Optional[Message]:
        """Network-facing entry point: decode and process one datagram.

        A production server must survive whatever the network hands it:
        corrupted bytes are counted and dropped, and well-formed
        messages for unknown or already-reaped sessions (e.g. a late
        FEEDBACK arriving after :meth:`reap_idle` closed the session)
        are counted and ignored instead of raising.
        """
        try:
            message = decode(wire)
        except ProtocolError:
            self.decode_errors += 1
            active_registry().counter("swiftest.server.decode_errors").inc()
            return None
        try:
            return self.handle(message, now_s)
        except ProtocolError:
            self.orphan_messages += 1
            active_registry().counter("swiftest.server.orphan_messages").inc()
            return None

    # -- data emission -----------------------------------------------------

    def emit(self, session_id: int, now_s: float, interval_s: float) -> List[Data]:
        """DATA packets the session owes for the elapsed interval."""
        session = self.sessions.get(session_id)
        if session is None:
            raise ProtocolError(f"unknown session {session_id}")
        if session.state is not SessionState.SENDING:
            return []
        packets = []
        for _ in range(session.packets_due(interval_s)):
            packets.append(
                Data(
                    session_id=session_id,
                    seq=session.next_seq,
                    send_time_us=int(now_s * 1e6),
                )
            )
            session.next_seq += 1
            session.bytes_sent += DATA_PAYLOAD_BYTES
        session.last_activity_s = now_s
        return packets

    # -- housekeeping --------------------------------------------------

    def reap_idle(self, now_s: float, timeout_s: float = SESSION_TIMEOUT_S) -> int:
        """Close sessions idle beyond the timeout; returns how many."""
        reaped = 0
        for session in self.sessions.values():
            if (
                session.state is not SessionState.CLOSED
                and now_s - session.last_activity_s > timeout_s
            ):
                session.state = SessionState.CLOSED
                reaped += 1
        if reaped:
            active_registry().counter("swiftest.server.reaped_sessions").inc(
                reaped
            )
        return reaped

    def active_sessions(self) -> int:
        return sum(
            1
            for s in self.sessions.values()
            if s.state is not SessionState.CLOSED
        )

    def committed_rate_mbps(self) -> float:
        """Total rate currently promised to active sessions."""
        return sum(
            s.rate_mbps
            for s in self.sessions.values()
            if s.state is SessionState.SENDING
        )
