"""TCP New-Reno congestion control (RFC 2582).

"We have designed and used new micro-protocols implementing the TCP
New-Reno congestion control [6] ..." — the controller P2PSAP uses on
low-latency intra-cluster paths (Table I).

Implements slow start, congestion avoidance, fast retransmit on three
duplicate acks, and New-Reno fast *recovery*: the window halves (rather
than collapsing to 1), inflates by one segment per further dup ack, and
partial acks retransmit the next hole without leaving recovery.
"""

from __future__ import annotations

from typing import Optional

from .base import MAX_WINDOW, CongestionControl

__all__ = ["NewRenoCongestion"]


class NewRenoCongestion(CongestionControl):
    name = "cc-newreno"

    DUPACK_THRESHOLD = 3

    def __init__(self) -> None:
        super().__init__()
        self.in_fast_recovery = False
        self._recovery_cwnd = 0.0  # cwnd to restore on full ack (deflation)

    def on_ack(self, rtt: Optional[float] = None, partial: bool = False) -> None:
        """``partial=True`` models a partial ack inside fast recovery
        (RFC 2582 section 3: retransmit the next hole, stay in recovery,
        deflate by the acked amount — approximated as one segment)."""
        self.stats_acks += 1
        if rtt is not None:
            self.observe_rtt(rtt)
        if self.in_fast_recovery:
            if partial:
                # Stay in recovery; deflate one segment and retransmit next
                # hole (retransmission itself is reliability's job).
                self.cwnd = max(self.cwnd - 1.0, self.MIN_WINDOW)
                self.stats_fast_retransmits += 1
                return
            # Full ack: leave recovery, deflate to ssthresh.
            self.in_fast_recovery = False
            self.cwnd = self.ssthresh
            return
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start: +1 per ack (doubling per RTT)
        else:
            self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        self.cwnd = min(self.cwnd, float(MAX_WINDOW))

    def on_dupack(self, count: int) -> None:
        if self.in_fast_recovery:
            # Window inflation: each further dup ack signals a segment
            # has left the network.
            self.cwnd += 1.0
            return
        if count >= self.DUPACK_THRESHOLD:
            # Fast retransmit + enter fast recovery.
            self.stats_fast_retransmits += 1
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh + 3.0  # inflate by the 3 dup acks
            self.in_fast_recovery = True

    def on_timeout(self) -> None:
        """Multiplicative ssthresh, window back to one segment."""
        self.in_fast_recovery = False
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.MIN_WINDOW
        self.stats_timeouts += 1
        self.rto = min(self.rto * 2.0, 60.0)  # RFC 6298 backoff
