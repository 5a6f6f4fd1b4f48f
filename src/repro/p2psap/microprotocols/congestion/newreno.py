"""TCP New-Reno congestion control (RFC 2582).

"We have designed and used new micro-protocols implementing the TCP
New-Reno congestion control [6] ..." — the controller P2PSAP uses on
low-latency intra-cluster paths (Table I).

Implements slow start, congestion avoidance and the retransmission
timeout: half the window becomes the slow-start threshold and the
window falls back to one segment.  New-Reno's fast retransmit and fast
recovery run on duplicate ACKs, which per-segment ACKs never produce
(see :mod:`~repro.p2psap.microprotocols.congestion.base`), so they do
not arise here.
"""

from __future__ import annotations

from typing import Optional

from .base import MAX_WINDOW, CongestionControl

__all__ = ["NewRenoCongestion"]

_MAX_CWND = float(MAX_WINDOW)


class NewRenoCongestion(CongestionControl):
    name = "cc-newreno"

    def on_ack(self, rtt: Optional[float] = None) -> None:
        self.stats_acks += 1
        if rtt is not None:
            self.observe_rtt(rtt)
        cwnd = self.cwnd
        if cwnd < self.ssthresh:
            cwnd += 1.0  # slow start: +1 per ack (doubling per RTT)
        else:
            cwnd += 1.0 / cwnd  # congestion avoidance
        self.cwnd = _MAX_CWND if _MAX_CWND < cwnd else cwnd  # min(cwnd, max)

    def on_timeout(self) -> None:
        """Multiplicative ssthresh, window back to one segment."""
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.MIN_WINDOW
        self.stats_timeouts += 1
        self.rto = min(self.rto * 2.0, 60.0)  # RFC 6298 backoff
