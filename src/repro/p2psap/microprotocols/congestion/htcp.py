"""H-TCP congestion control (Leith & Shorten, PFLDnet 2004).

"... and the H-TCP congestion control for high speed-latency network" —
the controller Table I assigns to the synchronous inter-cluster cell,
where the 100 ms path makes New-Reno's one-segment-per-RTT growth far
too slow.

H-TCP replaces AIMD's constant increase with a function of the elapsed
time Δ since the last congestion event:

    α(Δ) = 1                                   for Δ ≤ Δ_L
    α(Δ) = 1 + 10(Δ − Δ_L) + ((Δ − Δ_L)/2)²    for Δ > Δ_L

with Δ_L = 1 s, so it behaves like standard TCP in the low-speed regime
and polynomially aggressively beyond it.  The increase per ack is
α/cwnd (i.e. α per RTT).  On loss, the adaptive backoff uses the ratio
of minimum to maximum observed RTT, β = RTTmin/RTTmax clamped to
[0.5, 0.8] (0.5 before any RTT sample).  H-TCP's adaptive reset (β
back to 0.5 when throughput moves by more than 20 % between congestion
epochs) is not modelled.  The congestion event is the retransmission
timeout: per-segment ACKs produce no duplicate ACKs (see
:mod:`~repro.p2psap.microprotocols.congestion.base`).
"""

from __future__ import annotations

from typing import Optional

from .base import CongestionControl

__all__ = ["HTCPCongestion"]


class HTCPCongestion(CongestionControl):
    name = "cc-htcp"

    DELTA_L = 1.0  # seconds of low-speed regime
    BETA_MIN = 0.5
    BETA_MAX = 0.8

    def __init__(self) -> None:
        super().__init__()
        self._last_congestion_at: Optional[float] = None
        self.rtt_min: Optional[float] = None
        self.rtt_max: Optional[float] = None
        self.beta = self.BETA_MIN

    # -- helpers -------------------------------------------------------------

    def _now(self) -> float:
        # Unit tests may drive the controller without a composite; then the
        # elapsed-time feature degrades gracefully to standard TCP.
        if self.composite is None:
            return 0.0
        return self.composite.sim._now

    def elapsed_since_congestion(self) -> float:
        if self._last_congestion_at is None:
            # No loss seen yet: treat session start as the epoch start.
            return self._now()
        return self._now() - self._last_congestion_at

    def alpha(self, delta: float) -> float:
        """The H-TCP increase function α(Δ)."""
        if delta <= self.DELTA_L:
            return 1.0
        excess = delta - self.DELTA_L
        return 1.0 + 10.0 * excess + (excess / 2.0) ** 2

    def _update_beta(self) -> None:
        """Adaptive backoff factor: the clamped RTT ratio."""
        if self.rtt_min and self.rtt_max and self.rtt_max > 0:
            self.beta = min(
                max(self.rtt_min / self.rtt_max, self.BETA_MIN), self.BETA_MAX
            )
        else:
            self.beta = self.BETA_MIN

    # -- state machine -----------------------------------------------------------

    def on_ack(self, rtt: Optional[float] = None) -> None:
        self.stats_acks += 1
        if rtt is not None:
            self.observe_rtt(rtt)
            # min/max as comparisons (once per ACK): the same values.
            low, high = self.rtt_min, self.rtt_max
            if low is None or rtt < low:
                self.rtt_min = rtt
            if high is None or rtt > high:
                self.rtt_max = rtt
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start unchanged
        else:
            self.cwnd += self.alpha(self.elapsed_since_congestion()) / self.cwnd

    def on_timeout(self) -> None:
        """The congestion event: back off by β and restart the epoch."""
        self._update_beta()
        self.ssthresh = max(self.cwnd * self.beta, 2.0)
        self.cwnd = max(self.cwnd * self.beta, self.MIN_WINDOW)
        self._last_congestion_at = self._now()
        self.stats_timeouts += 1
        self.rto = min(self.rto * 2.0, 60.0)
