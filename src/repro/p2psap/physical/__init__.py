"""The physical-layer composite protocol of the data channel: Ethernet.

The paper's physical layer supports Ethernet, InfiniBand and Myrinet,
one composite protocol each, substituted for one another when the data
channel moves between network types.  The testbed it reports on
(NICTA) is 100 Mbit Ethernet, and every session here runs on it, so
:data:`ETHERNET` is the one :class:`~repro.p2psap.physical.base.PhysicalSpec`
a data channel uses.  Another fabric is another spec (framing bytes and
host cost) on links of its bandwidth.
"""

from .base import PhysicalProtocol, PhysicalSpec

__all__ = ["PhysicalProtocol", "PhysicalSpec", "ETHERNET"]

#: 100 Mbit switched Ethernet — the testbed fabric.  Bandwidth is left to
#: the link (the topology builder already sets 100 Mbit/s).
ETHERNET = PhysicalSpec(name="ethernet", header_bytes=18, per_message_cost=10e-6)
