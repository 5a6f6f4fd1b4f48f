"""repro — reproduction of *High Performance Peer-to-Peer Distributed
Computing with Application to Obstacle Problem* (Nguyen, El Baz, Spitéri,
Jourjon, Chau — IEEE IPDPSW 2010).

Subpackages
-----------
``repro.simnet``
    Deterministic discrete-event substrate: virtual-time kernel and the
    simulated NICTA testbed (nodes, links, Netem).
``repro.cactus``
    The Cactus-like micro-protocol framework P2PSAP is built on
    (events, zero-copy messages, composite protocols, micro-protocol
    removal and substitution).
``repro.p2psap``
    The self-adaptive transport protocol: socket API, data channel
    (sync/async modes, buffers, in-sequence reliability, New-Reno / H-TCP
    congestion control, an Ethernet physical layer), control channel
    (session open/close; each session's config is its Table I cell,
    looked up at open).
``repro.core``
    The P2PDC environment: topology manager, task manager, task
    execution, the three-function programming model with P2P_Send /
    P2P_Receive, plus the fault-tolerance extension.
``repro.numerics``
    The 3-D obstacle problem (membrane / torsion / options instances),
    projected Richardson theory and the sequential reference solver.
``repro.solvers``
    The distributed projected Richardson application (Figure 4
    procedure) with sound termination detection for asynchronous
    iterations.
``repro.experiments``
    Harness regenerating Table I and Figures 5-6, with shape assertions
    for every Section V.C claim.
"""

__version__ = "1.0.0"

__all__ = ["simnet", "cactus", "p2psap", "core", "numerics", "solvers",
           "experiments", "__version__"]
