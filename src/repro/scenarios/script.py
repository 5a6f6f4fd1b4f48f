"""Seeded scenario scripts: reproducible adversity for live solves.

A :class:`ScenarioScript` is a *pure function of its seed*: the same
seed always yields the same schedule of faults, so a failing scenario
reproduces bit for bit — on another machine, in CI, or under a debugger.
Events are timed as **fractions of the fault-free baseline's elapsed
(virtual) time**: the engine first runs the same configuration without
faults, measures T, and fires each event at ``t_submit + at·T``.  That
keeps a script meaningful across schemes whose absolute solve times
differ by an order of magnitude.

Event kinds (applied by :class:`~repro.scenarios.injector.Injector`):

``crash`` / ``restart``
    abrupt peer death (NIC goes dark, the Calculate() process dies with
    the machine, sessions vanish without a FIN) and later recovery: the
    node comes back, re-joins the topology, and the interrupted sub-task
    is re-dispatched warm-started from the freshest
    :class:`~repro.core.fault_tolerance.CheckpointStore` checkpoint —
    block, ghost planes *and* sweep counter, so relaxation-count
    provenance survives.
``leave`` / ``join``
    mid-solve churn: the current solve is aborted at an epoch boundary,
    the peer set shrinks (a peer LEAVEs the topology) or grows (an idle
    spare is drafted), and the solve resumes re-partitioned over the new
    peer count, warm-started from the surviving peers' assembled planes.
``link``
    netem-style degradation of one peer pair's links (both directions):
    extra delay, jitter, loss, and/or a bandwidth cut — ``tc qdisc
    change`` mid-run.
``load``
    background load lands on a peer, slowing its compute — the
    heterogeneous-rate half of adversity (static heterogeneity comes
    from ``compute_rates``).

Scripts generated by :func:`generate_script` always contain exactly one
crash/restart pair on a non-coordinator rank, optionally one churn event
after the restart, and a sprinkle of link/load events — enough adversity
to exercise every recovery path while keeping each run's invariant
budget (no false STOP, envelope monotonicity between fault epochs,
convergence to the fault-free tolerance) checkable.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

__all__ = [
    "ScenarioEvent",
    "ScenarioScript",
    "generate_script",
    "node_name",
    "SCHEMES",
    "EVENT_KINDS",
]

#: The scheme axis a seed sweep cycles through.
SCHEMES = ("synchronous", "asynchronous", "hybrid")

EVENT_KINDS = ("crash", "restart", "leave", "join", "link", "load")

#: Valid keys for a "link" event's args.
_LINK_ARGS = frozenset({"delay", "jitter", "loss", "bandwidth_scale"})


def node_name(index: int) -> str:
    """The testbed node name for peer ``index`` (collect order == index
    order on the scenario topology, so epoch-1 rank k runs here)."""
    return f"peer{index:02d}"


@dataclasses.dataclass(frozen=True)
class ScenarioEvent:
    """One scheduled fault.

    ``at`` is the firing time as a fraction of the fault-free baseline's
    elapsed time.  ``rank`` addresses a *solve rank* for crash/restart/
    leave (resolved against the live run's peer list at fire time) and a
    *node index* for load.  ``link`` names the node pair for link
    events.  ``args`` is a frozen key/value tuple (dataclass hashability
    — use :meth:`arg_dict` to read it).
    """

    kind: str
    at: float
    rank: Optional[int] = None
    link: Optional[tuple[str, str]] = None
    args: tuple[tuple[str, float], ...] = ()

    def arg_dict(self) -> dict[str, float]:
        return dict(self.args)

    def describe(self) -> str:
        bits = [f"{self.kind}@{self.at:.3f}"]
        if self.rank is not None:
            bits.append(f"rank={self.rank}")
        if self.link is not None:
            bits.append(f"link={self.link[0]}<->{self.link[1]}")
        if self.args:
            bits.append(",".join(f"{k}={v:g}" for k, v in self.args))
        return " ".join(bits)


@dataclasses.dataclass(frozen=True)
class ScenarioScript:
    """A complete, validated fault schedule plus the solve it targets."""

    seed: int
    scheme: str
    problem: str = "membrane"
    n: int = 8
    n_peers: int = 3
    n_clusters: int = 2
    #: Idle extra nodes (join events draft one).
    n_spares: int = 0
    tol: float = 1e-3
    #: Base clock rate; deliberately slow (1e5 Hz) so one sweep of the
    #: small scenario problem costs ~0.05 virtual seconds and
    #: second-scale faults land *mid-solve* rather than after it.
    cpu_hz: float = 1e5
    #: Per-node speed multipliers (heterogeneous compute rates); length
    #: ``n_peers + n_spares``.
    compute_rates: tuple[float, ...] = ()
    #: Sweeps between solver checkpoints (the solver-side param).
    checkpoint_every: int = 5
    events: tuple[ScenarioEvent, ...] = ()

    @property
    def n_nodes(self) -> int:
        return self.n_peers + self.n_spares

    def node_names(self) -> list[str]:
        return [node_name(i) for i in range(self.n_nodes)]

    def validate(self) -> None:
        """Raise ``ValueError`` on any inconsistency a seeded generator
        must never produce (and a hand-written script might)."""
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n_peers < 2:
            raise ValueError("scenarios need at least 2 peers (the abort "
                             "broadcast is ignored by a single-peer solve)")
        if self.n < self.n_peers + (1 if self.n_spares else 0) + 1:
            raise ValueError("problem too small for the peer count")
        if len(self.compute_rates) != self.n_nodes:
            raise ValueError(
                f"compute_rates has {len(self.compute_rates)} entries for "
                f"{self.n_nodes} nodes"
            )
        if any(r <= 0 for r in self.compute_rates):
            raise ValueError("compute rates must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 sweep")
        names = set(self.node_names())
        crashed: Optional[int] = None
        restarts_done = 0
        churn = 0
        last_at = 0.0
        for ev in self.events:
            if ev.kind not in EVENT_KINDS:
                raise ValueError(f"unknown event kind {ev.kind!r}")
            if not ev.at > 0:
                raise ValueError(f"event {ev.describe()}: at must be > 0")
            if ev.at < last_at:
                raise ValueError("events must be sorted by firing time")
            last_at = ev.at
            if ev.kind == "crash":
                if crashed is not None:
                    raise ValueError("overlapping crashes (one at a time)")
                if not ev.rank or ev.rank >= self.n_peers:
                    raise ValueError(
                        "crash rank must be a non-coordinator solve rank "
                        f"(got {ev.rank!r})"
                    )
                crashed = ev.rank
            elif ev.kind == "restart":
                if crashed is None or ev.rank != crashed:
                    raise ValueError(
                        f"restart of rank {ev.rank!r} without a matching crash"
                    )
                crashed = None
                restarts_done += 1
            elif ev.kind in ("leave", "join"):
                if crashed is not None:
                    raise ValueError("churn while a peer is down (the abort "
                                     "broadcast cannot reach a dead peer)")
                churn += 1
                if churn > 1:
                    raise ValueError("at most one churn event per script")
                if ev.kind == "leave" and (not ev.rank or ev.rank >= self.n_peers):
                    raise ValueError(
                        f"leave rank must be a non-coordinator solve rank "
                        f"(got {ev.rank!r})"
                    )
                if ev.kind == "join" and self.n_spares < 1:
                    raise ValueError("join event needs n_spares >= 1")
            elif ev.kind == "link":
                if (ev.link is None or len(ev.link) != 2
                        or ev.link[0] == ev.link[1]
                        or not set(ev.link) <= names):
                    raise ValueError(f"bad link pair {ev.link!r}")
                extra = set(ev.arg_dict()) - _LINK_ARGS
                if extra:
                    raise ValueError(f"unknown link args {sorted(extra)}")
                a = ev.arg_dict()
                if a.get("bandwidth_scale", 1.0) <= 0:
                    raise ValueError("bandwidth_scale must be positive")
                if not 0.0 <= a.get("loss", 0.0) < 1.0:
                    raise ValueError("loss must be in [0, 1)")
            elif ev.kind == "load":
                if ev.rank is None or not 0 <= ev.rank < self.n_nodes:
                    raise ValueError(f"load node index {ev.rank!r} out of range")
                if ev.arg_dict().get("factor", -1.0) < 0:
                    raise ValueError("load factor must be >= 0")
        if crashed is not None:
            raise ValueError(f"rank {crashed} crashes and never restarts")

    def describe(self) -> str:
        head = (f"seed={self.seed} {self.scheme} "
                f"n={self.n} peers={self.n_peers}+{self.n_spares} "
                f"clusters={self.n_clusters} tol={self.tol:g} "
                f"ckpt_every={self.checkpoint_every} "
                f"rates={','.join(f'{r:g}' for r in self.compute_rates)}")
        return "\n".join([head, *(f"  {ev.describe()}" for ev in self.events)])


def generate_script(
    seed: int,
    scheme: Optional[str] = None,
) -> ScenarioScript:
    """The scenario for ``seed`` — deterministic, validated.

    Unless overridden, the scheme cycles ``seed % 3`` through
    :data:`SCHEMES`, so a 30-seed sweep covers each scheme ten times.

    Every script has one crash/restart of a non-coordinator peer landing
    mid-solve; ~half then churn the peer set (leave or join) after the
    recovery; links degrade and background load appears per the seeded
    dice.  The event *schedule* is independent of the scheme override —
    overriding only changes how the solve runs under it.
    """
    rng = random.Random(0xC0FFEE ^ ((seed * 2654435761) % 2**32))
    scheme = scheme if scheme is not None else SCHEMES[seed % len(SCHEMES)]
    n_peers = 3
    events: list[ScenarioEvent] = []

    crash_rank = rng.randrange(1, n_peers)
    crash_at = rng.uniform(0.15, 0.45)
    restart_at = crash_at + rng.uniform(0.05, 0.35)
    events.append(ScenarioEvent("crash", crash_at, rank=crash_rank))
    events.append(ScenarioEvent("restart", restart_at, rank=crash_rank))

    n_spares = 0
    churn_roll = rng.random()
    churn_at = restart_at + rng.uniform(0.10, 0.30)
    if churn_roll < 0.25:
        events.append(ScenarioEvent(
            "leave", churn_at, rank=rng.randrange(1, n_peers)))
    elif churn_roll < 0.50:
        n_spares = 1
        events.append(ScenarioEvent("join", churn_at))

    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(n_peers - 1)
        events.append(ScenarioEvent(
            "link", rng.uniform(0.05, 0.90),
            link=(node_name(i), node_name(i + 1)),
            args=(
                ("delay", round(rng.uniform(0.01, 0.15), 4)),
                ("jitter", round(rng.uniform(0.0, 0.01), 4)),
                ("loss", rng.choice((0.0, 0.0, 0.02))),
                ("bandwidth_scale", rng.choice((1.0, 0.5, 0.25))),
            ),
        ))
    if rng.random() < 0.5:
        events.append(ScenarioEvent(
            "load", rng.uniform(0.10, 0.80),
            rank=rng.randrange(n_peers),
            args=(("factor", round(rng.uniform(0.2, 1.0), 3)),),
        ))

    # Stable time order; generation order breaks ties deterministically.
    events.sort(key=lambda ev: ev.at)
    rates = tuple(
        1.0 if i == 0 else rng.choice((1.0, 1.0, 0.7, 0.5))
        for i in range(n_peers + n_spares)
    )
    script = ScenarioScript(
        seed=seed,
        scheme=scheme,
        n_peers=n_peers,
        n_spares=n_spares,
        compute_rates=rates,
        checkpoint_every=rng.choice((3, 5, 8)),
        events=tuple(events),
    )
    script.validate()
    return script
