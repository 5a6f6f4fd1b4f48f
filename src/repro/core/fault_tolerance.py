"""Fault tolerance (extension — "not yet developed" in the paper).

"Fault tolerance ensures the integrity of the calculation in case of
peer or link failure."

Checkpoint/restart design, matching the environment's centralized
current version:

- peers hand periodic checkpoints (their block of the iterate, plus the
  relaxation count) to the fault-tolerance manager through
  ``TaskContext.checkpoint`` (the executor's checkpoint sink);
- the topology server's eviction hook signals peer death;
- on death during a run, the manager rebuilds the global iterate from
  the freshest checkpoints (missing blocks restart from the problem's
  feasible start — asynchronous iterations tolerate that regression,
  one of the fault-tolerance arguments of Section II.D) and the task
  manager re-runs the application on the surviving peers with the
  recovered iterate as warm start.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

__all__ = ["Checkpoint", "CheckpointStore", "FaultToleranceManager"]


@dataclasses.dataclass
class Checkpoint:
    """One peer's recovery state."""

    rank: int
    taken_at: float
    state: Any


class CheckpointStore:
    """Freshest checkpoint per rank (older ones are superseded)."""

    def __init__(self):
        self._by_rank: dict[int, Checkpoint] = {}
        self.stats_stored = 0

    def store(self, rank: int, state: Any, now: float) -> None:
        self._by_rank[rank] = Checkpoint(rank=rank, taken_at=now, state=state)
        self.stats_stored += 1

    def latest(self, rank: int) -> Optional[Checkpoint]:
        return self._by_rank.get(rank)

    def ranks(self) -> list[int]:
        return sorted(self._by_rank)

    def clear(self) -> None:
        self._by_rank.clear()

    def __len__(self) -> int:
        return len(self._by_rank)


class FaultToleranceManager:
    """Watches for evictions during a run and drives recovery."""

    def __init__(self, sim, topology):
        self.sim = sim
        self.topology = topology
        self.store = CheckpointStore()
        self.failed_peers: list[str] = []
        self._watching: list[str] = []
        topology.on_eviction(self._handle_eviction)

    # -- wiring -------------------------------------------------------------------

    def watch(self, peer_names: list[str]) -> None:
        """Arm failure detection for the peers of the current run."""
        self._watching = list(peer_names)
        self.failed_peers.clear()
        self.store.clear()

    def checkpoint_sink(self, rank: int, state: Any) -> None:
        """Executor-side sink: accept a checkpoint from a peer."""
        self.store.store(rank, state, self.sim.now)

    # -- failure handling ----------------------------------------------------------------

    def _handle_eviction(self, name: str) -> None:
        if name not in self._watching:
            return
        self.failed_peers.append(name)

    def recovery_states(self, n_ranks: int) -> list[Optional[Any]]:
        """Per-rank warm-start states (None where no checkpoint exists)."""
        return [
            (cp.state if (cp := self.store.latest(rank)) is not None else None)
            for rank in range(n_ranks)
        ]
