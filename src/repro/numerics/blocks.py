"""Block decomposition of the iterate vector.

"Let n³ denote the number of discretization points, the iterate vector
is decomposed into n sub-blocks of n² points.  The sub-blocks are
assigned to α nodes with α ≤ n.  The sub-blocks are computed
sequentially at each node."

Sub-block i is z-plane ``u[i]``.  Node k owns the contiguous plane range
[first(k), last(k)] (Figure 4's U_f(k) .. U_l(k)); neighbours exchange
their boundary planes.  :func:`partition_planes` distributes n planes
over α nodes as evenly as possible; :class:`BlockAssignment` answers all
the ownership/neighbour queries the solver needs.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Sequence

__all__ = ["partition_planes", "weighted_partition", "BlockAssignment"]


def partition_planes(n_planes: int, n_nodes: int) -> list[range]:
    """Contiguous, balanced ranges: the first ``n_planes % n_nodes`` nodes
    get one extra plane.

    >>> [list(r) for r in partition_planes(5, 2)]
    [[0, 1, 2], [3, 4]]
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if n_planes < n_nodes:
        raise ValueError(
            f"cannot give {n_nodes} nodes at least one of {n_planes} planes "
            "(the paper requires α ≤ n)"
        )
    base, extra = divmod(n_planes, n_nodes)
    out: list[range] = []
    start = 0
    for k in range(n_nodes):
        size = base + (1 if k < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


def weighted_partition(n_planes: int, weights: Sequence[float]) -> list[range]:
    """Contiguous ranges proportional to node weights (relative speeds).

    Used by the solver's ``weights`` parameter: a peer twice as fast
    gets about twice the planes, every peer gets at least one.
    """
    n_nodes = len(weights)
    if n_nodes < 1:
        raise ValueError("need at least one weight")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if n_planes < n_nodes:
        raise ValueError("more nodes than planes")
    total = float(sum(weights))
    # Largest-remainder apportionment with a floor of 1 plane each.
    ideal = [n_planes * w / total for w in weights]
    counts = [max(1, int(x)) for x in ideal]
    while sum(counts) > n_planes:
        # Shrink the node with the largest overshoot (but never below 1).
        over = [(counts[i] - ideal[i], i) for i in range(n_nodes) if counts[i] > 1]
        _, i = max(over)
        counts[i] -= 1
    remainders = sorted(
        range(n_nodes), key=lambda i: ideal[i] - counts[i], reverse=True
    )
    j = 0
    while sum(counts) < n_planes:
        counts[remainders[j % n_nodes]] += 1
        j += 1
    out: list[range] = []
    start = 0
    for size in counts:
        out.append(range(start, start + size))
        start += size
    return out


@dataclasses.dataclass(frozen=True)
class BlockAssignment:
    """Ownership map of planes to nodes."""

    n_planes: int
    ranges: tuple[range, ...]

    @classmethod
    def balanced(cls, n_planes: int, n_nodes: int) -> "BlockAssignment":
        return cls(n_planes, tuple(partition_planes(n_planes, n_nodes)))

    @classmethod
    def weighted(cls, n_planes: int, weights: Sequence[float]) -> "BlockAssignment":
        return cls(n_planes, tuple(weighted_partition(n_planes, weights)))

    def __post_init__(self) -> None:
        covered = [p for r in self.ranges for p in r]
        if covered != list(range(self.n_planes)):
            raise ValueError("ranges must tile [0, n_planes) contiguously")
        if any(len(r) == 0 for r in self.ranges):
            raise ValueError("every node needs at least one plane")
        # Range starts, sorted by construction: ownership lookups (one
        # per exchanged plane on the solver's hot path) bisect these
        # instead of scanning all α ranges.
        object.__setattr__(
            self, "_starts", tuple(r.start for r in self.ranges)
        )

    @property
    def n_nodes(self) -> int:
        return len(self.ranges)

    def owner(self, plane: int) -> int:
        """Which node owns ``plane`` (O(log α) bisection)."""
        if not 0 <= plane < self.n_planes:
            raise IndexError(f"plane {plane} out of range")
        return bisect.bisect_right(self._starts, plane) - 1

    def first(self, node: int) -> int:
        """U_f(k): the node's first plane (Figure 4)."""
        return self.ranges[node].start

    def last(self, node: int) -> int:
        """U_l(k): the node's last plane (Figure 4)."""
        return self.ranges[node].stop - 1

    def planes(self, node: int) -> range:
        return self.ranges[node]

    def neighbors(self, node: int) -> list[int]:
        """Adjacent nodes in the 1-D chain (1 for the ends, else 2).

        "nodes 1 and α ... have only one neighbor" — the source of the
        faster end-node iteration rates in the asynchronous runs.
        """
        out = []
        if node > 0:
            out.append(node - 1)
        if node < self.n_nodes - 1:
            out.append(node + 1)
        return out

    def load(self, node: int) -> int:
        return len(self.ranges[node])

    def describe(self) -> str:
        return " | ".join(
            f"node{k}:[{r.start}..{r.stop - 1}]" for k, r in enumerate(self.ranges)
        )
