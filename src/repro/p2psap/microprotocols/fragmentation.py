"""Fragmentation micro-protocol (optional component).

The default data-channel configurations send boundary planes as single
segments (the simulated links model serialization by size, so MTU-level
framing adds no fidelity for the paper's experiments).  This
micro-protocol exists for configurations that need genuine MTU-bounded
segments — e.g. driving the congestion controllers with realistic
segment counts — and demonstrates that the Cactus composition admits
new micro-protocols without touching the rest of the channel.

Sender side: intercepts ``TxSegment`` (order 5, before reliability) and
replaces any over-MTU message with k fragments whose payloads are
zero-copy *views* of the original NumPy buffer (byte payloads are
sliced).  Each fragment is re-injected as its own ``TxSegment``, so
reliability/congestion see k independent segments.

Receiver side: intercepts the configured receive stage, withholds
fragments until the set is complete, reassembles, and forwards a single
message to the next stage.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from ...cactus.messages import Message
from ...cactus.microprotocol import MicroProtocol

__all__ = ["Fragmentation"]


def _split_payload(payload: Any, mtu: int) -> list[Any]:
    """MTU-sized chunks; NumPy payloads are flattened views (zero-copy)."""
    if isinstance(payload, np.ndarray):
        flat = payload.reshape(-1).view(np.uint8) if payload.dtype == np.uint8 \
            else payload.reshape(-1)
        itemsize = flat.itemsize
        per_chunk = max(1, mtu // itemsize)
        return [flat[i:i + per_chunk] for i in range(0, flat.size, per_chunk)]
    if isinstance(payload, (bytes, bytearray, memoryview)):
        data = memoryview(payload)
        return [data[i:i + mtu] for i in range(0, len(data), mtu)]
    raise TypeError(
        f"fragmentation supports ndarray/bytes payloads, got "
        f"{type(payload).__name__}"
    )


class Fragmentation(MicroProtocol):
    name = "fragmentation"

    def __init__(self, mtu: int = 1448, input_stage: str = "RxDeliver",
                 next_stage: str = "RxDeliver"):
        super().__init__()
        if mtu < 16:
            raise ValueError("mtu too small to carry a fragment")
        self.mtu = mtu
        self.input_stage = input_stage
        self.next_stage = next_stage
        self._rx_groups: dict[int, dict] = {}
        # Group ids are per sender: a stream's headers never depend on
        # what else ran in the process.
        self._frag_groups = itertools.count()
        self.stats_fragmented = 0
        self.stats_reassembled = 0

    def on_init(self) -> None:
        # Intercept before sequencing (buffer management, order 50):
        # the oversized original must never consume a sequence number,
        # or the ordering micro-protocol downstream would stall waiting
        # for a segment that never hits the wire.
        self.bind("UserSend", self._on_tx, order=5)
        # Receive-side filtering runs before the terminal delivery
        # handler (order 50).
        self.bind(self.input_stage, self._on_rx, order=5)

    # -- sender ------------------------------------------------------------------

    def _on_tx(self, msg: Message) -> None:
        if msg.meta.get("is_fragment") or msg.payload_bytes <= self.mtu:
            return
        chunks = _split_payload(msg.payload, self.mtu)
        group = next(self._frag_groups)
        self.stats_fragmented += 1
        # Poison the original so downstream handlers skip it.
        msg.meta["fragmented_away"] = True
        shape = (
            msg.payload.shape if isinstance(msg.payload, np.ndarray) else None
        )
        dtype = (
            str(msg.payload.dtype) if isinstance(msg.payload, np.ndarray)
            else None
        )
        for idx, chunk in enumerate(chunks):
            frag = Message(chunk)
            frag.meta["is_fragment"] = True
            frag.meta["frag"] = {
                "group": group, "index": idx, "total": len(chunks),
                "shape": shape, "dtype": dtype,
                "orig_meta": {
                    k: v for k, v in msg.meta.items()
                    if k in ("needs_appack",)
                },
            }
            # Fresh sequence slot per fragment.
            self.composite.bus.raise_event("UserSend", frag)

    # -- receiver ------------------------------------------------------------------

    def _on_rx(self, msg: Message, fields=None) -> None:
        frag_info = msg.meta.get("frag")
        if frag_info is None:
            return  # plain message, let the normal pipeline handle it
        group = self._rx_groups.setdefault(frag_info["group"], {
            "chunks": {}, "total": frag_info["total"],
            "shape": frag_info["shape"], "dtype": frag_info["dtype"],
        })
        group["chunks"][frag_info["index"]] = msg.payload
        msg.meta["fragment_consumed"] = True
        if len(group["chunks"]) < group["total"]:
            return
        ordered = [group["chunks"][i] for i in range(group["total"])]
        if group["shape"] is not None:
            flat = np.concatenate([np.asarray(c).reshape(-1) for c in ordered])
            payload = flat.reshape(group["shape"])
        else:
            payload = b"".join(bytes(c) for c in ordered)
        del self._rx_groups[frag_info["group"]]
        self.stats_reassembled += 1
        whole = Message(payload)
        self.composite.bus.raise_event(self.next_stage, whole, fields)
