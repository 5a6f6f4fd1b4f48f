"""Zero-copy protocol messages.

The paper's second modification to Cactus eliminates message copies
between layers: "only a pointer to message is passed between layers.
Therefore, no message copy is made within the stack."

:class:`Message` reproduces that discipline in Python.  The payload is an
opaque object reference (for the solver it is a NumPy array *view* of a
boundary plane) that is never copied by the stack.  Layers communicate
metadata by pushing/popping *headers* on the message itself — appending
to a list, not wrapping the message — so the object identity of both the
message and its payload is preserved from the socket API all the way to
the simulated wire.  Tests assert this with ``is`` checks.

A message's payload is fixed at construction, so its size is measured
once: the shapes the solvers exchange (a plane, or scalar tags and a
plane in a tuple) without the recursive :func:`payload_nbytes` walk, and
a message framed around another's payload (the DATA shell made per
transmission, :meth:`Message.framed`) is given that size instead of
measuring it again.  :func:`payload_nbytes` itself sizes the scalars and
strings inside a tuple, list or dict in its own loop and recurses only
into nested containers and other objects; a string's UTF-8 size is
looked up once it has been measured (tags and frame keys repeat).

Only the application's messages draw an id: the shells framed per
transmission and the messages rebuilt from the wire
(:meth:`Message.framed`) carry none, because nothing reads one.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

import numpy as np

__all__ = ["Message", "payload_nbytes"]

_message_ids = itertools.count()

#: Wire size of a scalar, by exact type (subclasses take the general
#: path of :func:`payload_nbytes`, which sizes them the same).
_SCALAR_NBYTES = {int: 8, float: 8, bool: 8, type(None): 0}

#: UTF-8 sizes of the strings measured so far: message tags and frame
#: keys, a few dozen distinct ones.  Bounded, for strings that are data.
_STR_NBYTES: dict[str, int] = {}
_STR_NBYTES_MAX = 4096


def _str_nbytes(text: str) -> int:
    size = len(text.encode("utf-8"))
    if len(_STR_NBYTES) < _STR_NBYTES_MAX:
        _STR_NBYTES[text] = size
    return size


def payload_nbytes(payload: Any) -> int:
    """Best-effort size accounting for a payload object.

    NumPy arrays report their buffer size; bytes-like objects their
    length; strings their UTF-8 length; ints, floats and bools 8 bytes;
    tuples, lists and dicts 16 bytes plus their items (a dict's keys
    and values); None 0; anything else a fixed 64.
    """
    kind = type(payload)
    if kind is tuple or kind is list:
        groups = (payload,)
    elif kind is dict:
        groups = payload.items()
    elif kind is str:
        try:
            return _STR_NBYTES[payload]
        except KeyError:
            return _str_nbytes(payload)
    elif kind in _SCALAR_NBYTES:
        return _SCALAR_NBYTES[kind]
    elif isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    elif isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    elif isinstance(payload, str):
        return _str_nbytes(payload)
    elif isinstance(payload, (int, float, bool)):
        return 8
    elif isinstance(payload, (tuple, list)):
        groups = (payload,)
    elif isinstance(payload, dict):
        groups = payload.items()
    else:
        return 64
    # A container: its items, the scalars and strings sized here.
    size = 16
    for group in groups:
        for item in group:
            item_kind = type(item)
            if item_kind is str:
                try:
                    size += _STR_NBYTES[item]
                except KeyError:
                    size += _str_nbytes(item)
            elif item_kind in _SCALAR_NBYTES:
                size += _SCALAR_NBYTES[item_kind]
            else:
                size += payload_nbytes(item)
    return size


def _plane_nbytes(payload: Any) -> Optional[int]:
    """:func:`payload_nbytes` without the walk for None, an ndarray, or
    scalar/string tags closed by an ndarray (``("PLANE", sweep, plane)``);
    None for any other shape."""
    if payload is None:
        return 0
    if type(payload) is np.ndarray:
        return int(payload.nbytes)
    if type(payload) is not tuple or not payload \
            or type(payload[-1]) is not np.ndarray:
        return None
    size = 16 + int(payload[-1].nbytes)
    for tag in payload[:-1]:
        if type(tag) is str:
            try:
                size += _STR_NBYTES[tag]
            except KeyError:
                size += _str_nbytes(tag)
        elif type(tag) in (int, float, bool):
            size += 8
        else:
            return None
    return size


class Message:
    """A message traversing the protocol stack by reference.

    Attributes
    ----------
    payload:
        The application data object.  Never copied by the stack.
    headers:
        A stack of ``(layer_name, dict)`` entries.  Layers push on the way
        down and pop on the way up.
    meta:
        Free-form annotations that do not travel on the wire (e.g. the
        enqueue timestamp used for RTT estimation).
    """

    __slots__ = ("payload", "headers", "meta", "message_id", "_payload_bytes")

    # Fixed per-header wire overhead, in bytes.  Loosely a transport
    # header; the exact value only shifts absolute times.
    HEADER_BYTES = 32

    def __init__(self, payload: Any = None):
        self.payload = payload
        self.headers: list[tuple[str, dict]] = []
        self.meta: dict[str, Any] = {}
        self.message_id = next(_message_ids)
        self._payload_bytes = None

    @classmethod
    def framed(cls, payload: Any, headers: list,
               payload_bytes: Optional[int] = None) -> "Message":
        """A message framed for the wire, or rebuilt from it, with the
        header stack ``headers`` as given and no ``message_id`` (None).
        ``payload_bytes``: the payload's size, when the caller knows it.
        """
        msg = cls.__new__(cls)
        msg.payload = payload
        msg.headers = headers
        msg.meta = {}
        msg.message_id = None
        msg._payload_bytes = payload_bytes
        return msg

    # -- header stack ------------------------------------------------------

    def push_header(self, layer: str, **fields: Any) -> None:
        """Add a header for ``layer`` on the way down the stack."""
        self.headers.append((layer, fields))  # **fields is already a fresh dict

    def pop_header(self, layer: str) -> dict:
        """Remove and return the topmost header, checking layer identity.

        Strict LIFO layer matching catches mis-stacked protocols early —
        the classic composition bug Cactus's layered design invites.
        """
        if not self.headers:
            raise LookupError(f"no headers to pop (expected {layer!r})")
        top_layer, fields = self.headers[-1]
        if top_layer != layer:
            raise LookupError(
                f"header stack mismatch: expected {layer!r}, found {top_layer!r}"
            )
        self.headers.pop()
        return fields

    # -- sizing --------------------------------------------------------------

    @property
    def payload_bytes(self) -> int:
        size = self._payload_bytes
        if size is None:
            size = _plane_nbytes(self.payload)
            if size is None:
                size = payload_nbytes(self.payload)
            self._payload_bytes = size
        return size

    @property
    def size_bytes(self) -> int:
        """Wire size: payload plus per-header overhead."""
        size = self._payload_bytes
        if size is None:
            size = self.payload_bytes
        return size + Message.HEADER_BYTES * len(self.headers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        layers = "/".join(name for name, _ in self.headers) or "-"
        return (
            f"<Message #{self.message_id} payload={type(self.payload).__name__} "
            f"{self.payload_bytes}B headers={layers}>"
        )
