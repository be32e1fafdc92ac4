"""Message and RPC error types.

:class:`Message` is the hottest allocation in the simulation (several per
RPC), so it is a ``__slots__`` class recycled through a free-list: the
sender (``runtime.ServiceRuntime``) acquires via :func:`acquire_message`,
and the fabric releases a message once its last delivery callback has run.
Handlers never see the Message object itself (the receiving runtime unpacks
payload/src/req_id before dispatching), which is what makes the release
point safe.
"""

from __future__ import annotations

import itertools
from typing import Any

#: Destination constant meaning "all hosts subscribed to the group".
MULTICAST = "<multicast>"

#: Fixed per-message wire overhead (Ethernet + IP + TCP/UDP headers), bytes.
HEADER_BYTES = 66

_msg_ids = itertools.count(1)

class Message:
    """A unit of network transmission.

    ``size`` is the payload size in bytes; the wire cost adds
    :data:`HEADER_BYTES` per packet.  ``payload`` is an arbitrary Python
    object — the simulation never serializes it, only charges for ``size``.
    """

    __slots__ = ("src", "dst", "kind", "payload", "size", "group", "req_id",
                 "msg_id", "_refs")

    def __init__(self, src: str, dst: str, kind: str, payload: Any = None,
                 size: int = 0, group: str = "", req_id: int = 0,
                 msg_id: int = 0):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size = size
        self.group = group
        self.req_id = req_id
        self.msg_id = msg_id or next(_msg_ids)
        self._refs = 0  # pending deliveries; managed by the fabric

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Message #{self.msg_id} {self.kind} {self.src}->{self.dst} "
                f"{self.size}B>")


_pool: list = []
_POOL_MAX = 1024


def acquire_message(src: str, dst: str, kind: str, payload: Any = None,
                    size: int = 0, group: str = "", req_id: int = 0) -> Message:
    """A Message from the free-list (or fresh), with a new ``msg_id``."""
    if _pool:
        m = _pool.pop()
        m.src = src
        m.dst = dst
        m.kind = kind
        m.payload = payload
        m.size = size
        m.group = group
        m.req_id = req_id
        m.msg_id = next(_msg_ids)
        m._refs = 0
        return m
    return Message(src, dst, kind, payload, size, group, req_id)


def release_message(m: Message) -> None:
    """Return a delivered message to the free-list (payload dropped)."""
    if len(_pool) < _POOL_MAX:
        m.payload = None
        _pool.append(m)


class RpcTimeout(Exception):
    """An RPC got no response within its deadline (e.g. dead server)."""

    def __init__(self, dst: str, service: str, timeout: float):
        super().__init__(f"rpc to {dst}:{service} timed out after {timeout:g}s")
        self.dst = dst
        self.service = service
        self.timeout = timeout


class RpcRemoteError(Exception):
    """The remote handler raised; the error text travelled back."""

    def __init__(self, dst: str, service: str, error: str):
        super().__init__(f"rpc to {dst}:{service} failed remotely: {error}")
        self.dst = dst
        self.service = service
        self.error = error
