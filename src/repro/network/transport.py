"""Endpoint: RPC and one-way/multicast messaging over the fabric.

RPCs are used from inside sim processes with ``yield from``::

    resp = yield from endpoint.call("node3", "read_segment", req, size=64)

``rtts`` charges extra small round-trips before the request proper — this is
how the paper's observation that "it takes two TCP roundtrips to open a file
and three to close" is modelled without a full TCP state machine.

Hot-path discipline: messages come from the module free-list (the fabric
releases them after the last delivery); the thing in ``_pending`` is one
``sim.reply``, answer slot and deadline in one; a handler's generator
starts inside the delivery that carried the request and never sees the
Message object, so the envelope is recycled when the delivery returns.
"""

from __future__ import annotations

import itertools
from collections import deque
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, Set, Tuple, Union

from repro.network.message import (
    MULTICAST,
    RpcRemoteError,
    RpcTimeout,
    acquire_message,
)
from repro.network.switch import Fabric, Host
from repro.sim import Simulator

#: Default RPC deadline; failed-node requests surface as timeouts at this
#: horizon (Figure 13 "requests issued to the failed node are all timed out").
DEFAULT_RPC_TIMEOUT = 5.0

#: Size of a ping/ack exchange used to charge extra round-trips.
PING_BYTES = 64

HandlerResult = Union[None, Any, Tuple[Any, int]]
Handler = Callable[[Any, str], Union[HandlerResult, Generator]]

_req_ids = itertools.count(1)

#: How many recent (src, req_id) pairs each endpoint remembers.  The
#: window only needs to outlast one round-trip; duplicates injected by a
#: degraded link (repro.faults LinkDegrade) arrive within microseconds
#: of the original.
_DEDUP_WINDOW = 512


class Endpoint:
    """Per-host message dispatcher with named RPC services."""

    def __init__(self, sim: Simulator, fabric: Fabric, host: Host):
        self.sim = sim
        self.fabric = fabric
        self.host = host
        self.handlers: Dict[str, Handler] = {}
        self._proc_names: Dict[str, str] = {}
        self._pending: Dict[int, Any] = {}
        # At-most-once request execution: a degraded link may deliver the
        # same envelope twice, but handlers have side effects, so recent
        # (src, req_id) pairs are remembered and repeats are ignored.
        # (Duplicate responses are already safe: _pending.pop dedups.)
        self._recent_reqs: deque = deque()
        self._recent_set: Set[Tuple[str, int]] = set()
        host.deliver = self._on_message

    @property
    def hostid(self) -> str:
        """This endpoint's host identity on the fabric."""
        return self.host.hostid

    # -- service registration -------------------------------------------
    def register(self, service: str, handler: Handler,
                 replace: bool = False) -> None:
        """Install an RPC/oneway handler under a service name.

        ``replace=True`` makes re-registration idempotent (a daemon
        restarting on a surviving node); the default keeps accidental
        collisions loud.
        """
        if not replace and service in self.handlers:
            raise ValueError(f"service {service!r} already registered")
        self.handlers[service] = handler
        self._proc_names[service] = "handle:" + service

    def unregister(self, service: str) -> None:
        """Remove a handler (no-op if absent)."""
        self.handlers.pop(service, None)
        self._proc_names.pop(service, None)

    # -- client side -----------------------------------------------------
    def call(
        self,
        dst: str,
        service: str,
        payload: Any = None,
        size: int = 0,
        timeout: float = DEFAULT_RPC_TIMEOUT,
        rtts: int = 1,
    ):
        """Generator: perform an RPC, returning the response payload.

        Raises :class:`RpcTimeout` if no response arrives in ``timeout``
        seconds and :class:`RpcRemoteError` if the handler raised.
        """
        for left in range(max(1, rtts), 0, -1):
            req_id, reply = self.post(dst, service, payload, size, timeout,
                                      ping=left > 1)
            answer = yield reply
            if answer is None:
                self.abandon(req_id)
                raise RpcTimeout(dst, service, timeout)
            if answer[0] == "err":
                raise RpcRemoteError(dst, service, answer[1])
        return answer[1]

    def post(self, dst: str, service: str, payload: Any, size: int,
             timeout: float, ping: bool = False):
        """Put one exchange on the wire — the request proper, or one of
        the ``rtts`` pings before it — and return ``(req_id, reply)``.
        ``reply`` resumes its waiter with ``(kind, payload)``, or with
        ``None`` after ``timeout`` seconds, when the waiter must
        :meth:`abandon` the exchange."""
        req_id = next(_req_ids)
        reply = self._pending[req_id] = self.sim.reply(timeout)
        if ping:
            msg = acquire_message(self.host.hostid, dst, "ping", None,
                                  PING_BYTES, req_id=req_id)
        else:
            msg = acquire_message(self.host.hostid, dst, "req",
                                  (service, payload), size, req_id=req_id)
        self.fabric.send(msg)
        return req_id, reply

    def abandon(self, req_id: int) -> None:
        """Give up on a timed-out exchange: a late response finds nobody."""
        self._pending.pop(req_id, None)

    def send(self, dst: str, service: str, payload: Any = None, size: int = 0) -> None:
        """Fire-and-forget one-way message to ``dst``'s ``service`` handler."""
        self.fabric.send(
            acquire_message(src=self.hostid, dst=dst, kind="oneway",
                            payload=(service, payload), size=size)
        )

    def multicast(self, group: str, service: str, payload: Any = None, size: int = 0) -> None:
        """One-way message to every subscriber of ``group`` (except self)."""
        self.fabric.send(
            acquire_message(src=self.hostid, dst=MULTICAST, group=group,
                            kind="oneway", payload=(service, payload), size=size)
        )

    def subscribe(self, group: str) -> None:
        """Join a multicast group."""
        self.fabric.subscribe(group, self.hostid)

    def unsubscribe(self, group: str) -> None:
        """Leave a multicast group."""
        self.fabric.unsubscribe(group, self.hostid)

    # -- server side -----------------------------------------------------
    def _on_message(self, msg) -> None:
        # Everything needed past this frame is unpacked here; the fabric
        # recycles ``msg`` as soon as delivery callbacks return.
        if not self.host.alive:
            return
        kind = msg.kind
        if kind == "resp" or kind == "err":
            reply = self._pending.pop(msg.req_id, None)
            if reply is not None:
                reply.resolve((kind, msg.payload))
        elif kind == "req":
            key = (msg.src, msg.req_id)
            if key in self._recent_set:
                return  # duplicated in flight; the first copy answers
            if len(self._recent_reqs) >= _DEDUP_WINDOW:
                self._recent_set.discard(self._recent_reqs.popleft())
            self._recent_reqs.append(key)
            self._recent_set.add(key)
            service, payload = msg.payload
            handler = self.handlers.get(service)
            if handler is None:
                self._reply(msg.src, msg.req_id,
                            "err", f"no such service {service!r}", 64)
                return
            self.sim.start(
                self._run_handler(handler, payload, msg.src, msg.req_id),
                name=self._proc_names[service])
        elif kind == "oneway":
            service, payload = msg.payload
            handler = self.handlers.get(service)
            if handler is not None:
                result = handler(payload, msg.src)
                if type(result) is GeneratorType:
                    self.sim.start(result, name=self._proc_names[service])
        elif kind == "ping":
            self._reply(msg.src, msg.req_id, "resp", None, PING_BYTES)

    def _run_handler(self, handler: Handler, payload: Any, src: str, req_id: int):
        try:
            result = handler(payload, src)
            if type(result) is GeneratorType:
                result = yield from result
        except Exception as exc:  # noqa: BLE001 - shipped back to the caller
            self._reply(src, req_id, "err", f"{type(exc).__name__}: {exc}", 64)
            return
        resp_payload, resp_size = _split_result(result)
        self._reply(src, req_id, "resp", resp_payload, resp_size)

    def _reply(self, dst: str, req_id: int, kind: str, payload: Any, size: int) -> None:
        if not self.host.alive:
            return
        self.fabric.send(
            acquire_message(src=self.hostid, dst=dst, kind=kind,
                            payload=payload, size=size, req_id=req_id)
        )


def _split_result(result: HandlerResult) -> Tuple[Any, int]:
    """Handlers may return None, a payload, or ``(payload, size_bytes)``."""
    if result is None:
        return None, 32
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
        return result
    return result, 64
