"""ServiceRuntime: a node's one RPC object.

Every daemon issues ``call``/``send``/``multicast`` and registers its
handlers here; the runtime owns the host's message dispatcher
(``host.deliver``), the service table and the answer slots of the calls
in flight.  RPCs are used from inside sim processes with ``yield from``::

    resp = yield from runtime.call("node3", "read_segment", req, size=64)

``rtts`` charges extra small round-trips before the request proper — this is
how the paper's observation that "it takes two TCP roundtrips to open a file
and three to close" is modelled without a full TCP state machine.

One generator carries each call — pings, the request, each exchange
under one deadline (:data:`RPC_DEADLINE` unless the call site passes its
own ``timeout``) — and one carries each handled request; each records
one observation, scope ``"client"`` / ``"server"``, and a call one
``rpc:<service>`` span.  There is no retry: Sorrento handles failure
above the RPC layer (home-host re-locate, probe fallback, namespace
failover, re-placement).  Registry and tracer are late-bound through
:meth:`configure`: deployments wire them after nodes (and their daemons)
exist.

Hot-path discipline: messages come from the module free-list (the fabric
releases them after the last delivery); the thing in ``_pending`` is one
``sim.reply``, answer slot and deadline in one; a handler's generator
starts inside the delivery that carried the request, a caller resumes in
the one that carried its answer (``Reply.answer``), and neither sees the
Message object, so the envelope is recycled when the delivery returns.
"""

from __future__ import annotations

import itertools
from collections import deque
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, Optional, Set, Tuple, Union

from repro.network.message import (
    MULTICAST,
    RpcRemoteError,
    RpcTimeout,
    acquire_message,
)
from repro.network.switch import Fabric, Host
from repro.runtime.metrics import CLIENT, SERVER, MetricsRegistry
from repro.runtime.trace import Tracer
from repro.sim import Simulator

#: The paper's Figure-13 RPC deadline (seconds): failed-node requests
#: surface as timeouts at this horizon ("requests issued to the failed
#: node are all timed out").
RPC_DEADLINE = 5.0

#: Size of a ping/ack exchange used to charge extra round-trips.
PING_BYTES = 64

HandlerResult = Union[None, Any, Tuple[Any, int]]
Handler = Callable[[Any, str], Union[HandlerResult, Generator]]

_req_ids = itertools.count(1)

#: How many recent (src, req_id) pairs each runtime remembers.  The
#: window only needs to outlast one round-trip; duplicates injected by a
#: degraded link (repro.faults LinkDegrade) arrive within microseconds
#: of the original.
_DEDUP_WINDOW = 512

_UNSET = object()

class ServiceRuntime:
    """Per-host message dispatcher with named, instrumented RPC services."""

    def __init__(self, sim: Simulator, fabric: Fabric, host: Host,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.fabric = fabric
        self.host = host
        self.hostid = host.hostid
        self.configure(registry, tracer)
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

    # ------------------------------------------------------------- wiring
    def configure(self, registry=_UNSET, tracer=_UNSET) -> "ServiceRuntime":
        """Re-wire observability; omitted fields keep their value."""
        if registry is not _UNSET:
            # Where calls and one-ways issued, and handler executions, are
            # booked.  Unwired, all the same: on a registry nobody reads.
            self.registry = registry
            sink = MetricsRegistry() if registry is None else registry
            self._called = sink.scope(CLIENT)
            self._served = sink.scope(SERVER)
        if tracer is not _UNSET:
            self.tracer = tracer
        return self

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

    def subscribe(self, group: str) -> None:
        """Join a multicast group."""
        self.fabric.subscribe(group, self.hostid)

    # -------------------------------------------------------- client side
    def call(self, dst: str, service: str, payload: Any = None,
             size: int = 0, timeout: float = RPC_DEADLINE, rtts: int = 1):
        """Generator: one RPC invocation, start to finish.

        ``rtts - 1`` ping exchanges precede the request proper (the
        paper's TCP round-trips), each answered within ``timeout``.

        Raises :class:`RpcTimeout` at the first exchange that gets no
        answer by its deadline and :class:`RpcRemoteError` if the
        handler raised.  The invocation is one OpStats observation
        (latency is what the caller felt) and one ``rpc:<service>`` span.
        """
        sim, tracer, pending = self.sim, self.tracer, self._pending
        src, send = self.hostid, self.fabric.send
        t0 = sim.now
        span = None if tracer is None else tracer.start("rpc:" + service, dst=dst)
        left = rtts
        try:
            while True:
                # One exchange — a ping, or the request proper — is one
                # answer slot and one message on the wire.  ``reply``
                # resumes us with ``(kind, payload)``, or with ``None``
                # after ``timeout`` seconds.
                req_id = next(_req_ids)
                reply = pending[req_id] = sim.reply(timeout)
                if left > 1:
                    send(acquire_message(src, dst, "ping", None,
                                         PING_BYTES, "", req_id))
                else:
                    send(acquire_message(src, dst, "req", (service, payload),
                                         size, "", req_id))
                answer = yield reply
                if answer is None:
                    raise RpcTimeout(dst, service, timeout)
                if answer[0] == "err":
                    raise RpcRemoteError(dst, service, answer[1])
                if left <= 1:
                    break
                left -= 1
        except Exception as exc:
            # Whatever ended the call — the time-out, or an Interrupt
            # thrown into the waiting caller (it closes the span but is no
            # RPC outcome: not observed) — nobody is left to answer; an
            # answered slot was popped by the answer.
            pending.pop(req_id, None)
            if isinstance(exc, (RpcTimeout, RpcRemoteError)):
                self._called[service].observe(
                    sim.now - t0, False, isinstance(exc, RpcTimeout), size)
            if span is not None:
                tracer.finish(span, status=type(exc).__name__)
            raise
        self._called[service].observe(sim.now - t0, True, False, size)
        if span is not None:
            tracer.finish(span, status="ok")
        return answer[1]

    def send(self, dst: str, service: str, payload: Any = None,
             size: int = 0) -> None:
        """Fire-and-forget one-way message to ``dst``'s ``service``
        handler (counted, never traced)."""
        self._called[service].observe_oneway(size)
        self.fabric.send(acquire_message(
            self.hostid, dst, "oneway", (service, payload), size))

    def multicast(self, group: str, service: str, payload: Any = None,
                  size: int = 0) -> None:
        """One-way message to every subscriber of ``group`` (except self)."""
        self._called[service].observe_oneway(size)
        self.fabric.send(acquire_message(
            self.hostid, MULTICAST, "oneway", (service, payload), size, group))

    # -------------------------------------------------------- server side
    def _on_message(self, msg) -> None:
        # Everything needed past this frame is unpacked here; the fabric
        # recycles ``msg`` as soon as delivery callbacks return.
        if not self.host.alive:
            return
        kind = msg.kind
        if kind == "resp" or kind == "err":
            reply = self._pending.pop(msg.req_id, None)
            if reply is not None:
                reply.answer((kind, msg.payload))
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
                self.fabric.send(acquire_message(
                    self.hostid, msg.src, "err",
                    f"no such service {service!r}", 64, "", msg.req_id))
                return
            self.sim.start(
                self._serve(service, handler, payload, msg.src, msg.req_id),
                self._proc_names[service])
        elif kind == "oneway":
            service, payload = msg.payload
            handler = self.handlers.get(service)
            if handler is not None:
                # A sync handler has run, in no simulated time, when this
                # delivery returns; only a generator one becomes a process.
                try:
                    result = handler(payload, msg.src)
                except Exception:
                    self._served[service].observe(0.0, False)
                    raise
                if type(result) is GeneratorType:
                    self.sim.start(
                        self._finish_oneway(service, result, self.sim.now),
                        self._proc_names[service])
                else:
                    self._served[service].observe(
                        0.0, True, False, 0,
                        32 if result is None else _split_result(result)[1])
        elif kind == "ping":
            self.fabric.send(acquire_message(
                self.hostid, msg.src, "resp", None, PING_BYTES, "", msg.req_id))

    def _serve(self, service: str, handler: Handler, payload: Any,
               src: str, req_id: int):
        """Generator: one handled request — run the handler (delegating
        to it if it is a generator), observe it, answer.  The cell is
        looked up when the handler finishes, so deployments may attach
        the registry after the daemons registered."""
        sim = self.sim
        t0 = sim.now
        ok = True
        try:
            result = handler(payload, src)
            if type(result) is GeneratorType:
                result = yield from result
        except Exception as exc:  # noqa: BLE001 - shipped back to the caller
            ok, answer, size = False, f"{type(exc).__name__}: {exc}", 64
        else:
            answer, size = _split_result(result)
        self._served[service].observe(
            sim.now - t0, ok, False, 0, size if ok else 0)
        if self.host.alive:
            self.fabric.send(acquire_message(
                self.hostid, src, "resp" if ok else "err", answer, size,
                "", req_id))

    def _finish_oneway(self, service: str, gen: Generator, t0: float):
        try:
            result = yield from gen
        except Exception:
            self._served[service].observe(self.sim.now - t0, False)
            raise
        self._served[service].observe(
            self.sim.now - t0, True, False, 0, _split_result(result)[1])


def _split_result(result: HandlerResult) -> Tuple[Any, int]:
    """Handlers may return None, a payload, or ``(payload, size_bytes)``."""
    if result is None:
        return None, 32
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
        return result
    return result, 64
