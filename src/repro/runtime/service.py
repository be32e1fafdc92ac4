"""ServiceRuntime: the one façade every daemon uses to talk RPC.

One runtime wraps one :class:`~repro.network.transport.Endpoint` (one
per node) and is the only sanctioned way to issue ``call``/``send``/
``multicast`` or to register handlers — enforced by an architecture
test.  It adds, without changing wire behaviour:

* a default :class:`~repro.runtime.policy.CallPolicy` (the Figure-13
  deadline) so call sites stop re-spelling timeouts;
* on the client side, one generator per call that carries the whole
  invocation — ``rtts`` pings, the request, per-attempt timeouts and
  retries — and records one scope-``"client"`` observation and one
  ``rpc:<service>`` span for it, however many attempts it took;
* handler instrumentation on the server side (per-service handler time
  and response bytes, recorded under scope ``"server"``);
* idempotent re-registration via ``register(..., replace=True)`` for
  daemons that restart on a surviving node.

Registry/tracer/policy are late-bound through :meth:`configure`:
deployments wire them after nodes (and their daemons) exist.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from repro.network.message import RpcRemoteError, RpcTimeout
from repro.network.transport import Endpoint, Handler, _split_result
from repro.runtime.metrics import CLIENT, SERVER, MetricsRegistry
from repro.runtime.policy import DEFAULT_POLICY, CallPolicy
from repro.runtime.trace import Tracer

_UNSET = object()


class ServiceRuntime:
    """Instrumented service layer over one node's endpoint."""

    def __init__(self, endpoint: Endpoint,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 policy: CallPolicy = DEFAULT_POLICY):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.registry = registry
        self.tracer = tracer
        self.policy = policy

    # ------------------------------------------------------------- wiring
    @property
    def hostid(self) -> str:
        return self.endpoint.hostid

    @property
    def handlers(self):
        """The endpoint's live service table (read-only use)."""
        return self.endpoint.handlers

    def configure(self, registry=_UNSET, tracer=_UNSET, policy=_UNSET) -> "ServiceRuntime":
        """Re-wire observability/policy; omitted fields keep their value."""
        if registry is not _UNSET:
            self.registry = registry
        if tracer is not _UNSET:
            self.tracer = tracer
        if policy is not _UNSET:
            self.policy = policy
        return self

    # -------------------------------------------------------- client side
    def call(self, dst: str, service: str, payload: Any = None,
             size: int = 0, timeout: Optional[float] = None, rtts: int = 1,
             policy: Optional[CallPolicy] = None):
        """Generator: one RPC invocation, start to finish.

        ``rtts - 1`` ping exchanges precede the request proper (the
        paper's TCP round-trips).  An attempt whose ping or request gets
        no answer by its deadline is re-issued from the first ping, after
        the policy's backoff, up to ``policy.attempts`` — only time-outs:
        a remote error is a handler answering "no", and repeating the
        question does not change it.  ``timeout`` overrides the
        per-attempt deadline only; ``policy`` overrides the whole
        retry/timeout behaviour for this call.

        However many attempts it takes, the invocation is one OpStats
        observation (latency is what the caller felt) and one
        ``rpc:<service>`` span carrying a ``retries`` attribute.
        """
        policy = policy or self.policy
        if timeout is None:
            timeout = policy.timeout
        sim, endpoint, tracer = self.sim, self.endpoint, self.tracer
        t0 = sim.now
        span = None if tracer is None else tracer.start("rpc:" + service, dst=dst)
        attempt, left = 1, rtts
        try:
            while True:
                req_id, reply = endpoint.post(dst, service, payload, size,
                                              timeout, ping=left > 1)
                answer = yield reply
                if answer is None:
                    endpoint.abandon(req_id)
                    if attempt >= policy.attempts:
                        raise RpcTimeout(dst, service, timeout)
                    delay = policy.delay_before_retry(attempt)
                    attempt, left = attempt + 1, rtts
                    if delay > 0:
                        yield sim.timeout(delay)
                elif answer[0] == "err":
                    raise RpcRemoteError(dst, service, answer[1])
                elif left > 1:
                    left -= 1
                else:
                    break
        except Exception as exc:
            self._record_client(service, t0, size, attempt - 1, span, exc)
            raise
        self._record_client(service, t0, size, attempt - 1, span, None)
        return answer[1]

    def _record_client(self, service: str, t0: float, size: int,
                       retries: int, span, exc: Optional[Exception]) -> None:
        # An Interrupt thrown into the caller closes the span but is not
        # an RPC outcome, so it is not observed.
        if self.registry is not None and (
                exc is None or isinstance(exc, (RpcTimeout, RpcRemoteError))):
            self.registry.stats(CLIENT, service).observe(
                self.sim.now - t0, ok=exc is None,
                timeout=isinstance(exc, RpcTimeout),
                retries=retries, bytes_out=size)
        if span is not None:
            span.attrs["retries"] = retries
            self.tracer.finish(
                span, status="ok" if exc is None else type(exc).__name__)

    def send(self, dst: str, service: str, payload: Any = None,
             size: int = 0) -> None:
        """Fire-and-forget one-way message (counted, never traced)."""
        if self.registry is not None:
            self.registry.stats(CLIENT, service).observe_oneway(size)
        self.endpoint.send(dst, service, payload, size=size)

    def multicast(self, group: str, service: str, payload: Any = None,
                  size: int = 0) -> None:
        """One-way message to a multicast group."""
        if self.registry is not None:
            self.registry.stats(CLIENT, service).observe_oneway(size)
        self.endpoint.multicast(group, service, payload, size=size)

    def subscribe(self, group: str) -> None:
        self.endpoint.subscribe(group)

    def unsubscribe(self, group: str) -> None:
        self.endpoint.unsubscribe(group)

    # -------------------------------------------------------- server side
    def register(self, service: str, handler: Handler,
                 replace: bool = False, instrument: bool = True) -> None:
        """Install a handler, wrapped for server-side metrics.

        ``replace=True`` makes re-registration idempotent (restarted
        daemons); the default still fails loudly on accidental collision.
        """
        if instrument:
            handler = self._instrumented(service, handler)
        self.endpoint.register(service, handler, replace=replace)

    def unregister(self, service: str) -> None:
        self.endpoint.unregister(service)

    def _instrumented(self, service: str, handler: Handler) -> Handler:
        """Wrap a handler to record scope-"server" stats at call time.

        The wrapper preserves the sync/generator duality the endpoint's
        one-way path relies on (sync handlers must stay sync), and reads
        ``self.registry`` late so deployments can attach it after the
        daemons registered their services.
        """

        def wrapped(payload: Any, src: str):
            t0 = self.sim.now
            try:
                result = handler(payload, src)
            except Exception:
                self._record_server(service, t0, None, ok=False)
                raise
            if type(result) is GeneratorType:
                return self._drive(service, result, t0)
            self._record_server(service, t0, result, ok=True)
            return result

        return wrapped

    def _drive(self, service: str, gen: Generator, t0: float):
        try:
            result = yield from gen
        except Exception:
            self._record_server(service, t0, None, ok=False)
            raise
        self._record_server(service, t0, result, ok=True)
        return result

    def _record_server(self, service: str, t0: float, result: Any,
                       ok: bool) -> None:
        if self.registry is None:
            return
        nbytes = _split_result(result)[1] if ok else 0
        self.registry.stats(SERVER, service).observe(
            self.sim.now - t0, ok=ok, bytes_in=nbytes)
