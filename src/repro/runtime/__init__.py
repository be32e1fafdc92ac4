"""The RPC layer.

Sits between the network fabric and the protocol daemons: every
component issues RPCs and registers handlers through its node's one
:class:`ServiceRuntime`, which dispatches the host's messages and gives
every call one deadline (:data:`RPC_DEADLINE`, the paper's Figure-13
5 s), per-service metrics (:class:`MetricsRegistry`), and trace spans
over virtual time (:class:`Tracer`).  Failure is handled above this
layer, by the protocols; a call is never retried here.

See ``docs/runtime.md`` for the architecture walkthrough.
"""

from repro.runtime.metrics import CACHE, CLIENT, SERVER, MetricsRegistry, OpStats
from repro.runtime.service import RPC_DEADLINE, ServiceRuntime
from repro.runtime.trace import Span, Tracer

__all__ = [
    "CACHE",
    "CLIENT",
    "SERVER",
    "MetricsRegistry",
    "OpStats",
    "RPC_DEADLINE",
    "ServiceRuntime",
    "Span",
    "Tracer",
]
