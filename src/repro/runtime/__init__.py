"""The RPC layer.

Sits between the network fabric and the protocol daemons: every
component issues RPCs and registers handlers through its node's one
:class:`ServiceRuntime`, which dispatches the host's messages and gives
every call a uniform timeout/retry policy (:class:`CallPolicy`, carrying
the paper's Figure-13 5 s deadline), per-service metrics
(:class:`MetricsRegistry`), and trace spans over virtual time
(:class:`Tracer`).

See ``docs/runtime.md`` for the architecture walkthrough.
"""

from repro.runtime.metrics import CACHE, CLIENT, SERVER, MetricsRegistry, OpStats
from repro.runtime.policy import DEFAULT_POLICY, RPC_DEADLINE, CallPolicy
from repro.runtime.service import ServiceRuntime
from repro.runtime.trace import Span, Tracer

__all__ = [
    "CACHE",
    "CLIENT",
    "SERVER",
    "CallPolicy",
    "DEFAULT_POLICY",
    "MetricsRegistry",
    "OpStats",
    "RPC_DEADLINE",
    "ServiceRuntime",
    "Span",
    "Tracer",
]
