"""Call policies: the timeout/retry/backoff knobs of every RPC.

The paper gives exactly one RPC deadline — Figure 13's 5 seconds, after
which "requests issued to the failed node are all timed out".  That
number lives in one place (:data:`RPC_DEADLINE`) and flows to every
component through a :class:`CallPolicy` instead of being re-spelled per
call site.

Retries default to *off* (``attempts=1``): Sorrento's protocols handle
failure above the RPC layer (probe fallback, namespace failover,
re-placement), so blanket retries would double-charge the network model.
Components that do want them opt in per call or per runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's Figure-13 RPC deadline (seconds): failed-node requests
#: surface as timeouts at this horizon ("requests issued to the failed
#: node are all timed out").
RPC_DEADLINE = 5.0


@dataclass(frozen=True)
class CallPolicy:
    """How one RPC invocation behaves under delay and failure."""

    timeout: float = RPC_DEADLINE   # per-attempt deadline (seconds)
    attempts: int = 1               # total tries (1 = no retry)
    backoff: float = 0.0            # wait before the first retry
    backoff_factor: float = 2.0     # multiplier per further retry

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError(f"non-positive timeout: {self.timeout}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1: {self.attempts}")
        if self.backoff < 0:
            raise ValueError(f"negative backoff: {self.backoff}")

    def delay_before_retry(self, failed_attempts: int) -> float:
        """Backoff after ``failed_attempts`` tries have failed (>= 1)."""
        return self.backoff * self.backoff_factor ** (failed_attempts - 1)


#: The stock policy: Figure-13 deadline, no retries.
DEFAULT_POLICY = CallPolicy()
