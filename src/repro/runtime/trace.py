"""Trace spans over virtual time.

A :class:`Tracer` records :class:`Span` trees: ``ServiceRuntime.call``
opens a span per RPC, and any component may open spans around larger
units of work (a commit, a migration round).  Parenthood follows the
*simulated process* that is running when a span starts — the kernel
exposes :attr:`Simulator.active_process` for exactly this — so nested
``yield from`` calls inside one process chain up naturally.

Handlers execute in their own sim process — the runtime starts the
request's generator inside the delivery event that carried the request
(``Simulator.start``), but as a :class:`~repro.sim.Process` of its own,
which is ``active_process`` whenever the handler runs — so a server-side
span is a root unless linked explicitly (pass ``parent=``).  So is a
span of a multi-branch ``gather``'s branch (a one-branch one runs in,
and parents under, the caller's process); explicit linking is
deliberate, because an automatic cross-process parent would have to
survive process interleaving and would lie about causality.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional


class Span:
    """One timed operation; ``parent`` links it into a trace tree."""

    __slots__ = ("name", "start", "end", "parent", "status", "attrs")

    def __init__(self, name: str, start: float,
                 parent: Optional["Span"] = None, **attrs: Any):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.status: Optional[str] = None
        self.attrs: Dict[str, Any] = attrs

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def depth(self) -> int:
        d, p = 0, self.parent
        while p is not None:
            d, p = d + 1, p.parent
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name!r} [{self.start:g}..{self.end}] {self.status}>"


class Tracer:
    """Per-deployment span recorder (bounded memory)."""

    def __init__(self, sim, max_spans: int = 4096):
        self.sim = sim
        self.finished: Deque[Span] = deque(maxlen=max_spans)
        self._stacks: Dict[int, List[Span]] = {}

    # -- the per-process span stack ------------------------------------
    def _key(self) -> int:
        return id(self.sim.active_process)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span of the running sim process."""
        stack = self._stacks.get(self._key())
        return stack[-1] if stack else None

    # -- span lifecycle ------------------------------------------------
    def start(self, name: str, parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        """Open a span; parent defaults to the process's current span."""
        if parent is None:
            parent = self.current
        span = Span(name, self.sim.now, parent, **attrs)
        self._stacks.setdefault(self._key(), []).append(span)
        return span

    def finish(self, span: Span, status: str = "ok") -> Span:
        """Close a span and record it."""
        span.end = self.sim.now
        span.status = status
        key = self._key()
        stack = self._stacks.get(key)
        if stack and span in stack:
            # Pop through the span (tolerates leaked children on error).
            while stack and stack.pop() is not span:
                pass
            if not stack:
                del self._stacks[key]
        self.finished.append(span)
        return span

    # -- queries ---------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        return [s for s in self.finished if name is None or s.name == name]
