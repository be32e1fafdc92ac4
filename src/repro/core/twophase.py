"""Two-phase commit (Section 3.5).

"Committing a new version of a file may require the commitment of
multiple segments on distributed providers.  We use the standard
two-phase commitment (2PC) to ensure the atomicity of such an
operation."

The coordinator is the committing client; participants are the storage
providers holding the shadow segments, exposing ``seg_prepare`` /
``seg_commit`` / ``seg_abort`` services.  The coordinator is generic in
its service triple: cross-shard namespace transactions reuse it with
``services=("ns_prepare", "ns_commit", "ns_abort")``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.network.message import RpcRemoteError, RpcTimeout
from repro.sim import gather


class CommitAborted(Exception):
    """A participant voted no (or died) during phase 1; all were aborted."""


SEG_SERVICES = ("seg_prepare", "seg_commit", "seg_abort")


def two_phase_commit(rpc, participants: List[Tuple[str, Any]],
                     req_size: int = 96, timeout: Optional[float] = None,
                     services: Tuple[str, str, str] = SEG_SERVICES):
    """Generator: run 2PC over ``participants``: (hostid, payload) pairs.

    ``rpc`` is anything with a ``call`` generator and a ``sim`` — normally
    a :class:`repro.runtime.ServiceRuntime`, whose policy supplies the RPC
    deadline when ``timeout`` is None.  ``services`` names the
    (prepare, commit, abort) triple the participants expose.

    Phase 1 sends the prepare service to every participant in parallel;
    if any vote is negative or unreachable, the abort service goes to
    all and :class:`CommitAborted` is raised.  Phase 2 sends commit.
    """
    sim = rpc.sim
    prepare_svc, commit_svc, abort_svc = services
    kw = {} if timeout is None else {"timeout": timeout}

    def prepare_one(host, payload):
        try:
            vote = yield from rpc.call(host, prepare_svc, payload,
                                       size=req_size, **kw)
            return bool(vote)
        except (RpcTimeout, RpcRemoteError):
            return False

    votes = yield from gather(sim, [
        prepare_one(host, payload) for host, payload in participants
    ])
    if not all(votes):
        yield from _broadcast(rpc, abort_svc, participants, req_size, kw)
        raise CommitAborted(
            f"{votes.count(False)}/{len(votes)} participants refused")
    yield from _broadcast(rpc, commit_svc, participants, req_size, kw)
    return len(participants)


def _broadcast(rpc, service, participants, req_size, kw):
    def send_one(host, payload):
        try:
            yield from rpc.call(host, service, payload, size=req_size, **kw)
        except (RpcTimeout, RpcRemoteError):
            pass  # best effort; shadow TTLs clean up stragglers

    yield from gather(rpc.sim, [
        send_one(host, payload) for host, payload in participants
    ])
