"""Two-phase commit (Section 3.5).

"Committing a new version of a file may require the commitment of
multiple segments on distributed providers.  We use the standard
two-phase commitment (2PC) to ensure the atomicity of such an
operation."

The coordinator is the committing client; participants are the storage
providers holding the shadow segments, exposing ``seg_prepare`` /
``seg_commit`` / ``seg_abort`` services.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.network.message import RpcRemoteError, RpcTimeout
from repro.sim import gather


class CommitAborted(Exception):
    """A participant voted no (or died) during phase 1; all were aborted."""


def two_phase_commit(rpc, participants: List[Tuple[str, Any]]):
    """Generator: run 2PC over ``participants``: (hostid, payload) pairs.

    ``rpc`` is anything with a ``call`` generator and a ``sim`` — normally
    a :class:`repro.runtime.ServiceRuntime`; every call runs under its
    one deadline, ``RPC_DEADLINE``.

    Phase 1 sends ``seg_prepare`` to every participant in parallel; if
    any vote is negative or unreachable, ``seg_abort`` goes to all and
    :class:`CommitAborted` is raised.  Phase 2 sends ``seg_commit``.
    """
    def prepare_one(host, payload):
        try:
            vote = yield from rpc.call(host, "seg_prepare", payload, size=96)
            return bool(vote)
        except (RpcTimeout, RpcRemoteError):
            return False

    votes = yield from gather(rpc.sim, [
        prepare_one(host, payload) for host, payload in participants
    ])
    if not all(votes):
        yield from _broadcast(rpc, "seg_abort", participants)
        raise CommitAborted(
            f"{votes.count(False)}/{len(votes)} participants refused")
    yield from _broadcast(rpc, "seg_commit", participants)
    return len(participants)


def _broadcast(rpc, service, participants):
    def send_one(host, payload):
        try:
            yield from rpc.call(host, service, payload, size=96)
        except (RpcTimeout, RpcRemoteError):
            pass  # best effort; shadow TTLs clean up stragglers

    yield from gather(rpc.sim, [
        send_one(host, payload) for host, payload in participants
    ])
