"""Client-side front door to the compute plane.

Built over a client stub, ``ComputeAPI(dep.client_on(host))``, and
pointed at the queue with :meth:`ComputeAPI.bind`.  A thin RPC wrapper
over the queue's services: ``submit`` a bundle of task specs,
``status``/``wait`` on the returned job handle, or ``run`` for
submit-and-wait.  All methods are simulation generators, driven
like any other client op (``dep.run(...)`` / ``sim.process(...)``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.client.handle import SorrentoError, TimeoutError


class ComputeAPI:
    """Bound to a client stub; targets one queue host at a time."""

    def __init__(self, client, queue_host: Optional[str] = None):
        self.client = client
        self.queue_host = queue_host

    def bind(self, host: str) -> "ComputeAPI":
        """Point this API at the node hosting the TaskQueue service."""
        self.queue_host = host
        return self

    def _target(self) -> str:
        if self.queue_host is None:
            raise SorrentoError(
                "compute API not bound: call .bind(queue_host) first")
        return self.queue_host

    def submit(self, tasks: List[dict], job: Optional[str] = None):
        """Submit task specs; returns ``{"job": ..., "tasks": [ids]}``.

        Submission resolves every input's layout and owners queue-side,
        so the call is sized (and timed out) for a bundle, not an op.
        """
        resp = yield from self.client.rpc.call(
            self._target(), "task_submit",
            {"tasks": list(tasks), "job": job},
            size=64 + 96 * len(tasks), timeout=120.0)
        return resp

    def status(self, job: str):
        resp = yield from self.client.rpc.call(
            self._target(), "task_status", {"job": job}, size=48)
        return resp

    def wait(self, job: str, poll: float = 0.25,
             timeout: Optional[float] = None):
        """Poll until the job finishes; returns the final status row."""
        sim = self.client.sim
        deadline = sim.now + timeout if timeout is not None else None
        while True:
            st = yield from self.status(job)
            if st.get("finished"):
                return st
            if deadline is not None and sim.now >= deadline:
                raise TimeoutError(f"job {job} still running at deadline")
            yield sim.timeout(poll)

    def run(self, tasks: List[dict], job: Optional[str] = None,
            poll: float = 0.25, timeout: Optional[float] = None):
        """Submit and wait; returns the job's final status row."""
        resp = yield from self.submit(tasks, job=job)
        st = yield from self.wait(resp["job"], poll=poll, timeout=timeout)
        return st
