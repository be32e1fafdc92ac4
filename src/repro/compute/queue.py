"""The task-queue service: schedule compute where the bytes live.

Sorrento's providers already maintain everything a compute scheduler
needs — the location table says *who holds* a segment, and the
per-segment access history (§3.7.2) says *who has been reading* it.
``TaskQueue`` is a small service (PYME's ActionManager is the idiom
reference) that exploits both: clients submit DAG-free bundles of
map-style scan tasks and shuffle-heavy reduce tasks, and the queue
assigns each task to the worker holding the most of its input bytes.

Scoring.  For each input segment the queue resolves owners and access
history through the home host (one ``loc_lookup`` with the opt-in
``affinity`` flag, TTL-cached queue-side), then scores every candidate
worker::

    score(w) = resident_bytes(w) + 0.5 * min(affinity_bytes(w), need)

``resident_bytes`` are input bytes the worker already holds;
``affinity_bytes`` are bytes the home host has recently served *to*
that worker — a predictor of page-cache warmth and of where the
locality migrator (§3.7.2) is about to move the segment anyway.  The
pick is ``min(candidates, key=(-score, load, hostid))``: deterministic,
load-balanced among equals.

Locality classes.  Each assignment is labelled:

* ``local``     — ≥ half the input bytes are already resident;
* ``pre-staged``— cold input, but the queue issued ``seg_replicate``
  toward the assigned worker so the bytes migrate while the task waits
  its turn (the provider's ``already``-guard makes this race-safe
  against concurrent locality migration — no duplicate ingests);
* ``pulled``    — the worker will read the bytes remotely.

Leases.  ``task_next`` hands a task out under a lease; a sweeper
re-queues tasks whose lease expired (worker crashed or wedged) and
drains queues of dead workers, so a FaultPlan crash costs one lease
TTL, not the job.

The ablation knob: ``policy`` ∈ {``locality``, ``random``,
``round_robin``} — the latter two ignore the score and are the
baselines ``experiments.compute`` compares against.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.location import LOC_CACHE_CAPACITY, LOC_CACHE_TTL, TtlCache
from repro.network.message import RpcRemoteError, RpcTimeout

POLICIES = ("locality", "random", "round_robin")

#: Input-resident fraction at or above which a task counts as "local".
LOCAL_FRACTION = 0.5
#: Weight of access-history affinity relative to resident bytes.
AFFINITY_WEIGHT = 0.5
#: Give up on a task after this many failed attempts.
MAX_ATTEMPTS = 3


class TaskQueue:
    """Locality-aware task queue service hosted on one node.

    Tasks are dicts: ``{"kind": "scan"|"shuffle", "path": str,
    "offset": int, "length": int | None, "out": str, "out_size": int,
    "cpu": float}`` — only ``path`` is required.  ``shuffle`` tasks
    additionally write ``out_size`` bytes to ``out`` after scanning.
    """

    SERVICES = ("task_submit", "task_next", "task_done", "task_fail",
                "task_status")

    def __init__(self, node, client, workers: List[str],
                 rng: random.Random, *,
                 policy: str = "locality", prestage: bool = True,
                 lease_ttl: float = 15.0):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.node = node
        self.sim = node.sim
        self.host = node.hostid
        self.client = client
        self.rpc = client.rpc
        self.rng = rng
        self.policy = policy
        self.prestage = prestage and policy == "locality"
        self.lease_ttl = lease_ttl
        self.workers = sorted(workers)
        self._queues: Dict[str, deque] = {w: deque() for w in self.workers}
        self._load = {w: 0 for w in self.workers}
        self._leased: Dict[int, dict] = {}
        self._tasks: Dict[int, dict] = {}
        self._finished: set = set()
        self._failed: set = set()
        self._rr = 0
        self._next_id = 1
        #: Pre-stage transfers issued but not yet accounted (drained by
        #: experiments before reading byte counters).
        self.prestage_inflight = 0
        # Queue-side (owners, affinity, version) cache — the same TTL as
        # the clients' location cache, so staleness bounds match.
        self._seg_cache = TtlCache(LOC_CACHE_TTL, LOC_CACHE_CAPACITY)
        self.jobs: Dict[str, dict] = {}
        #: (task_id, worker, locality_class) in assignment order — the
        #: determinism tests replay this verbatim.
        self.assignments: List[Tuple[int, str, str]] = []
        self.stats = {
            "submitted": 0, "completed": 0, "failed": 0, "requeued": 0,
            "class_local": 0, "class_prestaged": 0, "class_pulled": 0,
            "prestage_segments": 0, "prestage_already": 0,
            "prestage_bytes": 0,
            "task_local_bytes": 0, "task_remote_bytes": 0,
            "task_out_bytes": 0,
        }
        for svc in self.SERVICES:
            self.rpc.register(svc, getattr(self, "_h_" + svc), replace=True)
        node.daemon(self._sweeper, f"task-sweeper:{self.host}")

    # ------------------------------------------------------------ scoring
    def _candidates(self) -> List[str]:
        """Live workers, in stable order (falls back to the full set so a
        fully-partitioned membership view cannot wedge the queue)."""
        mm = self.client.membership
        if mm is not None:
            live = set(mm.live_providers())
            alive = [w for w in self.workers if w in live]
            if alive:
                return alive
        return list(self.workers)

    def _seg_info(self, segid: int):
        """(owners, affinity) for one segment via its home host, cached."""
        now = self.sim.now
        hit = self._seg_cache.get(segid, now)
        if hit is not None:
            return hit
        owners: List[Tuple[str, int]] = []
        affinity: Dict[str, int] = {}
        try:
            home = self.client._home_of(segid)
            resp = yield from self.rpc.call(
                home, "loc_lookup",
                {"segid": segid, "affinity": True}, size=64)
            owners = resp["owners"] or []
            affinity = resp.get("affinity") or {}
        except (RpcTimeout, RpcRemoteError):
            pass
        info = (owners, affinity)
        self._seg_cache.put(segid, info, now)
        return info

    def _inputs(self, task: dict):
        """Resolve the task's input range into per-segment need/owners.

        Returns ``(segs, total)`` where ``segs`` is a list of
        ``(segid, version, need_bytes, seg_size, owner_hosts, affinity)``.
        """
        fh = yield from self.client.open(task["path"], "r", meta_only=True)
        try:
            offset = task.get("offset") or 0
            length = task.get("length")
            if length is None:
                length = max(0, fh.size - offset)
            length = min(length, max(0, fh.size - offset))
            task["length"] = length
            segs, total = [], 0
            for seg_idx, _seg_off, n in fh.layout.locate(offset, length):
                ref = fh.layout.segments[seg_idx]
                owners, affinity = yield from self._seg_info(ref.segid)
                segs.append((ref.segid, ref.version, n, ref.size,
                             {h for h, _v in owners}, owners, affinity))
                total += n
        finally:
            yield from self.client.close(fh)
        return segs, total

    def _choose(self, segs, candidates: List[str]) -> str:
        if self.policy == "round_robin":
            worker = candidates[self._rr % len(candidates)]
            self._rr += 1
            return worker
        if self.policy == "random":
            return self.rng.choice(candidates)
        score = {w: 0.0 for w in candidates}
        for _segid, _v, need, _size, hosts, _owners, affinity in segs:
            for w in candidates:
                if w in hosts:
                    score[w] += need
                warmth = affinity.get(w)
                if warmth:
                    score[w] += AFFINITY_WEIGHT * min(warmth, need)
        return min(candidates, key=lambda w: (-score[w], self._load[w], w))

    def _classify(self, segs, total: int, worker: str) -> str:
        resident = sum(need for _s, _v, need, _sz, hosts, _o, _a in segs
                       if worker in hosts)
        if total == 0 or resident >= LOCAL_FRACTION * total:
            return "local"
        return "pre-staged" if self.prestage else "pulled"

    # -------------------------------------------------------- pre-staging
    def _prestage_task(self, segs, worker: str) -> None:
        for segid, _v, _need, size, hosts, owners, _aff in segs:
            if worker in hosts or not owners:
                continue
            best = max(v for _h, v in owners)
            src = min(h for h, v in owners if v == best)
            self.node.spawn(
                self._prestage_one(worker, segid, best, src, size),
                name=f"prestage:{segid & 0xFFFF:04x}")

    def _prestage_one(self, worker: str, segid: int, version: int,
                      src: str, size: int):
        """Hint one segment toward its assigned worker.

        ``seg_replicate`` is the same idempotent ingest the migration and
        repair paths use: if a concurrent locality migration beat us to
        it, the provider answers ``already`` and no second copy moves.
        """
        self.prestage_inflight += 1
        try:
            resp = yield from self.rpc.call(
                worker, "seg_replicate",
                {"segid": segid, "version": version, "from": src},
                size=64, timeout=60.0)
        except (RpcTimeout, RpcRemoteError):
            return
        finally:
            self.prestage_inflight -= 1
        self.stats["prestage_segments"] += 1
        if resp.get("already"):
            self.stats["prestage_already"] += 1
        else:
            self.stats["prestage_bytes"] += size

    # --------------------------------------------------------- placement
    def _place(self, task: dict):
        segs, total = yield from self._inputs(task)
        candidates = self._candidates()
        worker = self._choose(segs, candidates)
        cls = self._classify(segs, total, worker)
        if cls == "pre-staged":
            self._prestage_task(segs, worker)
        task["class"] = cls
        task["worker"] = worker
        self._queues[worker].append(task)
        self._load[worker] += 1
        self.assignments.append((task["id"], worker, cls))
        key = {"local": "class_local", "pre-staged": "class_prestaged",
               "pulled": "class_pulled"}[cls]
        self.stats[key] += 1

    # ---------------------------------------------------------- services
    def _h_task_submit(self, req: dict, src: str):
        job = req.get("job") or f"job-{len(self.jobs)}"
        rec = self.jobs.setdefault(job, {
            "total": 0, "done": 0, "failed": 0,
            "submitted": self.sim.now, "finished": None,
        })
        ids = []
        for spec in req["tasks"]:
            task = {
                "id": self._next_id, "job": job,
                "kind": spec.get("kind", "scan"),
                "path": spec["path"],
                "offset": spec.get("offset") or 0,
                "length": spec.get("length"),
                "out": spec.get("out"),
                "out_size": spec.get("out_size") or 0,
                "cpu": spec.get("cpu") or 0.0,
                "attempts": 0,
            }
            self._next_id += 1
            self._tasks[task["id"]] = task
            rec["total"] += 1
            self.stats["submitted"] += 1
            ids.append(task["id"])
            yield from self._place(task)
        return {"job": job, "tasks": ids}, 64 + 8 * len(ids)

    def _h_task_next(self, req: dict, src: str):
        q = self._queues.get(req["worker"])
        while q:
            task = q.popleft()
            if task["id"] in self._finished or task["id"] in self._failed:
                # A stale copy (completed elsewhere after a lease expiry):
                # drop it and release its load accounting.
                self._load[req["worker"]] -= 1
                continue
            task["lease"] = self.sim.now + self.lease_ttl
            self._leased[task["id"]] = task
            wire = {k: task[k] for k in
                    ("id", "job", "kind", "path", "offset", "length",
                     "out", "out_size", "cpu", "class")}
            return {"task": wire}, 192
        return {"task": None}, 48

    def _job_account(self, job: str, *, failed: bool = False) -> None:
        rec = self.jobs[job]
        rec["failed" if failed else "done"] += 1
        if rec["done"] + rec["failed"] >= rec["total"] \
                and rec["finished"] is None:
            rec["finished"] = self.sim.now

    def _h_task_done(self, req: dict, src: str):
        tid = req["task"]
        task = self._tasks.get(tid)
        if task is None or tid in self._finished or tid in self._failed:
            return {"ok": False}, 48
        self._finished.add(tid)
        if self._leased.pop(tid, None) is not None:
            self._load[task["worker"]] -= 1
        self.stats["completed"] += 1
        self.stats["task_local_bytes"] += req.get("local_bytes", 0)
        self.stats["task_remote_bytes"] += req.get("remote_bytes", 0)
        self.stats["task_out_bytes"] += req.get("out_bytes", 0)
        self._job_account(task["job"])
        return {"ok": True}, 48

    def _h_task_fail(self, req: dict, src: str):
        tid = req["task"]
        task = self._tasks.get(tid)
        if task is None or tid in self._finished or tid in self._failed:
            return {"ok": False}, 48
        if self._leased.pop(tid, None) is not None:
            self._load[task["worker"]] -= 1
        task["attempts"] += 1
        if task["attempts"] >= MAX_ATTEMPTS:
            self._failed.add(tid)
            self.stats["failed"] += 1
            self._job_account(task["job"], failed=True)
            return {"ok": True, "requeued": False}, 48
        self.stats["requeued"] += 1
        yield from self._place(task)
        return {"ok": True, "requeued": True}, 48

    def _h_task_status(self, req: dict, src: str):
        rec = self.jobs.get(req["job"])
        if rec is None:
            return {"found": False}, 48
        makespan = None
        if rec["finished"] is not None:
            makespan = rec["finished"] - rec["submitted"]
        return {
            "found": True, "total": rec["total"], "done": rec["done"],
            "failed": rec["failed"],
            "finished": rec["finished"] is not None,
            "makespan": makespan,
        }, 96

    # ------------------------------------------------------------ leases
    def _sweeper(self):
        """Re-queue expired leases and drain dead workers' queues."""
        while True:
            yield self.sim.timeout(self.lease_ttl / 2)
            now = self.sim.now
            live = set(self._candidates())
            expired = [t for t in self._leased.values()
                       if t["lease"] <= now]
            for task in expired:
                del self._leased[task["id"]]
                self._load[task["worker"]] -= 1
                self.stats["requeued"] += 1
                yield from self._place(task)
            for w in self.workers:
                if w in live or not self._queues[w]:
                    continue
                orphans = [t for t in self._queues[w]
                           if t["id"] not in self._finished]
                self._queues[w].clear()
                for task in orphans:
                    self._load[w] -= 1
                    self.stats["requeued"] += 1
                    yield from self._place(task)

    # --------------------------------------------------------- inspection
    def pending_count(self) -> int:
        return sum(1 for q in self._queues.values()
                   for t in q if t["id"] not in self._finished)

    def leased_count(self) -> int:
        return len(self._leased)

    def by_class(self) -> Dict[str, int]:
        return {"local": self.stats["class_local"],
                "pre-staged": self.stats["class_prestaged"],
                "pulled": self.stats["class_pulled"]}


def start_compute(dep, on: Optional[str] = None,
                  workers: Optional[List[str]] = None, *,
                  policy: str = "locality", prestage: bool = True,
                  lease_ttl: float = 15.0) -> TaskQueue:
    """Stand up the compute plane on a deployment.

    Hosts the queue on ``on`` (default: the first compute node, else the
    namespace host) and one :class:`~repro.compute.worker.Worker` daemon
    per provider (or per ``workers`` entry).  Returns the queue, also
    reachable as ``dep.compute``; the workers as ``dep.compute_workers``.
    """
    from repro.compute.worker import Worker

    if on is None:
        spare = [h for h in sorted(dep.nodes)
                 if h not in dep.providers and h != dep.ns_host]
        on = spare[0] if spare else dep.ns_host
    queue = TaskQueue(
        dep.nodes[on], dep.client_on(on),
        sorted(workers if workers is not None else dep.providers),
        dep.rngs.py("compute:queue"),
        policy=policy, prestage=prestage, lease_ttl=lease_ttl)
    dep.compute = queue
    dep.compute_workers = {
        w: Worker(dep.nodes[w], dep.client_on(w), on)
        for w in queue.workers
    }
    return queue
