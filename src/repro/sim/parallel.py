"""Conservative parallel execution for the DES kernel.

The cluster model is *spatially* decomposable: providers talk mostly to
rack/switch neighbours, and every cross-host interaction rides the
fabric, which charges at least one propagation latency.  This module
partitions the simulated cluster across N event loops and synchronizes
them with a conservative bounded-window (YAWNS-style) barrier protocol:

* **PartitionMap** — hostid -> partition id, plus the extra one-way
  latency charged on cross-partition links (the inter-switch uplink
  hop the cut edges now traverse).  The *lookahead* ``L`` is the minimum
  cross-partition delivery delay: fabric latency + ``cross_latency``.
* **Transit** — the store-and-forward layer at the partition boundary.
  The sending fabric hands it ``(dst, extra)`` copies at tx completion;
  each becomes a record keyed ``(arrive, src_partition, seq)`` with
  ``arrive = tx_done + latency + extra + cross_latency``.  The receiving
  side drains a min-heap of records strictly in key order — the
  deterministic merge order for same-timestamp cross-partition events —
  reserving the receiver's rx link at drain time.  Drain wakes are
  priority-2 events, so at any instant every ordinary (priority <= 1)
  local event runs before any drain, in serial and parallel runs alike.
  Each record is counted once, at its sender (``traffic_out``, reported
  per cut edge as ``cross_matrix``).
* **Grant engine** — time advances in grid-aligned windows (multiples
  of ``L``), granted in *batches*: worker ``V`` cannot act before the
  chained bound ``ea(V) = min(its next event, earliest record held for
  it, earliest other action + L)``, so nothing it sends can arrive
  before ``ea(V) + L`` — worker ``W`` may therefore run clear to
  ``grid_next(min over V != W of ea(V))`` in one round trip, often
  covering several windows and skipping idle workers entirely.  Workers with nothing to do
  below their grant are advanced silently (an empty window never
  touches the worker), and a worker whose last local process completes
  mid-grant parks at the next grid point; each "procs" phase ends with
  a drain to the phase-end barrier so every backend enters the next
  phase having executed exactly the events below it.  Grid alignment
  makes phase-transition times a pure function of *model* quantities
  (max process-completion time), which is what lets a serial run of the
  same partitioned model reproduce the parallel run bit for bit.
* **mp topology** — caller -> *leader* -> workers 1..K-1.  The leader
  hosts partition 0 and runs the grant loop, so only grants for the
  other partitions cross a process boundary: one control frame each way
  over the raw pipe fd, a grant's inbound records and a status reply's
  flushed outbox riding as the frame's pickled tail.  The caller blocks
  on one pipe until the leader ships the outcome.

Determinism contract: with a fixed partition map and seed, the
``serial`` (one Simulator hosting every partition), ``inproc`` (K
Simulators stepped round-robin in one process), and ``mp`` (K forked
processes) backends produce identical event interleavings per
host, hence identical results.  Installing a map *changes the model*
(cross-partition messages become store-and-forward with the uplink
latency added), so unpartitioned goldens are untouched; partitioned
scenarios pin their own.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import os
import pickle
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.network.message import HEADER_BYTES, acquire_message
from repro.sim.kernel import Simulator, collector_exempt

#: Extra one-way latency charged on cut edges: the store-and-forward hop
#: through the inter-switch uplink that cross-partition traffic now
#: models explicitly (4x the intra-switch 80us port-to-port latency).
DEFAULT_CROSS_LATENCY = 320e-6

#: Sim seconds past which a phase is taken to be running away (a model
#: that never lets its processes finish), not merely slow.
HORIZON = 1e7


# ----------------------------------------------------------- partition map
@dataclass(frozen=True)
class PartitionMap:
    """hostid -> partition id, plus the cross-partition link model.

    Hosts absent from ``assignment`` (e.g. nodes attached at runtime)
    are treated as local to everyone: their traffic never crosses.
    """

    assignment: Dict[str, int]
    n_partitions: int
    cross_latency: float = DEFAULT_CROSS_LATENCY

    def pid(self, hostid: str) -> Optional[int]:
        return self.assignment.get(hostid)

    def is_cross(self, a: str, b: str) -> bool:
        m = self.assignment
        pa = m.get(a)
        if pa is None:
            return False
        pb = m.get(b)
        return pb is not None and pa != pb

    def lookahead(self, fabric_latency: float) -> float:
        """Minimum cross-partition delivery delay — the window grid unit."""
        return fabric_latency + self.cross_latency

    def sizes(self) -> List[int]:
        sizes = [0] * self.n_partitions
        for p in self.assignment.values():
            sizes[p] += 1
        return sizes

    def cut_edges(self, traffic_out: Mapping) -> int:
        """Distinct (host, remote partition) pairs with observed traffic."""
        return sum(1 for (_h, dp), v in traffic_out.items() if v[0])


def plan_partitions(storage_hosts: Sequence[str], compute_hosts: Sequence[str],
                    n_partitions: int,
                    cross_latency: float = DEFAULT_CROSS_LATENCY) -> PartitionMap:
    """A deterministic cut along switch boundaries.

    Storage hosts are chunked contiguously in spec order (neighbours in
    the spec share a switch); compute hosts are spread round-robin so
    every partition drives a share of the client load.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    storage = list(storage_hosts)
    assignment: Dict[str, int] = {}
    base, rem = divmod(len(storage), n_partitions)
    i = 0
    for p in range(n_partitions):
        take = base + (1 if p < rem else 0)
        for h in storage[i:i + take]:
            assignment[h] = p
        i += take
    for j, h in enumerate(compute_hosts):
        assignment[h] = j % n_partitions
    return PartitionMap(assignment, n_partitions, cross_latency)


# ----------------------------------------------------------------- transit
class Transit:
    """Store-and-forward for cross-partition messages.

    One instance per Simulator.  In serial mode (``local_pid`` is None)
    it owns every partition's records; in worker mode it queues outbound
    records per destination partition (flushed at each barrier) and
    drains the records other workers sent it.

    Records are plain tuples — picklable for the mp backend — ordered by
    ``(arrive, src_partition, seq)``; ``seq`` counts sends per source
    partition, so the merge order is identical whether the records came
    from one heap or K.
    """

    def __init__(self, sim: Simulator, fabric, pmap: PartitionMap,
                 local_pid: Optional[int] = None):
        self.sim = sim
        self.fabric = fabric
        self.pmap = pmap
        self.local_pid = local_pid
        self.is_cross = pmap.is_cross
        self._assign = pmap.assignment
        self._heap: List[tuple] = []
        self._seq = [0] * pmap.n_partitions
        self._wakes: set = set()
        self.outbox: Optional[Dict[int, List[tuple]]] = (
            {p: [] for p in range(pmap.n_partitions)}
            if local_pid is not None else None)
        self.records_out = 0
        self.records_in = 0
        self.wakes = 0
        self.delivered = 0
        self.dropped = 0
        # (sending host, destination partition) -> [records, wire bytes]:
        # the one count of cross-partition traffic.
        self.traffic_out: Dict[Tuple[str, int], List[int]] = {}

    @property
    def lookahead(self) -> float:
        return self.pmap.lookahead(self.fabric.latency)

    # -- sending side ---------------------------------------------------
    def submit(self, msg, copies: List[Tuple[str, float]], tx_done: float) -> None:
        """Queue cross-partition copies of ``msg`` (called by the fabric
        while it still owns the envelope; fields are copied out here)."""
        assign = self._assign
        src_pid = assign[msg.src]
        base = tx_done + self.fabric.latency + self.pmap.cross_latency
        wire = msg.size + HEADER_BYTES
        seq = self._seq[src_pid]
        for hostid, extra in copies:
            seq += 1
            rec = (base + extra, src_pid, seq, hostid, msg.src, msg.kind,
                   msg.payload, msg.size, msg.group, msg.req_id)
            dst_pid = assign[hostid]
            cell = self.traffic_out.get((msg.src, dst_pid))
            if cell is None:
                cell = self.traffic_out[(msg.src, dst_pid)] = [0, 0]
            cell[0] += 1
            cell[1] += wire
            if self.outbox is None:
                self._push(rec)
            else:
                self.outbox[dst_pid].append(rec)
        self._seq[src_pid] = seq
        self.records_out += len(copies)

    def flush_outbox(self) -> Dict[int, List[tuple]]:
        """Take and reset the per-partition outbound queues (mp/inproc)."""
        if self.outbox is None:
            return {}
        out = {p: recs for p, recs in self.outbox.items() if recs}
        for p in out:
            self.outbox[p] = []
        return out

    # -- receiving side -------------------------------------------------
    def inject(self, records: Sequence[tuple]) -> None:
        """Accept records shipped from other partitions (between windows;
        every ``arrive`` must still be in this worker's future)."""
        self.records_in += len(records)
        for rec in records:
            self._push(rec)

    def _push(self, rec: tuple) -> None:
        heapq.heappush(self._heap, rec)
        self._wake_at(rec[0])

    def _wake_at(self, t: float) -> None:
        if t in self._wakes:
            return
        self._wakes.add(t)
        # Priority 2: at instant t every ordinary local event (priority
        # <= 1) runs first, then the drain — identical interleaving in
        # serial and partitioned runs.  Scheduled by absolute time so the
        # drain's sim.now is bit-identical across backends.
        self.sim.call_at(t, self._drain, None, None, priority=2)
        self.wakes += 1

    def _drain(self, _a, _b) -> None:
        sim = self.sim
        now = sim.now
        heap = self._heap
        while heap and heap[0][0] <= now:
            self._deliver(heapq.heappop(heap))
        if self._wakes:
            self._wakes = {t for t in self._wakes if t > now}
        if heap:  # belt and braces: never strand a record
            self._wake_at(heap[0][0])

    def _deliver(self, rec: tuple) -> None:
        arrive, _src_pid, _seq, dst_id, src_id, kind, payload, size, group, req_id = rec
        fabric = self.fabric
        dst = fabric.hosts.get(dst_id)
        if dst is None or not dst.alive or dst.deliver is None:
            fabric.messages_dropped += 1
            self.dropped += 1
            return
        # The receiver's rx link is reserved at the boundary (not at the
        # sender's tx time): the record arrives at the partition edge at
        # ``arrive`` and only then competes for the destination NIC.
        _start, rx_done = dst.nic.rx.reserve(size + HEADER_BYTES,
                                             not_before=arrive)
        final = rx_done if rx_done > arrive else arrive
        msg = acquire_message(src_id, dst_id, kind, payload, size,
                              group, req_id)
        msg._refs = 1
        self.delivered += 1
        # Same lane as a direct fabric delivery: cross-cut copies tie-break
        # against local events identically in serial-with-map and windowed
        # runs.
        self.sim.call_later(final - self.sim.now, fabric._deliver_copy,
                            dst, msg, fabric.hosts[src_id].lane_to(dst))

    # -- reporting ------------------------------------------------------
    def cross_matrix(self) -> Dict[str, List[int]]:
        """partition->partition [records, bytes], JSON-friendly keys."""
        assign = self._assign
        matrix: Dict[str, List[int]] = {}
        for (src_host, dst_pid), (cnt, nbytes) in self.traffic_out.items():
            key = f"p{assign[src_host]}->p{dst_pid}"
            cell = matrix.setdefault(key, [0, 0])
            cell[0] += cnt
            cell[1] += nbytes
        return matrix

    def stats_dict(self) -> Dict[str, Any]:
        return {
            "n_partitions": self.pmap.n_partitions,
            "local_pid": self.local_pid,
            "lookahead_s": self.lookahead,
            "records_out": self.records_out,
            "records_in": self.records_in,
            "wakes": self.wakes,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "cross_matrix": self.cross_matrix(),
        }


# ------------------------------------------------------------ window math
def _grid_next(t: float, L: float) -> float:
    """The smallest multiple of ``L`` strictly greater than ``t``."""
    return (math.floor(t / L) + 1) * L


def _grid_ceil(t: float, L: float) -> float:
    """The smallest multiple of ``L`` at or above ``t``."""
    return math.ceil(t / L) * L


# -------------------------------------------------------------- the worker
class _Worker:
    """One partition's event loop plus the per-phase bookkeeping.

    Identical code runs in all three backends; only how the coordinator
    reaches it differs (direct calls, or a command pipe).
    """

    def __init__(self, program):
        self.program = program
        self.sim: Simulator = program.sim
        self.transit: Transit = program.transit
        self._L: float = self.transit.lookahead
        self._mode: Optional[str] = None
        self._open = 0
        self._done_t = 0.0
        self._pos = 0.0
        self.busy_wall = 0.0

    # Commands ----------------------------------------------------------
    def handle(self, cmd: tuple):
        t0 = time.perf_counter()
        try:
            op = cmd[0]
            if op == "phase":
                return self._start_phase(cmd[1], cmd[2])
            if op == "win":
                return self._run_window(cmd[1], cmd[2])
            if op == "result":
                return {
                    "result": self.program.result(),
                    "events": self.sim._nprocessed,
                    "peak_pending": self.sim._peak_pending,
                    "clock": self.sim.now,
                    "busy_wall_s": self.busy_wall,
                    "transit": self.transit.stats_dict(),
                }
            raise ValueError(f"unknown worker command {op!r}")
        finally:
            self.busy_wall += time.perf_counter() - t0

    def _status(self, stop_t: Optional[float] = None, wexec: int = 0) -> tuple:
        done = self._mode != "procs" or self._open == 0
        return ("s", self.sim.next_event_time(), done, self._done_t,
                stop_t, wexec, self.transit.flush_outbox())

    def _start_phase(self, idx: int, t_start: float) -> tuple:
        sim = self.sim
        if t_start > sim.now:
            # Grid-aligned and > every processed event: a pure clock hop.
            sim.now = t_start
        kind, arg = self.program.phases()[idx]
        self._mode = kind
        self._open = 0
        self._done_t = sim.now
        self._pos = t_start
        sim.window_break = False
        if kind == "call":
            arg(self.program)
        elif kind == "procs":
            procs = arg(self.program)
            self._open = len(procs)

            def _one_done(_ev):
                self._open -= 1
                t = self.sim.now
                if t > self._done_t:
                    self._done_t = t
                if self._open == 0:
                    # Last local process just completed: ask the window
                    # loop to pause so the grant can be re-capped at the
                    # next grid point (no worker runs ahead of the
                    # phase-end barrier it can't see yet).
                    self.sim.window_break = True

            for p in procs:
                if p.triggered:
                    self._open -= 1
                else:
                    p.add_callback(_one_done)
        elif kind != "until":
            raise ValueError(f"unknown phase kind {kind!r}")
        return self._status()

    def _run_window(self, t_end: float, inbound) -> tuple:
        """Run every local event with ``t < t_end``, injecting ``inbound``
        transit records first.

        ``t_end`` may span many grid windows (a multi-window grant) —
        conservatively safe because the coordinator bounded it by every
        other partition's earliest possible send plus the lookahead.  If
        the last local process of a "procs" phase completes mid-grant,
        the effective end is pulled back to the next grid point, so the
        executed region never crosses the eventual phase-end barrier.
        """
        if inbound:
            self.transit.inject(inbound)
        sim = self.sim
        L = self._L
        wins = 0
        while True:
            wins += sim.run_window(t_end, L)
            if sim.window_break:
                sim.window_break = False
                stop = _grid_next(self._done_t, L)
                if stop < t_end:
                    t_end = stop
                continue
            break
        self._pos = t_end
        return self._status(t_end, wins)


# --------------------------------------------------------- control frames
#: The one message shape on every control pipe, either direction: tag u1,
#: done u1, n u4 (windows executed | phase index), t f8 (grant end | phase
#: start | next event time), done_t f8, stop_t f8, tail length u4; then a
#: pickled tail when there is one: a grant's inbound record list, a status
#: reply's ``{dst_pid: [record]}`` outbox, a result or an error.  ``None``
#: times travel as NaN.
_FRAME = struct.Struct("<BBIdddI")
_WIN, _STATUS, _PHASE, _RESULT, _ERR, _STOP = range(6)


def _encode_frame(tag: int, t=None, done=False, done_t=0.0, stop_t=None,
                  n=0, tail=None) -> bytes:
    body = b"" if tail is None else pickle.dumps(tail, pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(tag, done, n, math.nan if t is None else t, done_t,
                       math.nan if stop_t is None else stop_t,
                       len(body)) + body


def _decode_frame(buf: bytes) -> Optional[tuple]:
    """``(tag, t, done, done_t, stop_t, n, tail)``, or None while ``buf``
    is still short of a whole frame."""
    head = _FRAME.size
    if len(buf) < head:
        return None
    tag, done, n, t, done_t, stop_t, tail_len = _FRAME.unpack_from(buf)
    if len(buf) < head + tail_len:
        return None
    tail = pickle.loads(buf[head:head + tail_len]) if tail_len else None
    return (tag, None if t != t else t, bool(done), done_t,
            None if stop_t != stop_t else stop_t, n, tail)


def _send(fd: int, frame: bytes) -> None:
    while frame:
        frame = frame[os.write(fd, frame):]


def _recv(fd: int) -> tuple:
    """The next frame on ``fd`` (one ``os.read`` unless a tail outgrows it:
    request and reply alternate); EOFError when the peer is gone."""
    buf = os.read(fd, 4096)
    while (frame := _decode_frame(buf)) is None:
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            raise EOFError("control pipe closed")
        buf += chunk
    return frame


# ------------------------------------------------------------- endpoints
class PartitionError(RuntimeError):
    """A partition of an mp run failed or died; the message names it."""


class _LocalEndpoint:
    """In-process coordinator<->worker link (serial, inproc, the leader's
    own partition).  The command runs in :meth:`wait`, so a round's remote
    grants are all on their way before the local one executes."""

    remote = False

    def __init__(self, worker: _Worker):
        self.worker = worker
        self._cmd: Optional[tuple] = None

    def post(self, cmd: tuple) -> None:
        self._cmd = cmd

    def wait(self):
        cmd, self._cmd = self._cmd, None
        return self.worker.handle(cmd)


class _PipeEndpoint:
    """Leader<->forked-worker link: one control frame each way per command
    over the raw pipe fd, record batches in its pickled tail."""

    remote = True

    def __init__(self, pid: int, conn, proc):
        self.pid = pid
        self.conn = conn
        self.fd = conn.fileno()
        self.proc = proc

    def post(self, cmd: tuple) -> None:
        if cmd[0] == "win":
            frame = _encode_frame(_WIN, cmd[1], tail=cmd[2])
        elif cmd[0] == "phase":
            frame = _encode_frame(_PHASE, cmd[2], n=cmd[1])
        else:
            frame = _encode_frame(_RESULT)
        with contextlib.suppress(ConnectionError):  # dead? wait() says so
            _send(self.fd, frame)

    def wait(self):
        try:
            frame = _recv(self.fd)
        except (EOFError, ConnectionError):
            raise PartitionError(f"partition {self.pid}: worker died") from None
        if frame[0] == _ERR:
            raise PartitionError(f"partition {self.pid} failed: {frame[-1]}")
        if frame[0] == _RESULT:
            return frame[-1]
        return ("s", *frame[1:6], frame[6] or {})

    def stop(self) -> None:
        with contextlib.suppress(ConnectionError):
            _send(self.fd, _encode_frame(_STOP))
        self.conn.close()
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.terminate()


def _mp_worker_main(conn, inherited, builder, args, pid: int) -> None:
    for c in inherited:     # other processes' pipe ends the fork copied:
        c.close()           # held open they would hide a death from readers
    fd = conn.fileno()
    try:
        worker = _Worker(builder(*args, local_pid=pid))
        with collector_exempt():    # once per process, never per grant
            while True:
                tag, t, _d, _dt, _st, n, tail = _recv(fd)
                if tag == _WIN:
                    reply = worker.handle(("win", t, tail))
                elif tag == _PHASE:
                    reply = worker.handle(("phase", n, t))
                elif tag == _RESULT:
                    _send(fd, _encode_frame(_RESULT, tail=worker.handle(("result",))))
                    continue
                else:
                    return
                _send(fd, _encode_frame(_STATUS, *reply[1:6],
                                        tail=reply[6] or None))
    except (EOFError, ConnectionError):
        pass        # the leader is gone, nobody left to tell
    except Exception as exc:  # noqa: BLE001 - ship the failure to the leader
        with contextlib.suppress(ConnectionError):
            _send(fd, _encode_frame(_ERR, tail=f"{type(exc).__name__}: {exc}"))


def _leader_main(conn, caller_conn, n_partitions: int, builder, args,
                 *coordinate_args) -> None:
    """The mp backend's leader process: fork workers 1..K-1, *then* build
    partition 0 (so they do not inherit its model), run the coordinator
    loop over a local endpoint plus the pipes, ship the outcome once."""
    import multiprocessing as mp

    caller_conn.close()
    ctx = mp.get_context("fork")
    remotes: List[_PipeEndpoint] = []
    try:
        try:
            for p in range(1, n_partitions):
                mine, theirs = ctx.Pipe()
                proc = ctx.Process(
                    target=_mp_worker_main, daemon=True,
                    args=(theirs, [conn, mine] + [ep.conn for ep in remotes],
                          builder, args, p))
                proc.start()
                theirs.close()
                remotes.append(_PipeEndpoint(p, mine, proc))
            local = _LocalEndpoint(_Worker(builder(*args, local_pid=0)))
            out = _coordinate([local] + remotes, *coordinate_args)
        finally:
            for ep in remotes:
                ep.stop()
        frame = _encode_frame(_RESULT, tail=out)
    except Exception as exc:  # noqa: BLE001 - ship the failure to the caller
        frame = _encode_frame(_ERR, tail=str(exc) if isinstance(
            exc, PartitionError) else
            f"partition 0 (leader) failed: {type(exc).__name__}: {exc}")
    _send(conn.fileno(), frame)


def _run_under_leader(n_partitions: int, *leader_args) -> Dict[str, Any]:
    """Fork the leader (non-daemonic: it has children of its own) and block
    on its one pipe until the run's outcome, or its death, arrives."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    mine, theirs = ctx.Pipe()
    leader = ctx.Process(target=_leader_main,
                         args=(theirs, mine, n_partitions, *leader_args))
    leader.start()
    theirs.close()
    frame = None
    try:
        with contextlib.suppress(EOFError, ConnectionError):
            frame = _recv(mine.fileno())
    finally:
        if frame is None:   # it died, or we are being interrupted
            leader.terminate()
        leader.join()
        mine.close()
    if frame is None:
        raise PartitionError("partition 0 (leader) died")
    if frame[0] == _ERR:
        raise PartitionError(frame[-1])
    return frame[-1]


# ----------------------------------------------------------- coordinator
@dataclass
class RunStats:
    backend: str = "serial"
    n_partitions: int = 1
    windows: int = 0                # grid windows granted (sum over grants)
    barriers: int = 0               # coordination rounds
    grants: int = 0                 # "win" commands issued
    ipc_round_trips: int = 0        # ... of which crossed a process boundary
    windows_executed: int = 0       # granted windows that contained events
    windows_per_grant: float = 0.0  # windows / grants
    fallback_rounds: int = 0        # always 0; kept because bench/worker.py
                                    # and CI parallel-smoke read the field
    records_shipped: int = 0
    shm_fallbacks: int = 0          # always 0; kept because bench/worker.py
                                    # reads the field
    wall_s: float = 0.0
    barrier_wall_s: float = 0.0     # coordinator time around window rounds
    busy_wall_s: List[float] = field(default_factory=list)
    events: List[int] = field(default_factory=list)
    phase_log: List[Dict[str, float]] = field(default_factory=list)


def run_partitioned(builder: Callable, args: tuple, pmap: PartitionMap,
                    phase_meta: Sequence[Tuple[str, Optional[float]]],
                    backend: str = "serial",
                    fabric_latency: Optional[float] = None) -> Dict[str, Any]:
    """Execute a phased partition program under conservative grants.

    ``builder(*args, local_pid=...)`` constructs one partition program: an
    object with ``sim`` (Simulator), ``transit`` (Transit), ``phases()``
    (the phase list) and ``result()`` (a picklable summary).  With
    ``local_pid=None`` it builds the whole model in one Simulator — the
    serial reference execution of the *same* partitioned model.

    ``phase_meta`` mirrors ``phases()`` shapes for the coordinator:
    ``("until", T)`` advances every partition to the grid point at/above
    ``T``; ``("call", None)`` runs a setup callable at the current grid
    point (no sim time passes); ``("procs", None)`` spawns processes and
    grants forward until every partition's processes have completed,
    then drains every partition to the phase-end barrier.

    **Grant rule.**  Worker ``V`` cannot act before ``act(V) = min(its
    next event time, the earliest arrival among records the coordinator
    still holds for it)`` — but it may also *react* to another worker's
    send one lookahead hop after it, so its true earliest action is the
    chained fixpoint ``ea(V) = min(act(V), min over U != V of ea(U) +
    L)`` (closed form: relax every ``act`` against the global minimum
    plus ``L``).  Nothing ``V`` sends can arrive before ``ea(V) + L``,
    so ``W`` may run to ``grant(W) = grid_next(min over V != W of
    ea(V))`` without ever receiving a record in its executed past.
    Workers with no work below their grant are advanced
    silently — an empty window never touches the worker, so skipping
    the round trip is exactly equivalent.  The windows of *potential
    work* per grant are capped per worker, adaptively: the cap doubles
    after a grant with no inbound records and halves after one with
    some.  A phase that reaches :data:`HORIZON` raises.

    Returns ``{"results": [per-partition result dicts], "stats": RunStats,
    "transit": [per-partition Transit.stats_dict()], "clocks", "peaks"}``.
    """
    t_wall0 = time.perf_counter()
    stats = RunStats(backend=backend, n_partitions=pmap.n_partitions)
    rest = (phase_meta, stats)
    if backend == "mp":
        if fabric_latency is None:
            raise ValueError("mp backend needs fabric_latency for lookahead")
        out = _run_under_leader(pmap.n_partitions, builder, args,
                                pmap.lookahead(fabric_latency), *rest)
    elif backend in ("serial", "inproc"):
        pids = [None] if backend == "serial" else range(pmap.n_partitions)
        endpoints = [_LocalEndpoint(_Worker(builder(*args, local_pid=p)))
                     for p in pids]
        out = _coordinate(endpoints, endpoints[0].worker.transit.lookahead,
                          *rest)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    out["stats"].wall_s = time.perf_counter() - t_wall0
    return out


@collector_exempt()
def _coordinate(endpoints: List[Any], L: float, phase_meta,
                stats: RunStats) -> Dict[str, Any]:
    """The grant loop of :func:`run_partitioned` over ready endpoints
    (endpoint ``i`` drives partition ``i``); returns its result dict.
    Exempt once for the whole loop, like a forked worker's serve loop."""
    n = len(endpoints)
    INF = math.inf
    cap = [8] * n
    # Per-endpoint coordination state.  ``pos[i]`` is the grant frontier:
    # endpoint i has executed every event below it and nothing at/after.
    pos = [0.0] * n
    nev: List[Optional[float]] = [None] * n
    done = [True] * n
    done_t = [0.0] * n
    # Records generated in one grant, injected with the receiver's next.
    pending: Dict[int, List[tuple]] = {i: [] for i in range(n)}
    pending_min = [INF] * n     # earliest arrival among pending[i]

    def absorb(i: int, reply: tuple) -> None:
        _tag, next_t, dn, dt, stop_t, wexec, out = reply
        nev[i] = next_t
        done[i] = dn
        done_t[i] = dt
        if stop_t is not None:
            pos[i] = stop_t
        stats.windows_executed += wexec
        for dst_pid, recs in out.items():
            dst = dst_pid if n > 1 else 0
            pending[dst].extend(recs)
            pending_min[dst] = min(pending_min[dst], min(r[0] for r in recs))
            stats.records_shipped += len(recs)

    def act(i: int) -> float:
        """Earliest instant endpoint i could possibly execute anything."""
        a = nev[i]
        first = pending_min[i]
        return first if a is None or first < a else a

    t_cursor = 0.0
    for idx, (kind, until_t) in enumerate(phase_meta):
        t_phase0 = time.perf_counter()
        t_phase_start = t_cursor
        rounds0 = stats.barriers
        for ep in endpoints:
            ep.post(("phase", idx, t_cursor))
        for i, ep in enumerate(endpoints):
            absorb(i, ep.wait())
        for i in range(n):
            pos[i] = t_cursor
        if kind == "call":
            stats.phase_log.append({
                "kind": kind, "t_start": round(t_phase_start, 9),
                "t_end": round(t_cursor, 9), "rounds": 0,
                "wall_s": round(time.perf_counter() - t_phase0, 3),
            })
            continue
        if kind == "until":
            target: Optional[float] = max(_grid_ceil(until_t, L), t_cursor)
        elif kind == "procs":
            target = None   # set once every local process completed
        else:
            raise ValueError(f"unknown phase kind {kind!r}")
        while True:
            acts = [act(i) for i in range(n)]
            t_min = min(acts)
            if target is None:
                if all(done):
                    # Phase-end barrier: drain every partition to the
                    # grid point above the last completion, so each
                    # backend enters the next phase having executed
                    # exactly the events below it.
                    target = _grid_next(max(done_t), L)
                    continue
            elif t_min >= target:
                t_cursor = target
                break
            if t_min == INF:
                raise RuntimeError(
                    f"phase {idx}: processes pending but no events "
                    "in any partition (deadlock)")
            if t_min > HORIZON:
                raise RuntimeError(
                    f"phase {idx}: exceeded horizon {HORIZON}s")
            # Earliest possible *action* per endpoint, chained
            # through the cut: a worker with no imminent event can
            # still react to the earliest actor's sends one lookahead
            # hop later, so ``ea(V) = min(act(V), min over U != V of
            # ea(U) + L)``.  The fixpoint closes after one relaxation
            # against the global minimum (longer chains only add more
            # ``L``), and bounding grants by it is what keeps a
            # request->reply chain from landing a record inside a
            # span the requester was already granted.
            bound = t_min + L
            ea = [a if a <= bound else bound for a in acts]
            lo1 = lo2 = INF
            lo1i = -1
            for i, e in enumerate(ea):
                if e < lo1:
                    lo2 = lo1
                    lo1 = e
                    lo1i = i
                elif e < lo2:
                    lo2 = e
            contact: List[Tuple[int, float]] = []
            for i in range(n):
                if n > 1:
                    ob = lo2 if i == lo1i else lo1
                else:
                    ob = INF
                a_i = acts[i]
                if ob == INF:
                    g = INF
                else:
                    g = _grid_next(ob, L)
                # Cap the windows of potential work (from the first
                # thing i could do) per grant, in grid units.
                if a_i < INF:
                    base = max(round(pos[i] / L), math.floor(a_i / L))
                    lim = (base + cap[i]) * L
                    if g > lim:
                        g = lim
                elif g == INF:
                    continue    # nothing to do, nothing to bound
                if target is not None and g > target:
                    g = target
                t_send = g if g > pos[i] else pos[i]
                if a_i < t_send:
                    contact.append((i, t_send))
                elif t_send > pos[i]:
                    # No work below the grant: an empty window never
                    # touches the worker, so advance the frontier
                    # without the round trip.
                    pos[i] = t_send
            if not contact:
                # The earliest actor's grant reaches _grid_next(t_min) or
                # target (cap >= 1 and its peers act no earlier), so an
                # empty round means the grid arithmetic did not advance.
                raise RuntimeError(
                    f"phase {idx}: grant scheduler stalled at "
                    f"t_min={t_min!r} (coordinator bug)")
            t_b0 = time.perf_counter()
            for i, t_send in contact:
                # Never the live list: later absorbs must not reach
                # into a command an endpoint has yet to execute.
                inbound = pending[i] or None
                if inbound:
                    pending[i] = []
                    pending_min[i] = INF
                    if cap[i] > 1:
                        cap[i] >>= 1
                elif cap[i] < 4096:
                    cap[i] <<= 1
                stats.grants += 1
                stats.ipc_round_trips += endpoints[i].remote
                stats.windows += max(0, round((t_send - pos[i]) / L))
                endpoints[i].post(("win", t_send, inbound))
            for i, _t in contact:
                absorb(i, endpoints[i].wait())
            stats.barriers += 1
            stats.barrier_wall_s += time.perf_counter() - t_b0
        stats.phase_log.append({
            "kind": kind, "t_start": round(t_phase_start, 9),
            "t_end": round(t_cursor, 9),
            "rounds": stats.barriers - rounds0,
            "wall_s": round(time.perf_counter() - t_phase0, 3),
        })
    for ep in endpoints:
        ep.post(("result",))
    replies = [ep.wait() for ep in endpoints]

    stats.busy_wall_s = [r["busy_wall_s"] for r in replies]
    stats.events = [r["events"] for r in replies]
    if stats.grants:
        stats.windows_per_grant = round(stats.windows / stats.grants, 3)
    return {
        "results": [r["result"] for r in replies],
        "clocks": [r["clock"] for r in replies],
        "peaks": [r.get("peak_pending", 0) for r in replies],
        "transit": [r["transit"] for r in replies],
        "stats": stats,
    }
