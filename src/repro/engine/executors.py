"""Pluggable shard executors: serial, process and remote.

A :class:`~repro.engine.pipeline.BatchPipeline` deals chunks round-robin
across the shards of a
:class:`~repro.distributed.coordinator.DistributedRobustSampler`.  Until
this layer existed every chunk ran serially in the calling process; a
:class:`ShardExecutor` makes the *where* of that work pluggable while
keeping the *what* bit-identical:

* :class:`SerialShardExecutor` - today's behaviour (the default): every
  chunk is ingested synchronously into the coordinator's own shard
  objects.
* :class:`ProcessShardExecutor` - worker processes holding
  spec-constructed *shard replicas* (rebuilt from the shards' protocol
  states plus the shared :class:`~repro.core.base.SamplerConfig`).
  Chunks travel over a **zero-copy shared-memory transport**: the
  scheduler memcpys the validated chunk's own float64 array into a
  pooled :mod:`multiprocessing.shared_memory` slot at dispatch and
  enqueues only a small descriptor ``(slot, segment name, rows, dim)``;
  the owning worker reconstructs the array pickle-free and hands it to
  the replica's ``process_many``, which validates it again and
  rebuilds the chunk's geometry from it in one vectorised pass - no
  per-row coercion on either side - and reports the completion and the
  slot to recycle as one small ``("done", worker, slot)`` message.
  Chunks the array cannot carry (StreamPoints, whose arrival metadata
  it loses) pickle their items instead.  On
  :meth:`~ShardExecutor.drain` each worker returns its shards' protocol
  states **batched in one pickled message**, which the submitter
  decodes once into plain dicts; the coordinator parks them, a query
  merges their record columns, and shard objects are rebuilt only when
  a read needs them.
* :class:`RemoteShardExecutor` - workers that may live on **other
  machines**, coupled to the submitter only through a shared
  :class:`~repro.backends.base.StateBackend` (a mounted directory, a
  Redis).  Chunks are enqueued as sequenced backend entries (group
  committed via ``put_many``), workers lease shards through backend
  CAS with heartbeat renewal (:mod:`repro.backends.lease`) and commit
  each folded chunk through a per-shard **CAS fence**, so a killed
  worker's shards are re-adopted from their last committed state and a
  resurrected stale worker loses wholly - see
  :mod:`repro.engine.queue` / :mod:`repro.engine.remote_worker` and
  ``docs/ARCHITECTURE.md`` §Remote workers.  Chaos-tested by
  ``tests/test_remote_executor.py``.

Scheduling
----------

The process executor keeps its backlog at the submitter: each worker has
at most :data:`_DISPATCH_DEPTH` chunks in flight, the rest queue in
per-shard FIFOs on the submit side.  Shards are *adopted* lazily, on
their first chunk, by one of the executor's *lanes*, and ownership is
then fixed for the executor's lifetime.  The lanes are the worker
processes plus, when there are fewer workers than shards, the
submitting process itself.  A shard goes to the lane that owns the
fewest shards, ties going to the workers (the least loaded one
receives the shard's protocol state), so with a worker per shard the
submitter owns nothing.  The submitter lane ingests its shards' chunks
in-process, as the serial executor does: they wait in one FIFO in
submission order, at most the dispatch depth of them (a submit beyond
that ingests the oldest first), and :meth:`~ProcessShardExecutor.drain`
ingests the rest while the workers run theirs.  Those shards stay
current in the coordinator, so they are never shipped or parked.
Per-shard sequence numbers are carried on every worker chunk and
asserted worker-side, so per-shard FIFO order - the
executor-equivalence invariant - is machine-checked, and executor
choice stays state-unobservable.

The executor-equivalence contract
---------------------------------

Every executor must leave the pipeline ``state_fingerprint``-identical
to the serial one for the same dealt chunk sequence:

* chunks for the SAME shard are processed in submission order (a shard's
  state is a function of its own chunk sequence only);
* chunks for different shards may run in any interleaving (shards share
  no mutable state except the pure hash memo caches of their config);
* a drained executor's shard states round-trip through the protocol's
  ``to_state``/``from_state``, which is fingerprint-exact.

``tests/test_executors.py`` enforces the contract differentially
(serial vs process vs remote, including empty batches, single-shard
pipelines and mid-stream checkpoint/resume),
``tests/test_shm_transport.py`` covers the shared-memory lifecycle
(no leaked segments after close, worker crash or failure; the matrix
under a forced spawn context), and
``tests/test_property_equivalence.py`` hammers the contract with
Hypothesis-generated streams and chunk layouts.

Worker failures (a poisoned point, a dead process) surface as
:class:`~repro.errors.ExecutorError` at the next drain, carrying the
worker-side traceback - or the worker's exit code when it died without
reporting; a submitter-lane failure is reported the same way.  Drains
are time-bounded: a worker that stops making progress for
:data:`_DRAIN_STALL_SECONDS` fails the drain instead of hanging it.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import threading
import time
import traceback
import weakref
from collections import deque
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, ClassVar, Iterator

import numpy as np

from repro.errors import ExecutorError, ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.chunk_geometry import ChunkGeometry
    from repro.distributed.coordinator import DistributedRobustSampler

#: Registry of executor names accepted by
#: :class:`~repro.api.specs.PipelineSpec` and the CLI's ``--executor``.
EXECUTOR_NAMES = ("serial", "process", "remote")

#: How long (seconds) a drain waits between liveness checks on worker
#: processes before concluding one died without reporting.
_DRAIN_POLL_SECONDS = 1.0

#: Total seconds a drain tolerates with zero worker progress (no state,
#: ack or completion message) before failing.  Bounds the previously
#: unbounded poll loop: a worker that crashes between posting an error
#: and queue teardown - or simply hangs - fails the drain instead of
#: wedging it.
_DRAIN_STALL_SECONDS = 30.0

#: Maximum chunks in flight (dispatched, not yet completed) per worker
#: process.  The rest of the backlog stays in the submitter's per-shard
#: FIFOs.  The depth bounds the chunks a worker holds and, with them,
#: the shared-memory pool: it has ``workers x depth + slack`` slots.
_DISPATCH_DEPTH = 4

#: Dispatch depth used when there is exactly ONE worker.  It still
#: bounds the pool (``depth + slack`` slots) and the submitter lane's
#: backlog.  A deep pipeline lets the submitter pre-dispatch the
#: worker's whole backlog before its own lane ingests anything, so the
#: worker never waits for a refill while the submitter is busy with a
#: chunk.  Measured on 2 vCPUs, 10 alternating pairs each: on
#: ``bench_throughput``'s 1-worker stream (250k points, dim 2, 4 shards,
#: 4096-point chunks) depth 64 beat ``_DISPATCH_DEPTH`` in 8/10 pairs,
#: 1.66x vs 1.56x of serial (medians); on perfbench
#: ``highdim-pipeline`` (4 chunks per sync) it made no difference
#: (1.31M vs 1.32M pts/s).
_SINGLE_WORKER_DEPTH = 64

#: Owner id of the shards the submitting process ingests itself
#: (workers are ``0 .. num_workers - 1``).
_SUBMITTER = -1

#: Pool slack beyond the worst-case in-flight slot count.
_POOL_SLACK_SLOTS = 2

#: Smallest shared-memory segment allocated (bytes); segments grow
#: geometrically and are reused across chunks.
_MIN_SEGMENT_BYTES = 1 << 16

#: Chunks the remote executor buffers before group-committing them to
#: the backend in one ``put_many``.
_REMOTE_FLUSH_CHUNKS = 8

#: Seconds between the remote executor's drain polls of the backend,
#: also its local worker threads' idle poll interval.
_REMOTE_POLL_SECONDS = 0.02


class ShardExecutor:
    """Strategy interface for running shard ingestion work.

    Lifecycle: a pipeline creates its executor lazily on first ingestion,
    :meth:`submit`\\ s one chunk at a time, :meth:`drain`\\ s at every
    synchronisation point (checkpoint, query, merge) and :meth:`close`\\ s
    it when the pipeline is closed.
    """

    #: Name under which :func:`make_executor` builds this class.
    name: ClassVar[str] = ""

    def submit(self, shard_id: int, chunk: "ChunkGeometry") -> int | None:
        """Deliver one validated chunk to one shard.

        ``chunk`` is the :class:`~repro.core.chunk_geometry.ChunkGeometry`
        :func:`~repro.engine.batching.chunk_geometry_for` built; it owns
        its array and items, so the caller may reuse its batch buffer
        at once.  Returns the number of points ingested when the work
        happened synchronously, or ``None`` when it was queued (the
        caller then counts ``len(chunk)`` and must :meth:`drain` before
        reading any shard state).
        """
        raise NotImplementedError

    def drain(self) -> Iterator[tuple[int, Any]]:
        """Finish all queued work; yield the shard states it moved.

        Yields ``(shard_id, state)`` only for shards whose current state
        lives outside the coordinator, in no promised order; a shard
        not yielded is current in the coordinator's own shard object.
        ``state`` is the shard's protocol ``to_state()``, a plain dict.
        Raises :class:`~repro.errors.ExecutorError` if any worker
        failed; the pipeline then stays dirty.
        """
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """Transport/scheduling counters (empty for in-process executors).

        The process executor reports chunk counts per payload kind,
        bytes shipped through shared memory, the chunks its submitter
        lane ingested in-process (``inline_chunks``) and the total
        submit-side transport time - the numbers
        ``benchmarks/bench_throughput.py`` records per run.
        """
        return {}

    def close(self) -> None:
        """Release workers.  Idempotent; further submits are an error."""


class SerialShardExecutor(ShardExecutor):
    """Default executor: synchronous ingestion into the live shards."""

    name = "serial"

    def __init__(self, coordinator: "DistributedRobustSampler") -> None:
        self._coordinator = coordinator

    def submit(self, shard_id: int, chunk: "ChunkGeometry") -> int:
        return self._coordinator.route_many(chunk, shard_id)

    def drain(self) -> Iterator[tuple[int, Any]]:
        # Every chunk went straight into the coordinator's shards.
        return iter(())


def _resolve_workers(num_workers: int | None, num_shards: int) -> int:
    if num_workers is None:
        num_workers = num_shards
    if num_workers < 1:
        raise ParameterError(
            f"num_workers must be >= 1, got {num_workers}"
        )
    # More workers than shards would sit idle: shards are the unit of
    # parallelism (per-shard order is part of the equivalence contract).
    return min(num_workers, num_shards)


# --------------------------------------------------------------------- #
# the zero-copy shared-memory transport
# --------------------------------------------------------------------- #


def _try_unlink(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _unlink_segments(names: dict[int, str]) -> None:
    """Interpreter-exit backstop: unlink every pool segment by name."""
    for name in list(names.values()):
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        _try_unlink(segment)


class _ShmChunkPool:
    """Pooled ring of shared-memory segments for in-flight chunk arrays.

    The submitter acquires a free slot per dispatched chunk, memcpys the
    chunk's float64 array into it and ships only a descriptor; the
    consuming worker returns the slot with its ``"done"`` message.  Only
    dispatched chunks hold a slot - at most ``workers x depth`` - and
    the pool has that many plus slack, so :meth:`acquire` cannot run
    dry.
    Segments are created lazily, grown geometrically and reused (LIFO,
    so warm segments stay warm).  Every created segment is unlinked on
    :meth:`close` and, as a backstop, by a ``weakref.finalize`` at
    interpreter exit - no segment outlives the creating process
    (``tests/test_shm_transport.py`` proves it for close, worker crash
    and failure paths).
    """

    def __init__(self, num_slots: int) -> None:
        self._segments: list[shared_memory.SharedMemory | None] = (
            [None] * num_slots
        )
        self._free = list(range(num_slots))
        self._names: dict[int, str] = {}
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self._names
        )

    def segment_names(self) -> list[str]:
        """Names of every live segment (the lifecycle tests' probe)."""
        return list(self._names.values())

    def acquire(self, nbytes: int) -> tuple[int, shared_memory.SharedMemory]:
        """A free slot with capacity >= ``nbytes``."""
        slot = self._free.pop()
        segment = self._segments[slot]
        if segment is None or segment.size < nbytes:
            if segment is not None:
                segment.close()
                _try_unlink(segment)
            size = _MIN_SEGMENT_BYTES
            while size < nbytes:
                size *= 2
            segment = shared_memory.SharedMemory(create=True, size=size)
            self._segments[slot] = segment
            self._names[slot] = segment.name
        return slot, segment

    def release(self, slot: int) -> None:
        self._free.append(slot)

    def close(self) -> None:
        self._finalizer.detach()
        for segment in self._segments:
            if segment is not None:
                segment.close()
                _try_unlink(segment)
        self._segments = []
        self._free = []
        self._names.clear()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    CPython's shared_memory registers with the resource tracker on
    attach, not only on create.  Workers share the submitter's tracker
    (fork AND spawn children inherit its fd), so an attach-side
    registration is at best a duplicate of the submitter's and at worst
    a *revival*: it races the submitter's unlink-time unregister and
    can recreate the entry after the segment is gone, making the
    tracker warn at exit.  The submitter's create-time registration is
    the single leak backstop; suppress registration for the attach.
    (Worker loops are single-threaded, so the swap cannot be observed
    concurrently; Python 3.13+ would spell this ``track=False``.)
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class _Channel:
    """One-direction message channel built directly on a pipe.

    ``multiprocessing.Queue`` runs a feeder thread in every writing
    process: each ``put`` is a lock + buffer append + condition notify,
    and the pipe write happens on a different thread - at chunk
    granularity the per-ack thread-switch churn (in the submitter *and*
    in every worker) is a measurable slice of the transport's cost.
    The executor needs none of it: ``put`` pickles and writes inline
    (one syscall for a descriptor-sized message), ``get`` polls the
    read end.  A channel with several writing processes (the workers'
    shared result channel) serialises sends with a process-shared
    lock; single-writer channels (each worker's task channel) skip
    even that.  Flow control is the pipe buffer itself: a ``put``
    blocks once the reader falls a pipe-buffer behind, which only the
    oversized pickle-fallback payloads can reach.  Descriptor traffic
    is bounded by the dispatch depth, and so are the workers' unread
    ``"done"`` messages - at most ``workers x depth`` of them: a worker
    only receives a chunk after the submitter has read the completion
    that made room for it, so completions cannot fill the result pipe.
    """

    def __init__(self, context, *, writers: int) -> None:
        self._reader, self._writer = context.Pipe(duplex=False)
        self._lock = context.Lock() if writers > 1 else None

    def put(self, message) -> None:
        if self._lock is None:
            self._writer.send(message)
        else:
            with self._lock:
                self._writer.send(message)

    def get(self, timeout: float | None = None):
        """Next message; blocks forever when ``timeout`` is ``None``,
        else raises :class:`queue.Empty` after ``timeout`` seconds."""
        if timeout is not None and not self._reader.poll(timeout):
            raise queue_module.Empty
        return self._reader.recv()

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


def _transport_worker(worker_id, task_queue, result_queue, config_state):
    """Worker-process loop of the zero-copy transport.

    Owns the shard replicas the scheduler ``adopt``\\ s - shipping each
    shard's protocol state before the shard's first chunk.  Chunk
    payloads arrive as shared-memory descriptors (``"shm"``) or pickled
    items (``"pickle"``); the replica's ``process_many`` takes either
    and validates it again, the array without per-row coercion (its
    geometry copies the array, so nothing pins the segment).  Per-shard
    sequence numbers are asserted on every chunk - the machine check of
    per-shard FIFO order.  Every chunk is answered
    with one ``("done", worker_id, slot)`` message (``slot`` is
    ``None`` for a pickled chunk).  On ``drain`` the worker ships all
    owned shards' states batched in one message; failures are sticky
    and reported there (chunks after a failure are swallowed, but each
    still gets its ``"done"`` so the submitter's pool cannot starve).
    """
    from repro.core import serialize
    from repro.core.infinite_window import RobustL0SamplerIW

    config = serialize.config_from_state(config_state)
    shards: dict[int, Any] = {}
    next_seq: dict[int, int] = {}
    attachments: dict[int, shared_memory.SharedMemory] = {}
    failure: str | None = None

    def attach(slot: int, name: str) -> shared_memory.SharedMemory:
        cached = attachments.get(slot)
        if cached is not None and cached.name == name:
            return cached
        if cached is not None:  # the submitter grew this slot's segment
            cached.close()
        segment = _attach_untracked(name)
        attachments[slot] = segment
        return segment

    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "chunk":
            shard_id, seq, payload = message[1], message[2], message[3]
            slot = payload[1] if payload[0] == "shm" else None
            # A poisoned worker swallows work until drain reports it.
            if failure is None:
                try:
                    expected = next_seq.get(shard_id)
                    if seq != expected:
                        raise RuntimeError(
                            f"shard {shard_id} chunk out of order: got "
                            f"sequence {seq}, expected {expected}"
                        )
                    if payload[0] == "shm":
                        segment = attach(slot, payload[2])
                        rows, dim = payload[3], payload[4]
                        view = np.frombuffer(
                            segment.buf, dtype=np.float64, count=rows * dim
                        ).reshape(rows, dim)
                        try:
                            shards[shard_id].process_many(view)
                        finally:
                            # Everything derived is a copy; a rejected
                            # array must not pin the segment either.
                            del view
                    else:  # "pickle"
                        shards[shard_id].process_many(payload[1])
                    next_seq[shard_id] = seq + 1
                except BaseException:
                    failure = traceback.format_exc()
            # Poisoned or not, one message per chunk carries both the
            # completion and the slot to recycle: the pool has a slot
            # for every chunk that can be in flight plus slack, so
            # holding the slot for the chunk's processing (instead of an
            # early free) can never starve the submitter.
            result_queue.put(("done", worker_id, slot))
        elif kind == "adopt":
            try:
                shards[message[1]] = RobustL0SamplerIW.from_state(
                    message[2], config=config
                )
                next_seq[message[1]] = message[3]
            except BaseException:
                failure = traceback.format_exc()
        elif kind == "drain":
            token = message[1]
            if failure is not None:
                result_queue.put(("error", token, worker_id, failure))
            else:
                try:
                    # One pickle for all owned shards, made here so a
                    # state that cannot pickle is reported, not fatal.
                    states = [
                        (shard_id, shard.to_state())
                        for shard_id, shard in shards.items()
                    ]
                    blob = pickle.dumps(
                        states, protocol=pickle.HIGHEST_PROTOCOL
                    )
                except BaseException:
                    failure = traceback.format_exc()
                    result_queue.put(("error", token, worker_id, failure))
                else:
                    result_queue.put(("states", token, worker_id, blob))
        else:  # "stop"
            for segment in attachments.values():
                segment.close()
            return


def _mp_context():
    """Prefer fork (cheap, inherits the warmed-up interpreter); every
    payload is picklable, so spawn-only platforms work too."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ProcessShardExecutor(ShardExecutor):
    """Worker processes fed through the zero-copy shared-memory transport.

    ``num_workers`` counts the worker processes besides the submitter.
    The coordinator's shard objects become *stale* once a worker adopts
    them; every read must go through :meth:`drain`, which returns the
    adopted shards' states (one batched message per worker).  With
    fewer workers than shards the submitter is one more lane: the
    shards it adopts stay live in the coordinator (see "Scheduling" in
    the module docstring).

    A chunk's float64 array ships through pooled shared-memory
    segments, written at dispatch; a chunk with StreamPoint items ships
    its pickled items.
    """

    name = "process"

    def __init__(
        self,
        coordinator: "DistributedRobustSampler",
        *,
        num_workers: int | None = None,
    ) -> None:
        from repro.core import serialize

        self._coordinator = coordinator
        self._num_shards = coordinator.num_shards
        self._num_workers = _resolve_workers(num_workers, self._num_shards)
        self._closed = False
        self._token = 0
        self._failure: str | None = None
        # Scheduler state: per-shard FIFO backlogs live here, workers
        # hold at most _DISPATCH_DEPTH chunks each.  The submitter
        # lane's backlog is one FIFO of (shard, chunk) in submission
        # order.
        self._pending: dict[int, deque] = {}
        self._inline: deque = deque()
        self._owner: dict[int, int] = {}
        self._seq = [0] * self._num_shards
        self._inflight = [0] * self._num_workers
        # A single worker's pipeline may be deep: the whole backlog
        # pre-dispatches and the worker never waits on the submitter.
        self._depth = (
            _DISPATCH_DEPTH
            if self._num_workers > 1
            else max(_DISPATCH_DEPTH, _SINGLE_WORKER_DEPTH)
        )
        self._stats: dict[str, Any] = {
            "chunks": 0,
            "shm_chunks": 0,
            "pickle_chunks": 0,
            "shm_bytes": 0,
            "inline_chunks": 0,
            "submit_seconds": 0.0,
        }
        pool_slots = self._num_workers * self._depth + _POOL_SLACK_SLOTS
        self._pool = _ShmChunkPool(pool_slots)
        context = _mp_context()
        self._result_queue = _Channel(context, writers=self._num_workers)
        self._task_queues = []
        self._workers = []
        config_state = serialize.config_to_state(coordinator.config)
        for index in range(self._num_workers):
            tasks = _Channel(context, writers=1)
            worker = context.Process(
                target=_transport_worker,
                args=(index, tasks, self._result_queue, config_state),
                name=f"repro-shard-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._task_queues.append(tasks)
            self._workers.append(worker)

    # ------------------------------------------------------------------ #
    # submit side
    # ------------------------------------------------------------------ #

    def submit(self, shard_id: int, chunk: "ChunkGeometry") -> None:
        if self._closed:
            raise ExecutorError("executor is closed")
        start = time.perf_counter()
        seq = self._seq[shard_id]
        self._seq[shard_id] = seq + 1
        self._poll_results()
        owner = self._owner.get(shard_id)
        if owner is None:
            owner = self._adopt(shard_id, seq)
        if owner == _SUBMITTER:
            self._inline.append((shard_id, chunk))
        else:
            # Worker backlog entries are the chunk's own float64 array
            # (written into a shared-memory slot at dispatch) or a
            # ready pickle payload of its StreamPoint items.
            if chunk.items is None:
                payload = chunk.array
            else:
                payload = ("pickle", chunk.items)
                self._stats["pickle_chunks"] += 1
            self._pending.setdefault(shard_id, deque()).append(
                (seq, payload)
            )
        self._pump()
        self._stats["chunks"] += 1
        # Transport and scheduling time only: the submitter lane's own
        # ingest is shard work, counted by inline_chunks.
        self._stats["submit_seconds"] += time.perf_counter() - start
        if len(self._inline) > self._depth:
            self._ingest_inline()
        return None

    def _ingest_inline(self) -> None:
        """Ingest the submitter lane's oldest chunk into its live shard.

        A failure is sticky, like a worker's: it is reported at the
        next drain, and the lane swallows its chunks until then.
        """
        shard_id, chunk = self._inline.popleft()
        if self._failure is not None:
            return
        try:
            self._coordinator.route_many(chunk, shard_id)
        except Exception:
            self._failure = (
                f"submitter lane failed on shard {shard_id}:\n"
                + traceback.format_exc()
            )
        self._stats["inline_chunks"] += 1

    def _write_shm(self, array) -> tuple:
        """Copy ``array`` into a pooled slot -> its descriptor."""
        slot, segment = self._pool.acquire(array.nbytes)
        rows, dim = array.shape
        target = np.frombuffer(
            segment.buf, dtype=np.float64, count=rows * dim
        ).reshape(rows, dim)
        np.copyto(target, array)
        del target  # keep the segment's buffer unexported
        self._stats["shm_chunks"] += 1
        self._stats["shm_bytes"] += array.nbytes
        return ("shm", slot, segment.name, rows, dim)

    def _owned_count(self, worker: int) -> int:
        return sum(1 for owner in self._owner.values() if owner == worker)

    def _adopt(self, shard_id: int, seq: int) -> int:
        """Assign an unowned shard, whose next chunk is ``seq``, to a lane.

        The lane owning the fewest shards wins, ties going to the
        workers, and among the workers the least loaded one.  A worker
        receives the coordinator's shard state with the adoption
        (current, because a shard's chunks only ever reach its owner,
        and ownership is fixed from then on), plus ``seq``, arming the
        worker-side FIFO check.  The submitter ingests into the
        coordinator's shard itself, so nothing ships.
        """
        owned = [self._owned_count(w) for w in range(self._num_workers)]
        if self._owned_count(_SUBMITTER) < min(owned):
            self._owner[shard_id] = _SUBMITTER
            return _SUBMITTER
        worker = min(
            range(self._num_workers),
            key=lambda w: (self._inflight[w], owned[w], w),
        )
        state = self._coordinator.shard(shard_id).to_state()
        self._task_queues[worker].put(("adopt", shard_id, state, seq))
        self._owner[shard_id] = worker
        return worker

    def _pump(self) -> None:
        """Dispatch pending chunks up to each worker's depth limit."""
        for shard_id, backlog in self._pending.items():
            if not backlog:
                continue
            worker = self._owner[shard_id]
            tasks = self._task_queues[worker]
            while backlog and self._inflight[worker] < self._depth:
                seq, payload = backlog.popleft()
                if isinstance(payload, np.ndarray):
                    payload = self._write_shm(payload)
                tasks.put(("chunk", shard_id, seq, payload))
                self._inflight[worker] += 1

    # ------------------------------------------------------------------ #
    # result plumbing
    # ------------------------------------------------------------------ #

    def _handle_async(self, message) -> None:
        """Absorb a worker message that is not a drain-level response."""
        kind = message[0]
        if kind == "done":
            self._inflight[message[1]] -= 1
            if message[2] is not None:
                self._pool.release(message[2])
        elif kind == "error":
            self._failure = "shard worker failed:\n" + message[3]
        # A "states" report here is stale (an interrupted drain's): drop it.

    def _poll_results(self, timeout: float = 0.0) -> bool:
        """Absorb every ready worker message; return whether any arrived.

        ``timeout`` bounds the wait for the first message only.
        """
        progress = False
        while True:
            try:
                message = self._result_queue.get(
                    timeout=0.0 if progress else timeout
                )
            except queue_module.Empty:
                return progress
            progress = True
            self._handle_async(message)

    def _check_liveness(self) -> None:
        dead = [
            (worker.name, worker.exitcode)
            for worker in self._workers
            if not worker.is_alive()
        ]
        if dead:
            raise ExecutorError(
                "shard worker process(es) died without reporting: "
                + ", ".join(
                    f"{name} (exit code {code})" for name, code in dead
                )
            )

    def _raise_failure(self) -> None:
        raise ExecutorError(self._failure)

    # ------------------------------------------------------------------ #
    # drain / close
    # ------------------------------------------------------------------ #

    def drain(self) -> Iterator[tuple[int, Any]]:
        if self._closed:
            raise ExecutorError("executor is closed")
        if self._failure is not None:
            self._raise_failure()
        # Phase 0: the submitter lane ingests its backlog, in
        # submission order, while the workers run theirs; between
        # chunks it recycles completions and refills the workers.
        self._pump()
        while self._inline:
            self._ingest_inline()
            self._poll_results()
            self._pump()
        if self._failure is not None:
            self._raise_failure()
        # Phase 1: flush the workers' submitter-side backlog.  Dispatch
        # as depth frees up; progress is bounded - a worker that stops
        # acknowledging for _DRAIN_STALL_SECONDS (or dies) fails the
        # drain instead of hanging it.
        last_progress = time.monotonic()
        while any(self._pending.values()):
            self._pump()
            if self._failure is not None:
                self._raise_failure()
            if self._poll_results(timeout=_DRAIN_POLL_SECONDS):
                last_progress = time.monotonic()
            else:
                self._check_liveness()
                if time.monotonic() - last_progress > _DRAIN_STALL_SECONDS:
                    queued = sum(
                        len(backlog) for backlog in self._pending.values()
                    )
                    raise ExecutorError(
                        "drain stalled: no worker progress for "
                        f"{_DRAIN_STALL_SECONDS:.0f}s with {queued} "
                        "chunk(s) still queued"
                    )
        # Phase 2: barrier.  Workers report their owned shards' states
        # batched in one message each; shards no worker adopted are
        # current in the coordinator and are not reported.
        self._token += 1
        token = self._token
        for tasks in self._task_queues:
            tasks.put(("drain", token))
        remaining = self._num_workers
        last_progress = time.monotonic()
        while remaining:
            try:
                message = self._result_queue.get(
                    timeout=_DRAIN_POLL_SECONDS
                )
            except queue_module.Empty:
                self._check_liveness()
                if time.monotonic() - last_progress > _DRAIN_STALL_SECONDS:
                    raise ExecutorError(
                        "drain stalled: worker process(es) unresponsive "
                        f"for {_DRAIN_STALL_SECONDS:.0f}s"
                    ) from None
                continue
            last_progress = time.monotonic()
            kind = message[0]
            if kind == "done":
                # In-flight chunks completing ahead of the barrier
                # response.
                self._handle_async(message)
            elif kind == "states":
                if message[1] != token:
                    continue  # stale report from an interrupted drain
                remaining -= 1
                yield from pickle.loads(message[3])
            else:  # "error"
                self._failure = "shard worker failed:\n" + message[3]
                self._raise_failure()

    def stats(self) -> dict[str, Any]:
        return dict(self._stats)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for tasks in self._task_queues:
            try:
                tasks.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
        for worker in self._workers:
            worker.join(timeout=5.0)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=5.0)
        self._result_queue.close()
        for tasks in self._task_queues:
            tasks.close()
        self._pool.close()


class RemoteShardExecutor(ShardExecutor):
    """Shard work served by workers reachable only through a backend.

    The submitter side of the multi-machine pipeline: ``submit``
    encodes each validated chunk (:func:`repro.engine.queue.encode_chunk`
    - its raw float64 rows, or its pickled StreamPoint items) and
    group-commits it as a sequenced
    ``chunk/<shard>/<seq>`` backend entry
    (:meth:`~repro.backends.base.StateBackend.put_many`, amortising the
    file backend's per-put fsync).  Workers - local threads spawned
    here, or ``python -m repro.cli worker`` processes on any
    machine sharing the backend - lease shards via CAS, fold chunks in
    sequence order and commit ``(consumed_seq, state)`` entries through
    a per-shard CAS fence (see :mod:`repro.engine.queue`).  ``drain``
    polls those entries and yields each shard's plain protocol state
    the moment its consumed count reaches the submitted count (shards
    no chunk reached stay current in the coordinator) - so the
    executor is fingerprint-identical to serial by construction:
    per-shard FIFO is enforced by sequence numbers, and states
    round-trip through the protocol's exact ``to_state``/``from_state``.

    Crash story: a worker that dies stops heartbeating; after
    ``lease_ttl`` any other worker steals the lease and resumes from
    the shard's last *committed* state (chunks at or after it are still
    queued - a chunk is deleted only once committed).  A stale worker
    that resurrects mid-steal conflicts at the fence with nothing
    applied.  Worker-side failures (a poisoned point) surface here as
    :class:`~repro.errors.ExecutorError` at the next drain, sticky, like
    every other executor.

    Each instance claims a fresh queue *epoch* under ``queue_key``, so
    leftover workers of a previous executor cannot touch it; ``close``
    signals workers to stop, joins the local ones and purges the
    epoch's keys.
    """

    name = "remote"

    def __init__(
        self,
        coordinator: "DistributedRobustSampler",
        *,
        num_workers: int | None = None,
        backend: Any = None,
        queue_backend: str | None = None,
        queue_path: str | None = None,
        queue_url: str | None = None,
        queue_key: str | None = None,
        lease_ttl: float = 5.0,
    ) -> None:
        from repro.backends.base import make_backend
        from repro.core import serialize
        from repro.engine.queue import RemoteQueue
        from repro.engine.remote_worker import run_worker

        if lease_ttl <= 0:
            raise ParameterError(
                f"lease_ttl must be > 0, got {lease_ttl}"
            )
        self._coordinator = coordinator
        if backend is not None:
            self._backend = backend
            self._owns_backend = False
        else:
            self._backend = make_backend(
                queue_backend or "memory",
                path=queue_path,
                url=queue_url,
            )
            self._owns_backend = True
        self._queue = RemoteQueue.create(
            self._backend,
            queue_key or "remote-queue",
            config_state=serialize.config_to_state(coordinator.config),
            dim=coordinator.config.dim,
            shard_states=[
                coordinator.shard(index).to_state()
                for index in range(coordinator.num_shards)
            ],
        )
        self._submitted = [0] * coordinator.num_shards
        self._pending: list[tuple[int, int, bytes]] = []
        self._failure: str | None = None
        self._closed = False
        self._counters = {
            "chunks": 0,
            "array_chunks": 0,
            "pickle_chunks": 0,
            "bytes_out": 0,
            "flushes": 0,
        }
        # Local workers: the zero-configuration mode (and the fast path
        # of the test matrix).  num_workers=0 means every worker is an
        # external ``repro.cli worker`` process someone else launches.
        if num_workers is None:
            local = 1
        elif num_workers < 0:
            raise ParameterError(
                f"num_workers must be >= 0, got {num_workers}"
            )
        else:
            local = min(num_workers, coordinator.num_shards)
        self._stop_event = threading.Event()
        self._local_workers = [
            threading.Thread(
                target=run_worker,
                args=(self._backend, self._queue.queue_key),
                kwargs={
                    "worker_id": f"local-{index}",
                    "lease_ttl": lease_ttl,
                    "poll_interval": _REMOTE_POLL_SECONDS,
                    "stop_event": self._stop_event,
                },
                name=f"repro-remote-worker-{index}",
                daemon=True,
            )
            for index in range(local)
        ]
        for thread in self._local_workers:
            thread.start()

    def _flush(self) -> None:
        if not self._pending:
            return
        self._queue.put_chunks(self._pending)
        self._counters["flushes"] += 1
        self._pending.clear()

    def submit(self, shard_id: int, chunk: "ChunkGeometry") -> None:
        if self._closed:
            raise ExecutorError("executor is closed")
        from repro.engine.queue import encode_chunk

        payload = encode_chunk(chunk)
        seq = self._submitted[shard_id]
        self._submitted[shard_id] = seq + 1
        self._pending.append((shard_id, seq, payload))
        kind = "array_chunks" if payload[4:5] == b"A" else "pickle_chunks"
        self._counters[kind] += 1
        self._counters["chunks"] += 1
        self._counters["bytes_out"] += len(payload)
        if len(self._pending) >= _REMOTE_FLUSH_CHUNKS:
            self._flush()
        return None

    def drain(self) -> Iterator[tuple[int, Any]]:
        if self._failure is not None:
            raise ExecutorError(
                "remote worker failed:\n" + self._failure
            )
        self._flush()
        # A shard no chunk reached this epoch is current in the
        # coordinator: only the others are waited for and yielded.
        pending = {
            shard for shard, count in enumerate(self._submitted) if count
        }
        last_total = -1
        last_progress = time.monotonic()
        while pending:
            error = self._queue.first_error()
            if error is not None:
                self._failure = error
                raise ExecutorError("remote worker failed:\n" + error)
            total = 0
            settled: list[tuple[int, dict[str, Any]]] = []
            for shard in sorted(pending):
                found = self._queue.read_state(shard)
                if found is None:  # pragma: no cover - purged underfoot
                    continue
                seq, state, _version = found
                total += seq
                if seq >= self._submitted[shard]:
                    settled.append((shard, state))
            for shard, state in settled:
                pending.discard(shard)
                yield (shard, state)
            if not pending:
                return
            now = time.monotonic()
            if total > last_total:
                last_total = total
                last_progress = now
            elif now - last_progress > _DRAIN_STALL_SECONDS:
                raise ExecutorError(
                    "remote drain stalled: no shard progress for "
                    f"{_DRAIN_STALL_SECONDS:.0f}s (workers dead with no "
                    f"successor?); shards pending: {sorted(pending)}"
                )
            time.sleep(_REMOTE_POLL_SECONDS)

    def stats(self) -> dict[str, Any]:
        return {
            "executor": self.name,
            "backend": type(self._backend).__name__,
            "epoch": self._queue.epoch,
            "local_workers": len(self._local_workers),
            **self._counters,
            "backend_ops": self._backend.stats(),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._queue.request_stop()
        self._stop_event.set()
        for thread in self._local_workers:
            thread.join(timeout=5.0)
        self._queue.purge()
        self._pending.clear()
        if self._owns_backend:
            self._backend.close()


def make_executor(
    name: str,
    coordinator: "DistributedRobustSampler",
    *,
    num_workers: int | None = None,
    backend: Any = None,
    queue_backend: str | None = None,
    queue_path: str | None = None,
    queue_url: str | None = None,
    queue_key: str | None = None,
    lease_ttl: float = 5.0,
) -> ShardExecutor:
    """Build the executor registered under ``name``.

    ``num_workers`` sizes the process and remote executors;
    ``backend`` (an instance) or ``queue_backend``/``queue_path``/
    ``queue_url`` plus ``queue_key`` and ``lease_ttl`` configure the
    remote executor (see :class:`RemoteShardExecutor`), which the
    others ignore.

    >>> from repro.api.specs import L0InfiniteSpec
    >>> from repro.distributed.coordinator import DistributedRobustSampler
    >>> spec = L0InfiniteSpec(alpha=1.0, dim=1, seed=1)
    >>> coordinator = DistributedRobustSampler(spec, num_shards=2)
    >>> make_executor("serial", coordinator).name
    'serial'
    >>> make_executor("warp", coordinator)
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: unknown executor 'warp'; one of: serial, process, remote
    """
    if name == "serial":
        return SerialShardExecutor(coordinator)
    if name == "process":
        return ProcessShardExecutor(coordinator, num_workers=num_workers)
    if name == "remote":
        return RemoteShardExecutor(
            coordinator,
            num_workers=num_workers,
            backend=backend,
            queue_backend=queue_backend,
            queue_path=queue_path,
            queue_url=queue_url,
            queue_key=queue_key,
            lease_ttl=lease_ttl,
        )
    raise ParameterError(
        f"unknown executor {name!r}; one of: " + ", ".join(EXECUTOR_NAMES)
    )
