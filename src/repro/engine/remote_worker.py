"""Remote pipeline worker: the loop behind ``python -m repro.cli worker``.

The worker side of the remote executor (see
:class:`repro.engine.executors.RemoteShardExecutor`).  A worker holds no
socket to the submitter - everything flows through a shared
:class:`~repro.backends.base.StateBackend` (a directory both sides
mount, or a Redis both sides reach), so a worker can run on any
machine:

1. **Adopt**: claim a shard's lease by backend CAS
   (:func:`repro.backends.lease.acquire_lease` - create-only for fresh
   shards, stealing leases whose heartbeat went stale because their
   holder died).  Adoption reads the shard's committed
   ``(consumed_seq, state)`` entry and rebuilds a live replica from
   the protocol state, so a re-adopted shard resumes exactly where the
   last *committed* chunk left it.
2. **Pump**: fold the shard's chunks strictly in sequence order,
   committing ``(seq + 1, replica.to_state())`` after every chunk via
   the state entry's **CAS fence**.  A worker that lost its lease (or
   was SIGSTOPped across a steal) gets
   :class:`~repro.errors.CASConflictError` on its next commit and
   abandons the shard with *nothing applied* - the commit is
   all-or-nothing, so a resurrected stale worker can never tear a
   merge.
3. **Heartbeat**: every commit (and every idle pass) renews the lease
   beat; a dead or wedged worker stops beating and its shards are
   re-adopted after the ttl.

Failures while folding a chunk (a poisoned point) are reported through
the queue's error key - the submitter's drain raises
:class:`~repro.errors.ExecutorError`, same as the thread and process
executors - and the shard is held (heartbeating, not folding) so the
failure stays sticky instead of being retried by the next adopter.

Chaos-tested by ``tests/test_remote_executor.py``: SIGKILL/SIGSTOP
mid-stream, lease steals, stale-worker resurrection.
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.backends.base import StateBackend
from repro.backends.lease import (
    Lease,
    acquire_lease,
    release_lease,
    renew_lease,
)
from repro.engine.queue import RemoteQueue, decode_chunk
from repro.errors import CASConflictError

__all__ = ["run_worker"]


@dataclass
class _Owned:
    """A shard this worker currently holds: replica + fence versions."""

    shard: int
    replica: Any
    seq: int  #: next chunk sequence to fold
    state_version: int  #: backend version of the last committed state
    lease: Lease
    poisoned: bool = field(default=False)


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _renew(
    queue: RemoteQueue,
    owned: dict[int, _Owned],
    entry: _Owned,
    stats: dict[str, int],
) -> bool:
    """Heartbeat ``entry``; drop it (returning False) if the lease is lost."""
    try:
        entry.lease = renew_lease(queue.backend, entry.lease)
        return True
    except CASConflictError:
        owned.pop(entry.shard, None)
        stats["leases_lost"] += 1
        return False


def _try_adopt(
    queue: RemoteQueue,
    shard: int,
    worker_id: str,
    lease_ttl: float,
    config: Any,
    stats: dict[str, int],
) -> _Owned | None:
    from repro.core.infinite_window import RobustL0SamplerIW

    lease = acquire_lease(
        queue.backend, queue.lease_key(shard), worker_id, ttl=lease_ttl
    )
    if lease is None:
        return None
    found = queue.read_state(shard)
    if found is None:  # pragma: no cover - meta implies states exist
        return None
    seq, state, version = found
    stats["adoptions"] += 1
    return _Owned(
        shard=shard,
        replica=RobustL0SamplerIW.from_state(state, config=config),
        seq=seq,
        state_version=version,
        lease=lease,
    )


def _pump(
    queue: RemoteQueue,
    owned: dict[int, _Owned],
    entry: _Owned,
    worker_id: str,
    lease_ttl: float,
    stats: dict[str, int],
) -> bool:
    """Fold every available chunk of one owned shard; returns progress."""
    if entry.poisoned:
        # Hold the shard (sticky failure) but keep beating so nobody
        # re-adopts it and retries the poisoned chunk.
        _renew(queue, owned, entry, stats)
        return False
    progressed = False
    while True:
        payload = queue.get_chunk(entry.shard, entry.seq)
        if payload is None:
            break
        try:
            entry.replica.process_many(decode_chunk(payload)[1])
        except BaseException:
            stats["errors"] += 1
            queue.report_error(worker_id, traceback.format_exc())
            entry.poisoned = True
            return progressed
        consumed = entry.seq + 1
        try:
            # The CAS fence: all-or-nothing against any re-adopter.
            entry.state_version = queue.publish_state(
                entry.shard,
                entry.state_version,
                consumed,
                entry.replica.to_state(),
            )
        except CASConflictError:
            # Fenced out (the lease was stolen while we were stopped or
            # slow): the shard's committed state is someone else's now
            # and nothing of ours landed.  Abandon the replica wholesale.
            owned.pop(entry.shard, None)
            stats["cas_rejections"] += 1
            stats["leases_lost"] += 1
            return progressed
        entry.seq = consumed
        # A committed chunk is dead weight: the state entry supersedes
        # it (re-adoption resumes from consumed_seq, never replays it).
        queue.delete_chunk(entry.shard, consumed - 1)
        stats["chunks"] += 1
        progressed = True
        if not _renew(queue, owned, entry, stats):
            return progressed
    # Idle on this shard.  If the committed state moved without us, we
    # were fenced out between polls - drop the stale replica; otherwise
    # keep the heartbeat fresh.
    found = queue.read_state(entry.shard)
    if found is not None and found[2] != entry.state_version:
        owned.pop(entry.shard, None)
        stats["leases_lost"] += 1
        return progressed
    if time.time() - entry.lease.beat > lease_ttl / 3.0:
        _renew(queue, owned, entry, stats)
    return progressed


def run_worker(
    backend: StateBackend,
    queue_key: str,
    *,
    worker_id: str | None = None,
    lease_ttl: float = 5.0,
    poll_interval: float = 0.05,
    stop_event: Any | None = None,
    max_idle: float | None = None,
) -> dict[str, int]:
    """Serve a queue until stopped; returns this worker's counters.

    Runs in a thread for the executor's built-in local workers
    (``stop_event`` set on close) and as the whole process for
    ``python -m repro.cli worker``.  ``max_idle`` bounds how
    long the worker lingers with no queue, no work and no stop request
    (``None``: forever - daemon mode, serving successive epochs).
    """
    from repro.core import serialize

    worker_id = worker_id or _default_worker_id()
    stats = {
        "chunks": 0,
        "adoptions": 0,
        "leases_lost": 0,
        "cas_rejections": 0,
        "errors": 0,
    }
    owned: dict[int, _Owned] = {}
    queue: RemoteQueue | None = None
    config: Any = None
    num_shards = 0
    idle_start = time.monotonic()

    def stopping() -> bool:
        return stop_event is not None and stop_event.is_set()

    try:
        while not stopping():
            latest = RemoteQueue.open(backend, queue_key)
            if latest is None or (
                queue is not None and latest.epoch != queue.epoch
            ):
                owned.clear()
                queue, config = None, None
            if latest is None:
                if max_idle is not None and (
                    time.monotonic() - idle_start > max_idle
                ):
                    break
                time.sleep(poll_interval)
                continue
            if queue is None:
                queue = latest
            if config is None:
                meta = queue.meta()
                if meta is None:
                    # Epoch not seeded yet - or purged by its executor's
                    # close; either way there is nothing to adopt.
                    if max_idle is not None and (
                        time.monotonic() - idle_start > max_idle
                    ):
                        break
                    time.sleep(poll_interval)
                    continue
                config = serialize.config_from_state(meta["config"])
                num_shards = int(meta["num_shards"])
            progressed = False
            for shard in range(num_shards):
                if stopping():
                    break
                entry = owned.get(shard)
                if entry is None:
                    entry = _try_adopt(
                        queue, shard, worker_id, lease_ttl, config, stats
                    )
                    if entry is None:
                        continue
                    owned[shard] = entry
                progressed = (
                    _pump(queue, owned, entry, worker_id, lease_ttl, stats)
                    or progressed
                )
            if progressed:
                idle_start = time.monotonic()
                continue
            if queue.stop_requested():
                break
            if queue.meta() is None:
                # The epoch dissolved (executor closed and purged it).
                owned.clear()
                queue, config = None, None
                continue
            if max_idle is not None and (
                time.monotonic() - idle_start > max_idle
            ):
                break
            time.sleep(poll_interval)
    finally:
        # Hand shards back marked instantly stale, so a successor
        # adopts them without waiting out the ttl.
        for entry in list(owned.values()):
            release_lease(backend, entry.lease)
        owned.clear()
    return stats
