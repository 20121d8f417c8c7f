"""Backend-backed work queue of the remote executor.

The queue is nothing but :class:`~repro.backends.base.StateBackend`
keys under a namespace - any storage both sides can reach (a shared
directory, a Redis) is a transport.  Key schema, all under
``<queue_key>/<epoch>``:

* ``meta`` - pickled ``{"config": ..., "num_shards": k, "dim": d}``;
  published **last** by the submitter, so a worker that sees it knows
  every shard's initial state entry already exists.
* ``chunk/<shard>/<seq>`` - one encoded chunk.  Per-shard sequence
  numbers make the queue a FIFO per shard (the executor-equivalence
  invariant) without any queue server: a worker simply asks for the
  next sequence it has not folded yet.
* ``lease/<shard>`` - the shard's ownership lease
  (:mod:`repro.backends.lease`).
* ``state/<shard>`` - pickled ``(consumed_seq, shard_state)``.  This is
  the **CAS fence**: a worker may only publish through
  ``compare_and_swap`` at the version it last wrote (or observed at
  adoption), so after a lease is stolen the previous holder's next
  publish conflicts and *nothing of it lands* - re-adoption is always
  all-or-nothing, never a torn merge.
* ``stop`` - presence tells idle workers to exit.
* ``error`` - a failed worker's traceback; the submitter's drain turns
  it into :class:`~repro.errors.ExecutorError`.

Each executor instance bumps ``<queue_key>/epoch`` and works under the
returned version, so a worker resurrected from a *previous* executor's
queue writes only to dead keys.

A chunk is encoded from its validated
:class:`~repro.core.chunk_geometry.ChunkGeometry`: a coordinate-row
chunk ships as its raw little-endian float64 rows (decoded to one array
the worker's replica validates and ingests without per-row coercion,
exactly like the shared-memory transport); a chunk with StreamPoint
items pickles them, keeping their arrival metadata.

Enforced by ``tests/test_remote_executor.py``.
"""

from __future__ import annotations

import pickle
import struct
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.backends.base import StateBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.chunk_geometry import ChunkGeometry

__all__ = ["RemoteQueue", "decode_chunk", "encode_chunk"]

#: Chunk payload header: magic + kind (``A`` array / ``P`` pickle).
_CHUNK_MAGIC = b"RQC1"
_ARRAY_HEADER = struct.Struct("<4scII")  # magic, kind, rows, dim


def encode_chunk(chunk: "ChunkGeometry") -> bytes:
    """A validated chunk as self-describing bytes: its float64 rows, or
    its pickled items when one is a StreamPoint."""
    if chunk.items is None:
        rows, dim = chunk.array.shape
        return (
            _ARRAY_HEADER.pack(_CHUNK_MAGIC, b"A", rows, dim)
            + chunk.array.astype("<f8", copy=False).tobytes()
        )
    return (
        _ARRAY_HEADER.pack(_CHUNK_MAGIC, b"P", 0, 0)
        + pickle.dumps(chunk.items, protocol=pickle.HIGHEST_PROTOCOL)
    )


def decode_chunk(data: bytes) -> tuple[str, Any]:
    """``("array", ndarray)`` or ``("pickle", list)`` back from bytes.

    The array is a read-only view of ``data``; ``process_many`` copies
    it into the chunk's own geometry.
    """
    magic, kind, rows, dim = _ARRAY_HEADER.unpack_from(data)
    if magic != _CHUNK_MAGIC:
        raise ValueError("not a remote-queue chunk payload")
    payload = data[_ARRAY_HEADER.size :]
    if kind == b"P":
        return "pickle", pickle.loads(payload)
    return "array", np.frombuffer(payload, dtype="<f8").reshape(rows, dim)


class RemoteQueue:
    """One executor epoch's view of the queue keys (see module docs)."""

    def __init__(
        self, backend: StateBackend, queue_key: str, epoch: int
    ) -> None:
        self.backend = backend
        self.queue_key = queue_key
        self.epoch = epoch
        self._prefix = f"{queue_key}/{epoch}"

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        backend: StateBackend,
        queue_key: str,
        *,
        config_state: dict[str, Any],
        dim: int,
        shard_states: list[dict[str, Any]],
    ) -> "RemoteQueue":
        """Submitter side: open a fresh epoch and seed it.

        Every shard's initial state entry is written *before* ``meta``,
        so meta's presence implies a worker can adopt any shard.
        """
        epoch = backend.put(f"{queue_key}/epoch", b"")
        queue = cls(backend, queue_key, epoch)
        queue.backend.put_many(
            (queue.state_key(shard), pickle.dumps((0, state)))
            for shard, state in enumerate(shard_states)
        )
        meta = {
            "config": config_state,
            "num_shards": len(shard_states),
            "dim": dim,
        }
        backend.put(queue.meta_key, pickle.dumps(meta))
        return queue

    @classmethod
    def open(
        cls, backend: StateBackend, queue_key: str
    ) -> "RemoteQueue | None":
        """Worker side: attach to the queue's current epoch (if any)."""
        found = backend.get_versioned(f"{queue_key}/epoch")
        if found is None:
            return None
        return cls(backend, queue_key, found[1])

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #

    @property
    def meta_key(self) -> str:
        return f"{self._prefix}/meta"

    def chunk_key(self, shard: int, seq: int) -> str:
        return f"{self._prefix}/chunk/{shard}/{seq}"

    def lease_key(self, shard: int) -> str:
        return f"{self._prefix}/lease/{shard}"

    def state_key(self, shard: int) -> str:
        return f"{self._prefix}/state/{shard}"

    @property
    def stop_key(self) -> str:
        return f"{self._prefix}/stop"

    @property
    def error_key(self) -> str:
        return f"{self._prefix}/error"

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    def meta(self) -> dict[str, Any] | None:
        data = self.backend.get(self.meta_key)
        return None if data is None else pickle.loads(data)

    def put_chunks(
        self, items: Iterable[tuple[int, int, bytes]]
    ) -> None:
        """Batch-enqueue ``(shard, seq, payload)`` chunks (group commit)."""
        self.backend.put_many(
            (self.chunk_key(shard, seq), payload)
            for shard, seq, payload in items
        )

    def get_chunk(self, shard: int, seq: int) -> bytes | None:
        return self.backend.get(self.chunk_key(shard, seq))

    def delete_chunk(self, shard: int, seq: int) -> None:
        self.backend.delete(self.chunk_key(shard, seq))

    def read_state(
        self, shard: int
    ) -> tuple[int, Any, int] | None:
        """``(consumed_seq, shard_state, version)``, or ``None``."""
        found = self.backend.get_versioned(self.state_key(shard))
        if found is None:
            return None
        data, version = found
        seq, state = pickle.loads(data)
        return seq, state, version

    def publish_state(
        self, shard: int, expected_version: int, seq: int, state: Any
    ) -> int:
        """CAS-fenced commit of a shard's folded progress.

        Raises :class:`~repro.errors.CASConflictError` (nothing
        applied) when someone re-adopted the shard since
        ``expected_version`` - the torn-merge guard.
        """
        return self.backend.compare_and_swap(
            self.state_key(shard),
            expected_version,
            pickle.dumps((seq, state), protocol=pickle.HIGHEST_PROTOCOL),
        )

    def request_stop(self) -> None:
        self.backend.put(self.stop_key, b"")

    def stop_requested(self) -> bool:
        return self.stop_key in self.backend

    def report_error(self, worker_id: str, text: str) -> None:
        self.backend.put(
            self.error_key, f"[worker {worker_id}]\n{text}".encode("utf-8")
        )

    def first_error(self) -> str | None:
        data = self.backend.get(self.error_key)
        return None if data is None else data.decode("utf-8", "replace")

    def purge(self) -> None:
        """Drop every key of this epoch (the owning executor's close)."""
        prefix = self._prefix + "/"
        for key in list(self.backend.keys()):
            if key.startswith(prefix):
                self.backend.delete(key)
