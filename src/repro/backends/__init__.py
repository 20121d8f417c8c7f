"""Pluggable state backends: versioned blobs with atomic CAS.

Where durable state lives once it leaves a summary object.  The
:class:`StateBackend` contract (``put``/``get``/``get_versioned``/
``delete``/``keys``/O(1) ``count`` plus atomic
``compare_and_swap(key, expected_version, data)``) is what the serving
layer's envelope spills (:mod:`repro.service.tenants`), checkpoint
persistence (:mod:`repro.persist`) and crash-safe resumable pipelines
(:mod:`repro.engine.resumable`) all sit on; three implementations ship:

* :class:`MemoryBackend` - a dict under a mutex (the default);
* :class:`FileBackend` - one fsynced, atomically renamed file per key,
  with cross-process ``flock`` CAS and stale-temp sweeping;
* :class:`RedisBackend` - shared storage with Lua-scripted CAS, gated
  behind the ``[redis]`` extra (importable without it; constructing
  raises :class:`~repro.errors.BackendUnavailableError`).

The two invariants every backend is tested against
(``tests/test_backends.py``): a reader always sees a **complete
old-or-new value** (never torn, wherever a writer was killed), and of
two racing ``compare_and_swap`` writers **exactly one wins** while the
loser gets :class:`~repro.errors.CASConflictError` with nothing
applied.  See ``docs/ARCHITECTURE.md`` §State backends.

Two batch/coordination extensions ride on the same contract:
``put_many`` (group commit - the file backend pays one directory fsync
per batch instead of per key) and :mod:`repro.backends.lease`
(CAS-backed shard leases with heartbeats, the claim protocol of the
remote pipeline workers).
"""

from repro.backends.base import BACKEND_NAMES, StateBackend, make_backend
from repro.backends.file import FileBackend, atomic_write_bytes
from repro.backends.lease import (
    Lease,
    acquire_lease,
    read_lease,
    release_lease,
    renew_lease,
)
from repro.backends.memory import MemoryBackend
from repro.backends.redis import HAVE_REDIS, RedisBackend

__all__ = [
    "BACKEND_NAMES",
    "HAVE_REDIS",
    "FileBackend",
    "Lease",
    "MemoryBackend",
    "RedisBackend",
    "StateBackend",
    "acquire_lease",
    "atomic_write_bytes",
    "make_backend",
    "read_lease",
    "release_lease",
    "renew_lease",
]
