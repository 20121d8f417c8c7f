"""Durable file-per-key state backend: fsync, atomic rename, flock CAS.

One file per key under a directory, written with the full
crash-safety discipline the :class:`~repro.backends.base.StateBackend`
contract demands:

* payloads land in a **per-call unique temp file**
  (``<name>.tmp.<pid>.<counter>``) in the same directory, so two
  processes writing the same key can never clobber each other's
  half-written temp;
* the temp is **flushed and fsynced before** ``os.replace`` and the
  **directory entry is fsynced after**, so after a power cut a reader
  finds either the complete old file or the complete new one - the
  rename itself is atomic, and neither side of it can be torn;
* stale ``*.tmp.*`` files (a writer died between write and rename) are
  **swept on init** - but only those whose embedded writer pid is gone,
  so opening a directory never deletes a live writer's in-flight temp;
* cross-process mutations serialise on an ``flock``\\ ed ``.lock`` file
  (plus an in-process mutex), which is what makes
  :meth:`~repro.backends.base.StateBackend.compare_and_swap`'s
  read-check-replace atomic between processes sharing the directory.

On-disk format: ``<hex(utf8(key))>.blob`` holding a 12-byte header
(magic ``RSB1`` + big-endian ``u64`` version) followed by the payload -
header and payload travel in one file, so version and data can never
disagree after a crash.  Legacy ``<hex>.json`` files (the pre-backend
file envelope-store layout: bare payload)
are still readable as version 1 and are upgraded on the next write.

``count()`` is served from a counter maintained under the lock (O(1),
no ``listdir``), initialised by one scan at construction; it tracks
every mutation made through *any* handle in this process and through
this handle cross-process, which is exact under the
one-service-per-spill-directory deployment the serving layer uses.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
from typing import Iterator

from repro.backends.base import StateBackend
from repro.errors import BackendError, CASConflictError

try:  # pragma: no cover - fcntl exists on every POSIX we run on
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["FileBackend", "atomic_write_bytes"]

#: Header magic of versioned blob files.
_MAGIC = b"RSB1"
_HEADER = struct.Struct(">4sQ")  # magic + version

#: Suffix of versioned blob files.
_BLOB_SUFFIX = ".blob"

#: Suffix of legacy (pre-backend, unversioned) envelope files.
_LEGACY_SUFFIX = ".json"

#: Process-wide temp-name counter: two threads (or two stores) writing
#: the same key in one process still get distinct temp files.
_tmp_counter = itertools.count()


def _stage_replace(path: str, data: bytes) -> None:
    """Fsync ``data`` into a temp file and rename it over ``path``.

    The file itself can never be read torn afterwards, but the rename
    is not yet durable: the caller owes the directory an fsync
    (:func:`_fsync_directory`) before claiming durability - which is
    exactly the hook group commit exploits, paying that fsync once per
    batch instead of once per key.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{next(_tmp_counter)}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash leaves old-or-new, never torn.

    The write goes to a same-directory temp file with a per-call unique
    name, is flushed and fsynced, then atomically renamed over ``path``;
    finally the directory entry is fsynced so the rename itself survives
    power loss.  This is the primitive beneath the file backend and
    :func:`repro.persist.dump_summary`.
    """
    _stage_replace(path, data)
    _fsync_directory(os.path.dirname(path) or ".")


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # pragma: no cover - not ours
        return True
    return True


def _fsync_directory(directory: str) -> None:
    """fsync a directory so a just-renamed entry is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. directories not openable
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class FileBackend(StateBackend):
    """Versioned blobs as files under ``directory`` (see module docs)."""

    def __init__(self, directory: str) -> None:
        super().__init__()
        self._directory = str(directory)
        os.makedirs(self._directory, exist_ok=True)
        self._mutex = threading.RLock()
        self._lock_path = os.path.join(self._directory, ".lock")
        self._lock_fd: int | None = None
        self._sweep_stale_tmp()
        self._known = self._scan_keys()

    @property
    def directory(self) -> str:
        return self._directory

    # ------------------------------------------------------------------ #
    # paths and init scan
    # ------------------------------------------------------------------ #

    def _path(self, key: str) -> str:
        return os.path.join(
            self._directory, key.encode("utf-8").hex() + _BLOB_SUFFIX
        )

    def _legacy_path(self, key: str) -> str:
        return os.path.join(
            self._directory, key.encode("utf-8").hex() + _LEGACY_SUFFIX
        )

    def _sweep_stale_tmp(self) -> None:
        """Drop temp files left by writers that died before their rename.

        Temp names embed the writer's pid (``<name>.tmp.<pid>.<n>``),
        and only temps whose writer is *gone* are swept: a second
        process opening the directory while a live writer is mid-write
        must not delete the bytes out from under its rename.
        Unparseable temp names are treated as debris.
        """
        for name in os.listdir(self._directory):
            marker = name.rfind(".tmp.")
            if marker < 0:
                continue
            try:
                pid = int(name[marker + len(".tmp."):].split(".")[0])
            except ValueError:
                pid = None
            if pid is not None and pid != os.getpid() and _pid_alive(pid):
                continue  # a live writer owns this temp
            if pid == os.getpid():
                continue  # another store handle in this process
            try:
                os.remove(os.path.join(self._directory, name))
            except OSError:  # pragma: no cover - racing sweeper
                pass

    def _scan_keys(self) -> set[str]:
        """The one enumeration: seed the O(1) counter at construction."""
        keys: set[str] = set()
        for name in os.listdir(self._directory):
            for suffix in (_BLOB_SUFFIX, _LEGACY_SUFFIX):
                if not name.endswith(suffix):
                    continue
                stem = name[: -len(suffix)]
                try:
                    keys.add(bytes.fromhex(stem).decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    pass  # not one of ours
        return keys

    # ------------------------------------------------------------------ #
    # locking (in-process mutex + cross-process flock)
    # ------------------------------------------------------------------ #

    def _acquire(self) -> None:
        self._mutex.acquire()
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        if self._lock_fd is None:
            self._lock_fd = os.open(
                self._lock_path, os.O_RDWR | os.O_CREAT, 0o644
            )
        fcntl.flock(self._lock_fd, fcntl.LOCK_EX)

    def _release(self) -> None:
        if fcntl is not None and self._lock_fd is not None:
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
        self._mutex.release()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def _read(self, key: str) -> tuple[bytes, int] | None:
        """(payload, version) straight off disk, or None while absent."""
        try:
            with open(self._path(key), "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            try:
                with open(self._legacy_path(key), "rb") as handle:
                    return handle.read(), 1
            except FileNotFoundError:
                return None
        if len(raw) < _HEADER.size or not raw.startswith(_MAGIC):
            raise BackendError(
                f"blob file for key {key!r} has a corrupt header"
            )
        _, version = _HEADER.unpack_from(raw)
        return raw[_HEADER.size :], version

    def _current_version(self, key: str) -> int:
        found = self._read(key)
        return 0 if found is None else found[1]

    # ------------------------------------------------------------------ #
    # StateBackend hooks
    # ------------------------------------------------------------------ #

    def _write(
        self,
        key: str,
        data: bytes,
        version: int,
        *,
        sync_directory: bool = True,
    ) -> None:
        """Commit one versioned blob (lock held by the caller).

        ``sync_directory=False`` defers the directory fsync to the
        caller - the group-commit path of :meth:`_put_many`.
        """
        payload = _HEADER.pack(_MAGIC, version) + data
        if sync_directory:
            atomic_write_bytes(self._path(key), payload)
        else:
            _stage_replace(self._path(key), payload)
        legacy = self._legacy_path(key)
        if os.path.exists(legacy):  # upgraded: the blob file now wins
            try:
                os.remove(legacy)
            except OSError:  # pragma: no cover - racing upgrader
                pass
        self._known.add(key)

    def _put(self, key: str, data: bytes) -> int:
        self._acquire()
        try:
            version = self._current_version(key) + 1
            self._write(key, data, version)
            return version
        finally:
            self._release()

    def _put_many(self, pairs: list[tuple[str, bytes]]) -> dict[str, int]:
        """Group commit: every key staged under one lock, one directory
        fsync for the whole batch (the file backend is otherwise
        fsync-bound at ~2k puts/s).  Each file is still written with
        the fsync-before-rename discipline, so no individual value can
        be read torn; what becomes batch-granular is *durability* -
        a crash before the final directory fsync may keep any prefix
        of the batch's renames."""
        if not pairs:
            return {}
        self._acquire()
        try:
            versions: dict[str, int] = {}
            for key, data in pairs:
                if key not in versions:
                    versions[key] = self._current_version(key)
                versions[key] += 1
                self._write(key, data, versions[key], sync_directory=False)
            return versions
        finally:
            try:
                _fsync_directory(self._directory)
            finally:
                self._release()

    def _get_versioned(self, key: str) -> tuple[bytes, int] | None:
        # Reads need no lock: os.replace is atomic, so any read sees a
        # complete old or complete new file.
        return self._read(key)

    def _compare_and_swap(
        self, key: str, expected_version: int, data: bytes
    ) -> int:
        self._acquire()
        try:
            current = self._current_version(key)
            if current != expected_version:
                raise CASConflictError(
                    key,
                    expected_version=expected_version,
                    actual_version=current,
                )
            version = current + 1
            self._write(key, data, version)
            return version
        finally:
            self._release()

    def _delete(self, key: str) -> bool:
        self._acquire()
        try:
            existed = False
            for path in (self._path(key), self._legacy_path(key)):
                try:
                    os.remove(path)
                    existed = True
                except FileNotFoundError:
                    pass
            self._known.discard(key)
            return existed
        finally:
            self._release()

    def _keys(self) -> Iterator[str]:
        return iter(sorted(self._known))

    def _count(self) -> int:
        return len(self._known)

    def close(self) -> None:
        with self._mutex:
            if self._lock_fd is not None:
                os.close(self._lock_fd)
                self._lock_fd = None
