"""Universal checkpoint/restore: the envelope layer of the Summary protocol.

Streaming jobs run for days; a sketch that cannot be checkpointed has to
restart from scratch on every deploy.  Every summary in the library
implements ``to_state()`` / ``from_state(state)`` (the
:class:`repro.api.Summary` protocol); this module wraps those states in a
**versioned envelope** tagged with the summary's registry key::

    {"format": "repro/summary", "version": 3,
     "summary": "l0-sliding", "state": {...}}

so :func:`summary_from_state` can dispatch the restore through
:mod:`repro.api.registry` without being told the type.  Restores are
exact: the restored summary makes decisions identical to the original on
the remainder of the stream (``repro.engine.state_fingerprint``-equal
for every core sampler - including the sliding-window hierarchy, whose
state is its flat level-tagged record list and reservoirs; its lazy
eviction heap is derived from the records and rebuilt on restore;
legacy one-store-per-level checkpoints remain readable).

Version 3 packs every candidate-record sequence and window-reservoir
set into one ``columns`` object (:mod:`repro.core.serialize`): the row
count ``n`` and one little-endian column per field, base64-encoded so
the state stays a JSON tree - ``<f8`` for vectors, times and
priorities, ``<i8`` for indices, cells, counts and lengths, ``<u8`` for
cell hashes and the flattened adjacency hashes, ``u1`` for flags and
levels.  Optional per-row points (a record's last point when it is not
its representative, its tracked member) are packed for the flagged rows
only.  A column of the wrong length or encoding raises
:class:`~repro.errors.CheckpointError`.

Version 2 (one JSON object per record and heap entry) and version 1
(the original infinite-window-only format) remain readable; writers
emit version 3.  A heap saved by an older version-2 or version-3 writer
is ignored on read.

>>> from repro.api import build
>>> sampler = build("l0-infinite", alpha=1.0, dim=1, seed=3)
>>> sampler.process_many([(0.0,), (9.0,)])
2
>>> envelope = summary_to_state(sampler)
>>> envelope["version"], envelope["summary"]
(3, 'l0-infinite')
>>> columns = envelope["state"]["records"]
>>> columns["n"]
2
>>> import base64, numpy as np
>>> np.frombuffer(base64.b64decode(columns["rep_v"]), "<f8").tolist()
[0.0, 9.0]
>>> summary_from_state(envelope).points_seen
2
"""

from __future__ import annotations

import json
from typing import Any

from repro.core import serialize
from repro.core.infinite_window import RobustL0SamplerIW, check_state_fields
from repro.errors import CheckpointError

#: Current envelope schema version.
FORMAT_VERSION = 3

#: Versions dispatched through the registry (version 1 has its own path).
_REGISTRY_VERSIONS = (2, 3)

#: Envelope format tag.
FORMAT_NAME = "repro/summary"


def summary_to_state(summary: Any) -> dict[str, Any]:
    """Wrap any summary's protocol state in a versioned envelope."""
    key = getattr(type(summary), "summary_key", None)
    to_state = getattr(summary, "to_state", None)
    if key is None or to_state is None:
        raise CheckpointError(
            f"{type(summary).__name__} does not implement the Summary "
            "checkpoint protocol (summary_key + to_state/from_state)"
        )
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "summary": key,
        "state": to_state(),
    }


def summary_from_state(envelope: dict[str, Any]) -> Any:
    """Restore any summary from a :func:`summary_to_state` envelope.

    The restore is dispatched through the registry: the envelope's
    ``summary`` key names the class whose ``from_state`` rebuilds the
    instance.  Version-2 states restore through the same ``from_state``
    (the column readers also take the per-record lists); version-1
    checkpoints (infinite-window sampler only) are recognised and
    upgraded transparently.
    """
    from repro.api import registry

    version = envelope.get("version")
    if version == 1:
        # The flat version-1 layout is its own (infinite-window) state.
        return _restore(
            RobustL0SamplerIW.summary_key, _legacy_sampler_from_state, envelope
        )
    if version not in _REGISTRY_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}"
        )
    key = envelope.get("summary")
    if not isinstance(key, str):
        raise CheckpointError("checkpoint envelope is missing a summary key")
    state = envelope.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(
            "checkpoint envelope is missing its state payload"
        )
    return _restore(key, registry.summary_class(key).from_state, state)


def _restore(key: str, from_state: Any, state: dict[str, Any]) -> Any:
    """``from_state(state)``, its shape errors raised as a bad checkpoint."""
    try:
        return from_state(state)
    except CheckpointError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as error:
        # A state missing a key or holding a value of the wrong shape
        # fails inside from_state; report it as a bad checkpoint.
        raise CheckpointError(
            f"{key!r} checkpoint state is malformed: "
            f"{type(error).__name__}: {error}"
        ) from error


def dumps_summary(summary: Any) -> bytes:
    """Serialise a summary's checkpoint envelope to UTF-8 JSON bytes.

    The bytes-level twin of :func:`dump_summary`: same envelope, no
    filesystem.  This is what stores that hold envelopes in memory, a
    database or an object store (e.g. the serving layer's envelope
    store, a :class:`repro.backends.StateBackend`) round-trip through.

    >>> sampler = RobustL0SamplerIW(1.0, 1, seed=3)
    >>> sampler.insert((0.0,))
    >>> loads_summary(dumps_summary(sampler)).points_seen
    1
    """
    return json.dumps(summary_to_state(summary)).encode("utf-8")


def loads_summary(data: bytes) -> Any:
    """Restore a summary from :func:`dumps_summary` bytes.

    Raises
    ------
    CheckpointError
        When the bytes are not a valid JSON checkpoint envelope.
    """
    try:
        envelope = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"checkpoint bytes are not a JSON envelope: {error}"
        ) from error
    if not isinstance(envelope, dict):
        raise CheckpointError(
            "checkpoint bytes do not hold an envelope object"
        )
    return summary_from_state(envelope)


def dump_summary(summary: Any, path: str) -> None:
    """Write a summary checkpoint file (:func:`dumps_summary` to disk).

    The write is atomic and durable
    (:func:`repro.backends.atomic_write_bytes`: fsynced same-directory
    temp file + ``os.replace`` + directory fsync), so a crash mid-dump
    leaves either the previous checkpoint or the new one, never a torn
    file.

    >>> import tempfile, os
    >>> sampler = RobustL0SamplerIW(1.0, 1, seed=3)
    >>> sampler.insert((0.0,))
    >>> with tempfile.TemporaryDirectory() as d:
    ...     dump_summary(sampler, os.path.join(d, "ckpt.json"))
    ...     restored = load_summary(os.path.join(d, "ckpt.json"))
    >>> restored.points_seen
    1
    """
    from repro.backends import atomic_write_bytes

    atomic_write_bytes(path, dumps_summary(summary))


def load_summary(path: str) -> Any:
    """Read a checkpoint file back into a live summary."""
    with open(path, "rb") as handle:
        return loads_summary(handle.read())


def store_summary(
    backend: Any, key: str, summary: Any, *, cas_version: int | None = None
) -> int:
    """Write a summary's envelope into a state backend; returns the version.

    The backend-keyed twin of :func:`dump_summary`.  With
    ``cas_version`` the write goes through the backend's atomic
    :meth:`~repro.backends.StateBackend.compare_and_swap` (``0`` =
    create-only), so concurrent checkpointers of the same key cannot
    interleave - the loser raises
    :class:`~repro.errors.CASConflictError` with nothing applied.

    >>> from repro.backends import MemoryBackend
    >>> backend = MemoryBackend()
    >>> sampler = RobustL0SamplerIW(1.0, 1, seed=3)
    >>> sampler.insert((0.0,))
    >>> store_summary(backend, "job-1", sampler)
    1
    >>> load_stored_summary(backend, "job-1").points_seen
    1
    """
    data = dumps_summary(summary)
    if cas_version is None:
        return backend.put(key, data)
    return backend.compare_and_swap(key, cas_version, data)


def load_stored_summary(backend: Any, key: str) -> Any | None:
    """Restore the summary checkpointed under ``key``, or ``None``.

    The backend-keyed twin of :func:`load_summary`; an absent key is
    ``None`` (a fresh job), a present-but-invalid envelope raises
    :class:`~repro.errors.CheckpointError`.
    """
    data = backend.get(key)
    if data is None:
        return None
    return loads_summary(data)


# --------------------------------------------------------------------- #
# legacy version-1 surface (infinite-window sampler only)
# --------------------------------------------------------------------- #


def _legacy_sampler_from_state(state: dict[str, Any]) -> RobustL0SamplerIW:
    """Restore a version-1 checkpoint (flat, infinite-window only)."""
    import ast

    check_state_fields(state)
    config = serialize.config_from_state(state["config"])
    policy_state = state["policy"]
    sampler = RobustL0SamplerIW(
        config.alpha,
        config.dim,
        kappa0=policy_state["kappa0"],
        expected_stream_length=policy_state["expected_stream_length"],
        accept_capacity=policy_state["fixed"],
        track_members=state["track_members"],
        config=config,
    )
    sampler._rate_denominator = state["rate_denominator"]
    sampler._count = state["points_seen"]
    sampler._peak_words = state["peak_space_words"]
    sampler._policy._seen = policy_state["seen"]
    try:
        rng_state = ast.literal_eval(state["member_rng_state"])
    except SyntaxError as error:
        raise CheckpointError(
            f"version-1 member RNG state is not a literal: {error}"
        ) from error
    sampler._member_rng.setstate(rng_state)
    # Version 1 used the version-2 per-record layout.
    for record in serialize.records_from_columns(
        state["records"], config.dim
    ):
        sampler._store.add(record)
    return sampler


__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "dump_summary",
    "dumps_summary",
    "load_stored_summary",
    "load_summary",
    "loads_summary",
    "store_summary",
    "summary_from_state",
    "summary_to_state",
]
