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
eviction heap is derived from the records and rebuilt on restore).

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

Writers emit version 3.  :func:`upgrade_envelope` maps a version-1
envelope (the original infinite-window-only format) or a version-2 one
(one JSON object per record and heap entry) to it before dispatch, so
every ``from_state`` reads one layout.  A saved heap is ignored.

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

import ast
import json
from typing import Any

from repro.core import serialize
from repro.core.base import CandidateRecord, _ThresholdPolicy
from repro.core.infinite_window import RobustL0SamplerIW
from repro.errors import CheckpointError

#: Current envelope schema version.
FORMAT_VERSION = 3

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
    return _envelope(key, to_state())


def _envelope(key: str, state: dict[str, Any]) -> dict[str, Any]:
    """The current-version envelope of a ``key`` summary's state."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "summary": key,
        "state": state,
    }


def summary_from_state(envelope: dict[str, Any]) -> Any:
    """Restore any summary from a :func:`summary_to_state` envelope.

    The envelope is upgraded (:func:`upgrade_envelope`), then the
    restore is dispatched through the registry: the envelope's
    ``summary`` key names the class whose ``from_state`` rebuilds the
    instance.
    """
    from repro.api import registry

    key, state = _key_and_state(upgrade_envelope(envelope))
    return _restore(key, registry.summary_class(key).from_state, state)


def _key_and_state(envelope: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """An envelope's registry key and state payload, both checked."""
    key = envelope.get("summary")
    if not isinstance(key, str):
        raise CheckpointError("checkpoint envelope is missing a summary key")
    state = envelope.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(
            "checkpoint envelope is missing its state payload"
        )
    return key, state


def _restore(key: str, read: Any, state: dict[str, Any]) -> Any:
    """``read(state)`` (a restore or an upgrade), its shape errors raised
    as a bad checkpoint."""
    try:
        return read(state)
    except CheckpointError:
        raise
    except (KeyError, TypeError, IndexError, ValueError, SyntaxError) as error:
        # A state missing a key or holding a value of the wrong shape (a
        # version-1 RNG literal that does not parse) fails inside
        # from_state or the upgrade; report it as a bad checkpoint.
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


def upgrade_envelope(envelope: dict[str, Any]) -> dict[str, Any]:
    """``envelope`` in the current layout: a version-3 envelope is
    returned as is (no copy, no walk), an older one mapped to a new
    envelope.  Version 1 becomes an ``l0-infinite`` state; version 2's
    per-record lists, per-level sliding layout and retired pipeline
    spec fields become their version-3 form.  A malformed older state
    raises :class:`~repro.errors.CheckpointError` naming the summary
    key."""
    version = envelope.get("version")
    if version == FORMAT_VERSION:
        return envelope
    if version == 1:
        key = RobustL0SamplerIW.summary_key
        state = _restore(key, _v1_state, envelope)
    elif version == 2:
        key, state = _key_and_state(envelope)
    else:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    return _envelope(key, _restore(key, _V2_UPGRADES.get(key, dict), state))


def _v1_state(envelope: dict[str, Any]) -> dict[str, Any]:
    """Version 1, the infinite-window sampler's flat state with its
    member RNG a ``repr`` literal, as a version-2 ``l0-infinite`` state."""
    state = {k: v for k, v in envelope.items() if k not in ("format", "version")}
    version, internal, gauss = ast.literal_eval(state.pop("member_rng_state"))
    state["member_rng"] = [version, list(internal), gauss]
    return state


def _v2_sampler(state: dict[str, Any]) -> dict[str, Any]:
    """A version-2 sampler state: its per-record list (or the sliding
    hierarchy's per-level lists, whose index is the level) packed into
    one ``records`` column, its policy given the default ``minimum``."""
    state = dict(state)
    records = [
        {**record, "level": level}
        for level, level_state in enumerate(state.pop("levels"))
        for record in level_state["records"]
    ] if "levels" in state else state["records"]
    state["records"] = serialize.records_to_columns(
        list(map(_record_from_dict, records)), state["config"]["dim"]
    )
    state["policy"] = {"minimum": _ThresholdPolicy.minimum, **state["policy"]}
    return state


def _record_from_dict(state: dict[str, Any]) -> CandidateRecord:
    """Decode one record of the version-1/2 per-record layout."""
    point = serialize.point_from_state
    representative = point(state["rep"])
    return CandidateRecord(
        representative=representative,
        cell=tuple(state["cell"]),
        cell_hash=state["cell_hash"],
        adj_hashes=tuple(state["adj_hashes"]),
        accepted=state["accepted"],
        last=point(state["last"]) if "last" in state else representative,
        count=state["count"],
        member=point(state["member"]) if "member" in state else None,
        level=state.get("level", 0),
    )


def _v2_each(field: str) -> Any:
    """The upgrade of a state listing sampler states in ``field``."""
    return lambda state: {**state, field: list(map(_v2_sampler, state[field]))}


def _v2_pipeline(state: dict[str, Any]) -> dict[str, Any]:
    """A version-2 pipeline: its spec loses the retired ``transport``
    and ``work_stealing`` fields, and the retired ``"thread"`` executor
    becomes ``"serial"`` (both ingest in the calling process)."""
    retired = ("transport", "work_stealing")
    spec = {k: v for k, v in state["spec"].items() if k not in retired}
    if spec.get("executor") == "thread":
        spec["executor"] = "serial"
    coordinator = _v2_each("shards")(state["coordinator"])
    return {**state, "spec": spec, "coordinator": coordinator}


#: Registry key -> the upgrade of its version-2 state (the other keys
#: kept their layout).
_V2_UPGRADES = {
    "l0-infinite": _v2_sampler,
    "l0-sliding": _v2_sampler,
    "ksample": _v2_each("samplers"),
    "f0-infinite": _v2_each("copies"),
    "f0-sliding": _v2_each("copies"),
    "batch-pipeline": _v2_pipeline,
}


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
    "upgrade_envelope",
]
