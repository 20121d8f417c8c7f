"""Shared codecs for the universal checkpoint protocol.

Every summary implements ``to_state()`` / ``from_state(state)`` (the
:class:`repro.api.Summary` protocol); the states are plain
JSON-compatible trees.  This module holds the codecs the summaries share
- points, RNG states, grid/hash configurations, candidate records,
threshold policies and window specifications - and the checks of their
integer fields, so each summary's state methods stay a short
description of *its own* fields.  The sliding samplers' lazy eviction
heaps are derived state: no codec writes them, and a restore rebuilds
them from the records.

This is a leaf module: it imports only the geometry/hashing/stream
primitives, never the samplers, so every core class (and
:mod:`repro.persist`, the envelope layer) can use it without cycles.
"""

from __future__ import annotations

import base64
import random
from itertools import chain
from math import inf
from operator import attrgetter
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.base import CandidateRecord, SamplerConfig, _ThresholdPolicy
from repro.errors import CheckpointError
from repro.geometry.grid import Grid
from repro.hashing.kwise import KWiseHash
from repro.hashing.mix import SplitMix64
from repro.hashing.sampling import SamplingHash
from repro.streams.point import StreamPoint
from repro.streams.windows import (
    InfiniteWindow,
    SequenceWindow,
    TimeWindow,
    WindowSpec,
)


def check_int_fields(
    state: dict[str, Any], minimum: int, *fields: str, maximum: float = inf
) -> None:
    """Reject a state whose ``fields`` are not ints in ``[minimum, maximum]``.

    Counters, sizes and levels restore as plain ints: a string or a
    ``None`` would fail later with a bare ``TypeError``, and a negative
    arrival count would hand out indices already stored.  Raises
    :class:`~repro.errors.CheckpointError` naming the first bad field; a
    missing field raises ``KeyError``, which the restore paths report as
    a malformed checkpoint.
    """
    for field in fields:
        value = state[field]
        if type(value) is not int or not minimum <= value <= maximum:
            raise CheckpointError(
                f"sampler state field {field!r} must be an int in "
                f"[{minimum}, {maximum}], got {value!r}"
            )


def point_to_state(point: StreamPoint) -> dict[str, Any]:
    """Encode one stream point."""
    return {"v": list(point.vector), "i": point.index, "t": point.time}


def point_from_state(state: dict[str, Any]) -> StreamPoint:
    """Decode one stream point."""
    return StreamPoint(tuple(state["v"]), state["i"], state["t"])


def rng_to_state(rng: random.Random) -> list[Any]:
    """Encode a ``random.Random`` state as a JSON-compatible list.

    ``getstate()`` returns ``(version, tuple_of_ints, gauss_next)``;
    tuples become lists on the way out and are rebuilt on the way in.
    """
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def rng_from_state(state: list[Any]) -> random.Random:
    """Rebuild a ``random.Random`` from :func:`rng_to_state` output."""
    rng = random.Random()
    rng.setstate((state[0], tuple(state[1]), state[2]))
    return rng


def config_to_state(config: SamplerConfig) -> dict[str, Any]:
    """Encode a sampler configuration (grid offset + exact hash state)."""
    base = config.hash.base
    if isinstance(base, SplitMix64):
        hash_state: dict[str, Any] = {"kind": "splitmix64", "seed": base.seed}
    elif isinstance(base, KWiseHash):
        hash_state = {"kind": "kwise", "coefficients": list(base.coefficients)}
    else:
        raise CheckpointError(
            f"cannot serialise hash of type {type(base).__name__}"
        )
    return {
        "alpha": config.alpha,
        "dim": config.dim,
        "grid_side": config.grid.side,
        "grid_offset": list(config.grid.offset),
        "hash": hash_state,
    }


def config_from_state(state: dict[str, Any]) -> SamplerConfig:
    """Decode a sampler configuration; the hash function is bit-exact."""
    hash_state = state["hash"]
    if hash_state["kind"] == "splitmix64":
        base: Any = SplitMix64(hash_state["seed"], premixed=True)
    elif hash_state["kind"] == "kwise":
        base = KWiseHash.from_coefficients(tuple(hash_state["coefficients"]))
    else:
        raise CheckpointError(f"unknown hash kind {hash_state['kind']!r}")
    grid = Grid(
        side=state["grid_side"],
        dim=state["dim"],
        offset=tuple(state["grid_offset"]),
    )
    return SamplerConfig(
        alpha=state["alpha"],
        dim=state["dim"],
        grid=grid,
        hash=SamplingHash(base),
    )


# --------------------------------------------------------------------- #
# packed columns: candidate records, window reservoirs
# --------------------------------------------------------------------- #
#
# A record sequence (or set of reservoirs) is one ``columns``
# object: its row count ``n`` and one packed little-endian column per
# field, base64-encoded so the state stays a JSON-compatible tree.
# Points are ``dim`` wide, ``dim`` being the owning sampler's config
# dimension (passed to both sides, never stored).  Optional per-row points (a record's ``last``
# when it is not the representative, its ``member`` when present) are
# packed for the flagged rows only; variable-length fields (adjacency
# hashes, reservoir entries) are one flat column plus a length column.

_F8 = "<f8"
_I8 = "<i8"
_U8 = "<u8"
_U1 = "u1"


def _array(values: Iterable[Any], dtype: str, count: int) -> np.ndarray:
    """``count`` values as one array of ``dtype`` (a column to pack)."""
    try:
        array = np.fromiter(values, np.dtype(dtype))
    except (OverflowError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"cannot pack a {dtype} checkpoint column: {error}"
        ) from error
    if array.size != count:
        raise CheckpointError(
            f"checkpoint column has {array.size} values, expected {count}"
        )
    return array


def _pack(values: Iterable[Any], dtype: str, count: int) -> str:
    """``count`` values as one base64 column of ``dtype``."""
    return _encode(_array(values, dtype, count))


def _encode(array: np.ndarray) -> str:
    return base64.b64encode(array.tobytes()).decode("ascii")


def _unpack(
    columns: dict[str, Any], name: str, dtype: str, count: int
) -> np.ndarray:
    """Column ``name`` as an array of exactly ``count`` values."""
    text = columns.get(name)
    if not isinstance(text, str):
        raise CheckpointError(f"checkpoint column {name!r} is missing")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as error:
        raise CheckpointError(
            f"checkpoint column {name!r} is not base64: {error}"
        ) from error
    if len(raw) != count * np.dtype(dtype).itemsize:
        raise CheckpointError(
            f"checkpoint column {name!r} holds {len(raw)} bytes, "
            f"expected {count} {dtype} values"
        )
    return np.frombuffer(raw, dtype=dtype)


def _row_count(columns: Any) -> int:
    """A columns object's validated row count ``n``."""
    if not isinstance(columns, dict):
        raise CheckpointError("checkpoint columns are not an object")
    n = columns.get("n")
    if type(n) is not int or n < 0:
        raise CheckpointError(f"checkpoint columns have an invalid n: {n!r}")
    return n


def _rows(flat: list, width: int) -> list[tuple]:
    """Consecutive ``width``-tuples of ``flat``."""
    return list(zip(*[iter(flat)] * width))


def _point_arrays(
    prefix: str, points: list[StreamPoint], dim: int
) -> dict[str, np.ndarray]:
    n = len(points)
    return {
        prefix + "v": _array(
            chain.from_iterable(map(attrgetter("vector"), points)),
            _F8,
            n * dim,
        ),
        prefix + "i": _array(map(attrgetter("index"), points), _I8, n),
        prefix + "t": _array(map(attrgetter("time"), points), _F8, n),
    }


def _encoded(arrays: dict[str, np.ndarray]) -> dict[str, str]:
    """Every column of ``arrays`` base64-encoded."""
    return {name: _encode(array) for name, array in arrays.items()}


def _pack_points(
    prefix: str, points: list[StreamPoint], dim: int
) -> dict[str, str]:
    return _encoded(_point_arrays(prefix, points, dim))


def _unpack_point_arrays(
    columns: dict[str, Any], prefix: str, count: int, dim: int
) -> dict[str, np.ndarray]:
    return {
        prefix + "v": _unpack(columns, prefix + "v", _F8, count * dim),
        prefix + "i": _unpack(columns, prefix + "i", _I8, count),
        prefix + "t": _unpack(columns, prefix + "t", _F8, count),
    }


def _points(
    arrays: dict[str, np.ndarray], prefix: str, dim: int
) -> list[StreamPoint]:
    """The points of :func:`_point_arrays` / :func:`_unpack_point_arrays`."""
    return [
        StreamPoint(vector, index, time)
        for vector, index, time in zip(
            _rows(arrays[prefix + "v"].tolist(), dim),
            arrays[prefix + "i"].tolist(),
            arrays[prefix + "t"].tolist(),
        )
    ]


def _unpack_points(
    columns: dict[str, Any], prefix: str, count: int, dim: int
) -> list[StreamPoint]:
    arrays = _unpack_point_arrays(columns, prefix, count, dim)
    return _points(arrays, prefix, dim)


def _ragged_arrays(
    name: str, rows: list[Sequence[Any]], dtype: str
) -> dict[str, np.ndarray]:
    lengths = list(map(len, rows))
    return {
        name + "_len": _array(lengths, _I8, len(rows)),
        name: _array(chain.from_iterable(rows), dtype, sum(lengths)),
    }


def _pack_ragged(
    name: str, rows: list[Sequence[Any]], dtype: str
) -> dict[str, str]:
    return _encoded(_ragged_arrays(name, rows, dtype))


def _unpack_ragged_arrays(
    columns: dict[str, Any], name: str, dtype: str, count: int
) -> dict[str, np.ndarray]:
    lengths = _unpack(columns, name + "_len", _I8, count)
    if (lengths < 0).any():
        raise CheckpointError(f"checkpoint column {name!r} has a negative length")
    # An exact Python sum: an int64 sum of hostile lengths could wrap.
    total = sum(lengths.tolist())
    return {name + "_len": lengths, name: _unpack(columns, name, dtype, total)}


def _ragged(arrays: dict[str, np.ndarray], name: str) -> list[tuple]:
    """The rows of :func:`_ragged_arrays` / :func:`_unpack_ragged_arrays`."""
    flat = arrays[name].tolist()
    rows, start = [], 0
    for length in arrays[name + "_len"].tolist():
        rows.append(tuple(flat[start : start + length]))
        start += length
    return rows


def _unpack_ragged(
    columns: dict[str, Any], name: str, dtype: str, count: int
) -> list[tuple]:
    return _ragged(_unpack_ragged_arrays(columns, name, dtype, count), name)


#: The packed record layout: the column order of
#: :func:`records_to_arrays` (and so of every checkpoint's records).
_RECORD_COLUMNS = (
    "n", "rep_v", "rep_i", "rep_t", "last_v", "last_i", "last_t",
    "member_v", "member_i", "member_t", "adj_len", "adj", "cell",
    "cell_hash", "count", "accepted", "level", "last_is_rep", "has_member",
)


def merge_arrays(
    records: Sequence[CandidateRecord], dim: int
) -> dict[str, Any]:
    """The columns of :func:`records_to_arrays` that the infinite-window
    merge kernel (:func:`~repro.core.infinite_window.merge_columns`)
    reads: representative, last point where it is not the
    representative, adjacency hashes, cell, cell hash and count."""
    n = len(records)
    last_is_rep = [r.last is r.representative for r in records]
    arrays: dict[str, Any] = {"n": n}
    representatives = list(map(attrgetter("representative"), records))
    arrays.update(_point_arrays("rep_", representatives, dim))
    arrays.update(
        _point_arrays(
            "last_",
            [r.last for r, same in zip(records, last_is_rep) if not same],
            dim,
        )
    )
    adj_hashes = list(map(attrgetter("adj_hashes"), records))
    arrays.update(_ragged_arrays("adj", adj_hashes, _U8))
    cells = chain.from_iterable(map(attrgetter("cell"), records))
    arrays.update(
        cell=_array(cells, _I8, n * dim),
        cell_hash=_array(map(attrgetter("cell_hash"), records), _U8, n),
        count=_array(map(attrgetter("count"), records), _I8, n),
        last_is_rep=_array(last_is_rep, _U1, n),
    )
    return arrays


def records_to_arrays(
    records: Sequence[CandidateRecord], dim: int
) -> dict[str, Any]:
    """Candidate records as numpy columns: :func:`records_to_columns`
    before base64.

    Per record: representative, cell, cell hash, adjacency hashes,
    accept flag, count and level; the last point only where it is not
    the representative itself, the member only where one is tracked.
    Points are flat ``<f8``/``<i8``/``<f8`` columns (``dim`` values per
    vector), adjacency hashes one flat ``adj`` column plus ``adj_len``.
    :func:`record_arrays_from_columns` reads the packed form back to
    the same arrays; the infinite-window merge kernel takes either, or
    just :func:`merge_arrays`.
    """
    arrays = merge_arrays(records, dim)
    n = arrays["n"]
    members = [r.member for r in records if r.member is not None]
    arrays.update(_point_arrays("member_", members, dim))
    arrays.update(
        accepted=_array(map(attrgetter("accepted"), records), _U1, n),
        level=_array(map(attrgetter("level"), records), _U1, n),
        has_member=_array((r.member is not None for r in records), _U1, n),
    )
    return {name: arrays[name] for name in _RECORD_COLUMNS}


def records_to_columns(
    records: Sequence[CandidateRecord], dim: int
) -> dict[str, Any]:
    """Encode candidate records as one packed columns object.

    The columns of :func:`records_to_arrays`, each base64-encoded.  A
    record's ``stored`` and ``words`` fields and its ``adj_tz`` cache are
    derived state and never encoded: ``CandidateStore.add`` sets
    ``stored`` and recomputes ``words``.
    """
    arrays = records_to_arrays(records, dim)
    n = arrays.pop("n")
    return {"n": n, **_encoded(arrays)}


def record_arrays_from_columns(value: Any, dim: int) -> dict[str, Any]:
    """The one reader of packed record columns: :func:`records_to_columns`
    output back to the arrays of :func:`records_to_arrays`.

    Every column passes the checkpoint checks - base64 with
    ``validate=True``, exact byte lengths, non-negative adjacency
    lengths that sum to the flat column - or the read raises
    :class:`~repro.errors.CheckpointError`.
    """
    n = _row_count(value)
    arrays: dict[str, Any] = {"n": n}
    arrays["last_is_rep"] = _unpack(value, "last_is_rep", _U1, n)
    arrays["has_member"] = _unpack(value, "has_member", _U1, n)
    arrays.update(_unpack_point_arrays(value, "rep_", n, dim))
    arrays.update(
        _unpack_point_arrays(
            value, "last_", n - np.count_nonzero(arrays["last_is_rep"]), dim
        )
    )
    arrays.update(
        _unpack_point_arrays(
            value, "member_", np.count_nonzero(arrays["has_member"]), dim
        )
    )
    arrays["cell"] = _unpack(value, "cell", _I8, n * dim)
    arrays["cell_hash"] = _unpack(value, "cell_hash", _U8, n)
    arrays.update(_unpack_ragged_arrays(value, "adj", _U8, n))
    arrays["accepted"] = _unpack(value, "accepted", _U1, n)
    arrays["count"] = _unpack(value, "count", _I8, n)
    arrays["level"] = _unpack(value, "level", _U1, n)
    return arrays


def records_from_columns(value: Any, dim: int) -> list[CandidateRecord]:
    """Decode :func:`records_to_columns` output (points ``dim`` wide)."""
    arrays = record_arrays_from_columns(value, dim)
    lasts = iter(_points(arrays, "last_", dim))
    members = iter(_points(arrays, "member_", dim))
    fields = zip(
        _points(arrays, "rep_", dim),
        _rows(arrays["cell"].tolist(), dim),
        arrays["cell_hash"].tolist(),
        _ragged(arrays, "adj"),
        arrays["accepted"].tolist(),
        arrays["count"].tolist(),
        arrays["level"].tolist(),
        arrays["last_is_rep"].tolist(),
        arrays["has_member"].tolist(),
    )
    return [
        CandidateRecord(
            representative=rep,
            cell=cell,
            cell_hash=cell_hash,
            adj_hashes=adj,
            accepted=bool(accepted),
            last=rep if same else next(lasts),
            count=count,
            member=next(members) if member else None,
            level=level,
        )
        for rep, cell, cell_hash, adj, accepted, count, level, same, member
        in fields
    ]


def reservoirs_to_columns(
    reservoirs: Sequence[tuple[int, Sequence[tuple[float, StreamPoint]]]],
    dim: int,
) -> dict[str, Any]:
    """Encode ``(key, entries)`` window reservoirs, entries being
    ``(priority, point)`` pairs, as one columns object."""
    entries = [entry for _, group in reservoirs for entry in group]
    columns: dict[str, Any] = {"n": len(reservoirs)}
    columns.update(_pack_points("p_", [point for _, point in entries], dim))
    columns.update(
        _pack_ragged(
            "priority", [[p for p, _ in group] for _, group in reservoirs], _F8
        )
    )
    columns["key"] = _pack((key for key, _ in reservoirs), _I8, len(reservoirs))
    return columns


def reservoirs_from_columns(
    value: Any, dim: int
) -> list[tuple[int, list[tuple[float, StreamPoint]]]]:
    """Decode :func:`reservoirs_to_columns` output."""
    n = _row_count(value)
    priorities = _unpack_ragged(value, "priority", _F8, n)
    points = iter(_unpack_points(value, "p_", sum(map(len, priorities)), dim))
    return [
        (key, [(priority, next(points)) for priority in group])
        for key, group in zip(_unpack(value, "key", _I8, n).tolist(), priorities)
    ]


def policy_to_state(policy: _ThresholdPolicy) -> dict[str, Any]:
    """Encode a threshold policy, including the arrivals observed."""
    return {
        "kappa0": policy.kappa0,
        "expected_stream_length": policy.expected_stream_length,
        "minimum": policy.minimum,
        "fixed": policy.fixed,
        "seen": policy.seen,
    }


def policy_from_state(state: dict[str, Any]) -> _ThresholdPolicy:
    """Decode a threshold policy (``seen`` a non-negative int)."""
    check_int_fields(state, 0, "seen")
    policy = _ThresholdPolicy(
        kappa0=state["kappa0"],
        expected_stream_length=state["expected_stream_length"],
        minimum=state["minimum"],
        fixed=state["fixed"],
    )
    policy._seen = state["seen"]
    return policy


def window_to_state(window: WindowSpec | None) -> dict[str, Any] | None:
    """Encode a window specification (``None`` passes through)."""
    if window is None:
        return None
    if isinstance(window, InfiniteWindow):
        return {"kind": "infinite"}
    if isinstance(window, SequenceWindow):
        return {"kind": "sequence", "size": int(window.size)}
    if isinstance(window, TimeWindow):
        return {"kind": "time", "size": window.size}
    raise CheckpointError(
        f"cannot serialise window of type {type(window).__name__}"
    )


def window_from_state(state: dict[str, Any] | None) -> WindowSpec | None:
    """Decode a window specification."""
    if state is None:
        return None
    kind = state["kind"]
    if kind == "infinite":
        return InfiniteWindow()
    if kind == "sequence":
        return SequenceWindow(state["size"])
    if kind == "time":
        return TimeWindow(state["size"])
    raise CheckpointError(f"unknown window kind {kind!r}")
