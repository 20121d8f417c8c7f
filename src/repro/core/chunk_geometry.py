"""Per-chunk vectorised geometry: the precompute object of the batch paths.

A :class:`ChunkGeometry` is built **once per chunk** and carries, for
every point of the chunk, the geometry the samplers' ``process_many``
overrides would otherwise recompute point by point in Python:

* the grid cell (as the usual int tuple, ready for dict keys),
* the cell's base-hash value (cell ids and hashes in one vectorised
  pass),
* lazily, the fractional in-cell positions, the per-point survival
  exponents of ``adj(p)`` (:meth:`ChunkGeometry.survival_exponents`,
  the infinite-window ignore test) and the per-point ``adj(p)`` hash
  tuples (:meth:`ChunkGeometry.adj_hashes`, which switches itself from
  the scalar DFS to the vectorised enumeration when a chunk turns out
  to be founding-heavy).

Everything a ``ChunkGeometry`` serves is a pure function of the chunk's
coordinates and the shared :class:`~repro.core.base.SamplerConfig` - it
carries **no sampler state** - so it can be computed ahead of ingestion,
shared by the pipeline with whichever shard the chunk is dealt to
(:func:`repro.engine.batching.chunk_geometry_for`), or rebuilt
deterministically inside a worker process.  The values are bit-identical
to the scalar computations of ``insert`` (enforced by
``tests/test_geometry_kernels.py``), so batch ingestion through a
``ChunkGeometry`` remains ``state_fingerprint``-equivalent to per-point
ingestion.

This module is also the ingestion boundary (:func:`validate_chunk`,
:func:`prepare_chunk`): a whole chunk is checked before anything
mutates - float coercion, dimension, window order and a cell the int64
path can carry - and one :class:`~repro.errors.ParameterError` names
an offending position.  A batch is ingested whole or not at all.

Every batched ``process_many`` has exactly one ingestion path per point:
:func:`prepare_chunk` validates the chunk and supplies its geometry, and
the loop runs over the whole chunk; a chunk below
:data:`MIN_VECTOR_CHUNK` gets no geometry and goes through the sampler's
own ``insert``, one point at a time.  ``insert`` is the oracle the batch
paths are checked against, so no loop carries a second, inlined scalar
cell/hash computation.

This is the leaf home of the engine-facing
:func:`repro.engine.batching.compute_chunk_geometry` (the core package
cannot import the engine without a cycle, exactly like
:func:`~repro.core.base.chunked`).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.core.base import (
    SamplerConfig,
    check_vector,
    coerce_point,
    invalid_point,
)
from repro.errors import DimensionMismatchError
from repro.geometry import kernels
from repro.geometry.grid import Cell, Grid
from repro.streams.point import StreamPoint
from repro.streams.windows import WindowSpec

#: Chunks smaller than this get no geometry and are ingested point by
#: point through ``insert``: the fixed cost of array construction would
#: exceed what vectorisation saves.
MIN_VECTOR_CHUNK = 4

#: Adaptive adjacency vectorisation: after this many scalar adjacency
#: requests within one counting window, and provided the request
#: *density* is high enough (at least one request per
#: ``_ADJ_EAGER_DENSITY`` points - otherwise a cold-start burst of
#: foundings at the head of a duplicate-heavy chunk would trigger a
#: mostly-wasted sweep), the next ``_ADJ_BLOCK`` points' adjacency is
#: enumerated in one vectorised pass.  Blocks bound the waste when a
#: founding-heavy prefix turns duplicate-heavy mid-chunk.
_ADJ_EAGER_AFTER = 8
_ADJ_EAGER_DENSITY = 8
_ADJ_BLOCK = 192
_ADJ_MIN_BLOCK = 16


def _hash_cells(config: SamplerConfig, coords: "np.ndarray") -> "np.ndarray":
    """Base-hash values of int64 cell rows, as a uint64 array.

    One vectorised pass: the cell ids
    (:func:`repro.geometry.kernels.cell_ids_chunk`) through the base
    hash's array evaluator
    (:meth:`~repro.hashing.sampling.SamplingHash.value_chunk`).  A
    cell's base hash is by definition ``hash.value(cell_id(cell))``, so
    the values equal ``config.cell_hash(cell)`` per row.
    """
    return config.hash.value_chunk(kernels.cell_ids_chunk(coords))


class ChunkGeometry:
    """Vectorised per-chunk geometry (see the module docstring).

    Instances are created by :func:`compute_chunk_geometry`;
    ``cell_hashes`` is a plain Python list aligned with the chunk's
    points (the hot loops index it directly), cell *tuples* are built
    lazily per point (:meth:`cell_at` - only candidate foundings ever
    need them), and the arrays behind the other lazy products are kept
    private.  A geometry always covers its whole chunk (``n`` points):
    the builders validate every cell first and raise rather than build a
    partial one.

    ``source_vectors``/``pure_coords`` carry the chunk's *coercion*
    result when the builder performed one: ``source_vectors`` is the
    chunk's coerced float tuples and ``pure_coords`` is ``True`` only when
    every source element was a raw coordinate row (no
    :class:`~repro.streams.point.StreamPoint`, whose arrival metadata a
    reuse would lose).  :func:`materialize_chunk` uses the pair to skip
    re-coercing a chunk the geometry builder already coerced.
    """

    __slots__ = (
        "config",
        "n",
        "cell_hashes",
        "source_vectors",
        "pure_coords",
        "_vectors",
        "_shifted",
        "_cells_f",
        "_coords",
        "_coords_list",
        "_fracs",
        "_adj_table",
        "_adj_tz",
        "_adj_start",
        "_adj_requests",
        "_adj_window_start",
        "_adj_failed",
    )

    def __init__(
        self,
        config: SamplerConfig,
        vectors: Sequence[tuple[float, ...]],
        shifted: "np.ndarray",
        cells_f: "np.ndarray",
        coords: "np.ndarray",
        cell_hashes: list[int],
        *,
        source_vectors: list[tuple[float, ...]] | None = None,
        pure_coords: bool = False,
    ) -> None:
        self.config = config
        self.n = len(cell_hashes)
        self.cell_hashes = cell_hashes
        self.source_vectors = source_vectors
        self.pure_coords = pure_coords
        self._vectors = vectors
        self._shifted = shifted
        self._cells_f = cells_f
        self._coords = coords
        self._coords_list: list[list[int]] | None = None
        self._fracs = None
        self._adj_table: list[tuple[int, ...]] | None = None
        self._adj_tz: list[int] = []
        self._adj_start = 0
        self._adj_requests = 0
        self._adj_window_start = 0
        self._adj_failed = False

    # ------------------------------------------------------------------ #
    # lazy products
    # ------------------------------------------------------------------ #

    def valid_for(
        self, config: SamplerConfig, vectors: Sequence[tuple[float, ...]]
    ) -> bool:
        """Whether this precompute may serve the given materialised chunk.

        Guards the ``process_many(..., geometry=...)`` surface against a
        caller handing a geometry built for a *different* chunk (a stale
        variable, a retry loop reusing the previous precompute): the
        config must be the same object and the chunk must be this
        geometry's own coerced tuples (the pipeline and worker path,
        see ``BatchPipeline.submit``) or equal them point for point.
        Rejection is safe - the consumer recomputes, which validates.
        (A NaN coordinate never equals itself, so it forces a
        recompute.)
        """
        if config is not self.config or self.n != len(vectors):
            return False
        own = self._vectors
        return vectors is own or list(vectors) == list(own)

    def cell_at(self, index: int) -> Cell:
        """Cell tuple of point ``index`` (lazy - foundings only)."""
        coords_list = self._coords_list
        if coords_list is None:
            coords_list = self._coords.tolist()
            self._coords_list = coords_list
        return tuple(coords_list[index])

    @property
    def fracs(self) -> "np.ndarray":
        """Per-point fractional in-cell positions (lazy, cached)."""
        fracs = self._fracs
        if fracs is None:
            fracs = kernels.fractional_positions_chunk(
                self._shifted, self._cells_f, self.config.grid.side
            )
            self._fracs = fracs
        return fracs

    def survival_exponents(self) -> list[int] | None:
        """Per-point survival exponents of the chunk's ``adj(p)`` hashes.

        :func:`~repro.geometry.kernels.max_trailing_zeros` over the
        hashed :func:`~repro.geometry.kernels.adjacent_cells_chunk`
        enumeration of the whole chunk.  The infinite-window ignore
        test: a point whose own cell is unsampled at rate ``2^k`` has no
        sampled cell in ``adj(p)`` - ``insert`` would ignore it - iff
        its exponent is below ``k``.  The exponents do not depend on the
        rate, so one product serves every mid-chunk rate doubling.

        Returns ``None`` when the whole-chunk enumeration declines (too
        many candidates for a tiny ``grid_side``); the caller then runs
        the exact founding path for every point.  That leaves the
        :meth:`adj_hashes` blocks enabled: a smaller block may still
        fit.
        """
        config = self.config
        result = kernels.adjacent_cells_chunk(
            self._coords, self.fracs, config.grid.side, config.alpha
        )
        if result is None:
            return None
        cells, counts = result
        hashes = _hash_cells(config, cells)
        return kernels.max_trailing_zeros(hashes, counts).tolist()

    # ------------------------------------------------------------------ #
    # adjacency
    # ------------------------------------------------------------------ #

    def adj_hashes(self, index: int) -> tuple[int, ...]:
        """``adj(p)`` base-hash tuple for point ``index``.

        Value-identical to ``config.adj_hashes(vector, cell=cell)``.
        Requests outside the current vectorised block run the scalar
        DFS while a per-window request counter accumulates; when a
        stretch of the chunk proves founding-heavy (enough requests, at
        sufficient density - a cold-start burst alone does not qualify
        twice), the next :data:`_ADJ_BLOCK` points' adjacency is
        enumerated in one vectorised pass and served from the block
        table.  The block bound keeps the waste small when a
        founding-heavy prefix turns duplicate-heavy mid-chunk; chunks
        that never found pay nothing.
        """
        table = self._adj_table
        if table is not None:
            offset = index - self._adj_start
            if 0 <= offset < len(table):
                return table[offset]
        self._adj_requests += 1
        if not self._adj_failed and self._adj_requests >= _ADJ_EAGER_AFTER:
            span = index + 1 - self._adj_window_start
            block = min(_ADJ_BLOCK, self.n - index)
            if (
                span <= self._adj_requests * _ADJ_EAGER_DENSITY
                and block >= _ADJ_MIN_BLOCK
                and self._precompute_adjacency(index, block)
            ):
                return self._adj_table[0]  # type: ignore[index]
        return self._scalar_adj(index)

    def adj_tz(self, index: int) -> int:
        """Survival exponent of point ``index``'s ``adj(p)`` hashes.

        Value-identical to :meth:`CandidateRecord.survival_exponent
        <repro.core.base.CandidateRecord.survival_exponent>` over
        :meth:`adj_hashes` ``(index)`` when the point lies in the current
        vectorised block (computed in bulk with the block), else ``-1``
        - the record's "not yet computed" marker, so it is derived
        lazily.  Call after :meth:`adj_hashes` for the same point.
        """
        offset = index - self._adj_start
        if 0 <= offset < len(self._adj_tz):
            return self._adj_tz[offset]
        return -1

    def _scalar_adj(self, index: int) -> tuple[int, ...]:
        return self.config.adj_hashes(
            self._vectors[index], cell=self.cell_at(index)
        )

    def _precompute_adjacency(self, start: int, block: int) -> bool:
        config = self.config
        stop = start + block
        result = kernels.adjacent_cells_chunk(
            self._coords[start:stop],
            self.fracs[start:stop],
            config.grid.side,
            config.alpha,
        )
        if result is None:
            self._adj_failed = True
            return False
        flat_cells, counts = result
        hashes = _hash_cells(config, flat_cells)
        flat_hashes = hashes.tolist()
        table: list[tuple[int, ...]] = []
        position = 0
        for count in counts.tolist():
            table.append(tuple(flat_hashes[position : position + count]))
            position += count
        self._adj_start = start
        self._adj_table = table
        self._adj_tz = kernels.max_trailing_zeros(hashes, counts).tolist()
        # Fresh counting window past the block: the next block is only
        # computed if founding density stays high beyond it.
        self._adj_requests = 0
        self._adj_window_start = stop
        return True


def _check_vectors(grid: Grid, vectors: Sequence[tuple[float, ...]]) -> None:
    """The scalar cell check, point by point (:func:`check_vector`)."""
    for position, vector in enumerate(vectors):
        check_vector(grid, vector, position)


def _valid_cells(
    grid: Grid, array: "np.ndarray"
) -> tuple["np.ndarray", "np.ndarray"]:
    """The vectorised cell check: ``(shifted, cells_f)`` of a valid array.

    Every cell coordinate must be below
    :data:`~repro.geometry.kernels.COORD_LIMIT` in magnitude (NaN fails
    the comparison too); the first failing row goes to
    :func:`~repro.core.base.check_vector`, which raises the scalar
    path's error for it, so the two checks agree point for point.
    """
    shifted = array - np.array(grid.offset, dtype=np.float64)
    cells_f = kernels.cell_coords_chunk(shifted, grid.side)
    with np.errstate(invalid="ignore"):
        good = np.abs(cells_f) < kernels.COORD_LIMIT
    if not good.all():
        position = int(np.argmin(good.all(axis=1)))
        check_vector(grid, tuple(array[position].tolist()), position)
        raise AssertionError("vector and scalar cell checks disagree")
    return shifted, cells_f


def _chunk_array(grid: Grid, vectors: Sequence[tuple[float, ...]]) -> "np.ndarray":
    """Dimension-checked vectors as an ``(n, dim)`` float64 array.

    ``fromiter`` over a flattened view beats ``np.array`` on a list of
    tuples by ~2x.
    """
    total, dim = len(vectors), grid.dim
    try:
        return np.fromiter(
            chain.from_iterable(vectors), np.float64, count=total * dim
        ).reshape(total, dim)
    except (TypeError, ValueError):
        # A StreamPoint built around non-numeric values: name it.
        _check_vectors(grid, vectors)
        raise


def _geometry_from_array(
    config: SamplerConfig,
    vectors: Sequence[tuple[float, ...]],
    array: "np.ndarray",
    *,
    source_vectors: list[tuple[float, ...]] | None = None,
    pure_coords: bool = False,
) -> ChunkGeometry:
    """Builder core over a prebuilt ``(total, dim)`` float array; checks
    every cell (:func:`_valid_cells`) before building anything."""
    shifted, cells_f = _valid_cells(config.grid, array)
    coords = cells_f.astype(np.int64)
    return ChunkGeometry(
        config,
        vectors,
        shifted,
        cells_f,
        coords,
        _hash_cells(config, coords).tolist(),
        source_vectors=source_vectors,
        pure_coords=pure_coords,
    )


def compute_chunk_geometry(
    config: SamplerConfig,
    vectors: Sequence[tuple[float, ...]],
    *,
    source_vectors: list[tuple[float, ...]] | None = None,
    pure_coords: bool = False,
) -> ChunkGeometry | None:
    """Check the chunk's cells and build its :class:`ChunkGeometry`.

    ``vectors`` must all have the config's dimension (the materialising
    callers guarantee it).  Raises :class:`~repro.errors.ParameterError`
    for the first point without a carriable cell.  A chunk below
    :data:`MIN_VECTOR_CHUNK` is checked point by point and gets no
    geometry (``None``): the array setup would cost more than it saves.

    ``source_vectors``/``pure_coords`` are recorded on the geometry for
    :func:`materialize_chunk`'s coercion-reuse fast path (see
    :class:`ChunkGeometry`); builders that coerced the whole chunk
    themselves pass them so downstream materialisation is free.
    """
    if len(vectors) < MIN_VECTOR_CHUNK:
        _check_vectors(config.grid, vectors)
        return None
    return _geometry_from_array(
        config,
        vectors,
        _chunk_array(config.grid, vectors),
        source_vectors=source_vectors,
        pure_coords=pure_coords,
    )


def _check_shape(array: "np.ndarray", dim: int) -> None:
    if array.ndim != 2 or array.shape[1] != dim:
        reason = f"is not a row of an (n, {dim}) array {array.shape!r}"
        raise invalid_point(0, reason, DimensionMismatchError)


def geometry_from_array(
    config: SamplerConfig, array: "np.ndarray"
) -> tuple[list[tuple[float, ...]], ChunkGeometry | None]:
    """Check a chunk's float array and rebuild ``(vectors, geometry)``.

    The worker-side entry point of the array transports (process
    workers reading shared memory, remote workers decoding a backend
    payload): the array is validated whole - shape, then every cell -
    so a worker fed an invalid chunk raises before touching its shard.
    The coerced tuples are recovered with one ``tolist`` pass (value-
    identical to per-point ``tuple(float(x) for x in row)`` - float64
    round-trips exactly) and the geometry is built without re-flattening
    through ``fromiter``.  ``geometry`` is ``None`` for a chunk below
    :data:`MIN_VECTOR_CHUNK`.  The geometry carries the vectors as its
    coercion source (``pure_coords``), so the consuming sampler's
    materialisation reuses them instead of coercing again.
    """
    _check_shape(array, config.dim)
    array = np.asarray(array, dtype=np.float64)
    # Tuple recovery off the hot path: per-column tolist then one zip
    # builds every row tuple at C speed - faster than the nested
    # tolist + per-row tuple() and than regrouping a flat tolist
    # through iterator tricks.  Values are identical either way -
    # tolist yields Python floats.
    vectors = list(zip(*array.T.tolist()))
    if len(vectors) < MIN_VECTOR_CHUNK:
        _valid_cells(config.grid, array)
        return vectors, None
    geometry = _geometry_from_array(
        config, vectors, array, source_vectors=vectors, pure_coords=True
    )
    return vectors, geometry


def is_numeric_array(chunk) -> bool:
    """Whether ``chunk`` is a 2-d numpy array of a numeric dtype, whose
    float64 cast is element-wise identical to ``float(x)``."""
    return (
        isinstance(chunk, np.ndarray)
        and chunk.ndim == 2
        and chunk.dtype.kind in "fiub"
    )


def validate_chunk(grid: Grid, chunk: Sequence) -> Sequence:
    """Validate a whole chunk before anything mutates; returns it to ship.

    The ingestion boundary for callers that build no geometry (the
    pipeline's worker-side executors, the exact baseline): every point
    must coerce to floats, have ``grid``'s dimension and a cell the int64
    path can carry - finite coordinates, ``|(x - offset) // side| <
    2^62``.  One :class:`~repro.errors.ParameterError` names an
    offending point's position and reason (rows are all checked before
    any cell is).  :func:`prepare_chunk` applies the same checks (plus
    window order) with the cell check run on the geometry's own arrays.

    Returns the chunk as its validated float64 array when it is made of
    coordinate rows, so a transport ships it without coercing again;
    numeric arrays and StreamPoint chunks are returned as given.
    """
    if is_numeric_array(chunk):
        _check_shape(chunk, grid.dim)
        _valid_cells(grid, np.asarray(chunk, dtype=np.float64))
        return chunk
    _, vectors, pure = coerce_rows(chunk, grid.dim)
    if not vectors:
        return chunk
    array = _chunk_array(grid, vectors)
    _valid_cells(grid, array)
    return array if pure else chunk


def insert_copies(
    copies: Sequence, point: StreamPoint | Sequence[float]
) -> None:
    """Per-point ``insert`` of the multi-copy wrappers (k-sample, F0).

    One shared :class:`StreamPoint` (so all copies agree on its arrival
    index) is checked against every copy's grid before the first copy's
    ``insert``, which checks window order - the same for copies in
    lockstep.  An invalid point leaves every copy unchanged.
    """
    first = copies[0]
    shared = coerce_point(point, first.points_seen, first._config.grid)
    for copy in copies[1:]:
        check_vector(copy._config.grid, shared.vector)
    for copy in copies:
        copy.insert(shared)


def feed_copies_shared(
    copies: Sequence, points: Iterable[StreamPoint | Sequence[float]]
) -> int:
    """Shared-geometry batch path of the multi-copy wrappers (k-sample, F0).

    Raw coordinates are materialised once into :class:`StreamPoint`
    objects so all copies agree on arrival indices, and the chunk's
    float coercion and flattened float64 array are computed **once**;
    each copy derives its :class:`ChunkGeometry` from that array (the
    grid products are per copy: each copy owns an independently seeded
    :class:`~repro.core.base.SamplerConfig`).  Building every copy's
    geometry is the cell check against every copy's grid, so it all
    happens before the first copy ingests; window order, identical for
    copies in lockstep, is checked by the first copy before it mutates.
    An invalid chunk thus leaves every copy unchanged.  Returns the
    number of points ingested.
    """
    first = copies[0]
    chunk, vectors = materialize_chunk(points, first.dim, first.points_seen)
    if len(chunk) >= MIN_VECTOR_CHUNK:
        array = _chunk_array(first._config.grid, vectors)
        geometries = [
            _geometry_from_array(copy._config, vectors, array)
            for copy in copies
        ]
    else:
        geometries = [
            compute_chunk_geometry(copy._config, vectors) for copy in copies
        ]
    for copy, geometry in zip(copies, geometries):
        copy.process_many(chunk, geometry=geometry)
    return len(chunk)


def _reusable_vectors(
    points, dim: int, geometry: ChunkGeometry | None
) -> list[tuple[float, ...]] | None:
    """The geometry's cached coercion of ``points``, if it is ``points``.

    Reuse requires the chunk to *be* the geometry's coerced pure
    coordinate rows (``points is source_vectors``, ``pure_coords`` -
    StreamPoint inputs carry arrival metadata a rebuild would lose) for
    a config of the same dimension.  That is the pipeline's path, which
    hands the shard the tuples :func:`chunk_geometry_for` coerced, and
    the worker-process path, where :func:`geometry_from_array` built
    both together.  Any other chunk is coerced (and so checked) anew.
    """
    if (
        geometry is not None
        and geometry.pure_coords
        and geometry.source_vectors is not None
        and points is geometry.source_vectors
        and geometry.config.dim == dim
    ):
        return points
    return None


def coerce_rows(
    points: Iterable[StreamPoint | Sequence[float]],
    dim: int,
) -> tuple[list, list[tuple[float, ...]], bool]:
    """Coerce and dimension-check a chunk: ``(items, vectors, pure)``.

    ``items`` is the chunk as a list, ``vectors`` each item's float
    tuple (a :class:`StreamPoint`'s own vector) and ``pure`` whether no
    item was a StreamPoint.  The first item that is not a sequence of
    numbers, or has the wrong dimension, raises
    :class:`~repro.errors.ParameterError` (a
    :class:`~repro.errors.DimensionMismatchError` for the latter) naming
    its position.
    """
    items = points if isinstance(points, list) else list(points)
    vectors: list[tuple[float, ...]] = []
    append = vectors.append
    pure = True
    for position, point in enumerate(items):
        if isinstance(point, StreamPoint):
            pure = False
            vector = point.vector
        else:
            try:
                vector = tuple(map(float, point))
            except (TypeError, ValueError, OverflowError) as error:
                raise invalid_point(
                    position, f"is not a sequence of numbers ({error})"
                ) from error
        if len(vector) != dim:
            raise invalid_point(
                position,
                f"has dimension {len(vector)}, expected {dim}",
                DimensionMismatchError,
            )
        append(vector)
    return items, vectors, pure


def materialize_chunk(
    points: Iterable[StreamPoint | Sequence[float]],
    dim: int,
    next_index: int,
    *,
    geometry: ChunkGeometry | None = None,
    window: WindowSpec | None = None,
    latest: StreamPoint | None = None,
) -> tuple[list[StreamPoint], list[tuple[float, ...]]]:
    """Materialise a chunk into StreamPoints: ``(points, vectors)``.

    The row checks of the ingestion boundary: coercion and dimension
    (:func:`coerce_rows`) and, when ``window`` is given, window order -
    every point's expiry key at least its predecessor's, the first
    point's at least ``latest``'s.  The first violation raises
    :class:`~repro.errors.ParameterError`.

    ``geometry`` may pass the chunk's precomputed
    :class:`ChunkGeometry`: when it cached the chunk's own coercion
    (see :func:`_reusable_vectors`) the per-point float coercion is
    skipped and the StreamPoints are built straight from the cached
    tuples, which the geometry's builder already checked.
    """
    vectors = _reusable_vectors(points, dim, geometry)
    pure = True
    if vectors is None:
        items, vectors, pure = coerce_rows(points, dim)
    if pure:
        materialized = [
            StreamPoint(vector, index)
            for index, vector in enumerate(vectors, next_index)
        ]
    else:
        materialized = [
            item if isinstance(item, StreamPoint) else StreamPoint(vector, index)
            for index, (item, vector) in enumerate(zip(items, vectors), next_index)
        ]
    if window is not None:
        key_of = window.expiry_key
        previous = key_of(latest) if latest is not None else -math.inf
        for position, point in enumerate(materialized):
            key = key_of(point)
            if key < previous:
                raise invalid_point(
                    position,
                    f"arrives out of window order (expiry key {key} after "
                    f"{previous})",
                )
            previous = key
    return materialized, vectors


def prepare_chunk(
    config: SamplerConfig,
    points: Iterable[StreamPoint | Sequence[float]],
    next_index: int,
    *,
    geometry: ChunkGeometry | None = None,
    window: WindowSpec | None = None,
    latest: StreamPoint | None = None,
) -> tuple[
    list[StreamPoint],
    list[tuple[float, ...]],
    ChunkGeometry | None,
    list[int],
]:
    """The validating prologue of the batched ``process_many`` overrides.

    Checks the whole chunk before the caller mutates anything:
    :func:`materialize_chunk` (coercion, dimension, window order
    against ``latest``), then the cells - on a caller-supplied
    ``geometry`` that is :meth:`~ChunkGeometry.valid_for` this chunk
    (its builder checked them), else while computing one
    (:func:`compute_chunk_geometry`).  Returns ``(points, vectors,
    geometry, cell_hashes)``; ``cell_hashes`` is empty for a chunk below
    :data:`MIN_VECTOR_CHUNK`, which the caller feeds to ``insert``.
    """
    pts, vectors = materialize_chunk(
        points,
        config.dim,
        next_index,
        geometry=geometry,
        window=window,
        latest=latest,
    )
    if geometry is None or not geometry.valid_for(config, vectors):
        geometry = compute_chunk_geometry(config, vectors)
    cell_hashes = geometry.cell_hashes if geometry is not None else []
    return pts, vectors, geometry, cell_hashes
