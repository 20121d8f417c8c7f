"""The validated chunk: the one value batch ingestion hands around.

:func:`chunk_geometry_for` is the ingestion boundary.  It validates a
chunk - a list or tuple of coordinate rows and
:class:`~repro.streams.point.StreamPoint` objects, or a numeric
``(n, dim)`` numpy array - exactly once, before anything mutates: float
coercion, dimension, and a cell the int64 path can carry.  One
:class:`~repro.errors.ParameterError` names an offending position, so a
batch is ingested whole or not at all.  The result is a
:class:`ChunkGeometry`, which owns the chunk's float64 array (and its
items when one is a StreamPoint, whose arrival metadata the array
cannot carry).

Every consumer takes that one object: a sampler's ``process_many``
accepts it as its chunk, the pipeline's serial executor hands it to
the owning shard, the process executor ships ``geometry.array`` through
shared memory and the remote executor encodes it.  Worker processes
rebuild it from the array they receive - a ``ChunkGeometry`` is a pure
function of the chunk's coordinates and the shared
:class:`~repro.core.base.SamplerConfig`, and carries **no sampler
state** - so they validate it again before touching their replicas.

Beside the validated array a geometry serves, for every point of the
chunk, what the samplers' ``process_many`` overrides would otherwise
recompute point by point in Python, each computed lazily on first use:

* the coerced float tuples (:attr:`ChunkGeometry.vectors` - recovered
  from the array in one pass when the chunk was an array),
* the cell's base-hash value (:attr:`ChunkGeometry.cell_hash_array`,
  cell ids and hashes in one vectorised pass; :attr:`cell_hashes
  <ChunkGeometry.cell_hashes>` as a list) and the grid cell as the
  usual int tuple (:meth:`ChunkGeometry.cell_at`, foundings only),
* the points as :class:`~repro.streams.point.StreamPoint` objects -
  all of them, or only those a loop will visit
  (:meth:`ChunkGeometry.stream_points`),
* one ``adj(p)`` product: the
  :func:`~repro.geometry.kernels.adjacent_cells_chunk` enumeration of
  the whole chunk (from the points' fractional in-cell positions), in
  row blocks only when the chunk is too large for the kernel's table
  bound, hashed and kept as numpy arrays
  (:meth:`ChunkGeometry.adjacency_arrays`).
  It serves the per-point ``adj(p)`` hash tuples
  (:meth:`ChunkGeometry.adj_hashes`), their survival exponents
  (:meth:`ChunkGeometry.adj_tz`) and the infinite-window ignore test
  (:meth:`ChunkGeometry.survival_exponents`); whichever is asked first
  builds it.  A chunk whose enumeration declines (a grid so fine that
  not one point fits the table bound) is served by the scalar DFS, as
  ``insert`` serves every point.

A transport that only ships the array therefore pays for the
validation alone.  The values are bit-identical to the scalar
computations of ``insert`` (enforced by
``tests/test_geometry_kernels.py``), so batch ingestion through a
``ChunkGeometry`` remains ``state_fingerprint``-equivalent to per-point
ingestion.

Every batched ``process_many`` has exactly one ingestion path per point.
It validates the chunk first - :func:`prepare_chunk` (window order
included) for the sliding-window and heavy-hitter loops, which run
over the whole chunk, :func:`resolve_chunk` for the infinite window -
and a chunk below :data:`MIN_VECTOR_CHUNK` goes through the sampler's
own ``insert``, one point at a time.  The infinite-window loop visits
only the chunk's *active* points
(:func:`repro.core.infinite_window.active_indices`, one numpy pass
over :attr:`~ChunkGeometry.cell_hash_array` and the ``adj(p)``
product): every other point is one ``insert`` would count and then
ignore at every rate the chunk reaches - the rate only doubles, and
sampling is nested across rates (Fact 1(b)) - so it is counted as an
arrival and never becomes a StreamPoint.  ``insert`` is the oracle the
batch paths are checked against, so no loop carries a second, inlined
scalar cell/hash computation.  :func:`validate_chunk` is the same
check against a bare :class:`~repro.geometry.grid.Grid`, for callers
that build no geometry.

This is the leaf home of :func:`repro.engine.batching.chunk_geometry_for`
(the core package cannot import the engine without a cycle, exactly
like :func:`~repro.core.base.chunked`).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.base import (
    SamplerConfig,
    check_vector,
    coerce_point,
    invalid_point,
    is_numeric_array,
)
from repro.errors import DimensionMismatchError, ParameterError
from repro.geometry import kernels
from repro.geometry.grid import Cell, Grid
from repro.streams.point import StreamPoint
from repro.streams.windows import WindowSpec

#: Chunks smaller than this are ingested point by point through
#: ``insert``: the fixed cost of the vectorised passes would exceed what
#: they save.
MIN_VECTOR_CHUNK = 4

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
    """A validated chunk and its lazy per-point geometry (module docstring).

    Built by :func:`chunk_geometry_for`; the constructor is the cell
    check, so a geometry always covers its whole chunk (``n`` points).
    ``array`` is the chunk's own ``(n, dim)`` float64 array - a caller
    may reuse its buffer after the build.  ``items`` is the chunk as a
    list when one of them is a :class:`~repro.streams.point.StreamPoint`
    (their arrival metadata), else ``None``: coordinate rows live in
    ``array`` alone.  ``len()`` and iteration follow the chunk - the
    items, or the coerced tuples - so a geometry is itself a chunk any
    ``process_many`` accepts.

    ``cell_hashes`` is a plain Python list aligned with the chunk's
    points (the hot loops index it directly); cell *tuples* are built
    per point (:meth:`cell_at` - only candidate foundings need them),
    and the arrays behind the other lazy products are kept private.
    """

    __slots__ = (
        "config",
        "n",
        "array",
        "items",
        "_vectors",
        "_cell_hash_array",
        "_cell_hashes",
        "_shifted",
        "_cells_f",
        "_coords",
        "_adjacency",
    )

    def __init__(
        self,
        config: SamplerConfig,
        array: "np.ndarray",
        *,
        items: list | None = None,
        vectors: list[tuple[float, ...]] | None = None,
    ) -> None:
        _check_shape(array, config.dim)
        self._shifted, self._cells_f = _valid_cells(config.grid, array)
        self.config = config
        self.n = len(array)
        self.array = array
        self.items = items
        self._vectors = vectors
        self._cell_hash_array: "np.ndarray | None" = None
        self._cell_hashes: list[int] | None = None
        self._coords = self._cells_f.astype(np.int64)
        self._adjacency: tuple | None = None

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator:
        return iter(self.items if self.items is not None else self.vectors)

    def valid_for(self, config: SamplerConfig, chunk) -> bool:
        """Whether this precompute may serve ``chunk`` under ``config``.

        Guards the ``process_many(..., geometry=...)`` surface against a
        caller handing a geometry built for a *different* chunk (a stale
        variable, a retry loop refilling the previous buffer): the
        config must be the same object and the chunk must validate to
        the same float64 bits and StreamPoint arrivals.  Rejection is
        safe - the consumer builds the chunk's own geometry, which
        raises for an invalid chunk.
        """
        if config is not self.config:
            return False
        if not isinstance(chunk, ChunkGeometry):
            try:
                chunk = chunk_geometry_for(config, chunk)
            except ParameterError:
                return False
        return chunk is self or (
            chunk.array.shape == self.array.shape
            and chunk.array.tobytes() == self.array.tobytes()
            and _arrivals(chunk.items) == _arrivals(self.items)
        )

    # ------------------------------------------------------------------ #
    # lazy products
    # ------------------------------------------------------------------ #

    @property
    def vectors(self) -> list[tuple[float, ...]]:
        """Each point's float tuple (a StreamPoint's own vector).

        Recovered from the array when the chunk was one: per-column
        ``tolist`` then one ``zip`` builds every row tuple at C speed,
        value-identical to per-point ``tuple(float(x) for x in row)``
        (float64 round-trips exactly).
        """
        vectors = self._vectors
        if vectors is None:
            vectors = list(zip(*self.array.T.tolist()))
            self._vectors = vectors
        return vectors

    @property
    def cell_hash_array(self) -> "np.ndarray":
        """Per-point base-hash values of the points' cells (uint64)."""
        hashes = self._cell_hash_array
        if hashes is None:
            hashes = _hash_cells(self.config, self._coords)
            self._cell_hash_array = hashes
        return hashes

    @property
    def cell_hashes(self) -> list[int]:
        """:attr:`cell_hash_array` as a Python list."""
        hashes = self._cell_hashes
        if hashes is None:
            hashes = self.cell_hash_array.tolist()
            self._cell_hashes = hashes
        return hashes

    def cell_at(self, index: int) -> Cell:
        """Cell tuple of point ``index`` (foundings only: one row is
        converted, never the whole chunk)."""
        return tuple(self._coords[index].tolist())

    @property
    def fracs(self) -> "np.ndarray":
        """Per-point fractional in-cell positions (the input of the
        ``adj(p)`` enumeration, computed on each access)."""
        return kernels.fractional_positions_chunk(
            self._shifted, self._cells_f, self.config.grid.side
        )

    def stream_points(
        self, next_index: int, indices: Sequence[int] | None = None
    ) -> list[StreamPoint]:
        """The chunk's points - or only those at ``indices`` - as
        StreamPoints, raw row ``i`` numbered ``next_index + i`` (a
        StreamPoint item is kept as it is).

        ``indices`` are increasing positions; a subset of an array
        chunk reads just its own rows, so no float tuple is built for
        any other point.
        """
        if indices is None or len(indices) == self.n:
            indices = range(self.n)
            vectors = self.vectors
        elif self._vectors is not None:
            vectors = [self._vectors[i] for i in indices]
        else:
            vectors = list(zip(*self.array[indices].T.tolist()))
        items = self.items
        if items is None:
            return [
                StreamPoint(vector, next_index + i)
                for i, vector in zip(indices, vectors)
            ]
        points = []
        for i, vector in zip(indices, vectors):
            item = items[i]
            if not isinstance(item, StreamPoint):
                item = StreamPoint(vector, next_index + i)
            points.append(item)
        return points

    # ------------------------------------------------------------------ #
    # adjacency: one enumeration per chunk
    # ------------------------------------------------------------------ #

    def adjacency_arrays(self) -> tuple | None:
        """The chunk's ``adj(p)`` product, built on first use.

        :func:`~repro.geometry.kernels.adjacent_cells_chunk` over the
        chunk, hashed and kept as numpy arrays ``(hashes, starts,
        exponents)``: the flat uint64 hashes, point ``i``'s slice
        ``hashes[starts[i]:starts[i + 1]]`` and its
        :func:`~repro.geometry.kernels.max_trailing_zeros` exponent.
        The kernel's table bound caps each call: the rows go through
        in blocks of :func:`~repro.geometry.kernels.adjacency_block_rows`
        (one block for any usual chunk), halved while a later axis
        still outgrows the bound, and the block arrays are
        concatenated.  ``None`` when not even one point fits (a tiny
        ``grid_side``): every request then runs the scalar DFS.
        """
        product = self._adjacency
        if product is None:
            product = self._enumerate_blocks()
            self._adjacency = product
        return product or None

    def _enumerate_blocks(self) -> tuple:
        """:meth:`adjacency_arrays` built; ``()`` when it declines."""
        side, alpha = self.config.grid.side, self.config.alpha
        coords, fracs = self._coords, self.fracs
        hashes = [np.zeros(0, dtype=np.uint64)]
        counts = [np.zeros(0, dtype=np.int64)]
        block = min(self.n, kernels.adjacency_block_rows(side, alpha))
        start = 0
        while start < self.n:
            if block == 0:
                return ()
            stop = min(start + block, self.n)
            result = kernels.adjacent_cells_chunk(
                coords[start:stop], fracs[start:stop], side, alpha
            )
            if result is None:  # a later axis outgrew the table
                block = (stop - start) // 2
                continue
            cells, block_counts = result
            hashes.append(_hash_cells(self.config, cells))
            counts.append(block_counts)
            start = stop
        flat = np.concatenate(hashes)
        counts = np.concatenate(counts)
        starts = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        return flat, starts, kernels.max_trailing_zeros(flat, counts)

    def survival_exponents(self) -> list[int] | None:
        """Per-point survival exponents of the chunk's ``adj(p)`` hashes.

        The infinite-window ignore test: a point whose own cell is
        unsampled at rate ``2^k`` has no sampled cell in ``adj(p)`` -
        ``insert`` would ignore it - iff its exponent is below ``k``.
        The exponents do not depend on the rate, so one product serves
        every mid-chunk rate doubling, and the chunk's foundings read
        the same product through :meth:`adj_hashes`.  ``None`` when the
        enumeration declines; the caller then runs the exact founding
        path for every point.
        """
        product = self.adjacency_arrays()
        return None if product is None else product[2].tolist()

    def adj_hashes(self, index: int) -> tuple[int, ...]:
        """``adj(p)`` base-hash tuple for point ``index``.

        Value-identical to ``config.adj_hashes(vector, cell=cell)``:
        a slice of the chunk's one adjacency product, or the scalar DFS
        when the enumeration declined.
        """
        product = self.adjacency_arrays()
        if product is None:
            return self.config.adj_hashes(
                self.vectors[index], cell=self.cell_at(index)
            )
        hashes, starts, _ = product
        return tuple(hashes[starts[index] : starts[index + 1]].tolist())

    def adj_tz(self, index: int) -> int:
        """Survival exponent of point ``index``'s ``adj(p)`` hashes.

        Value-identical to :meth:`CandidateRecord.survival_exponent
        <repro.core.base.CandidateRecord.survival_exponent>` over
        :meth:`adj_hashes` ``(index)``, or ``-1`` - the record's "not yet
        computed" marker, so it is derived lazily - when the
        enumeration declined.
        """
        product = self.adjacency_arrays()
        return -1 if product is None else int(product[2][index])


def _arrivals(items: list | None) -> list | None:
    """The arrival metadata of a chunk's StreamPoint items."""
    if items is None:
        return None
    return [
        (item.index, item.time) if isinstance(item, StreamPoint) else None
        for item in items
    ]


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
    except (TypeError, ValueError, OverflowError):
        # A StreamPoint built around non-numeric values: name it.
        _check_vectors(grid, vectors)
        raise


def _check_shape(array: "np.ndarray", dim: int) -> None:
    if array.ndim != 2 or array.shape[1] != dim:
        reason = f"is not a row of an (n, {dim}) array {array.shape!r}"
        raise invalid_point(0, reason, DimensionMismatchError)


def _coerce(
    grid: Grid, chunk: Iterable[StreamPoint | Sequence[float]]
) -> tuple["np.ndarray", list | None, list[tuple[float, ...]] | None]:
    """The chunk's coercion and dimension check: ``(array, items, vectors)``.

    ``array`` is a fresh ``(n, dim)`` float64 array; ``items`` the chunk
    as a list when one is a StreamPoint, else ``None``; ``vectors`` the
    coerced tuples when the per-row coercion built them.  A numeric
    array skips that loop: one dtype cast (element-wise identical to
    ``float(x)`` for numeric dtypes) into a copy.
    """
    if is_numeric_array(chunk):
        _check_shape(chunk, grid.dim)
        return np.array(chunk, dtype=np.float64, order="C"), None, None
    items, vectors, pure = coerce_rows(chunk, grid.dim)
    array = _chunk_array(grid, vectors)
    return array, None if pure else list(items), vectors


def chunk_geometry_for(
    config: SamplerConfig,
    chunk: "ChunkGeometry | Iterable[StreamPoint | Sequence[float]]",
) -> ChunkGeometry:
    """Validate a chunk once and return it as a :class:`ChunkGeometry`.

    The ingestion boundary (see the module docstring): coercion,
    dimension and cells are checked before anything mutates, and the
    first invalid point raises :class:`~repro.errors.ParameterError`
    naming its position.  A geometry built for ``config`` passes
    through, and one built for another config is checked against
    ``config``'s grid from its array, so every consumer may call this on
    whatever chunk it was handed.
    """
    if isinstance(chunk, ChunkGeometry):
        if chunk.config is config:
            return chunk
        return ChunkGeometry(
            config, chunk.array, items=chunk.items, vectors=chunk._vectors
        )
    array, items, vectors = _coerce(config.grid, chunk)
    return ChunkGeometry(config, array, items=items, vectors=vectors)


def is_chunk(points) -> bool:
    """Whether ``process_many`` takes ``points`` whole - a list, tuple,
    numeric array or :class:`ChunkGeometry` - rather than streaming a
    one-shot iterable through ``extend`` in bounded chunks."""
    if isinstance(points, (list, tuple, ChunkGeometry)):
        return True
    return is_numeric_array(points)


def validate_chunk(grid: Grid, chunk: Sequence) -> None:
    """Validate a whole chunk against ``grid`` before anything mutates.

    The ingestion boundary for callers that build no geometry (the
    exact baseline): the checks of
    :func:`chunk_geometry_for` - every point must coerce to floats,
    have ``grid``'s dimension and a cell the int64 path can carry
    (finite coordinates, ``|(x - offset) // side| < 2^62``).  One
    :class:`~repro.errors.ParameterError` names an offending point's
    position and reason (rows are all checked before any cell is).
    """
    array, _, _ = _coerce(grid, chunk)
    _valid_cells(grid, array)


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
    """Shared-chunk batch path of the multi-copy wrappers (k-sample, F0).

    The chunk is validated once, against the first copy's config, and
    materialised once into :class:`StreamPoint` objects so all copies
    share them and agree on arrival indices; each copy's geometry is
    derived from that validated array (the grid products are per copy:
    each copy owns an independently seeded
    :class:`~repro.core.base.SamplerConfig`).  Deriving every
    copy's geometry is the cell check against every copy's grid, so it
    all happens before the first copy ingests; window order, identical
    for copies in lockstep, is checked by the first copy before it
    mutates.  An invalid chunk thus leaves every copy unchanged.
    Returns the number of points ingested.
    """
    first = copies[0]
    chunk = chunk_geometry_for(first._config, points)
    shared = chunk.stream_points(first.points_seen)
    geometries = [
        ChunkGeometry(
            copy._config, chunk.array, items=shared, vectors=chunk.vectors
        )
        for copy in copies
    ]
    for copy, geometry in zip(copies, geometries):
        copy.process_many(geometry)
    return chunk.n


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


def _check_window_order(
    points: list[StreamPoint], window: WindowSpec, latest: StreamPoint | None
) -> None:
    """Every point's expiry key at least its predecessor's, the first
    point's at least ``latest``'s; the first violation raises
    :class:`~repro.errors.ParameterError` naming its position."""
    key_of = window.expiry_key
    previous = key_of(latest) if latest is not None else -math.inf
    for position, point in enumerate(points):
        key = key_of(point)
        if key < previous:
            raise invalid_point(
                position,
                f"arrives out of window order (expiry key {key} after "
                f"{previous})",
            )
        previous = key


def resolve_chunk(
    config: SamplerConfig,
    points: "ChunkGeometry | Iterable[StreamPoint | Sequence[float]]",
    geometry: ChunkGeometry | None = None,
) -> ChunkGeometry:
    """``points`` validated (:func:`chunk_geometry_for`), served by a
    caller-supplied ``geometry`` when it is
    :meth:`~ChunkGeometry.valid_for` the chunk - with whatever it has
    already computed."""
    chunk = chunk_geometry_for(config, points)
    if geometry is not None and geometry.valid_for(config, chunk):
        return geometry
    return chunk


def prepare_chunk(
    config: SamplerConfig,
    points: "ChunkGeometry | Iterable[StreamPoint | Sequence[float]]",
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
    :func:`chunk_geometry_for` (coercion, dimension, cells - a
    :class:`ChunkGeometry` chunk built for this config passes straight
    through) and, when ``window`` is given, window order against
    ``latest``; a caller-supplied ``geometry`` may serve the chunk
    (:func:`resolve_chunk`).  Returns ``(points, vectors, geometry,
    cell_hashes)``; for a chunk below :data:`MIN_VECTOR_CHUNK`
    ``geometry`` is ``None`` and ``cell_hashes`` empty, and the caller
    feeds the points to ``insert``.
    """
    chunk = resolve_chunk(config, points, geometry)
    pts = chunk.stream_points(next_index)
    if window is not None:
        _check_window_order(pts, window, latest)
    if chunk.n < MIN_VECTOR_CHUNK:
        return pts, chunk.vectors, None, []
    return pts, chunk.vectors, chunk, chunk.cell_hashes
