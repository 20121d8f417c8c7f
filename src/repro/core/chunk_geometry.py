"""Per-chunk vectorised geometry: the precompute object of the batch paths.

A :class:`ChunkGeometry` is built **once per chunk** and carries, for
every point of the chunk, the geometry the samplers' ``process_many``
overrides would otherwise recompute point by point in Python:

* the grid cell (as the usual int tuple, ready for dict keys),
* the cell's base-hash value (memo-aware: cells already in the config's
  shared ``cell_hash_memo`` are served from it, the rest are hashed in
  one vectorised pass and memoised),
* lazily, the fractional in-cell positions, the conservative
  high-dimensional ignore probe (:meth:`ChunkGeometry.high_dim_ignorable`)
  and the per-point ``adj(p)`` hash tuples
  (:meth:`ChunkGeometry.adj_hashes`, which switches itself from the
  scalar DFS to the vectorised enumeration when a chunk turns out to be
  founding-heavy).

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

Every batched ``process_many`` has exactly one ingestion path per point:
:func:`prepare_chunk` materialises the chunk and supplies its geometry,
the loop runs over the prefix the geometry covers, and every point it
does not cover - a chunk below :data:`MIN_VECTOR_CHUNK`, or the tail
from the first point the int64 path cannot carry - goes through the
sampler's own ``insert``, one point at a time.  ``insert`` is the oracle
the batch paths are checked against, so no loop carries a second,
inlined scalar cell/hash computation.

This is the leaf home of the engine-facing
:func:`repro.engine.batching.compute_chunk_geometry` (the core package
cannot import the engine without a cycle, exactly like
:func:`~repro.core.base.chunked`).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.base import _CELL_MEMO_LIMIT, SamplerConfig
from repro.geometry import kernels
from repro.geometry.grid import Cell
from repro.streams.point import StreamPoint

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


def _hash_cells_list(
    config: SamplerConfig, coords: "np.ndarray"
) -> list[int]:
    """Base-hash values of int64 cell rows, memo-aware, as a plain list.

    The cell ids are computed in one vectorised pass
    (:func:`repro.geometry.kernels.cell_ids_chunk`); known ids are
    served from the config's shared ``cell_id_hash_memo`` (an int-keyed
    dict probe - near-duplicate chunks revisit the same few cells
    constantly), the missing ones are hashed in one array call and
    memoised.  A cell's base hash is by definition a function of its
    cell id, so the values are identical to ``config.cell_hash(cell)``
    per row - the memo is a pure cache.
    """
    if coords.shape[0] == 0:
        return []
    ids = kernels.cell_ids_chunk(coords)
    id_list = ids.tolist()
    memo = config.cell_id_hash_memo
    memo_get = memo.get
    hashes = [memo_get(cell_id) for cell_id in id_list]
    if None in hashes:
        missing = [
            index for index, value in enumerate(hashes) if value is None
        ]
        hashed = config.hash.value_chunk(
            ids[np.array(missing, dtype=np.intp)]
        ).tolist()
        if len(memo) + len(missing) >= _CELL_MEMO_LIMIT:
            memo.clear()
        for position, index in enumerate(missing):
            value = hashed[position]
            hashes[index] = value
            memo[id_list[index]] = value
    return hashes


class ChunkGeometry:
    """Vectorised per-chunk geometry (see the module docstring).

    Instances are created by :func:`compute_chunk_geometry`;
    ``cell_hashes`` is a plain Python list aligned with the chunk's
    points (the hot loops index it directly), cell *tuples* are built
    lazily per point (:meth:`cell_at` - only candidate foundings and the
    dim<=2 ignore filter ever need them), and the arrays behind the
    other lazy products are kept private.  ``n`` may be *shorter* than
    the chunk when a point's coordinates cannot be carried in the int64
    vector path (non-finite, or beyond ``2^62`` cells): consumers feed
    the points from there on to ``insert``, which reproduces the
    per-point error semantics exactly.

    ``source_vectors``/``pure_coords`` carry the chunk's *coercion*
    result when the builder performed one: ``source_vectors`` is the
    full chunk's coerced float tuples (covering the whole chunk even
    when ``n`` was truncated) and ``pure_coords`` is ``True`` only when
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
        "_ignorable",
        "_ignorable_mask",
        "_low_ignorable",
        "_low_ignorable_mask",
        "_adj_table",
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
        self._ignorable: list[bool] | None = None
        self._ignorable_mask = -1
        self._low_ignorable: list[bool] | None = None
        self._low_ignorable_mask = -1
        self._adj_table: list[tuple[int, ...]] | None = None
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
        config must be the same object, the covered prefix must fit, and
        the covered endpoints must be the very vectors of the chunk.
        Rejection is cheap and safe - the consumer just recomputes.
        (NaN endpoints fail the equality check and force a recompute,
        which is the conservative direction.)
        """
        n = self.n
        if config is not self.config or n > len(vectors):
            return False
        own = self._vectors
        if vectors is own:
            # The pipeline handed the shard this geometry's own coerced
            # tuples (see ``BatchPipeline.submit``): trivially valid,
            # skip the endpoint comparisons.
            return True
        return n == 0 or (
            vectors[0] == own[0] and vectors[n - 1] == own[n - 1]
        )

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

    def high_dim_ignorable(self, mask: int) -> list[bool] | None:
        """The conservative sampled-cell probe for this chunk at ``mask``.

        ``True`` entries certainly have no sampled cell in ``adj(p)``
        beyond their own cell, so a point whose own cell is unsampled
        can be dropped without enumerating ``adj(p)`` - the
        high-dimensional twin of the dim<=2 conservative-neighbourhood
        filter.  Returns ``None`` when the grid's cells are not strictly
        larger than alpha (the probe's premise; the caller then runs the
        exact path for every point).  Verdicts stay valid when the rate
        doubles mid-chunk (decisions nest - the sampled set only
        shrinks), so one probe per chunk suffices.
        """
        if self._ignorable_mask == mask:
            return self._ignorable
        config = self.config
        probe = kernels.high_dim_ignore_probe(
            self._coords,
            self.fracs,
            config.grid.side,
            config.alpha,
            mask,
            lambda rows: np.array(
                _hash_cells_list(config, rows), dtype=np.uint64
            ),
        )
        self._ignorable = probe.tolist() if probe is not None else None
        self._ignorable_mask = mask
        return self._ignorable

    def low_dim_ignorable(self, mask: int) -> list[bool] | None:
        """The exact "no sampled cell in ``adj(p)``" verdicts at ``mask``.

        The dim<=2 twin of :meth:`high_dim_ignorable`, but *exact*
        rather than conservative (see
        :func:`repro.geometry.kernels.low_dim_ignore_probe`): ``True``
        entries are certainly ignored by the founding path when their
        own cell is unsampled, ``False`` entries certainly have a
        sampled adjacency cell and can skip the scalar corner filter.
        Lazy - chunks whose points all match tracked groups never pay
        for the enumeration - and cached per mask; ``True`` verdicts
        stay valid across mid-chunk rate doublings (decisions nest).
        Returns ``None`` when the adjacency enumeration cannot serve
        this configuration (the caller keeps the scalar corner filter).
        """
        if self._low_ignorable_mask == mask:
            return self._low_ignorable
        config = self.config
        probe = kernels.low_dim_ignore_probe(
            self._coords,
            self.fracs,
            config.grid.side,
            config.alpha,
            mask,
            lambda rows: np.array(
                _hash_cells_list(config, rows), dtype=np.uint64
            ),
        )
        self._low_ignorable = probe.tolist() if probe is not None else None
        self._low_ignorable_mask = mask
        return self._low_ignorable

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
        flat_hashes = _hash_cells_list(config, flat_cells)
        table: list[tuple[int, ...]] = []
        position = 0
        for count in counts.tolist():
            table.append(tuple(flat_hashes[position : position + count]))
            position += count
        self._adj_start = start
        self._adj_table = table
        # Fresh counting window past the block: the next block is only
        # computed if founding density stays high beyond it.
        self._adj_requests = 0
        self._adj_window_start = stop
        return True


def _geometry_from_array(
    config: SamplerConfig,
    vectors: Sequence[tuple[float, ...]],
    array: "np.ndarray",
    *,
    source_vectors: list[tuple[float, ...]] | None = None,
    pure_coords: bool = False,
) -> ChunkGeometry | None:
    """Shared builder core over a prebuilt ``(total, dim)`` float array."""
    grid = config.grid
    total = len(vectors)
    shifted = array - np.array(grid.offset, dtype=np.float64)
    cells_f = kernels.cell_coords_chunk(shifted, grid.side)
    with np.errstate(invalid="ignore"):
        good = np.all(
            np.isfinite(cells_f) & (np.abs(cells_f) < kernels.COORD_LIMIT),
            axis=1,
        )
    if bool(good.all()):
        n = total
    else:
        # Truncate at the first point the int64 path cannot carry; the
        # consumer feeds the tail to insert(), which reproduces the exact
        # behaviour (including the exception for non-finite coordinates).
        n = int(np.argmin(good))
        if n < MIN_VECTOR_CHUNK:
            return None
        shifted = shifted[:n]
        cells_f = cells_f[:n]
    coords = cells_f.astype(np.int64)
    cell_hashes = _hash_cells_list(config, coords)
    return ChunkGeometry(
        config,
        # Keep the caller's list object when it is fully covered so the
        # ``valid_for``/``_reusable_vectors`` identity fast paths can
        # hit (a full-length slice would copy).
        vectors if n == total else vectors[:n],
        shifted,
        cells_f,
        coords,
        cell_hashes,
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
    """Build the chunk's :class:`ChunkGeometry`, or ``None``.

    ``vectors`` must all have the config's dimension (the materialising
    callers guarantee it).  Returns ``None`` when the chunk is too small
    to amortise the array setup, or when fewer than
    :data:`MIN_VECTOR_CHUNK` leading points are vectorisable - the batch
    loops then feed the whole chunk to ``insert``.

    ``source_vectors``/``pure_coords`` are recorded on the geometry for
    :func:`materialize_chunk`'s coercion-reuse fast path (see
    :class:`ChunkGeometry`); builders that coerced the whole chunk
    themselves pass them so downstream materialisation is free.
    """
    total = len(vectors)
    if total < MIN_VECTOR_CHUNK:
        return None
    dim = config.dim
    # fromiter over a flattened view beats np.array on a list of tuples
    # by ~2x; the callers guarantee rectangular input of width dim.
    array = np.fromiter(
        chain.from_iterable(vectors), np.float64, count=total * dim
    ).reshape(total, dim)
    return _geometry_from_array(
        config,
        vectors,
        array,
        source_vectors=source_vectors,
        pure_coords=pure_coords,
    )


def geometry_from_array(
    config: SamplerConfig, array: "np.ndarray"
) -> tuple[list[tuple[float, ...]], ChunkGeometry | None]:
    """Rebuild a chunk's ``(vectors, geometry)`` from its float array.

    The zero-copy transport's worker-side entry point: the submitter
    shipped the chunk as a contiguous ``(n, dim)`` float64 array, so the
    coerced tuples are recovered with one ``tolist`` pass (value-
    identical to per-point ``tuple(float(x) for x in row)`` - float64
    round-trips exactly) and the geometry is built without re-flattening
    through ``fromiter``.  ``geometry`` is ``None`` on the same terms as
    :func:`compute_chunk_geometry` (chunk below :data:`MIN_VECTOR_CHUNK`,
    unvectorisable prefix); ``vectors`` always
    covers the full chunk.  The returned geometry carries the vectors as
    its coercion source (``pure_coords``), so the consuming sampler's
    materialisation reuses them instead of coercing again.
    """
    if array.ndim != 2 or array.shape[1] != config.dim:
        raise ValueError(
            f"expected a (n, {config.dim}) array, got shape {array.shape!r}"
        )
    # Tuple recovery off the hot path: per-column tolist then one zip
    # builds every row tuple at C speed - faster than the nested
    # tolist + per-row tuple() and than regrouping a flat tolist
    # through iterator tricks.  Values are identical either way -
    # tolist yields Python floats.
    vectors = list(zip(*array.T.tolist()))
    if len(vectors) < MIN_VECTOR_CHUNK:
        return vectors, None
    geometry = _geometry_from_array(
        config,
        vectors,
        np.asarray(array, dtype=np.float64),
        source_vectors=vectors,
        pure_coords=True,
    )
    return vectors, geometry


def feed_copies_shared(
    copies: Sequence, points: Iterable[StreamPoint | Sequence[float]]
) -> int:
    """Shared-geometry batch path of the multi-copy wrappers (k-sample, F0).

    Like :func:`repro.core.base.materialize_and_feed` - raw coordinates
    are materialised once into :class:`StreamPoint` objects so all
    copies agree on arrival indices, then every copy ingests the shared
    chunk - but the chunk's float coercion and its flattened float64
    array are computed **once** and each copy's
    :class:`ChunkGeometry` is derived from that one array.  The grid
    derivation itself (offset shift, cell coordinates, cell hashing) is
    necessarily per copy - each copy owns an independently seeded
    :class:`~repro.core.base.SamplerConfig`, so their grids and hashes
    differ by construction - but the per-copy ``np.fromiter`` flatten
    and the per-element ``float()`` coercion the copies would otherwise
    repeat are gone.

    The shared array is only built when the coerced rows are provably
    rectangular at the wrappers' dimension (a cheap ``len`` sweep): a
    ragged chunk falls back to per-copy geometry computation, which
    reproduces the per-copy dimension-error semantics exactly.  Error
    semantics match :func:`materialize_and_feed`: a coercion failure or
    a copy-side rejection leaves every copy with exactly the valid
    prefix before the error propagates.

    Returns the number of points ingested.
    """
    index = copies[0].points_seen
    chunk: list[StreamPoint] = []
    vectors: list[tuple[float, ...]] = []
    append_point = chunk.append
    append_vector = vectors.append
    error: BaseException | None = None
    try:
        for point in points:
            if isinstance(point, StreamPoint):
                vector = point.vector
            else:
                vector = tuple(float(x) for x in point)
                point = StreamPoint(vector, index)
            append_point(point)
            append_vector(vector)
            index += 1
    except BaseException as exc:
        # Per-point ingestion would have fed the valid prefix to every
        # copy before hitting the bad coordinate; match that exactly.
        error = exc
    total = len(chunk)
    geometries: list[ChunkGeometry | None] = [None] * len(copies)
    if total >= MIN_VECTOR_CHUNK:
        dim = copies[0].dim
        if all(len(vector) == dim for vector in vectors):
            array = np.fromiter(
                chain.from_iterable(vectors), np.float64, count=total * dim
            ).reshape(total, dim)
            geometries = [
                _geometry_from_array(copy._config, vectors, array)
                for copy in copies
            ]
    first = copies[0]
    before = first.points_seen
    try:
        first.process_many(chunk, geometry=geometries[0])
    except BaseException:
        # First copy rejected a point mid-chunk: the rejection is
        # deterministic per point, so the other copies accept exactly
        # the prefix it ingested (their full-chunk geometries cannot
        # serve the shorter prefix and are dropped - valid_for would
        # reject them anyway).
        prefix = first.points_seen - before
        for copy in copies[1:]:
            copy.process_many(chunk[:prefix])
        raise
    for copy, geometry in zip(copies[1:], geometries[1:]):
        copy.process_many(chunk, geometry=geometry)
    if error is not None:
        raise error
    return total


def _reusable_vectors(
    points, dim: int, geometry: ChunkGeometry | None
) -> list[tuple[float, ...]] | None:
    """The geometry's cached coercion of ``points``, if provably theirs.

    Reuse requires the geometry to have coerced pure coordinate rows
    (``pure_coords`` - StreamPoint inputs carry arrival metadata a
    rebuild would lose) covering a chunk of the same length and
    dimension whose endpoints coerce to the cached endpoints - the same
    endpoint-trust model as :meth:`ChunkGeometry.valid_for`.  The
    identity case (``points is source_vectors``) is the worker-process
    path, where :func:`geometry_from_array` built both together.
    """
    if geometry is None or not geometry.pure_coords:
        return None
    source = geometry.source_vectors
    if source is None:
        return None
    if points is source:
        return source
    if (
        not isinstance(points, (list, tuple))
        or len(points) != len(source)
        or not source
        or len(source[0]) != dim
        or isinstance(points[0], StreamPoint)
        or isinstance(points[-1], StreamPoint)
    ):
        return None
    try:
        if (
            tuple(float(x) for x in points[0]) != source[0]
            or tuple(float(x) for x in points[-1]) != source[-1]
        ):
            return None
    except Exception:
        return None
    return source


def materialize_chunk(
    points: Iterable[StreamPoint | Sequence[float]],
    dim: int,
    next_index: int,
    dim_error: Callable[[int], Exception],
    *,
    coerce: bool = True,
    geometry: ChunkGeometry | None = None,
) -> tuple[
    list[StreamPoint],
    list[tuple[float, ...]],
    BaseException | None,
    StreamPoint | None,
]:
    """Materialise a chunk into StreamPoints, stopping at the first bad one.

    Returns ``(points, vectors, error, offender)``.  The valid prefix is
    complete and dimension-checked; ``error`` is the exception the
    per-point path would have raised at the first invalid point (a
    coercion failure, or ``dim_error(actual_dim)`` for a dimension
    mismatch - ``offender`` then carries the mismatched StreamPoint for
    callers whose per-point path still evicts with it before raising).
    The batch paths ingest the prefix first and re-raise ``error``
    afterwards, which leaves exactly the state per-point ingestion
    leaves: every point before the failure processed, nothing after it.

    ``geometry`` may pass the chunk's precomputed
    :class:`ChunkGeometry`: when it cached the chunk's own coercion
    (see :func:`_reusable_vectors`) the per-point float coercion is
    skipped entirely and the StreamPoints are built straight from the
    cached tuples - a geometry built from coordinate rows guarantees
    every row coerced and dimension-checked cleanly, so the fast path
    cannot miss an error the slow path would raise.

    ``coerce=False`` (the fixed-rate contract) requires StreamPoint
    inputs; raw sequences then fail with the same ``AttributeError`` the
    per-point path produces.
    """
    if coerce:
        reused = _reusable_vectors(points, dim, geometry)
        if reused is not None:
            return (
                [
                    StreamPoint(vector, index)
                    for index, vector in enumerate(reused, next_index)
                ],
                reused,
                None,
                None,
            )
    materialized: list[StreamPoint] = []
    vectors: list[tuple[float, ...]] = []
    error: BaseException | None = None
    offender: StreamPoint | None = None
    index = next_index
    append_point = materialized.append
    append_vector = vectors.append
    try:
        for point in points:
            if isinstance(point, StreamPoint):
                vector = point.vector
                if len(vector) != dim:
                    error = dim_error(len(vector))
                    offender = point
                    break
            elif coerce:
                vector = tuple(float(x) for x in point)
                if len(vector) != dim:
                    error = dim_error(len(vector))
                    break
                point = StreamPoint(vector, index)
            else:
                vector = point.vector  # AttributeError, as per-point does
            append_point(point)
            append_vector(vector)
            index += 1
    except BaseException as exc:  # re-raised by the caller after the prefix
        error = exc
    return materialized, vectors, error, offender


def prepare_chunk(
    config: SamplerConfig,
    points: Iterable[StreamPoint | Sequence[float]],
    next_index: int,
    dim_error: Callable[[int], Exception],
    *,
    coerce: bool = True,
    geometry: ChunkGeometry | None = None,
) -> tuple[
    list[StreamPoint],
    list[tuple[float, ...]],
    BaseException | None,
    StreamPoint | None,
    ChunkGeometry | None,
    list[int],
]:
    """The shared prologue of the batched ``process_many`` overrides.

    Materialises the chunk (:func:`materialize_chunk`), keeps a
    caller-supplied ``geometry`` only if it is
    :meth:`~ChunkGeometry.valid_for` this chunk, and otherwise computes
    one.  Returns ``(points, vectors, error, offender, geometry,
    cell_hashes)``: the first four are :func:`materialize_chunk`'s,
    ``cell_hashes`` is the geometry's list (empty without a geometry),
    so ``len(cell_hashes)`` is the covered prefix.  The caller runs its
    loop over that prefix and feeds ``points[len(cell_hashes):]`` to
    ``insert``.
    """
    pts, vectors, error, offender = materialize_chunk(
        points,
        config.dim,
        next_index,
        dim_error,
        coerce=coerce,
        geometry=geometry,
    )
    if geometry is None or not geometry.valid_for(config, vectors):
        geometry = compute_chunk_geometry(config, vectors)
    cell_hashes = geometry.cell_hashes if geometry is not None else []
    return pts, vectors, error, offender, geometry, cell_hashes
