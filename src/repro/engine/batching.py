"""Chunking and chunk-geometry utilities for the batched ingestion engine.

:func:`chunked` and the :class:`~repro.core.chunk_geometry.ChunkGeometry`
precompute are defined in the core package (leaf modules -
:meth:`~repro.core.base.StreamSampler.extend` chunks with the former,
the samplers' ``process_many`` overrides consume the latter, and the
core cannot import the engine package without a cycle); this module is
their engine-facing home, plus the pipeline-level geometry builder.

:func:`chunk_geometry_for` is where :class:`~repro.engine.pipeline.BatchPipeline`
builds one :class:`ChunkGeometry` per dealt chunk, so the shard that
receives the chunk (through whichever in-process executor) never
recomputes it; worker *processes* rebuild the geometry deterministically
inside their own ``process_many`` instead, which is state-equivalent
because a ``ChunkGeometry`` is a pure function of the chunk and the
shared config.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.base import SamplerConfig, chunked
from repro.core.chunk_geometry import (
    ChunkGeometry,
    coerce_rows,
    compute_chunk_geometry,
    geometry_from_array,
    is_numeric_array,
    materialize_chunk,
    validate_chunk,
)
from repro.streams.point import StreamPoint

__all__ = [
    "chunked",
    "ChunkGeometry",
    "compute_chunk_geometry",
    "chunk_geometry_for",
    "geometry_from_array",
    "materialize_chunk",
    "validate_chunk",
]


def chunk_geometry_for(
    config: SamplerConfig,
    chunk: Sequence[StreamPoint | Iterable[float]],
) -> ChunkGeometry | None:
    """Validate a chunk and build its geometry ahead of dealing it.

    Raises :class:`~repro.errors.ParameterError` for the first invalid
    point (the checks of
    :func:`~repro.core.chunk_geometry.validate_chunk`), so an invalid
    chunk never reaches a shard.  Returns ``None`` for a chunk below
    :data:`~repro.core.chunk_geometry.MIN_VECTOR_CHUNK`.

    The coerced tuples are cached on the returned geometry
    (``source_vectors``; ``pure_coords`` when no input point was a
    :class:`~repro.streams.point.StreamPoint`), so the shard's
    materialisation reuses this coercion instead of repeating it - the
    chunk is coerced exactly once per pipeline pass.
    """
    if is_numeric_array(chunk):
        # Numeric array chunks skip the per-row float() loop entirely:
        # one dtype cast (a no-op for float64 input), then the same
        # builder the worker-side transport uses.  Restricted to numeric
        # dtypes, where the cast is element-wise identical to float(x);
        # object arrays take the per-row coercion below.
        _, geometry = geometry_from_array(
            config, np.asarray(chunk, dtype=np.float64)
        )
        return geometry
    _, vectors, pure = coerce_rows(chunk, config.dim)
    return compute_chunk_geometry(
        config, vectors, source_vectors=vectors, pure_coords=pure
    )
