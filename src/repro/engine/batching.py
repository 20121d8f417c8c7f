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
    MIN_VECTOR_CHUNK,
    ChunkGeometry,
    compute_chunk_geometry,
    geometry_from_array,
    materialize_chunk,
)
from repro.streams.point import StreamPoint

__all__ = [
    "chunked",
    "ChunkGeometry",
    "compute_chunk_geometry",
    "chunk_geometry_for",
    "geometry_from_array",
    "materialize_chunk",
]


def chunk_geometry_for(
    config: SamplerConfig,
    chunk: Sequence[StreamPoint | Iterable[float]],
) -> ChunkGeometry | None:
    """Build a chunk's geometry ahead of dealing it to a shard.

    Returns ``None`` for chunks the vectorised path cannot serve -
    including any invalid point (wrong dimension, non-numeric
    coordinate): the shard's own ``process_many`` then builds what
    geometry it can itself and feeds the rest to ``insert``, which
    reproduces the per-point error semantics exactly.

    The coerced tuples are cached on the returned geometry
    (``source_vectors``; ``pure_coords`` when no input point was a
    :class:`~repro.streams.point.StreamPoint`), so the shard's
    materialisation reuses this coercion instead of repeating it - the
    chunk is coerced exactly once per pipeline pass.
    """
    if len(chunk) < MIN_VECTOR_CHUNK:
        return None
    dim = config.dim
    if (
        isinstance(chunk, np.ndarray)
        and chunk.ndim == 2
        and chunk.dtype.kind in "fiub"
    ):
        # Numeric array chunks skip the per-row float() loop entirely:
        # one dtype cast (a no-op for float64 input), then the same
        # builder the worker-side transport uses.  Restricted to numeric
        # dtypes, where the cast is element-wise identical to float(x);
        # object arrays fall through to the per-row loop below so exotic
        # elements keep their exact per-point coercion semantics.
        if chunk.shape[1] != dim:
            # The per-row loop would fail its dimension sweep on every
            # row; short-circuit to the same verdict.
            return None
        _, geometry = geometry_from_array(
            config, np.asarray(chunk, dtype=np.float64)
        )
        return geometry
    pure = True
    vectors = []
    try:
        for point in chunk:
            if isinstance(point, StreamPoint):
                pure = False
                vectors.append(point.vector)
            else:
                vectors.append(tuple(float(x) for x in point))
    except Exception:
        return None
    for vector in vectors:
        if len(vector) != dim:
            return None
    return compute_chunk_geometry(
        config, vectors, source_vectors=vectors, pure_coords=pure
    )
