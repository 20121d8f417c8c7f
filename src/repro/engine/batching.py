"""Chunking and the validated chunk, the engine-facing names.

:func:`chunked`, :func:`chunk_geometry_for` and the
:class:`~repro.core.chunk_geometry.ChunkGeometry` it returns are
defined in the core package (leaf modules -
:meth:`~repro.core.base.StreamSampler.extend` chunks with the first,
the samplers' ``process_many`` overrides validate through the second,
and the core cannot import the engine package without a cycle); this
module is their engine-facing home.

:func:`chunk_geometry_for` is where
:class:`~repro.engine.pipeline.BatchPipeline` validates each dealt
chunk, once, before any executor sees it; every executor then carries
that one object to the owning shard (see
:mod:`repro.engine.executors`).
"""

from __future__ import annotations

from repro.core.base import chunked
from repro.core.chunk_geometry import (
    ChunkGeometry,
    chunk_geometry_for,
    validate_chunk,
)

__all__ = [
    "chunked",
    "ChunkGeometry",
    "chunk_geometry_for",
    "validate_chunk",
]
