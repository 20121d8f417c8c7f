"""Batched ingestion engine: high-throughput, state-equivalent ingestion.

The seed reproduction fed every sampler one point at a time through
Python-level dispatch.  This package - together with the
``process_many`` overrides in :mod:`repro.core` and the batch hash
evaluators in :mod:`repro.hashing` - provides the batched hot path that
the ROADMAP's "heavy traffic" north star needs, plus the tooling that
keeps it honest.

The batch API contract
----------------------

Every sampler derives from :class:`repro.core.base.StreamSampler` and
obeys one invariant, *state equivalence*:

    ``sampler.process_many(batch)`` leaves the sampler in a state
    identical to ``for p in batch: sampler.insert(p)`` - same candidate
    records, same rates and counters, same RNG states - for every batch
    size, including singletons, uneven tails and empty batches.

Batching is therefore an implementation detail of throughput: no caller
can observe whether a stream arrived in batches or point by point.
:func:`repro.engine.equivalence.state_fingerprint` reifies "state" as a
comparable value; ``tests/test_engine.py`` is the deterministic
differential suite and ``tests/test_property_equivalence.py`` the
property-based one (Hypothesis-driven adversarial streams and batch
layouts against every registry key, shrinking on failure) that enforce
the contract, and ``benchmarks/bench_throughput.py`` measures what it
buys and gates the committed speedup floors (results tracked in
``BENCH_sliding.json``).

Where the speed comes from
--------------------------

* the vectorised geometry kernel layer
  (:mod:`repro.geometry.kernels` + the per-chunk
  :class:`~repro.core.chunk_geometry.ChunkGeometry` precompute): a
  whole chunk's cell coordinates, cell ids and cell hashes in a few
  numpy passes, bit-identical to the scalar geometry, and one
  ``adj(p)`` enumeration per chunk, built the first time a point asks
  for its adjacency and shared by every founding.  The geometry is
  also the validated chunk:
  :func:`repro.engine.batching.chunk_geometry_for` coerces and checks
  a list, tuple or numeric array once, and that one object travels
  from ``BatchPipeline.submit`` through every executor to the
  owning shard's ``process_many`` (numeric arrays never go through
  per-row coercion);
* the sampled-cell ignore test: a point whose group is untracked at
  the current rate needs no ``adj(p)`` hash tuple unless it lies
  within ``alpha`` of a *sampled* nearby cell - decided exactly, at
  any dimension and rate, by the chunk's ``adj(p)`` survival exponents
  (:meth:`~repro.core.chunk_geometry.ChunkGeometry.survival_exponents`,
  one per chunk).  The infinite window applies it to the whole chunk
  up front (:func:`~repro.core.infinite_window.active_indices`), so
  its loop visits, and materialises, only the points it can keep;
* the config-level scalar hash memo (``cell_hash_memo``): the scalar
  ``adj(p)`` enumeration (``insert``, and a chunk whose vectorised
  enumeration declined) revisits the same grid cells constantly, so each
  cell is hashed once - shared by every level of a sliding-window
  hierarchy and every shard of a pipeline;
* numpy Horner / splitmix64 evaluation over a whole array of cell ids
  (:meth:`~repro.hashing.kwise.KWiseHash.many_chunk` /
  :meth:`~repro.hashing.mix.SplitMix64.many_chunk`, reached through
  :meth:`~repro.hashing.sampling.SamplingHash.value_chunk`), which the
  chunk geometry calls on every cell id it hashes.

Extending the engine to a new sampler
-------------------------------------

The full step-by-step guide - protocol, spec, registry key, and every
test matrix to join - is ``docs/ADDING_A_SUMMARY.md``; in brief:

1. Derive from :class:`~repro.core.base.StreamSampler`; implementing
   :meth:`~repro.core.base.StreamSampler.insert` alone already gives you
   correct (looping) ``process_many`` and chunked ``extend``.
2. If the sampler is hot, override ``process_many``.  Replicate the
   insert path *operation-for-operation* (same mutations, same RNG
   draws), and validate the whole chunk before the first mutation
   (:func:`~repro.core.chunk_geometry.prepare_chunk`); hoist
   attribute lookups into locals and take per-point geometry from the
   chunk's :class:`~repro.core.chunk_geometry.ChunkGeometry`.  Defer
   pure counters (e.g. ``_ThresholdPolicy.observe``) only to points
   where nothing reads them.
3. Keep the *incremental-space contract*: ``space_words()`` must be
   served from counters maintained on every mutation (record add /
   remove / ``last``-point relink - see
   :meth:`repro.core.base.CandidateStore.relink_last` and the sliding
   hierarchy's per-level word counters), never by walking the record
   set, and the sampler must expose ``recount_space_words()`` as the
   from-scratch oracle.  ``tests/test_property_equivalence.py`` asserts
   counter == recount after every operation; the counters are also part
   of the state fingerprint, so drift fails the differential suites.
4. Teach :func:`repro.engine.equivalence.state_fingerprint` about any
   new state, and add the sampler to the differential matrix in
   ``tests/test_engine.py`` **and** to the property matrix in
   ``tests/test_property_equivalence.py`` (its registry-coverage test
   fails until the key is added).  A fingerprint mismatch on any seeded
   stream is a contract violation, not a flaky test.

Scale-out
---------

:class:`~repro.engine.pipeline.BatchPipeline` deals chunks round-robin
across the shards of a
:class:`~repro.distributed.coordinator.DistributedRobustSampler` (all
sharing one config) and answers queries from the sketch-sized merge;
``tests/test_distributed.py`` checks the merge against a single sampler
fed the interleaved union stream.  *Where* shard work runs is pluggable
(:mod:`repro.engine.executors`): the ``serial`` executor ingests chunks
inline, ``process`` ships them to worker processes holding shard
replicas - the wall-clock scaling path - and ``remote`` enqueues them
into a shared :class:`~repro.backends.StateBackend` served by
lease-holding workers on any machine
(:mod:`repro.engine.remote_worker`, chaos-tested by
``tests/test_remote_executor.py``).  A query first synchronises -
the executor's drain ships home only the states of shards whose
replicas live outside the coordinator - then merges every shard in one
pass
(:meth:`~repro.distributed.coordinator.DistributedRobustSampler.merged_sampler`).
Executor choice is never observable in state
(``tests/test_executors.py``).  The pipeline is part of the unified
API (:mod:`repro.api`, key ``"batch-pipeline"``): shards are
spec-constructed, the shard merge is the Summary protocol's
(:func:`~repro.core.infinite_window.merge_columns`, over the shards'
record columns, so a query rebuilds no shard object), and the
whole pipeline checkpoints mid-stream via ``to_state``/``from_state``
(resumed runs are fingerprint-identical when the interruption falls on
a chunk boundary - checkpoint between ``submit``/``extend`` calls; a
parallel pipeline synchronises its workers first).
:func:`repro.engine.resumable.run_resumable` automates this against a
pluggable :class:`repro.backends.StateBackend`: chunk-aligned
checkpoints committed under atomic compare-and-swap, so a killed run
resumes fingerprint-identical and two racing runs can never interleave
a torn checkpoint (``tests/test_resumable.py``).
"""

from repro.core.base import DEFAULT_BATCH_SIZE, StreamSampler
from repro.engine.batching import ChunkGeometry, chunk_geometry_for, chunked
from repro.engine.equivalence import state_fingerprint
from repro.engine.executors import (
    EXECUTOR_NAMES,
    ProcessShardExecutor,
    RemoteShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
    make_executor,
)
from repro.engine.pipeline import BatchPipeline
from repro.engine.remote_worker import run_worker
from repro.engine.resumable import run_resumable

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "StreamSampler",
    "BatchPipeline",
    "chunked",
    "ChunkGeometry",
    "chunk_geometry_for",
    "state_fingerprint",
    "EXECUTOR_NAMES",
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessShardExecutor",
    "RemoteShardExecutor",
    "make_executor",
    "run_resumable",
    "run_worker",
]
