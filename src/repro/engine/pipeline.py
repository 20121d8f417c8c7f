"""Fan batched ingestion out over distributed shards and merge on query.

:class:`BatchPipeline` is the scale-out face of the batch engine: it
slices an incoming stream into chunks (:func:`repro.engine.batching.chunked`),
deals the chunks round-robin across the shards of a
:class:`~repro.distributed.coordinator.DistributedRobustSampler`, and
answers queries from the coordinator's sketch-sized merge.  Because all
shards share one :class:`~repro.core.base.SamplerConfig` (same grid
offset, same sampling hash) the merged sampler is a faithful sampler of
the *union* stream - the oracle test in ``tests/test_distributed.py``
checks the merge output against a single sampler fed the interleaved
union directly.

The pipeline is registered in :mod:`repro.api.registry` under
``"batch-pipeline"`` and is built one way, ``BatchPipeline(spec)`` from
a :class:`~repro.api.specs.PipelineSpec` (the chunk size, executor and
seed all live in the spec); shards are spec-constructed by the
coordinator and the whole pipeline - shards mid-stream, round-robin
cursor and all - checkpoints through the Summary protocol
(:meth:`to_state` / :meth:`from_state`), so a long ingestion job can be
stopped and resumed with fingerprint-identical results.

*Where* shard work runs is pluggable (``PipelineSpec.executor``, see
:mod:`repro.engine.executors`): ``"serial"`` ingests chunks inline
(default), ``"process"`` ships them to worker processes holding shard
replicas - the first wall-clock (not just per-core) throughput win -
and ``"remote"`` enqueues them into a shared backend served by
lease-holding workers.  Reads (:meth:`merge`, :meth:`to_state`,
queries) synchronise first, and every query answers from one barrier
merge of the synchronised shards (the coordinator's
:meth:`~repro.distributed.coordinator.DistributedRobustSampler.merged_sampler`),
which reads the record columns of the states a drain shipped home
without rebuilding a shard object.
Executor choice is never observable in state: every executor yields a
``state_fingerprint`` identical to the serial pipeline's (enforced by
``tests/test_executors.py`` and the Hypothesis matrix in
``tests/test_property_equivalence.py``).

Round-robin chunk dealing is deterministic: the same stream and
``batch_size`` always produce the same shard assignment, which together
with an explicit ``seed`` makes whole pipeline runs reproducible -
whichever executor runs the shards.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.base import SamplerConfig
from repro.core.chunk_geometry import ChunkGeometry, is_chunk
from repro.core.infinite_window import RobustL0SamplerIW
from repro.distributed.coordinator import DistributedRobustSampler
from repro.engine.batching import chunk_geometry_for, chunked
from repro.errors import CheckpointError, EmptySampleError, ExecutorError
from repro.streams.point import StreamPoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.specs import PipelineSpec
    from repro.engine.executors import ShardExecutor


class BatchPipeline:
    """Batched ingestion across ``num_shards`` robust shard samplers.

    Parameters
    ----------
    spec:
        A :class:`~repro.api.specs.PipelineSpec` describing the whole
        pipeline: geometry, seed, shard count, the chunk size
        :meth:`extend` deals with, and the executor (``"serial"`` by
        default, or ``"process"``/``"remote"``; see
        :mod:`repro.engine.executors`).  Parallel pipelines should be
        :meth:`close`\\ d (or used as context managers) to release
        their workers.

    Examples
    --------
    >>> from repro.api.specs import PipelineSpec
    >>> spec = PipelineSpec(alpha=1.0, dim=1, num_shards=3, seed=11,
    ...                     batch_size=4)
    >>> pipeline = BatchPipeline(spec)
    >>> pipeline.extend([(25.0 * (i % 5),) for i in range(40)])
    40
    >>> merged = pipeline.merge()
    >>> merged.num_candidate_groups
    5
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "batch-pipeline"

    def __init__(self, spec: "PipelineSpec") -> None:
        from repro.api.specs import L0InfiniteSpec

        self._spec = spec
        self._coordinator = DistributedRobustSampler(
            L0InfiniteSpec(
                alpha=spec.alpha,
                dim=spec.dim,
                seed=spec.seed,
                kappa0=spec.kappa0,
                expected_stream_length=spec.expected_stream_length,
            ),
            spec.num_shards,
        )
        self._next_shard = 0
        self._points_seen = 0
        self._executor: "ShardExecutor | None" = None
        self._dirty = False

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def spec(self) -> "PipelineSpec":
        """The spec this pipeline was constructed from."""
        return self._spec

    @property
    def num_shards(self) -> int:
        """Number of shard samplers."""
        return self._coordinator.num_shards

    @property
    def batch_size(self) -> int:
        """Chunk size used when slicing streams (``spec.batch_size``)."""
        return self._spec.batch_size

    @property
    def config(self) -> SamplerConfig:
        """The configuration shared by all shards (and by the merge)."""
        return self._coordinator.config

    @property
    def points_seen(self) -> int:
        """Total points ingested across all shards."""
        return self._points_seen

    @property
    def coordinator(self) -> DistributedRobustSampler:
        """The underlying coordinator (shard access, communication cost).

        Synchronises first: with a parallel executor the coordinator's
        shards are only current after outstanding chunks drain.
        """
        self.sync()
        return self._coordinator

    @property
    def executor_name(self) -> str:
        """Which executor runs shard work (``spec.executor``)."""
        return self._spec.executor

    def shard(self, index: int) -> RobustL0SamplerIW:
        """Access one shard's sampler (synchronises first)."""
        self.sync()
        return self._coordinator.shard(index)

    # ------------------------------------------------------------------ #
    # executor plumbing
    # ------------------------------------------------------------------ #

    def _ensure_executor(self) -> "ShardExecutor":
        """Create the spec's executor on first ingestion (lazily, so a
        restored or idle pipeline holds no workers)."""
        if self._executor is None:
            from repro.engine.executors import make_executor

            self._executor = make_executor(
                self._spec.executor,
                self._coordinator,
                num_workers=self._spec.num_workers,
                queue_backend=self._spec.queue_backend,
                queue_path=self._spec.queue_path,
                queue_url=self._spec.queue_url,
                queue_key=self._spec.queue_key,
                lease_ttl=self._spec.lease_ttl,
            )
        return self._executor

    def executor_stats(self) -> dict:
        """The live executor's transport/scheduling counters.

        Empty for in-process executors and for a pipeline whose
        executor has not started (or was closed); see
        :meth:`repro.engine.executors.ShardExecutor.stats`.  Read these
        *before* :meth:`close` - the benchmark records them per run.
        """
        if self._executor is None:
            return {}
        return self._executor.stats()

    def sync(self) -> None:
        """Barrier: finish outstanding shard work, bring states home.

        A no-op for a clean pipeline; the serial executor's drain
        yields nothing (its shard objects are always current).  With
        the process and remote executors each shard state the drain
        ships home is parked in the coordinator
        (:meth:`~repro.distributed.coordinator.DistributedRobustSampler.park_shard`).
        A query
        merges the parked states' record columns directly; a shard
        *object* is rebuilt only by a read that needs one (:meth:`shard`,
        :meth:`to_state`, :meth:`communication_words`, or a fresh
        executor adopting the shard), so neither a sync-then-keep-
        streaming cycle nor a query pays the restore cost.  Raises
        :class:`~repro.errors.ExecutorError` if a worker failed - the
        pipeline then stays dirty and unsynchronised work is not lost
        silently - not even after a failed :meth:`close` released the
        workers (reads keep raising rather than serving stale shards).
        """
        if not self._dirty:
            return
        if self._executor is None:
            raise ExecutorError(
                "pipeline has unsynchronised chunks but its executor was "
                "already released (a close() after a worker failure); the "
                "queued work was lost - restore from the last checkpoint"
            )
        for shard_id, state in self._executor.drain():
            self._coordinator.park_shard(shard_id, state)
        self._dirty = False

    def close(self) -> None:
        """Synchronise and release the executor's workers (idempotent).

        The pipeline stays usable afterwards: the next ingestion lazily
        starts a fresh executor from the synchronised shard states.
        """
        if self._executor is None:
            return
        try:
            self.sync()
        finally:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "BatchPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #

    def submit(
        self, batch: Iterable[StreamPoint | Sequence[float]]
    ) -> int:
        """Ingest one batch into the next shard (round-robin).

        The batch is validated **once here**
        (:func:`~repro.engine.batching.chunk_geometry_for`: coercion,
        dimension, cells - a list, a tuple or a numeric ``(n, dim)``
        array) into a :class:`~repro.core.chunk_geometry.ChunkGeometry`,
        and that one object is what the executor carries: the serial
        executor hands it to the owning shard's ``process_many`` (all
        shards share one config, so it is valid wherever the chunk
        lands), the process and remote executors ship its float64
        array.  Returns the number of points ingested.  With a parallel
        executor the chunk is queued to the shard's worker and the count
        returned is the chunk length; any worker-side failure surfaces
        as :class:`~repro.errors.ExecutorError` at the next
        synchronisation point (:meth:`sync`, :meth:`merge`,
        :meth:`to_state`, queries).

        An invalid chunk raises :class:`~repro.errors.ParameterError`
        before any executor sees it, leaving the pipeline unchanged.
        """
        executor = self._ensure_executor()
        chunk = chunk_geometry_for(self._coordinator.config, batch)
        shard = self._next_shard
        self._next_shard = (shard + 1) % self._coordinator.num_shards
        processed = executor.submit(shard, chunk)
        if processed is None:  # queued, not yet ingested
            self._dirty = True
            processed = chunk.n
        self._points_seen += processed
        return processed

    def process_many(
        self, points: Iterable[StreamPoint | Sequence[float]]
    ) -> int:
        """Protocol ingestion: chunk by ``batch_size`` and deal round-robin.

        The same sharded ingestion as :meth:`extend`, so protocol-generic
        callers match native ones; :meth:`submit` remains the explicit
        one-batch-to-one-shard primitive.  A materialised batch is
        validated whole first (:func:`chunk_geometry_for`), so it is
        all-or-nothing even when it spans several chunks, and each
        chunk dealt is a row block of that one validated array (with
        its StreamPoint items): no row is coerced twice.  A one-shot
        iterable streams through :meth:`extend`.
        """
        if not is_chunk(points):
            return self.extend(points)
        config = self._coordinator.config
        whole = chunk_geometry_for(config, points)
        items = whole.items
        size = self._spec.batch_size
        total = 0
        for start in range(0, whole.n, size):
            block = slice(start, start + size)
            total += self.submit(
                ChunkGeometry(
                    config,
                    whole.array[block],
                    items=None if items is None else items[block],
                )
            )
        return total

    def extend(
        self,
        points: Iterable[StreamPoint | Sequence[float]],
        *,
        batch_size: int | None = None,
    ) -> int:
        """Slice a stream into batches and deal them across the shards.

        ``batch_size`` overrides the spec's chunk size for this call
        only.  The chunking determines the round-robin shard assignment,
        so runs (and checkpoint resumes) are only comparable when they
        deal with the same chunk size.
        """
        if batch_size is None:
            batch_size = self._spec.batch_size
        total = 0
        for chunk in chunked(points, batch_size):
            total += self.submit(chunk)
        return total

    # ------------------------------------------------------------------ #
    # queries (via the coordinator's sketch-sized merge)
    # ------------------------------------------------------------------ #

    def merge(self, *others: "BatchPipeline") -> RobustL0SamplerIW:
        """Merge all shard states into one sampler over the union stream.

        Called with no arguments (the usual form) this is the pipeline's
        shard merge: a barrier (:meth:`sync`), then the coordinator's
        one-pass
        :meth:`~repro.distributed.coordinator.DistributedRobustSampler.merged_sampler`,
        which reads the record columns of every shard state the drain
        shipped home and rebuilds no shard object.  Every executor
        reaches the same shard states, so the merged sampler is
        identical whichever executor ran the shards.

        Merging two *pipelines* is intentionally unsupported - deal the
        streams into one pipeline instead, or merge the pipelines'
        :meth:`merge` outputs, which are plain samplers.
        """
        if others:
            from repro.api.protocol import merge_unsupported

            raise merge_unsupported(
                self,
                "merge() combines this pipeline's own shards; merge the "
                "per-pipeline merged samplers instead",
            )
        self.sync()
        return self._coordinator.merged_sampler()

    def query(self, rng: random.Random | None = None) -> StreamPoint:
        """Protocol query: merge then sample (see :meth:`sample`)."""
        return self.sample(rng)

    def sample(self, rng: random.Random | None = None) -> StreamPoint:
        """One-shot distributed query: merge then sample."""
        merged = self.merge()
        if merged.accept_size == 0:
            raise EmptySampleError("no shard holds an accepted group")
        return merged.sample(rng)

    def estimate_f0(self) -> float:
        """Robust F0 estimate of the union stream."""
        return self.merge().estimate_f0()

    def communication_words(self) -> int:
        """Words shipped to the coordinator by one merge."""
        self.sync()
        return self._coordinator.communication_words()

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #

    def to_state(self) -> dict[str, Any]:
        """Serialise the pipeline mid-stream (shards + dealing cursor).

        Synchronises first, so the envelope always holds the shards'
        current states whichever executor ran them.  Checkpoints are
        chunk-aligned: call between :meth:`submit`/:meth:`extend` calls.
        """
        self.sync()
        return {
            "spec": self._spec.to_state(),
            "batch_size": self._spec.batch_size,
            "next_shard": self._next_shard,
            "points_seen": self._points_seen,
            "coordinator": self._coordinator.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "BatchPipeline":
        """Restore a pipeline from :meth:`to_state` output.

        The restored pipeline continues dealing exactly where the
        original stopped (same shard cursor, same shard states), so a
        resumed run is fingerprint-identical to an uninterrupted one.
        The chunk size is the spec's; the envelope's top-level
        ``batch_size`` must agree with it.
        """
        from repro.api.registry import spec_from_state
        from repro.core import serialize

        serialize.check_int_fields(state, 1, "batch_size")
        serialize.check_int_fields(state, 0, "points_seen")
        pipeline = cls.__new__(cls)
        pipeline._spec = spec_from_state(state["spec"])
        if state["batch_size"] != pipeline._spec.batch_size:
            raise CheckpointError(
                f"pipeline state field 'batch_size' is "
                f"{state['batch_size']}, but its spec's batch_size is "
                f"{pipeline._spec.batch_size}"
            )
        pipeline._coordinator = DistributedRobustSampler.from_state(
            state["coordinator"]
        )
        shards = pipeline._coordinator.num_shards
        serialize.check_int_fields(state, 0, "next_shard", maximum=shards - 1)
        pipeline._next_shard = state["next_shard"]
        pipeline._points_seen = state["points_seen"]
        pipeline._executor = None  # restarted lazily on the next submit
        pipeline._dirty = False
        return pipeline

    # ------------------------------------------------------------------ #
    # backend checkpoints (crash-safe resume, see repro.engine.resumable)
    # ------------------------------------------------------------------ #

    def checkpoint_to(
        self, backend: Any, key: str, *, cas_version: int | None = None
    ) -> int:
        """Checkpoint this pipeline into a state backend; returns the version.

        Synchronises first (via :meth:`to_state`), so the committed
        envelope is chunk-aligned whichever executor ran the shards.
        With ``cas_version`` the commit is an atomic
        :meth:`~repro.backends.StateBackend.compare_and_swap`: a
        concurrent checkpointer of the same key makes this raise
        :class:`~repro.errors.CASConflictError` with **nothing
        applied** - two racing writers can never interleave a torn
        merge of shard states, one simply loses whole.
        """
        from repro.persist import store_summary

        return store_summary(backend, key, self, cas_version=cas_version)

    @classmethod
    def resume_from(
        cls, backend: Any, key: str
    ) -> tuple["BatchPipeline | None", int]:
        """(pipeline, version) from a backend checkpoint, or ``(None, 0)``.

        The version is what the next :meth:`checkpoint_to` should pass
        as ``cas_version`` so the resumed run keeps exclusive ownership
        of the key.
        """
        from repro.persist import loads_summary

        found = backend.get_versioned(key)
        if found is None:
            return None, 0
        data, version = found
        pipeline = loads_summary(data)
        if not isinstance(pipeline, cls):
            raise CheckpointError(
                f"backend key {key!r} holds a "
                f"{getattr(type(pipeline), 'summary_key', '?')!r} "
                "checkpoint, not a batch-pipeline"
            )
        return pipeline, version
