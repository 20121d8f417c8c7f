"""Executor-equivalence matrix: serial vs process vs remote pipelines.

The contract (see :mod:`repro.engine.executors`): *where* shard work
runs is never observable in pipeline state.  For the same spec and the
same dealt chunk sequence, every executor must leave the pipeline
``state_fingerprint``-identical to the serial one - including empty
batches, single-shard pipelines, and mid-stream checkpoint/resume under
the process executor.  The Hypothesis twin of this matrix lives in
``tests/test_property_equivalence.py``.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading

import numpy as np
import pytest

from stream_generators import poisoned_chunk

from repro.api import L0InfiniteSpec, PipelineSpec, build
from repro.backends import MemoryBackend
from repro.core.base import SamplerConfig
from repro.core.chunk_geometry import chunk_geometry_for
from repro.core.infinite_window import RobustL0SamplerIW
from repro.distributed.coordinator import DistributedRobustSampler
from repro.engine import state_fingerprint
from repro.engine import executors as executors_module
from repro.engine.executors import (
    _SUBMITTER,
    EXECUTOR_NAMES,
    ProcessShardExecutor,
    _resolve_workers,
)
from repro.errors import EmptySampleError, ExecutorError, ParameterError
from repro.persist import (
    dumps_summary,
    loads_summary,
    summary_from_state,
    summary_to_state,
)


def group_stream(n=360, seed=51, groups=10):
    rng = random.Random(seed)
    return [
        (25.0 * rng.randrange(groups) + rng.uniform(0, 0.4),)
        for _ in range(n)
    ]


def make_pipeline(
    executor, *, shards=3, workers=2, batch_size=32, seed=13
):
    spec = PipelineSpec(
        alpha=1.0,
        dim=1,
        seed=seed,
        num_shards=shards,
        batch_size=batch_size,
        executor=executor,
        num_workers=workers,
    )
    return build("batch-pipeline", spec)


def drain_into(coordinator, executor):
    """Drain ``executor`` and restore every shipped state."""
    for shard_id, state in executor.drain():
        if state is not None:
            coordinator.restore_shard(shard_id, state)


class TestExecutorEquivalenceMatrix:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    @pytest.mark.parametrize(
        "shards,workers",
        [(1, 1), (3, 2), (4, None)],
        ids=["single-shard", "more-shards-than-workers", "worker-per-shard"],
    )
    def test_fingerprint_identical_to_serial(self, executor, shards, workers):
        stream = group_stream()
        serial = make_pipeline("serial", shards=shards, workers=None)
        serial.extend(stream)
        with make_pipeline(executor, shards=shards, workers=workers) as twin:
            twin.extend(stream)
            assert state_fingerprint(twin) == state_fingerprint(serial)
            # The merge reads only the (identical) shard states, so even
            # the merged union sampler is bit-identical.
            assert state_fingerprint(twin.merge()) == state_fingerprint(
                serial.merge()
            )
            assert twin.estimate_f0() == serial.estimate_f0()
            assert twin.sample(random.Random(7)) == serial.sample(
                random.Random(7)
            )
            if executor == "process":
                # With fewer workers than shards the submitter runs
                # shards too; with a worker per shard it runs none.
                inline = twin.executor_stats()["inline_chunks"]
                lane = workers is not None and workers < shards
                assert (inline > 0) == lane

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_empty_batches_and_empty_stream(self, executor):
        serial = make_pipeline("serial")
        with make_pipeline(executor) as twin:
            # Empty stream: every shard stays empty, queries say so.
            assert twin.extend([]) == 0
            assert state_fingerprint(twin) == state_fingerprint(serial)
            with pytest.raises(EmptySampleError):
                twin.sample(random.Random(1))
            # Interleaved empty batches advance the round-robin cursor
            # exactly like the serial pipeline.
            stream = group_stream(90, seed=3)
            for pipeline in (serial, twin):
                pipeline.submit([])
                pipeline.extend(stream)
                pipeline.submit([])
            assert twin.points_seen == serial.points_seen == 90
            assert state_fingerprint(twin) == state_fingerprint(serial)

    def test_mid_stream_checkpoint_resume_under_process_executor(self):
        stream = group_stream(480, seed=29)
        serial = make_pipeline("serial")
        serial.extend(stream)

        with make_pipeline("process") as interrupted:
            interrupted.extend(stream[:320])  # chunk-aligned interruption
            envelope = json.loads(
                json.dumps(summary_to_state(interrupted))
            )
        assert envelope["state"]["spec"]["executor"] == "process"
        resumed = summary_from_state(envelope)
        try:
            assert resumed.points_seen == 320
            resumed.extend(stream[320:])  # restarts process workers lazily
            assert state_fingerprint(resumed) == state_fingerprint(serial)
            assert resumed.estimate_f0() == serial.estimate_f0()
        finally:
            resumed.close()

    @pytest.mark.parametrize("executor", ["process", "remote"])
    def test_bytes_envelope_round_trip_is_exact(self, executor):
        # The drained shard states travel as packed columns; the
        # envelope round trip keeps fingerprints and bytes.
        stream = group_stream(320, seed=31)
        serial = make_pipeline("serial")
        serial.extend(stream)
        with make_pipeline(executor) as parallel:
            parallel.extend(stream)
            data = dumps_summary(parallel)
        restored = loads_summary(data)
        try:
            assert state_fingerprint(restored) == state_fingerprint(serial)
            assert dumps_summary(restored) == data
        finally:
            restored.close()

    @pytest.mark.parametrize("executor", ["process", "remote"])
    def test_ingestion_continues_after_close(self, executor):
        stream = group_stream(200, seed=7)
        serial = make_pipeline("serial")
        serial.extend(stream)
        pipeline = make_pipeline(executor)
        pipeline.extend(stream[:96])
        pipeline.close()  # syncs, releases workers
        pipeline.extend(stream[96:])  # lazily starts a fresh executor
        try:
            assert state_fingerprint(pipeline) == state_fingerprint(serial)
        finally:
            pipeline.close()
        pipeline.close()  # idempotent


class TestCallerBufferReuse:
    """Regression: asynchronous executors must own their chunks.  A
    caller that reuses (clears/refills) one batch buffer across submits
    worked with the serial executor but shipped mutated data to
    parallel workers before the copy-on-submit fix."""

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_reused_batch_buffer_is_safe(self, executor):
        chunks = [
            group_stream(24, seed=seed, groups=6) for seed in range(8)
        ]
        serial = make_pipeline("serial")
        for chunk in chunks:
            serial.submit(chunk)
        with make_pipeline(executor) as twin:
            buffer = []
            for chunk in chunks:
                buffer.clear()
                buffer.extend(chunk)
                twin.submit(buffer)
            buffer.clear()  # mutate once more while workers may still run
            assert state_fingerprint(twin) == state_fingerprint(serial)


class TestInvalidChunkRejectedAtSubmit:
    """Regression: one NaN chunk used to poison a process pipeline (its
    worker failed, and ``state_fingerprint`` and ``close()`` raised
    ``ExecutorError`` from then on).  ``submit`` now validates the chunk
    before any executor sees it."""

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    @pytest.mark.parametrize(
        "poison",
        [
            [(1.0,), (float("nan"),), (2.0,), (3.0,), (4.0,)],
            [(float("nan"),)],
            np.array([[1.0], [2.0], [float("inf")], [3.0]]),
            [(1.0,), (2.0, 3.0)],
        ],
        ids=["nan-list", "nan-singleton", "inf-array", "ragged"],
    )
    def test_pipeline_stays_usable(self, executor, poison):
        chunks = [group_stream(40, seed=seed) for seed in range(5)]
        serial = make_pipeline("serial")
        for chunk in chunks:
            serial.submit(chunk)
        pipeline = make_pipeline(executor)
        for chunk in chunks[:2]:
            pipeline.submit(chunk)
        with pytest.raises(ParameterError, match="nothing ingested"):
            pipeline.submit(poison)
        for chunk in chunks[2:]:
            pipeline.submit(chunk)
        assert state_fingerprint(pipeline) == state_fingerprint(serial)
        pipeline.close()


class TestExecutorFailures:
    @pytest.mark.parametrize("executor", ["process", "remote"])
    def test_worker_failure_surfaces_at_sync(self, executor):
        pipeline = make_pipeline(executor)
        pipeline.extend(group_stream(64, seed=1))
        # BatchPipeline.submit rejects an invalid chunk before any
        # executor sees it, so a worker can only fail on a chunk that
        # bypasses that boundary: hand a corrupted chunk straight to the
        # executor to poison a worker.
        poison = poisoned_chunk(pipeline.config)
        pipeline._ensure_executor().submit(0, poison)
        with pytest.raises(ExecutorError):
            pipeline.sync()
        # The failure is sticky and the pipeline stays dirty: closing
        # still reports it rather than silently dropping the lost work.
        with pytest.raises(ExecutorError):
            pipeline.close()
        # ... but the workers are released regardless.
        assert pipeline._executor is None
        # Regression: after the failed close released the workers, reads
        # must keep raising (the queued work was lost) instead of
        # serving stale shard states as a silently corrupt checkpoint.
        with pytest.raises(ExecutorError):
            pipeline.to_state()
        with pytest.raises(ExecutorError):
            pipeline.merge()

    def test_extend_rejects_zero_batch_size(self):
        # Regression: extend(batch_size=0) silently fell back to the
        # spec's chunk size instead of raising like every other surface.
        pipeline = make_pipeline("serial")
        with pytest.raises(ParameterError, match=">= 1"):
            pipeline.extend([(0.0,)], batch_size=0)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ParameterError, match="executor"):
            PipelineSpec(alpha=1.0, dim=1, executor="warp")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ParameterError, match="num_workers"):
            PipelineSpec(alpha=1.0, dim=1, num_workers=0)


class TestTransportMatrix:
    """Every per-chunk payload kind is state-unobservable."""

    def test_shm_transport_fingerprint_identical_to_serial(self):
        stream = group_stream(300, seed=17)
        serial = make_pipeline("serial")
        serial.extend(stream)
        with make_pipeline("process") as twin:
            twin.extend(stream)
            assert state_fingerprint(twin) == state_fingerprint(serial)
            stats = twin.executor_stats()  # after the drain dispatched all
        # Three shards on two workers: the submitter ingests the third
        # shard's chunks itself, and every other chunk ships through
        # shared memory.
        assert stats["shm_chunks"] > 0 and stats["inline_chunks"] > 0
        assert stats["shm_chunks"] + stats["inline_chunks"] == stats["chunks"]
        assert stats["pickle_chunks"] == 0

    def test_pickle_fallback_for_streampoint_chunks(self):
        # The array cannot carry StreamPoints' arrival metadata, so the
        # validated chunk keeps its items and the executor pickles
        # exactly those chunks - fingerprint-identical either way.
        from repro.streams import StreamPoint

        raw = group_stream(160, seed=23)
        points = [
            StreamPoint(vector, index) for index, vector in enumerate(raw)
        ]
        chunks = [points[i : i + 40] for i in range(0, len(points), 40)]

        serial = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=5),
            num_shards=2,
        )
        for chunk in chunks:
            serial.route_many(chunk, 0)

        parallel = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=5),
            num_shards=2,
        )
        executor = ProcessShardExecutor(parallel, num_workers=2)
        try:
            for chunk in chunks:
                executor.submit(0, chunk_geometry_for(parallel.config, chunk))
            drain_into(parallel, executor)
            stats = executor.stats()
        finally:
            executor.close()
        assert stats["pickle_chunks"] == len(chunks)
        assert stats["shm_chunks"] == 0
        assert state_fingerprint(parallel) == state_fingerprint(serial)

    def test_backlog_beyond_the_pool_ships_through_shm(self):
        """Chunks beyond the pool wait in the backlog, then take a slot.

        Two workers at depth 4 get a 10-slot pool; thirty chunks are
        submitted while shard 0's owner is stopped.  Every chunk is a
        view aliasing one caller buffer, which is overwritten after the
        submits: the backlog holds snapshots, each chunk is written
        into a slot only at dispatch, and every one ships through
        shared memory - fingerprint-identical to serial fed the
        submit-time values.
        """
        rows = np.array(group_stream(1200, seed=37), dtype=np.float64)
        views = [rows[i : i + 40] for i in range(0, len(rows), 40)]
        shard_ids = [0] * 10 + [i % 2 for i in range(20)]

        serial = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=5),
            num_shards=2,
        )
        for shard_id, view in zip(shard_ids, views):
            serial.route_many(view, shard_id)

        parallel = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=5),
            num_shards=2,
        )
        executor = ProcessShardExecutor(parallel, num_workers=2)
        pool_slots = len(executor._pool._free)
        try:
            executor.submit(
                0, chunk_geometry_for(parallel.config, views[0])
            )
            pid = executor._workers[executor._owner[0]].pid
            os.kill(pid, signal.SIGSTOP)
            try:
                for shard_id, view in zip(shard_ids[1:], views[1:]):
                    executor.submit(
                        shard_id, chunk_geometry_for(parallel.config, view)
                    )
                rows[:] = 0.5  # the caller reuses its buffer
            finally:
                os.kill(pid, signal.SIGCONT)
            drain_into(parallel, executor)
            stats = executor.stats()
        finally:
            executor.close()
        assert len(views) > pool_slots == 10
        assert set(stats) == {
            "chunks", "shm_chunks", "pickle_chunks", "shm_bytes",
            "inline_chunks", "submit_seconds",
        }
        assert stats["chunks"] == len(views)
        assert stats["shm_chunks"] == len(views)
        assert stats["pickle_chunks"] == 0
        assert state_fingerprint(parallel) == state_fingerprint(serial)


class TestDoneMessages:
    """Each chunk's ``("done", worker, slot)`` message is its only
    completion signal: it frees dispatch depth and recycles the slot."""

    def test_held_slots_bounded_by_dispatch_depth(self):
        """With every worker stopped, the submitter holds at most
        ``workers x depth`` slots - the backlog takes the rest - and
        all of them come back once the workers resume."""
        rows = np.array(group_stream(1600, seed=43), dtype=np.float64)
        chunks = [rows[i : i + 40] for i in range(0, len(rows), 40)]
        shard_ids = [i % 4 for i in range(len(chunks))]

        serial = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=9),
            num_shards=4,
        )
        for shard_id, chunk in zip(shard_ids, chunks):
            serial.route_many(chunk, shard_id)

        parallel = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=9),
            num_shards=4,
        )
        executor = ProcessShardExecutor(parallel, num_workers=2)
        pool_slots = len(executor._pool._free)
        limit = 2 * executor._depth
        held = []
        try:
            for shard_id, chunk in zip(shard_ids[:4], chunks[:4]):
                # adopts every shard
                executor.submit(
                    shard_id, chunk_geometry_for(parallel.config, chunk)
                )
            pids = [worker.pid for worker in executor._workers]
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            try:
                for shard_id, chunk in zip(shard_ids[4:], chunks[4:]):
                    executor.submit(
                        shard_id, chunk_geometry_for(parallel.config, chunk)
                    )
                    held.append(pool_slots - len(executor._pool._free))
                    assert held[-1] == sum(executor._inflight)
            finally:
                for pid in pids:
                    os.kill(pid, signal.SIGCONT)
            drain_into(parallel, executor)
            assert executor._inflight == [0, 0]
            assert sorted(executor._pool._free) == list(range(pool_slots))
            stats = executor.stats()
        finally:
            executor.close()
        assert max(held) == limit < len(chunks)
        # Two workers own three shards; the submitter ingests the fourth.
        assert stats["inline_chunks"] == len(chunks) // 4
        assert stats["shm_chunks"] == len(chunks) - stats["inline_chunks"]
        assert state_fingerprint(parallel) == state_fingerprint(serial)

    def test_poisoned_worker_returns_every_slot(self):
        """A poisoned worker swallows the chunks behind the poison but
        still answers each one, so a backlog larger than the pool
        flushes and the failure surfaces at the barrier, not as a
        stall."""
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=3),
            num_shards=1,
        )
        executor = ProcessShardExecutor(coordinator, num_workers=1)
        pool_slots = len(executor._pool._free)
        rows = np.array(group_stream(40, seed=8), dtype=np.float64)
        try:
            # Bypasses the submit boundary: a NaN row rejected worker-side.
            executor.submit(0, poisoned_chunk(coordinator.config))
            chunk = chunk_geometry_for(coordinator.config, rows)
            for _ in range(pool_slots + 10):
                executor.submit(0, chunk)
            with pytest.raises(ExecutorError, match="shard worker failed"):
                list(executor.drain())
            assert executor._inflight == [0]
            assert sorted(executor._pool._free) == list(range(pool_slots))
            stats = executor.stats()
        finally:
            executor.close()
        assert stats["shm_chunks"] == stats["chunks"] == pool_slots + 11
        # The rejected chunk's view did not pin its slot's segment, so
        # the worker detached and exited cleanly on close.
        assert executor._workers[0].exitcode == 0


class TestDrainStallDetection:
    def test_stopped_worker_bounds_the_drain(self, monkeypatch):
        """A wedged (SIGSTOPped) worker fails the drain within the
        stall budget instead of hanging the submitter forever."""
        monkeypatch.setattr(executors_module, "_DRAIN_STALL_SECONDS", 1.0)
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=3),
            num_shards=2,
        )
        executor = ProcessShardExecutor(coordinator, num_workers=1)
        try:
            pid = executor._workers[0].pid
            os.kill(pid, signal.SIGSTOP)
            try:
                chunk = group_stream(64, seed=2)
                executor.submit(
                    0, chunk_geometry_for(coordinator.config, chunk)
                )
                with pytest.raises(ExecutorError, match="stalled"):
                    list(executor.drain())
            finally:
                os.kill(pid, signal.SIGCONT)
        finally:
            executor.close()

    def test_killed_worker_reports_exit_code(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=3),
            num_shards=2,
        )
        executor = ProcessShardExecutor(coordinator, num_workers=1)
        try:
            worker = executor._workers[0]
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=5.0)
            chunk = group_stream(64, seed=2)
            executor.submit(0, chunk_geometry_for(coordinator.config, chunk))
            with pytest.raises(ExecutorError, match="died without reporting"):
                list(executor.drain())
        finally:
            executor.close()


class TestDrainContract:
    """``drain()`` yields ``(shard_id, state)`` only for shards whose
    state lives outside the coordinator, never a ``None`` state, and
    every query is the one barrier merge of the synchronised shards."""

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_drain_yields_only_shards_that_moved(self, executor):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=3),
            num_shards=4,
        )
        reference = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=3),
            num_shards=4,
        )
        runner = executors_module.make_executor(
            executor, coordinator, num_workers=2
        )
        try:
            for shard in (0, 1, 3):  # shard 2 receives no chunk
                chunk = group_stream(48, seed=shard)
                runner.submit(
                    shard, chunk_geometry_for(coordinator.config, chunk)
                )
                reference.route_many(chunk, shard)
            arrivals = list(runner.drain())
        finally:
            runner.close()
        # Under the process executor two workers adopt shards 0 and 1,
        # and the submitter ingests shard 3 into the coordinator itself.
        moved = {"serial": [], "process": [0, 1], "remote": [0, 1, 3]}
        assert sorted(shard for shard, _ in arrivals) == moved[executor]
        if arrivals:
            assert all(state is not None for _, state in arrivals)
            for shard, state in arrivals:
                coordinator.restore_shard(shard, state)
        assert state_fingerprint(coordinator) == state_fingerprint(reference)

    def test_merge_identical_dirty_synced_and_serial(self, monkeypatch):
        stream = group_stream(300, seed=17)
        serial = make_pipeline("serial", shards=4)
        serial.extend(stream)
        expected = state_fingerprint(serial.merge())
        # Queries after a sync merge the shipped states' columns and
        # rebuild no shard object.  Remote workers are threads of this
        # process that rebuild their own replicas, so only the calling
        # thread's rebuilds count; each is named by the index of the
        # parked shard state it restored.
        rebuilds = []
        parked = {}
        restore = RobustL0SamplerIW.from_state.__func__

        def spy(cls, state, **kwargs):
            if threading.current_thread() is threading.main_thread():
                rebuilds.append(
                    next(
                        (i for i, shipped in parked.items() if shipped is state),
                        None,
                    )
                )
            return restore(cls, state, **kwargs)

        monkeypatch.setattr(RobustL0SamplerIW, "from_state", classmethod(spy))
        # Two workers and four shards: under the process executor the
        # submitter ingests shard 2 itself, so it is never parked.
        moved = {"process": [0, 1, 3], "remote": [0, 1, 2, 3]}
        for executor in ("process", "remote"):
            with make_pipeline(executor, shards=4, workers=2) as dirty:
                dirty.extend(stream)
                assert dirty._dirty
                assert state_fingerprint(dirty.merge()) == expected
            with make_pipeline(executor, shards=4, workers=2) as synced:
                synced.extend(stream)
                synced.sync()
                parked = dict(synced._coordinator._parked)
                assert sorted(parked) == moved[executor]
                rebuilds.clear()
                assert state_fingerprint(synced.merge()) == expected
                assert synced.query(random.Random(3)) == serial.query(
                    random.Random(3)
                )
                assert synced.sample(random.Random(4)) == serial.sample(
                    random.Random(4)
                )
                assert rebuilds == [], executor
                # Reads that need shard objects still rebuild the parked
                # ones.
                probe = max(parked)
                assert state_fingerprint(
                    synced.shard(probe)
                ) == state_fingerprint(serial.shard(probe))
                assert rebuilds == [probe], executor
                assert json.dumps(synced.to_state()["coordinator"]) == (
                    json.dumps(serial.to_state()["coordinator"])
                )
                assert sorted(rebuilds) == sorted(parked), executor
                assert state_fingerprint(synced.merge()) == expected
            with make_pipeline(executor, shards=4, workers=2) as synced:
                synced.extend(stream)
                synced.sync()
                synced.merge()
                parked = dict(synced._coordinator._parked)
                rebuilds.clear()
                backend = MemoryBackend()
                synced.checkpoint_to(backend, "job")
                assert sorted(rebuilds) == sorted(parked), executor
                restored, _ = type(synced).resume_from(backend, "job")
                assert state_fingerprint(restored) == state_fingerprint(
                    serial
                )
                assert state_fingerprint(restored.merge()) == expected


class TestParkedStates:
    def test_sync_then_continue_matches_serial(self):
        # sync() parks the drained states on the pipeline; further
        # ingestion and every read path must rebuild the shards from
        # them and still match the serial fingerprint.
        stream = group_stream(400, seed=31)
        serial = make_pipeline("serial")
        serial.extend(stream)
        with make_pipeline("process") as twin:
            twin.extend(stream[:192])
            twin.sync()  # states come home and are parked
            twin.extend(stream[192:])  # lazy restore must re-adopt
            assert state_fingerprint(twin) == state_fingerprint(serial)
            assert state_fingerprint(twin.merge()) == state_fingerprint(
                serial.merge()
            )


class TestOwnedChunk:
    """The validated chunk owns what an asynchronous executor ships, so
    a caller may reuse its batch buffer as soon as ``submit`` returns."""

    def test_coordinate_rows_live_in_a_fresh_array(self):
        config = SamplerConfig.create(1.0, 1, seed=1)
        chunk = ((0.0,), (1.0,))
        owned = chunk_geometry_for(config, chunk)
        assert owned.items is None
        assert owned.array.tolist() == [[0.0], [1.0]]

    def test_list_is_snapshotted(self):
        from repro.streams import StreamPoint

        config = SamplerConfig.create(1.0, 1, seed=1)
        chunk = [StreamPoint((0.0,), 0), (1.0,)]
        owned = chunk_geometry_for(config, chunk)
        assert owned.items == chunk and owned.items is not chunk
        chunk.clear()
        assert len(owned.items) == 2

    def test_ndarray_is_deep_copied(self):
        config = SamplerConfig.create(1.0, 1, seed=1)
        chunk = np.zeros((4, 1))
        owned = chunk_geometry_for(config, chunk)
        chunk[0, 0] = 99.0
        assert owned.array[0, 0] == 0.0


class TestWorkerMapping:
    def test_workers_capped_at_shards(self):
        assert _resolve_workers(None, 3) == 3
        assert _resolve_workers(8, 3) == 3
        assert _resolve_workers(2, 3) == 2


class TestSubmitterLane:
    """One worker and four shards: the submitting process owns half the
    shards and ingests their chunks itself, as the serial executor does."""

    def chunks(self, count, rows=24):
        return [group_stream(rows, seed=seed) for seed in range(count)]

    def serial_after(self, chunks):
        serial = make_pipeline("serial", shards=4, workers=None)
        for chunk in chunks:
            serial.submit(chunk)
        return serial

    def test_submitter_shards_are_never_parked(self):
        chunks = self.chunks(24)
        with make_pipeline("process", shards=4, workers=1) as lane:
            for round_start in range(0, len(chunks), 8):
                for chunk in chunks[round_start : round_start + 8]:
                    lane.submit(chunk)
                lane.sync()
                owner = lane._executor._owner
                assert owner == {0: 0, 1: _SUBMITTER, 2: 0, 3: _SUBMITTER}
                # Only the worker's shards came home to be parked.
                assert sorted(lane._coordinator._parked) == [0, 2]
            stats = lane.executor_stats()
            assert state_fingerprint(lane) == state_fingerprint(
                self.serial_after(chunks)
            )
        assert stats["inline_chunks"] == stats["chunks"] // 2 == 12
        assert stats["shm_chunks"] == 12

    def test_submitter_lane_failure_surfaces_at_sync(self, monkeypatch):
        chunks = self.chunks(8)
        pipeline = make_pipeline("process", shards=4, workers=1)
        pipeline.submit(chunks[0])  # starts the worker
        calls = []

        def poisoned(batch, shard):
            calls.append(shard)
            raise RuntimeError("injected lane failure")

        # The worker was forked already: only the submitter sees this.
        monkeypatch.setattr(pipeline._coordinator, "route_many", poisoned)
        for chunk in chunks[1:]:
            pipeline.submit(chunk)
        with pytest.raises(
            ExecutorError, match="submitter lane failed on shard 1"
        ):
            pipeline.sync()
        # The lane stopped at its first failure, and the failure sticks.
        assert calls == [1]
        assert pipeline._dirty
        with pytest.raises(ExecutorError, match="injected lane failure"):
            pipeline.sync()
        with pytest.raises(ExecutorError):
            pipeline.close()
        assert pipeline._executor is None
        with pytest.raises(ExecutorError):
            pipeline.to_state()

    def test_backlog_bounded_by_the_depth_over_a_long_extend(self):
        stream = group_stream(1200, seed=3)
        serial = make_pipeline("serial", shards=4, workers=None, batch_size=4)
        serial.extend(stream)
        with make_pipeline(
            "process", shards=4, workers=1, batch_size=4
        ) as lane:
            executor = lane._ensure_executor()
            submit, backlog = executor.submit, []

            def recording_submit(shard_id, chunk):
                submit(shard_id, chunk)
                backlog.append(len(executor._inline))

            executor.submit = recording_submit
            lane.extend(stream)
            # 300 chunks, half of them the submitter's: its backlog
            # fills to the depth and stays there.
            assert len(backlog) == 300
            assert max(backlog) == executor._depth < 150
            lane.sync()
            assert not executor._inline
            assert state_fingerprint(lane) == state_fingerprint(serial)

    def test_resume_after_parked_shards_continues_identically(self):
        chunks = self.chunks(20)
        with make_pipeline("process", shards=4, workers=1) as pipeline:
            for chunk in chunks[:5]:
                pipeline.submit(chunk)
            pipeline.close()  # the worker's shards 0 and 2 come home parked
            assert sorted(pipeline._coordinator._parked) == [0, 2]
            # The dealing cursor is at shard 1 now, so the next executor's
            # worker adopts shards 1 and 3 and the submitter ingests into
            # the parked shards 2 and 0, restoring them first.
            for chunk in chunks[5:]:
                pipeline.submit(chunk)
            assert pipeline._executor._owner == {
                1: 0, 2: _SUBMITTER, 3: 0, 0: _SUBMITTER,
            }
            pipeline.sync()
            assert sorted(pipeline._coordinator._parked) == [1, 3]
            assert state_fingerprint(pipeline) == state_fingerprint(
                self.serial_after(chunks)
            )

    def test_worker_per_shard_leaves_the_submitter_idle(self):
        chunks = self.chunks(8)
        with make_pipeline("process", shards=4, workers=None) as pipeline:
            for chunk in chunks:
                pipeline.submit(chunk)
            pipeline.sync()
            assert _SUBMITTER not in pipeline._executor._owner.values()
            assert pipeline.executor_stats()["inline_chunks"] == 0
            assert sorted(pipeline._coordinator._parked) == [0, 1, 2, 3]
