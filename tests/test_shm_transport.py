"""Shared-memory transport lifecycle: segments never outlive the executor.

The zero-copy transport creates real kernel objects (``/dev/shm``
segments for the chunk pool).  These tests prove
the lifecycle claim in :class:`repro.engine.executors._ShmChunkPool`:
every segment is released on ``close()``, on worker crash, on worker
failure, and - via the ``weakref.finalize`` backstop - at interpreter
exit without a ``close()``.  A released segment is one that can no
longer be attached by name.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from stream_generators import poisoned_chunk

from repro.api import L0InfiniteSpec, PipelineSpec, build
from repro.core.chunk_geometry import chunk_geometry_for
from repro.distributed.coordinator import DistributedRobustSampler
from repro.engine import state_fingerprint
from repro.engine import executors as executors_module
from repro.engine.executors import ProcessShardExecutor
from repro.errors import ExecutorError


def group_stream(n=240, seed=41, groups=8):
    rng = random.Random(seed)
    return [
        (25.0 * rng.randrange(groups) + rng.uniform(0, 0.4),)
        for _ in range(n)
    ]


def segment_names(executor) -> list[str]:
    """Every shm segment the executor owns: its pool slots."""
    names = []
    if executor._pool is not None:
        names.extend(executor._pool.segment_names())
    return names


def assert_all_released(names: list[str]) -> None:
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def make_executor(num_workers=2, num_shards=3, seed=7):
    coordinator = DistributedRobustSampler(
        L0InfiniteSpec(alpha=1.0, dim=1, seed=seed),
        num_shards=num_shards,
    )
    return coordinator, ProcessShardExecutor(
        coordinator, num_workers=num_workers
    )


class TestSegmentLifecycle:
    def test_close_releases_every_segment(self):
        coordinator, executor = make_executor()
        try:
            for index, chunk in enumerate(
                group_stream(i * 7 + 40, seed=i) for i in range(6)
            ):
                executor.submit(
                    index % coordinator.num_shards,
                    chunk_geometry_for(coordinator.config, chunk),
                )
            arrivals = list(executor.drain())
            # Worker-settled shards come home decoded, as plain dicts.
            assert arrivals
            assert all(isinstance(state, dict) for _, state in arrivals)
            names = segment_names(executor)
            assert len(names) >= 1  # >= 1 pool segment
        finally:
            executor.close()
        assert_all_released(names)

    def test_close_releases_segments_after_worker_sigkill(self):
        coordinator, executor = make_executor(num_workers=2)
        names = None
        try:
            for index in range(4):
                executor.submit(
                    index % coordinator.num_shards,
                    chunk_geometry_for(
                        coordinator.config, group_stream(seed=index)
                    ),
                )
            names = segment_names(executor)
            victim = executor._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(ExecutorError):
                # Either the liveness check ("died without reporting")
                # or the drain barrier fails - both must leave close()
                # able to reclaim every segment.
                list(executor.drain())
        finally:
            executor.close()
        assert_all_released(names)

    def test_close_releases_segments_after_worker_failure(self):
        coordinator, executor = make_executor(num_workers=1)
        try:
            healthy = chunk_geometry_for(
                coordinator.config, group_stream(seed=3)
            )
            executor.submit(0, healthy)  # a healthy shm chunk
            executor.submit(0, poisoned_chunk(coordinator.config))
            with pytest.raises(ExecutorError, match="shard worker failed"):
                list(executor.drain())
            names = segment_names(executor)
        finally:
            executor.close()
        assert_all_released(names)

    def test_interpreter_exit_backstop_unlinks_segments(self):
        """An executor abandoned without close() must not leak segments:
        the ``weakref.finalize`` backstop unlinks them at exit."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import json, random, sys\n"
            "from repro.core.chunk_geometry import chunk_geometry_for\n"
            "from repro.distributed.coordinator import"
            " DistributedRobustSampler\n"
            "from repro.engine.executors import ProcessShardExecutor\n"
            "rng = random.Random(1)\n"
            "chunk = [(25.0 * rng.randrange(8),) for _ in range(200)]\n"
            "from repro.api.specs import L0InfiniteSpec\n"
            "coordinator = DistributedRobustSampler("
            "L0InfiniteSpec(alpha=1.0, dim=1, seed=1), num_shards=2)\n"
            "executor = ProcessShardExecutor(coordinator, num_workers=1)\n"
            "executor.submit(0, chunk_geometry_for(coordinator.config, chunk))\n"
            "names = []\n"
            "if executor._pool is not None:\n"
            "    names += executor._pool.segment_names()\n"
            "print(json.dumps(names))\n"
            "sys.exit(0)  # no close(): the finalizer must clean up\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        names = json.loads(result.stdout.strip().splitlines()[-1])
        assert names
        assert_all_released(names)


class TestSpawnContext:
    def test_fingerprint_matrix_under_forced_spawn(self, monkeypatch):
        """The transport never relies on fork-inherited state: under a
        forced spawn context (the only option on some platforms) the
        executor matrix still lands fingerprint-identical to serial."""
        monkeypatch.setattr(
            executors_module,
            "_mp_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        stream = group_stream(300, seed=19)
        spec = PipelineSpec(
            alpha=1.0,
            dim=1,
            seed=13,
            num_shards=3,
            batch_size=32,
            executor="serial",
        )
        serial = build("batch-pipeline", spec)
        serial.extend(stream)
        twin_spec = PipelineSpec(
            alpha=1.0,
            dim=1,
            seed=13,
            num_shards=3,
            batch_size=32,
            executor="process",
            num_workers=2,
        )
        with build("batch-pipeline", twin_spec) as twin:
            twin.extend(stream)
            assert state_fingerprint(twin) == state_fingerprint(serial)

    def test_direct_drain_resolves_under_spawn(self, monkeypatch):
        monkeypatch.setattr(
            executors_module,
            "_mp_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        chunks = [group_stream(80, seed=i) for i in range(4)]
        serial = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=5),
            num_shards=2,
        )
        for index, chunk in enumerate(chunks):
            serial.route_many(chunk, index % 2)
        parallel = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=5),
            num_shards=2,
        )
        executor = ProcessShardExecutor(parallel, num_workers=2)
        try:
            for index, chunk in enumerate(chunks):
                executor.submit(
                    index % 2, chunk_geometry_for(parallel.config, chunk)
                )
            for shard_id, state in executor.drain():
                if state is not None:
                    parallel.restore_shard(shard_id, state)
        finally:
            executor.close()
        assert state_fingerprint(parallel) == state_fingerprint(serial)
