"""Crash-safe resumable pipelines (``repro.engine.resumable``).

The acceptance gate of the StateBackend PR: a ``run_resumable`` job
killed mid-stream and rerun with the same arguments must finish with a
``state_fingerprint`` identical to an uninterrupted run - for the
memory and file backends always, for redis when ``REPRO_REDIS_URL``
points at a server - and two workers racing on one checkpoint key must
never produce torn or lost shard state (exactly one create-only CAS
winner; a stale writer's commit raises with nothing applied).

Kills are injected two ways: an exploding stream (the in-process
simulation of dying mid-ingest, after an arbitrary number of committed
checkpoints) and a real ``SIGKILL`` of a subprocess driving the CLI's
``pipeline --backend`` path against a file backend.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import PipelineSpec
from repro.backends import FileBackend, MemoryBackend
from repro.engine import BatchPipeline, run_resumable, state_fingerprint
from repro.engine.resumable import DEFAULT_CHECKPOINT_EVERY  # noqa: F401
from repro.errors import CASConflictError, CheckpointError, ParameterError

SRC = Path(__file__).resolve().parent.parent / "src"

BATCH = 16
TOTAL = 23 * BATCH + 7  # an uneven tail: the last chunk is partial


def stream(n=TOTAL, seed=41, groups=9):
    rng = random.Random(seed)
    return [
        (25.0 * rng.randrange(groups) + rng.uniform(0, 0.4),)
        for _ in range(n)
    ]


def spec(**overrides) -> PipelineSpec:
    base = dict(
        alpha=1.0, dim=1, seed=13, num_shards=3, batch_size=BATCH
    )
    base.update(overrides)
    return PipelineSpec(**base)


class ExplodingStream:
    """A stream that dies after yielding ``fuse`` points (mid-ingest)."""

    class Boom(RuntimeError):
        pass

    def __init__(self, points, fuse: int) -> None:
        self._points = points
        self._fuse = fuse

    def __iter__(self):
        for i, point in enumerate(self._points):
            if i >= self._fuse:
                raise self.Boom(f"killed after {i} points")
            yield point


def make_backend_for(flavour: str, tmp_path, name: str):
    if flavour == "memory":
        return MemoryBackend()
    if flavour == "file":
        return FileBackend(str(tmp_path / "backend"))
    from repro.backends import HAVE_REDIS, RedisBackend

    url = os.environ.get("REPRO_REDIS_URL")
    if not url:
        pytest.skip("REPRO_REDIS_URL not set; no redis server to test")
    if not HAVE_REDIS:
        pytest.skip("redis package not installed (the [redis] extra)")
    backend = RedisBackend(url, namespace=f"repro-test:{name}")
    try:
        backend.ping()
    except Exception:
        pytest.skip("redis server unreachable")
    backend.clear()
    return backend


@pytest.fixture(params=["memory", "file", "redis"])
def backend(request, tmp_path):
    instance = make_backend_for(
        request.param, tmp_path, request.node.name
    )
    yield instance
    if request.param == "redis":
        instance.clear()
    instance.close()


class TestUninterrupted:
    def test_matches_a_plain_run(self, backend):
        """Checkpointing is observationally free: same final state as
        feeding the pipeline directly."""
        plain = BatchPipeline(spec=spec())
        plain.extend(stream())
        plain.close()
        resumed = run_resumable(
            spec(), stream(), backend, "job", checkpoint_every=3
        )
        assert state_fingerprint(resumed) == state_fingerprint(plain)
        assert resumed.points_seen == TOTAL

    def test_rerun_is_a_noop_resume(self, backend):
        first = run_resumable(
            spec(), stream(), backend, "job", checkpoint_every=3
        )
        version = backend.get_versioned("job")[1]
        again = run_resumable(spec(), stream(), backend, "job")
        assert state_fingerprint(again) == state_fingerprint(first)
        # Nothing new to ingest, nothing new committed.
        assert backend.get_versioned("job")[1] == version

    def test_empty_stream_commits_a_fresh_checkpoint(self, backend):
        pipeline = run_resumable(spec(), [], backend, "job")
        assert pipeline.points_seen == 0
        assert backend.get_versioned("job") is not None

    def test_checkpoint_every_validated(self, backend):
        with pytest.raises(ParameterError):
            run_resumable(spec(), [], backend, "job", checkpoint_every=0)


class TestKilledAndResumed:
    @pytest.mark.parametrize("fuse", [BATCH * 5 + 3, BATCH * 12, TOTAL - 1])
    def test_resume_is_fingerprint_identical(self, backend, fuse):
        """THE acceptance gate: kill at an arbitrary point, rerun the
        same call, land fingerprint-identical to the uninterrupted run."""
        uninterrupted = BatchPipeline(spec=spec())
        uninterrupted.extend(stream())
        uninterrupted.close()
        with pytest.raises(ExplodingStream.Boom):
            run_resumable(
                spec(),
                ExplodingStream(stream(), fuse),
                backend,
                "job",
                checkpoint_every=2,
            )
        checkpointed, version = BatchPipeline.resume_from(backend, "job")
        assert checkpointed is not None
        assert version >= 1
        # Committed checkpoints are chunk-aligned by construction.
        assert checkpointed.points_seen % BATCH == 0
        assert checkpointed.points_seen <= fuse
        resumed = run_resumable(
            spec(), stream(), backend, "job", checkpoint_every=2
        )
        assert resumed.points_seen == TOTAL
        assert state_fingerprint(resumed) == state_fingerprint(
            uninterrupted
        )
        assert resumed.estimate_f0() == uninterrupted.estimate_f0()

    def test_double_kill_then_resume(self, backend):
        """Two crashes at different depths, then a clean finish."""
        uninterrupted = BatchPipeline(spec=spec())
        uninterrupted.extend(stream())
        uninterrupted.close()
        for fuse in (BATCH * 4 + 1, BATCH * 15 + 9):
            with pytest.raises(ExplodingStream.Boom):
                run_resumable(
                    spec(),
                    ExplodingStream(stream(), fuse),
                    backend,
                    "job",
                    checkpoint_every=1,
                )
        resumed = run_resumable(
            spec(), stream(), backend, "job", checkpoint_every=1
        )
        assert state_fingerprint(resumed) == state_fingerprint(
            uninterrupted
        )

    def test_parallel_executor_checkpoints_are_synchronised(
        self, backend
    ):
        """A process-executor run checkpoints synchronised (drained)
        states: killing it and resuming still lands fingerprint-equal
        to an uninterrupted serial run."""
        parallel = spec(executor="process", num_workers=2)
        serial_run = BatchPipeline(spec=spec())
        serial_run.extend(stream())
        serial_run.close()
        with pytest.raises(ExplodingStream.Boom):
            run_resumable(
                parallel,
                ExplodingStream(stream(), BATCH * 9 + 5),
                backend,
                "job",
                checkpoint_every=2,
            )
        resumed = run_resumable(
            parallel, stream(), backend, "job", checkpoint_every=2
        )
        assert state_fingerprint(resumed) == state_fingerprint(serial_run)


class TestConcurrentWriters:
    def test_create_race_elects_one_owner(self, backend):
        """Two fresh workers on one key: the loser's create-only CAS
        raises before it ingests anything."""
        run_resumable(spec(), stream(), backend, "job")
        # A second fresh worker arriving later resumes instead of
        # racing - the create path only runs when the key is absent -
        # so simulate the true race: the key appears between the
        # loser's resume_from and its create CAS.
        pipeline = BatchPipeline(spec=spec())
        with pytest.raises(CASConflictError):
            pipeline.checkpoint_to(backend, "job", cas_version=0)
        pipeline.close()

    def test_stale_writer_loses_wholly(self, backend):
        """A writer fenced on an old version cannot commit anything:
        the winner's checkpoint survives byte-for-byte."""
        run_resumable(spec(), stream(), backend, "job", checkpoint_every=4)
        winner_blob = backend.get_versioned("job")
        stale = BatchPipeline(spec=spec())
        stale.extend(stream(n=BATCH * 2, seed=99))
        with pytest.raises(CASConflictError):
            stale.checkpoint_to(backend, "job", cas_version=1)
        stale.close()
        assert backend.get_versioned("job") == winner_blob

    def test_interleaved_checkpointers_never_tear(self, backend):
        """Two live runs ping-ponging commits on one key: every commit
        either lands wholly (and bumps the version by one) or raises
        wholly; the final blob is always one run's complete state."""
        first = BatchPipeline(spec=spec())
        second = BatchPipeline(spec=spec(seed=77))
        version_first = first.checkpoint_to(backend, "job", cas_version=0)
        first.extend(stream(n=BATCH * 3))
        version_first = first.checkpoint_to(
            backend, "job", cas_version=version_first
        )
        # The second run fences on what it (never) saw: conflict.
        with pytest.raises(CASConflictError):
            second.checkpoint_to(backend, "job", cas_version=0)
        # It rebases on the live version and wins the next round.
        live_version = backend.get_versioned("job")[1]
        second.checkpoint_to(backend, "job", cas_version=live_version)
        restored, _ = BatchPipeline.resume_from(backend, "job")
        assert state_fingerprint(restored) == state_fingerprint(second)
        # ... which in turn fences out the first run's next commit.
        with pytest.raises(CASConflictError):
            first.checkpoint_to(backend, "job", cas_version=version_first)
        first.close()
        second.close()


class TestGuards:
    def test_key_collision_between_jobs_is_refused(self, backend):
        run_resumable(spec(), stream(), backend, "job")
        with pytest.raises(CheckpointError, match="different"):
            run_resumable(spec(seed=99), stream(), backend, "job")

    def test_non_pipeline_checkpoint_under_key_is_refused(self, backend):
        from repro.core.infinite_window import RobustL0SamplerIW
        from repro.persist import store_summary

        sampler = RobustL0SamplerIW(1.0, 1, seed=3)
        store_summary(backend, "job", sampler)
        with pytest.raises(CheckpointError, match="batch-pipeline"):
            run_resumable(spec(), stream(), backend, "job")

    def test_shrunken_stream_is_refused(self, backend):
        """Resuming against a stream shorter than what the checkpoint
        consumed means the streams differ - refuse, don't corrupt."""
        run_resumable(spec(), stream(), backend, "job")
        with pytest.raises(CheckpointError, match="restartable"):
            run_resumable(spec(), stream(n=BATCH), backend, "job")


class TestSigkilledCliRun:
    """A real kill -9 of the CLI's ``pipeline --backend file`` path."""

    def _run_cli(self, data: str, backend_dir: str, *, env, kill_after=None):
        command = [
            sys.executable, "-m", "repro.cli", "pipeline",
            "--alpha", "0.5", "--seed", "7", "--batch-size", "8",
            "--shards", "3", "--backend", "file",
            "--backend-path", backend_dir,
            "--checkpoint-every", "1", data,
        ]
        if kill_after is None:
            return subprocess.run(
                command, capture_output=True, text=True, timeout=300,
                env=env,
            )
        process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=env,
        )
        time.sleep(kill_after)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        return process

    def test_kill_minus_nine_then_rerun_matches_clean_run(self, tmp_path):
        data = tmp_path / "points.csv"
        with open(data, "w") as handle:
            for i in range(4000):
                handle.write(f"{(i % 23) * 10.0},{(i % 17) * 10.0}\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        clean = self._run_cli(
            str(data), str(tmp_path / "clean-backend"), env=env
        )
        assert clean.returncode == 0, clean.stderr
        backend_dir = str(tmp_path / "killed-backend")
        self._run_cli(str(data), backend_dir, env=env, kill_after=0.4)
        # Whether or not the kill landed mid-run, the rerun must finish
        # from whatever was committed and print the clean run's answer.
        rerun = self._run_cli(str(data), backend_dir, env=env)
        assert rerun.returncode == 0, rerun.stderr
        assert rerun.stdout == clean.stdout
