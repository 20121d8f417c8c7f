"""Chaos suite of the remote executor (``repro.engine.remote_worker``,
served by ``python -m repro.cli worker``).

The remote executor's correctness story has three layers, each pinned
here:

* **Lease protocol** (``repro.backends.lease``): create-only CAS
  acquisition, heartbeat renewal, steal-only-when-stale, release marks
  the entry stale instead of deleting it (the ABA guard).
* **CAS fence** (``repro.engine.queue``): a shard's committed
  ``(consumed_seq, state)`` entry moves only through compare-and-swap
  at the publisher's last-observed version, so a worker that lost its
  shard can never land a torn merge - its next commit conflicts with
  *nothing applied*.
* **Chaos**: a real worker subprocess serving a file-backend queue is
  ``SIGKILL``\\ ed (dead worker: shards re-adopted after the lease ttl,
  final fingerprint identical to a serial replay) and ``SIGSTOP``\\ ped
  across a steal (stale worker: resurrected after its leases are gone,
  it must observe the loss and abandon its replicas wholesale).

Everything in-process runs on the memory backend so the suite stays
fast; the subprocess chaos runs on the file backend (the only shared
backend that needs no server).  The redis flavour joins when
``REPRO_REDIS_URL`` is set and skips cleanly otherwise, mirroring
``tests/test_backends.py``.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from stream_generators import poisoned_chunk

from repro.api import PipelineSpec, build
from repro.backends import FileBackend, MemoryBackend
from repro.backends.lease import (
    acquire_lease,
    read_lease,
    release_lease,
    renew_lease,
)
from repro.core.base import SamplerConfig
from repro.core.chunk_geometry import chunk_geometry_for
from repro.engine import BatchPipeline, run_resumable, state_fingerprint
from repro.engine.executors import _REMOTE_FLUSH_CHUNKS
from repro.engine.queue import RemoteQueue, decode_chunk, encode_chunk
from repro.engine.remote_worker import run_worker
from repro.errors import CASConflictError, ExecutorError, ParameterError
from repro.streams import StreamPoint

SRC = Path(__file__).resolve().parent.parent / "src"

BATCH = 32
SHARDS = 3


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def group_stream(n=360, seed=51, groups=10):
    rng = random.Random(seed)
    return [
        (25.0 * rng.randrange(groups) + rng.uniform(0, 0.4),)
        for _ in range(n)
    ]


def pipeline_spec(executor="remote", **overrides) -> PipelineSpec:
    base = dict(
        alpha=1.0,
        dim=1,
        seed=13,
        num_shards=SHARDS,
        batch_size=BATCH,
        executor=executor,
    )
    base.update(overrides)
    return PipelineSpec(**base)


def serial_twin(stream):
    pipeline = build("batch-pipeline", pipeline_spec("serial"))
    pipeline.extend(stream)
    return pipeline


# --------------------------------------------------------------------- #
# chunk codec
# --------------------------------------------------------------------- #


class TestChunkCodec:
    def test_float_chunk_round_trips_as_array(self):
        chunk = [(1.0, 2.5), (3.0, -4.25)]
        config = SamplerConfig.create(1.0, 2, seed=1)
        payload = encode_chunk(chunk_geometry_for(config, chunk))
        kind, decoded = decode_chunk(payload)
        assert kind == "array"
        recovered = [tuple(map(float, row)) for row in decoded]
        assert recovered == [(1.0, 2.5), (3.0, -4.25)]

    def test_ineligible_chunk_round_trips_via_pickle(self):
        # StreamPoint arrival metadata has no array form.
        chunk = [StreamPoint((1.0,), 7, 9.5), (2.0,)]
        config = SamplerConfig.create(1.0, 1, seed=1)
        payload = encode_chunk(chunk_geometry_for(config, chunk))
        kind, decoded = decode_chunk(payload)
        assert kind == "pickle"
        assert decoded == chunk

    def test_foreign_payload_rejected(self):
        with pytest.raises(ValueError):
            decode_chunk(b"JUNK" + b"\x00" * 16)


# --------------------------------------------------------------------- #
# lease protocol
# --------------------------------------------------------------------- #


class TestLeaseProtocol:
    def test_fresh_acquire_is_create_only_and_exclusive(self):
        backend = MemoryBackend()
        lease = acquire_lease(backend, "lease/0", "a", ttl=5.0, now=100.0)
        assert lease is not None and lease.worker_id == "a"
        # A fresh holder cannot be displaced.
        assert (
            acquire_lease(backend, "lease/0", "b", ttl=5.0, now=101.0)
            is None
        )
        # Re-acquiring one's own lease refreshes it.
        again = acquire_lease(backend, "lease/0", "a", ttl=5.0, now=102.0)
        assert again is not None and again.version > lease.version

    def test_stale_lease_is_stolen_and_loser_conflicts(self):
        backend = MemoryBackend()
        held = acquire_lease(backend, "lease/0", "a", ttl=1.0, now=100.0)
        # Past the ttl the holder is presumed dead: "b" steals.
        stolen = acquire_lease(backend, "lease/0", "b", ttl=1.0, now=102.0)
        assert stolen is not None and stolen.worker_id == "b"
        assert read_lease(backend, "lease/0")[0] == "b"
        # The original holder's heartbeat now fails - it must abandon.
        with pytest.raises(CASConflictError):
            renew_lease(backend, held, now=102.5)

    def test_renew_keeps_ownership_alive(self):
        backend = MemoryBackend()
        lease = acquire_lease(backend, "lease/0", "a", ttl=1.0, now=100.0)
        lease = renew_lease(backend, lease, now=100.9)
        lease = renew_lease(backend, lease, now=101.8)
        # Beats kept fresh: nobody can steal.
        assert (
            acquire_lease(backend, "lease/0", "b", ttl=1.0, now=102.0)
            is None
        )

    def test_release_marks_stale_without_deleting(self):
        backend = MemoryBackend()
        lease = acquire_lease(backend, "lease/0", "a", ttl=60.0, now=100.0)
        assert release_lease(backend, lease) is True
        # The entry survives (no version reset = no ABA window) but any
        # successor adopts immediately, no ttl wait.
        holder, beat, version = read_lease(backend, "lease/0")
        assert (holder, beat) == ("", 0.0) and version > lease.version
        successor = acquire_lease(
            backend, "lease/0", "b", ttl=60.0, now=100.1
        )
        assert successor is not None
        # Releasing a lease that was already stolen reports the loss.
        assert release_lease(backend, lease) is False

    def test_debris_under_the_key_counts_as_stale(self):
        backend = MemoryBackend()
        backend.put("lease/0", b"\xff not json")
        assert read_lease(backend, "lease/0") == ("", 0.0, 1)
        lease = acquire_lease(backend, "lease/0", "a", ttl=5.0, now=100.0)
        assert lease is not None

    def test_racing_adopters_elect_exactly_one(self):
        backend = MemoryBackend()
        backend.put("lease/0", b'{"worker": "dead", "beat": 0.0}')
        winners = [
            acquire_lease(backend, "lease/0", worker, ttl=1.0, now=50.0)
            for worker in ("a", "b")  # both see the same stale entry
        ]
        # The memory backend serialises the CASes: exactly one wins.
        assert [lease.worker_id for lease in winners if lease] == ["a"]


# --------------------------------------------------------------------- #
# the CAS fence
# --------------------------------------------------------------------- #


class TestCASFence:
    def make_queue(self):
        backend = MemoryBackend()
        queue = RemoteQueue.create(
            backend,
            "q",
            config_state={"fake": True},
            dim=1,
            shard_states=[{"shard": 0}],
        )
        return backend, queue

    def test_stale_publisher_loses_wholly(self):
        """THE torn-merge guard: after a steal, the previous holder's
        commit conflicts and nothing of it lands."""
        _backend, queue = self.make_queue()
        seq, state, version = queue.read_state(0)
        assert (seq, state) == (0, {"shard": 0})
        # The thief re-adopts and commits first.
        thief_version = queue.publish_state(0, version, 1, {"winner": "b"})
        # The stale holder - SIGSTOPped across the steal, say - wakes up
        # and tries to commit its own fold of the same chunk.
        with pytest.raises(CASConflictError) as excinfo:
            queue.publish_state(0, version, 1, {"loser": "a"})
        assert excinfo.value.actual_version == thief_version
        assert queue.read_state(0) == (1, {"winner": "b"}, thief_version)

    def test_commit_chain_advances_the_fence(self):
        _backend, queue = self.make_queue()
        _seq, _state, version = queue.read_state(0)
        for consumed in (1, 2, 3):
            version = queue.publish_state(
                0, version, consumed, {"upto": consumed}
            )
        assert queue.read_state(0)[0] == 3

    def test_meta_published_after_state_seeds(self):
        """Meta's presence implies every shard is adoptable: the state
        entries must be committed first."""
        backend = MemoryBackend()
        queue = RemoteQueue.create(
            backend,
            "q",
            config_state={},
            dim=1,
            shard_states=[{"s": 0}, {"s": 1}],
        )
        meta_version = backend.get_versioned(queue.meta_key)[1]
        assert meta_version == 1
        for shard in range(2):
            assert queue.read_state(shard) is not None
        assert queue.meta()["num_shards"] == 2

    def test_fresh_epoch_per_executor(self):
        backend = MemoryBackend()
        first = RemoteQueue.create(
            backend, "q", config_state={}, dim=1, shard_states=[{}]
        )
        second = RemoteQueue.create(
            backend, "q", config_state={}, dim=1, shard_states=[{}]
        )
        assert second.epoch == first.epoch + 1
        # The old epoch's keys are dead weight, not aliases.
        assert first.state_key(0) != second.state_key(0)
        assert RemoteQueue.open(backend, "q").epoch == second.epoch


# --------------------------------------------------------------------- #
# in-process equivalence (the fast matrix; subprocess chaos is below)
# --------------------------------------------------------------------- #


class TestRemoteMatchesSerial:
    def test_fingerprint_identical_with_local_workers(self):
        stream = group_stream()
        serial = serial_twin(stream)
        with build(
            "batch-pipeline", pipeline_spec(num_workers=2)
        ) as remote:
            remote.extend(stream)
            stats = remote.executor_stats()
            assert state_fingerprint(remote) == state_fingerprint(serial)
        assert stats["executor"] == "remote"
        assert stats["chunks"] == math.ceil(len(stream) / BATCH)
        assert stats["array_chunks"] + stats["pickle_chunks"] == (
            stats["chunks"]
        )

    def test_zero_configuration_default_spec(self):
        # A plain remote spec (no queue knobs) must just work: private
        # memory backend, one local worker thread.
        stream = group_stream(120, seed=3)
        serial = serial_twin(stream)
        with build("batch-pipeline", pipeline_spec()) as remote:
            remote.extend(stream)
            assert state_fingerprint(remote) == state_fingerprint(serial)

    def test_run_resumable_killed_and_resumed(self):
        """Mid-stream kill + resume under the remote executor lands
        fingerprint-identical to an uninterrupted serial run."""

        class Boom(RuntimeError):
            pass

        def exploding(points, fuse):
            for index, point in enumerate(points):
                if index >= fuse:
                    raise Boom
                yield point

        stream = group_stream(300, seed=23)
        serial = serial_twin(stream)
        spec = pipeline_spec(num_workers=2)
        backend = MemoryBackend()
        with pytest.raises(Boom):
            run_resumable(
                spec,
                exploding(stream, BATCH * 5 + 3),
                backend,
                "job",
                checkpoint_every=2,
            )
        checkpointed, _version = BatchPipeline.resume_from(backend, "job")
        assert checkpointed is not None
        assert checkpointed.points_seen % BATCH == 0
        resumed = run_resumable(
            spec, stream, backend, "job", checkpoint_every=2
        )
        assert state_fingerprint(resumed) == state_fingerprint(serial)

    def test_worker_stats_from_direct_run(self):
        # run_worker on a queue with no epoch exits clean on max_idle.
        backend = MemoryBackend()
        stats = run_worker(
            backend, "empty", poll_interval=0.005, max_idle=0.05
        )
        assert stats == {
            "chunks": 0,
            "adoptions": 0,
            "leases_lost": 0,
            "cas_rejections": 0,
            "errors": 0,
        }

    def test_invalid_remote_knobs_rejected(self):
        with pytest.raises(ParameterError, match="lease_ttl"):
            pipeline_spec(lease_ttl=0.0)
        with pytest.raises(ParameterError, match="queue_backend"):
            pipeline_spec(queue_backend="warp")
        with pytest.raises(ParameterError, match="remote"):
            pipeline_spec("process", queue_key="q")
        # num_workers=0 is remote-only (external workers): everyone
        # else still needs at least one.
        assert pipeline_spec(num_workers=0).num_workers == 0
        with pytest.raises(ParameterError, match="num_workers"):
            pipeline_spec("process", num_workers=0)


# --------------------------------------------------------------------- #
# subprocess chaos (file backend: the no-server shared transport)
# --------------------------------------------------------------------- #

LEASE_TTL = 0.5


class TestWorkerChaos:
    """Real worker processes, real signals, shared directory backend."""

    def spawn_worker(self, path, queue_key, worker_id, max_idle=None):
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--backend",
            "file",
            "--backend-path",
            str(path),
            "--queue-key",
            queue_key,
            "--worker-id",
            worker_id,
            "--lease-ttl",
            str(LEASE_TTL),
            "--poll-interval",
            "0.01",
        ]
        if max_idle is not None:
            argv += ["--max-idle", str(max_idle)]
        return subprocess.Popen(
            argv,
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def wait_for(self, predicate, timeout=30.0, interval=0.02):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(interval)
        raise AssertionError("chaos scenario timed out")

    def progress(self, reader, queue_key):
        """Total committed chunk count across shards (lock-free reads)."""
        queue = RemoteQueue.open(reader, queue_key)
        if queue is None or queue.meta() is None:
            return 0
        total = 0
        for shard in range(SHARDS):
            found = queue.read_state(shard)
            if found is not None:
                total += found[0]
        return total

    def remote_pipeline(self, path, queue_key):
        return build(
            "batch-pipeline",
            pipeline_spec(
                num_workers=0,  # every worker is an external process
                queue_backend="file",
                queue_path=str(path),
                queue_key=queue_key,
                lease_ttl=LEASE_TTL,
            ),
        )

    def test_sigkilled_worker_is_readopted_fingerprint_exact(
        self, tmp_path
    ):
        """Kill -9 a live worker mid-stream: its shards' leases go
        stale, a successor re-adopts from the last committed states and
        the final fingerprint equals a serial replay - the queued
        chunks at or after each committed seq are still there because a
        chunk is deleted only once its fold is committed."""
        path = tmp_path / "queue"
        stream = group_stream(480, seed=7)
        serial = serial_twin(stream)
        pipeline = self.remote_pipeline(path, "chaos-kill")
        doomed = successor = None
        try:
            pipeline.extend(stream)  # submits; nobody consumes yet
            reader = FileBackend(str(path))
            doomed = self.spawn_worker(path, "chaos-kill", "doomed")
            self.wait_for(
                lambda: self.progress(reader, "chaos-kill") >= 1
            )
            os.kill(doomed.pid, signal.SIGKILL)
            doomed.wait(timeout=30)
            killed_at = self.progress(reader, "chaos-kill")
            assert killed_at >= 1  # died with committed progress
            successor = self.spawn_worker(path, "chaos-kill", "successor")
            # The drain below blocks until the successor - after waiting
            # out the dead worker's lease ttl - finishes every shard.
            assert state_fingerprint(pipeline) == state_fingerprint(
                serial
            )
            reader.close()
        finally:
            for proc in (doomed, successor):
                if proc is not None and proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=30)
            pipeline.close()

    def test_sigstopped_worker_loses_wholly_at_the_fence(self, tmp_path):
        """SIGSTOP a worker across a lease steal, finish the stream with
        a thief, then SIGCONT: the resurrected stale worker must observe
        the loss (lease/fence version moved) and abandon its replicas -
        its counters record the loss, the final state shows no tearing."""
        path = tmp_path / "queue"
        stream = group_stream(480, seed=19)
        serial = serial_twin(stream)
        pipeline = self.remote_pipeline(path, "chaos-stop")
        stale = thief = None
        stopped = False
        watchdog = None
        try:
            pipeline.extend(stream)
            reader = FileBackend(str(path))
            stale = self.spawn_worker(path, "chaos-stop", "stale",
                                      max_idle=3.0)
            # Stop the victim only once it is *idle*: it must have
            # folded every chunk flushed so far (the executor holds the
            # tail until the drain) and just renewed every heartbeat.
            # An idle worker only briefly touches the backend's file
            # lock (~0.2ms heartbeat every ttl/3), so the stop lands in
            # a quiet window instead of freezing the victim inside a
            # critical section - which would wedge the flock for the
            # thief and the submitter alike.
            total_chunks = math.ceil(len(stream) / BATCH)
            flushed = (
                total_chunks // _REMOTE_FLUSH_CHUNKS
            ) * _REMOTE_FLUSH_CHUNKS
            self.wait_for(
                lambda: self.progress(reader, "chaos-stop") >= flushed
            )
            queue = RemoteQueue.open(reader, "chaos-stop")

            def all_beats_fresh():
                now = time.time()
                beats = [
                    read_lease(reader, queue.lease_key(shard))
                    for shard in range(SHARDS)
                ]
                return all(
                    found is not None and now - found[1] < 0.06
                    for found in beats
                )

            self.wait_for(all_beats_fresh, timeout=30.0, interval=0.002)
            os.kill(stale.pid, signal.SIGSTOP)
            stopped = True
            # Last-resort deadlock valve: if the stop did freeze the
            # victim inside the flock after all, resume it so the test
            # fails on assertions rather than hanging the suite.
            import threading

            watchdog = threading.Timer(
                20.0, lambda: os.kill(stale.pid, signal.SIGCONT)
            )
            watchdog.daemon = True
            watchdog.start()
            thief = self.spawn_worker(path, "chaos-stop", "thief")
            # The thief steals every stale lease and finishes the
            # stream while the victim is frozen.
            assert state_fingerprint(pipeline) == state_fingerprint(
                serial
            )
            # Resurrect the stale worker *before* tearing the queue
            # down: it must wake into a world where its shards belong
            # to someone else, count the losses, and exit idle.
            os.kill(stale.pid, signal.SIGCONT)
            stopped = False
            stdout, _stderr = stale.communicate(timeout=30)
            stale_stats = json.loads(stdout)
            assert (
                stale_stats["leases_lost"]
                + stale_stats["cas_rejections"]
                >= 1
            )
            assert stale_stats["errors"] == 0
            # And the merged result is still exact: nothing the stale
            # worker did after the steal landed.
            assert state_fingerprint(pipeline) == state_fingerprint(
                serial
            )
            reader.close()
        finally:
            if watchdog is not None:
                watchdog.cancel()
            if stale is not None and stopped:
                os.kill(stale.pid, signal.SIGCONT)
            for proc in (stale, thief):
                if proc is not None and proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=30)
            pipeline.close()

    def test_worker_cli_exits_clean_on_idle_queue(self, tmp_path):
        proc = self.spawn_worker(
            tmp_path / "empty", "nobody-home", "idler", max_idle=0.2
        )
        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 0, stderr
        stats = json.loads(stdout)
        assert stats["chunks"] == 0 and stats["adoptions"] == 0

    def test_worker_cli_requires_backend_flags(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "worker"],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2  # argparse usage error
        assert "--backend" in proc.stderr


# --------------------------------------------------------------------- #
# redis flavour (skips cleanly without a server, like test_backends)
# --------------------------------------------------------------------- #


class TestRedisFlavour:
    def test_fingerprint_identical_over_redis(self):
        url = os.environ.get("REPRO_REDIS_URL")
        if not url:
            pytest.skip("REPRO_REDIS_URL not set; no redis server to test")
        from repro.backends import HAVE_REDIS, RedisBackend

        if not HAVE_REDIS:
            pytest.skip("redis package not installed (the [redis] extra)")
        probe = RedisBackend(url, namespace="repro-test:remote-exec")
        try:
            probe.ping()
        except Exception:
            pytest.skip("redis server unreachable")
        probe.clear()
        probe.close()
        stream = group_stream(240, seed=29)
        serial = serial_twin(stream)
        spec = pipeline_spec(
            num_workers=2,
            queue_backend="redis",
            queue_url=url,
            queue_key="remote-exec-test",
            lease_ttl=LEASE_TTL,
        )
        with build("batch-pipeline", spec) as remote:
            remote.extend(stream)
            assert state_fingerprint(remote) == state_fingerprint(serial)


# --------------------------------------------------------------------- #
# poisoned shards stay sticky (no retry by adopters)
# --------------------------------------------------------------------- #


class TestPoisonedShard:
    def test_error_is_reported_and_not_retried(self):
        """A chunk that fails to fold reports through the error key;
        the poisoned worker holds the shard (heartbeating) so the next
        adopter does not loop on the same poison."""
        pipeline = build("batch-pipeline", pipeline_spec(num_workers=2))
        pipeline.extend(group_stream(96, seed=31))
        # Past the pipeline's validating submit: straight to the
        # executor, as a foreign writer of the shared queue could.
        poison = poisoned_chunk(pipeline.config)
        pipeline._ensure_executor().submit(0, poison)
        with pytest.raises(ExecutorError, match="remote worker failed"):
            pipeline.sync()
        with pytest.raises(ExecutorError):
            pipeline.to_state()
        with pytest.raises(ExecutorError):
            pipeline.close()
        assert pipeline._executor is None  # workers released regardless
