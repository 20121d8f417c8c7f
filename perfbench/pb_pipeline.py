"""Workload ``highdim-pipeline``: the sharded pipeline on a process worker.

``BatchPipeline`` with ``executor="process"`` and one worker (the
coordinator plus the worker fill a 2-core box), dim 3, 4 shards, fed
4096-point numpy chunks drawn around a million lattice groups, so
nearly every point is its own group.  This exercises the
shared-memory chunk transport, the worker's dim-3 geometry probe and
the infinite-window samplers behind it.  Ingestion runs in rounds: a
chunk per shard through ``submit``, then ``sync()`` to drain the
backlog, then a query through the coordinator's merge.  The sliding core and the
service are bypassed.

The reference kernel runs only between ingest calls, when the worker
is idle: run beside a busy worker it would measure contention for the
second core instead of the host's speed.

The output check replays the same chunks through the serial executor
and requires an identical state fingerprint; the replay also gives the
single-threaded baseline (``serial.ingest_pts_per_s``).
"""

from __future__ import annotations

import contextlib
import gc
import random
import statistics
import time
import traceback
from dataclasses import dataclass

from pb_clock import HostClock, SetupTimer
from pb_stats import Recorder, Report, median_ms, overhead, peak_rss_mb
from pb_trace import Tracer, maybe_span, patched, self_times

NAME = "highdim-pipeline"

#: Seed of the pipeline's own randomness; inputs come from ``--seed``.
SUMMARY_SEED = 2018


@dataclass(frozen=True)
class Params:
    dim: int = 3
    shards: int = 4
    workers: int = 1
    chunk: int = 4096
    #: Lattice groups per axis (groups = side ** dim).
    side: int = 100
    #: Chunks per ingest call (one per shard), each call ending in sync().
    round_chunks: int = 4
    warmup_chunks: int = 12
    setups: int = 5

    @property
    def sampled_rounds(self) -> int:
        """Ingest calls followed by a query and a footprint sample.

        The infinite-window state grows in a sawtooth whose teeth double
        in length along the stream (the sampling rate halves each time
        the number of distinct groups doubles), and where the teeth fall
        varies with the seed.  Sampling the stream positions from the
        end of the warm-up to sixteen times that - four whole doublings -
        averages over the teeth whatever their phase; sampling however
        far a run got would also tie the figures to the host's speed.
        """
        return 15 * self.warmup_chunks // self.round_chunks

    @classmethod
    def small(cls) -> "Params":
        return cls(chunk=512, side=20, warmup_chunks=4, setups=2)


def make_chunk(seed: int, index: int, params: Params):
    """Chunk ``index`` of the stream: a ``(chunk, dim)`` float64 array."""
    import numpy as np

    rng = np.random.default_rng([seed, index])
    groups = rng.integers(0, params.side ** params.dim, params.chunk)
    axes = [(groups // params.side ** axis) % params.side for axis in range(params.dim)]
    base = np.stack(axes, axis=1) * 25.0
    return base + rng.uniform(0.0, 0.4, (params.chunk, params.dim))


def _spec(params: Params, executor: str):
    from repro.api.specs import PipelineSpec

    return PipelineSpec(
        alpha=1.0,
        dim=params.dim,
        seed=SUMMARY_SEED,
        num_shards=params.shards,
        batch_size=params.chunk,
        executor=executor,
        num_workers=params.workers if executor == "process" else None,
    )


class _State:
    def __init__(self, seed: int, params: Params, clock: HostClock) -> None:
        self.seed = seed
        self.params = params
        self.clock = clock
        self.pipeline = None
        self.cursor = 0
        self.spawn_s: list[float] = []

    def chunks(self, count: int) -> list:
        """The next ``count`` chunks of the stream (generated untimed)."""
        chunks = [
            make_chunk(self.seed, self.cursor + i, self.params) for i in range(count)
        ]
        self.cursor += count
        return chunks

    def build(self, warmup: list) -> None:
        """Construct, spawn and adopt the worker, warm up, sync: the set-up."""
        from repro.engine.pipeline import BatchPipeline

        self.pipeline = BatchPipeline(spec=_spec(self.params, "process"))
        start = time.perf_counter()
        self.pipeline.submit(warmup[0])  # starts the executor
        self.spawn_s.append(time.perf_counter() - start)
        for chunk in warmup[1:]:
            self.pipeline.submit(chunk)
        self.pipeline.sync()


def _measure(state: _State, seconds: float, tracer: Tracer | None) -> Recorder:
    """Ingest calls of one chunk per shard, each drained by ``sync()``.

    A single ``submit`` only queues a chunk (tens of microseconds), and
    the first one after a sync also re-adopts the shards, so the unit of
    ingest latency here is the whole call: the submits plus the sync
    that makes them visible to queries.  A query follows each of the
    first :attr:`Params.sampled_rounds` calls.
    """
    from repro.persist import dumps_summary

    params, clock, pipeline = state.params, state.clock, state.pipeline
    record = Recorder()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        chunks = state.chunks(params.round_chunks)
        record.attempted += 1
        try:
            start = time.perf_counter()
            for chunk in chunks:
                with maybe_span(tracer, "engine.pipeline.submit", state.cursor):
                    pipeline.submit(chunk)
            with maybe_span(tracer, "engine.pipeline.sync", state.cursor):
                pipeline.sync()
            wall = time.perf_counter() - start
        except Exception:
            record.fail(traceback.format_exc())
            break
        clock.sample()  # the worker is idle until the next submit
        factor = clock.factor()
        record.add_ingest(sum(len(c) for c in chunks), wall, wall * factor)
        if len(record.space_words) >= params.sampled_rounds:
            continue

        rng = random.Random(state.cursor)
        record.attempted += 1
        try:
            start = time.perf_counter()
            answer = pipeline.query(rng)
            wall = time.perf_counter() - start
        except Exception:
            record.fail(traceback.format_exc())
            continue
        if answer.dim != params.dim:
            record.fail(f"query answer has dimension {answer.dim}")
        record.add_query_group(1, wall, wall * factor)
        record.space_words.append(
            sum(pipeline.shard(i).space_words() for i in range(params.shards))
        )
        record.state_bytes.append(len(dumps_summary(pipeline)))
    return record


def _replay(state: _State, tracer: Tracer | None):
    """The same chunks through the serial executor: (pipeline, pts/s)."""
    from repro.core.infinite_window import RobustL0SamplerIW
    from repro.engine import pipeline as pipeline_module
    from repro.engine.pipeline import BatchPipeline

    params, clock = state.params, state.clock
    serial = BatchPipeline(spec=_spec(params, "serial"))
    points, norm = 0, 0.0
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(patched(
                pipeline_module, "chunk_geometry_for",
                tracer.wrap("engine.batching.geometry",
                            pipeline_module.chunk_geometry_for)))
            stack.enter_context(patched(
                RobustL0SamplerIW, "process_many",
                tracer.wrap("core.infinite_window.process_many",
                            RobustL0SamplerIW.process_many)))
        for first in range(0, state.cursor, params.round_chunks):
            chunks = [
                make_chunk(state.seed, index, params)
                for index in range(first, min(first + params.round_chunks, state.cursor))
            ]
            start = time.perf_counter()
            for chunk in chunks:
                serial.submit(chunk)
            wall = time.perf_counter() - start
            clock.sample()
            points += sum(len(c) for c in chunks)
            norm += clock.normalise(wall)
    return serial, points / norm


def run(seed: int, seconds: float, trace: bool, params: Params = Params()) -> Report:
    try:
        return _run(seed, seconds, trace, params, HostClock())
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory starts.

    ``multiprocessing`` starts it on the first shared-memory segment
    and leaves it to exit after the interpreter does; the benchmark
    waits for every process it caused to start.  ``_stop`` is the
    standard library's own (private) shutdown hook for it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run(seed, seconds, trace, params, clock) -> Report:
    from repro.engine.equivalence import state_fingerprint

    state = _State(seed, params, clock)
    warmup = state.chunks(params.warmup_chunks)
    setup = SetupTimer(clock)
    tracer = Tracer() if trace else None
    try:
        for _ in range(params.setups):
            if state.pipeline is not None:
                state.pipeline.close()
                state.pipeline = None
            setup.start()  # no worker alive
            state.build(warmup)
            setup.stop()  # the worker is idle after sync()

        gc.collect()
        first = _measure(state, seconds / 2 if trace else seconds, None)
        traced_from = len(clock.samples_ms)
        second = None
        if trace:
            pipeline = state.pipeline
            pipeline.merge = tracer.wrap(
                "distributed.coordinator.merge", pipeline.merge
            )
            second = _measure(state, seconds / 2, tracer)
            del pipeline.merge
        stats = state.pipeline.executor_stats()
    finally:
        if state.pipeline is not None:
            state.pipeline.close()
    peak = peak_rss_mb()

    serial, serial_rate = _replay(state, tracer)
    checks = [
        ("process pipeline fingerprint == serial replay",
         state_fingerprint(state.pipeline) == state_fingerprint(serial),
         f"{state.cursor} chunks"),
        ("transport used shared memory only",
         stats.get("pickle_chunks", 1) == 0 and stats.get("shm_chunks", 0) > 0,
         f"shm {stats.get('shm_chunks')} pickle {stats.get('pickle_chunks')}"),
    ]

    metrics, notes = first.metrics(setup.median(), peak)
    notes.append(setup.note())
    notes.append(f"serial replay {serial_rate:.1f} pts/s (normalised)")
    records = [first] if second is None else [first, second]
    layers = {}
    if trace:
        traced_metrics, _ = second.metrics(metrics["setup_s"][0], peak)
        factor = clock.factor_since(traced_from)
        own = self_times(tracer.spans)
        chunks = stats.get("chunks") or 1
        layers = {
            "engine.pipeline.submit_ms": (
                median_ms(own["engine.pipeline.submit"], factor), "ms"),
            "engine.pipeline.sync_ms": (
                median_ms(own["engine.pipeline.sync"], factor), "ms"),
            "engine.executors.spawn_s": (statistics.median(state.spawn_s), "s"),
            "engine.executors.shm_chunks": (stats.get("shm_chunks", 0), "count"),
            "engine.executors.pickle_chunks": (stats.get("pickle_chunks", 0), "count"),
            "engine.executors.migrations": (stats.get("migrations", 0), "count"),
            "engine.executors.submit_us_per_chunk": (
                stats.get("submit_seconds", 0.0) / chunks * 1e6, "us"),
            "distributed.coordinator.merge_ms": (
                median_ms(own["distributed.coordinator.merge"], factor), "ms"),
            "serial.ingest_pts_per_s": (serial_rate, "pts/s"),
            "core.infinite_window.process_many_ms": (
                median_ms(own["core.infinite_window.process_many"], factor), "ms"),
            "engine.batching.geometry_ms": (
                median_ms(own["engine.batching.geometry"], factor), "ms"),
            "persist.envelope_bytes": (statistics.median(second.state_bytes), "bytes"),
            "wall.ingest_pts_per_s": (second.rate(wall=True), "pts/s"),
            **overhead(metrics, traced_metrics),
        }
    return Report(
        metrics=metrics,
        layers=layers,
        notes=notes,
        checks=checks,
        attempted=sum(r.attempted for r in records),
        failed=sum(r.failed for r in records),
        ref_kernel_ms=clock.median_ms(),
        spans=tracer.spans if trace else [],
        errors=[r.first_error for r in records if r.first_error],
    )
