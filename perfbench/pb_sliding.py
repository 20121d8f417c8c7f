"""Workload ``sliding-cascade``: one process, the sliding-window core.

``l0-sliding`` in dim 2 over about 2000 near-duplicate groups on a
25-spaced lattice, window 2000, fed in 4096-point ``process_many``
chunks.  Every chunk replaces the whole window, so most arrivals
re-found expired groups and feed the Split/Merge cascade and the
candidate store - the hot path of the sliding core.  A group of queries
follows each chunk.  Executors, the service and persistence are
bypassed (persistence only runs outside the timed calls, to sample the
state size and to check checkpoint identity).
"""

from __future__ import annotations

import gc
import random
import statistics
import time
import traceback
from dataclasses import dataclass

from pb_clock import HostClock, SetupTimer
from pb_stats import Recorder, Report, median_ms, overhead, peak_rss_mb
from pb_trace import Tracer, maybe_span, self_times

NAME = "sliding-cascade"

#: Seed of the summary's own randomness (grid offset, hash).  The
#: workload's *inputs* come from ``--seed``; the summary configuration
#: stays fixed so that its space figures compare across seeds.
SUMMARY_SEED = 2018


@dataclass(frozen=True)
class Params:
    groups: int = 2000
    window: int = 2000
    chunk: int = 4096
    warmup_chunks: int = 4
    setups: int = 5
    query_group: int = 500
    #: Sample the checkpoint size after every this many chunks.
    state_every: int = 2

    @classmethod
    def small(cls) -> "Params":
        return cls(
            groups=200, window=200, chunk=512, warmup_chunks=1, setups=2,
            query_group=10,
        )


def make_chunk(seed: int, index: int, params: Params) -> list[tuple[float, float]]:
    """Chunk ``index`` of the stream: noisy points around lattice groups.

    Generated with numpy and handed over as the list of tuples a caller
    of ``process_many`` would pass.
    """
    import numpy as np

    rng = np.random.default_rng([seed, index])
    groups = rng.integers(0, params.groups, params.chunk)
    base = np.stack([groups % 100, groups // 100], axis=1) * 25.0
    points = base + rng.uniform(0.0, 0.4, (params.chunk, 2))
    return list(map(tuple, points.tolist()))


class _State:
    """The summary under test and how far into the stream it is."""

    def __init__(self, seed: int, params: Params, clock: HostClock) -> None:
        self.seed = seed
        self.params = params
        self.clock = clock
        self.cursor = 0
        self.sampler = None
        self.config = None

    def next_chunk(self):
        """The next chunk of the stream (generate it before timing)."""
        chunk = make_chunk(self.seed, self.cursor, self.params)
        self.cursor += 1
        return chunk

    def build(self, warmup: list, lap) -> None:
        """Construction plus warm-up to a full window: the set-up.

        ``lap`` is called after each warm-up chunk (see
        :meth:`pb_clock.SetupTimer.lap`).
        """
        from repro.core.base import SamplerConfig
        from repro.core.sliding_window import RobustL0SamplerSW
        from repro.streams.windows import SequenceWindow

        self.config = SamplerConfig.create(1.0, 2, seed=SUMMARY_SEED)
        self.sampler = RobustL0SamplerSW(
            1.0, 2, SequenceWindow(self.params.window), config=self.config
        )
        for chunk in warmup:
            self.sampler.process_many(chunk)
            lap()


def _measure(state: _State, seconds: float, tracer: Tracer | None) -> Recorder:
    from repro.engine.batching import chunk_geometry_for
    from repro.persist import dumps_summary

    params, clock, sampler = state.params, state.clock, state.sampler
    record = Recorder()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        chunk = state.next_chunk()
        record.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                sampler.process_many(chunk)
                wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                with tracer.span("engine.batching.geometry", state.cursor):
                    geometry = chunk_geometry_for(state.config, chunk)
                with tracer.span("core.sliding_window.process_many", state.cursor):
                    sampler.process_many(chunk, geometry=geometry)
                wall = time.perf_counter() - start
        except Exception:
            record.fail(traceback.format_exc())
            continue
        clock.sample()
        record.add_ingest(len(chunk), wall, clock.normalise(wall))

        rng = random.Random(state.cursor)
        group = params.query_group
        record.attempted += group
        try:
            with maybe_span(tracer, "core.sliding_window.query", state.cursor):
                start = time.perf_counter()
                answers = [sampler.query(rng) for _ in range(group)]
                wall = time.perf_counter() - start
        except Exception:
            record.fail(traceback.format_exc())
            continue
        bad = sum(1 for point in answers if point.dim != 2)
        if bad:
            record.fail(f"{bad} query answers had the wrong dimension")
        record.add_query_group(group, wall, clock.normalise(wall))

        record.space_words.append(sampler.space_words())
        if state.cursor % params.state_every == 0 or not record.state_bytes:
            with maybe_span(tracer, "persist.dumps", state.cursor):
                record.state_bytes.append(len(dumps_summary(sampler)))
    return record


def _checks(state: _State, tracer: Tracer | None) -> list[tuple[str, bool, str]]:
    """Space accounting and checkpoint identity, outside the timed calls."""
    from repro.engine.equivalence import state_fingerprint
    from repro.persist import dumps_summary, loads_summary

    sampler = state.sampler
    checks = []
    words, recount = sampler.space_words(), sampler.recount_space_words()
    checks.append(
        ("space_words == recount_space_words", words == recount,
         f"{words} vs {recount}")
    )
    envelope = dumps_summary(sampler)
    with maybe_span(tracer, "persist.loads"):
        restored = loads_summary(envelope)
    same = state_fingerprint(restored) == state_fingerprint(sampler)
    checks.append(
        ("checkpoint -> restore fingerprint", same, f"{len(envelope)} bytes")
    )
    chunk = state.next_chunk()
    sampler.process_many(chunk)
    restored.process_many(chunk)
    same = state_fingerprint(restored) == state_fingerprint(sampler)
    checks.append(("restored summary continues identically", same, ""))
    return checks


def run(seed: int, seconds: float, trace: bool, params: Params = Params()) -> Report:
    clock = HostClock()
    state = _State(seed, params, clock)
    warmup = [state.next_chunk() for _ in range(params.warmup_chunks)]

    setup = SetupTimer(clock)
    for _ in range(params.setups):
        state.sampler = None
        setup.start()
        state.build(warmup, setup.lap)
        setup.stop()

    gc.collect()
    tracer = Tracer() if trace else None
    first = _measure(state, seconds / 2 if trace else seconds, None)
    traced_from = len(clock.samples_ms)
    second = _measure(state, seconds / 2, tracer) if trace else None
    peak = peak_rss_mb()
    checks = _checks(state, tracer)

    metrics, notes = first.metrics(setup.median(), peak)
    notes.append(setup.note())
    records = [first] if second is None else [first, second]
    layers = {}
    if trace:
        traced_metrics, _ = second.metrics(metrics["setup_s"][0], peak)
        factor = clock.factor_since(traced_from)
        own = self_times(tracer.spans)
        queries = [t / params.query_group for t in own["core.sliding_window.query"]]
        sampler = state.sampler
        layers = {
            "engine.batching.geometry_ms": (
                median_ms(own["engine.batching.geometry"], factor), "ms"),
            "core.sliding_window.process_many_ms": (
                median_ms(own["core.sliding_window.process_many"], factor), "ms"),
            "core.sliding_window.query_ms": (median_ms(queries, factor), "ms"),
            "core.sliding_window.num_levels": (sampler.num_levels, "count"),
            "core.sliding_window.peak_space_words": (
                sampler.peak_space_words, "words"),
            "persist.dumps_ms": (median_ms(own["persist.dumps"], factor), "ms"),
            "persist.loads_ms": (median_ms(own["persist.loads"], factor), "ms"),
            "persist.envelope_bytes": (
                statistics.median(second.state_bytes), "bytes"),
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
