"""Distribution-level gates for the samplers (Theorems 2.4 and 2.7).

The reproduction's central claim: each group present is returned with
probability about ``1/n``, however many near-duplicates it has.  These
tests check it where it is not trivial.  With ``accept_capacity=4`` and
40 groups the rate denominator reaches 8 or more in most runs, so the
rate halving, the resampling and the batch path's ignore probe all
shape the sample.  The test asserts that depth too, so it cannot go
trivial again by staying at rate 1.

Three ingestion surfaces are checked: ``insert``, ``process_many``
in chunks of at least ``MIN_VECTOR_CHUNK`` points, so that every chunk
gets a ``ChunkGeometry``, and ``BatchPipeline.merge()`` over three
serial shards (``kappa0=0.25``), fed numpy array chunks in half the
runs and row lists in the other half, so both forms of the chunk
boundary meet the one-pass shard merge.  A negative control shows the
test has power: naive reservoir sampling over points follows the group sizes,
not the groups, and must fail it.

Theorem 2.7 is checked on the sliding-window sampler with a sequence
window: 300 points that have all expired, then a 300-point window of 24
skewed groups.  With ``kappa0=0.5`` the deepest active level reaches 2
or more in most runs, so Split, Merge, eviction and the rate-unified
query pool all shape the sample.  Even runs feed ``insert`` and odd
runs chunked ``process_many``.  A second set of runs puts each summary
through a v3 checkpoint (``dumps_summary``/``loads_summary``) between
the expired prefix and the live window, and continues on the restored
one.  The same law is checked under a time window: the same two
phases on bursty, irregular timestamps (ties included), with a
``window_capacity`` the densest window fills to 83-94%, and every run
alternating ``insert`` with chunked ``process_many``.  Seeds are fixed, so the verdicts are deterministic.
"""

from __future__ import annotations

import bisect
import collections
import random

import numpy as np
import pytest

from repro.api.specs import PipelineSpec
from repro.baselines.naive import NaiveReservoirSampler
from repro.core.chunk_geometry import MIN_VECTOR_CHUNK
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.sliding_window import RobustL0SamplerSW
from repro.engine.pipeline import BatchPipeline
from repro.metrics.accuracy import chi_square_uniformity
from repro.persist import dumps_summary, loads_summary
from repro.streams.point import StreamPoint
from repro.streams.windows import SequenceWindow, TimeWindow

NUM_GROUPS = 40
ROW = 8
SPACING = 12.0
#: Near-duplicates per group: every count from 1 to 43 but three, in a
#: scrambled order, so a point-uniform sampler is far from group-uniform.
GROUP_SIZES = [1 + (g * 17) % 43 for g in range(NUM_GROUPS)]
RUNS = 200


def skewed_stream(rng: random.Random) -> list[tuple[float, float]]:
    """One shuffled stream: ``GROUP_SIZES[g]`` points within 0.6 of
    group ``g``'s lattice corner (alpha is 1)."""
    points = []
    for group, size in enumerate(GROUP_SIZES):
        x, y = SPACING * (group % ROW), SPACING * (group // ROW)
        points.extend(
            (x + rng.uniform(0.0, 0.4), y + rng.uniform(0.0, 0.4))
            for _ in range(size)
        )
    rng.shuffle(points)
    return points


def group_of(vector) -> int:
    return round(vector[0] / SPACING) + ROW * round(vector[1] / SPACING)


def feed_insert(sampler, points, rng):
    for point in points:
        sampler.insert(point)


def feed_chunks(sampler, points, rng):
    # Random chunk sizes, with a short tail folded into the last chunk.
    start = 0
    while start < len(points):
        size = rng.randint(MIN_VECTOR_CHUNK, 256)
        if len(points) - (start + size) < MIN_VECTOR_CHUNK:
            size = len(points) - start
        sampler.process_many(points[start : start + size])
        start += size


def single_sampler(feed):
    """One ``accept_capacity=4`` sampler per run, fed by ``feed``."""

    def ingest(points, seed):
        sampler = RobustL0SamplerIW(1.0, 2, seed=seed, accept_capacity=4)
        feed(sampler, points, random.Random(seed ^ 0x1))
        return sampler

    return ingest


def pipeline_merge(points, seed):
    """Three serial shards, merged; odd seeds deal array chunks."""
    pipeline = BatchPipeline(
        PipelineSpec(
            alpha=1.0, dim=2, num_shards=3, seed=seed, batch_size=64,
            kappa0=0.25,
        )
    )
    pipeline.extend(np.array(points) if seed % 2 else points)
    return pipeline.merge()


def sampling_law(ingest, seed_base: int):
    """Sample one group per seeded run; returns the per-group counts,
    each run's final rate denominator and the runs that ended with an
    empty accept set (the probability-1/m failure event, not counted)."""
    counts = [0] * NUM_GROUPS
    rates = []
    empty = 0
    for run in range(RUNS):
        seed = seed_base + run
        points = skewed_stream(random.Random(seed))
        sampler = ingest(points, seed)
        rates.append(sampler.rate_denominator)
        if sampler.accept_size == 0:
            empty += 1
            continue
        counts[group_of(sampler.sample(random.Random(seed ^ 0x2)).vector)] += 1
    return counts, rates, empty


@pytest.mark.parametrize(
    "ingest, seed_base, max_empty",
    [
        (single_sampler(feed_insert), 1000, RUNS // 20),
        (single_sampler(feed_chunks), 5000, RUNS // 20),
        # The merged rate is the largest of the shards' rates, so the
        # merged accept set is empty more often than one sampler's:
        # 6-12 of 200 runs at kappa0 0.25 and 0.5, against 0-4 for a
        # single sampler on the same streams.
        (pipeline_merge, 7000, RUNS // 10),
    ],
    ids=["insert", "process_many", "pipeline-merge"],
)
def test_groups_sampled_uniformly_at_depth(ingest, seed_base, max_empty):
    counts, rates, empty = sampling_law(ingest, seed_base)
    assert sum(rate >= 8 for rate in rates) > 0.8 * RUNS, (
        collections.Counter(rates)
    )
    assert empty <= max_empty
    _, p_value = chi_square_uniformity(counts)
    assert p_value > 1e-4, counts


WINDOW = 300
SLIDING_RUNS = 400
#: Groups with points in the window, sized 1 to 23 with the remainder
#: on group 0, so a point-uniform sampler is far from group-uniform.
LIVE_GROUPS = 24
LIVE_SIZES = [1 + (g * 17) % 23 for g in range(LIVE_GROUPS)]
LIVE_SIZES[0] += WINDOW - sum(LIVE_SIZES)


def near(rng: random.Random, group: int) -> tuple[float, float]:
    """A point within 0.6 of group ``group``'s lattice corner."""
    x, y = SPACING * (group % ROW), SPACING * (group // ROW)
    return (x + rng.uniform(0.0, 0.4), y + rng.uniform(0.0, 0.4))


def windowed_stream(rng: random.Random) -> list[tuple[float, float]]:
    """``WINDOW`` points that expire, spread over the live groups and as
    many groups that never reach the window, then the shuffled window."""
    expired = [near(rng, rng.randrange(2 * LIVE_GROUPS)) for _ in range(WINDOW)]
    live = [
        near(rng, group)
        for group, size in enumerate(LIVE_SIZES)
        for _ in range(size)
    ]
    rng.shuffle(live)
    return expired + live


def sliding_window_law(seed_base: int, restore: bool) -> None:
    """Run the sequence-window law; with ``restore`` every run goes
    through a v3 checkpoint between the expired prefix and the live
    window and continues on the restored summary."""
    counts = [0] * (2 * LIVE_GROUPS)
    depths = []
    for run in range(SLIDING_RUNS):
        seed = seed_base + run
        rng = random.Random(seed)
        points = windowed_stream(rng)
        sampler = RobustL0SamplerSW(
            1.0, 2, SequenceWindow(WINDOW), seed=seed, kappa0=0.5
        )
        feed = feed_chunks if run % 2 else feed_insert
        if restore:
            feed(sampler, points[:WINDOW], rng)
            sampler = loads_summary(dumps_summary(sampler))
            feed(sampler, points[WINDOW:], rng)
        else:
            feed(sampler, points, rng)
        depths.append(sampler.deepest_active_level())
        counts[group_of(sampler.sample(random.Random(seed ^ 0x2)).vector)] += 1
    for parity in (0, 1):
        deep = sum(depth >= 2 for depth in depths[parity::2])
        assert deep > 0.8 * SLIDING_RUNS / 2, collections.Counter(depths)
    # A group whose points all expired is never returned.
    assert sum(counts[LIVE_GROUPS:]) == 0, counts
    _, p_value = chi_square_uniformity(counts[:LIVE_GROUPS])
    assert p_value > 0.01, counts


def test_sliding_window_groups_sampled_uniformly_at_depth():
    sliding_window_law(11000, restore=False)


def test_sliding_window_restored_mid_stream_samples_uniformly_at_depth():
    sliding_window_law(13000, restore=True)


DURATION = 100.0
#: The time window's capacity: every run's densest window holds between
#: ``WINDOW`` and 339 points.
TIME_CAPACITY = 360


def bursty_times(
    rng: random.Random, count: int, start: float, span: float
) -> list[float]:
    """``count`` non-decreasing timestamps in ``(start, start + span]``:
    a fifth of the gaps are 0 (ties), most are tiny (bursts), the rest
    exponential (lulls)."""
    gaps = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.2:
            gaps.append(0.0)
        elif draw < 0.8:
            gaps.append(rng.uniform(0.0, 0.05))
        else:
            gaps.append(rng.expovariate(1.0))
    scale = span / sum(gaps)
    times, now = [], start
    for gap in gaps:
        now += gap * scale
        times.append(now)
    return times


def timed_stream(rng: random.Random) -> list[StreamPoint]:
    """:func:`windowed_stream` on bursty timestamps: the expiring phase
    spans 200 time units and the live one the last 90, so early live
    windows still overlap the expiring tail."""
    times = bursty_times(rng, WINDOW, 0.0, 200.0) + bursty_times(
        rng, WINDOW, 220.0, 90.0
    )
    return [
        StreamPoint(vector, index, time)
        for index, (vector, time) in enumerate(
            zip(windowed_stream(rng), times)
        )
    ]


def densest_window(points: list[StreamPoint]) -> int:
    """The most points any time window of the stream holds."""
    times = [point.time for point in points]
    return max(
        index + 1 - bisect.bisect_right(times, time - DURATION)
        for index, time in enumerate(times)
    )


def feed_alternating(sampler, points, rng):
    """Random chunks, fed through ``process_many`` and ``insert`` in
    turn."""
    start, turn = 0, 0
    while start < len(points):
        size = rng.randint(MIN_VECTOR_CHUNK, 128)
        if len(points) - (start + size) < MIN_VECTOR_CHUNK:
            size = len(points) - start
        chunk = points[start : start + size]
        if turn % 2:
            feed_insert(sampler, chunk, rng)
        else:
            sampler.process_many(chunk)
        start += size
        turn += 1


def test_time_window_groups_sampled_uniformly_at_depth():
    counts = [0] * (2 * LIVE_GROUPS)
    depths = []
    for run in range(SLIDING_RUNS):
        seed = 21000 + run
        rng = random.Random(seed)
        points = timed_stream(rng)
        assert WINDOW <= densest_window(points) <= TIME_CAPACITY
        sampler = RobustL0SamplerSW(
            1.0,
            2,
            TimeWindow(DURATION),
            window_capacity=TIME_CAPACITY,
            seed=seed,
            kappa0=0.5,
        )
        feed_alternating(sampler, points, rng)
        depths.append(sampler.deepest_active_level())
        counts[group_of(sampler.sample(random.Random(seed ^ 0x2)).vector)] += 1
    deep = sum(depth >= 2 for depth in depths)
    assert deep > 0.8 * SLIDING_RUNS, collections.Counter(depths)
    # A group whose points all expired is never returned.
    assert sum(counts[LIVE_GROUPS:]) == 0, counts
    _, p_value = chi_square_uniformity(counts[:LIVE_GROUPS])
    assert p_value > 0.01, counts


def test_naive_reservoir_fails_the_same_test():
    counts = [0] * NUM_GROUPS
    for run in range(RUNS):
        points = skewed_stream(random.Random(9000 + run))
        sampler = NaiveReservoirSampler(rng=random.Random(run))
        sampler.process_many(points)
        counts[group_of(sampler.sample().vector)] += 1
    _, p_value = chi_square_uniformity(counts)
    assert p_value < 1e-4, counts
