"""Distribution-level gate for the infinite-window sampler (Theorem 2.4).

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
not the groups, and must fail it.  Seeds are fixed, so the verdicts
are deterministic.
"""

from __future__ import annotations

import collections
import random

import numpy as np
import pytest

from repro.baselines.naive import NaiveReservoirSampler
from repro.core.chunk_geometry import MIN_VECTOR_CHUNK
from repro.core.infinite_window import RobustL0SamplerIW
from repro.engine.pipeline import BatchPipeline
from repro.metrics.accuracy import chi_square_uniformity

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
        1.0, 2, num_shards=3, seed=seed, batch_size=64, kappa0=0.25
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


def test_naive_reservoir_fails_the_same_test():
    counts = [0] * NUM_GROUPS
    for run in range(RUNS):
        points = skewed_stream(random.Random(9000 + run))
        sampler = NaiveReservoirSampler(rng=random.Random(run))
        sampler.process_many(points)
        counts[group_of(sampler.sample().vector)] += 1
    _, p_value = chi_square_uniformity(counts)
    assert p_value < 1e-4, counts
