"""Benchmarks for the beyond-the-paper extensions.

Not figures of the paper - these cover the future-work LSH sampler, the
distributed merge, robust heavy hitters and checkpointing, so regressions
in the extension layers are caught alongside the reproduction benches.
"""

from __future__ import annotations

import random

import pytest

from repro.api.specs import L0InfiniteSpec
from repro.core.heavy_hitters import RobustHeavyHitters
from repro.core.infinite_window import RobustL0SamplerIW
from repro.distributed.coordinator import DistributedRobustSampler
from repro.metric_space.lsh import BandedLSH, MinHash
from repro.metric_space.metrics import jaccard_distance
from repro.metric_space.sampler import RobustLSHSampler
from repro.persist import summary_from_state, summary_to_state


def test_lsh_sampler_pass(benchmark):
    gen = random.Random(0)
    bases = [frozenset(gen.sample(range(10**6), 25)) for _ in range(150)]
    stream = []
    for base in bases:
        stream.append(base)
        for _ in range(3):
            mutated = set(base)
            mutated.discard(gen.choice(sorted(mutated)))
            mutated.add(gen.randrange(10**6, 2 * 10**6))
            stream.append(frozenset(mutated))
    gen.shuffle(stream)

    def stream_pass():
        rng = random.Random(1)
        lsh = BandedLSH(
            lambda: MinHash(rng=rng), bands=8, rows_per_band=2, seed=1
        )
        sampler = RobustLSHSampler(lsh, jaccard_distance, alpha=0.3, seed=1)
        for item in stream:
            sampler.insert(item)
        return sampler

    sampler = benchmark(stream_pass)
    benchmark.extra_info.update(
        {
            "true_groups": len(bases),
            "tracked_groups": sampler.num_candidate_groups,
            "f0_estimate": sampler.estimate_f0(),
        }
    )
    # Ignored groups are (correctly) untracked at rates above 1, so the
    # tracked count is below the true count; the F0 estimate must land in
    # the right range, and LSH misses may split at most a few groups.
    assert sampler.num_candidate_groups <= len(bases) * 1.15
    assert len(bases) / 2 <= sampler.estimate_f0() <= len(bases) * 2


def test_distributed_merge(benchmark):
    coordinator = DistributedRobustSampler(
        L0InfiniteSpec(
            alpha=1.0, dim=1, seed=2, expected_stream_length=4000
        ),
        num_shards=4,
    )
    rng = random.Random(2)
    stream = [
        (25.0 * rng.randrange(500) + rng.uniform(0, 0.4),)
        for _ in range(4000)
    ]
    coordinator.scatter(stream, rng=rng)

    merged = benchmark(coordinator.merged_sampler)
    benchmark.extra_info.update(
        {
            "shards": coordinator.num_shards,
            "communication_words": coordinator.communication_words(),
            "merged_groups": merged.num_candidate_groups,
            "f0_estimate": merged.estimate_f0(),
        }
    )
    assert merged.accept_size > 0


def test_heavy_hitters_pass(benchmark):
    rng = random.Random(3)
    stream = [(0.0 + rng.uniform(0, 0.3),) for _ in range(800)]
    stream += [(40.0 * rng.randint(1, 300),) for _ in range(1600)]
    rng.shuffle(stream)

    def stream_pass():
        hitters = RobustHeavyHitters(1.0, 1, epsilon=0.05, seed=3)
        hitters.extend(stream)
        return hitters

    hitters = benchmark(stream_pass)
    hits = hitters.heavy_hitters(phi=0.2)
    benchmark.extra_info.update(
        {
            "stream": len(stream),
            "tracked": hitters.num_tracked,
            "top_count": hits[0].count if hits else 0,
        }
    )
    assert hits and abs(hits[0].representative.vector[0]) < 1.0


@pytest.mark.parametrize("records", [100, 400])
def test_checkpoint_round_trip(benchmark, records):
    sampler = RobustL0SamplerIW(
        1.0, 2, seed=4, expected_stream_length=records * 4
    )
    rng = random.Random(4)
    for _ in range(records * 4):
        sampler.insert(
            (25.0 * rng.randrange(records), 25.0 * rng.randrange(records))
        )

    def round_trip():
        return summary_from_state(summary_to_state(sampler))

    restored = benchmark(round_trip)
    benchmark.extra_info.update(
        {
            "tracked_records": restored.num_candidate_groups,
            "rate": restored.rate_denominator,
        }
    )
    assert restored.num_candidate_groups == sampler.num_candidate_groups
