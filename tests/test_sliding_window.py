"""Tests for Algorithm 3 (RobustL0SamplerSW) and Split/Merge."""

from __future__ import annotations

import collections
import random

import pytest

from repro.core.base import SamplerConfig
from repro.core.fixed_rate import FixedRateSlidingSampler
from repro.core.sliding_window import RobustL0SamplerSW
from repro.errors import EmptySampleError, ParameterError
from repro.metrics.accuracy import chi_square_uniformity
from repro.streams.point import StreamPoint
from repro.streams.windows import SequenceWindow, TimeWindow


def far_stream(n, spacing=20.0):
    """n singleton groups far apart on a line."""
    return [StreamPoint((spacing * i,), i) for i in range(n)]


class TestConstruction:
    def test_time_window_requires_capacity(self):
        with pytest.raises(ParameterError):
            RobustL0SamplerSW(1.0, 1, TimeWindow(10.0))

    def test_time_window_with_capacity(self):
        sw = RobustL0SamplerSW(1.0, 1, TimeWindow(10.0), window_capacity=64)
        assert sw.num_levels == 7  # ceil(log2(64)) + 1

    def test_sequence_capacity_defaults_to_w(self):
        sw = RobustL0SamplerSW(1.0, 1, SequenceWindow(32))
        assert sw.num_levels == 6

    def test_invalid_capacity(self):
        with pytest.raises(ParameterError):
            RobustL0SamplerSW(1.0, 1, TimeWindow(5.0), window_capacity=0)

    def test_rates_are_powers_of_two(self):
        sw = RobustL0SamplerSW(1.0, 1, SequenceWindow(16))
        rates = [sw.level(i).rate_denominator for i in range(sw.num_levels)]
        assert rates == [1, 2, 4, 8, 16]


class TestStreaming:
    def test_empty_sample_raises(self):
        sw = RobustL0SamplerSW(1.0, 1, SequenceWindow(4), seed=0)
        with pytest.raises(EmptySampleError):
            sw.sample()

    def test_sample_always_in_window(self):
        sw = RobustL0SamplerSW(1.0, 1, SequenceWindow(4), seed=1)
        stream = far_stream(50)
        rng = random.Random(0)
        for i, p in enumerate(stream):
            sw.insert(p)
            if i >= 3:
                sample = sw.sample(rng)
                assert sample.index > i - 4, (i, sample.index)

    def test_monotonic_arrival_enforced(self):
        sw = RobustL0SamplerSW(1.0, 1, SequenceWindow(4), seed=2)
        sw.insert(StreamPoint((0.0,), 5))
        with pytest.raises(ParameterError):
            sw.insert(StreamPoint((1.0,), 3))

    def test_dimension_check(self):
        sw = RobustL0SamplerSW(1.0, 2, SequenceWindow(4), seed=0)
        with pytest.raises(ParameterError):
            sw.insert((1.0,))

    def test_accept_bound_invariant_all_levels(self):
        sw = RobustL0SamplerSW(
            1.0, 1, SequenceWindow(256), seed=3, expected_stream_length=1000
        )
        for p in far_stream(1000):
            sw.insert(p)
            threshold = sw._policy.threshold()
            for level in range(sw.num_levels):
                assert sw.level(level).accepted_count <= threshold

    def test_sample_matches_exact_window_tracker(self):
        """The sampled group must be one with its last point in-window
        (verified against a rate-1 exact tracker)."""
        seed = 4
        window = SequenceWindow(64)
        sw = RobustL0SamplerSW(1.0, 1, window, seed=seed)
        config = SamplerConfig.create(1.0, 1, seed=seed + 1000)
        tracker = FixedRateSlidingSampler(config, 1, window)
        rng = random.Random(0)
        gen = random.Random(9)
        stream = []
        for i in range(600):
            group = gen.randrange(40)
            stream.append(StreamPoint((20.0 * group + gen.uniform(0, 0.5),), i))
        for i, p in enumerate(stream):
            sw.insert(p)
            tracker.insert(p)
            if i % 50 == 49:
                tracker.evict(p)
                live_groups = {
                    round(r.representative.vector[0] / 20.0)
                    for r in tracker.accepted_records()
                }
                sample = sw.sample(rng)
                assert round(sample.vector[0] / 20.0) in live_groups

    def test_extend(self):
        sw = RobustL0SamplerSW(1.0, 1, SequenceWindow(8), seed=5)
        sw.extend(far_stream(20))
        assert sw.points_seen == 20


class TestHierarchyMechanics:
    def test_each_group_tracked_at_exactly_one_level(self):
        # Uniformity invariant I1: no group may own records at two levels
        # (that would double its sampling weight).
        sw = RobustL0SamplerSW(1.0, 1, SequenceWindow(128), seed=6)
        gen = random.Random(3)
        for i in range(500):
            group = gen.randrange(60)
            sw.insert(StreamPoint((20.0 * group + gen.uniform(0, 0.5),), i))
        seen: dict[int, int] = {}
        for level in range(sw.num_levels):
            for record in sw.level(level).records():
                group = round(record.representative.vector[0] // 20.0)
                assert group not in seen, (
                    f"group {group} tracked at levels {seen[group]} and {level}"
                )
                seen[group] = level

    def test_rejected_group_reactivates_at_level_zero(self):
        # A rejected record receiving fresh activity must move to level 0
        # and become sampleable again (the DESIGN.md repair).
        sw = RobustL0SamplerSW(
            1.0, 1, SequenceWindow(4096), seed=11, expected_stream_length=5000
        )
        for p in far_stream(3000):
            sw.insert(p)
        rejected = None
        for level in range(1, sw.num_levels):
            records = sw.level(level).rejected_records()
            if records:
                rejected = records[0]
                break
        if rejected is None:
            pytest.skip("no rejected record materialised for this seed")
        revisit = StreamPoint(rejected.representative.vector, 3000)
        sw.insert(revisit)
        moved = sw._store.find_nearby(
            revisit.vector,
            sw._config.cell_hash(sw._config.grid.cell_of(revisit.vector)),
            0,
        )
        assert moved is not None
        assert moved.accepted
        assert moved.representative.index == rejected.representative.index

    def test_split_preserves_status_definition(self):
        sw = RobustL0SamplerSW(
            1.0, 1, SequenceWindow(512), seed=7, expected_stream_length=2000
        )
        for p in far_stream(2000):
            sw.insert(p)
        for level in range(sw.num_levels):
            mask = sw.level(level).rate_denominator - 1
            for record in sw.level(level).records():
                if record.accepted:
                    assert record.cell_hash & mask == 0
                else:
                    assert record.cell_hash & mask != 0
                    assert any(v & mask == 0 for v in record.adj_hashes)

    def test_deepest_active_level_reflects_population(self):
        sw_small = RobustL0SamplerSW(1.0, 1, SequenceWindow(1024), seed=8)
        for p in far_stream(10):
            sw_small.insert(p)
        small = sw_small.deepest_active_level()

        sw_big = RobustL0SamplerSW(
            1.0, 1, SequenceWindow(1024), seed=8, expected_stream_length=1000
        )
        for p in far_stream(1000):
            sw_big.insert(p)
        big = sw_big.deepest_active_level()
        assert big is not None and small is not None
        assert big > small

    def test_estimate_f0_tracks_window_population(self):
        sw = RobustL0SamplerSW(
            1.0, 1, SequenceWindow(512), seed=9, expected_stream_length=512
        )
        for p in far_stream(512):
            sw.insert(p)
        estimate = sw.estimate_f0()
        assert 32 <= estimate <= 4096  # order of magnitude around 512

    def test_space_stays_polylog(self):
        sw = RobustL0SamplerSW(
            1.0, 1, SequenceWindow(256), seed=10, expected_stream_length=3000
        )
        for p in far_stream(3000):
            sw.insert(p)
        # Exact tracker would hold ~256 groups x ~4 words; the hierarchy
        # should be within O(log w log m) words, far below m.
        assert sw.peak_space_words < 3000
        assert sw.space_words() > 0


class TestUniformity:
    def test_uniform_over_window_groups(self):
        """Theorem 2.7: groups in the window sampled ~uniformly."""
        num_groups = 6
        runs = 500
        window = SequenceWindow(30)
        counts = collections.Counter()
        query_rng = random.Random(17)
        for run in range(runs):
            gen = random.Random(run)
            sw = RobustL0SamplerSW(1.0, 1, window, seed=run ^ 0x5151)
            # Final 30 points: 5 from each of 6 groups, interleaved.
            warmup = [StreamPoint((1000.0 + 20.0 * g,), i) for i, g in
                      enumerate(gen.randrange(10) for _ in range(40))]
            tail_groups = [g for g in range(num_groups) for _ in range(5)]
            gen.shuffle(tail_groups)
            tail = [
                StreamPoint((20.0 * g + gen.uniform(0, 0.5),), 40 + i)
                for i, g in enumerate(tail_groups)
            ]
            for p in warmup + tail:
                sw.insert(p)
            sample = sw.sample(query_rng)
            counts[round(sample.vector[0] // 20.0)] += 1
        dense = [counts.get(g, 0) for g in range(num_groups)]
        assert sum(dense) == runs  # never sample expired warmup groups
        _, p_value = chi_square_uniformity(dense)
        assert p_value > 1e-4, dense
