"""Tests for Algorithm 2 (FixedRateSlidingSampler)."""

from __future__ import annotations

import random

import pytest

from repro.core.base import SamplerConfig
from repro.core.fixed_rate import FixedRateSlidingSampler
from repro.errors import EmptySampleError, ParameterError
from repro.streams.point import StreamPoint
from repro.streams.windows import SequenceWindow, TimeWindow


def make(config=None, rate=1, window=None, **kwargs):
    config = config or SamplerConfig.create(1.0, 1, seed=5)
    window = window or SequenceWindow(5)
    return FixedRateSlidingSampler(config, rate, window, **kwargs), config


def pts(values, times=None):
    if times is None:
        return [StreamPoint((float(v),), i) for i, v in enumerate(values)]
    return [
        StreamPoint((float(v),), i, t) for i, (v, t) in enumerate(zip(values, times))
    ]


class TestBasics:
    def test_rejects_bad_rate(self):
        config = SamplerConfig.create(1.0, 1, seed=0)
        with pytest.raises(ParameterError):
            FixedRateSlidingSampler(config, 3, SequenceWindow(5))

    def test_rate_one_tracks_every_group(self):
        sampler, _ = make(rate=1)
        for p in pts([0.0, 10.0, 20.0, 30.0, 40.0]):
            sampler.insert(p)
        assert sampler.candidate_count == 5
        assert sampler.accepted_count == 5  # rate 1 accepts every cell

    def test_insert_founds_group_in_its_cell(self):
        sampler, config = make(rate=1)
        p = StreamPoint((0.0,), 0)
        assert sampler.insert(p) is None
        (record,) = sampler.accepted_records()
        assert record.cell == config.grid.cell_of(p.vector)
        assert record.cell_hash == config.cell_hash(record.cell)

    def test_same_group_updates_last(self):
        sampler, _ = make(rate=1, window=SequenceWindow(100))
        stream = pts([0.0, 0.3, 0.1])
        for p in stream:
            sampler.insert(p)
        assert sampler.candidate_count == 1
        record = sampler.accepted_records()[0]
        assert record.representative.index == 0
        assert record.last.index == 2
        assert record.count == 3


class TestExpiry:
    def test_group_expires_when_last_point_leaves(self):
        sampler, _ = make(rate=1, window=SequenceWindow(3))
        stream = pts([0.0, 10.0, 20.0, 30.0])
        for p in stream:
            sampler.insert(p)
        # Window now holds indices 1..3; group 0.0 must be gone.
        values = {r.representative.vector[0] for r in sampler.accepted_records()}
        assert 0.0 not in values
        assert values == {10.0, 20.0, 30.0}

    def test_group_survives_if_refreshed(self):
        sampler, _ = make(rate=1, window=SequenceWindow(3))
        # Group A refreshed often enough to stay alive.
        stream = pts([0.0, 10.0, 0.2, 20.0, 0.3])
        for p in stream:
            sampler.insert(p)
        values = {r.representative.vector[0] for r in sampler.accepted_records()}
        assert 0.0 in values  # representative is the original first point

    def test_representative_may_be_expired_itself(self):
        """Observation 1: u can live outside the window while the group has
        points inside."""
        sampler, _ = make(rate=1, window=SequenceWindow(2))
        stream = pts([0.0, 0.1, 0.2, 0.3])
        for p in stream:
            sampler.insert(p)
        record = sampler.accepted_records()[0]
        assert record.representative.index == 0  # expired point, kept as rep
        assert record.last.index == 3

    def test_time_window_expiry(self):
        config = SamplerConfig.create(1.0, 1, seed=1)
        sampler = FixedRateSlidingSampler(config, 1, TimeWindow(5.0))
        stream = pts([0.0, 10.0, 20.0], times=[0.0, 1.0, 10.0])
        for p in stream:
            sampler.insert(p)
        values = {r.representative.vector[0] for r in sampler.accepted_records()}
        assert values == {20.0}

    def test_evict_idempotent(self):
        sampler, _ = make(rate=1, window=SequenceWindow(2))
        stream = pts([0.0, 10.0, 20.0])
        for p in stream:
            sampler.insert(p)
        sampler.evict(stream[-1])
        count = sampler.candidate_count
        sampler.evict(stream[-1])
        assert sampler.candidate_count == count


class TestSampling:
    def test_sample_from_window(self):
        sampler, _ = make(rate=1, window=SequenceWindow(3))
        stream = pts([0.0, 10.0, 20.0, 30.0, 40.0])
        for p in stream:
            sampler.insert(p)
        rng = random.Random(0)
        for _ in range(20):
            value = sampler.sample(stream[-1], rng).vector[0]
            assert value in {20.0, 30.0, 40.0}

    def test_empty_window_raises(self):
        sampler, _ = make(rate=1, window=SequenceWindow(2))
        stream = pts([0.0, 10.0, 20.0])
        for p in stream:
            sampler.insert(p)
        far_future = StreamPoint((99.0,), 100)
        with pytest.raises(EmptySampleError):
            sampler.sample(far_future)

    def test_observation1_representative_inclusion_probability(self):
        """Observation 1(2): each window group's representative is in
        S_acc with probability 1/R."""
        hits = 0
        trials = 800
        window = SequenceWindow(100)
        for seed in range(trials):
            config = SamplerConfig.create(1.0, 1, seed=seed)
            sampler = FixedRateSlidingSampler(config, 4, window)
            sampler.insert(StreamPoint((0.0,), 0))
            hits += sampler.accepted_count
        assert 0.15 < hits / trials < 0.35  # target 1/4

    def test_sample_member_requires_flag(self):
        sampler, _ = make(rate=1)
        p = StreamPoint((0.0,), 0)
        sampler.insert(p)
        with pytest.raises(ParameterError):
            sampler.sample_member(p)

    def test_sample_member_in_window(self):
        config = SamplerConfig.create(1.0, 1, seed=2)
        sampler = FixedRateSlidingSampler(
            config, 1, SequenceWindow(3), track_members=True
        )
        stream = pts([0.0, 0.1, 0.2, 0.3, 0.4])
        for p in stream:
            sampler.insert(p)
        member = sampler.sample_member(stream[-1], random.Random(1))
        assert member.index >= 2  # only unexpired members


class TestHierarchySupport:
    def test_space_words_positive(self):
        sampler, _ = make(rate=1)
        sampler.insert(StreamPoint((0.0,), 0))
        assert sampler.space_words() > 0
