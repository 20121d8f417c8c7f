"""Tests for repro.core.base: config, candidate store, threshold policy."""

from __future__ import annotations

import random

import pytest

from repro.core.base import (
    CandidateRecord,
    CandidateStore,
    SamplerConfig,
    _ThresholdPolicy,
    coerce_point,
    default_grid_side,
)
from repro.errors import ParameterError
from repro.streams.point import StreamPoint


def make_record(config, vector, index, accepted=True):
    cell = config.grid.cell_of(vector)
    point = StreamPoint(tuple(vector), index)
    return CandidateRecord(
        representative=point,
        cell=cell,
        cell_hash=config.cell_hash(cell),
        adj_hashes=config.adj_hashes(vector),
        accepted=accepted,
        last=point,
    )


class TestDefaultGridSide:
    def test_small_dim_conservative(self):
        assert default_grid_side(1.0, 1) == pytest.approx(1.0)
        assert default_grid_side(1.0, 2) == pytest.approx(2.0**-0.5)

    def test_large_dim_section4(self):
        assert default_grid_side(1.0, 4) == pytest.approx(4.0)
        assert default_grid_side(1.0, 10) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            default_grid_side(0.0, 2)
        with pytest.raises(ParameterError):
            default_grid_side(1.0, 0)


class TestSamplerConfig:
    def test_create_deterministic(self):
        a = SamplerConfig.create(1.0, 2, seed=5)
        b = SamplerConfig.create(1.0, 2, seed=5)
        assert a.grid.offset == b.grid.offset
        assert a.cell_hash((0, 0)) == b.cell_hash((0, 0))

    def test_validation(self):
        with pytest.raises(ParameterError):
            SamplerConfig.create(-1.0, 2)
        with pytest.raises(ParameterError):
            SamplerConfig.create(1.0, 0)

    def test_adj_hashes_contains_own_cell(self):
        config = SamplerConfig.create(1.0, 2, seed=1)
        v = (3.0, 4.0)
        assert config.cell_hash(config.grid.cell_of(v)) in config.adj_hashes(v)

    def test_adj_hashes_with_precomputed_cell(self):
        # Callers that already hold cell(p) pass it in; the values are
        # those of the full computation.
        config = SamplerConfig.create(1.0, 2, seed=1)
        v = (3.0, 4.0)
        cell = config.grid.cell_of(v)
        assert config.adj_hashes(v, cell=cell) == config.adj_hashes(v)

    def test_kwise_mode(self):
        config = SamplerConfig.create(1.0, 2, seed=1, kwise=8)
        assert config.cell_hash((0, 0)) == config.cell_hash((0, 0))


class TestAdjacencyIndex:
    """The inline-head + overflow layout of CandidateStore's index."""

    def setup_method(self):
        self.config = SamplerConfig.create(1.0, 2, seed=3)
        self.store = CandidateStore(self.config)

    def probe(self, vector, level=None):
        cell_hash = self.config.cell_hash(self.config.grid.cell_of(vector))
        return self.store.find_nearby(vector, cell_hash, level)

    def test_disjoint_adjacency_owns_no_bucket_container(self):
        # Records far apart share no adj hash: every registration is an
        # inline head and no per-hash list exists at all.  (Positive
        # coordinates: CPython hashes -1 and -2 alike, so the cells
        # (x, -1) and (x, -2) share an id.)
        for index in range(20):
            self.store.add(
                make_record(self.config, (50.0 + 10.0 * index, 50.0), index)
            )
        self.store.check_index_integrity()
        assert not self.store._overflow
        assert all(
            type(head) is CandidateRecord
            for head in self.store._buckets.values()
        )

    def test_first_match_follows_registration_order(self):
        first = make_record(self.config, (5.0, 5.0), 0)
        second = make_record(self.config, (5.6, 5.6), 1)
        third = make_record(self.config, (5.2, 5.9), 2)
        for record in (first, second, third):
            self.store.add(record)
            self.store.check_index_integrity()
        probe = (5.3, 5.3)  # within alpha of all three
        assert self.store._overflow
        assert self.probe(probe) is first
        self.store.remove(first)  # promotes the next registration
        self.store.check_index_integrity()
        assert self.probe(probe) is second
        self.store.remove(third)  # leaves the head in place
        self.store.check_index_integrity()
        assert self.probe(probe) is second
        self.store.remove(second)
        self.store.check_index_integrity()
        assert not self.store._buckets and not self.store._overflow
        assert self.probe(probe) is None

    def test_colliding_adj_hashes_register_twice_and_unwind(self):
        # Cells (x, -1) and (x, -2) share a cell id, so one record can
        # carry the same adj hash twice; add/remove must stay symmetric
        # whichever record heads the shared hashes.
        first = make_record(self.config, (5.0, -1.0), 0)
        second = make_record(self.config, (5.1, -1.1), 1)
        assert len(set(first.adj_hashes)) < len(first.adj_hashes)
        for order in ((first, second), (second, first)):
            for record in order:
                self.store.add(record)
                self.store.check_index_integrity()
            assert self.probe((5.05, -1.05)) is order[0]
            for record in order:
                self.store.remove(record)
                self.store.check_index_integrity()
            assert not self.store._buckets and not self.store._overflow

    def test_level_filter_reaches_the_overflow(self):
        head = make_record(self.config, (5.0, 5.0), 0)
        tail = make_record(self.config, (5.1, 5.1), 1)
        tail.level = 2
        self.store.add(head)
        self.store.add(tail)
        assert self.probe((5.05, 5.05), level=0) is head
        assert self.probe((5.05, 5.05), level=2) is tail
        assert self.probe((5.05, 5.05), level=1) is None

    def test_oracle_detects_reordered_registrations(self):
        first = make_record(self.config, (5.0, 5.0), 0)
        second = make_record(self.config, (5.1, 5.1), 1)
        self.store.add(first)
        self.store.add(second)
        shared = next(
            h for h in first.adj_hashes if h in self.store._overflow
        )
        self.store._buckets[shared] = second
        self.store._overflow[shared] = [first]
        with pytest.raises(AssertionError):
            self.store.check_index_integrity()


class TestCandidateStore:
    def setup_method(self):
        self.config = SamplerConfig.create(1.0, 2, seed=3)
        self.store = CandidateStore(self.config)

    def test_add_and_find(self):
        record = make_record(self.config, (5.0, 5.0), 0)
        self.store.add(record)
        nearby = (5.3, 5.4)
        cell_hash = self.config.cell_hash(self.config.grid.cell_of(nearby))
        assert self.store.find_nearby(nearby, cell_hash) is record

    def test_find_misses_far_point(self):
        record = make_record(self.config, (5.0, 5.0), 0)
        self.store.add(record)
        far = (9.0, 9.0)
        cell_hash = self.config.cell_hash(self.config.grid.cell_of(far))
        assert self.store.find_nearby(far, cell_hash) is None

    def test_duplicate_key_rejected(self):
        record = make_record(self.config, (5.0, 5.0), 0)
        self.store.add(record)
        with pytest.raises(ParameterError):
            self.store.add(make_record(self.config, (9.0, 9.0), 0))

    def test_counts(self):
        self.store.add(make_record(self.config, (0.0, 0.0), 0, accepted=True))
        self.store.add(make_record(self.config, (9.0, 9.0), 1, accepted=False))
        assert self.store.accepted_count == 1
        assert self.store.rejected_count == 1
        assert len(self.store) == 2

    def test_remove(self):
        record = make_record(self.config, (0.0, 0.0), 0)
        self.store.add(record)
        self.store.remove(record)
        assert len(self.store) == 0
        cell_hash = self.config.cell_hash(self.config.grid.cell_of((0.1, 0.1)))
        assert self.store.find_nearby((0.1, 0.1), cell_hash) is None

    def test_contains_identity(self):
        record = make_record(self.config, (0.0, 0.0), 0)
        self.store.add(record)
        assert record in self.store
        clone = make_record(self.config, (0.0, 0.0), 0)
        assert clone not in self.store

    def test_set_accepted_flips_counts(self):
        record = make_record(self.config, (0.0, 0.0), 0, accepted=True)
        self.store.add(record)
        self.store.set_accepted(record, False)
        assert self.store.accepted_count == 0
        assert self.store.rejected_count == 1
        self.store.set_accepted(record, False)  # idempotent
        assert self.store.rejected_count == 1

    def test_resample_respects_definition(self):
        # Add many records; after resampling at rate R, accepted records
        # must be exactly those whose own cell is sampled, rejected those
        # with a sampled adj cell.
        rng = random.Random(0)
        for i in range(200):
            v = (rng.uniform(0, 100), rng.uniform(0, 100))
            record = make_record(self.config, v, i)
            try:
                self.store.add(record)
            except ParameterError:
                pass
        R = 4
        self.store.resample(R)
        mask = R - 1
        for record in self.store.records():
            if record.accepted:
                assert record.cell_hash & mask == 0
            else:
                assert record.cell_hash & mask != 0
                assert any(v & mask == 0 for v in record.adj_hashes)

    def test_space_words_positive(self):
        record = make_record(self.config, (0.0, 0.0), 0)
        self.store.add(record)
        assert self.store.space_words() > 0

    def test_store_space_words_matches_per_record_formula(self):
        # The store inlines CandidateRecord.space_words for speed; the
        # two formulas must never drift apart.
        for i, vector in enumerate([(0.0, 0.0), (9.0, 9.0), (30.0, 0.5)]):
            record = make_record(self.config, vector, i)
            if i == 1:
                record.last = StreamPoint((9.1, 9.0), 7)
            if i == 2:
                record.member = StreamPoint((30.0, 0.6), 8)
            self.store.add(record)
        for track_members in (False, True):
            assert self.store.space_words(
                track_members=track_members
            ) == sum(
                record.space_words(track_members=track_members)
                for record in self.store.records()
            )


class TestCoercePoint:
    def test_passthrough(self):
        p = StreamPoint((1.0,), 5)
        assert coerce_point(p, 99) is p

    def test_wraps_raw(self):
        p = coerce_point((1, 2), 7)
        assert p.vector == (1.0, 2.0)
        assert p.index == 7


class TestThresholdPolicy:
    def test_fixed_capacity(self):
        policy = _ThresholdPolicy(8, fixed=50)
        assert policy.threshold() == 50

    def test_expected_length(self):
        policy = _ThresholdPolicy(2, expected_stream_length=1024)
        assert policy.threshold() == 20  # 2 * log2(1024)

    def test_growing_fallback(self):
        policy = _ThresholdPolicy(2)
        first = policy.threshold()
        for _ in range(10000):
            policy.observe()
        assert policy.threshold() > first

    def test_minimum(self):
        policy = _ThresholdPolicy(0.001, expected_stream_length=4)
        assert policy.threshold() >= 4
