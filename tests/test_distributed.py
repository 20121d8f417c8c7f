"""Tests for the distributed robust sampler."""

from __future__ import annotations

import collections
import random

import pytest

from repro.api.specs import L0InfiniteSpec, PipelineSpec
from repro.core.infinite_window import RobustL0SamplerIW
from repro.distributed.coordinator import DistributedRobustSampler
from repro.engine.pipeline import BatchPipeline
from repro.errors import EmptySampleError, ParameterError
from repro.metrics.accuracy import chi_square_uniformity


def feed(coordinator, num_groups, copies=3, seed=0):
    rng = random.Random(seed)
    stream = []
    for g in range(num_groups):
        for _ in range(copies):
            stream.append((25.0 * g + rng.uniform(0, 0.4),))
    rng.shuffle(stream)
    coordinator.scatter(stream, rng=rng)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ParameterError):
            DistributedRobustSampler(
                L0InfiniteSpec(alpha=1.0, dim=1),
                num_shards=0,
            )

    def test_shards_share_config(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=2, seed=1),
            num_shards=3,
        )
        configs = {id(coordinator.shard(i).config) for i in range(3)}
        assert len(configs) == 1

    def test_shards_honour_accept_capacity(self):
        spec = L0InfiniteSpec(alpha=1.0, dim=1, seed=3, accept_capacity=8)
        coordinator = DistributedRobustSampler(spec=spec, num_shards=2)
        feed(coordinator, 200, copies=1, seed=3)
        for index in range(coordinator.num_shards):
            shard = coordinator.shard(index)
            assert shard._policy.fixed == 8
            assert shard.accept_size <= 8
        # The checkpoint's spec is the one the shards were built from,
        # and the restored shards keep the fixed capacity.
        restored = DistributedRobustSampler.from_state(
            coordinator.to_state()
        )
        assert restored.spec == spec
        assert restored.shard(0)._policy.fixed == 8
        assert coordinator.merged_sampler()._policy.fixed == 8

    def test_track_members_is_rejected(self):
        spec = L0InfiniteSpec(alpha=1.0, dim=1, seed=3, track_members=True)
        with pytest.raises(ParameterError, match="track_members"):
            DistributedRobustSampler(spec=spec, num_shards=2)


class TestMergeSemantics:
    def test_empty_merge(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=0),
            num_shards=2,
        )
        with pytest.raises(EmptySampleError):
            coordinator.sample()

    def test_cross_shard_group_deduplicated(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=2),
            num_shards=2,
        )
        coordinator.route((0.0,), shard=0)
        coordinator.route((0.2,), shard=1)  # same group, other shard
        coordinator.route((50.0,), shard=1)
        merged = coordinator.merged_sampler()
        assert merged.num_candidate_groups == 2

    def test_merge_counts_pooled(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=3),
            num_shards=2,
        )
        for _ in range(4):
            coordinator.route((0.0,), shard=0)
        for _ in range(5):
            coordinator.route((0.1,), shard=1)
        merged = coordinator.merged_sampler()
        record = next(iter(merged._store.records()))
        assert record.count == 9

    def test_merge_matches_group_count(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(
                alpha=1.0, dim=1, seed=4, expected_stream_length=400
            ),
            num_shards=4,
        )
        feed(coordinator, 80, seed=4)
        merged = coordinator.merged_sampler()
        estimate = merged.estimate_f0()
        assert 30 <= estimate <= 200  # true 80

    def test_merge_respects_rate_invariant(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(
                alpha=1.0, dim=1, seed=5, expected_stream_length=900
            ),
            num_shards=3,
        )
        feed(coordinator, 300, seed=5)
        merged = coordinator.merged_sampler()
        mask = merged.rate_denominator - 1
        for record in merged._store.accepted_records():
            assert record.cell_hash & mask == 0

    def test_merged_accept_capacity(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(
                alpha=1.0, dim=1, seed=6, expected_stream_length=900
            ),
            num_shards=3,
        )
        feed(coordinator, 300, seed=6)
        merged = coordinator.merged_sampler()
        assert merged.accept_size <= merged._policy.threshold()

    def test_communication_is_sketch_sized(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(
                alpha=1.0, dim=1, seed=7, expected_stream_length=5000
            ),
            num_shards=3,
        )
        feed(coordinator, 500, copies=10, seed=7)
        # Stream is 5000 points x 3 words; shipping the sketches must cost
        # a small fraction of shipping the data.
        stream_words = 5000 * 3
        assert coordinator.communication_words() < stream_words / 4


class TestBatchPipelineOracle:
    """BatchPipeline shard-merge vs a single sampler over the union.

    Both sides share one SamplerConfig, so group-level decisions (which
    cells are sampled, who is accepted) are identical; the oracle checks
    that dealing the interleaved union stream across shards in batches
    and merging reproduces the single-sampler view of the same stream.
    """

    @staticmethod
    def union_stream(num_groups, copies, seed):
        rng = random.Random(seed)
        stream = []
        for g in range(num_groups):
            for _ in range(copies):
                stream.append((25.0 * g + rng.uniform(0, 0.4),))
        rng.shuffle(stream)
        return stream

    def test_merge_matches_single_sampler_over_union(self):
        num_groups = 20
        stream = self.union_stream(num_groups, copies=15, seed=101)
        pipeline = BatchPipeline(
            PipelineSpec(
                alpha=1.0, dim=1, num_shards=3, batch_size=16, seed=103
            )
        )
        pipeline.extend(stream)
        # The single oracle sampler shares the pipeline's exact config.
        single = RobustL0SamplerIW(1.0, 1, config=pipeline.config)
        single.extend(stream)

        merged = pipeline.merge()
        assert merged.points_seen == single.points_seen == len(stream)
        # Few groups -> nobody's rate ever halves, so the merge must see
        # exactly the groups the single sampler sees.
        assert merged.rate_denominator == single.rate_denominator == 1
        assert merged.num_candidate_groups == single.num_candidate_groups
        assert merged.accept_size == single.accept_size
        assert merged.estimate_f0() == single.estimate_f0()

        def group_ids(sampler):
            return sorted(
                round(r.vector[0] // 25.0)
                for r in sampler.accepted_representatives()
            )

        assert group_ids(merged) == group_ids(single)
        # Pooled per-group counts also agree with the union stream.
        merged_counts = sorted(
            record.count for record in merged._store.records()
        )
        single_counts = sorted(
            record.count for record in single._store.records()
        )
        assert merged_counts == single_counts

    def test_pipeline_round_robin_is_deterministic(self):
        stream = self.union_stream(12, copies=6, seed=7)
        runs = []
        for _ in range(2):
            pipeline = BatchPipeline(
                PipelineSpec(
                    alpha=1.0, dim=1, num_shards=4, batch_size=8, seed=11
                )
            )
            pipeline.extend(stream)
            runs.append(
                [
                    pipeline.shard(i).points_seen
                    for i in range(pipeline.num_shards)
                ]
            )
        assert runs[0] == runs[1]
        assert sum(runs[0]) == len(stream)

    def test_pipeline_sample_comes_from_union_group(self):
        stream = self.union_stream(8, copies=10, seed=13)
        pipeline = BatchPipeline(
            PipelineSpec(
                alpha=1.0, dim=1, num_shards=2, batch_size=32, seed=17
            )
        )
        pipeline.extend(stream)
        sample = pipeline.sample(random.Random(19))
        assert 0 <= round(sample.vector[0] // 25.0) <= 7
        assert pipeline.communication_words() > 0


class TestPipelineCheckpoint:
    """BatchPipeline shards checkpoint/restore mid-stream, exactly."""

    @staticmethod
    def stream(n=480, seed=51):
        rng = random.Random(seed)
        return [(25.0 * rng.randrange(10) + rng.uniform(0, 0.4),) for _ in range(n)]

    def test_mid_stream_checkpoint_is_fingerprint_identical(self):
        import json

        from repro.engine import state_fingerprint
        from repro.persist import summary_from_state, summary_to_state

        stream = self.stream()
        kwargs = dict(num_shards=3, batch_size=32, seed=13)
        uninterrupted = BatchPipeline(PipelineSpec(alpha=1.0, dim=1, **kwargs))
        uninterrupted.extend(stream)

        interrupted = BatchPipeline(PipelineSpec(alpha=1.0, dim=1, **kwargs))
        interrupted.extend(stream[:320])  # chunk-aligned interruption
        envelope = json.loads(json.dumps(summary_to_state(interrupted)))
        assert envelope["summary"] == "batch-pipeline"
        resumed = summary_from_state(envelope)
        assert resumed.points_seen == 320
        assert resumed._next_shard == interrupted._next_shard
        resumed.extend(stream[320:])

        assert state_fingerprint(resumed) == state_fingerprint(uninterrupted)
        # The restored pipeline's merge answers match too.
        assert resumed.estimate_f0() == uninterrupted.estimate_f0()

    def test_envelope_batch_size_must_match_spec(self):
        # The chunk size lives in the spec; an envelope whose top-level
        # batch_size disagrees with it is corrupt, not a second source.
        from repro.errors import CheckpointError
        from repro.persist import summary_from_state, summary_to_state

        pipeline = BatchPipeline(
            PipelineSpec(alpha=1.0, dim=1, num_shards=2, batch_size=16, seed=5)
        )
        pipeline.extend(self.stream(100))
        envelope = summary_to_state(pipeline)
        assert envelope["state"]["batch_size"] == 16
        assert summary_from_state(envelope).batch_size == 16
        envelope["state"]["batch_size"] = 32
        with pytest.raises(CheckpointError, match="batch_size"):
            summary_from_state(envelope)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("track_members", True),
            ("accept_capacity", 8),
            ("kappa0", 3.0),
            ("expected_stream_length", 1000),
        ],
    )
    def test_coordinator_spec_must_describe_its_shards(self, field, value):
        # A spec field the shards never received must not restore as if
        # it applied: the restore names the field and the shard.
        import copy

        from repro.errors import CheckpointError

        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=5), num_shards=2
        )
        feed(coordinator, 12, seed=4)
        state = coordinator.to_state()
        DistributedRobustSampler.from_state(copy.deepcopy(state))
        state["spec"][field] = value
        with pytest.raises(CheckpointError, match=f"'{field}'.*shard 0"):
            DistributedRobustSampler.from_state(state)

    def test_coordinator_rejects_tracked_members_on_restore(self):
        from repro.errors import CheckpointError

        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=5), num_shards=2
        )
        state = coordinator.to_state()
        state["spec"]["track_members"] = True
        for shard in state["shards"]:
            shard["track_members"] = True
        with pytest.raises(CheckpointError, match="track_members"):
            DistributedRobustSampler.from_state(state)

    def test_restored_shards_share_one_config(self):
        from repro.persist import summary_from_state, summary_to_state

        pipeline = BatchPipeline(
            PipelineSpec(alpha=1.0, dim=1, num_shards=3, seed=5)
        )
        pipeline.extend(self.stream(100))
        restored = summary_from_state(summary_to_state(pipeline))
        configs = {
            id(restored.shard(i).config) for i in range(restored.num_shards)
        }
        assert len(configs) == 1
        assert restored.config is restored.shard(0).config

    def test_spec_constructed_pipeline(self):
        from repro.api import PipelineSpec, build

        spec = PipelineSpec(
            alpha=1.0, dim=1, seed=11, num_shards=3, batch_size=4
        )
        via_registry = build("batch-pipeline", spec)
        via_ctor = BatchPipeline(spec=spec)
        stream = self.stream(120)
        via_registry.extend(stream)
        via_ctor.extend(stream)
        from repro.engine import state_fingerprint

        assert state_fingerprint(via_registry) == state_fingerprint(via_ctor)

    def test_coordinator_spec_construction(self):
        from repro.engine import state_fingerprint

        spec = L0InfiniteSpec(alpha=1.0, dim=1, seed=21)
        coordinator = DistributedRobustSampler(spec=spec, num_shards=2)
        assert coordinator.spec is spec
        # An equal spec, passed positionally, builds the same shards.
        twin = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=21), 2
        )
        feed(coordinator, 20, seed=3)
        feed(twin, 20, seed=3)
        assert state_fingerprint(
            coordinator.merged_sampler()
        ) == state_fingerprint(twin.merged_sampler())


class TestShardExecutors:
    """Differential executor checks at the distributed layer.

    The full serial/thread/process matrix (empty batches, single shard,
    checkpoint/resume under process workers) lives in
    ``tests/test_executors.py``; these tests pin the two distributed
    facts: process workers reproduce the serial shard states exactly,
    and so the merge of a process pipeline equals the serial one's.
    """

    @staticmethod
    def stream(n=480, seed=51):
        rng = random.Random(seed)
        return [
            (25.0 * rng.randrange(10) + rng.uniform(0, 0.4),)
            for _ in range(n)
        ]

    def test_process_executor_is_fingerprint_identical_to_serial(self):
        from repro.api import PipelineSpec
        from repro.engine import state_fingerprint

        stream = self.stream()
        kwargs = dict(
            alpha=1.0, dim=1, seed=13, num_shards=3, batch_size=32
        )
        serial = BatchPipeline(spec=PipelineSpec(**kwargs))
        serial.extend(stream)
        with BatchPipeline(
            spec=PipelineSpec(**kwargs, executor="process", num_workers=2)
        ) as parallel:
            parallel.extend(stream)
            assert state_fingerprint(parallel) == state_fingerprint(serial)
            assert state_fingerprint(parallel.merge()) == state_fingerprint(
                serial.merge()
            )


class TestDistributedUniformity:
    def test_uniform_over_union_groups(self):
        num_groups = 6
        counts = collections.Counter()
        runs = 300
        for run in range(runs):
            coordinator = DistributedRobustSampler(
                L0InfiniteSpec(alpha=1.0, dim=1, seed=run),
                num_shards=3,
            )
            feed(coordinator, num_groups, seed=run)
            sample = coordinator.sample(random.Random(run ^ 0x123))
            counts[round(sample.vector[0] // 25.0)] += 1
        dense = [counts.get(g, 0) for g in range(num_groups)]
        _, p_value = chi_square_uniformity(dense)
        assert p_value > 1e-4, dense

    def test_single_shard_equivalent_to_local(self):
        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=9),
            num_shards=1,
        )
        feed(coordinator, 30, seed=9)
        merged = coordinator.merged_sampler()
        local = coordinator.shard(0)
        assert merged.num_candidate_groups == local.num_candidate_groups
        assert merged.accept_size == local.accept_size
