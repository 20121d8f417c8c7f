"""The unified summary API: specs, registry, and the Summary protocol.

The heart of this module is the *generic contract test*: every key in
the registry must pass the same sequence - build from a spec,
batch-ingest, query, checkpoint round-trip, and merge where supported -
through the protocol surface alone, with no per-class wiring.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.api import (
    F0InfiniteSpec,
    HeavyHittersSpec,
    KSampleSpec,
    L0InfiniteSpec,
    L0SlidingSpec,
    Summary,
    available,
    build,
    entries,
    entry,
    register_summary,
    spec_class,
    spec_from_state,
)
from repro.engine import state_fingerprint
from repro.errors import (
    MergeUnsupportedError,
    ParameterError,
    ReproError,
)
from repro.persist import summary_from_state, summary_to_state

#: Spec kwargs per registry key for the generic contract run.
CONTRACT_SPECS = {
    "l0-infinite": dict(alpha=1.0, dim=1, seed=9),
    "l0-sliding": dict(alpha=1.0, dim=1, seed=9, window_size=64),
    "ksample": dict(alpha=1.0, dim=1, seed=9, k=2),
    "f0-infinite": dict(alpha=1.0, dim=1, seed=9, copies=3, epsilon=0.5),
    "f0-sliding": dict(alpha=1.0, dim=1, seed=9, window_size=64, copies=2),
    "heavy-hitters": dict(alpha=1.0, dim=1, seed=9, epsilon=0.1),
    "batch-pipeline": dict(
        alpha=1.0, dim=1, seed=9, num_shards=3, batch_size=16
    ),
    "exact": dict(alpha=1.0, dim=1, seed=9),
    "naive-reservoir": dict(seed=9),
    "minrank": dict(seed=9),
    "fm": dict(seed=9),
    "loglog": dict(seed=9),
    "hyperloglog": dict(seed=9),
    "bjkst": dict(seed=9),
}


from stream_generators import line_stream


def group_stream(n, seed, groups=8):
    """Thin wrapper over the shared generator (this module's defaults)."""
    return line_stream(n, seed, groups)


class TestGenericContract:
    """build -> batch-ingest -> query -> checkpoint -> merge (if any)."""

    @pytest.mark.parametrize("key", sorted(CONTRACT_SPECS))
    def test_contract(self, key):
        info = entry(key)
        kwargs = CONTRACT_SPECS[key]

        # 1. Build from a validated spec through the registry.
        spec = info.spec_cls(**kwargs)
        summary = build(key, spec)
        assert isinstance(summary, info.summary_cls)
        assert isinstance(summary, Summary)
        assert type(summary).summary_key == key

        # 2. Batch-ingest through the protocol.
        stream = group_stream(300, seed=31)
        processed = summary.process_many(stream)
        assert processed == len(stream)

        # 3. Query returns the summary's natural answer.
        result = summary.query(random.Random(0))
        assert result is not None

        # 4. Checkpoint round-trip through JSON is fingerprint-exact.
        envelope = json.loads(json.dumps(summary_to_state(summary)))
        assert envelope["summary"] == key
        restored = summary_from_state(envelope)
        assert state_fingerprint(restored) == state_fingerprint(summary)

        # 5. Merge where supported: two same-spec summaries over disjoint
        #    halves combine into one over the union.
        other = build(key, spec)
        other.process_many(group_stream(300, seed=37))
        if info.supports_merge:
            merged = summary.merge(other)
            assert isinstance(merged, info.summary_cls)
            assert merged.query(random.Random(1)) is not None
            if hasattr(merged, "points_seen"):
                assert (
                    merged.points_seen
                    == summary.points_seen + other.points_seen
                )
        else:
            with pytest.raises(MergeUnsupportedError):
                summary.merge(other)

    def test_contract_matrix_covers_registry(self):
        assert sorted(CONTRACT_SPECS) == available()

    @pytest.mark.parametrize("key", sorted(CONTRACT_SPECS))
    def test_spec_build_shortcut(self, key):
        spec = spec_class(key)(**CONTRACT_SPECS[key])
        summary = spec.build()
        assert isinstance(summary, entry(key).summary_cls)

    @pytest.mark.parametrize("key", sorted(CONTRACT_SPECS))
    def test_spec_state_round_trip(self, key):
        spec = spec_class(key)(**CONTRACT_SPECS[key])
        restored = spec_from_state(json.loads(json.dumps(spec.to_state())))
        assert restored == spec


class TestRegistry:
    def test_unknown_key(self):
        with pytest.raises(ParameterError, match="unknown summary key"):
            build("no-such-summary", alpha=1.0, dim=1)

    def test_kwargs_construction(self):
        sampler = build("l0-infinite", alpha=0.5, dim=2, seed=1)
        sampler.process_many([(0.0, 0.0), (9.0, 9.0)])
        assert sampler.points_seen == 2

    def test_spec_type_mismatch(self):
        spec = L0InfiniteSpec(alpha=1.0, dim=1)
        with pytest.raises(ParameterError, match="expects"):
            build("l0-sliding", spec)

    def test_entries_metadata(self):
        rows = entries()
        assert [row.key for row in rows] == available()
        assert all(row.description for row in rows)

    def test_conflicting_registration_rejected(self):
        info = entry("fm")
        with pytest.raises(ParameterError, match="already bound"):
            register_summary(
                "fm",
                info.spec_cls,
                object,
                lambda spec: object(),
                supports_merge=False,
                description="conflict",
            )

    def test_idempotent_re_registration_allowed(self):
        info = entry("fm")
        register_summary(
            "fm",
            info.spec_cls,
            info.summary_cls,
            info.factory,
            supports_merge=info.supports_merge,
            description=info.description,
        )
        assert entry("fm").summary_cls is info.summary_cls


class TestSpecValidation:
    def test_specs_are_frozen(self):
        spec = L0InfiniteSpec(alpha=1.0, dim=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.alpha = 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, dim=1),
            dict(alpha=-1.0, dim=1),
            dict(alpha=1.0, dim=0),
            dict(alpha=1.0, dim=1, kappa0=0.0),
        ],
    )
    def test_l0_infinite_rejects(self, kwargs):
        with pytest.raises(ParameterError):
            L0InfiniteSpec(**kwargs)

    def test_sliding_requires_exactly_one_window(self):
        with pytest.raises(ParameterError):
            L0SlidingSpec(alpha=1.0, dim=1)
        with pytest.raises(ParameterError):
            L0SlidingSpec(
                alpha=1.0, dim=1, window_size=8, window_seconds=2.0
            )

    def test_time_window_requires_capacity(self):
        with pytest.raises(ParameterError, match="window_capacity"):
            L0SlidingSpec(alpha=1.0, dim=1, window_seconds=5.0)

    def test_ksample_windows_mutually_exclusive(self):
        with pytest.raises(ParameterError):
            KSampleSpec(
                alpha=1.0, dim=1, window_size=8, window_seconds=2.0,
                window_capacity=8,
            )

    def test_f0_epsilon_domain(self):
        with pytest.raises(ParameterError):
            F0InfiniteSpec(alpha=1.0, dim=1, epsilon=0.0)

    def test_heavy_phi_domain(self):
        with pytest.raises(ParameterError):
            HeavyHittersSpec(alpha=1.0, dim=1, phi=1.5)

    def test_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            L0InfiniteSpec(alpha=0.0, dim=1)


class TestMergeSemantics:
    def test_merge_requires_matching_configs(self):
        a = build("l0-infinite", alpha=1.0, dim=1, seed=1)
        b = build("l0-infinite", alpha=1.0, dim=1, seed=2)
        a.insert((0.0,))
        b.insert((0.0,))
        with pytest.raises(ParameterError, match="configurations"):
            a.merge(b)

    def test_merge_requires_same_type(self):
        a = build("l0-infinite", alpha=1.0, dim=1, seed=1)
        b = build("heavy-hitters", alpha=1.0, dim=1, seed=1)
        with pytest.raises(ParameterError, match="cannot merge"):
            a.merge(b)

    def test_l0_merge_matches_coordinator_semantics(self):
        # merge() on samplers == the distributed coordinator's merge.
        from repro.distributed.coordinator import DistributedRobustSampler

        coordinator = DistributedRobustSampler(
            L0InfiniteSpec(alpha=1.0, dim=1, seed=3),
            num_shards=2,
        )
        stream = group_stream(200, seed=41)
        for i, point in enumerate(stream):
            coordinator.route(point, shard=i % 2)
        via_protocol = coordinator.shard(0).merge(coordinator.shard(1))
        via_coordinator = coordinator.merged_sampler()
        assert state_fingerprint(via_protocol) == state_fingerprint(
            via_coordinator
        )

    def test_merged_sampler_accepts_further_ingestion(self):
        # Regression: re-keyed representatives must never collide with
        # the arrival indices of points inserted after the merge (they
        # get fresh negative keys).
        a = build("l0-infinite", alpha=1.0, dim=1, seed=3)
        b = build("l0-infinite", alpha=1.0, dim=1, seed=3)
        a.process_many([(25.0 * (i % 4),) for i in range(100)])
        b.insert((200.0,))
        merged = a.merge(b)
        merged.process_many([(300.0 + 25.0 * g,) for g in range(200)])
        assert merged.points_seen == 301
        counts = {
            record.count for record in merged._store.records()
        }
        assert counts  # every record intact, no silent overwrites

    def test_merged_heavy_hitters_accept_further_ingestion(self):
        # Regression: same collision, heavy-hitter counter table.
        a = build("heavy-hitters", alpha=1.0, dim=1, seed=3, epsilon=0.01)
        b = build("heavy-hitters", alpha=1.0, dim=1, seed=3, epsilon=0.01)
        a.process_many([(50.0 * (i % 3),) for i in range(100)])
        b.insert((500.0,))
        merged = a.merge(b)
        merged.process_many([(1000.0 + 50.0 * g,) for g in range(250)])
        assert merged.points_seen == 101 + 250
        # SpaceSaving invariant: every arrival increments exactly one
        # counter (evictions inherit the victim's count + 1), so count
        # mass is conserved - a key collision silently dropping a counter
        # would break this.
        assert (
            sum(c.count for c in merged._counters.values())
            == merged.points_seen
        )

    def test_track_members_merge_unsupported(self):
        a = build("l0-infinite", alpha=1.0, dim=1, seed=1, track_members=True)
        b = build("l0-infinite", alpha=1.0, dim=1, seed=1, track_members=True)
        a.insert((0.0,))
        b.insert((1.0,))
        with pytest.raises(MergeUnsupportedError):
            a.merge(b)

    def test_heavy_hitter_merge_finds_union_heavy_group(self):
        rng = random.Random(7)
        a = build("heavy-hitters", alpha=1.0, dim=1, seed=5, epsilon=0.2)
        b = build("heavy-hitters", alpha=1.0, dim=1, seed=5, epsilon=0.2)
        # The heavy group is split across the two inputs.
        a.process_many([(0.0 + rng.uniform(0, 0.3),) for _ in range(40)])
        a.process_many([(50.0 * g,) for g in range(1, 4)])
        b.process_many([(0.0 + rng.uniform(0, 0.3),) for _ in range(35)])
        b.process_many([(70.0 * g,) for g in range(1, 4)])
        merged = a.merge(b)
        top = merged.heavy_hitters(phi=0.5)
        assert len(top) == 1
        assert abs(top[0].representative.vector[0]) < 1.0
        assert top[0].count >= 75  # overestimate of the pooled true count

    def test_fm_merge_equals_union_sketch(self):
        union = build("fm", seed=3)
        a = build("fm", seed=3)
        b = build("fm", seed=3)
        items_a = [(float(i),) for i in range(100)]
        items_b = [(float(i),) for i in range(50, 150)]
        a.process_many(items_a)
        b.process_many(items_b)
        union.process_many(items_a)
        union.process_many(items_b)
        merged = a.merge(b)
        assert state_fingerprint(merged) == state_fingerprint(union)

    def test_bjkst_merge_equals_union_sketch(self):
        union = build("bjkst", seed=3, epsilon=0.5)
        a = build("bjkst", seed=3, epsilon=0.5)
        b = build("bjkst", seed=3, epsilon=0.5)
        items_a = [(float(i),) for i in range(400)]
        items_b = [(float(i),) for i in range(300, 700)]
        a.process_many(items_a)
        b.process_many(items_b)
        union.process_many(items_a)
        union.process_many(items_b)
        merged = a.merge(b)
        assert merged.estimate() == union.estimate()
        assert sorted(merged._kept) == sorted(union._kept)
