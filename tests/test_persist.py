"""Tests for the universal checkpoint protocol (envelope + per-summary)."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.api import available, build, entry
from repro.core.infinite_window import RobustL0SamplerIW
from repro.engine import state_fingerprint
from repro.errors import CheckpointError
from repro.persist import (
    FORMAT_NAME,
    FORMAT_VERSION,
    dump_sampler,
    dump_summary,
    dumps_summary,
    load_sampler,
    load_summary,
    loads_summary,
    sampler_from_state,
    sampler_to_state,
    summary_from_state,
    summary_to_state,
)


from stream_generators import line_stream


def build_stream(n=400, seed=0, groups=120):
    """Thin wrapper over the shared generator (this module's defaults)."""
    return line_stream(n, seed, groups)


def snapshot(sampler):
    """Observable state used to compare two samplers."""
    return {
        "rate": sampler.rate_denominator,
        "count": sampler.points_seen,
        "accepted": sorted(
            (r.representative.index, r.accepted, r.count)
            for r in sampler._store.records()
        ),
    }


class TestEnvelope:
    def test_envelope_shape(self):
        sampler = RobustL0SamplerIW(1.0, 1, seed=1)
        for v in build_stream(50):
            sampler.insert(v)
        envelope = summary_to_state(sampler)
        assert envelope["format"] == FORMAT_NAME
        assert envelope["version"] == FORMAT_VERSION
        assert envelope["summary"] == "l0-infinite"
        text = json.dumps(envelope)
        assert json.loads(text)["state"]["points_seen"] == 50

    def test_unknown_version_rejected(self):
        sampler = RobustL0SamplerIW(1.0, 1, seed=7)
        envelope = summary_to_state(sampler)
        envelope["version"] = 999
        with pytest.raises(CheckpointError):
            summary_from_state(envelope)

    def test_missing_summary_key_rejected(self):
        sampler = RobustL0SamplerIW(1.0, 1, seed=7)
        envelope = summary_to_state(sampler)
        del envelope["summary"]
        with pytest.raises(CheckpointError):
            summary_from_state(envelope)

    def test_non_protocol_object_rejected(self):
        with pytest.raises(CheckpointError):
            summary_to_state(object())

    def test_legacy_v1_checkpoint_still_readable(self):
        # A version-1 checkpoint as the original persist module wrote it.
        sampler = RobustL0SamplerIW(1.0, 1, seed=11)
        for v in build_stream(200, seed=11):
            sampler.insert(v)
        v2 = summary_to_state(sampler)["state"]
        v1 = {
            "version": 1,
            "config": v2["config"],
            "rate_denominator": v2["rate_denominator"],
            "points_seen": v2["points_seen"],
            "peak_space_words": v2["peak_space_words"],
            "track_members": v2["track_members"],
            "member_rng_state": repr(sampler._member_rng.getstate()),
            "policy": dict(v2["policy"]),
            "records": v2["records"],
        }
        restored = sampler_from_state(json.loads(json.dumps(v1)))
        assert snapshot(restored) == snapshot(sampler)


class TestInfiniteWindowRoundTrip:
    def test_round_trip_preserves_state(self):
        sampler = RobustL0SamplerIW(
            1.0, 1, seed=2, expected_stream_length=400
        )
        for v in build_stream(400, seed=2):
            sampler.insert(v)
        restored = summary_from_state(summary_to_state(sampler))
        assert snapshot(restored) == snapshot(sampler)
        assert state_fingerprint(restored) == state_fingerprint(sampler)

    def test_restored_sampler_continues_identically(self):
        stream = build_stream(600, seed=3)
        full = RobustL0SamplerIW(1.0, 1, seed=3, expected_stream_length=600)
        half = RobustL0SamplerIW(1.0, 1, seed=3, expected_stream_length=600)
        for v in stream[:300]:
            full.insert(v)
            half.insert(v)
        restored = summary_from_state(summary_to_state(half))
        for v in stream[300:]:
            full.insert(v)
            restored.insert(v)
        assert state_fingerprint(restored) == state_fingerprint(full)

    def test_round_trip_with_members(self):
        sampler = RobustL0SamplerIW(1.0, 1, seed=4, track_members=True)
        for v in build_stream(100, seed=4):
            sampler.insert(v)
        restored = summary_from_state(summary_to_state(sampler))
        assert restored.sample_member(random.Random(0)) is not None
        assert state_fingerprint(restored) == state_fingerprint(sampler)

    def test_round_trip_kwise_hash(self):
        sampler = RobustL0SamplerIW(1.0, 1, seed=5, kwise=8)
        for v in build_stream(100, seed=5):
            sampler.insert(v)
        restored = summary_from_state(summary_to_state(sampler))
        assert snapshot(restored) == snapshot(sampler)
        # The hash functions must agree exactly.
        assert restored.config.cell_hash((7,)) == sampler.config.cell_hash((7,))

    def test_file_round_trip(self, tmp_path):
        sampler = RobustL0SamplerIW(1.0, 2, seed=6)
        sampler.insert((1.0, 2.0))
        path = tmp_path / "checkpoint.json"
        dump_sampler(sampler, str(path))
        restored = load_sampler(str(path))
        assert snapshot(restored) == snapshot(sampler)

    def test_load_sampler_rejects_other_summaries(self, tmp_path):
        sketch = build("fm", seed=1)
        path = tmp_path / "fm.json"
        dump_summary(sketch, str(path))
        with pytest.raises(CheckpointError):
            load_sampler(str(path))

    def test_sampler_to_state_is_envelope_alias(self):
        sampler = RobustL0SamplerIW(1.0, 1, seed=8)
        assert sampler_to_state(sampler) == summary_to_state(sampler)

    def test_sample_distribution_unchanged_after_restore(self):
        sampler = RobustL0SamplerIW(1.0, 1, seed=8)
        for g in range(10):
            sampler.insert((30.0 * g,))
        restored = summary_from_state(summary_to_state(sampler))
        rng_a, rng_b = random.Random(9), random.Random(9)
        for _ in range(20):
            assert sampler.sample(rng_a).vector == restored.sample(rng_b).vector


# ------------------------------------------------------------------ #
# checkpoint -> resume equivalence for EVERY registered summary
# ------------------------------------------------------------------ #

#: Per-key spec kwargs used by the resume matrix.  Streams are 1-D noisy
#: group streams; the item sketches hash the coordinate tuples.
RESUME_SPECS = {
    "l0-infinite": dict(alpha=1.0, dim=1, seed=5),
    "l0-sliding": dict(alpha=1.0, dim=1, seed=5, window_size=64),
    "ksample": dict(alpha=1.0, dim=1, seed=5, k=2),
    "f0-infinite": dict(alpha=1.0, dim=1, seed=5, copies=3, epsilon=0.5),
    "f0-sliding": dict(
        alpha=1.0, dim=1, seed=5, window_size=64, copies=2
    ),
    "heavy-hitters": dict(alpha=1.0, dim=1, seed=5, epsilon=0.1),
    "batch-pipeline": dict(
        alpha=1.0, dim=1, seed=5, num_shards=3, batch_size=25
    ),
    "exact": dict(alpha=1.0, dim=1, seed=5),
    "naive-reservoir": dict(seed=5),
    "minrank": dict(seed=5),
    "fm": dict(seed=5),
    "loglog": dict(seed=5),
    "hyperloglog": dict(seed=5),
    "bjkst": dict(seed=5),
}


def _ingest(summary, key, points):
    # process_many is uniform across the registry (the pipeline chunks by
    # its batch size internally).  The pipeline's resume cut must fall on
    # a chunk boundary, which the half sizes below respect (250 % 25 == 0).
    summary.process_many(points)


class TestResumeEquivalenceMatrix:
    """Ingest half, round-trip through JSON, finish; fingerprints match."""

    @pytest.mark.parametrize("key", sorted(RESUME_SPECS))
    def test_half_stream_resume(self, key):
        kwargs = RESUME_SPECS[key]
        stream = build_stream(500, seed=17, groups=9)
        half = 250  # a multiple of the pipeline batch size
        uninterrupted = build(key, **kwargs)
        interrupted = build(key, **kwargs)
        _ingest(uninterrupted, key, stream)
        _ingest(interrupted, key, stream[:half])
        envelope = json.loads(json.dumps(summary_to_state(interrupted)))
        resumed = summary_from_state(envelope)
        assert type(resumed) is entry(key).summary_cls
        _ingest(resumed, key, stream[half:])
        assert state_fingerprint(resumed) == state_fingerprint(uninterrupted)

    def test_matrix_covers_every_registered_key(self):
        assert sorted(RESUME_SPECS) == available()

    @pytest.mark.parametrize(
        "key", ["l0-sliding", "f0-sliding", "ksample"]
    )
    def test_windowed_resume_with_time_window(self, key):
        kwargs = dict(RESUME_SPECS[key])
        kwargs.pop("window_size", None)
        kwargs.update(window_seconds=40.0, window_capacity=64)
        stream = build_stream(400, seed=23, groups=9)
        uninterrupted = build(key, **kwargs)
        interrupted = build(key, **kwargs)
        uninterrupted.process_many(stream)
        interrupted.process_many(stream[:200])
        resumed = summary_from_state(
            json.loads(json.dumps(summary_to_state(interrupted)))
        )
        resumed.process_many(stream[200:])
        assert state_fingerprint(resumed) == state_fingerprint(uninterrupted)

    def test_file_round_trip_any_summary(self, tmp_path):
        summary = build("l0-sliding", **RESUME_SPECS["l0-sliding"])
        summary.process_many(build_stream(200, seed=29, groups=9))
        path = tmp_path / "sliding.json"
        dump_summary(summary, str(path))
        restored = load_summary(str(path))
        assert state_fingerprint(restored) == state_fingerprint(summary)


# ------------------------------------------------------------------ #
# legacy sliding-window layout (one store per level) stays readable
# ------------------------------------------------------------------ #


class TestLegacySlidingLayout:
    """Sliding checkpoints written before the shared-store refactor keep
    a per-level ``"levels"`` list; ``from_state`` must still restore them
    (records re-tagged with their level, live heap entries folded into
    the shared heap) and continue the stream correctly.

    ``tests/data/legacy_sliding_checkpoint.json`` was generated by the
    pre-refactor code: the first 150 points of the deterministic stream
    below into ``RobustL0SamplerSW(1.0, 1, SequenceWindow(64),
    seed=20260730)``.
    """

    CHECKPOINT = (
        Path(__file__).parent / "data" / "legacy_sliding_checkpoint.json"
    )

    @staticmethod
    def legacy_stream():
        return line_stream(300, seed=424242, groups=8)

    def restored(self):
        envelope = json.loads(self.CHECKPOINT.read_text())
        return summary_from_state(envelope)

    def test_legacy_layout_restores(self):
        sampler = self.restored()
        assert sampler.points_seen == 150
        assert sampler.space_words() == sampler.recount_space_words()
        # Every record landed at the level whose list held it.
        total = sum(
            len(level_map) for level_map in sampler._level_records
        )
        assert total == len(list(sampler._store.records()))
        assert total > 0
        for index, level_map in enumerate(sampler._level_records):
            for record in level_map.values():
                assert record.level == index

    def test_legacy_restore_continues_correctly(self):
        sampler = self.restored()
        stream = self.legacy_stream()
        for point in stream[150:]:
            sampler.insert(point)
        assert sampler.points_seen == 300
        assert sampler.space_words() == sampler.recount_space_words()
        # Invariant I1 (one record per group across levels) and the
        # sample-in-window guarantee survive the format migration.
        seen_groups = set()
        for level_map in sampler._level_records:
            for record in level_map.values():
                group = round(record.representative.vector[0] / 25.0)
                assert group not in seen_groups
                seen_groups.add(group)
        window = sampler.window
        rng = random.Random(1)
        for _ in range(10):
            assert window.in_window(sampler.sample(rng), sampler._latest)

    def test_legacy_round_trips_into_new_layout(self):
        sampler = self.restored()
        reserialized = json.loads(json.dumps(summary_to_state(sampler)))
        assert "levels" not in reserialized["state"]
        again = summary_from_state(reserialized)
        assert state_fingerprint(again) == state_fingerprint(sampler)


class TestBytesEnvelopes:
    """dumps_summary / loads_summary: the filesystem-free envelope twins."""

    def test_bytes_round_trip_is_fingerprint_exact(self):
        stream = build_stream(300, seed=9)
        half = 150
        uninterrupted = build("l0-infinite", alpha=1.0, dim=1, seed=4)
        spilled = build("l0-infinite", alpha=1.0, dim=1, seed=4)
        uninterrupted.process_many(stream)
        spilled.process_many(stream[:half])
        data = dumps_summary(spilled)
        assert isinstance(data, bytes)
        restored = loads_summary(data)
        restored.process_many(stream[half:])
        assert state_fingerprint(restored) == state_fingerprint(
            uninterrupted
        )

    def test_path_functions_are_thin_wrappers(self, tmp_path):
        sampler = build("l0-infinite", alpha=1.0, dim=1, seed=4)
        sampler.process_many(build_stream(60, seed=2))
        path = tmp_path / "ckpt.json"
        dump_summary(sampler, str(path))
        assert path.read_bytes() == dumps_summary(sampler)
        assert state_fingerprint(load_summary(str(path))) == (
            state_fingerprint(loads_summary(dumps_summary(sampler)))
        )

    @pytest.mark.parametrize(
        "data",
        [b"not json", b'"a string"', b"[1, 2]", b"\xff\xfe\x00", b""],
        ids=["text", "non-object", "array", "not-utf8", "empty"],
    )
    def test_loads_rejects_non_envelopes(self, data):
        with pytest.raises(CheckpointError):
            loads_summary(data)

    def test_bytes_envelopes_cover_every_registered_key(self):
        # Same matrix the path-based resume test walks, through bytes.
        stream = build_stream(120, seed=31, groups=9)
        for key, kwargs in sorted(RESUME_SPECS.items()):
            summary = build(key, **kwargs)
            summary.process_many(stream)
            restored = loads_summary(dumps_summary(summary))
            assert type(restored) is entry(key).summary_cls, key


class TestCanonicalEnvelopes:
    """Equal states serialise to equal bytes.

    A restored summary re-serialises to the bytes it was restored from
    and, fed the same points as the original, keeps writing the
    original's bytes.  Envelopes compared byte-wise (content-addressed
    stores, dedup, replication checks) rely on this.
    """

    def test_sliding_heap_entries_of_dropped_records(self):
        # Split/Merge drops records while their heap entries stay behind;
        # those entries must not be flagged current.
        stream = build_stream(768, seed=7, groups=300)
        sampler = build(
            "l0-sliding", alpha=1.0, dim=1, seed=5, window_size=512
        )
        for start in range(0, 640, 128):
            sampler.process_many(stream[start : start + 128])
        data = dumps_summary(sampler)
        restored = loads_summary(data)
        assert dumps_summary(restored) == data
        sampler.process_many(stream[640:])
        restored.process_many(stream[640:])
        assert dumps_summary(restored) == dumps_summary(sampler)

    @pytest.mark.parametrize("drop", [False, True], ids=["live", "dropped"])
    def test_fixed_rate_round_trip_is_byte_exact(self, drop):
        from repro.core.base import SamplerConfig
        from repro.core.fixed_rate import FixedRateSlidingSampler
        from repro.streams.point import StreamPoint
        from repro.streams.windows import SequenceWindow

        config = SamplerConfig.create(1.0, 1, seed=5)
        window = SequenceWindow(512)
        raw = build_stream(768, seed=7, groups=300)
        stream = [
            StreamPoint(tuple(vector), index)
            for index, vector in enumerate(raw)
        ]
        sampler = FixedRateSlidingSampler(config, 4, window)
        for start in range(0, 640, 128):
            sampler.process_many(stream[start : start + 128])
        if drop:
            # An owner dropping a record leaves its heap entry behind.
            sampler._store.remove(next(sampler.records()))

        def dumps(level):
            return json.dumps(level.to_state()).encode("utf-8")

        data = dumps(sampler)
        restored = FixedRateSlidingSampler.from_state(
            json.loads(data), config=config, window=window
        )
        assert dumps(restored) == data
        sampler.process_many(stream[640:])
        restored.process_many(stream[640:])
        assert dumps(restored) == dumps(sampler)

    def test_identical_pipelines_write_identical_bytes(self):
        # Pipeline shards are built from a shared config with no member
        # seed; an untracked member RNG must not leak OS entropy.
        stream = build_stream(300, seed=3, groups=40)
        envelopes = []
        for _ in range(2):
            spec = RESUME_SPECS["batch-pipeline"]
            with build("batch-pipeline", **spec) as pipe:
                pipe.process_many(stream)
                envelopes.append(dumps_summary(pipe))
        assert envelopes[0] == envelopes[1]

    def test_untracked_member_rng_is_omitted_but_still_read(self):
        sampler = build("l0-infinite", alpha=1.0, dim=1, seed=5)
        sampler.process_many(build_stream(120, seed=2))
        envelope = summary_to_state(sampler)
        assert "member_rng" not in envelope["state"]
        # Envelopes written before the omission carry the RNG state.
        older = json.loads(json.dumps(envelope))
        older["state"]["member_rng"] = summary_to_state(
            build("l0-infinite", alpha=1.0, dim=1, seed=5, track_members=True)
        )["state"]["member_rng"]
        restored = summary_from_state(older)
        assert state_fingerprint(restored) == state_fingerprint(sampler)
        assert summary_to_state(restored) == envelope
