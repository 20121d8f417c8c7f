"""Tests for the universal checkpoint protocol (envelope + per-summary)."""

from __future__ import annotations

import base64
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.api import PipelineSpec, available, build, entry
from repro.core import serialize
from repro.core.base import SamplerConfig
from repro.core.fixed_rate import FixedRateSlidingSampler
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.sliding_window import RobustL0SamplerSW
from repro.engine import BatchPipeline, state_fingerprint
from repro.errors import CheckpointError
from repro.persist import (
    FORMAT_NAME,
    FORMAT_VERSION,
    dump_summary,
    dumps_summary,
    load_summary,
    loads_summary,
    summary_from_state,
    summary_to_state,
    upgrade_envelope,
)
from repro.streams.point import StreamPoint
from repro.streams.windows import SequenceWindow


from stream_generators import line_stream, noisy_grid_stream

#: Committed envelopes written by older writers (see
#: :class:`TestVersion2Fixtures` and :class:`TestVersion3HeapFixtures`).
V2_FIXTURE_DIR = Path(__file__).parent / "data"


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
        # A version-1 checkpoint as the original persist module wrote it:
        # its records use the per-record layout, taken here from the
        # committed version-2 fixture of the same sampler and stream.
        sampler = RobustL0SamplerIW(1.0, 1, seed=11)
        for v in build_stream(200, seed=11):
            sampler.insert(v)
        fixture = V2_FIXTURE_DIR / "v2_l0_infinite_members.json"
        v2 = json.loads(fixture.read_text())["state"]
        version, internal, gauss_next = v2["member_rng"]
        v1 = {
            "version": 1,
            "config": v2["config"],
            "rate_denominator": v2["rate_denominator"],
            "points_seen": v2["points_seen"],
            "peak_space_words": v2["peak_space_words"],
            "track_members": v2["track_members"],
            "member_rng_state": repr((version, tuple(internal), gauss_next)),
            "policy": dict(v2["policy"]),
            "records": v2["records"],
        }
        restored = summary_from_state(json.loads(json.dumps(v1)))
        assert isinstance(restored, RobustL0SamplerIW)
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
        dump_summary(sampler, str(path))
        restored = load_summary(str(path))
        assert snapshot(restored) == snapshot(sampler)

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


def _restored(summary):
    return summary_from_state(json.loads(json.dumps(summary_to_state(summary))))


def _answers(summary, seeds):
    return [summary.query(random.Random(seed)) for seed in seeds]


class TestRestoredQueryIdentity:
    """A restored summary answers ``query(rng)`` exactly as the live one.

    Query answers draw from the rng in an order fixed by the state alone
    (sliding levels are walked in representative-index order), so a
    checkpoint round trip - which rebuilds every structure from scratch -
    cannot change what a fixed rng seed returns, now or after both
    copies ingest the same continuation.
    """

    @pytest.mark.parametrize("key", sorted(RESUME_SPECS))
    def test_every_key_answers_identically(self, key):
        stream = build_stream(500, seed=17, groups=9)
        live = build(key, **RESUME_SPECS[key])
        _ingest(live, key, stream[:250])
        restored = _restored(live)
        seeds = range(10)
        assert _answers(restored, seeds) == _answers(live, seeds)
        _ingest(live, key, stream[250:])
        _ingest(restored, key, stream[250:])
        assert _answers(restored, seeds) == _answers(live, seeds)

    @pytest.mark.parametrize(
        "key, kwargs",
        [
            ("l0-sliding", {}),
            ("ksample", {"k": 3}),
            ("ksample", {"k": 3, "replacement": True}),
        ],
        ids=["l0-sliding", "ksample", "ksample-replacement"],
    )
    def test_cascading_hierarchy_answers_identically(self, key, kwargs):
        # 300 groups revisited at random through a 600-point window:
        # Split/Merge cascades reach level 3 and reactivated groups
        # re-enter level 0 out of index order.
        stream = noisy_grid_stream(3000, 300, seed=1, dim=2)
        live = build(
            key, alpha=1.0, dim=2, seed=5, window_size=600, **kwargs
        )
        live.process_many(stream[:2000])
        restored = _restored(live)
        seeds = range(50)
        assert _answers(restored, seeds) == _answers(live, seeds)
        live.process_many(stream[2000:])
        restored.process_many(stream[2000:])
        assert _answers(restored, seeds) == _answers(live, seeds)


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


class TestLegacyPipelineCheckpoint:
    """Pipeline checkpoints written before the ``thread`` executor and
    the process executor's ``transport``/``work_stealing`` options were
    retired must still restore: the spec loses the two retired fields
    and ``"thread"`` becomes ``"serial"`` (both ingest in-process, and
    executor choice is state-unobservable).

    ``tests/data/legacy_pipeline_checkpoint.json`` was generated by the
    earlier code (run from the repository root)::

        spec = PipelineSpec(alpha=1.0, dim=1, num_shards=3,
                            batch_size=16, seed=20261017,
                            executor="thread", num_workers=2,
                            transport="pickle", work_stealing=False)
        with BatchPipeline(spec=spec) as pipeline:
            pipeline.extend(line_stream(200, seed=171717, groups=12)[:120])
            envelope = summary_to_state(pipeline)
        print(json.dumps(envelope))
    """

    CHECKPOINT = (
        Path(__file__).parent / "data" / "legacy_pipeline_checkpoint.json"
    )
    RETIRED = ("transport", "work_stealing")

    @staticmethod
    def legacy_stream():
        return line_stream(200, seed=171717, groups=12)

    def restored(self):
        envelope = json.loads(self.CHECKPOINT.read_text())
        assert envelope["state"]["spec"]["executor"] == "thread"
        return summary_from_state(envelope)

    def serial_twin(self, points):
        pipeline = build(
            "batch-pipeline", alpha=1.0, dim=1, num_shards=3,
            batch_size=16, seed=20261017, num_workers=2,
        )
        pipeline.extend(points)
        return pipeline

    def test_legacy_spec_maps_to_serial(self):
        pipeline = self.restored()
        assert pipeline.points_seen == 120
        assert pipeline.spec.executor == "serial"
        assert pipeline.spec.num_workers == 2

    def test_legacy_restore_matches_serial_and_continues(self):
        stream = self.legacy_stream()
        pipeline = self.restored()
        twin = self.serial_twin(stream[:120])
        assert state_fingerprint(pipeline) == state_fingerprint(twin)
        pipeline.extend(stream[120:])
        twin.extend(stream[120:])
        assert pipeline.points_seen == 200
        assert state_fingerprint(pipeline) == state_fingerprint(twin)

    def test_reserialising_drops_retired_fields(self):
        reserialized = json.loads(
            json.dumps(summary_to_state(self.restored()))
        )
        spec_state = reserialized["state"]["spec"]
        assert spec_state["executor"] == "serial"
        for retired in self.RETIRED:
            assert retired not in spec_state
        again = summary_from_state(reserialized)
        assert state_fingerprint(again) == state_fingerprint(
            self.restored()
        )


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


# ------------------------------------------------------------------ #
# version-2 envelopes (per-record JSON) stay readable
# ------------------------------------------------------------------ #


def _timed_stream():
    """1-D stream with explicit half-unit timestamps (time windows)."""
    return [
        StreamPoint(vector, index, 0.5 * index)
        for index, vector in enumerate(line_stream(384, 7, 150))
    ]


#: name -> (registry key, build kwargs, stream factory, checkpoint cut).
V2_FIXTURES = {
    "l0_infinite_members": (
        "l0-infinite",
        dict(alpha=1.0, dim=1, seed=11, track_members=True),
        lambda: line_stream(300, 11, 120),
        200,
    ),
    "l0_sliding_sequence": (
        "l0-sliding",
        dict(alpha=1.0, dim=2, seed=5, window_size=128),
        lambda: noisy_grid_stream(600, 100, seed=1, dim=2),
        400,
    ),
    "l0_sliding_time": (
        "l0-sliding",
        dict(
            alpha=1.0, dim=1, seed=5, window_seconds=128.0,
            window_capacity=256,
        ),
        _timed_stream,
        320,
    ),
    "ksample": (
        "ksample",
        dict(alpha=1.0, dim=1, seed=5, k=2, window_size=64),
        lambda: line_stream(500, 17, 9),
        250,
    ),
    "f0_sliding": (
        "f0-sliding",
        dict(alpha=1.0, dim=1, seed=5, window_size=64, copies=2),
        lambda: line_stream(500, 17, 9),
        250,
    ),
    "batch_pipeline": (
        "batch-pipeline",
        dict(alpha=1.0, dim=1, seed=5, num_shards=3, batch_size=25),
        lambda: line_stream(500, 17, 9),
        250,
    ),
}


class TestVersion2Fixtures:
    """Envelopes written before the packed-column layout restore exactly.

    ``tests/data/v2_<name>.json`` holds ``dumps_summary`` of
    ``build(key, **kwargs)`` after ``process_many(stream[:cut])`` (the
    :data:`V2_FIXTURES` entry), as the version-2 writer produced it:
    one JSON object per candidate record and heap entry.
    """

    @staticmethod
    def load(name):
        data = V2_FIXTURE_DIR.joinpath(f"v2_{name}.json").read_bytes()
        assert json.loads(data)["version"] == 2
        return loads_summary(data)

    @pytest.mark.parametrize("name", sorted(V2_FIXTURES))
    def test_fixture_matches_replay_and_continues(self, name):
        key, kwargs, make_stream, cut = V2_FIXTURES[name]
        stream = make_stream()
        restored = self.load(name)
        replay = build(key, **kwargs)
        try:
            replay.process_many(stream[:cut])
            assert type(restored) is type(replay)
            assert state_fingerprint(restored) == state_fingerprint(replay)
            restored.process_many(stream[cut:])
            replay.process_many(stream[cut:])
            assert state_fingerprint(restored) == state_fingerprint(replay)
            # Re-serialised, the fixture is a version-3 envelope of the
            # same state.
            assert dumps_summary(restored) == dumps_summary(replay)
        finally:
            for summary in (restored, replay):
                getattr(summary, "close", lambda: None)()


def _equal_time_stream():
    """1-D stream whose timestamps repeat in fours (time windows)."""
    return [
        StreamPoint(vector, index, float(index // 4))
        for index, vector in enumerate(line_stream(240, 5, 40))
    ]


#: name -> (registry key, build kwargs, stream factory, checkpoint cut).
V3_HEAP_FIXTURES = {
    "l0_sliding_time": (
        "l0-sliding",
        dict(
            alpha=1.0, dim=1, seed=9, window_seconds=16.0,
            window_capacity=64,
        ),
        _equal_time_stream,
        160,
    ),
}


class TestVersion3HeapFixtures:
    """Version-3 envelopes that still carry a saved eviction heap restore
    exactly: the saved heap is ignored and rebuilt from the records.

    ``tests/data/v3_<name>.json`` holds ``dumps_summary`` of
    ``build(key, **kwargs)`` after ``process_many(stream[:cut])`` (the
    :data:`V3_HEAP_FIXTURES` entry), as the version-3 writer produced it
    while it still wrote the heap: stale entries, entries of records a
    Split/Merge cascade removed, and the tiebreak counter.
    """

    @pytest.mark.parametrize("name", sorted(V3_HEAP_FIXTURES))
    def test_fixture_matches_replay_and_continues(self, name):
        key, kwargs, make_stream, cut = V3_HEAP_FIXTURES[name]
        data = V2_FIXTURE_DIR.joinpath(f"v3_{name}.json").read_bytes()
        saved = json.loads(data)
        assert saved["version"] == 3
        heap = saved["state"]["heap"]
        assert heap["n"] > saved["state"]["records"]["n"]
        assert 0 in _unpack(heap["linked"], "u1")
        stream = make_stream()
        restored = loads_summary(data)
        assert any(r.level for r in restored._store.records())
        replay = build(key, **kwargs)
        replay.process_many(stream[:cut])
        assert state_fingerprint(restored) == state_fingerprint(replay)
        # Re-serialised, the fixture is the replay's heap-free envelope.
        assert dumps_summary(restored) == dumps_summary(replay)
        assert "heap" not in summary_to_state(restored)["state"]
        restored.process_many(stream[cut:])
        replay.process_many(stream[cut:])
        assert state_fingerprint(restored) == state_fingerprint(replay)
        assert dumps_summary(restored) == dumps_summary(replay)


class TestVersion3PipelineFixture:
    """A version-3 pipeline envelope whose shard states still carry the
    ``"shard_id"`` key restores exactly: the reader ignores the key.

    ``tests/data/v3_batch_pipeline.json`` holds ``dumps_summary`` of
    ``BatchPipeline(SPEC)`` after ``process_many(stream()[:CUT])``, as
    the version-3 writer produced it while shard states still wrote
    their list index as ``"shard_id"``.
    """

    SPEC = dict(alpha=1.0, dim=2, seed=7, num_shards=3, batch_size=32)
    CUT = 200

    @staticmethod
    def stream():
        return noisy_grid_stream(300, 30, seed=1, dim=2)

    def test_fixture_matches_replay_and_continues(self):
        data = V2_FIXTURE_DIR.joinpath("v3_batch_pipeline.json").read_bytes()
        saved = json.loads(data)
        assert saved["version"] == 3
        shards = saved["state"]["coordinator"]["shards"]
        assert [shard["shard_id"] for shard in shards] == [0, 1, 2]
        stream = self.stream()
        restored = loads_summary(data)
        replay = BatchPipeline(PipelineSpec(**self.SPEC))
        replay.process_many(stream[: self.CUT])
        assert state_fingerprint(restored) == state_fingerprint(replay)
        restored.process_many(stream[self.CUT:])
        replay.process_many(stream[self.CUT:])
        assert restored.points_seen == len(stream)
        assert state_fingerprint(restored) == state_fingerprint(replay)
        # Re-serialised, the fixture is the replay's envelope, which no
        # longer names the shards.
        assert dumps_summary(restored) == dumps_summary(replay)
        for shard in summary_to_state(restored)["state"]["coordinator"][
            "shards"
        ]:
            assert "shard_id" not in shard


def _v1_envelope():
    """The version-2 infinite-window fixture in the flat version-1
    layout (its records already use the per-record layout)."""
    fixture = V2_FIXTURE_DIR / "v2_l0_infinite_members.json"
    state = json.loads(fixture.read_text())["state"]
    version, internal, gauss_next = state.pop("member_rng")
    return {
        "version": 1,
        **state,
        "member_rng_state": repr((version, tuple(internal), gauss_next)),
    }


def _as_version_2(value):
    """``value`` with every sampler state's records column, at any
    depth, written back as the version-2 per-record list."""
    if isinstance(value, list):
        return [_as_version_2(item) for item in value]
    if not isinstance(value, dict):
        return value
    upgraded = {field: _as_version_2(item) for field, item in value.items()}
    if isinstance(value.get("records"), dict) and "config" in value:
        point = serialize.point_to_state
        rows = []
        for record in serialize.records_from_columns(
            value["records"], value["config"]["dim"]
        ):
            row = {
                "rep": point(record.representative),
                "cell": list(record.cell),
                "cell_hash": record.cell_hash,
                "adj_hashes": list(record.adj_hashes),
                "accepted": record.accepted,
                "count": record.count,
                "level": record.level,
            }
            if record.last is not record.representative:
                row["last"] = point(record.last)
            if record.member is not None:
                row["member"] = point(record.member)
            rows.append(row)
        upgraded["records"] = rows
    return upgraded


class TestUpgradeBoundary:
    """Older envelopes are upgraded once, by :func:`upgrade_envelope`;
    every ``from_state`` reads the current layout only."""

    LEGACY = sorted(
        path.name
        for pattern in ("v2_*.json", "legacy_*.json")
        for path in V2_FIXTURE_DIR.glob(pattern)
    )

    @pytest.mark.parametrize(
        "cls, name",
        [
            (RobustL0SamplerIW, "l0_infinite_members"),
            (RobustL0SamplerSW, "l0_sliding_sequence"),
        ],
    )
    def test_readers_reject_a_version_2_state(self, cls, name):
        envelope = json.loads(
            V2_FIXTURE_DIR.joinpath(f"v2_{name}.json").read_text()
        )
        assert isinstance(envelope["state"]["records"], list)
        with pytest.raises(CheckpointError):
            cls.from_state(envelope["state"])
        upgraded = upgrade_envelope(envelope)["state"]
        assert state_fingerprint(cls.from_state(upgraded)) == (
            state_fingerprint(summary_from_state(envelope))
        )

    @pytest.mark.parametrize("name", LEGACY)
    def test_restore_leaves_a_legacy_envelope_unchanged(self, name):
        envelope = json.loads(V2_FIXTURE_DIR.joinpath(name).read_text())
        before = json.loads(json.dumps(envelope))
        summary = summary_from_state(envelope)
        getattr(summary, "close", lambda: None)()
        assert envelope == before

    def test_restore_leaves_a_version_1_envelope_unchanged(self):
        envelope = _v1_envelope()
        before = json.loads(json.dumps(envelope))
        upgraded = upgrade_envelope(envelope)
        assert upgraded["version"] == FORMAT_VERSION
        assert upgraded["summary"] == "l0-infinite"
        restored = summary_from_state(envelope)
        assert envelope == before
        fixture = V2_FIXTURE_DIR / "v2_l0_infinite_members.json"
        assert state_fingerprint(restored) == state_fingerprint(
            loads_summary(fixture.read_bytes())
        )

    @pytest.mark.parametrize(
        "key",
        [
            "l0-infinite", "l0-sliding", "ksample", "f0-infinite",
            "f0-sliding", "batch-pipeline", "heavy-hitters", "exact",
        ],
    )
    def test_every_key_upgrades_to_its_own_envelope(self, key):
        # A current state written back in the version-2 layout upgrades
        # to the same summary and re-serialises to the same bytes.
        kwargs = dict(RESUME_SPECS[key])
        if key == "l0-infinite":
            kwargs["track_members"] = True
        summary = build(key, **kwargs)
        summary.process_many(build_stream(300, seed=23, groups=40))
        envelope = summary_to_state(summary)
        older = {**envelope, "version": 2}
        older["state"] = _as_version_2(envelope["state"])
        restored = summary_from_state(json.loads(json.dumps(older)))
        try:
            assert state_fingerprint(restored) == state_fingerprint(summary)
            assert dumps_summary(restored) == dumps_summary(summary)
        finally:
            for item in (summary, restored):
                getattr(item, "close", lambda: None)()

    #: case -> (fixture, corruption of its state, original error).
    NESTED_CORRUPTIONS = {
        "level-without-records": (
            "legacy_sliding_checkpoint.json",
            lambda state: state["levels"][1].pop("records"),
            KeyError,
        ),
        "shard-record-without-fields": (
            "v2_batch_pipeline.json",
            lambda state: state["coordinator"]["shards"][2].update(
                records=[{"rep": 1}]
            ),
            TypeError,
        ),
        "copy-without-config": (
            "v2_f0_sliding.json",
            lambda state: state["copies"][1].pop("config"),
            KeyError,
        ),
    }

    @pytest.mark.parametrize("case", sorted(NESTED_CORRUPTIONS))
    def test_malformed_nested_state_fails_typed(self, case):
        name, corrupt, original = self.NESTED_CORRUPTIONS[case]
        envelope = json.loads(V2_FIXTURE_DIR.joinpath(name).read_text())
        corrupt(envelope["state"])
        TestMalformedStates.assert_typed(
            envelope, envelope["summary"], original
        )

    def test_current_envelope_is_returned_as_is(self):
        summary = build("l0-sliding", **RESUME_SPECS["l0-sliding"])
        summary.process_many(build_stream(120, seed=2, groups=30))
        envelope = summary_to_state(summary)
        assert upgrade_envelope(envelope) is envelope


# ------------------------------------------------------------------ #
# version-3 packed columns
# ------------------------------------------------------------------ #


class TestPackedColumns:
    @pytest.mark.parametrize("key", sorted(RESUME_SPECS))
    def test_reserialisation_is_byte_identical(self, key):
        summary = build(key, **RESUME_SPECS[key])
        summary.process_many(build_stream(300, seed=41, groups=40))
        data = dumps_summary(summary)
        restored = loads_summary(data)
        assert state_fingerprint(restored) == state_fingerprint(summary)
        assert dumps_summary(restored) == data
        for item in (summary, restored):
            getattr(item, "close", lambda: None)()

    def test_records_are_column_objects(self):
        summary = build("l0-sliding", **RESUME_SPECS["l0-sliding"])
        summary.process_many(build_stream(200, seed=3, groups=40))
        columns = summary_to_state(summary)["state"]["records"]
        assert columns["n"] > 0
        assert all(
            isinstance(value, str)
            for field, value in columns.items()
            if field != "n"
        )


def _derived_keys(state):
    """The eviction-heap keys anywhere in a state tree."""
    if isinstance(state, dict):
        found = {"heap", "next_tiebreak"} & state.keys()
        for value in state.values():
            found |= _derived_keys(value)
        return found
    if isinstance(state, list):
        return set().union(*map(_derived_keys, state))
    return set()


class TestDerivedHeap:
    """The sliding samplers' eviction heap is derived state: one entry
    per live record, rebuilt on restore, never written."""

    @pytest.mark.parametrize("key", ["l0-sliding", "f0-sliding", "ksample"])
    def test_envelope_holds_no_heap(self, key):
        summary = build(key, **{"window_size": 64, **RESUME_SPECS[key]})
        summary.process_many(build_stream(300, seed=8, groups=40))
        assert _derived_keys(summary_to_state(summary)) == set()

    def test_fixed_rate_state_holds_no_heap(self):
        config = SamplerConfig.create(1.0, 1, seed=4)
        sampler = FixedRateSlidingSampler(config, 2, SequenceWindow(32))
        for index, vector in enumerate(build_stream(200, seed=8, groups=40)):
            sampler.insert(StreamPoint(vector, index))
        state = sampler.to_state()
        assert _derived_keys(state) == set()
        restored = FixedRateSlidingSampler.from_state(
            json.loads(json.dumps(state)),
            config=config,
            window=SequenceWindow(32),
        )
        assert state_fingerprint(restored) == state_fingerprint(sampler)
        assert len(restored._heap) == restored.candidate_count

    def test_envelope_grows_with_records_not_window(self):
        # 100 groups: once the early cascades' leftover entries age out
        # of the window, the heap holds one entry per record at either
        # window size, and the envelope stays the records' size.
        stream = build_stream(32_000, seed=3, groups=100)
        sizes = {}
        for window in (2_000, 20_000):
            sampler = build(
                "l0-sliding", alpha=1.0, dim=1, seed=5, window_size=window
            )
            sampler.process_many(stream)
            assert len(sampler._heap) == len(sampler._store) == 100
            sizes[window] = len(dumps_summary(sampler))
        assert sizes[20_000] < 1.1 * sizes[2_000]


def _pack(values, dtype):
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode()


def _unpack(text, dtype):
    return np.frombuffer(base64.b64decode(text), dtype).tolist()


def _truncate(columns, field):
    columns[field] = _pack(_unpack(columns[field], "<u8")[:-1], "<u8")


def _grow_n(columns, field):
    columns["n"] += 1


def _not_base64(columns, field):
    columns[field] = "not base64 at all!"


def _negative_adjacency(columns, field):
    lengths = _unpack(columns["adj_len"], "<i8")
    lengths[0] = -1
    columns["adj_len"] = _pack(lengths, "<i8")


def _overrun_adjacency(columns, field):
    lengths = _unpack(columns["adj_len"], "<i8")
    lengths[-1] += 1
    columns["adj_len"] = _pack(lengths, "<i8")


def _level_beyond_hierarchy(columns, field):
    columns["level"] = _pack([255] * columns["n"], "u1")


def _negative_n(columns, field):
    columns["n"] = -1


class TestHostileColumns:
    """A corrupt version-3 envelope raises :class:`CheckpointError` (never
    a bare numpy/base64 ``ValueError``, ``KeyError`` or ``IndexError``),
    through :func:`summary_from_state` and :func:`loads_summary` alike."""

    CORRUPTIONS = {
        "truncated-column": (_truncate, "records", "cell_hash"),
        "n-disagrees": (_grow_n, "records", None),
        "not-base64": (_not_base64, "records", "adj"),
        "negative-adjacency-length": (_negative_adjacency, "records", None),
        "adjacency-overrun": (_overrun_adjacency, "records", None),
        "negative-n": (_negative_n, "records", None),
        "level-beyond-hierarchy": (_level_beyond_hierarchy, "records", None),
        "missing-column": (
            lambda columns, field: columns.pop(field), "records", "accepted"
        ),
    }

    @staticmethod
    def envelope():
        summary = build("l0-sliding", **RESUME_SPECS["l0-sliding"])
        summary.process_many(build_stream(200, seed=13, groups=40))
        return json.loads(dumps_summary(summary))

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_raises_checkpoint_error(self, case):
        corrupt, part, field = self.CORRUPTIONS[case]
        envelope = self.envelope()
        corrupt(envelope["state"][part], field)
        with pytest.raises(CheckpointError) as raised:
            summary_from_state(envelope)
        assert type(raised.value) is CheckpointError
        with pytest.raises(CheckpointError):
            loads_summary(json.dumps(envelope).encode("utf-8"))

    def test_columns_that_are_not_an_object(self):
        envelope = self.envelope()
        envelope["state"]["records"] = "columns"
        with pytest.raises(CheckpointError):
            summary_from_state(envelope)

    SHIPPED = {
        "not-base64": (_not_base64, "adj"),
        "truncated-adjacency": (_truncate, "adj"),
        "negative-adjacency-length": (_negative_adjacency, None),
        "adjacency-overrun": (_overrun_adjacency, None),
    }

    @pytest.mark.parametrize("case", sorted(SHIPPED))
    def test_corrupt_shipped_shard_state_fails_merge(self, case, monkeypatch):
        """A remote pipeline's shard states come from the backend, and a
        query merges their columns without rebuilding the shard: a
        corrupt committed state must still fail typed, from merge()."""
        import copy
        import threading

        from repro.api import PipelineSpec
        from repro.engine.queue import RemoteQueue

        corrupt, field = self.SHIPPED[case]
        read_state = RemoteQueue.read_state

        def hostile_read(queue, shard):
            found = read_state(queue, shard)
            # The remote workers are threads that adopt from the same
            # key; only the drain's read (the calling thread) is hostile.
            main = threading.current_thread() is threading.main_thread()
            if shard == 1 and main and state_has_records(found):
                seq, state, version = found
                state = copy.deepcopy(state)
                corrupt(state["records"], field)
                found = (seq, state, version)
            return found

        def state_has_records(found):
            return found is not None and found[1]["records"]["n"] > 0

        monkeypatch.setattr(RemoteQueue, "read_state", hostile_read)
        spec = PipelineSpec(
            alpha=1.0, dim=2, seed=5, num_shards=2, batch_size=25,
            executor="remote", num_workers=1,
        )
        with build("batch-pipeline", spec) as pipeline:
            pipeline.extend(noisy_grid_stream(200, groups=30, seed=9))
            for _ in range(2):
                with pytest.raises(CheckpointError) as raised:
                    pipeline.merge()
                assert type(raised.value) is CheckpointError
            with pytest.raises(CheckpointError):
                pipeline.shard(1)


class TestMalformedStates:
    """A state that breaks a registry ``from_state`` with a bare
    ``KeyError``, ``TypeError``, ``IndexError`` or ``ValueError`` fails
    as :class:`CheckpointError` naming the summary key, with the
    original error chained; a ``CheckpointError`` passes unchanged."""

    @staticmethod
    def assert_typed(envelope, key, original):
        with pytest.raises(CheckpointError) as raised:
            summary_from_state(envelope)
        assert repr(key) in str(raised.value)
        assert isinstance(raised.value.__cause__, original)
        with pytest.raises(CheckpointError) as raised:
            loads_summary(json.dumps(envelope).encode("utf-8"))
        assert isinstance(raised.value.__cause__, original)

    def test_sliding_state_without_max_level(self):
        envelope = TestHostileColumns.envelope()
        del envelope["state"]["max_level"]
        self.assert_typed(envelope, "l0-sliding", KeyError)

    @pytest.mark.parametrize(
        "name", ["l0_infinite_members", "l0_sliding_sequence"]
    )
    def test_v2_record_without_fields(self, name):
        envelope = json.loads(
            V2_FIXTURE_DIR.joinpath(f"v2_{name}.json").read_text()
        )
        envelope["state"]["records"] = [{"rep": 1}]
        self.assert_typed(envelope, envelope["summary"], TypeError)

    def test_v1_envelope_without_fields(self):
        # Version 1 is the flat infinite-window layout: its restore goes
        # through the same typed wrapper as the registry's.
        envelope = {"version": 1, "format": "repro/summary"}
        self.assert_typed(envelope, "l0-infinite", KeyError)

    def test_v1_envelope_with_a_bad_rng_literal(self):
        sampler = RobustL0SamplerIW(1.0, 1, seed=3)
        sampler.insert((0.0,))
        state = sampler.to_state()
        envelope = {
            "version": 1,
            "format": "repro/summary",
            **state,
            "records": [],
            "member_rng_state": "(1, 2",
        }
        with pytest.raises(CheckpointError):
            summary_from_state(envelope)
        envelope["member_rng_state"] = "[1, 2]"
        self.assert_typed(envelope, "l0-infinite", ValueError)

    #: case -> (registry key, state field, hostile value); a dotted
    #: field names a nested state.
    BAD_COUNTERS = {
        "sliding-peak-null": ("l0-sliding", "peak_space_words", None),
        "sliding-points-seen-string": ("l0-sliding", "points_seen", "8"),
        "sliding-points-seen-negative": ("l0-sliding", "points_seen", -5),
        "sliding-max-level-zero": ("l0-sliding", "max_level", 0),
        # 255 is the largest level a u1 level column holds; the per-level
        # tables must not be allocated for more.
        "sliding-max-level-beyond-u1": ("l0-sliding", "max_level", 256),
        "heavy-hitters-points-seen-negative": (
            "heavy-hitters", "points_seen", -5
        ),
        "heavy-hitters-capacity-zero": ("heavy-hitters", "capacity", 0),
        "pipeline-next-shard-beyond": ("batch-pipeline", "next_shard", 99),
        "pipeline-next-shard-negative": ("batch-pipeline", "next_shard", -1),
        "pipeline-batch-size-zero": ("batch-pipeline", "batch_size", 0),
        "pipeline-points-seen-string": ("batch-pipeline", "points_seen", "x"),
        "infinite-policy-seen-string": ("l0-infinite", "policy.seen", "x"),
        "sliding-policy-seen-null": ("l0-sliding", "policy.seen", None),
        "sliding-policy-seen-negative": ("l0-sliding", "policy.seen", -5),
    }

    @pytest.mark.parametrize("case", sorted(BAD_COUNTERS))
    def test_bad_counter_fails_typed(self, case):
        key, path, value = self.BAD_COUNTERS[case]
        summary = build(key, **RESUME_SPECS[key])
        summary.process_many(build_stream(200, seed=13, groups=40))
        envelope = json.loads(dumps_summary(summary))
        getattr(summary, "close", lambda: None)()
        *parents, field = path.split(".")
        state = envelope["state"]
        for parent in parents:
            state = state[parent]
        state[field] = value
        with pytest.raises(CheckpointError) as raised:
            loads_summary(json.dumps(envelope).encode("utf-8"))
        assert type(raised.value) is CheckpointError
        assert repr(field) in str(raised.value)

    def test_checkpoint_errors_pass_through(self):
        envelope = TestHostileColumns.envelope()
        _level_beyond_hierarchy(envelope["state"]["records"], None)
        with pytest.raises(CheckpointError) as direct:
            entry("l0-sliding").summary_cls.from_state(envelope["state"])
        with pytest.raises(CheckpointError) as wrapped:
            summary_from_state(envelope)
        assert str(wrapped.value) == str(direct.value)
        assert wrapped.value.__cause__ is None
