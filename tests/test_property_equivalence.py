"""Property-based differential harness for the batch-ingestion contract.

Hypothesis drives adversarial streams - duplicate bursts, equal
timestamps, hostile batch layouts with interleaved empty and singleton
batches - against **every** registry key, and checks the two promises
the engine makes (see :mod:`repro.engine`):

* *batch layout invariance*: ``process_many`` over any chunking leaves a
  summary ``state_fingerprint``-identical to per-point ingestion;
* *checkpoint transparency*: a mid-stream ``to_state`` -> ``from_state``
  round-trip through JSON, followed by the rest of the stream, is
  fingerprint-identical to the uninterrupted run.

Failures shrink to a minimal stream/layout automatically (Hypothesis),
which is the fastest way to localise a hot-path divergence.

The module also hosts the *incremental space-accounting oracle*: the
O(1)/O(levels) ``space_words`` counters maintained by the hot paths must
equal a from-scratch ``recount_space_words`` recomputation after every
single operation, and the sliding hierarchy's cached per-level word
counters must match their levels' records exactly.

``batch-pipeline`` is exempt from layout invariance *by design*: it
deals chunks round-robin to shards, so the batch size determines which
shard sees which point (its differential oracle lives in
``tests/test_distributed.py``).  It still participates in the
checkpoint-transparency property (chunk-aligned, as documented).
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import available, build, entry
from repro.core.base import CandidateRecord, CandidateStore, SamplerConfig
from repro.core.fixed_rate import FixedRateSlidingSampler
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.sliding_window import RobustL0SamplerSW
from repro.engine.batching import chunked
from repro.engine.equivalence import state_fingerprint
from repro.geometry.distance import within_distance
from repro.persist import summary_from_state, summary_to_state
from repro.streams.point import StreamPoint
from repro.streams.windows import SequenceWindow, TimeWindow

from stream_generators import noisy_grid_stream

#: Spec kwargs per registry key.  Windows and copy counts are kept small
#: so a hypothesis example stays cheap; every key of the registry must
#: appear here (enforced by test_property_matrix_covers_registry).
PROPERTY_SPECS = {
    "l0-infinite": dict(alpha=1.0, dim=1, seed=5),
    "l0-sliding": dict(alpha=1.0, dim=1, seed=5, window_size=64),
    "ksample": dict(alpha=1.0, dim=1, seed=5, k=2),
    "f0-infinite": dict(alpha=1.0, dim=1, seed=5, copies=2, epsilon=0.5),
    "f0-sliding": dict(alpha=1.0, dim=1, seed=5, window_size=64, copies=2),
    "heavy-hitters": dict(alpha=1.0, dim=1, seed=5, epsilon=0.2),
    "batch-pipeline": dict(alpha=1.0, dim=1, seed=5, num_shards=2, batch_size=8),
    "exact": dict(alpha=1.0, dim=1, seed=5),
    "naive-reservoir": dict(seed=5),
    "minrank": dict(seed=5),
    "fm": dict(seed=5),
    "loglog": dict(seed=5),
    "hyperloglog": dict(seed=5),
    "bjkst": dict(seed=5),
}

#: Keys whose fingerprint is chunking-dependent by design (see module
#: docstring); they skip the layout-invariance property only.
LAYOUT_EXEMPT = {"batch-pipeline"}

#: Adversarial stream shape: bursts of near-duplicates.  Each element is
#: (group id, burst length); group g lives at coordinate 25*g + jitter.
#: 41 groups against the 64-point windows above gives enough distinct
#: in-window groups for level-0 overflows on long draws.
BURSTS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 3)),
    min_size=1,
    max_size=40,
)
#: Hostile chunkings: singletons, tiny primes, a power of two, and one
#: chunk bigger than any generated stream.
BATCH_SIZES = st.sampled_from([1, 2, 3, 7, 16, 64, 10_000])
#: How often to interleave an empty batch between chunks.
EMPTY_EVERY = st.integers(1, 3)
SEEDS = st.integers(0, 10_000)


def burst_points(bursts, jitter_seed):
    """Expand (group, length) bursts into raw 1-D near-duplicate tuples."""
    rng = random.Random(jitter_seed)
    points = []
    for group, length in bursts:
        points.extend(
            (25.0 * group + rng.uniform(0.0, 0.4),) for _ in range(length)
        )
    return points


def feed_per_point(summary, points):
    """Per-point reference ingestion (singleton batches when there is no
    ``insert``, which is itself the smallest hostile layout)."""
    insert = getattr(summary, "insert", None)
    if insert is not None:
        for point in points:
            insert(point)
    else:
        for point in points:
            summary.process_many([point])


def feed_hostile(summary, points, batch_size, empty_every):
    """Batched ingestion with empty batches interleaved between chunks."""
    for i, chunk in enumerate(chunked(points, batch_size)):
        if i % empty_every == 0:
            summary.process_many([])
        summary.process_many(chunk)
    summary.process_many([])


def build_twin(key):
    info = entry(key)
    return build(key, info.spec_cls(**PROPERTY_SPECS[key]))


class TestRegistryWideProperties:
    def test_property_matrix_covers_registry(self):
        assert sorted(PROPERTY_SPECS) == available()

    @pytest.mark.parametrize(
        "key", sorted(set(PROPERTY_SPECS) - LAYOUT_EXEMPT)
    )
    @given(bursts=BURSTS, seed=SEEDS, batch_size=BATCH_SIZES, empty_every=EMPTY_EVERY)
    @settings(max_examples=12, deadline=None)
    def test_batch_layout_invariance(
        self, key, bursts, seed, batch_size, empty_every
    ):
        points = burst_points(bursts, seed)
        per = build_twin(key)
        feed_per_point(per, points)
        bat = build_twin(key)
        feed_hostile(bat, points, batch_size, empty_every)
        assert state_fingerprint(per) == state_fingerprint(bat)

    @pytest.mark.parametrize("key", sorted(PROPERTY_SPECS))
    @given(
        bursts=BURSTS,
        seed=SEEDS,
        split_num=st.integers(0, 100),
        batch_size=BATCH_SIZES,
    )
    @settings(max_examples=10, deadline=None)
    def test_checkpoint_resume_transparency(
        self, key, bursts, seed, split_num, batch_size
    ):
        points = burst_points(bursts, seed)
        split = split_num * len(points) // 101
        prefix, suffix = points[:split], points[split:]

        full = build_twin(key)
        interrupted = build_twin(key)
        for summary in (full, interrupted):
            # Same call boundaries on both sides: the pipeline's round-
            # robin chunk dealing must line up for the comparison to be
            # meaningful (checkpoints are chunk-aligned by contract).
            for chunk in chunked(prefix, batch_size):
                summary.process_many(chunk)
        envelope = json.loads(json.dumps(summary_to_state(interrupted)))
        resumed = summary_from_state(envelope)
        assert state_fingerprint(resumed) == state_fingerprint(interrupted)
        for summary in (full, resumed):
            for chunk in chunked(suffix, batch_size):
                summary.process_many(chunk)
        assert state_fingerprint(full) == state_fingerprint(resumed)


class TestExecutorEquivalenceProperties:
    """Tentpole property: *where* shard work runs (serial / thread /
    process / remote executors) is never observable in pipeline state,
    for any stream, chunk layout, or chunk-aligned checkpoint position.
    The remote flavour runs its zero-configuration mode here (private
    memory backend, one in-process worker thread) so the property stays
    fast; the cross-process story is ``tests/test_remote_executor.py``."""

    @staticmethod
    def _pipeline(executor):
        from repro.api import PipelineSpec

        return build(
            "batch-pipeline",
            PipelineSpec(
                alpha=1.0,
                dim=1,
                seed=5,
                num_shards=2,
                batch_size=8,
                executor=executor,
                num_workers=2,
            ),
        )

    @pytest.mark.parametrize("executor", ["thread", "process", "remote"])
    @given(
        bursts=BURSTS,
        seed=SEEDS,
        batch_size=BATCH_SIZES,
        split_num=st.integers(0, 100),
    )
    @settings(max_examples=5, deadline=None)
    def test_executor_fingerprint_matches_serial(
        self, executor, bursts, seed, batch_size, split_num
    ):
        points = burst_points(bursts, seed)
        split = split_num * len(points) // 101

        # Same call boundaries on both sides: the round-robin dealing is
        # a function of the chunk sequence, so the serial twin must see
        # the prefix/suffix cut exactly like the parallel one.
        serial = self._pipeline("serial")
        for part in (points[:split], points[split:]):
            for chunk in chunked(part, batch_size):
                serial.process_many(chunk)

        parallel = self._pipeline(executor)
        resumed = None
        try:
            for chunk in chunked(points[:split], batch_size):
                parallel.process_many(chunk)
            # Mid-stream, chunk-aligned checkpoint under the parallel
            # executor; the resume restarts workers lazily.
            envelope = json.loads(json.dumps(summary_to_state(parallel)))
            resumed = summary_from_state(envelope)
            for chunk in chunked(points[split:], batch_size):
                resumed.process_many(chunk)
            assert state_fingerprint(resumed) == state_fingerprint(serial)
        finally:
            parallel.close()
            if resumed is not None:
                resumed.close()


class TestCascadeProperties:
    """Split/Merge coverage: ``kappa0 = 1`` drops the accept threshold so
    nearly every drawn stream forces level-0 overflows and promotion
    cascades across batch boundaries."""

    @given(
        bursts=BURSTS,
        seed=SEEDS,
        batch_size=BATCH_SIZES,
        empty_every=EMPTY_EVERY,
    )
    @settings(max_examples=40, deadline=None)
    def test_cascades_are_layout_and_checkpoint_invariant(
        self, bursts, seed, batch_size, empty_every
    ):
        points = burst_points(bursts, seed)

        def make():
            return RobustL0SamplerSW(
                1.0, 1, SequenceWindow(32), seed=seed, kappa0=1.0
            )

        per = make()
        for point in points:
            per.insert(point)
        bat = make()
        feed_hostile(bat, points, batch_size, empty_every)
        assert state_fingerprint(per) == state_fingerprint(bat)
        assert per.space_words() == per.recount_space_words()

        envelope = json.loads(json.dumps(summary_to_state(per)))
        resumed = summary_from_state(envelope)
        assert state_fingerprint(resumed) == state_fingerprint(per)

    def test_cascade_strategy_actually_cascades(self):
        # Meta-test: the strategy bounds above must keep exercising
        # promotions, or the property silently loses its teeth.
        rng = random.Random(0)
        deepest = 0
        for trial in range(20):
            bursts = [
                (rng.randint(0, 40), rng.randint(1, 3))
                for _ in range(rng.randint(5, 40))
            ]
            sampler = RobustL0SamplerSW(
                1.0, 1, SequenceWindow(32), seed=trial, kappa0=1.0
            )
            for point in burst_points(bursts, trial):
                sampler.insert(point)
            deepest = max(deepest, sampler.deepest_active_level() or 0)
        assert deepest > 0


class TestSlidingTimeWindowProperties:
    """Time-window adversaries: equal timestamps and irregular gaps."""

    @given(
        bursts=BURSTS,
        seed=SEEDS,
        duration=st.integers(1, 20),
        batch_size=BATCH_SIZES,
        empty_every=EMPTY_EVERY,
    )
    @settings(max_examples=25, deadline=None)
    def test_time_window_layout_invariance(
        self, bursts, seed, duration, batch_size, empty_every
    ):
        rng = random.Random(seed ^ 0x7777)
        vectors = burst_points(bursts, seed)
        now = 0.0
        points = []
        for i, vector in enumerate(vectors):
            # Zero gaps (simultaneous arrivals) are the adversarial case
            # for expiry tie-breaking.
            now += rng.choice([0.0, 0.0, 0.5, 3.0])
            points.append(StreamPoint(vector, i, now))

        def make():
            return RobustL0SamplerSW(
                1.0,
                1,
                TimeWindow(float(duration)),
                window_capacity=max(len(points), 2),
                seed=seed,
            )

        per = make()
        for p in points:
            per.insert(p)
        bat = make()
        feed_hostile(bat, points, batch_size, empty_every)
        assert state_fingerprint(per) == state_fingerprint(bat)

        envelope = json.loads(json.dumps(summary_to_state(per)))
        resumed = summary_from_state(envelope)
        assert state_fingerprint(resumed) == state_fingerprint(per)


class TestVectorisedGeometryProperties:
    """The vectorised chunk-geometry path (numpy kernels) must be
    bit-equivalent to the scalar geometry for any stream and chunking -
    including cell-boundary adversaries, where a 1-ulp divergence in a
    floor division or an adjacency cost would flip a record's state."""

    @given(
        bursts=BURSTS,
        seed=SEEDS,
        batch_size=BATCH_SIZES,
        scale=st.sampled_from([1.0, 0.25, 7.0]),
    )
    @settings(max_examples=15, deadline=None)
    def test_vectorised_matches_scalar_batch_path(
        self, bursts, seed, batch_size, scale
    ):
        from repro.engine.batching import (
            set_vectorized_geometry,
            vectorized_geometry_enabled,
        )

        points = [(x * scale,) for (x,) in burst_points(bursts, seed)]

        def make():
            return RobustL0SamplerIW(1.0, 1, seed=seed)

        if not vectorized_geometry_enabled():  # pragma: no cover
            pytest.skip("numpy unavailable")
        vector = make()
        feed_hostile(vector, points, batch_size, 2)
        previous = set_vectorized_geometry(False)
        try:
            scalar = make()
            feed_hostile(scalar, points, batch_size, 2)
        finally:
            set_vectorized_geometry(previous)
        per = make()
        feed_per_point(per, points)
        assert state_fingerprint(vector) == state_fingerprint(scalar)
        assert state_fingerprint(vector) == state_fingerprint(per)

    @given(
        bursts=BURSTS,
        seed=SEEDS,
        batch_size=BATCH_SIZES,
        dim=st.sampled_from([3, 5]),
    )
    @settings(max_examples=10, deadline=None)
    def test_high_dim_probe_layout_invariance(
        self, bursts, seed, batch_size, dim
    ):
        # The dim > 2 ignore filter (sampled-cell probe) under hostile
        # layouts: group coordinates replicated across axes keeps points
        # near shared cell faces.
        rng = random.Random(seed ^ 0x9999)
        points = [
            tuple(x + rng.uniform(0.0, 0.4) for _ in range(dim))
            for (x,) in burst_points(bursts, seed)
        ]
        per = RobustL0SamplerIW(1.0, dim, seed=seed)
        feed_per_point(per, points)
        bat = RobustL0SamplerIW(1.0, dim, seed=seed)
        feed_hostile(bat, points, batch_size, 2)
        assert state_fingerprint(per) == state_fingerprint(bat)


class TestSpaceAccountingOracle:
    """The incremental counters must equal a from-scratch recount after
    every single operation (satellite: ``recount_space_words`` oracle)."""

    @staticmethod
    def _assert_sliding_space(sampler: RobustL0SamplerSW) -> None:
        assert sampler.space_words() == sampler.recount_space_words()
        for index, level_map in enumerate(sampler._level_records):
            expected = sum(
                CandidateStore.record_words(r) for r in level_map.values()
            )
            assert sampler._level_words[index] == expected, (
                f"level {index} cached words {sampler._level_words[index]} "
                f"!= recount {expected}"
            )
            accepted = sum(1 for r in level_map.values() if r.accepted)
            assert sampler._level_accepted[index] == accepted
        store = sampler._store
        assert store.space_words() == store.recount_space_words()

    @given(bursts=BURSTS, seed=SEEDS, window=st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_sliding_invariant_after_every_insert(self, bursts, seed, window):
        points = burst_points(bursts, seed)
        sampler = RobustL0SamplerSW(
            1.0, 1, SequenceWindow(window), seed=seed
        )
        for point in points:
            sampler.insert(point)
            self._assert_sliding_space(sampler)
        # ... and across queries (they evict) and a checkpoint round-trip.
        sampler.estimate_f0()
        self._assert_sliding_space(sampler)
        restored = RobustL0SamplerSW.from_state(
            json.loads(json.dumps(sampler.to_state()))
        )
        self._assert_sliding_space(restored)

    @given(
        bursts=BURSTS,
        seed=SEEDS,
        window=st.integers(1, 30),
        batch_size=BATCH_SIZES,
    )
    @settings(max_examples=20, deadline=None)
    def test_sliding_invariant_at_batch_boundaries(
        self, bursts, seed, window, batch_size
    ):
        points = burst_points(bursts, seed)
        sampler = RobustL0SamplerSW(
            1.0, 1, SequenceWindow(window), seed=seed
        )
        for chunk in chunked(points, batch_size):
            sampler.process_many(chunk)
            self._assert_sliding_space(sampler)

    @given(bursts=BURSTS, seed=SEEDS, track=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_infinite_window_invariant(self, bursts, seed, track):
        points = burst_points(bursts, seed)
        sampler = RobustL0SamplerIW(
            1.0, 1, seed=seed, track_members=track
        )
        for point in points:
            sampler.insert(point)
            assert sampler.space_words() == sampler.recount_space_words()

    @given(bursts=BURSTS, seed=SEEDS, rate=st.sampled_from([1, 2, 4]))
    @settings(max_examples=20, deadline=None)
    def test_fixed_rate_invariant(self, bursts, seed, rate):
        config = SamplerConfig.create(1.0, 1, seed=seed)
        sampler = FixedRateSlidingSampler(config, rate, SequenceWindow(16))
        for i, vector in enumerate(burst_points(bursts, seed)):
            sampler.insert(StreamPoint(vector, i))
            assert sampler.space_words() == sampler.recount_space_words()


class TestPeakSpaceRegression:
    """Satellite: peak tracking goes through the single ``_note_space``
    site on the same cadence in both paths, so per-point and batched
    ingestion must report identical ``peak_space_words``."""

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_sliding_peak_identical_across_paths(self, batch_size):
        points = noisy_grid_stream(3000, 400, seed=batch_size)
        per = RobustL0SamplerSW(1.0, 2, SequenceWindow(300), seed=11)
        for point in points:
            per.insert(point)
        bat = RobustL0SamplerSW(1.0, 2, SequenceWindow(300), seed=11)
        for chunk in chunked(points, batch_size):
            bat.process_many(chunk)
        assert per.peak_space_words > 0
        assert per.peak_space_words == bat.peak_space_words

    def test_peak_survives_checkpoint(self):
        points = noisy_grid_stream(1000, 100, seed=3)
        sampler = RobustL0SamplerSW(1.0, 2, SequenceWindow(200), seed=3)
        sampler.process_many(points)
        restored = RobustL0SamplerSW.from_state(
            json.loads(json.dumps(sampler.to_state()))
        )
        assert restored.peak_space_words == sampler.peak_space_words


def _assert_no_slot_leak(state) -> None:
    """The slot pool is derived state: no checkpoint may carry it."""
    if isinstance(state, dict):
        for key, value in state.items():
            assert key not in {"slot", "slots", "free", "free_list"}, (
                f"slot-pool key {key!r} leaked into a checkpoint"
            )
            _assert_no_slot_leak(value)
    elif isinstance(state, (list, tuple)):
        for value in state:
            _assert_no_slot_leak(value)


class TestSlotPoolProperties:
    """Tentpole invariants of the array-backed candidate store.

    * *Checkpoint purity*: slot indices, generation stamps and the free
      list are derived state - fingerprints and checkpoints of a pooled
      store must equal what the pre-pool layout produced, which is
      exactly what a JSON round-trip (pool rebuilt from scratch) checks.
    * *Free-list integrity*: after **every** ``add``/``remove`` on any
      live store, the pool must pass :meth:`CandidateStore.
      check_slot_integrity` - unique live slots, exact cached words,
      clean free slots, conservation of pool size.
    * *Index integrity*: after every such operation the adjacency index
      must pass :meth:`CandidateStore.check_index_integrity` - inline
      head plus overflow equals the registration multimap rebuilt from
      the live records, in registration order.
    """

    #: Registry keys whose summaries are built on CandidateStore.
    STORE_KEYS = sorted(
        set(PROPERTY_SPECS)
        - {
            "exact",
            "naive-reservoir",
            "minrank",
            "fm",
            "loglog",
            "hyperloglog",
            "bjkst",
        }
    )

    @pytest.mark.parametrize("key", STORE_KEYS)
    @given(bursts=BURSTS, seed=SEEDS, batch_size=BATCH_SIZES)
    @settings(max_examples=8, deadline=None)
    def test_pooled_fingerprints_match_pre_pool_layout(
        self, key, bursts, seed, batch_size
    ):
        points = burst_points(bursts, seed)
        summary = build_twin(key)
        for chunk in chunked(points, batch_size):
            summary.process_many(chunk)
        envelope = summary_to_state(summary)
        _assert_no_slot_leak(envelope)
        # Restoring rebuilds every slot pool from scratch; equality of
        # fingerprints proves the pool never shapes observable state.
        restored = summary_from_state(json.loads(json.dumps(envelope)))
        assert state_fingerprint(restored) == state_fingerprint(summary)
        assert summary_to_state(restored) == envelope

    @pytest.mark.parametrize("key", STORE_KEYS)
    @given(bursts=BURSTS, seed=SEEDS, batch_size=BATCH_SIZES)
    @settings(max_examples=6, deadline=None)
    def test_slot_integrity_after_every_store_operation(
        self, key, bursts, seed, batch_size
    ):
        original_add = CandidateStore.add
        original_remove = CandidateStore.remove

        def checked_add(self, record, *args, **kwargs):
            result = original_add(self, record, *args, **kwargs)
            self.check_slot_integrity()
            self.check_index_integrity()
            return result

        def checked_remove(self, record, *args, **kwargs):
            result = original_remove(self, record, *args, **kwargs)
            self.check_slot_integrity()
            self.check_index_integrity()
            return result

        CandidateStore.add = checked_add
        CandidateStore.remove = checked_remove
        try:
            points = burst_points(bursts, seed)
            summary = build_twin(key)
            for chunk in chunked(points, batch_size):
                summary.process_many(chunk)
        finally:
            CandidateStore.add = original_add
            CandidateStore.remove = original_remove

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 12)),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_index_order_under_overlapping_adjacency(self, ops):
        # Summaries keep near-duplicates in one record, so their streams
        # rarely stack three registrations on one hash.  Driving the
        # store directly with representatives 0.7 apart (alpha 1) makes
        # deep overflow lists the norm - including around -1/-2, whose
        # cell ids collide - and checks the first-match contract against
        # a scan of the live records in registration order.
        config = SamplerConfig.create(1.0, 1, seed=5)
        store = CandidateStore(config)
        live: list[CandidateRecord] = []
        for index, (add, position) in enumerate(ops):
            if add or not live:
                vector = (0.7 * position - 3.0,)
                point = StreamPoint(vector, index)
                cell = config.grid.cell_of(vector)
                record = CandidateRecord(
                    representative=point,
                    cell=cell,
                    cell_hash=config.cell_hash(cell),
                    adj_hashes=config.adj_hashes(vector),
                    accepted=True,
                    last=point,
                )
                store.add(record)
                live.append(record)
            else:
                store.remove(live.pop(position % len(live)))
            store.check_index_integrity()
            probe = (0.7 * position - 2.8,)
            cell_hash = config.point_context(probe).cell_hash
            expected = next(
                (
                    record
                    for record in live
                    if cell_hash in record.adj_hashes
                    and within_distance(
                        record.representative.vector, probe, 1.0
                    )
                ),
                None,
            )
            assert store.find_nearby(probe, cell_hash) is expected

    @given(bursts=BURSTS, seed=SEEDS, window=st.integers(1, 30))
    @settings(max_examples=15, deadline=None)
    def test_sliding_slot_integrity_per_point_and_queries(
        self, bursts, seed, window
    ):
        # The heaviest slot churn: sliding eviction recycles slots
        # constantly.  Check the pool after every point and query.
        points = burst_points(bursts, seed)
        sampler = RobustL0SamplerSW(1.0, 1, SequenceWindow(window), seed=seed)
        for point in points:
            sampler.insert(point)
            sampler._store.check_slot_integrity()
            sampler._store.check_index_integrity()
        sampler.estimate_f0()
        sampler._store.check_slot_integrity()
        sampler._store.check_index_integrity()
        restored = RobustL0SamplerSW.from_state(
            json.loads(json.dumps(sampler.to_state()))
        )
        restored._store.check_slot_integrity()
        restored._store.check_index_integrity()
        assert state_fingerprint(restored) == state_fingerprint(sampler)
