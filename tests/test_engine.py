"""Differential test suite for the batched ingestion engine.

The contract (see :mod:`repro.engine`): ``process_many(batch)`` must
leave every sampler in a state identical to inserting the same points
one at a time - for every batch size, including singleton batches,
uneven tails and empty batches.  Each test builds two identically-seeded
samplers, feeds one per-point and the other in batches, and compares
:func:`repro.engine.equivalence.state_fingerprint` trees.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.api.specs import PipelineSpec
from repro.core.base import SamplerConfig, StreamSampler
from repro.core.chunk_geometry import chunk_geometry_for
from repro.core.f0_infinite import RobustF0EstimatorIW
from repro.core.f0_sliding import RobustF0EstimatorSW
from repro.core.fixed_rate import FixedRateSlidingSampler
from repro.core.heavy_hitters import RobustHeavyHitters
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.ksample import KDistinctSampler
from repro.core.reservoir import ReservoirMember, WindowReservoir
from repro.core.sliding_window import RobustL0SamplerSW
from repro.engine.batching import chunked
from repro.engine.equivalence import state_fingerprint
from repro.engine.pipeline import BatchPipeline
from repro.errors import DimensionMismatchError, ParameterError, ReproError
from repro.geometry import kernels
from repro.streams.point import StreamPoint, as_stream
from repro.streams.windows import SequenceWindow, TimeWindow

from stream_generators import noisy_grid_stream as noisy_stream


#: Batch layouts exercised by every differential case: singletons, a
#: small prime (uneven tails everywhere), a power of two, and one chunk
#: larger than most test streams (a single giant batch).
BATCH_SIZES = [1, 7, 64, 10_000]


def feed_batches(sampler, points, batch_size, *, empty_every=3):
    """Feed ``points`` through process_many with hostile batch layout.

    Interleaves empty batches between chunks to prove they are no-ops.
    """
    for i, chunk in enumerate(chunked(points, batch_size)):
        if i % empty_every == 0:
            sampler.process_many([])
        sampler.process_many(chunk)
    sampler.process_many([])


def assert_differential(make_sampler, points, batch_size):
    """Build twin samplers, feed per-point vs batched, compare states."""
    per = make_sampler()
    for point in points:
        per.insert(point)
    bat = make_sampler()
    feed_batches(bat, points, batch_size)
    assert state_fingerprint(per) == state_fingerprint(bat)
    return per, bat


def spy_adjacency_enumerations(monkeypatch) -> list[bool]:
    """Record each vectorised ``adj(p)`` enumeration: whether it served
    (``True``) or declined (``False``)."""
    served: list[bool] = []
    original = kernels.adjacent_cells_chunk

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        served.append(result is not None)
        return result

    monkeypatch.setattr(kernels, "adjacent_cells_chunk", spy)
    return served


class TestInfiniteWindowDifferential:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_plain(self, batch_size):
        points = noisy_stream(3000, 60, seed=batch_size)
        assert_differential(
            lambda: RobustL0SamplerIW(1.0, 2, seed=5), points, batch_size
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_track_members(self, batch_size):
        # Member tracking draws from the sampler's RNG on the hot path;
        # the fingerprint includes the RNG state, so any skipped or extra
        # draw fails this test.
        points = noisy_stream(2500, 40, seed=100 + batch_size)
        assert_differential(
            lambda: RobustL0SamplerIW(1.0, 2, seed=9, track_members=True),
            points,
            batch_size,
        )

    def test_kwise_hash_and_high_dim(self):
        points = noisy_stream(1200, 30, seed=3, dim=4)
        assert_differential(
            lambda: RobustL0SamplerIW(1.0, 4, seed=11, kwise=8), points, 64
        )

    def test_stream_points_and_raw_tuples_mix(self):
        raw = noisy_stream(800, 20, seed=4)
        mixed = [
            StreamPoint(tuple(v), i) if i % 3 == 0 else v
            for i, v in enumerate(raw)
        ]
        assert_differential(
            lambda: RobustL0SamplerIW(1.0, 2, seed=2), mixed, 7
        )

    def test_rate_halving_crossed_by_batches(self):
        # Enough groups to force several rate halvings mid-stream.
        points = noisy_stream(6000, 1500, seed=8)
        per, bat = assert_differential(
            lambda: RobustL0SamplerIW(1.0, 2, seed=13), points, 64
        )
        assert per.rate_denominator > 1  # halvings actually happened

    def test_samples_identical_after_batching(self):
        points = noisy_stream(2000, 25, seed=6)
        per, bat = assert_differential(
            lambda: RobustL0SamplerIW(1.0, 2, seed=21), points, 64
        )
        assert per.sample(random.Random(0)) == bat.sample(random.Random(0))
        assert per.estimate_f0() == bat.estimate_f0()

    def test_dimension_error_mid_batch_ingests_nothing(self):
        sampler = RobustL0SamplerIW(1.0, 2, seed=1)
        sampler.process_many(noisy_stream(10, 5, seed=2))
        before = state_fingerprint(sampler)
        good = noisy_stream(10, 5, seed=1)
        with pytest.raises(DimensionMismatchError, match="point 10"):
            sampler.process_many(good + [(1.0, 2.0, 3.0)])
        assert state_fingerprint(sampler) == before  # no prefix ingested
        with pytest.raises(DimensionMismatchError):
            sampler.insert((1.0, 2.0, 3.0))
        assert state_fingerprint(sampler) == before

    def test_declined_probe_differential(self, monkeypatch):
        # At grid side alpha/12.5 one point extends 27 candidates along
        # its first axis, over a table bound lowered to 20: not even one
        # row fits, so the chunk's adj(p) enumeration declines; with no
        # ignore filter every point is active and every untracked one
        # takes the exact founding path, its adj(p) from the scalar DFS,
        # which must be just as invisible in state.
        monkeypatch.setattr(kernels, "_MAX_ADJACENCY_TABLE", 20)
        points = noisy_stream(10_000, 60, seed=12)
        config = SamplerConfig.create(1.0, 2, seed=15, grid_side=0.08)
        geom = chunk_geometry_for(config, points)
        assert geom.survival_exponents() is None
        for index, point in enumerate(points[:40]):
            assert geom.adj_hashes(index) == config.adj_hashes(
                point, cell=config.grid.cell_of(point)
            )
            assert geom.adj_tz(index) == -1  # the record derives it
        served = spy_adjacency_enumerations(monkeypatch)
        per, bat = assert_differential(
            lambda: RobustL0SamplerIW(1.0, 2, config=config), points, 10_000
        )
        assert per.rate_denominator > 1  # foundings ran under real masks
        assert served == []  # declined before any kernel call

    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_high_dim_batch_ignore_filter(self, dim):
        # Satellite: the dim > 2 batch ignore filter (the vectorised
        # sampled-cell probe, replacing the exponential conservative
        # neighbourhood that forced the old dim <= 2 gate) must be
        # invisible in state.  High-cardinality stream: most points are
        # new groups, so the rate halves repeatedly and the filter
        # carries the batch path.
        rng = random.Random(dim)
        points = []
        for _ in range(2500):
            if rng.random() < 0.25:  # some duplicate mass too
                group = rng.randrange(40)
                base = [30.0 * ((group * (axis + 1)) % 11) for axis in range(dim)]
            else:
                base = [rng.uniform(-400.0, 400.0) for _ in range(dim)]
            points.append(
                tuple(value + rng.uniform(0.0, 0.3) for value in base)
            )
        for batch_size in BATCH_SIZES:
            per, bat = assert_differential(
                lambda: RobustL0SamplerIW(1.0, dim, seed=dim), points, batch_size
            )
        assert per.rate_denominator > 1  # the filter ran under real masks

    def test_geometry_path_differential(self):
        # 64-point chunks are fully covered by their chunk geometry: the
        # vectorised batch path alone must match per-point ingestion.
        points = noisy_stream(2000, 300, seed=77)
        assert_differential(
            lambda: RobustL0SamplerIW(1.0, 2, seed=31), points, 64
        )


class TestHighDimVectorisedAdjacency:
    """The adjacency enumeration has no dimension cap: at dims 5 and 8
    founding-heavy chunks are served by the chunk's vectorised
    ``adj(p)`` product, which must be invisible in state for both
    window models."""

    @pytest.mark.parametrize("dim", [5, 8])
    @pytest.mark.parametrize("window", ["infinite", "sliding"])
    def test_blocks_match_per_point(self, window, dim, monkeypatch):
        if window == "infinite":
            def make():
                return RobustL0SamplerIW(1.0, dim, seed=dim)
        else:
            def make():
                return RobustL0SamplerSW(
                    1.0, dim, SequenceWindow(400), seed=dim
                )
        served = spy_adjacency_enumerations(monkeypatch)
        points = noisy_stream(2500, 1200, seed=dim, dim=dim)
        assert_differential(make, points, 256)
        assert any(served)  # the vectorised product actually served


class TestOneAdjacencyEnumeration:
    """A chunk's ``adj(p)`` is enumerated at most once: the ignore test
    and every founding of the chunk read the same product."""

    @staticmethod
    def run_one_geometry(make, prefix, chunk, monkeypatch):
        """Feed ``prefix``, then ``chunk`` as one geometry; return the
        batched sampler, its per-point twin and the chunk's vectorised
        enumerations."""
        per, bat = make(), make()
        for point in prefix + chunk:
            per.insert(point)
        bat.process_many(prefix)
        geom = chunk_geometry_for(bat._config, chunk)
        served = spy_adjacency_enumerations(monkeypatch)
        bat.process_many(geom)
        assert state_fingerprint(per) == state_fingerprint(bat)
        return per, bat, served

    def test_infinite_window_ignore_test_and_foundings(self, monkeypatch):
        # A high-cardinality chunk at a rate > 1: the ignore test and
        # hundreds of foundings all want adj(p).
        points = noisy_stream(4200, 3000, seed=71)
        per, bat, served = self.run_one_geometry(
            lambda: RobustL0SamplerIW(1.0, 2, seed=71),
            points[:200],
            points[200:],
            monkeypatch,
        )
        assert per.rate_denominator > 1
        assert served == [True]

    def test_sliding_window_foundings(self, monkeypatch):
        points = noisy_stream(4200, 3000, seed=72)
        _, _, served = self.run_one_geometry(
            lambda: RobustL0SamplerSW(1.0, 2, SequenceWindow(500), seed=72),
            points[:200],
            points[200:],
            monkeypatch,
        )
        assert served == [True]

    def test_heavy_hitters_admissions(self, monkeypatch):
        points = noisy_stream(4200, 3000, seed=73)
        _, _, served = self.run_one_geometry(
            lambda: RobustHeavyHitters(1.0, 2, epsilon=0.05, seed=73),
            points[:200],
            points[200:],
            monkeypatch,
        )
        assert served == [True]


class TestFixedRateDifferential:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("rate", [1, 4])
    def test_sequence_window(self, batch_size, rate):
        config = SamplerConfig.create(1.0, 2, seed=31)
        window = SequenceWindow(300)
        points = list(as_stream(noisy_stream(2000, 40, seed=rate)))
        assert_differential(
            lambda: FixedRateSlidingSampler(config, rate, window),
            points,
            batch_size,
        )

    def test_bad_dimension_point_still_evicts_first(self):
        # insert() raises on a bad dimension before its eviction sweep;
        # the batch path must do the same, or the two paths diverge on
        # which expired records survive the failed call.
        def make():
            config = SamplerConfig.create(1.0, 2, seed=35)
            return FixedRateSlidingSampler(config, 1, SequenceWindow(5))

        prefix = list(as_stream(noisy_stream(20, 3, seed=9)))
        bad = StreamPoint((1.0, 2.0, 3.0), 20)
        per = make()
        for point in prefix:
            per.insert(point)
        with pytest.raises(ReproError):
            per.insert(bad)
        bat = make()
        bat.process_many(prefix)
        with pytest.raises(ReproError):
            bat.process_many([bad])
        assert state_fingerprint(per) == state_fingerprint(bat)

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_time_window_with_member_tracking(self, batch_size):
        config = SamplerConfig.create(1.0, 2, seed=33)
        window = TimeWindow(150.0)
        vectors = noisy_stream(1500, 30, seed=batch_size)
        times = [0.5 * i for i in range(len(vectors))]
        points = list(as_stream(vectors, times=times))
        assert_differential(
            lambda: FixedRateSlidingSampler(
                config, 2, window, track_members=True, member_seed=77
            ),
            points,
            batch_size,
        )


class TestSlidingWindowDifferential:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_sequence_window(self, batch_size):
        points = noisy_stream(4000, 80, seed=batch_size)
        per, bat = assert_differential(
            lambda: RobustL0SamplerSW(1.0, 2, SequenceWindow(500), seed=17),
            points,
            batch_size,
        )
        # The heaps matched verbatim; the user-facing queries must too.
        assert per.sample(random.Random(1)) == bat.sample(random.Random(1))
        assert per.estimate_f0() == bat.estimate_f0()

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_time_window(self, batch_size):
        vectors = noisy_stream(3000, 60, seed=50 + batch_size)
        times = [0.25 * i for i in range(len(vectors))]
        points = list(as_stream(vectors, times=times))
        assert_differential(
            lambda: RobustL0SamplerSW(
                1.0, 2, TimeWindow(120.0), window_capacity=600, seed=19
            ),
            points,
            batch_size,
        )

    def test_cascades_crossed_by_batch_boundaries(self):
        # Many groups per window so Split/Merge cascades fire repeatedly;
        # batch boundaries must be invisible to the promotion machinery.
        points = noisy_stream(5000, 1200, seed=23)
        per, bat = assert_differential(
            lambda: RobustL0SamplerSW(1.0, 2, SequenceWindow(800), seed=29),
            points,
            7,
        )
        assert per.deepest_active_level() == bat.deepest_active_level()
        assert per.deepest_active_level() > 0  # cascades actually fired

    def test_order_violation_mid_batch_ingests_nothing(self):
        sampler = RobustL0SamplerSW(1.0, 1, SequenceWindow(10), seed=3)
        sampler.process_many([StreamPoint((float(i),), i) for i in range(3)])
        before = state_fingerprint(sampler)
        points = [StreamPoint((float(i),), i) for i in range(3, 8)]
        stale = StreamPoint((99.0,), 1)
        with pytest.raises(ParameterError, match="point 5 arrives out of"):
            sampler.process_many(points + [stale])
        assert state_fingerprint(sampler) == before
        # Against the latest arrival: a chunk whose *first* point is
        # older than what the sampler already holds is rejected too.
        with pytest.raises(ParameterError, match="point 0 arrives out of"):
            sampler.process_many([stale] + points)
        with pytest.raises(ParameterError):
            sampler.insert(stale)
        assert state_fingerprint(sampler) == before


def _hostile_cases():
    """(chunk size, bad position) pairs: positions 0, 1, 3, middle, last."""
    for size in (1, 3, 4, 5, 200):
        for position in sorted({0, 1, 3, size // 2, size - 1}):
            if position < size:
                yield size, position


class TestHostileTailDifferential:
    """A chunk holding a point without a grid cell the int64 path can
    carry (a non-finite value, or a cell at or beyond 2^62) is rejected
    whole, wherever in the chunk the bad value sits: ``process_many``
    raises ``ParameterError`` naming the position and leaves the state
    it found, and per-point ``insert`` of the bad point does the same -
    so batch and per-point ingestion still end in the same state."""

    WARMUP = 60

    @staticmethod
    def _samplers():
        config = SamplerConfig.create(1.0, 2, seed=61)
        return {
            "l0-sliding": lambda: RobustL0SamplerSW(
                1.0, 2, SequenceWindow(40), seed=61
            ),
            "l0-infinite": lambda: RobustL0SamplerIW(1.0, 2, seed=61),
            "fixed-rate": lambda: FixedRateSlidingSampler(
                config, 2, SequenceWindow(40)
            ),
            "heavy-hitters": lambda: RobustHeavyHitters(
                1.0, 2, epsilon=0.1, seed=61
            ),
        }

    @pytest.mark.parametrize(
        "key", ["l0-sliding", "l0-infinite", "fixed-rate", "heavy-hitters"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300, 1e19])
    @pytest.mark.parametrize("size,position", list(_hostile_cases()))
    def test_batch_matches_per_point(self, key, bad, size, position):
        make = self._samplers()[key]
        vectors = noisy_stream(self.WARMUP + size, 12, seed=size + position)
        vectors[self.WARMUP + position] = (bad, 0.0)
        # StreamPoints throughout: the fixed-rate sampler requires them.
        points = list(as_stream(vectors))
        warmup, chunk = points[: self.WARMUP], points[self.WARMUP :]
        per = make()
        bat = make()
        for point in warmup:
            per.insert(point)
        bat.process_many(warmup)
        before = state_fingerprint(bat)
        assert state_fingerprint(per) == before
        with pytest.raises(ParameterError, match=f"point {position} "):
            bat.process_many(chunk)
        with pytest.raises(ParameterError):
            per.insert(chunk[position])
        assert state_fingerprint(bat) == before
        assert state_fingerprint(per) == before


class TestWrapperDifferential:
    @pytest.mark.parametrize("replacement", [False, True])
    def test_ksample(self, replacement):
        points = noisy_stream(1500, 25, seed=41)
        assert_differential(
            lambda: KDistinctSampler(
                1.0, 2, k=3, replacement=replacement, seed=43
            ),
            points,
            7,
        )

    def test_ksample_sliding(self):
        points = noisy_stream(1500, 25, seed=47)
        assert_differential(
            lambda: KDistinctSampler(
                1.0, 2, k=2, window=SequenceWindow(400), seed=53
            ),
            points,
            64,
        )

    def test_f0_infinite(self):
        points = noisy_stream(1200, 80, seed=59)
        per, bat = assert_differential(
            lambda: RobustF0EstimatorIW(
                1.0, 2, epsilon=0.5, copies=3, seed=61
            ),
            points,
            7,
        )
        assert per.estimate() == bat.estimate()

    def test_f0_sliding(self):
        points = noisy_stream(1200, 60, seed=67)
        per, bat = assert_differential(
            lambda: RobustF0EstimatorSW(
                1.0,
                2,
                SequenceWindow(300),
                copies=3,
                seed=71,
            ),
            points,
            64,
        )
        assert per.estimate() == bat.estimate()

    def test_heavy_hitters(self):
        points = noisy_stream(2000, 30, seed=73)
        per, bat = assert_differential(
            lambda: RobustHeavyHitters(1.0, 2, epsilon=0.1, seed=79),
            points,
            7,
        )
        assert [
            (h.representative.vector, h.count, h.error)
            for h in per.heavy_hitters(0.02)
        ] == [
            (h.representative.vector, h.count, h.error)
            for h in bat.heavy_hitters(0.02)
        ]


class TestReservoirDifferential:
    def test_member_reservoir_offer_many(self):
        points = [StreamPoint((float(i),), i) for i in range(500)]
        per, bat = ReservoirMember(), ReservoirMember()
        rng_a, rng_b = random.Random(5), random.Random(5)
        for p in points:
            per.offer(p, rng_a)
        for chunk in chunked(points, 7):
            bat.offer_many(chunk, rng_b)
        assert state_fingerprint(per) == state_fingerprint(bat)
        assert rng_a.getstate() == rng_b.getstate()

    def test_window_reservoir_offer_many(self):
        window = SequenceWindow(50)
        points = [StreamPoint((float(i),), i) for i in range(400)]
        per, bat = WindowReservoir(window), WindowReservoir(window)
        rng_a, rng_b = random.Random(6), random.Random(6)
        for p in points:
            per.offer(p, rng_a)
        bat.offer_many(points[:123], rng_b)
        bat.offer_many([], rng_b)
        bat.offer_many(points[123:], rng_b)
        assert state_fingerprint(per) == state_fingerprint(bat)
        assert per.member(points[-1]) == bat.member(points[-1])


class TestCopyLockstepOnErrors:
    @pytest.mark.parametrize(
        "make_sampler",
        [
            lambda: KDistinctSampler(1.0, 2, k=3, replacement=True, seed=7),
            lambda: RobustF0EstimatorIW(
                1.0, 2, epsilon=0.5, copies=3, seed=7
            ),
            lambda: RobustF0EstimatorSW(
                1.0, 2, SequenceWindow(100), copies=3, seed=7
            ),
        ],
    )
    def test_mid_batch_error_keeps_copies_in_lockstep(self, make_sampler):
        # A batch with an invalid point is rejected whole: every copy
        # stays exactly where it was (no copy ahead of the others, no
        # valid prefix ingested), and per-point insert of the bad point
        # is rejected just as cleanly.
        sampler = make_sampler()
        sampler.process_many(noisy_stream(10, 4, seed=3))
        before = state_fingerprint(sampler)
        good = noisy_stream(10, 4, seed=1)
        with pytest.raises(ParameterError, match="point 10"):
            sampler.process_many(good + [(1.0, 2.0, 3.0)])
        assert state_fingerprint(sampler) == before
        with pytest.raises(ParameterError):
            sampler.insert((1.0, 2.0, 3.0))
        assert state_fingerprint(sampler) == before

    def test_coercion_error_keeps_copies_in_lockstep(self):
        # A non-numeric coordinate fails during materialisation, before
        # any copy ingests: no copy sees the valid prefix.
        good = noisy_stream(8, 4, seed=2)
        bat = RobustF0EstimatorIW(1.0, 2, epsilon=0.5, copies=3, seed=7)
        before = state_fingerprint(bat)
        with pytest.raises(ParameterError, match="point 8"):
            bat.process_many(good + [("x", "y")])
        assert all(c.points_seen == 0 for c in bat._copies)
        assert state_fingerprint(bat) == before
        with pytest.raises(ParameterError):
            bat.insert(("x", "y"))
        assert state_fingerprint(bat) == before


class TestExplicitRngThreading:
    def test_sampler_config_create_accepts_rng(self):
        first = SamplerConfig.create(1.0, 2, rng=random.Random(99))
        second = SamplerConfig.create(1.0, 2, rng=random.Random(99))
        assert first.grid.offset == second.grid.offset
        assert first.cell_hash((3, 4)) == second.cell_hash((3, 4))
        # rng takes precedence over (ignored) seed
        third = SamplerConfig.create(1.0, 2, seed=1, rng=random.Random(99))
        assert third.grid.offset == first.grid.offset


class TestExtendUsesBatchPath:
    def test_extend_equals_insert_loop(self):
        points = noisy_stream(1500, 40, seed=83)
        per = RobustL0SamplerIW(1.0, 2, seed=89)
        for p in points:
            per.insert(p)
        bat = RobustL0SamplerIW(1.0, 2, seed=89)
        returned = bat.extend(iter(points), batch_size=13)
        assert returned == len(points)
        assert state_fingerprint(per) == state_fingerprint(bat)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RobustL0SamplerIW(1.0, 2, seed=97),
            lambda: RobustL0SamplerSW(1.0, 2, SequenceWindow(400), seed=97),
            lambda: RobustHeavyHitters(1.0, 2, epsilon=0.05, seed=97),
        ],
        ids=["l0-infinite", "l0-sliding", "heavy-hitters"],
    )
    def test_one_shot_iterator_matches_list(self, make):
        # process_many streams a one-shot iterable through extend's
        # bounded chunks; the state equals one list-sized batch.
        points = noisy_stream(2500, 60, seed=101)
        streamed, listed = make(), make()
        assert streamed.process_many(p for p in points) == len(points)
        assert listed.process_many(points) == len(points)
        assert state_fingerprint(streamed) == state_fingerprint(listed)

    def test_extend_validates_batch_size(self):
        sampler = RobustL0SamplerIW(1.0, 2, seed=1)
        with pytest.raises(ParameterError):
            sampler.extend([(0.0, 0.0)], batch_size=0)

    def test_default_process_many_is_inherited(self):
        # A minimal StreamSampler subclass gets a correct batched path
        # for free - the documented extension route for new samplers.
        class Recorder(StreamSampler):
            def __init__(self):
                self.seen = []

            def insert(self, point):
                self.seen.append(point)

        recorder = Recorder()
        assert recorder.extend(range(10), batch_size=3) == 10
        assert recorder.seen == list(range(10))


class _CountedFloat:
    """Coordinate object whose ``float()`` coercions are globally counted.

    The pin below feeds these through the pipeline to prove the chunk is
    coerced exactly once per pass: once upon a time the geometry builder
    coerced in the pipeline and the shard coerced again during
    materialisation, doubling the count.
    """

    __slots__ = ("value",)
    calls = 0

    def __init__(self, value: float) -> None:
        self.value = value

    def __float__(self) -> float:
        type(self).calls += 1
        return self.value


class TestChunkCoercedOnce:
    def _stream(self, n, dim=2, seed=31):
        rng = random.Random(seed)
        return [
            tuple(_CountedFloat(rng.uniform(0.0, 50.0)) for _ in range(dim))
            for _ in range(n)
        ]

    def test_pipeline_coerces_each_coordinate_exactly_once(self):
        n, dim = 256, 2
        points = self._stream(n, dim)
        pipeline = BatchPipeline(
            PipelineSpec(
                alpha=1.0, dim=dim, num_shards=2, seed=7, batch_size=64
            )
        )
        _CountedFloat.calls = 0
        assert pipeline.extend(points) == n
        pipeline.sync()
        assert _CountedFloat.calls == n * dim

    def test_single_sampler_batch_coerces_each_coordinate_exactly_once(self):
        n, dim = 128, 2
        points = self._stream(n, dim, seed=77)
        sampler = RobustL0SamplerIW(1.0, dim, seed=13)
        _CountedFloat.calls = 0
        assert sampler.extend(points, batch_size=32) == n
        assert _CountedFloat.calls == n * dim

    def test_counted_stream_state_matches_plain_floats(self):
        # The reuse fast path must not change state: the same stream fed
        # as counted objects and as plain floats fingerprints equal.
        n, dim = 200, 2
        counted = self._stream(n, dim, seed=5)
        plain = [
            tuple(c.value for c in row) for row in counted
        ]
        first = BatchPipeline(
            PipelineSpec(
                alpha=1.0, dim=dim, num_shards=2, seed=3, batch_size=32
            )
        )
        first.extend(counted)
        second = BatchPipeline(
            PipelineSpec(
                alpha=1.0, dim=dim, num_shards=2, seed=3, batch_size=32
            )
        )
        second.extend(plain)
        assert state_fingerprint(first.merge()) == state_fingerprint(
            second.merge()
        )


class TestPipelineProcessManyValidatesOnce:
    """``BatchPipeline.process_many`` validates a materialised batch once
    and deals row blocks of that one validated array: every row is
    coerced exactly once, whatever the chunk size, and the result is
    ``extend``'s."""

    @staticmethod
    def _rows(n=300, seed=19):
        rng = random.Random(seed)
        return [
            (rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("batch_size", [1, 64, 300])
    def test_each_row_coerced_once(self, monkeypatch, batch_size):
        import repro.core.chunk_geometry as chunk_geometry_module

        coerced = []
        original = chunk_geometry_module.coerce_rows

        def spy(points, dim):
            coerced.append(len(points))
            return original(points, dim)

        monkeypatch.setattr(chunk_geometry_module, "coerce_rows", spy)
        rows = self._rows()
        pipeline = BatchPipeline(
            PipelineSpec(
                alpha=1.0, dim=2, num_shards=2, seed=21, batch_size=batch_size
            )
        )
        assert pipeline.process_many(rows) == len(rows)
        assert coerced == [len(rows)]
        monkeypatch.setattr(chunk_geometry_module, "coerce_rows", original)
        reference = BatchPipeline(
            PipelineSpec(
                alpha=1.0, dim=2, num_shards=2, seed=21, batch_size=batch_size
            )
        )
        reference.extend(rows)
        assert state_fingerprint(pipeline) == state_fingerprint(reference)

    def test_nan_in_last_chunk_submits_nothing(self, monkeypatch):
        rows = self._rows(200) + [(float("nan"), 1.0)]
        pipeline = BatchPipeline(
            PipelineSpec(
                alpha=1.0, dim=2, num_shards=2, seed=21, batch_size=64
            )
        )
        submitted = []
        monkeypatch.setattr(pipeline, "submit", submitted.append)
        with pytest.raises(ParameterError, match="point 200"):
            pipeline.process_many(rows)
        assert submitted == []
        assert pipeline.points_seen == 0

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("form", ["tuples", "stream-points", "array"])
    def test_matches_extend(self, executor, form):
        rows = self._rows()
        if form == "stream-points":
            rows = [
                StreamPoint(row, index, 2.0 * index)
                for index, row in enumerate(rows)
            ]
        elif form == "array":
            rows = np.array(rows)
        spec = PipelineSpec(
            alpha=1.0, dim=2, seed=21, num_shards=3, batch_size=64,
            executor=executor, num_workers=1,
        )
        with BatchPipeline(spec=spec) as batched, BatchPipeline(
            spec=spec
        ) as streamed:
            assert batched.process_many(rows) == len(rows)
            streamed.extend(rows)
            assert state_fingerprint(batched) == state_fingerprint(streamed)


class TestArrayChunkFastPath:
    """2-d numeric numpy chunks are validated whole - one dtype cast into
    the chunk's own array - and never go through per-row coercion, on a
    sampler's ``process_many`` and ``extend`` and on
    ``BatchPipeline.extend`` (whose ``chunked`` slices keep the array
    form)."""

    def _pipeline(self):
        return BatchPipeline(
            PipelineSpec(
                alpha=1.0, dim=2, num_shards=2, seed=21, batch_size=128
            )
        )

    @pytest.mark.parametrize(
        "surface", ["process_many", "extend", "pipeline-extend"]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_array_skips_per_row_coercion(self, monkeypatch, surface, dtype):
        import repro.core.chunk_geometry as chunk_geometry_module
        import repro.engine.batching as batching_module

        coerced = []
        original = chunk_geometry_module.coerce_rows

        def spy(points, dim):
            coerced.append(len(points))
            return original(points, dim)

        for module in (chunk_geometry_module, batching_module):
            monkeypatch.setattr(module, "coerce_rows", spy, raising=False)
        rng = np.random.default_rng(5)
        array = rng.uniform(0.0, 40.0, (300, 2)).astype(dtype)
        rows = [tuple(float(x) for x in row) for row in array.tolist()]
        if surface == "pipeline-extend":
            fed, reference = self._pipeline(), self._pipeline()
            assert fed.extend(array) == len(rows)
            assert coerced == []
            reference.extend(rows)
            fed, reference = fed.merge(), reference.merge()
        else:
            fed = RobustL0SamplerIW(1.0, 2, seed=21)
            reference = RobustL0SamplerIW(1.0, 2, seed=21)
            if surface == "process_many":
                assert fed.process_many(array) == len(rows)
            else:
                assert fed.extend(array, batch_size=64) == len(rows)
            assert coerced == []
            reference.process_many(rows)
        assert sum(coerced) == len(rows)  # the spy saw the row chunks
        assert state_fingerprint(fed) == state_fingerprint(reference)

    def test_float_array_chunk_matches_list_chunk(self):
        rng = random.Random(17)
        rows = [
            (rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0))
            for _ in range(300)
        ]
        as_array = self._pipeline()
        as_array.extend(np.array(rows, dtype=np.float64))
        as_list = self._pipeline()
        as_list.extend(rows)
        assert state_fingerprint(as_array.merge()) == state_fingerprint(
            as_list.merge()
        )

    def test_integer_array_chunk_matches_float_coercion(self):
        rng = random.Random(23)
        rows = [
            (rng.randrange(0, 50), rng.randrange(0, 50)) for _ in range(200)
        ]
        as_array = self._pipeline()
        as_array.extend(np.array(rows, dtype=np.int64))
        as_list = self._pipeline()
        as_list.extend([tuple(float(x) for x in row) for row in rows])
        assert state_fingerprint(as_array.merge()) == state_fingerprint(
            as_list.merge()
        )

    def test_wrong_width_array_raises_like_rows(self):
        bad = np.zeros((32, 3), dtype=np.float64)
        from_array = self._pipeline()
        with pytest.raises(ReproError):
            from_array.extend(bad)
        from_rows = self._pipeline()
        with pytest.raises(ReproError):
            from_rows.extend([tuple(row) for row in bad.tolist()])
