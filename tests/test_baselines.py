"""Tests for the baseline samplers and F0 sketches."""

from __future__ import annotations

import collections
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.baselines.bjkst import BJKSTSketch
from repro.baselines.exact import ExactDistinctSampler
from repro.baselines.fm import FMSketch, item_key, lowest_set_bit
from repro.baselines.hyperloglog import HyperLogLog
from repro.baselines.loglog import LogLogSketch
from repro.baselines.minrank import MinRankL0Sampler
from repro.baselines.naive import NaiveReservoirSampler
from repro.engine import state_fingerprint
from repro.errors import EmptySampleError, ParameterError


class TestNaiveReservoir:
    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            NaiveReservoirSampler().sample()

    def test_uniform_over_points(self):
        counts = collections.Counter()
        for seed in range(500):
            sampler = NaiveReservoirSampler(rng=random.Random(seed))
            for i in range(4):
                sampler.insert((float(i),))
            counts[sampler.sample().vector[0]] += 1
        assert all(80 <= counts[float(i)] <= 170 for i in range(4))

    def test_biased_toward_heavy_groups(self):
        """The motivating failure: duplicates skew the sample."""
        heavy = 0
        for seed in range(300):
            sampler = NaiveReservoirSampler(rng=random.Random(seed))
            for _ in range(99):
                sampler.insert((0.0,))
            sampler.insert((100.0,))
            heavy += sampler.sample().vector[0] == 0.0
        assert heavy / 300 > 0.9  # ~99% vs the fair 50%


class TestMinRank:
    def test_uniform_over_distinct_keys(self):
        counts = collections.Counter()
        for seed in range(600):
            sampler = MinRankL0Sampler(seed=seed)
            # Duplicates of value 0.0 must not tilt the sample.
            for v in [0.0, 0.0, 0.0, 0.0, 1.0, 2.0]:
                sampler.insert((v,))
            counts[sampler.sample().vector[0]] += 1
        assert all(130 <= counts[float(v)] <= 270 for v in range(3))

    def test_distinct_seen(self):
        sampler = MinRankL0Sampler(seed=0)
        for v in [0.0, 0.0, 1.0]:
            sampler.insert((v,))
        assert sampler.distinct_seen == 2

    def test_near_duplicates_break_it(self):
        """Near (not exact) duplicates all count as distinct - the paper's
        argument that hashing cannot handle noisy data."""
        sampler = MinRankL0Sampler(seed=1)
        for i in range(10):
            sampler.insert((0.0 + i * 1e-9,))
        assert sampler.distinct_seen == 10

    def test_custom_key_oracle(self):
        sampler = MinRankL0Sampler(key=lambda p: round(p.vector[0]), seed=2)
        for i in range(10):
            sampler.insert((0.0 + i * 1e-9,))
        assert sampler.distinct_seen == 1

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            MinRankL0Sampler().sample()


class TestExactSampler:
    def test_groups_counted_exactly(self):
        sampler = ExactDistinctSampler(alpha=0.5, dim=1, seed=0)
        for v in [0.0, 0.2, 5.0, 5.1, 10.0]:
            sampler.insert((v,))
        assert sampler.num_groups == 3

    def test_representative_is_first(self):
        sampler = ExactDistinctSampler(alpha=0.5, dim=1, seed=0)
        for v in [5.2, 5.0, 0.0]:
            sampler.insert((v,))
        reps = [p.vector[0] for p in sampler.representatives()]
        assert reps == [5.2, 0.0]

    def test_high_dim_fallback_path(self):
        sampler = ExactDistinctSampler(alpha=0.5, dim=8, seed=1)
        rng = random.Random(0)
        for _ in range(30):
            sampler.insert(tuple(rng.uniform(0, 20) for _ in range(8)))
        assert 1 <= sampler.num_groups <= 30

    def test_space_linear_in_groups(self):
        sampler = ExactDistinctSampler(alpha=0.5, dim=1, seed=2)
        for g in range(50):
            sampler.insert((10.0 * g,))
        assert sampler.space_words() >= 50 * 3

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            ExactDistinctSampler(alpha=1.0, dim=1).sample()

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            ExactDistinctSampler(alpha=0.0, dim=1)


class TestLowestSetBit:
    def test_values(self):
        assert lowest_set_bit(1) == 0
        assert lowest_set_bit(8) == 3
        assert lowest_set_bit(12) == 2
        assert lowest_set_bit(0) == 64


class TestF0Sketches:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: FMSketch(copies=32, seed=1),
            lambda: LogLogSketch(bucket_bits=8, seed=1),
            lambda: HyperLogLog(bucket_bits=10, seed=1),
            lambda: BJKSTSketch(epsilon=0.15, seed=1),
        ],
        ids=["fm", "loglog", "hll", "bjkst"],
    )
    def test_estimates_within_factor_two(self, factory):
        sketch = factory()
        truth = 5000
        sketch.extend(range(truth))
        assert truth / 2 <= sketch.estimate() <= truth * 2

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: FMSketch(copies=16, seed=2),
            lambda: LogLogSketch(bucket_bits=6, seed=2),
            lambda: HyperLogLog(bucket_bits=8, seed=2),
            lambda: BJKSTSketch(epsilon=0.2, seed=2),
        ],
        ids=["fm", "loglog", "hll", "bjkst"],
    )
    def test_duplicates_are_free(self, factory):
        a, b = factory(), factory()
        a.extend(range(500))
        b.extend(list(range(500)) * 5)
        assert a.estimate() == b.estimate()

    def test_hll_small_range_correction(self):
        hll = HyperLogLog(bucket_bits=10, seed=3)
        hll.extend(range(30))
        assert 15 <= hll.estimate() <= 60

    def test_bjkst_level_grows(self):
        sketch = BJKSTSketch(epsilon=0.5, seed=4)
        sketch.extend(range(10000))
        assert sketch.level > 0
        assert len(sketch._kept) <= sketch.capacity

    def test_validation(self):
        with pytest.raises(ParameterError):
            FMSketch(copies=0)
        with pytest.raises(ParameterError):
            LogLogSketch(bucket_bits=1)
        with pytest.raises(ParameterError):
            HyperLogLog(bucket_bits=2)
        with pytest.raises(ParameterError):
            BJKSTSketch(epsilon=2.0)

    def test_space_words(self):
        assert FMSketch(copies=8).space_words() == 9
        assert LogLogSketch(bucket_bits=4).space_words() == 17
        assert HyperLogLog(bucket_bits=4).space_words() == 17
        assert BJKSTSketch().space_words() >= 2


#: One factory per item-keyed summary: the four item sketches and the
#: min-rank sampler, whose point keys go through the same contract.
ITEM_SUMMARIES = {
    "fm": lambda: FMSketch(copies=8, seed=5),
    "loglog": lambda: LogLogSketch(bucket_bits=6, seed=5),
    "hll": lambda: HyperLogLog(bucket_bits=8, seed=5),
    "bjkst": lambda: BJKSTSketch(epsilon=0.3, seed=5),
    "minrank": lambda: MinRankL0Sampler(key=lambda p: p.vector[0], seed=5),
}


def snapshot(sketch):
    """The sketch's whole state (a custom-key min-rank sampler has no
    checkpoint, so its fields are compared directly)."""
    if isinstance(sketch, MinRankL0Sampler):
        return (
            sketch._count,
            set(sketch._seen_keys),
            sketch._best_rank,
            sketch._best,
        )
    return state_fingerprint(sketch)


class TestItemContract:
    """An item is an int, a non-NaN float, a str, bytes or a tuple of
    these (``item_key``); anything else is rejected before a sketch
    mutates."""

    @staticmethod
    def items(key):
        if key == "minrank":  # keyed by the first coordinate
            return [(float(i), 0.0) for i in range(40)]
        return [(float(i), 0.0) for i in range(20)] + list(range(20))

    @pytest.mark.parametrize("position", [0, 17, 39])
    @pytest.mark.parametrize("key", sorted(ITEM_SUMMARIES))
    def test_nan_anywhere_in_a_batch_is_rejected(self, key, position):
        sketch = ITEM_SUMMARIES[key]()
        sketch.process_many(self.items(key)[:10])
        before = snapshot(sketch)
        batch = self.items(key)
        nan = float("nan")
        if key == "minrank":
            # Finite coordinates, but a key that maps to NaN.
            sketch._key = lambda p: nan if p.vector[0] == 3.5 else p.vector[0]
            batch[position] = (3.5, 0.0)
        else:
            batch[position] = (nan, 0.0)
        with pytest.raises(ParameterError, match=f"point {position} "):
            sketch.process_many(batch)
        assert snapshot(sketch) == before
        with pytest.raises(ParameterError):
            sketch.insert(batch[position])
        assert snapshot(sketch) == before

    @pytest.mark.parametrize("key", ["fm", "loglog", "hll", "bjkst"])
    def test_non_items_are_rejected(self, key):
        sketch = ITEM_SUMMARIES[key]()
        before = state_fingerprint(sketch)
        for bad in (float("nan"), None, [1, 2], ("a", (1.0, float("nan")))):
            with pytest.raises(ParameterError):
                sketch.insert(bad)
            with pytest.raises(ParameterError, match="point 1 "):
                sketch.process_many([1, bad, 2])
        assert state_fingerprint(sketch) == before

    def test_keys_are_process_stable(self):
        # Numbers and tuples of numbers keep their builtin hash; a str
        # or bytes anywhere is keyed by its digest, so the key is the
        # same in every process.
        for item in (7, -1, 2.5, float("inf"), (1.0, -2), ((1, 2), 3.5)):
            assert item_key(item) == hash(item)
        assert item_key("ab") == item_key(b"ab")
        code = (
            "from repro.baselines.fm import item_key; "
            "print(item_key(('ab', 1.5, (b'c',))))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        keys = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={
                    **os.environ,
                    "PYTHONPATH": src,
                    "PYTHONHASHSEED": str(seed),
                },
            ).stdout
            for seed in (1, 2)
        }
        assert len(keys) == 1
