"""Tests for robust heavy hitters over near-duplicate groups."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.heavy_hitters import RobustHeavyHitters
from repro.errors import ParameterError


def noisy_points(center, n, rng, spread=0.15):
    return [(center + rng.uniform(-spread, spread),) for _ in range(n)]


class TestBasics:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RobustHeavyHitters(1.0, 1, epsilon=0.0)
        hh = RobustHeavyHitters(1.0, 1, epsilon=0.5)
        with pytest.raises(ParameterError):
            hh.heavy_hitters(phi=0.0)

    def test_dimension_check(self):
        hh = RobustHeavyHitters(1.0, 2, epsilon=0.5)
        with pytest.raises(ParameterError):
            hh.insert((1.0,))

    @pytest.mark.parametrize(
        "probe",
        [(math.nan, 0.0), (math.inf, 0.0), ("a", 0.0), (1e308, 0.0)],
        ids=["nan", "inf", "non-float", "cell-beyond-int64"],
    )
    def test_estimated_count_validates_probe(self, probe):
        # The probe is checked like an arriving point: a bad one raises
        # ParameterError instead of a bare ValueError / TypeError or a
        # silent 0.
        hh = RobustHeavyHitters(1.0, 2, epsilon=0.5, seed=0)
        hh.insert((0.0, 0.0))
        with pytest.raises(ParameterError):
            hh.estimated_count(probe)

    def test_capacity(self):
        assert RobustHeavyHitters(1.0, 1, epsilon=0.1).capacity == 10

    def test_counts_group_points_together(self):
        hh = RobustHeavyHitters(1.0, 1, epsilon=0.25, seed=0)
        rng = random.Random(0)
        hh.extend(noisy_points(0.0, 5, rng))
        hh.insert((50.0,))
        assert hh.estimated_count((0.05,)) == 5
        assert hh.estimated_count((50.0,)) == 1
        assert hh.estimated_count((999.0,)) == 0


class TestHeavyHitterDetection:
    def test_detects_the_heavy_group(self):
        hh = RobustHeavyHitters(1.0, 1, epsilon=0.1, seed=1)
        rng = random.Random(1)
        stream = noisy_points(0.0, 70, rng)
        for g in range(1, 30):
            stream += noisy_points(40.0 * g, 1, rng)
        rng.shuffle(stream)
        hh.extend(stream)
        hits = hh.heavy_hitters(phi=0.3)
        assert len(hits) == 1
        assert abs(hits[0].representative.vector[0]) < 1.0
        assert hits[0].count >= 70

    def test_never_misses_true_heavy_groups(self):
        """SpaceSaving guarantee: frequency > m/capacity is always kept."""
        for seed in range(10):
            hh = RobustHeavyHitters(1.0, 1, epsilon=0.2, seed=seed)
            rng = random.Random(seed)
            stream = noisy_points(0.0, 50, rng)  # 50% of the stream
            stream += [(40.0 * rng.randint(1, 60),) for _ in range(50)]
            rng.shuffle(stream)
            hh.extend(stream)
            hits = hh.heavy_hitters(phi=0.4)
            assert any(abs(h.representative.vector[0]) < 1.0 for h in hits)

    def test_overestimate_bounded(self):
        hh = RobustHeavyHitters(1.0, 1, epsilon=0.25, seed=2)
        rng = random.Random(2)
        stream = [(40.0 * rng.randint(0, 50),) for _ in range(200)]
        hh.extend(stream)
        m = hh.points_seen
        for hit in hh.heavy_hitters(phi=0.01):
            # SpaceSaving: error at most m / capacity.
            assert hit.error <= m / hh.capacity
            assert hit.guaranteed_count <= hit.count

    def test_eviction_keeps_capacity(self):
        hh = RobustHeavyHitters(1.0, 1, epsilon=0.25, seed=3)
        rng = random.Random(3)
        for g in range(100):
            hh.insert((40.0 * g + rng.uniform(0, 0.2),))
        assert hh.num_tracked <= hh.capacity

    def test_sorted_output(self):
        hh = RobustHeavyHitters(1.0, 1, epsilon=0.2, seed=4)
        rng = random.Random(4)
        stream = noisy_points(0.0, 30, rng) + noisy_points(50.0, 20, rng)
        rng.shuffle(stream)
        hh.extend(stream)
        hits = hh.heavy_hitters(phi=0.1)
        counts = [h.count for h in hits]
        assert counts == sorted(counts, reverse=True)

    def test_space_words(self):
        hh = RobustHeavyHitters(1.0, 2, epsilon=0.5, seed=5)
        hh.insert((0.0, 0.0))
        assert hh.space_words() > 0
