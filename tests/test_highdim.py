"""Tests for the Section 4 high-dimensional samplers and JL projection."""

from __future__ import annotations

import collections
import math
import random

import pytest

from repro.datasets.synthetic import sparse_high_dim
from repro.engine.equivalence import state_fingerprint
from repro.errors import CheckpointError, ParameterError
from repro.geometry.distance import distance
from repro.highdim.jl import JohnsonLindenstrauss, jl_dimension
from repro.highdim.sparse import HighDimSamplerIW, HighDimSamplerSW
from repro.metrics.accuracy import chi_square_uniformity
from repro.persist import dumps_summary, loads_summary
from repro.streams.point import StreamPoint
from repro.streams.windows import SequenceWindow


class TestJLDimension:
    def test_monotone_in_points(self):
        assert jl_dimension(10**6) > jl_dimension(100)

    def test_monotone_in_epsilon(self):
        assert jl_dimension(1000, epsilon=0.2) > jl_dimension(1000, epsilon=0.8)

    def test_validation(self):
        with pytest.raises(ParameterError):
            jl_dimension(0)
        with pytest.raises(ParameterError):
            jl_dimension(10, epsilon=1.5)


class TestJLProjection:
    def test_output_dim(self):
        proj = JohnsonLindenstrauss(50, 8, seed=0)
        assert len(proj.project([1.0] * 50)) == 8

    def test_dimension_check(self):
        proj = JohnsonLindenstrauss(50, 8, seed=0)
        with pytest.raises(ParameterError):
            proj.project([1.0] * 49)

    def test_batch_matches_single(self):
        proj = JohnsonLindenstrauss(10, 4, seed=1)
        vectors = [[float(i + j) for j in range(10)] for i in range(5)]
        batch = proj.project_all(vectors)
        singles = [proj.project(v) for v in vectors]
        for b, s in zip(batch, singles):
            assert b == pytest.approx(s)

    def test_distance_preservation_statistics(self):
        rng = random.Random(2)
        dim, target = 100, 30
        proj = JohnsonLindenstrauss(dim, target, seed=3)
        distortions = []
        for _ in range(50):
            u = tuple(rng.gauss(0, 1) for _ in range(dim))
            v = tuple(rng.gauss(0, 1) for _ in range(dim))
            original = distance(u, v)
            projected = distance(proj.project(u), proj.project(v))
            distortions.append(projected / original)
        mean = sum(distortions) / len(distortions)
        assert 0.8 < mean < 1.2
        assert all(0.4 < d < 1.9 for d in distortions)

    def test_empty_batch(self):
        proj = JohnsonLindenstrauss(5, 2, seed=0)
        assert proj.project_all([]) == []


class TestHighDimSamplerIW:
    def _stream(self, dim, num_groups, seed):
        vectors, labels, alpha = sparse_high_dim(
            num_groups, 3, dim, rng=random.Random(seed)
        )
        order = list(range(len(vectors)))
        random.Random(seed + 1).shuffle(order)
        points = [StreamPoint(vectors[j], i) for i, j in enumerate(order)]
        stream_labels = [labels[j] for j in order]
        return points, stream_labels, alpha

    def test_basic_sampling(self):
        points, labels, alpha = self._stream(10, 8, seed=0)
        sampler = HighDimSamplerIW(alpha, 10, seed=1)
        for p in points:
            sampler.insert(p)
        assert sampler.sample(random.Random(0)).dim == 10

    def test_grid_side_is_d_alpha(self):
        sampler = HighDimSamplerIW(0.5, 12, seed=0)
        assert sampler.config.grid.side == pytest.approx(6.0)

    def test_uniformity_high_dim(self):
        num_groups = 5
        counts = collections.Counter()
        query_rng = random.Random(1)
        for run in range(300):
            points, labels, alpha = self._stream(10, num_groups, seed=run)
            sampler = HighDimSamplerIW(alpha, 10, seed=run ^ 0x99)
            label_of = {}
            for p, label in zip(points, labels):
                label_of[p.index] = label
                sampler.insert(p)
            counts[label_of[sampler.sample(query_rng).index]] += 1
        _, p_value = chi_square_uniformity(
            [counts.get(g, 0) for g in range(num_groups)]
        )
        assert p_value > 1e-4

    def test_jl_projection_mode(self):
        points, labels, alpha = self._stream(30, 6, seed=5)
        sampler = HighDimSamplerIW(alpha, 30, seed=6, project_to=8)
        assert sampler.projection is not None
        assert sampler.native_dim == 30
        for p in points:
            sampler.insert(p)
        # Samples live in the projected space.
        assert sampler.sample(random.Random(0)).dim == 8

    @pytest.mark.parametrize("batch_size", [1, 3, 64, 10_000])
    def test_jl_batch_matches_per_point(self, batch_size):
        # extend/process_many project the chunk through the routine
        # insert uses; chunks below the vector threshold (1, 3) go
        # through the parent's own insert, never projected twice.
        points, _, alpha = self._stream(20, 40, seed=9)
        raw = [p.vector if p.index % 2 else p for p in points]
        per = HighDimSamplerIW(alpha, 20, seed=4, project_to=8)
        for point in raw:
            per.insert(point)
        bat = HighDimSamplerIW(alpha, 20, seed=4, project_to=8)
        assert bat.extend(raw, batch_size=batch_size) == len(raw)
        assert state_fingerprint(bat) == state_fingerprint(per)

    @pytest.mark.parametrize(
        "bad",
        [["x"] + [0.0] * 19, [math.nan] * 20, [0.0] * 8, [0.0] * 19],
        ids=["non-number", "nan", "projected-dim", "short"],
    )
    def test_jl_hostile_row_rejected_before_mutation(self, bad):
        points, _, alpha = self._stream(20, 12, seed=10)
        sampler = HighDimSamplerIW(alpha, 20, seed=4, project_to=8)
        sampler.extend(points[:20])
        before = state_fingerprint(sampler)
        with pytest.raises(ParameterError):
            sampler.insert(bad)
        chunk = [p.vector for p in points[20:26]]
        with pytest.raises(ParameterError, match="point 3"):
            sampler.process_many(chunk[:3] + [bad] + chunk[3:])
        assert state_fingerprint(sampler) == before

    def test_checkpoint_round_trips_without_projection(self):
        points, _, alpha = self._stream(12, 30, seed=11)
        sampler = HighDimSamplerIW(alpha, 12, seed=3)
        sampler.extend(points[:60])
        restored = HighDimSamplerIW.from_state(sampler.to_state())
        assert isinstance(restored, HighDimSamplerIW)
        assert restored.native_dim == 12 and restored.projection is None
        assert state_fingerprint(restored) == state_fingerprint(sampler)
        reloaded = loads_summary(dumps_summary(sampler))
        assert state_fingerprint(reloaded) == state_fingerprint(sampler)
        # Every copy continues the stream with the same decisions.
        for copy in (sampler, restored, reloaded):
            copy.extend(points[60:])
        assert state_fingerprint(restored) == state_fingerprint(sampler)
        assert state_fingerprint(reloaded) == state_fingerprint(sampler)

    def test_projecting_checkpoint_is_refused(self):
        # The state holds the projected space only: a restore would be a
        # plain 8-dim sampler that rejects the native 20-dim rows.
        points, _, alpha = self._stream(20, 12, seed=12)
        sampler = HighDimSamplerIW(alpha, 20, project_to=8, seed=3)
        sampler.extend(points)
        with pytest.raises(CheckpointError, match="projection"):
            sampler.to_state()
        with pytest.raises(CheckpointError, match="projection"):
            dumps_summary(sampler)

    def test_jl_target_must_reduce(self):
        with pytest.raises(ParameterError):
            HighDimSamplerIW(1.0, 10, project_to=10)

    def test_jl_auto_dimension(self):
        sampler = HighDimSamplerIW(1.0, 500, num_points=1000, jl_epsilon=0.5)
        assert sampler.projection is not None
        assert sampler.projection.output_dim < 500


class TestHighDimSamplerSW:
    def test_window_sampling(self):
        vectors, labels, alpha = sparse_high_dim(
            10, 2, 8, rng=random.Random(7)
        )
        sampler = HighDimSamplerSW(alpha, 8, SequenceWindow(10), seed=8)
        for i, v in enumerate(vectors):
            sampler.insert(StreamPoint(v, i))
        sample = sampler.sample(random.Random(0))
        assert sample.index > len(vectors) - 11

    def test_grid_side(self):
        sampler = HighDimSamplerSW(0.25, 16, SequenceWindow(8), seed=0)
        assert sampler._config.grid.side == pytest.approx(4.0)
