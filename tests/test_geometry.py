"""Tests for repro.geometry: distances, grid, adjacency search."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError, ParameterError
from repro.geometry.adjacency import (
    adjacent_cells,
    brute_force_adjacent_cells,
    collect_adjacent,
)
from repro.geometry.distance import distance, squared_distance, within_distance
from repro.geometry.grid import Grid

COORD = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)


class TestDistance:
    def test_squared(self):
        assert squared_distance((0.0, 0.0), (3.0, 4.0)) == 25.0

    def test_distance(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            distance((0.0,), (1.0, 2.0))
        with pytest.raises(DimensionMismatchError):
            within_distance((0.0,), (1.0, 2.0), 1.0)

    def test_within_boundary_inclusive(self):
        assert within_distance((0.0,), (1.0,), 1.0)
        assert not within_distance((0.0,), (1.0,), 0.999)

    @given(st.lists(COORD, min_size=1, max_size=6), st.floats(min_value=0, max_value=50))
    @settings(max_examples=200)
    def test_within_matches_exact(self, coords, threshold):
        u = tuple(coords)
        v = tuple(c + 1.0 for c in coords)
        expected = distance(u, v) <= threshold
        # Guard against float round-off at the exact boundary.
        if abs(distance(u, v) - threshold) > 1e-9:
            assert within_distance(u, v, threshold) == expected


class TestGrid:
    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            Grid(side=0.0, dim=2)
        with pytest.raises(ParameterError):
            Grid(side=1.0, dim=0)
        with pytest.raises(ParameterError):
            Grid(side=1.0, dim=1, offset=(2.0,))
        with pytest.raises(DimensionMismatchError):
            Grid(side=1.0, dim=2, offset=(0.0,))

    def test_cell_of_origin_grid(self):
        grid = Grid(side=1.0, dim=2, offset=(0.0, 0.0))
        assert grid.cell_of((0.5, 1.5)) == (0, 1)
        assert grid.cell_of((-0.1, 0.0)) == (-1, 0)

    def test_cell_of_respects_offset(self):
        grid = Grid(side=1.0, dim=1, offset=(0.5,))
        assert grid.cell_of((0.4,)) == (-1,)
        assert grid.cell_of((0.6,)) == (0,)

    def test_cell_id_deterministic_and_spread(self):
        grid = Grid(side=1.0, dim=2, offset=(0.0, 0.0))
        ids = {grid.cell_id((i, j)) for i in range(30) for j in range(30)}
        assert len(ids) == 900
        assert grid.cell_id((3, 4)) == grid.cell_id((3, 4))

    def test_lower_corner_roundtrip(self):
        grid = Grid(side=2.0, dim=2, offset=(0.5, 1.0))
        cell = grid.cell_of((3.3, 4.4))
        corner = grid.lower_corner(cell)
        assert corner[0] <= 3.3 < corner[0] + 2.0
        assert corner[1] <= 4.4 < corner[1] + 2.0

    def test_fractional_position_in_range(self):
        rng = random.Random(1)
        grid = Grid(side=1.5, dim=3, rng=rng)
        for _ in range(100):
            p = tuple(rng.uniform(-20, 20) for _ in range(3))
            for frac in grid.fractional_position(p):
                assert 0.0 <= frac <= 1.5

    def test_min_squared_distance_zero_for_own_cell(self):
        grid = Grid(side=1.0, dim=2, offset=(0.0, 0.0))
        p = (0.5, 0.5)
        assert grid.min_squared_distance(p, grid.cell_of(p)) == 0.0

    def test_min_squared_distance_neighbour(self):
        grid = Grid(side=1.0, dim=1, offset=(0.0,))
        assert grid.min_squared_distance((0.25,), (1,)) == pytest.approx(0.5625)

    def test_random_offset_in_range(self):
        grid = Grid(side=2.0, dim=4, rng=random.Random(0))
        assert all(0 <= o < 2.0 for o in grid.offset)

    @given(st.lists(COORD, min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_point_is_inside_its_cell(self, coords):
        dim = len(coords)
        grid = Grid(side=1.25, dim=dim, rng=random.Random(3))
        cell = grid.cell_of(coords)
        assert grid.min_squared_distance(coords, cell) == 0.0


class TestAdjacency:
    def _check_against_brute_force(self, grid, point, radius):
        fast = set(collect_adjacent(grid, point, radius))
        slow = brute_force_adjacent_cells(grid, point, radius)
        # Allow disagreement only within float noise of the boundary.
        for cell in fast.symmetric_difference(slow):
            boundary_gap = abs(
                math.sqrt(grid.min_squared_distance(point, cell)) - radius
            )
            assert boundary_gap < 1e-6, (cell, boundary_gap)

    def test_contains_own_cell(self):
        grid = Grid(side=1.0, dim=2, offset=(0.0, 0.0))
        p = (0.5, 0.5)
        assert grid.cell_of(p) in collect_adjacent(grid, p, 0.1)

    def test_1d_exact(self):
        grid = Grid(side=1.0, dim=1, offset=(0.0,))
        assert sorted(adjacent_cells(grid, (0.5,), 0.6)) == [(-1,), (0,), (1,)]
        assert sorted(adjacent_cells(grid, (0.5,), 0.4)) == [(0,)]

    def test_radius_spanning_multiple_cells(self):
        grid = Grid(side=1.0, dim=1, offset=(0.0,))
        cells = sorted(adjacent_cells(grid, (0.5,), 2.6))
        assert cells == [(-3,), (-2,), (-1,), (0,), (1,), (2,), (3,)]

    def test_negative_radius_empty(self):
        grid = Grid(side=1.0, dim=1, offset=(0.0,))
        assert list(adjacent_cells(grid, (0.5,), -1.0)) == []

    def test_matches_brute_force_2d_grid_small_side(self):
        rng = random.Random(5)
        grid = Grid(side=0.5, dim=2, rng=rng)
        for _ in range(50):
            p = tuple(rng.uniform(-5, 5) for _ in range(2))
            self._check_against_brute_force(grid, p, 0.7)

    def test_matches_brute_force_high_side(self):
        rng = random.Random(6)
        grid = Grid(side=6.0, dim=3, rng=rng)
        for _ in range(50):
            p = tuple(rng.uniform(-20, 20) for _ in range(3))
            self._check_against_brute_force(grid, p, 1.0)

    @given(
        st.lists(COORD, min_size=1, max_size=3),
        st.floats(min_value=0.01, max_value=3.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_property(self, coords, radius, seed):
        grid = Grid(side=1.1, dim=len(coords), rng=random.Random(seed))
        self._check_against_brute_force(grid, tuple(coords), radius)

    def test_all_cells_within_radius(self):
        rng = random.Random(9)
        grid = Grid(side=2.0, dim=2, rng=rng)
        p = (3.7, -1.2)
        for cell in collect_adjacent(grid, p, 1.5):
            assert grid.min_squared_distance(p, cell) <= 1.5**2 + 1e-9
