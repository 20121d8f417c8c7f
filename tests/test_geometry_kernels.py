"""Differential tests: vectorised geometry kernels vs their scalar oracles.

Every kernel of :mod:`repro.geometry.kernels` (and the
:class:`~repro.core.chunk_geometry.ChunkGeometry` precompute built on
them) must be **bit-identical** to the scalar code it replaces - cells,
hashes and adjacency tuples feed ``state_fingerprint``, so a 1-ulp
divergence is a correctness bug, not a rounding nit.  The streams here
are adversarial by construction: cell-boundary points (exact multiples
of the grid side, with +-1-ulp perturbations), negative coordinates,
huge coordinates, and dimensions 1-10 of the vectorised adjacency
enumeration, which serves every dimension.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import CandidateRecord, SamplerConfig, check_vector
from repro.core.chunk_geometry import (
    MIN_VECTOR_CHUNK,
    ChunkGeometry,
    chunk_geometry_for,
    prepare_chunk,
)
from repro.errors import DimensionMismatchError, ParameterError
from repro.geometry import kernels
from repro.geometry.adjacency import (
    brute_force_adjacent_cells,
    collect_adjacent,
)
from repro.geometry.grid import Grid
from repro.hashing.kwise import MERSENNE_P, KWiseHash
from repro.hashing.mix import SplitMix64, splitmix64
from repro.streams.point import StreamPoint

MASK64 = (1 << 64) - 1


def boundary_points(grid: Grid, count: int, seed: int) -> list[tuple]:
    """Adversarial points: uniform, lattice-exact, and 1-ulp off-lattice."""
    rng = random.Random(seed)
    dim = grid.dim
    side = grid.side
    points = []
    for _ in range(count):
        kind = rng.randrange(4)
        vector = []
        for axis in range(dim):
            if kind == 0:
                value = rng.uniform(-60.0, 60.0)
            else:
                value = grid.offset[axis] + rng.randrange(-40, 40) * side
                if kind == 2:
                    value = math.nextafter(value, math.inf)
                elif kind == 3:
                    value = math.nextafter(value, -math.inf)
            vector.append(value)
        points.append(tuple(vector))
    return points


def face_points(grid: Grid, count: int, seed: int) -> list[tuple]:
    """Points with every axis uniform, on a cell face, or one ulp off it."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        vector = []
        for axis in range(grid.dim):
            kind = rng.randrange(4)
            value = grid.offset[axis] + rng.randrange(-40, 40) * grid.side
            if kind == 0:
                value = rng.uniform(-60.0, 60.0)
            elif kind == 2:
                value = math.nextafter(value, math.inf)
            elif kind == 3:
                value = math.nextafter(value, -math.inf)
            vector.append(value)
        points.append(tuple(vector))
    return points


#: Side/alpha ratios the adjacency kernel is checked at (plus ``dim``),
#: and per dimension the finest one the scalar oracle checks in time.
SIDE_RATIOS = (0.1, 1 / 3, 0.5, 1 / math.sqrt(2), 1.0, 2.0)
RATIO_FLOOR = {
    1: 0.1, 2: 0.1, 3: 0.1, 4: 1 / 3, 5: 1 / 3,
    6: 0.5, 7: 1 / math.sqrt(2), 8: 1 / math.sqrt(2), 9: 1.0, 10: 1.0,
}


class TestHashKernels:
    def test_int_hash_lanes_match_python_hash(self):
        values = [0, 1, -1, -2, 2, (1 << 61) - 1, -((1 << 61) - 1),
                  (1 << 61), -(1 << 61), 1234567891234, -987654321,
                  (1 << 62) - 1, -((1 << 62) - 1)]
        lanes = kernels.int_hash_lanes(np.array(values, dtype=np.int64))
        for value, lane in zip(values, lanes.tolist()):
            assert (hash(value) & MASK64) == lane, value

    def test_tuple_hashes_match_python_hash(self):
        rng = random.Random(1)
        for dim in (1, 2, 3, 4, 8):
            rows = [
                tuple(
                    rng.randrange(-(1 << 61), 1 << 61) for _ in range(dim)
                )
                for _ in range(200)
            ]
            rows += [(0,) * dim, (-1,) * dim, ((1 << 61) - 1,) * dim]
            hashed = kernels.tuple_hashes(np.array(rows, dtype=np.int64))
            for row, value in zip(rows, hashed.tolist()):
                assert (hash(row) & MASK64) == value, row

    def test_splitmix64_chunk_matches_scalar(self):
        rng = random.Random(2)
        keys = [rng.randrange(1 << 64) for _ in range(500)] + [0, MASK64]
        out = kernels.splitmix64_chunk(np.array(keys, dtype=np.uint64))
        assert out.tolist() == [splitmix64(k) for k in keys]

    def test_cell_ids_chunk_matches_grid_cell_id(self):
        grid = Grid(side=0.5, dim=3, offset=(0.1, 0.2, 0.3))
        rng = random.Random(3)
        cells = [
            tuple(rng.randrange(-1000, 1000) for _ in range(3))
            for _ in range(300)
        ]
        ids = kernels.cell_ids_chunk(np.array(cells, dtype=np.int64))
        assert ids.tolist() == [grid.cell_id(c) for c in cells]

    def test_splitmix_many_chunk_matches_scalar(self):
        base = SplitMix64(seed=99)
        keys = [random.Random(4).randrange(1 << 64) for _ in range(256)]
        arr = base.many_chunk(np.array(keys, dtype=np.uint64))
        assert arr.tolist() == [base(k) for k in keys]

    @pytest.mark.parametrize("k", [2, 20, 32])
    def test_kwise_many_chunk_matches_scalar(self, k):
        p = MERSENNE_P
        rng = random.Random(k)
        edges = [0, p - 1, p, p + 1, 1 << 61, MASK64]
        keys = edges + [rng.randrange(1 << 64) for _ in range(2000)]
        for seed in range(3):
            base = KWiseHash(k=k, seed=seed)
            out = base.many_chunk(np.array(keys, dtype=np.uint64))
            assert out.dtype == np.uint64
            assert out.tolist() == [base(key) for key in keys]

    def test_kwise_many_chunk_extreme_coefficients(self):
        # All coefficients p - 1: every Horner step carries the largest
        # partial products and the most carries out of the low word.
        p = MERSENNE_P
        base = KWiseHash.from_coefficients((p - 1, p - 1, p - 1))
        keys = [0, 1, 2, p - 1, p + 1, MASK64] + list(range(3, 500))
        out = base.many_chunk(np.array(keys, dtype=np.uint64))
        assert out.tolist() == [base(key) for key in keys]


class TestCellKernels:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    def test_chunk_cells_and_hashes_match_grid(self, dim):
        config = SamplerConfig.create(1.0, dim, seed=dim)
        grid = config.grid
        points = boundary_points(grid, 400, seed=dim)
        geom = chunk_geometry_for(config, points)
        assert geom is not None and geom.n == len(points)
        for index, point in enumerate(points):
            cell = grid.cell_of(point)
            assert geom.cell_at(index) == cell
            assert geom.cell_hashes[index] == config.cell_hash(cell)
            assert (
                tuple(geom.fracs[index].tolist())
                == grid.fractional_position(point)
            )

    def test_kwise_config_hashes_match(self):
        config = SamplerConfig.create(1.0, 2, seed=9, kwise=8)
        points = boundary_points(config.grid, 200, seed=9)
        geom = chunk_geometry_for(config, points)
        for index, point in enumerate(points):
            assert geom.cell_hashes[index] == config.cell_hash(
                config.grid.cell_of(point)
            )

    @pytest.mark.parametrize("kwise", [None, 20])
    def test_rebuilt_chunk_hashes_identical(self, kwise):
        # Geometry is a pure function of the chunk and the config: a
        # second build of the same chunk yields the same hashes.
        config = SamplerConfig.create(1.0, 2, seed=11, kwise=kwise)
        points = boundary_points(config.grid, 100, seed=11)
        first = chunk_geometry_for(config, points)
        second = chunk_geometry_for(config, points)
        assert first.cell_hashes == second.cell_hashes
        assert first.cell_hashes == [
            config.cell_hash(config.grid.cell_of(point)) for point in points
        ]

    def test_nonfinite_point_rejects_chunk(self):
        config = SamplerConfig.create(1.0, 2, seed=13)
        points = boundary_points(config.grid, 50, seed=13)
        points[20] = (float("nan"), 1.0)
        with pytest.raises(ParameterError, match="point 20 has a non-finite"):
            chunk_geometry_for(config, points)
        # The scalar check of chunks below MIN_VECTOR_CHUNK agrees.
        with pytest.raises(ParameterError, match="point 1 has a non-finite"):
            chunk_geometry_for(config, points[19:21])

    def test_huge_coordinates_reject_chunk(self):
        config = SamplerConfig.create(1.0, 1, seed=17)
        points = [(float(i),) for i in range(30)] + [(1e300,)]
        with pytest.raises(ParameterError, match=r"point 30 .*int64 range"):
            chunk_geometry_for(config, points)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scalar_and_vector_checks_agree_at_the_limit(self, sign):
        # Around the first magnitude whose cell index reaches 2^62, the
        # vectorised mask and the scalar check accept the same points.
        config = SamplerConfig.create(1.0, 2, seed=23)
        grid = config.grid
        edge = grid.offset[0] + sign * kernels.COORD_LIMIT * grid.side
        value = edge
        for _ in range(8):
            value = math.nextafter(value, -sign * math.inf)
        verdicts = []
        for _ in range(16):
            chunk = [(0.0, 0.0)] * MIN_VECTOR_CHUNK + [(value, 0.0)]
            try:
                chunk_geometry_for(config, chunk)
                vector_ok = True
            except ParameterError:
                vector_ok = False
            try:
                check_vector(grid, (value, 0.0))
                scalar_ok = True
            except ParameterError:
                scalar_ok = False
            assert vector_ok == scalar_ok, value
            verdicts.append(scalar_ok)
            value = math.nextafter(value, sign * math.inf)
        assert verdicts[0] and not verdicts[-1]  # the edge was crossed

    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False
            ),
            min_size=8,
            max_size=40,
        ),
        st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_floor_division_property(self, values, seed):
        config = SamplerConfig.create(1.0, 1, seed=seed)
        grid = config.grid
        points = [(v,) for v in values]
        geom = chunk_geometry_for(config, points)
        assert geom is not None
        for index, point in enumerate(points):
            assert geom.cell_at(index) == grid.cell_of(point)


class TestAdjacencyKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_collect_adjacent_cells_and_order(self, dim):
        config = SamplerConfig.create(1.0, dim, seed=21 + dim)
        grid = config.grid
        points = boundary_points(grid, 150, seed=21 + dim)
        geom = chunk_geometry_for(config, points)
        flat, counts = kernels.adjacent_cells_chunk(
            geom._coords, geom.fracs, grid.side, config.alpha
        )
        position = 0
        flat_cells = list(map(tuple, flat.tolist()))
        for index, point in enumerate(points):
            count = int(counts[index])
            got = flat_cells[position : position + count]
            position += count
            want = collect_adjacent(
                grid, point, config.alpha, base_cell=grid.cell_of(point)
            )
            assert got == want, (dim, index)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_brute_force_oracle(self, dim):
        # Uniform points (no 1-ulp lattice adversaries: at those, the
        # scalar DFS itself can differ from the exact-distance oracle by
        # an ulp, and the kernel's contract is the DFS).
        config = SamplerConfig.create(1.0, dim, seed=71 + dim)
        grid = config.grid
        rng = random.Random(71 + dim)
        points = [
            tuple(rng.uniform(-30, 30) for _ in range(dim))
            for _ in range(60)
        ]
        geom = chunk_geometry_for(config, points)
        flat, counts = kernels.adjacent_cells_chunk(
            geom._coords, geom.fracs, grid.side, config.alpha
        )
        flat_cells = list(map(tuple, flat.tolist()))
        position = 0
        for index, point in enumerate(points):
            count = int(counts[index])
            got = set(flat_cells[position : position + count])
            position += count
            assert got == brute_force_adjacent_cells(
                grid, point, config.alpha
            )

    def test_offset_table_covers_float_floor_rounding(self):
        # Regression: 1.0 // 0.1 == 9.0 in floats, but the scalar
        # _axis_moves loop still admits offset 10 (fl(10 * 0.1) == 1.0
        # fits the budget); the kernel's offset table must carry the
        # same headroom or it silently drops the outermost cell.
        grid = Grid(side=0.1, dim=1, offset=(0.0,))
        points = [(0.5,), (0.0,), (0.05,), (-0.31,)]
        coords = np.array(
            [grid.cell_of(p) for p in points], dtype=np.int64
        )
        fracs = np.array(
            [grid.fractional_position(p) for p in points], dtype=np.float64
        )
        flat, counts = kernels.adjacent_cells_chunk(coords, fracs, 0.1, 1.0)
        flat_cells = list(map(tuple, flat.tolist()))
        position = 0
        for index, point in enumerate(points):
            count = int(counts[index])
            got = flat_cells[position : position + count]
            position += count
            assert got == collect_adjacent(grid, point, 1.0)

    @pytest.mark.parametrize("side,radius", [(0.25, 1.0), (1.0, 1.0), (3.0, 1.0)])
    def test_multi_step_offsets(self, side, radius):
        # side < radius forces |offset| >= 2 moves per axis.
        grid = Grid(side=side, dim=2, offset=(0.1, 0.05))
        rng = random.Random(int(side * 100))
        points = [
            (rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(80)
        ]
        coords = np.array([grid.cell_of(p) for p in points], dtype=np.int64)
        fracs = np.array(
            [grid.fractional_position(p) for p in points], dtype=np.float64
        )
        flat, counts = kernels.adjacent_cells_chunk(
            coords, fracs, side, radius
        )
        flat_cells = list(map(tuple, flat.tolist()))
        position = 0
        for index, point in enumerate(points):
            count = int(counts[index])
            got = flat_cells[position : position + count]
            position += count
            assert got == collect_adjacent(grid, point, radius)

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_matches_collect_adjacent_at_every_side_ratio(self, dim):
        # Side/alpha ratios from multi-step (0.1, where fl(10 * 0.1)
        # == 1.0 admits the move 1.0 // 0.1 == 9.0 would miss) to the
        # Section 4 side d * alpha, with every axis on, or one ulp
        # either side of, a cell face.  Finer ratios than the floor put
        # 10^4+ cells in one adj(p) at that dim - beyond what the scalar
        # oracle checks in test time.
        for ratio in SIDE_RATIOS + (float(dim),):
            if ratio < RATIO_FLOOR[dim]:
                continue
            config = SamplerConfig.create(
                1.0, dim, seed=dim * 13 + 1, grid_side=ratio
            )
            grid = config.grid
            points = face_points(grid, 24, seed=dim * 31 + int(ratio * 97))
            geom = chunk_geometry_for(config, points)
            flat, counts = kernels.adjacent_cells_chunk(
                geom._coords, geom.fracs, grid.side, config.alpha
            )
            flat_cells = list(map(tuple, flat.tolist()))
            position = 0
            for index, point in enumerate(points):
                count = int(counts[index])
                got = flat_cells[position : position + count]
                position += count
                want = collect_adjacent(
                    grid, point, config.alpha, base_cell=grid.cell_of(point)
                )
                assert got == want, (dim, ratio, index)

    def test_declined_chunk_served_by_scalar_dfs(self, monkeypatch):
        # At side alpha/20 one point extends 43 candidates along its
        # first axis, over a table bound lowered to 40: not even one row
        # fits, the chunk's enumeration declines, and every adj(p) comes
        # from the scalar DFS with its survival exponent left for the
        # record to derive.
        monkeypatch.setattr(kernels, "_MAX_ADJACENCY_TABLE", 40)
        config = SamplerConfig.create(1.0, 2, seed=43, grid_side=0.05)
        rng = random.Random(43)
        points = [
            (rng.uniform(-300, 300), rng.uniform(-300, 300))
            for _ in range(4096)
        ]
        geom = chunk_geometry_for(config, points)
        assert geom.survival_exponents() is None
        for index, point in enumerate(points[:40]):
            assert geom.adj_hashes(index) == config.adj_hashes(
                point, cell=config.grid.cell_of(point)
            )
            assert geom.adj_tz(index) == -1

    @pytest.mark.parametrize("kwise", [None, 20])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_product_matches_scalar_adjacency(self, dim, kwise):
        # Every point's adj(p) tuple equals the scalar DFS and its
        # exponent equals the record's own survival_exponent().
        config = SamplerConfig.create(1.0, dim, seed=41 + dim, kwise=kwise)
        points = boundary_points(config.grid, 200, seed=41 + dim)
        geom = chunk_geometry_for(config, points)
        for index, point in enumerate(points):
            hashes = geom.adj_hashes(index)
            assert hashes == config.adj_hashes(
                point, cell=config.grid.cell_of(point)
            )
            record = CandidateRecord(
                representative=StreamPoint(point, index),
                cell=config.grid.cell_of(point),
                cell_hash=geom.cell_hashes[index],
                adj_hashes=hashes,
                accepted=True,
                last=StreamPoint(point, index),
            )
            assert geom.adj_tz(index) == record.survival_exponent()

    @pytest.mark.parametrize("dim", [2, 5])
    def test_product_is_order_independent(self, dim):
        # Whichever of adj_tz, adj_hashes and survival_exponents is
        # asked first builds the one product; the answers do not depend
        # on the order.
        config = SamplerConfig.create(1.0, dim, seed=91 + dim)
        points = boundary_points(config.grid, 200, seed=91 + dim)
        geom = chunk_geometry_for(config, points)
        exponents = [geom.adj_tz(index) for index in range(len(points))]
        tuples = [geom.adj_hashes(index) for index in range(len(points))]
        assert geom.survival_exponents() == exponents
        fresh = chunk_geometry_for(config, points)
        assert [
            fresh.adj_hashes(index) for index in range(len(points))
        ] == tuples
        assert [
            fresh.adj_tz(index) for index in range(len(points))
        ] == exponents
        assert min(exponents) >= 0

    def test_max_trailing_zeros_edge_values(self):
        hashes = np.array(
            [0, 1, 2, 1 << 63, MASK64, 12, 40, 0, 8], dtype=np.uint64
        )
        counts = np.array([1, 2, 0, 2, 1, 3])
        assert kernels.max_trailing_zeros(hashes, counts).tolist() == [
            64, 1, 0, 63, 2, 64,
        ]


class TestSurvivalExponents:
    @pytest.mark.parametrize("kwise", [None, 20])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_verdict_matches_scalar_adjacency_oracle(self, dim, kwise):
        # Exact in both directions at every rate: exponent >= k iff some
        # cell of adj(p) is sampled at rate 2^k, ulp adversaries
        # included.
        config = SamplerConfig.create(1.0, dim, seed=dim * 53 + 3, kwise=kwise)
        grid = config.grid
        points = face_points(grid, 300, seed=dim * 7)
        exponents = chunk_geometry_for(config, points).survival_exponents()
        assert exponents is not None
        verdicts = set()
        for mask in (1, 7, 63, 4095):
            rate_exponent = mask.bit_length()
            for point, exponent in zip(points, exponents):
                oracle = any(
                    value & mask == 0
                    for value in config.adj_hashes(
                        point, cell=grid.cell_of(point)
                    )
                )
                assert (exponent >= rate_exponent) == oracle, (mask, point)
                verdicts.add(oracle)
        assert verdicts == {True, False}


class TestMaterializeChunk:
    def test_valid_prefix_and_dim_error(self):
        # The error names the first bad position; no partial chunk is
        # returned for the valid prefix before it.
        config2 = SamplerConfig.create(1.0, 2, seed=1)
        with pytest.raises(
            DimensionMismatchError, match="point 2 has dimension 3, expected 2"
        ):
            chunk_geometry_for(
                config2,
                [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0)],
            )
        geometry = chunk_geometry_for(config2, [(0.0, 1.0), (2.0, 3.0)])
        pts = geometry.stream_points(10)
        assert [p.index for p in pts] == [10, 11]
        assert geometry.vectors == [(0.0, 1.0), (2.0, 3.0)]

    def test_coercion_error_stops_at_offender(self):
        with pytest.raises(
            ParameterError, match="point 1 is not a sequence of numbers"
        ):
            chunk_geometry_for(
                SamplerConfig.create(1.0, 1, seed=1),
                [(0.0,), ("bad",), (1.0,)],
            )

    @pytest.mark.parametrize("sampler", ["infinite", "sliding"])
    @pytest.mark.parametrize("builder", ["array-chunk", "chunk_geometry_for"])
    @pytest.mark.parametrize(
        "change", ["other-chunk", "interior-point", "interior-nan"]
    )
    def test_stale_geometry_rejected(self, sampler, builder, change):
        # A geometry built for a different chunk must be refused (and
        # recomputed), not silently corrupt the sampler's state - also
        # when the chunks share their length and both endpoints, and
        # the one interior point that differs would fail the boundary.
        from repro.core.infinite_window import RobustL0SamplerIW
        from repro.core.sliding_window import RobustL0SamplerSW
        from repro.engine.equivalence import state_fingerprint
        from repro.streams.windows import SequenceWindow

        config = SamplerConfig.create(1.0, 2, seed=1)

        def make():
            if sampler == "infinite":
                return RobustL0SamplerIW(1.0, 2, config=config)
            return RobustL0SamplerSW(
                1.0, 2, SequenceWindow(40), config=config
            )

        build = {
            "array-chunk": lambda cfg, rows: chunk_geometry_for(
                cfg, np.array(rows)
            ),
            "chunk_geometry_for": chunk_geometry_for,
        }[builder]
        rng = random.Random(0)
        chunk_a = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(64)]
        if change == "other-chunk":
            chunk_b = [
                (rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(64)
            ]
        else:
            chunk_b = list(chunk_a)
            chunk_b[31] = (
                (math.nan, 0.0)
                if change == "interior-nan"
                else (rng.uniform(0, 100), rng.uniform(0, 100))
            )
        stale = make()
        geometry_a = build(config, chunk_a)
        assert geometry_a.valid_for(config, chunk_a)
        assert not geometry_a.valid_for(config, chunk_b)
        clean = make()
        if change == "interior-nan":
            before = state_fingerprint(stale)
            with pytest.raises(ParameterError, match="point 31 "):
                stale.process_many(chunk_b, geometry=geometry_a)
            assert state_fingerprint(stale) == before
            assert before == state_fingerprint(clean)
            return
        stale.process_many(chunk_b, geometry=geometry_a)
        clean.process_many(chunk_b)
        assert state_fingerprint(stale) == state_fingerprint(clean)

    def test_generator_input_streams_in_bounded_chunks(self):
        # process_many on a raw generator must not materialise the whole
        # stream (it chunks internally at DEFAULT_BATCH_SIZE) and must
        # stay state-equivalent to per-point ingestion.
        from repro.core.infinite_window import RobustL0SamplerIW
        from repro.engine.equivalence import state_fingerprint

        def stream():
            rng = random.Random(5)
            for _ in range(3000):
                yield (rng.uniform(0, 50), rng.uniform(0, 50))

        streamed = RobustL0SamplerIW(1.0, 2, seed=2)
        assert streamed.process_many(stream()) == 3000
        reference = RobustL0SamplerIW(1.0, 2, seed=2)
        for point in stream():
            reference.insert(point)
        assert state_fingerprint(streamed) == state_fingerprint(reference)

    def test_geometry_starts_at_min_vector_chunk(self):
        config = SamplerConfig.create(1.0, 2, seed=1)
        points = boundary_points(config.grid, 50, seed=1)
        small = points[: MIN_VECTOR_CHUNK - 1]
        assert prepare_chunk(config, small, 0)[2] is None
        assert isinstance(prepare_chunk(config, points, 0)[2], ChunkGeometry)
