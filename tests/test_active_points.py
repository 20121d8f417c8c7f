"""The infinite-window batch loop visits only a chunk's active points.

``RobustL0SamplerIW.process_many`` picks, in one numpy pass
(:func:`repro.core.infinite_window.active_indices`), the points
``insert`` would do anything with besides counting them, and builds a
:class:`~repro.streams.point.StreamPoint` for those alone.  The filter
must be invisible: every case below compares the batch path with
per-point ``insert`` on ``state_fingerprint``, checkpoint bytes and the
store's index invariant.  The guards at the end pin the cost side -
that skipped points are never materialised and that a chunk of pure
duplicates never pays for the ``adj(p)`` product.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import SamplerConfig
from repro.core.chunk_geometry import (
    MIN_VECTOR_CHUNK,
    ChunkGeometry,
    chunk_geometry_for,
)
from repro.core.f0_infinite import RobustF0EstimatorIW
from repro.core.infinite_window import RobustL0SamplerIW, active_indices
from repro.core.ksample import KDistinctSampler
from repro.engine.equivalence import state_fingerprint
from repro.errors import ParameterError
from repro.geometry import kernels
from repro.persist import dumps_summary
from repro.streams.point import StreamPoint

from stream_generators import noisy_grid_stream
from test_engine import spy_adjacency_enumerations


def stores_of(summary):
    """The candidate stores of a sampler or of a multi-copy wrapper."""
    for name in ("_samplers", "_copies"):
        if hasattr(summary, name):
            return [copy._store for copy in getattr(summary, name)]
    return [summary._store]


def assert_batch_matches_insert(make, chunks, *, prefix=()):
    """Feed ``prefix`` then ``chunks`` per point and chunk by chunk;
    the two summaries must agree on fingerprint and checkpoint bytes,
    and the batched one's index must be intact.  Returns both."""
    per, bat = make(), make()
    for point in list(prefix) + [p for chunk in chunks for p in chunk]:
        per.insert(point)
    if prefix:
        bat.process_many(list(prefix))
    for chunk in chunks:
        bat.process_many(chunk)
    assert state_fingerprint(per) == state_fingerprint(bat)
    assert dumps_summary(per) == dumps_summary(bat)
    for store in stores_of(bat):
        store.check_index_integrity()
    return per, bat


def spy_stream_points(monkeypatch) -> list[list[int]]:
    """Record the positions each ``ChunkGeometry.stream_points`` call
    materialises."""
    calls: list[list[int]] = []
    original = ChunkGeometry.stream_points

    def spy(self, next_index, indices=None):
        points = original(self, next_index, indices)
        calls.append(
            list(range(self.n)) if indices is None else list(indices)
        )
        return points

    monkeypatch.setattr(ChunkGeometry, "stream_points", spy)
    return calls


def is_candidate(config, vector, mask) -> bool:
    """The scalar founding test: a sampled cell in ``adj(p)``."""
    cell = config.grid.cell_of(vector)
    return any(
        value & mask == 0 for value in config.adj_hashes(vector, cell=cell)
    )


def raise_rate(sampler, rng, at_least):
    """Feed far-apart distinct points until the rate reaches
    ``at_least``; returns them."""
    fed = []
    while sampler.rate_denominator < at_least:
        point = tuple(rng.uniform(-5000.0, 5000.0) for _ in range(sampler.dim))
        sampler.insert(point)
        fed.append(point)
    return fed


# --------------------------------------------------------------------- #
# differential: the filter is invisible in state
# --------------------------------------------------------------------- #


@st.composite
def layouts(draw):
    """A clustered stream with neighbours one cell over, StreamPoint
    items with explicit times mixed in, and a chunking with tiny and
    large chunks."""
    dim = draw(st.integers(1, 3))
    groups = draw(st.integers(1, 40))
    n = draw(st.integers(1, 240))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tagged = draw(st.floats(0.0, 1.0))
    points = []
    for position in range(n):
        group = rng.randrange(groups)
        # Jitter up to 1.6 alpha: some points land beside a group's
        # representative, in a cell its founding registered.
        vector = tuple(
            12.0 * ((group * (axis + 3)) % 17) + rng.uniform(0.0, 1.6)
            for axis in range(dim)
        )
        if rng.random() < tagged:
            vector = StreamPoint(vector, position, time=0.5 * position + 0.25)
        points.append(vector)
    sizes = draw(st.lists(st.integers(1, 64), min_size=1, max_size=12))
    chunks, start = [], 0
    for size in sizes * (n // max(sum(sizes), 1) + 1):
        if start >= n:
            break
        chunks.append(points[start : start + size])
        start += size
    capacity = draw(st.integers(1, 6))
    track = draw(st.booleans())
    return dim, chunks, capacity, track


@given(layouts())
@settings(max_examples=60, deadline=None)
def test_filter_matches_insert(layout):
    # A small accept capacity forces rate doublings inside chunks.
    dim, chunks, capacity, track = layout

    def make():
        return RobustL0SamplerIW(
            1.0, dim, seed=7, accept_capacity=capacity, track_members=track
        )

    _, bat = assert_batch_matches_insert(make, chunks)
    items = {
        p.index: p
        for chunk in chunks
        for p in chunk
        if isinstance(p, StreamPoint)
    }
    for record in bat._store.records():
        item = items.get(record.representative.index)
        if item is not None:
            assert record.representative is item


def test_registration_founded_earlier_in_the_chunk():
    # B is no candidate (no sampled cell in adj(B)) and its cell is not
    # registered when the chunk starts, yet it must be visited: A, a
    # rejected founding earlier in the same chunk, registers B's cell
    # and B, within alpha of A, joins A's group.
    sampler = RobustL0SamplerIW(1.0, 2, seed=11, accept_capacity=2)
    rng = random.Random(11)
    prefix = raise_rate(sampler, rng, 16)
    config, mask = sampler.config, sampler.rate_denominator - 1
    buckets = sampler._store._buckets
    for _ in range(200_000):
        a = (rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0))
        b = (a[0] + rng.uniform(-0.7, 0.7), a[1] + rng.uniform(-0.7, 0.7))
        cell_a, cell_b = config.grid.cell_of(a), config.grid.cell_of(b)
        hash_b = config.cell_hash(cell_b)
        if (
            cell_a != cell_b
            and config.cell_hash(cell_a) & mask != 0
            and is_candidate(config, a, mask)
            and not is_candidate(config, b, mask)
            and hash_b not in buckets
            and hash_b in config.adj_hashes(a, cell=cell_a)
        ):
            break
    else:
        pytest.fail("no (A, B) pair found")
    fillers = []
    while len(fillers) < 40:  # never a founding: the rate stays put
        filler = (rng.uniform(6000.0, 9000.0), rng.uniform(6000.0, 9000.0))
        if not is_candidate(config, filler, mask):
            fillers.append(filler)
    chunk = fillers[:20] + [a] + fillers[20:30] + [b] + fillers[30:]

    def make():
        return RobustL0SamplerIW(1.0, 2, seed=11, accept_capacity=2)

    _, bat = assert_batch_matches_insert(make, [chunk], prefix=prefix)
    (record,) = [
        r for r in bat._store.records() if r.representative.vector == a
    ]
    assert record.count == 2 and record.last.vector == b
    geom = chunk_geometry_for(config, chunk)
    assert 20 + 1 + 10 in active_indices(geom, {}, mask).tolist()


def test_rate_doubles_inside_one_chunk():
    points = noisy_grid_stream(3000, 2500, seed=3)

    def make():
        return RobustL0SamplerIW(1.0, 2, seed=3)

    bat = make()
    bat.process_many(points[:300])
    before = bat.rate_denominator
    bat.process_many(points[300:])
    assert bat.rate_denominator > before
    assert_batch_matches_insert(make, [points[300:]], prefix=points[:300])


def test_declined_enumeration_visits_every_point(monkeypatch):
    # grid side alpha/12.5 extends 27 candidates per point along the
    # first axis, over a table bound lowered to 20: the product
    # declines, every point is active, and foundings use the scalar DFS.
    monkeypatch.setattr(kernels, "_MAX_ADJACENCY_TABLE", 20)
    config = SamplerConfig.create(1.0, 2, seed=5, grid_side=0.08)
    points = noisy_grid_stream(1500, 300, seed=5)
    calls = spy_stream_points(monkeypatch)

    def make():
        return RobustL0SamplerIW(1.0, 2, config=config, accept_capacity=4)

    per, _ = assert_batch_matches_insert(
        make, [points[300:1000], points[1000:]], prefix=points[:300]
    )
    assert per.rate_denominator > 1
    assert [len(c) for c in calls] == [300, 700, 500]


def test_track_members_draws_in_order():
    # Member tracking draws from the sampler's RNG on every group hit;
    # a skipped or reordered hit moves the RNG state in the fingerprint.
    points = noisy_grid_stream(4000, 900, seed=21)

    def make():
        return RobustL0SamplerIW(1.0, 2, seed=21, track_members=True)

    chunks = [points[i : i + 512] for i in range(0, len(points), 512)]
    per, _ = assert_batch_matches_insert(make, chunks)
    assert per.rate_denominator > 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: KDistinctSampler(1.0, 2, 3, replacement=True, seed=4),
        lambda: KDistinctSampler(1.0, 2, 3, seed=4),
        lambda: RobustF0EstimatorIW(1.0, 2, epsilon=0.5, copies=3, seed=4),
    ],
    ids=["ksample-replacement", "ksample", "f0-infinite"],
)
def test_shared_copies(make):
    # The copies share one chunk's StreamPoints; each copy's filter
    # runs against its own grid, hash and rate.
    points = noisy_grid_stream(3000, 1200, seed=4)
    chunks = [points[i : i + 700] for i in range(0, len(points), 700)]
    assert_batch_matches_insert(make, chunks)


def test_chunks_below_the_vector_threshold(monkeypatch):
    points = noisy_grid_stream(400, 150, seed=8)
    sizes = [1, MIN_VECTOR_CHUNK - 1, 2, MIN_VECTOR_CHUNK, 1, 50]
    chunks, start = [], 0
    while start < len(points):
        for size in sizes:
            chunks.append(points[start : start + size])
            start += size
    calls = spy_stream_points(monkeypatch)

    def make():
        return RobustL0SamplerIW(1.0, 2, seed=8, accept_capacity=3)

    assert_batch_matches_insert(make, [c for c in chunks if c])
    assert calls  # both paths ran


# --------------------------------------------------------------------- #
# guards: skipped points cost nothing
# --------------------------------------------------------------------- #


def test_only_active_points_become_stream_points(monkeypatch):
    # A high-rate sampler and a chunk of far-apart fresh points: most of
    # them have no sampled cell near them and are counted, not built.
    sampler = RobustL0SamplerIW(1.0, 3, seed=31, accept_capacity=8)
    rng = random.Random(31)
    prefix = raise_rate(sampler, rng, 64)
    chunk = np.array(
        [[rng.uniform(-9000.0, 9000.0) for _ in range(3)] for _ in range(2000)]
    )
    config, mask = sampler.config, sampler.rate_denominator - 1
    expected = [
        i
        for i, row in enumerate(chunk.tolist())
        if is_candidate(config, tuple(row), mask)
        or config.cell_hash(config.grid.cell_of(tuple(row)))
        in sampler._store._buckets
    ]
    calls = spy_stream_points(monkeypatch)
    sampler.process_many(chunk)
    assert calls == [expected]
    assert len(expected) < len(chunk) // 4
    twin = RobustL0SamplerIW(1.0, 3, seed=31, accept_capacity=8)
    for point in prefix + [tuple(row) for row in chunk.tolist()]:
        twin.insert(point)
    assert state_fingerprint(twin) == state_fingerprint(sampler)
    assert sampler.points_seen == len(prefix) + len(chunk)


def test_pure_duplicate_chunk_builds_no_adjacency(monkeypatch):
    points = noisy_grid_stream(2000, 400, seed=12)
    sampler = RobustL0SamplerIW(1.0, 2, seed=12)
    sampler.process_many(points)
    assert sampler.rate_denominator > 1
    reps = [r.representative.vector for r in sampler._store.records()]
    duplicates = [reps[i % len(reps)] for i in range(1000)]
    served = spy_adjacency_enumerations(monkeypatch)
    calls = spy_stream_points(monkeypatch)
    sampler.process_many(duplicates)
    assert served == []
    assert calls == [list(range(len(duplicates)))]


def test_error_mid_chunk_counts_arrivals_like_insert():
    # A StreamPoint item reusing a stored representative's index makes
    # the founding raise; the arrivals before it are counted exactly as
    # the per-point loop counts them.
    points = noisy_grid_stream(600, 200, seed=9)

    def make():
        return RobustL0SamplerIW(1.0, 2, seed=9)

    per, bat = make(), make()
    per.process_many(points[:300])
    bat.process_many(points[:300])
    config, mask = per.config, per.rate_denominator - 1
    rng = random.Random(9)
    while True:  # a fresh point in a sampled cell: it founds a record
        vector = (rng.uniform(5000.0, 9000.0), rng.uniform(5000.0, 9000.0))
        if config.cell_hash(config.grid.cell_of(vector)) & mask == 0:
            break
    stored = next(iter(per._store.records())).representative.index
    chunk = points[300:400] + [StreamPoint(vector, stored)] + points[400:]
    with pytest.raises(ParameterError, match="already stored"):
        for point in chunk:
            per.insert(point)
    with pytest.raises(ParameterError, match="already stored"):
        bat.process_many(chunk)
    assert bat.points_seen == per.points_seen == 401
    assert state_fingerprint(per) == state_fingerprint(bat)


# --------------------------------------------------------------------- #
# the adj(p) product in row blocks
# --------------------------------------------------------------------- #


def test_product_in_blocks_does_not_decline(monkeypatch):
    # A table bound of 4,000 fits 800 rows on the first axis but fewer
    # on the second: the 4,096-point chunk goes through in halved
    # blocks instead of declining to the scalar DFS.
    monkeypatch.setattr(kernels, "_MAX_ADJACENCY_TABLE", 4000)
    config = SamplerConfig.create(1.0, 2, seed=17)
    rng = random.Random(17)
    points = [
        (rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0))
        for _ in range(4096)
    ]
    served = spy_adjacency_enumerations(monkeypatch)
    geom = chunk_geometry_for(config, points)
    assert geom.survival_exponents() is not None
    assert served.count(True) > 1
    for index in range(0, len(points), 97):
        point = points[index]
        assert geom.adj_hashes(index) == config.adj_hashes(
            point, cell=config.grid.cell_of(point)
        )

    def make():
        return RobustL0SamplerIW(1.0, 2, config=config)

    assert_batch_matches_insert(make, [points[:100], points[100:]])
