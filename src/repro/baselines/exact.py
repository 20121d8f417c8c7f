"""Exact Omega(n)-space robust distinct sampler (ground truth).

Stores the first point of *every* group (greedy, in arrival order - the
partition Theorem 3.1's analysis reasons about) and samples uniformly from
them.  This is what the paper's introduction argues is unavoidable without
subsampling ("we will need to use Omega(n) space to identify the first
point of each group"); it provides the reference distribution and the
space baseline for the experiments.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.base import StreamSampler, coerce_point
from repro.core.chunk_geometry import validate_chunk
from repro.errors import EmptySampleError, ParameterError
from repro.geometry.distance import within_distance
from repro.geometry.grid import Grid
from repro.streams.point import StreamPoint


class ExactDistinctSampler(StreamSampler):
    """One representative per group, found by exact proximity search.

    A grid of side ``alpha`` buckets representatives so lookups stay fast,
    but - unlike the streaming samplers - *every* group is stored.

    >>> sampler = ExactDistinctSampler(alpha=0.5, dim=1)
    >>> for v in [(0.0,), (0.2,), (5.0,)]:
    ...     sampler.insert(v)
    >>> sampler.num_groups
    2
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "exact"

    def __init__(self, alpha: float, dim: int, *, seed: int | None = None) -> None:
        if alpha <= 0:
            raise ParameterError(f"alpha must be positive, got {alpha}")
        self._alpha = alpha
        self._dim = dim
        self._grid = Grid(side=alpha, dim=dim, rng=random.Random(seed))
        self._buckets: dict[tuple[int, ...], list[StreamPoint]] = {}
        self._representatives: list[StreamPoint] = []
        self._count = 0

    @property
    def alpha(self) -> float:
        """Near-duplicate threshold."""
        return self._alpha

    @property
    def num_groups(self) -> int:
        """Number of groups discovered (the exact robust F0 for
        well-separated data; the arrival-order greedy count in general)."""
        return len(self._representatives)

    @property
    def points_seen(self) -> int:
        """Number of points inserted."""
        return self._count

    def representatives(self) -> list[StreamPoint]:
        """The stored group representatives (arrival order)."""
        return list(self._representatives)

    def _neighbour_cells(self, cell: tuple[int, ...]):
        # Side alpha: a representative within alpha lies in a cell whose
        # coordinates differ by at most 1 in each dimension.
        if self._dim <= 6:
            # Exact 3^d enumeration.
            def recurse(axis: int, partial: list[int]):
                if axis == self._dim:
                    yield tuple(partial)
                    return
                base = cell[axis]
                for offset in (-1, 0, 1):
                    partial.append(base + offset)
                    yield from recurse(axis + 1, partial)
                    partial.pop()

            yield from recurse(0, [])
        else:
            # High dimension: fall back to scanning occupied buckets whose
            # coordinates are all within 1 (cheaper than 3^d when sparse).
            for other in self._buckets:
                if all(abs(a - b) <= 1 for a, b in zip(other, cell)):
                    yield other

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Store the point as a new representative unless one is nearby."""
        p = coerce_point(point, self._count, self._grid)
        self._count += 1
        cell = self._grid.cell_of(p.vector)
        for neighbour in self._neighbour_cells(cell):
            for rep in self._buckets.get(neighbour, ()):
                if within_distance(rep.vector, p.vector, self._alpha):
                    return
        self._buckets.setdefault(cell, []).append(p)
        self._representatives.append(p)

    def _check_batch(self, points: list) -> None:
        validate_chunk(self._grid, points)

    def sample(self, rng: random.Random | None = None) -> StreamPoint:
        """Uniformly random group representative."""
        if not self._representatives:
            raise EmptySampleError("no points inserted")
        rng = rng if rng is not None else random.Random()
        return rng.choice(self._representatives)

    def space_words(self) -> int:
        """Footprint: every representative is stored (Omega(n))."""
        return len(self._representatives) * (self._dim + 2) + 3

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng: random.Random | None = None) -> StreamPoint:
        """Protocol query: a uniformly random representative."""
        return self.sample(rng)

    def _absorb(self, point: StreamPoint) -> None:
        """Install a foreign representative unless one is already nearby."""
        cell = self._grid.cell_of(point.vector)
        for neighbour in self._neighbour_cells(cell):
            for rep in self._buckets.get(neighbour, ()):
                if within_distance(rep.vector, point.vector, self._alpha):
                    return
        self._buckets.setdefault(cell, []).append(point)
        self._representatives.append(point)

    def merge(self, *others: "ExactDistinctSampler") -> "ExactDistinctSampler":
        """Union of the group sets (greedy, self's representatives first).

        Requires identical grids (same alpha/dim/offset - build the
        inputs from one spec).  Groups straddling inputs are deduplicated
        by proximity, keeping this sampler's representative.
        """
        from repro.api.protocol import check_merge_peers

        check_merge_peers(self, others)
        for other in others:
            if (
                other._alpha != self._alpha
                or other._dim != self._dim
                or other._grid.offset != self._grid.offset
            ):
                raise ParameterError(
                    "cannot merge exact samplers with different grids"
                )
        merged = ExactDistinctSampler.__new__(ExactDistinctSampler)
        merged._alpha = self._alpha
        merged._dim = self._dim
        merged._grid = self._grid
        merged._buckets = {}
        merged._representatives = []
        merged._count = self._count + sum(o._count for o in others)
        for source in (self, *others):
            for rep in source._representatives:
                merged._absorb(rep)
        return merged

    def to_state(self) -> dict:
        """Serialise to a JSON-compatible dict (protocol checkpoint)."""
        from repro.core import serialize

        return {
            "alpha": self._alpha,
            "dim": self._dim,
            "grid_offset": list(self._grid.offset),
            "points_seen": self._count,
            "representatives": [
                serialize.point_to_state(p) for p in self._representatives
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ExactDistinctSampler":
        """Restore a sampler from :meth:`to_state` output."""
        from repro.core import serialize

        sampler = cls.__new__(cls)
        sampler._alpha = state["alpha"]
        sampler._dim = state["dim"]
        sampler._grid = Grid(
            side=state["alpha"],
            dim=state["dim"],
            offset=tuple(state["grid_offset"]),
        )
        sampler._buckets = {}
        sampler._representatives = []
        sampler._count = state["points_seen"]
        for point_state in state["representatives"]:
            point = serialize.point_from_state(point_state)
            cell = sampler._grid.cell_of(point.vector)
            sampler._buckets.setdefault(cell, []).append(point)
            sampler._representatives.append(point)
        return sampler
