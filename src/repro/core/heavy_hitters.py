"""Robust heavy hitters: frequent *elements* under near-duplication.

The related work (Zhang, SPAA 2015) studies heavy hitters in the same
noisy data model, in the distributed setting; this module provides the
streaming counterpart as a natural companion to the samplers: find the
groups contributing more than a ``phi`` fraction of the stream, treating
near-duplicates as one element.

Algorithm: Misra-Gries / SpaceSaving over *group representatives*.  The
counter table is keyed by representatives; an arriving point increments
the counter of the group it belongs to (proximity probe via the same
cell-bucket trick the samplers use).  When the table overflows, the
classic SpaceSaving eviction replaces the minimum-count entry.  Standard
guarantee transfers: with ``k = ceil(1/epsilon)`` counters, every group
with true count > (epsilon * m) is reported, and reported counts
overestimate by at most m/k - with the Section 3 caveat that on general
(non-separated) data "group" means greedy-partition group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.base import (
    SamplerConfig,
    StreamSampler,
    coerce_point,
)
from repro.core.chunk_geometry import ChunkGeometry, is_chunk, prepare_chunk
from repro.errors import ParameterError
from repro.streams.point import StreamPoint


@dataclass
class _Counter:
    representative: StreamPoint
    cell_hash: int
    adj_hashes: tuple[int, ...]
    count: int
    error: int  # SpaceSaving overestimation bound carried by this entry


@dataclass(frozen=True, slots=True)
class HeavyHitter:
    """One reported heavy group.

    Attributes
    ----------
    representative:
        The group's first tracked point.
    count:
        Estimated number of stream points in the group (overestimate by
        at most ``error``).
    error:
        Maximum overestimation inherited from SpaceSaving evictions.
    """

    representative: StreamPoint
    count: int
    error: int

    @property
    def guaranteed_count(self) -> int:
        """Lower bound on the group's true frequency."""
        return self.count - self.error


class RobustHeavyHitters(StreamSampler):
    """SpaceSaving over near-duplicate groups.

    Parameters
    ----------
    alpha, dim:
        Noisy data model geometry.
    epsilon:
        Frequency resolution: counts are accurate to ``epsilon * m`` using
        ``ceil(1/epsilon)`` counters.
    seed:
        Seed for the grid (proximity bucketing only - no subsampling here).
    phi:
        Default report threshold used by the protocol :meth:`query` when
        none is passed explicitly.

    Examples
    --------
    >>> hh = RobustHeavyHitters(0.5, 1, epsilon=0.25, seed=0)
    >>> for v in [(0.0,), (0.1,), (0.05,), (9.0,)]:
    ...     hh.insert(v)
    >>> top = hh.heavy_hitters(phi=0.5)
    >>> len(top), top[0].count
    (1, 3)
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "heavy-hitters"

    def __init__(
        self,
        alpha: float,
        dim: int,
        *,
        epsilon: float = 0.01,
        seed: int | None = None,
        phi: float = 0.05,
        config: SamplerConfig | None = None,
    ) -> None:
        if not 0 < epsilon <= 1:
            raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")
        if not 0 < phi <= 1:
            raise ParameterError(f"phi must be in (0, 1], got {phi}")
        self._config = config if config is not None else SamplerConfig.create(
            alpha, dim, seed=seed
        )
        self._capacity = max(1, int(1.0 / epsilon + 0.5))
        self._default_phi = phi
        self._counters: dict[int, _Counter] = {}
        self._buckets: dict[int, list[int]] = {}
        self._count = 0

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously tracked groups."""
        return self._capacity

    @property
    def points_seen(self) -> int:
        """Stream length so far."""
        return self._count

    @property
    def num_tracked(self) -> int:
        """Currently tracked groups."""
        return len(self._counters)

    def _find(self, vector, cell_hash: int) -> _Counter | None:
        from repro.geometry.distance import within_distance

        alpha = self._config.alpha
        for key in self._buckets.get(cell_hash, ()):
            counter = self._counters[key]
            if within_distance(counter.representative.vector, vector, alpha):
                return counter
        return None

    def _attach(self, key: int, counter: _Counter) -> None:
        self._counters[key] = counter
        for value in set(counter.adj_hashes):
            self._buckets.setdefault(value, []).append(key)

    def _detach(self, key: int) -> _Counter:
        counter = self._counters.pop(key)
        for value in set(counter.adj_hashes):
            bucket = self._buckets[value]
            bucket.remove(key)
            if not bucket:
                del self._buckets[value]
        return counter

    def _admit(
        self,
        p: StreamPoint,
        cell_hash: int,
        *,
        adj_hashes: tuple[int, ...] | None = None,
    ) -> None:
        """Install a new group's counter (SpaceSaving admission).

        ``adj_hashes`` accepts the precomputed chunk-geometry tuple
        (value-identical to ``config.adj_hashes(p.vector)``).
        """
        if adj_hashes is None:
            adj_hashes = self._config.adj_hashes(p.vector)
        if len(self._counters) < self._capacity:
            self._attach(
                p.index,
                _Counter(
                    representative=p,
                    cell_hash=cell_hash,
                    adj_hashes=adj_hashes,
                    count=1,
                    error=0,
                ),
            )
            return

        # SpaceSaving eviction: the new group inherits the minimum count.
        victim_key = min(
            self._counters, key=lambda k: self._counters[k].count
        )
        victim = self._detach(victim_key)
        self._attach(
            p.index,
            _Counter(
                representative=p,
                cell_hash=cell_hash,
                adj_hashes=adj_hashes,
                count=victim.count + 1,
                error=victim.count,
            ),
        )

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Count one arriving point into its group."""
        p = coerce_point(point, self._count, self._config.grid)
        self._count += 1
        config = self._config
        cell_hash = config.cell_hash(config.grid.cell_of(p.vector))
        counter = self._find(p.vector, cell_hash)
        if counter is not None:
            counter.count += 1
            return
        self._admit(p, cell_hash)

    def process_many(
        self,
        points: Iterable[StreamPoint | Sequence[float]],
        *,
        geometry: "ChunkGeometry | None" = None,
    ) -> int:
        """Batched :meth:`insert` with the counting fast path inlined.

        Cells, cell hashes and (on admission) the ``adj(p)``
        hash tuples come from one vectorised
        :class:`~repro.core.chunk_geometry.ChunkGeometry` precompute per
        chunk (``points`` may be that validated chunk itself, or
        ``geometry`` one built separately); a chunk too small to
        vectorise goes through
        :meth:`insert`.  An invalid point anywhere in the chunk raises
        :class:`~repro.errors.ParameterError` before anything mutates.
        """
        if geometry is None and not is_chunk(points):
            # A one-shot iterable is streamed in bounded chunks, so
            # memory stays O(chunk) however long the stream is.
            return self.extend(points)

        config = self._config
        counters = self._counters
        buckets_get = self._buckets.get
        alpha_sq = config.alpha * config.alpha
        count = self._count

        pts, vectors, geom, hashes_list = prepare_chunk(
            config, points, count, geometry=geometry
        )
        geom_n = len(hashes_list)
        try:
            for i in range(geom_n):
                p = pts[i]
                vector = vectors[i]
                count += 1
                cell_hash = hashes_list[i]
                found = None
                for key in buckets_get(cell_hash, ()):
                    counter = counters[key]
                    acc = 0.0
                    for a, b in zip(counter.representative.vector, vector):
                        diff = a - b
                        acc += diff * diff
                        if acc > alpha_sq:
                            break
                    else:
                        found = counter
                        break
                if found is not None:
                    found.count += 1
                    continue
                self._admit(p, cell_hash, adj_hashes=geom.adj_hashes(i))
        finally:
            self._count = count
        if geom is None:
            for p in pts:
                self.insert(p)
        return len(pts)

    def heavy_hitters(self, phi: float) -> list[HeavyHitter]:
        """Groups with estimated frequency above ``phi * m``, sorted.

        Every group whose true frequency exceeds ``phi * m`` appears
        (SpaceSaving guarantee, given ``phi >= epsilon``); reported counts
        overestimate by at most each entry's ``error``.
        """
        if not 0 < phi <= 1:
            raise ParameterError(f"phi must be in (0, 1], got {phi}")
        threshold = phi * self._count
        hits = [
            HeavyHitter(c.representative, c.count, c.error)
            for c in self._counters.values()
            if c.count > threshold
        ]
        hits.sort(key=lambda h: h.count, reverse=True)
        return hits

    def estimated_count(self, vector: Sequence[float]) -> int:
        """Estimated frequency of the group containing ``vector`` (0 when
        untracked).

        The probe is validated like an arriving point: coordinates that
        are not finite floats, a wrong dimension or a cell beyond the
        int64 range raise :class:`~repro.errors.ParameterError`.
        """
        config = self._config
        probe = coerce_point(vector, self._count, config.grid).vector
        cell_hash = config.cell_hash(config.grid.cell_of(probe))
        counter = self._find(probe, cell_hash)
        return counter.count if counter is not None else 0

    def space_words(self) -> int:
        """Footprint in words."""
        words = 3
        dim = self._config.dim
        for counter in self._counters.values():
            words += dim + 4 + len(counter.adj_hashes)
        return words

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(
        self, rng=None, *, phi: float | None = None
    ) -> list[HeavyHitter]:
        """Protocol query: the heavy hitters above ``phi`` (rng unused).

        ``phi`` defaults to the instance's configured threshold.
        """
        return self.heavy_hitters(self._default_phi if phi is None else phi)

    def merge(self, *others: "RobustHeavyHitters") -> "RobustHeavyHitters":
        """SpaceSaving merge over groups (Agarwal et al. style).

        Counters of the same group (proximity match under the shared
        grid/hash) are pooled - counts and error bounds both add, so
        pooled counts remain overestimates of the group's pooled true
        frequency.  If the union overflows the capacity, the
        smallest-count counters are dropped (they are precisely the
        candidates that cannot be ``phi``-heavy in the union for any
        ``phi >= epsilon``).  A group tracked by only some inputs may
        additionally be *under*-counted by the untracking inputs' minimum
        counter values - the usual mergeable-summaries caveat.
        """
        from repro.api.protocol import (
            check_compatible_configs,
            check_merge_peers,
        )

        check_merge_peers(self, others)
        check_compatible_configs(self, others)
        summaries = (self, *others)
        for other in others:
            if other._capacity != self._capacity:
                raise ParameterError(
                    "cannot merge heavy-hitter summaries with different "
                    "capacities (epsilon)"
                )
        merged = RobustHeavyHitters(
            self._config.alpha,
            self._config.dim,
            epsilon=1.0 / self._capacity,
            phi=self._default_phi,
            config=self._config,
        )
        merged._capacity = self._capacity
        # Fresh negative keys: input-local keys overlap across inputs, and
        # non-negative keys would collide with the arrival indices of
        # points counted into the merged summary later (_admit keys new
        # counters by p.index, which is always >= 0).
        next_key = -1
        for summary in summaries:
            merged._count += summary._count
            for counter in summary._counters.values():
                existing = merged._find(
                    counter.representative.vector, counter.cell_hash
                )
                if existing is not None:
                    existing.count += counter.count
                    existing.error += counter.error
                    continue
                merged._attach(
                    next_key,
                    _Counter(
                        representative=counter.representative,
                        cell_hash=counter.cell_hash,
                        adj_hashes=counter.adj_hashes,
                        count=counter.count,
                        error=counter.error,
                    ),
                )
                next_key -= 1
        while len(merged._counters) > merged._capacity:
            victim = min(
                merged._counters, key=lambda k: merged._counters[k].count
            )
            merged._detach(victim)
        return merged

    def to_state(self) -> dict:
        """Serialise to a JSON-compatible dict (protocol checkpoint)."""
        from repro.core import serialize

        return {
            "config": serialize.config_to_state(self._config),
            "capacity": self._capacity,
            "phi": self._default_phi,
            "points_seen": self._count,
            "counters": [
                {
                    "key": key,
                    "rep": serialize.point_to_state(counter.representative),
                    "cell_hash": counter.cell_hash,
                    "adj_hashes": list(counter.adj_hashes),
                    "count": counter.count,
                    "error": counter.error,
                }
                for key, counter in sorted(self._counters.items())
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "RobustHeavyHitters":
        """Restore a heavy-hitter summary from :meth:`to_state` output."""
        from repro.core import serialize

        serialize.check_int_fields(state, 0, "points_seen")
        serialize.check_int_fields(state, 1, "capacity")
        config = serialize.config_from_state(state["config"])
        summary = cls(
            config.alpha,
            config.dim,
            epsilon=1.0 / state["capacity"],
            phi=state["phi"],
            config=config,
        )
        summary._capacity = state["capacity"]
        summary._count = state["points_seen"]
        for counter_state in state["counters"]:
            summary._attach(
                counter_state["key"],
                _Counter(
                    representative=serialize.point_from_state(
                        counter_state["rep"]
                    ),
                    cell_hash=counter_state["cell_hash"],
                    adj_hashes=tuple(counter_state["adj_hashes"]),
                    count=counter_state["count"],
                    error=counter_state["error"],
                ),
            )
        return summary
