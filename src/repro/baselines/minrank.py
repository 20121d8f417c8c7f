"""The folklore min-rank l0-sampler for *noiseless* streams.

Assign every distinct item a random rank via a hash function and keep the
item with the minimum rank - the starting point of the paper's techniques
overview.  It requires exact item identities: on noisy data each near-
duplicate hashes differently, which reduces it to naive point sampling
(the paper's argument for why no existing l0-sampler survives
near-duplicates).  We expose a pluggable ``key`` so experiments can run it
either on exact identities (oracle mode) or raw coordinates (broken mode).
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.baselines.fm import check_items, item_key
from repro.core.base import StreamSampler, coerce_point, coerce_points
from repro.errors import CheckpointError, EmptySampleError, ParameterError
from repro.hashing.mix import SplitMix64
from repro.streams.point import StreamPoint


def _default_key(point: StreamPoint) -> Hashable:
    """Raw coordinates as identity (the broken-on-noisy-data mode)."""
    return point.vector


class MinRankL0Sampler(StreamSampler):
    """Keep the item whose hashed rank is minimal.

    Parameters
    ----------
    key:
        Maps a point to its identity; duplicates (by this key) collapse.
        Default: the exact coordinate tuple.  An identity must be a
        sketch item (:func:`~repro.baselines.fm.item_key`); a point
        whose identity is not raises
        :class:`~repro.errors.ParameterError` before anything mutates.
    seed:
        Seed of the rank hash.

    Examples
    --------
    >>> sampler = MinRankL0Sampler(seed=1)
    >>> for v in [(0.0,), (1.0,), (0.0,)]:
    ...     sampler.insert(v)
    >>> sampler.distinct_seen
    2
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "minrank"

    def __init__(
        self,
        *,
        key: Callable[[StreamPoint], Hashable] = _default_key,
        seed: int = 0,
    ) -> None:
        self._key = key
        self._hash = SplitMix64(seed)
        self._best_rank: int | None = None
        self._best: StreamPoint | None = None
        self._seen_keys: set[Hashable] = set()
        self._count = 0

    @property
    def points_seen(self) -> int:
        """Number of points inserted."""
        return self._count

    @property
    def distinct_seen(self) -> int:
        """Number of distinct identities observed (diagnostic only; a real
        streaming deployment would not store this set)."""
        return len(self._seen_keys)

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Offer a point; its rank is the hash of its identity."""
        p = coerce_point(point, self._count)
        identity = self._key(p)
        rank = self._hash(item_key(identity))
        self._count += 1
        self._seen_keys.add(identity)
        if self._best_rank is None or rank < self._best_rank:
            self._best_rank = rank
            self._best = p

    def _check_batch(self, points: list) -> None:
        points = coerce_points(points, self._count)
        check_items([self._key(p) for p in points])

    def sample(self) -> StreamPoint:
        """The minimum-rank item: uniform over distinct identities."""
        if self._best is None:
            raise EmptySampleError("no points inserted")
        return self._best

    def space_words(self) -> int:
        """Footprint of the sampler proper (sample + rank), excluding the
        diagnostic identity set."""
        if self._best is None:
            return 2
        return len(self._best.vector) + 5

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng=None) -> StreamPoint:
        """Protocol query: the minimum-rank sample (rng unused)."""
        return self.sample()

    def merge(self, *others: "MinRankL0Sampler") -> "MinRankL0Sampler":
        """Keep the overall minimum rank (requires one shared hash seed,
        i.e. inputs built from one spec, and the default identity key)."""
        from repro.api.protocol import check_merge_peers

        check_merge_peers(self, others)
        summaries = (self, *others)
        for other in others:
            if other._hash.seed != self._hash.seed:
                raise ParameterError(
                    "cannot merge min-rank samplers with different seeds"
                )
            if other._key is not self._key:
                raise ParameterError(
                    "cannot merge min-rank samplers with different keys"
                )
        merged = MinRankL0Sampler(key=self._key)
        merged._hash = SplitMix64(self._hash.seed, premixed=True)
        for summary in summaries:
            merged._count += summary._count
            merged._seen_keys |= summary._seen_keys
            if summary._best_rank is not None and (
                merged._best_rank is None
                or summary._best_rank < merged._best_rank
            ):
                merged._best_rank = summary._best_rank
                merged._best = summary._best
        return merged

    def to_state(self) -> dict:
        """Serialise to a JSON-compatible dict (default key only)."""
        from repro.core import serialize

        if self._key is not _default_key:
            raise CheckpointError(
                "cannot checkpoint a MinRankL0Sampler with a custom key "
                "callable"
            )
        return {
            "hash_seed": self._hash.seed,
            "points_seen": self._count,
            "best_rank": self._best_rank,
            "best": (
                serialize.point_to_state(self._best)
                if self._best is not None
                else None
            ),
            "seen_keys": sorted(list(key) for key in self._seen_keys),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MinRankL0Sampler":
        """Restore a sampler from :meth:`to_state` output."""
        from repro.core import serialize

        sampler = cls()
        sampler._hash = SplitMix64(state["hash_seed"], premixed=True)
        sampler._count = state["points_seen"]
        sampler._best_rank = state["best_rank"]
        sampler._best = (
            serialize.point_from_state(state["best"])
            if state["best"] is not None
            else None
        )
        sampler._seen_keys = {tuple(key) for key in state["seen_keys"]}
        return sampler
