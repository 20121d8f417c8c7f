"""Naive uniform reservoir sampling over raw points.

This is what "distinct sampling" degenerates to if near-duplicates are
ignored: a uniform point of the stream, which is biased towards groups
with many near-duplicates ("the sampling will be biased towards those
elements that have a large number of near-duplicates" - Section 1).  Used
by the motivation ablation to quantify that bias against the robust
sampler.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.base import StreamSampler, coerce_point, coerce_points
from repro.errors import EmptySampleError
from repro.streams.point import StreamPoint


class NaiveReservoirSampler(StreamSampler):
    """Classic single-item reservoir sampling (Vitter 1985).

    >>> rng = random.Random(0)
    >>> sampler = NaiveReservoirSampler(rng=rng)
    >>> for i in range(10):
    ...     sampler.insert((float(i),))
    >>> 0.0 <= sampler.sample().vector[0] <= 9.0
    True
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "naive-reservoir"

    def __init__(self, *, rng: random.Random | None = None) -> None:
        self._rng = rng if rng is not None else random.Random()
        self._sample: StreamPoint | None = None
        self._count = 0

    @property
    def points_seen(self) -> int:
        """Number of points inserted."""
        return self._count

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Offer one point; replaces the sample with probability 1/count."""
        p = coerce_point(point, self._count)
        self._count += 1
        if self._sample is None or self._rng.random() < 1.0 / self._count:
            self._sample = p

    def _check_batch(self, points: list) -> None:
        coerce_points(points, self._count)

    def sample(self) -> StreamPoint:
        """The current uniform sample over raw points."""
        if self._sample is None:
            raise EmptySampleError("no points inserted")
        return self._sample

    def space_words(self) -> int:
        """Footprint in words."""
        if self._sample is None:
            return 2
        return len(self._sample.vector) + 4

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng: random.Random | None = None) -> StreamPoint:
        """Protocol query: the current sample (rng unused - the sampler
        owns its reservoir randomness)."""
        return self.sample()

    def merge(
        self, *others: "NaiveReservoirSampler"
    ) -> "NaiveReservoirSampler":
        """Weighted reservoir merge: each input's sample survives with
        probability proportional to its stream length, so the result is
        uniform over the union stream.  Uses this sampler's generator."""
        from repro.api.protocol import check_merge_peers

        check_merge_peers(self, others)
        merged = NaiveReservoirSampler(rng=random.Random())
        merged._rng.setstate(self._rng.getstate())
        merged._count = self._count
        merged._sample = self._sample
        for other in others:
            merged._count += other._count
            if other._sample is None:
                continue
            if (
                merged._sample is None
                or merged._rng.random() < other._count / merged._count
            ):
                merged._sample = other._sample
        return merged

    def to_state(self) -> dict:
        """Serialise to a JSON-compatible dict (protocol checkpoint)."""
        from repro.core import serialize

        return {
            "rng": serialize.rng_to_state(self._rng),
            "points_seen": self._count,
            "sample": (
                serialize.point_to_state(self._sample)
                if self._sample is not None
                else None
            ),
        }

    @classmethod
    def from_state(cls, state: dict) -> "NaiveReservoirSampler":
        """Restore a sampler from :meth:`to_state` output."""
        from repro.core import serialize

        sampler = cls(rng=serialize.rng_from_state(state["rng"]))
        sampler._count = state["points_seen"]
        sampler._sample = (
            serialize.point_from_state(state["sample"])
            if state["sample"] is not None
            else None
        )
        return sampler
