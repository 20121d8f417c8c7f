"""Sampling k distinct groups with or without replacement (Section 2.3).

* **With replacement**: k independent copies of the single-sample
  algorithm, one sample from each.
* **Without replacement**: a single instance whose accept-set threshold is
  raised to ``kappa_0 * k * log m``; with probability ``1 - 1/m`` the
  accept set then always holds at least ``k`` groups, and a uniform
  k-subset of it is a without-replacement sample of the groups.

Both flavours work for the infinite window and for sliding windows.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.core.base import DEFAULT_KAPPA0, StreamSampler
from repro.core.chunk_geometry import feed_copies_shared, insert_copies
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.sliding_window import RobustL0SamplerSW
from repro.errors import EmptySampleError, ParameterError
from repro.streams.point import StreamPoint
from repro.streams.windows import WindowSpec


class KDistinctSampler(StreamSampler):
    """Draw k robust distinct samples from a noisy stream.

    Parameters
    ----------
    alpha, dim:
        As in the single-sample algorithms.
    k:
        Number of samples per query (>= 1).
    replacement:
        True -> k independent single-samplers (samples may repeat groups);
        False -> one sampler with a k-times larger accept threshold and a
        uniform k-subset drawn at query time (all k samples come from
        distinct groups).
    window:
        ``None`` for the infinite window, otherwise a sliding-window spec
        (the Section 2.3 remark applies the same threshold change to
        Algorithm 3).
    seed, kappa0, expected_stream_length:
        Forwarded to the underlying sampler(s).

    Examples
    --------
    >>> ks = KDistinctSampler(0.5, 1, k=2, replacement=False, seed=5)
    >>> for v in [(0.0,), (10.0,), (20.0,), (0.1,)]:
    ...     ks.insert(v)
    >>> groups = {p.vector[0] // 10 for p in ks.sample(rng=random.Random(0))}
    >>> len(groups)
    2
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "ksample"

    def __init__(
        self,
        alpha: float,
        dim: int,
        k: int,
        *,
        replacement: bool = False,
        window: WindowSpec | None = None,
        window_capacity: int | None = None,
        seed: int | None = None,
        kappa0: float = DEFAULT_KAPPA0,
        expected_stream_length: int | None = None,
    ) -> None:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self._k = k
        self._replacement = replacement
        self._window = window
        base_seed = seed if seed is not None else random.Random().randrange(2**62)

        def build(instance_seed: int, kappa: float):
            if window is None:
                return RobustL0SamplerIW(
                    alpha,
                    dim,
                    kappa0=kappa,
                    expected_stream_length=expected_stream_length,
                    seed=instance_seed,
                )
            return RobustL0SamplerSW(
                alpha,
                dim,
                window,
                window_capacity=window_capacity,
                kappa0=kappa,
                expected_stream_length=expected_stream_length,
                seed=instance_seed,
            )

        if replacement:
            self._samplers = [build(base_seed + i, kappa0) for i in range(k)]
        else:
            # The Section 2.3 threshold boost: kappa_0 * k * log m.
            self._samplers = [build(base_seed, kappa0 * k)]

    @property
    def k(self) -> int:
        """Number of samples returned per query."""
        return self._k

    @property
    def replacement(self) -> bool:
        """Whether sampling is with replacement."""
        return self._replacement

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Feed one point to every underlying sampler.

        The samplers share one StreamPoint (so they agree on its arrival
        index), validated against every sampler before the first one
        ingests (:func:`~repro.core.chunk_geometry.insert_copies`).
        """
        insert_copies(self._samplers, point)

    def process_many(
        self, points: Iterable[StreamPoint | Sequence[float]]
    ) -> int:
        """Batched :meth:`insert`: one shared materialisation, k batch runs.

        See :func:`~repro.core.chunk_geometry.feed_copies_shared`: one
        shared materialisation and one shared float-array flatten, then
        every underlying sampler ingests the chunk through its own
        specialised path with a chunk geometry derived from the shared
        array (grid/hash products stay per sampler - they have
        independent grids/hashes).  An invalid point anywhere in the
        chunk leaves every sampler unchanged.
        """
        return feed_copies_shared(self._samplers, points)

    def sample(self, rng: random.Random | None = None) -> list[StreamPoint]:
        """Return the k samples.

        Raises
        ------
        EmptySampleError
            When fewer than the required samples are available (empty
            stream, or - without replacement - the negligible event that
            the enlarged accept set undershoots ``k``).
        """
        rng = rng if rng is not None else random.Random()
        if self._replacement:
            return [sampler.sample(rng) for sampler in self._samplers]

        sampler = self._samplers[0]
        if isinstance(sampler, RobustL0SamplerIW):
            pool = [r.representative for r in sampler._store.accepted_records()]
        else:
            pool = sampler.sample_pool(rng)
        if len(pool) < self._k:
            raise EmptySampleError(
                f"only {len(pool)} groups available, need {self._k}"
            )
        return rng.sample(pool, self._k)

    def space_words(self) -> int:
        """Total footprint across the underlying samplers."""
        return sum(sampler.space_words() for sampler in self._samplers)

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng: random.Random | None = None) -> list[StreamPoint]:
        """Protocol query: the k samples (see :meth:`sample`)."""
        return self.sample(rng)

    def merge(self, *others: "KDistinctSampler") -> "KDistinctSampler":
        """Merge by merging the underlying samplers pairwise.

        Requires identical ``k``/``replacement`` and summaries built from
        one spec (same seed), so that sampler ``i`` of every input shares
        one grid/hash configuration.  Windowed k-samplers cannot merge
        (the underlying sliding hierarchy cannot; see
        :meth:`repro.core.sliding_window.RobustL0SamplerSW.merge`).
        """
        from repro.api.protocol import check_merge_peers

        check_merge_peers(self, others)
        for other in others:
            if other._k != self._k or other._replacement != self._replacement:
                raise ParameterError(
                    "cannot merge k-samplers with different k/replacement"
                )
        merged = KDistinctSampler.__new__(KDistinctSampler)
        merged._k = self._k
        merged._replacement = self._replacement
        merged._window = self._window
        merged._samplers = [
            sampler.merge(*(other._samplers[i] for other in others))
            for i, sampler in enumerate(self._samplers)
        ]
        return merged

    def to_state(self) -> dict:
        """Serialise to a JSON-compatible dict (protocol checkpoint)."""
        from repro.core import serialize

        return {
            "k": self._k,
            "replacement": self._replacement,
            "window": serialize.window_to_state(self._window),
            "samplers": [s.to_state() for s in self._samplers],
        }

    @classmethod
    def from_state(cls, state: dict) -> "KDistinctSampler":
        """Restore a k-sampler from :meth:`to_state` output."""
        from repro.core import serialize

        sampler = cls.__new__(cls)
        sampler._k = state["k"]
        sampler._replacement = state["replacement"]
        sampler._window = serialize.window_from_state(state["window"])
        underlying = RobustL0SamplerIW if sampler._window is None else (
            RobustL0SamplerSW
        )
        sampler._samplers = [
            underlying.from_state(sub_state)
            for sub_state in state["samplers"]
        ]
        return sampler
