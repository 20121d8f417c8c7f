"""Robust F0 estimation in the infinite window (Section 5).

Section 5 plugs the robust sampler into the distinct-elements framework of
Bar-Yossef et al. (RANDOM 2002): replace Algorithm 1's ``kappa_0 * log m``
accept threshold with ``kappa_B / eps^2`` and return ``|S_acc| * R``.  A
single copy is a (1 + eps)-approximation with constant probability; the
median over Theta(log(1/delta)) independent copies boosts the confidence.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

from repro.core.base import StreamSampler
from repro.core.chunk_geometry import feed_copies_shared, insert_copies
from repro.core.infinite_window import RobustL0SamplerIW
from repro.errors import ParameterError
from repro.streams.point import StreamPoint

#: Constant kappa_B of the accept-set capacity kappa_B / eps^2.  With
#: capacity T the estimator's relative standard deviation is about
#: sqrt(2 / T) at the moment the rate halves, so kappa_B = 8 targets a
#: one-sigma error of eps / 2.
DEFAULT_KAPPA_B = 8.0


class RobustF0EstimatorIW(StreamSampler):
    """(1 + eps)-approximation of the robust number of distinct elements.

    Parameters
    ----------
    alpha, dim:
        As in :class:`~repro.core.infinite_window.RobustL0SamplerIW`.
    epsilon:
        Target relative accuracy (0 < eps <= 1).
    copies:
        Number of independent copies whose estimates are medianed;
        Theta(log(1/delta)) copies give failure probability delta.
    kappa_b:
        The capacity constant (see :data:`DEFAULT_KAPPA_B`).
    seed:
        Base seed; copy ``i`` uses ``seed + i``.

    Examples
    --------
    >>> est = RobustF0EstimatorIW(0.5, 1, epsilon=0.5, copies=3, seed=2)
    >>> for g in range(20):
    ...     est.insert((10.0 * g,))
    ...     est.insert((10.0 * g + 0.1,))
    >>> 10 <= est.estimate() <= 40
    True
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "f0-infinite"

    def __init__(
        self,
        alpha: float,
        dim: int,
        *,
        epsilon: float = 0.2,
        copies: int = 9,
        kappa_b: float = DEFAULT_KAPPA_B,
        seed: int | None = None,
        grid_side: float | None = None,
    ) -> None:
        if not 0 < epsilon <= 1:
            raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")
        if copies < 1:
            raise ParameterError(f"copies must be >= 1, got {copies}")
        capacity = max(4, math.ceil(kappa_b / (epsilon * epsilon)))
        base_seed = seed if seed is not None else 0
        self._copies = [
            RobustL0SamplerIW(
                alpha,
                dim,
                seed=base_seed + i if seed is not None else None,
                grid_side=grid_side,
                accept_capacity=capacity,
            )
            for i in range(copies)
        ]
        self._epsilon = epsilon

    @property
    def epsilon(self) -> float:
        """Target relative accuracy."""
        return self._epsilon

    @property
    def num_copies(self) -> int:
        """Number of independent estimator copies."""
        return len(self._copies)

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Feed one point to every copy (validated against every copy
        before the first one ingests - see
        :func:`~repro.core.chunk_geometry.insert_copies`)."""
        insert_copies(self._copies, point)

    def process_many(
        self, points: Iterable[StreamPoint | Sequence[float]]
    ) -> int:
        """Batched :meth:`insert`: materialise once, feed every copy.

        See :func:`~repro.core.chunk_geometry.feed_copies_shared` - an
        invalid point anywhere in the chunk leaves every copy unchanged,
        and the chunk's coercion and flattened float array are computed
        once and shared.  Each copy still derives its own grid/hash
        products from that array (copies have independent grids and
        hashes by construction), but the per-copy coercion and flatten
        passes are gone.
        """
        return feed_copies_shared(self._copies, points)

    def copy_estimates(self) -> list[float]:
        """Per-copy point estimates ``|S_acc| * R``."""
        return [copy.estimate_f0() for copy in self._copies]

    def estimate(self) -> float:
        """Median of the per-copy estimates."""
        return statistics.median(self.copy_estimates())

    def space_words(self) -> int:
        """Total footprint across copies."""
        return sum(copy.space_words() for copy in self._copies)

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng=None) -> float:
        """Protocol query: the median-of-copies estimate (rng unused)."""
        return self.estimate()

    def merge(self, *others: "RobustF0EstimatorIW") -> "RobustF0EstimatorIW":
        """Merge copy-wise: copy ``i`` of every input shares one config
        (estimators built from one spec), so the underlying sampler merge
        applies per copy and the median estimate covers the union."""
        from repro.api.protocol import check_merge_peers

        check_merge_peers(self, others)
        for other in others:
            if other.num_copies != self.num_copies:
                raise ParameterError(
                    "cannot merge estimators with different copy counts"
                )
        merged = RobustF0EstimatorIW.__new__(RobustF0EstimatorIW)
        merged._epsilon = self._epsilon
        merged._copies = [
            copy.merge(*(other._copies[i] for other in others))
            for i, copy in enumerate(self._copies)
        ]
        return merged

    def to_state(self) -> dict:
        """Serialise to a JSON-compatible dict (protocol checkpoint)."""
        return {
            "epsilon": self._epsilon,
            "copies": [copy.to_state() for copy in self._copies],
        }

    @classmethod
    def from_state(cls, state: dict) -> "RobustF0EstimatorIW":
        """Restore an estimator from :meth:`to_state` output."""
        estimator = cls.__new__(cls)
        estimator._epsilon = state["epsilon"]
        estimator._copies = [
            RobustL0SamplerIW.from_state(copy_state)
            for copy_state in state["copies"]
        ]
        return estimator
