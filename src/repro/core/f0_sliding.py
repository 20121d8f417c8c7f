"""Robust F0 estimation over sliding windows (Section 5).

Run several independent copies of the sliding-window sampler and combine
per-copy statistics.  Three combination modes:

* ``"ht"`` (default): median of the per-copy Horvitz-Thompson estimates
  ``sum_l |S_acc_l| * R_l`` - unbiased under the hierarchy's invariants
  and by far the most accurate;
* ``"fm"``: the paper's Flajolet-Martin-style description - average the
  per-copy deepest-active-level indices ``l`` and return
  ``phi * T * 2^lbar`` where ``T`` is the per-level accept capacity
  (under the level hierarchy a full level ``l`` covers about ``T * 2^l``
  groups, so the classic ``2^l`` statistic is scaled by ``T``);
* ``"hll"``: harmonic-mean combination of the per-copy ``T * 2^l``
  values, HyperLogLog style.

The FM/HLL modes are order-of-magnitude estimators, as their noiseless
ancestors are; the EXPERIMENTS harness reports measured accuracy of all
three.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Literal, Sequence

from repro.core.base import DEFAULT_KAPPA0, StreamSampler
from repro.core.chunk_geometry import feed_copies_shared, insert_copies
from repro.core.sliding_window import RobustL0SamplerSW
from repro.errors import ParameterError
from repro.streams.point import StreamPoint
from repro.streams.windows import WindowSpec

#: Flajolet-Martin bias correction: E[2^R] ~= 0.77351 * F0.
FM_PHI = 1.0 / 0.77351


class RobustF0EstimatorSW(StreamSampler):
    """Approximate the number of robust distinct elements in the window.

    Parameters
    ----------
    alpha, dim, window, window_capacity:
        As in :class:`~repro.core.sliding_window.RobustL0SamplerSW`.
    copies:
        Number of independent sampler copies (Theta(1/eps^2)).
    mode:
        ``"ht"``, ``"fm"`` or ``"hll"`` (see module docstring).
    calibration:
        Multiplicative bias correction for the fm/hll modes; defaults to
        the FM constant.
    seed:
        Base seed; copy ``i`` uses ``seed + i``.
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "f0-sliding"

    def __init__(
        self,
        alpha: float,
        dim: int,
        window: WindowSpec,
        *,
        window_capacity: int | None = None,
        copies: int = 16,
        mode: Literal["ht", "fm", "hll"] = "ht",
        calibration: float = FM_PHI,
        kappa0: float = DEFAULT_KAPPA0,
        seed: int | None = None,
    ) -> None:
        if copies < 1:
            raise ParameterError(f"copies must be >= 1, got {copies}")
        if mode not in ("ht", "fm", "hll"):
            raise ParameterError(
                f"mode must be 'ht', 'fm' or 'hll', got {mode!r}"
            )
        self._mode = mode
        self._calibration = calibration
        self._copies = [
            RobustL0SamplerSW(
                alpha,
                dim,
                window,
                window_capacity=window_capacity,
                kappa0=kappa0,
                seed=seed + i if seed is not None else None,
            )
            for i in range(copies)
        ]

    @property
    def num_copies(self) -> int:
        """Number of independent sampler copies."""
        return len(self._copies)

    @property
    def mode(self) -> str:
        """Combination mode (``"ht"``, ``"fm"`` or ``"hll"``)."""
        return self._mode

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
        the chunk's coercion and float-array flatten are shared, and
        each copy derives its own grid/hash products from the shared
        array (grids/hashes are independent per copy).
        """
        return feed_copies_shared(self._copies, points)

    def copy_levels(self) -> list[int]:
        """Deepest active level per copy (0 when the window is empty)."""
        levels = []
        for copy in self._copies:
            deepest = copy.deepest_active_level()
            levels.append(0 if deepest is None else deepest)
        return levels

    def copy_ht_estimates(self) -> list[float]:
        """Per-copy Horvitz-Thompson estimates ``sum_l |S_acc_l| * R_l``."""
        return [copy.estimate_f0() for copy in self._copies]

    def estimate(self) -> float:
        """Combined estimate of the window's robust F0."""
        if self._mode == "ht":
            return statistics.median(self.copy_ht_estimates())
        capacity = self._copies[0]._policy.threshold()
        levels = self.copy_levels()
        if self._mode == "fm":
            mean_level = statistics.fmean(levels)
            return self._calibration * capacity * (2.0**mean_level)
        # HyperLogLog-style harmonic mean of per-copy T * 2^l values.
        inverse_sum = sum(2.0 ** (-level) for level in levels)
        return self._calibration * capacity * len(levels) / inverse_sum

    def space_words(self) -> int:
        """Total footprint across copies (each copy answers in O(levels)
        from its incremental per-level counters)."""
        return sum(copy.space_words() for copy in self._copies)

    def recount_space_words(self) -> int:
        """Debug oracle: recompute :meth:`space_words` from scratch."""
        return sum(copy.recount_space_words() for copy in self._copies)

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng=None) -> float:
        """Protocol query: the combined estimate (rng unused)."""
        return self.estimate()

    def merge(self, *others: "RobustF0EstimatorSW") -> "RobustF0EstimatorSW":
        """Unsupported: the underlying sliding hierarchies cannot merge
        (see :meth:`repro.core.sliding_window.RobustL0SamplerSW.merge`)."""
        from repro.api.protocol import merge_unsupported

        raise merge_unsupported(
            self, "sliding-window hierarchies cannot be combined exactly"
        )

    def to_state(self) -> dict:
        """Serialise to a JSON-compatible dict (protocol checkpoint)."""
        return {
            "mode": self._mode,
            "calibration": self._calibration,
            "copies": [copy.to_state() for copy in self._copies],
        }

    @classmethod
    def from_state(cls, state: dict) -> "RobustF0EstimatorSW":
        """Restore an estimator from :meth:`to_state` output."""
        estimator = cls.__new__(cls)
        estimator._mode = state["mode"]
        estimator._calibration = state["calibration"]
        estimator._copies = [
            RobustL0SamplerSW.from_state(copy_state)
            for copy_state in state["copies"]
        ]
        return estimator
