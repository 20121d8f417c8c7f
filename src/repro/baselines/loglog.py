"""Durand-Flajolet LogLog counter (ESA 2003).

Stochastic averaging over ``m = 2^b`` buckets: each item is routed by its
first ``b`` hash bits to a bucket whose register keeps the maximum rho of
the remaining bits; the estimate is ``alpha_m * m * 2^mean(registers)``.
Included as an F0 baseline for the Section 5 comparison table.
"""

from __future__ import annotations

from repro.baselines.fm import Item, check_items, item_key, lowest_set_bit
from repro.baselines.registers import RegisterSketchSummary
from repro.core.base import StreamSampler
from repro.errors import ParameterError
from repro.hashing.mix import SplitMix64

#: The LogLog bias constant for large m (Durand & Flajolet 2003).
LOGLOG_ALPHA_INF = 0.39701


class LogLogSketch(RegisterSketchSummary, StreamSampler):
    """LogLog distinct counter with ``2^bucket_bits`` registers.

    >>> sketch = LogLogSketch(bucket_bits=6, seed=1)
    >>> _ = sketch.extend(range(5000))
    >>> 1500 <= sketch.estimate() <= 15000
    True
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "loglog"

    def __init__(self, *, bucket_bits: int = 6, seed: int = 0) -> None:
        if not 2 <= bucket_bits <= 16:
            raise ParameterError(
                f"bucket_bits must be in [2, 16], got {bucket_bits}"
            )
        self._b = bucket_bits
        self._m = 1 << bucket_bits
        self._registers = [0] * self._m
        self._hash = SplitMix64(seed)

    @property
    def num_registers(self) -> int:
        """Number of registers m."""
        return self._m

    def insert(self, item: Item) -> None:
        """Observe one item."""
        value = self._hash(item_key(item))
        bucket = value & (self._m - 1)
        rho = lowest_set_bit(value >> self._b) + 1
        if rho > self._registers[bucket]:
            self._registers[bucket] = rho

    def _check_batch(self, points: list) -> None:
        check_items(points)

    def estimate(self) -> float:
        """``alpha_m * m * 2^mean(register)``."""
        mean_register = sum(self._registers) / self._m
        return LOGLOG_ALPHA_INF * self._m * (2.0**mean_register)

    def space_words(self) -> int:
        """One register per bucket."""
        return self._m + 1

    # query/merge/to_state/from_state: see RegisterSketchSummary.
