"""HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007).

The harmonic-mean refinement of LogLog, with the standard small-range
(linear counting) correction.  Section 5 notes the robust sliding-window
estimator "can also plug into HyperLogLog"; this noiseless implementation
is the baseline for that comparison.
"""

from __future__ import annotations

import math

from repro.baselines.fm import Item, check_items, item_key, lowest_set_bit
from repro.baselines.registers import RegisterSketchSummary
from repro.core.base import StreamSampler
from repro.errors import ParameterError
from repro.hashing.mix import SplitMix64


def _alpha(m: int) -> float:
    """The HLL bias constant alpha_m."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog(RegisterSketchSummary, StreamSampler):
    """HyperLogLog distinct counter with ``2^bucket_bits`` registers.

    >>> hll = HyperLogLog(bucket_bits=8, seed=2)
    >>> _ = hll.extend(range(10000))
    >>> 8000 <= hll.estimate() <= 12000
    True
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "hyperloglog"

    def __init__(self, *, bucket_bits: int = 8, seed: int = 0) -> None:
        if not 4 <= bucket_bits <= 16:
            raise ParameterError(
                f"bucket_bits must be in [4, 16], got {bucket_bits}"
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
        """Harmonic-mean estimate with linear-counting correction."""
        m = self._m
        inverse_sum = sum(2.0 ** (-r) for r in self._registers)
        raw = _alpha(m) * m * m / inverse_sum
        if raw <= 2.5 * m:
            zeros = self._registers.count(0)
            if zeros:
                return m * math.log(m / zeros)
        return raw

    def space_words(self) -> int:
        """One register per bucket."""
        return self._m + 1

    # query/merge/to_state/from_state: see RegisterSketchSummary.
