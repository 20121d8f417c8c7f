"""The BJKST distinct-elements sketch (Bar-Yossef et al., RANDOM 2002).

Keep the set ``B`` of items whose hash is below a shrinking threshold
(equivalently: sampled at rate ``1/2^z``); whenever ``|B|`` exceeds
``kappa / eps^2`` increment ``z`` and re-filter.  The estimate is
``|B| * 2^z``.  This is exactly the framework Section 5 plugs the robust
sampler into, so it doubles as the noiseless reference for
:class:`~repro.core.f0_infinite.RobustF0EstimatorIW`.
"""

from __future__ import annotations

import math

from repro.baselines.fm import Item, check_items, item_key
from repro.core.base import StreamSampler
from repro.errors import ParameterError
from repro.hashing.mix import SplitMix64


class BJKSTSketch(StreamSampler):
    """BJKST F0 sketch with capacity ``ceil(kappa / eps^2)``.

    >>> sketch = BJKSTSketch(epsilon=0.2, seed=4)
    >>> _ = sketch.extend(range(2000))
    >>> 1500 <= sketch.estimate() <= 2500
    True
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "bjkst"

    def __init__(
        self, *, epsilon: float = 0.2, kappa: float = 8.0, seed: int = 0
    ) -> None:
        if not 0 < epsilon <= 1:
            raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")
        self._capacity = max(4, math.ceil(kappa / (epsilon * epsilon)))
        self._hash = SplitMix64(seed)
        self._z = 0
        self._kept: dict[int, int] = {}  # hashed id -> raw hash value

    @property
    def capacity(self) -> int:
        """Maximum kept-set size before the rate halves."""
        return self._capacity

    @property
    def level(self) -> int:
        """Current subsampling level z (rate 1/2^z)."""
        return self._z

    def insert(self, item: Item) -> None:
        """Observe one item."""
        key = item_key(item)
        value = self._hash(key)
        if value & ((1 << self._z) - 1):
            return
        self._kept[key] = value
        while len(self._kept) > self._capacity:
            self._z += 1
            mask = (1 << self._z) - 1
            self._kept = {k: v for k, v in self._kept.items() if not v & mask}

    def _check_batch(self, points: list) -> None:
        check_items(points)

    def estimate(self) -> float:
        """``|B| * 2^z``."""
        return float(len(self._kept) * (1 << self._z))

    def space_words(self) -> int:
        """Kept identifiers plus the level counter."""
        return 2 * len(self._kept) + 2

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng=None) -> float:
        """Protocol query: the estimate (rng unused)."""
        return self.estimate()

    def merge(self, *others: "BJKSTSketch") -> "BJKSTSketch":
        """Union the kept sets at the maximum level, then re-filter.

        Sampling decisions nest across levels (a key kept at level z is
        kept at every shallower level), so the union-at-max-z is exactly
        the kept set a single sketch at that level would hold; the
        capacity rule then applies as usual.  Requires one shared hash
        seed and capacity.
        """
        from repro.api.protocol import check_merge_peers

        check_merge_peers(self, others)
        for other in others:
            if (
                other._capacity != self._capacity
                or other._hash.seed != self._hash.seed
            ):
                raise ParameterError(
                    "cannot merge BJKST sketches with different "
                    "capacities or seeds"
                )
        merged = BJKSTSketch()
        merged._capacity = self._capacity
        merged._hash = SplitMix64(self._hash.seed, premixed=True)
        merged._z = max(s._z for s in (self, *others))
        mask = (1 << merged._z) - 1
        merged._kept = {}
        for sketch in (self, *others):
            for key, value in sketch._kept.items():
                if not value & mask:
                    merged._kept[key] = value
        while len(merged._kept) > merged._capacity:
            merged._z += 1
            mask = (1 << merged._z) - 1
            merged._kept = {
                k: v for k, v in merged._kept.items() if not v & mask
            }
        return merged

    def to_state(self) -> dict:
        """Serialise to a JSON-compatible dict (protocol checkpoint)."""
        return {
            "capacity": self._capacity,
            "hash_seed": self._hash.seed,
            "level": self._z,
            "kept": sorted([key, value] for key, value in self._kept.items()),
        }

    @classmethod
    def from_state(cls, state: dict) -> "BJKSTSketch":
        """Restore a sketch from :meth:`to_state` output."""
        sketch = cls()
        sketch._capacity = state["capacity"]
        sketch._hash = SplitMix64(state["hash_seed"], premixed=True)
        sketch._z = state["level"]
        sketch._kept = {key: value for key, value in state["kept"]}
        return sketch
