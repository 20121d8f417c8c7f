"""The Flajolet-Martin probabilistic counter (JCSS 1985).

The classic noiseless-F0 sketch the paper's Section 5 sliding-window
estimator borrows its bias-correction constant from.  Each distinct item
hashes to a geometric "rho" value (index of the lowest set bit); the
largest rho seen, corrected by ``1/0.77351``, estimates the distinct
count.  Averaging rho over independent copies tightens the estimate
(probabilistic counting with stochastic averaging is implemented by
:class:`FMSketch` with ``copies > 1``).
"""

from __future__ import annotations

import hashlib
from typing import Union

from repro.core.base import StreamSampler, invalid_point
from repro.errors import ParameterError
from repro.hashing.mix import SplitMix64

#: E[2^R] ~= PHI * F0 with PHI = 0.77351 (Flajolet & Martin 1985).
FM_CORRECTION = 0.77351

#: What the item sketches count (see :func:`item_key`).
Item = Union[int, float, str, bytes, tuple]

_ITEM_CONTRACT = "an int, a non-NaN float, a str, bytes or a tuple of these"


def item_key(item: Item) -> int:
    """Process-stable integer identity of a sketch item.

    The item contract: an item is an int, a non-NaN float, a str,
    bytes, or a tuple of these.  Anything else raises
    :class:`~repro.errors.ParameterError`, and the item sketches (FM,
    LogLog, HyperLogLog, BJKST, and min-rank over its point keys) call
    this before they mutate, so a rejected item leaves them unchanged.

    A sketch keys every item by an integer before mixing, and the key
    must name the same item in every process: a restored sketch must
    count the *same* items as seen, and merges cross processes.
    Builtin ``hash()`` is that key for numbers and tuples of numbers,
    but randomised per process for ``str``/``bytes`` (these go through
    a keyed-nothing BLAKE2b digest instead, also inside a tuple), and
    for a NaN it depends on the object's identity, so no two NaN
    objects would ever count as one item.
    """
    stable = _stable_item(item)
    return stable if isinstance(item, (str, bytes)) else hash(stable)


def _stable_item(item: Item) -> Item:
    """``item`` with every str/bytes replaced by its digest, checked
    against the item contract (:func:`item_key`)."""
    if isinstance(item, str):
        item = item.encode("utf-8")
    if isinstance(item, bytes):
        return int.from_bytes(
            hashlib.blake2b(item, digest_size=8).digest(), "big"
        )
    if isinstance(item, tuple):
        return tuple([_stable_item(element) for element in item])
    if isinstance(item, int) or (isinstance(item, float) and item == item):
        return item
    raise ParameterError(f"sketch item {item!r} is not {_ITEM_CONTRACT}")


def check_items(items: list) -> None:
    """The item sketches' batch check: :func:`item_key` over every item
    before anything mutates; the first item outside the contract raises
    :class:`~repro.errors.ParameterError` naming its position."""
    for position, item in enumerate(items):
        try:
            item_key(item)
        except ParameterError:
            raise invalid_point(
                position, f"is not {_ITEM_CONTRACT} ({item!r})"
            ) from None


def lowest_set_bit(value: int) -> int:
    """Index of the lowest set bit (rho); 64 for value 0.

    >>> lowest_set_bit(8)
    3
    >>> lowest_set_bit(1)
    0
    """
    if value == 0:
        return 64
    return (value & -value).bit_length() - 1


class FMSketch(StreamSampler):
    """Flajolet-Martin distinct counter with optional averaging copies.

    Each copy maintains the classic FM *bitmap* of observed rho values;
    its statistic ``R`` is the index of the lowest unset bit (not the
    maximum rho, whose expectation diverges), and the estimate is
    ``2^mean(R) / 0.77351``.

    >>> sketch = FMSketch(copies=16, seed=3)
    >>> for i in range(1000):
    ...     sketch.insert(i)
    ...     sketch.insert(i)  # duplicates do not matter
    >>> 300 <= sketch.estimate() <= 3000
    True
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "fm"

    def __init__(self, *, copies: int = 16, seed: int = 0) -> None:
        if copies < 1:
            raise ParameterError(f"copies must be >= 1, got {copies}")
        self._hashes = [SplitMix64(seed + i) for i in range(copies)]
        self._bitmaps = [0] * copies

    @property
    def copies(self) -> int:
        """Number of averaged sub-sketches."""
        return len(self._hashes)

    def insert(self, item: Item) -> None:
        """Observe one item (duplicates are absorbed by the bitmap)."""
        key = item_key(item)
        for i, h in enumerate(self._hashes):
            self._bitmaps[i] |= 1 << lowest_set_bit(h(key))

    def _check_batch(self, points: list) -> None:
        check_items(points)

    def _statistic(self, bitmap: int) -> int:
        """Index of the lowest unset bit of the bitmap."""
        return lowest_set_bit(~bitmap)

    def estimate(self) -> float:
        """``2^mean(R) / 0.77351`` over the copies."""
        mean_r = sum(self._statistic(b) for b in self._bitmaps) / len(
            self._bitmaps
        )
        return (2.0**mean_r) / FM_CORRECTION

    def space_words(self) -> int:
        """One bitmap register per copy."""
        return len(self._bitmaps) + 1

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng=None) -> float:
        """Protocol query: the corrected estimate (rng unused)."""
        return self.estimate()

    def merge(self, *others: "FMSketch") -> "FMSketch":
        """OR the bitmaps (requires identical copy hashes, i.e. inputs
        built from one spec); FM bitmaps are exactly union-mergeable."""
        from repro.api.protocol import check_merge_peers

        check_merge_peers(self, others)
        seeds = [h.seed for h in self._hashes]
        for other in others:
            if [h.seed for h in other._hashes] != seeds:
                raise ParameterError(
                    "cannot merge FM sketches with different hash seeds"
                )
        merged = FMSketch(copies=len(seeds))
        merged._hashes = [SplitMix64(s, premixed=True) for s in seeds]
        merged._bitmaps = list(self._bitmaps)
        for other in others:
            for i, bitmap in enumerate(other._bitmaps):
                merged._bitmaps[i] |= bitmap
        return merged

    def to_state(self) -> dict:
        """Serialise to a JSON-compatible dict (protocol checkpoint)."""
        return {
            "hash_seeds": [h.seed for h in self._hashes],
            "bitmaps": list(self._bitmaps),
        }

    @classmethod
    def from_state(cls, state: dict) -> "FMSketch":
        """Restore a sketch from :meth:`to_state` output."""
        sketch = cls(copies=len(state["hash_seeds"]))
        sketch._hashes = [
            SplitMix64(seed, premixed=True) for seed in state["hash_seeds"]
        ]
        sketch._bitmaps = list(state["bitmaps"])
        return sketch
