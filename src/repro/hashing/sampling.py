"""The paper's ``h_R`` sub-sampling hash (Section 2.1).

Given a base hash ``h`` and a power-of-two ``R``, the paper defines
``h_R(x) = h(x) mod R`` and calls a key *sampled* when ``h_R(x) = 0``; the
sample rate is ``1/R``.  Because ``R`` divides ``2R``, a key sampled at rate
``1/(2R)`` is always sampled at rate ``1/R`` (Fact 1(b)); this nesting is
what lets Algorithm 1 halve the rate in place and lets the sliding-window
hierarchy (Algorithm 3) promote points from level l to level l+1.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import ParameterError
from repro.hashing.mix import SplitMix64


class BaseHash(Protocol):
    """A seeded map from an int key to a non-negative int hash value.

    ``many_chunk`` evaluates the same map over a numpy uint64 array.
    """

    def __call__(self, key: int) -> int:  # pragma: no cover - protocol
        ...

    def many_chunk(self, keys):  # pragma: no cover - protocol
        ...


class SamplingHash:
    """Implements ``h_R(x) = h(x) mod R`` for powers-of-two ``R``.

    Instances are stateless with respect to ``R``; the same object serves
    every level of the sliding-window hierarchy so that sampling decisions
    are nested across rates.

    Parameters
    ----------
    base:
        The underlying hash function.  Defaults to a seeded
        :class:`~repro.hashing.mix.SplitMix64`.
    seed:
        Convenience: when ``base`` is omitted, seed for the default mixer.

    Examples
    --------
    >>> h = SamplingHash(seed=1)
    >>> all(h.is_sampled(k, 1) for k in range(10))  # rate 1 samples all
    True
    >>> key = 12345
    >>> h.is_sampled(key, 8) and not h.is_sampled(key, 4)  # nesting
    False
    """

    __slots__ = ("_base",)

    def __init__(self, base: BaseHash | None = None, *, seed: int = 0) -> None:
        self._base: BaseHash = base if base is not None else SplitMix64(seed)

    @property
    def base(self) -> BaseHash:
        """The underlying integer hash function."""
        return self._base

    @staticmethod
    def _check_rate(rate_denominator: int) -> None:
        if rate_denominator < 1 or rate_denominator & (rate_denominator - 1):
            raise ParameterError(
                f"rate denominator R must be a positive power of two, got {rate_denominator}"
            )

    def value(self, key: int) -> int:
        """Return the raw base-hash value of ``key``."""
        return self._base(key)

    def value_chunk(self, keys):
        """Raw base-hash values of a numpy uint64 key array, as uint64.

        The batch entry point of the vectorised chunk geometry: the base
        hash's numpy evaluator (:meth:`SplitMix64.many_chunk
        <repro.hashing.mix.SplitMix64.many_chunk>`, :meth:`KWiseHash.many_chunk
        <repro.hashing.kwise.KWiseHash.many_chunk>`), whose values equal
        ``[self.value(int(k)) for k in keys]``.
        """
        return self._base.many_chunk(keys)

    def residue(self, key: int, rate_denominator: int) -> int:
        """Return ``h(key) mod R`` (the paper's ``h_R(key)``)."""
        self._check_rate(rate_denominator)
        return self._base(key) & (rate_denominator - 1)

    def is_sampled(self, key: int, rate_denominator: int) -> bool:
        """True when ``h_R(key) = 0``, i.e. ``key`` survives rate ``1/R``.

        Sampling decisions are nested: ``is_sampled(k, 2 * R)`` implies
        ``is_sampled(k, R)`` for every key ``k``.
        """
        self._check_rate(rate_denominator)
        return self._base(key) & (rate_denominator - 1) == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SamplingHash(base={self._base!r})"
