"""k-wise independent polynomial hashing over the Mersenne prime 2^61 - 1.

The paper (Section 2.1) notes that all analyses go through with
Theta(log m)-wise independent hash functions via the Chernoff-Hoeffding
bounds for limited independence of Schmidt, Siegel and Srinivasan (SIAM J.
Discrete Math., 1995).  This module provides the standard construction: a
degree-(k-1) polynomial with random coefficients evaluated over GF(p) for
the Mersenne prime p = 2^61 - 1, which supports fast modular reduction.
"""

from __future__ import annotations

import random

from repro.errors import ParameterError

#: The Mersenne prime 2^61 - 1 used as the field size.
MERSENNE_P = (1 << 61) - 1


class KWiseHash:
    """A k-wise independent hash function ``h : int -> [0, 2^61 - 1)``.

    Evaluates a random polynomial of degree ``k - 1`` over GF(2^61 - 1) by
    Horner's rule.  Any ``k`` distinct keys receive fully independent values.

    Parameters
    ----------
    k:
        Independence parameter (>= 2).  The paper needs Theta(log m);
        ``k = 32`` covers any practically conceivable stream length.
    seed:
        Seed for drawing the polynomial's coefficients.

    Examples
    --------
    >>> h = KWiseHash(k=4, seed=7)
    >>> h(42) == h(42)
    True
    >>> 0 <= h(42) < MERSENNE_P
    True
    """

    __slots__ = ("_coefficients", "_k")

    def __init__(self, k: int = 32, seed: int = 0) -> None:
        if k < 2:
            raise ParameterError(f"independence k must be >= 2, got {k}")
        rng = random.Random(seed)
        # The leading coefficient is non-zero so the polynomial has true
        # degree k-1; the remaining ones are arbitrary field elements.
        leading = rng.randrange(1, MERSENNE_P)
        rest = [rng.randrange(MERSENNE_P) for _ in range(k - 1)]
        self._coefficients = tuple([leading] + rest)
        self._k = k

    @property
    def k(self) -> int:
        """The independence parameter."""
        return self._k

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The polynomial's coefficients (for checkpoint/restore)."""
        return self._coefficients

    @classmethod
    def from_coefficients(cls, coefficients: tuple[int, ...]) -> "KWiseHash":
        """Rebuild a hash from stored coefficients."""
        if len(coefficients) < 2:
            raise ParameterError("need at least 2 coefficients")
        instance = cls.__new__(cls)
        instance._coefficients = tuple(int(c) % MERSENNE_P for c in coefficients)
        instance._k = len(coefficients)
        return instance

    def __call__(self, key: int) -> int:
        """Evaluate the polynomial at ``key`` (reduced into the field)."""
        p = MERSENNE_P
        x = key % p
        acc = 0
        for coefficient in self._coefficients:
            # With acc, x < p the product is below 2^122: one fold at bit
            # 61 plus one conditional subtract reduces it fully.
            acc = acc * x + coefficient
            acc = (acc & p) + (acc >> 61)
            if acc >= p:
                acc -= p
        return acc

    def many_chunk(self, keys):
        """Vectorised :meth:`__call__` over a numpy uint64 array.

        Returns a ``numpy.uint64`` array with ``out[i] ==
        self(int(keys[i]))`` for every lane.  Every step of the scalar
        Horner loop is an exact reduction: with ``acc, x < p`` its one
        fold plus one conditional subtract leaves ``(acc * x + c) mod p``
        fully reduced.  So any exact evaluation mod ``p`` agrees with it
        bit for bit; this one works in uint64 lanes on 31-bit limbs,
        where ``2^62 = 2 (mod p)`` and ``2^61 = 1 (mod p)`` turn the
        122-bit product into a sum below ``2^64``, keeps the accumulator
        lazily reduced (below ``2^61 + 8``) between steps and reduces it
        fully once at the end.  This is the hashing layer's batch entry
        point for the vectorised chunk geometry; it requires numpy.
        """
        import numpy as np

        p = np.uint64(MERSENNE_P)
        mask31 = np.uint64((1 << 31) - 1)
        mask30 = np.uint64((1 << 30) - 1)
        s31, s30, s61 = np.uint64(31), np.uint64(30), np.uint64(61)
        x = np.asarray(keys, dtype=np.uint64) % p
        x0 = x & mask31
        x1 = x >> s31
        x1_twice = x1 + x1
        coefficients = self._coefficients
        acc = np.full(x.shape, coefficients[0], dtype=np.uint64)
        a0, a1, t, mid, u = (np.empty_like(x) for _ in range(5))
        for coefficient in coefficients[1:]:
            # acc * x = a1*x1 * 2^62 + (a1*x0 + a0*x1) * 2^31 + a0*x0
            #         = 2*a1*x1 + (mid >> 30) + (mid & (2^30-1)) * 2^31
            #           + a0*x0  (mod p), each term below 2^62.
            np.bitwise_and(acc, mask31, out=a0)
            np.right_shift(acc, s31, out=a1)
            np.multiply(a1, x1_twice, out=t)
            np.multiply(a1, x0, out=mid)
            np.multiply(a0, x1, out=u)
            mid += u
            a0 *= x0
            t += a0
            np.right_shift(mid, s30, out=u)
            t += u
            mid &= mask30
            mid <<= s31
            t += mid
            t += np.uint64(coefficient)
            # One fold at bit 61: t < 2^64, so acc < 2^61 + 8.
            np.right_shift(t, s61, out=u)
            np.bitwise_and(t, p, out=acc)
            acc += u
        # acc < 2p: one conditional subtract (an unsigned wrap marks
        # acc < p) completes the reduction.
        np.subtract(acc, p, out=u)
        return np.minimum(acc, u)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KWiseHash(k={self._k})"
