"""SplitMix64 - a fast, high-quality 64-bit integer mixer.

The samplers hash grid-cell identifiers.  A finalizer-style mixer such as
splitmix64 passes the usual avalanche test batteries and is the standard
practical stand-in for a fully random hash function on 64-bit keys; the
paper's experiments likewise use an ad-hoc fast hash.  The theory-faithful
alternative (limited-independence polynomial hashing) lives in
:mod:`repro.hashing.kwise`.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """Mix ``value`` into a uniform-looking 64-bit output.

    This is the finalizer of the splitmix64 generator (Steele et al.,
    "Fast splittable pseudorandom number generators", OOPSLA 2014).

    >>> splitmix64(0) == splitmix64(0)
    True
    >>> 0 <= splitmix64(123456789) < 2 ** 64
    True
    """
    z = (value + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SplitMix64:
    """A seeded hash function ``h : int -> [0, 2^64)`` built on splitmix64.

    Two instances with the same seed compute identical functions; instances
    with different seeds behave like independent random functions.

    Parameters
    ----------
    seed:
        Any integer; it is folded into the key before mixing.
    """

    __slots__ = ("_seed",)

    def __init__(self, seed: int = 0, *, premixed: bool = False) -> None:
        # Pre-mix the seed so that consecutive seeds give unrelated
        # functions; ``premixed`` restores an exact internal state (used by
        # checkpoint/restore in :mod:`repro.persist`).
        self._seed = seed & _MASK64 if premixed else splitmix64(seed & _MASK64)

    @property
    def seed(self) -> int:
        """The internal (pre-mixed) seed value."""
        return self._seed

    def __call__(self, key: int) -> int:
        """Return a 64-bit hash of ``key``."""
        # Two mixing rounds separated by a seed injection: one round with a
        # simple xor-ed seed is distinguishable for structured key sets
        # (e.g. consecutive grid-cell IDs); two rounds are not.
        return splitmix64(splitmix64(key & _MASK64) ^ self._seed)

    def many_chunk(self, keys):
        """Vectorised :meth:`__call__` over a numpy uint64 array.

        ``keys`` is a ``numpy.uint64`` array; returns a ``numpy.uint64``
        array with ``out[i] == self(int(keys[i]))`` for every lane (the
        same two splitmix64 rounds around the seed injection).  This is
        the hashing layer's batch entry point for the vectorised chunk
        geometry (:mod:`repro.geometry.kernels`); it requires numpy.
        """
        from repro.geometry.kernels import splitmix64_chunk

        import numpy

        return splitmix64_chunk(
            splitmix64_chunk(keys) ^ numpy.uint64(self._seed)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SplitMix64(seed={self._seed:#x})"
