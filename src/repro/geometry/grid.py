"""The random grid posted over R^d (Section 2.1).

A :class:`Grid` is an axis-aligned partition of R^d into hypercubes of a
given side length, shifted by a random offset drawn uniformly from
``[0, side)^d``.  The random shift is what makes "a group's bounding ball is
cut by cell boundaries" a probabilistic event (used by Lemma 4.2).

Cells are identified by their integer coordinate tuples; a stable 64-bit
mixing of the tuple plays the role of the paper's numerical cell ID (the
paper assigns ``(i - 1) * Delta + j``; any injective-in-practice numbering
independent of the sampling hash works, and mixing avoids having to bound
the coordinate range up front).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import DimensionMismatchError, ParameterError
from repro.hashing.mix import splitmix64

Cell = tuple[int, ...]

_MASK64 = (1 << 64) - 1


class Grid:
    """A randomly shifted grid of side length ``side`` over R^dim.

    Parameters
    ----------
    side:
        Cell side length (> 0).  The constant-dimension samplers use
        ``alpha / sqrt(d)`` so that the cell diameter is at most ``alpha``
        and Fact 1(a) holds; the high-dimensional sampler uses ``d * alpha``.
    dim:
        Dimensionality of the ambient space.
    rng:
        Source of randomness for the offset.  Ignored when ``offset`` is
        given.  Defaults to a fresh unseeded generator.
    offset:
        Explicit offset vector (each entry in ``[0, side)``); useful for
        deterministic tests.

    Examples
    --------
    >>> grid = Grid(side=1.0, dim=2, offset=(0.0, 0.0))
    >>> grid.cell_of((0.5, 1.5))
    (0, 1)
    >>> grid.cell_of((-0.1, 0.0))
    (-1, 0)
    """

    __slots__ = ("_side", "_dim", "_offset")

    def __init__(
        self,
        side: float,
        dim: int,
        *,
        rng: random.Random | None = None,
        offset: Sequence[float] | None = None,
    ) -> None:
        if side <= 0:
            raise ParameterError(f"grid side length must be positive, got {side}")
        if dim < 1:
            raise ParameterError(f"dimension must be >= 1, got {dim}")
        self._side = float(side)
        self._dim = dim
        if offset is not None:
            if len(offset) != dim:
                raise DimensionMismatchError(
                    f"offset has {len(offset)} coordinates, expected {dim}"
                )
            for value in offset:
                if not 0 <= value < side:
                    raise ParameterError(
                        f"offset entries must lie in [0, side); got {value}"
                    )
            self._offset = tuple(float(v) for v in offset)
        else:
            rng = rng if rng is not None else random.Random()
            self._offset = tuple(rng.uniform(0.0, self._side) for _ in range(dim))

    @property
    def side(self) -> float:
        """Cell side length."""
        return self._side

    @property
    def dim(self) -> int:
        """Dimensionality of the grid."""
        return self._dim

    @property
    def offset(self) -> tuple[float, ...]:
        """The random shift of the grid, one entry per dimension."""
        return self._offset

    def _check_point(self, point: Sequence[float]) -> None:
        if len(point) != self._dim:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, grid expects {self._dim}"
            )

    def cell_of(self, point: Sequence[float]) -> Cell:
        """Return the integer coordinates of the cell containing ``point``."""
        self._check_point(point)
        side = self._side
        return tuple(
            int((x - o) // side) for x, o in zip(point, self._offset)
        )

    def cell_id(self, cell: Cell) -> int:
        """Return a stable integer identifier for a cell coordinate tuple.

        Plays the role of the paper's numerical cell ID.  CPython's tuple
        hash is used for the combination: for tuples of ints it is a
        deterministic, well-mixed function of the contents (int hashing is
        not randomised by PYTHONHASHSEED), and it runs at C speed - this
        sits on the hot path of every insert.  A final splitmix64 round
        decorrelates it from any structure of the coordinates.
        """
        return splitmix64(hash(cell) & _MASK64)

    def lower_corner(self, cell: Cell) -> tuple[float, ...]:
        """Return the coordinates of the cell's lower corner."""
        if len(cell) != self._dim:
            raise DimensionMismatchError(
                f"cell has {len(cell)} coordinates, grid expects {self._dim}"
            )
        return tuple(o + c * self._side for o, c in zip(self._offset, cell))

    def fractional_position(self, point: Sequence[float]) -> tuple[float, ...]:
        """Return per-dimension distances from ``point`` to its cell's lower face.

        Each entry lies in ``[0, side)`` (clamped against floating-point
        drift); used by the adjacency search to compute move distances.
        """
        self._check_point(point)
        side = self._side
        fractions = []
        for x, o in zip(point, self._offset):
            frac = (x - o) - ((x - o) // side) * side
            if frac < 0.0:
                frac = 0.0
            elif frac >= side:
                frac = side
            fractions.append(frac)
        return tuple(fractions)

    def min_squared_distance(self, point: Sequence[float], cell: Cell) -> float:
        """Exact squared distance from ``point`` to the closed cell ``cell``."""
        self._check_point(point)
        side = self._side
        acc = 0.0
        for x, o, c in zip(point, self._offset, cell):
            low = o + c * side
            high = low + side
            if x < low:
                diff = low - x
            elif x > high:
                diff = x - high
            else:
                diff = 0.0
            acc += diff * diff
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Grid(side={self._side}, dim={self._dim})"
