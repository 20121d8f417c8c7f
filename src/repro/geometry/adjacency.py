"""Computing ``adj(p)`` - the cells within distance ``alpha`` of a point.

Section 6.2 of the paper observes that naively enumerating the 3^d
neighbouring cells and testing each takes Theta(d * 3^d) time, and replaces
it with a depth-first search over dimensions that accumulates the squared
move distance and prunes as soon as it exceeds ``alpha^2`` (Algorithms 6-7).

This module implements a slight generalisation of that search: the paper's
version only visits offsets -1/0/+1 per dimension (sufficient when the cell
side is at least ``alpha``, as in the high-dimensional setting of Section 4),
whereas the constant-dimension samplers use side ``alpha / sqrt(d)`` where
the neighbourhood can span several cells per axis.  The DFS below walks
offsets outwards per dimension in increasing move distance, so it remains
exact for any side length while keeping the pruning behaviour.

:func:`collect_adjacent` is the scalar enumeration behind the per-point
``insert`` path (:meth:`repro.core.base.SamplerConfig.adj_hashes`); a
chunk's points take theirs from the vectorised twin
:func:`repro.geometry.kernels.adjacent_cells_chunk`.
:func:`adjacent_cells` is the iterator form, and
:func:`brute_force_adjacent_cells` is an oracle used by the tests.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.geometry.grid import Cell, Grid


def _axis_moves(frac: float, side: float, budget_sq: float) -> list[tuple[int, float]]:
    """Return (offset, squared move distance) pairs feasible along one axis.

    ``frac`` is the point's distance to the lower face of its cell.  Offset
    0 costs nothing; offset -j costs ``frac + (j - 1) * side``; offset +j
    costs ``(side - frac) + (j - 1) * side``.  Only offsets whose squared
    cost alone does not exceed ``budget_sq`` are returned.
    """
    moves = [(0, 0.0)]
    j = 1
    while True:
        dist = frac + (j - 1) * side
        cost = dist * dist
        if cost > budget_sq:
            break
        moves.append((-j, cost))
        j += 1
    j = 1
    while True:
        dist = (side - frac) + (j - 1) * side
        cost = dist * dist
        if cost > budget_sq:
            break
        moves.append((j, cost))
        j += 1
    return moves


def collect_adjacent(
    grid: Grid,
    point: Sequence[float],
    radius: float,
    *,
    base_cell: Cell | None = None,
) -> list[Cell]:
    """Return ``adj(point)`` as a list (the per-point ``insert`` form).

    Iterative breadth-wise construction over dimensions: the partial
    prefixes carry their accumulated squared move distance, and a prefix is
    extended by an axis move only while the accumulated distance stays
    within ``radius`` - the same pruning as the paper's DFS, organised for
    minimal Python overhead.  Dimensions 1 and 2 (the Section 2 setting,
    where per-point ``insert`` calls this for every point that joins no
    candidate group) run specialised loops producing the identical cells
    in the identical order.
    """
    if radius < 0:
        return []
    radius_sq = radius * radius
    if base_cell is None:
        base_cell = grid.cell_of(point)
    fractions = grid.fractional_position(point)
    side = grid.side

    if len(base_cell) == 1:
        base = base_cell[0]
        return [
            (base + offset,)
            for offset, _ in _axis_moves(fractions[0], side, radius_sq)
        ]
    if len(base_cell) == 2:
        base_x, base_y = base_cell
        moves_x = _axis_moves(fractions[0], side, radius_sq)
        moves_y = _axis_moves(fractions[1], side, radius_sq)
        cells: list[Cell] = []
        append = cells.append
        # Same order (axis-1 moves outermost) and the same float
        # arithmetic (cost_x + cost_y, never a rearranged comparison) as
        # the generic construction below.
        for offset_y, cost_y in moves_y:
            y = base_y + offset_y
            for offset_x, cost_x in moves_x:
                if cost_x + cost_y <= radius_sq:
                    append((base_x + offset_x, y))
        return cells

    # partials: (cost so far, coordinate prefix)
    partials: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
    for axis, base in enumerate(base_cell):
        moves = _axis_moves(fractions[axis], side, radius_sq)
        extended: list[tuple[float, tuple[int, ...]]] = []
        append = extended.append
        for offset, cost in moves:
            coordinate = base + offset
            for acc, prefix in partials:
                total = acc + cost
                if total <= radius_sq:
                    append((total, prefix + (coordinate,)))
        partials = extended
    return [prefix for _, prefix in partials]


def adjacent_cells(grid: Grid, point: Sequence[float], radius: float) -> Iterator[Cell]:
    """Yield every cell ``C`` with ``d(point, C) <= radius``.

    Includes ``cell(point)`` itself (distance zero), matching the paper's
    definition of ``adj(p)``.

    >>> grid = Grid(side=1.0, dim=1, offset=(0.0,))
    >>> sorted(adjacent_cells(grid, (0.5,), 0.6))
    [(-1,), (0,), (1,)]
    """
    return iter(collect_adjacent(grid, point, radius))


def brute_force_adjacent_cells(
    grid: Grid, point: Sequence[float], radius: float
) -> set[Cell]:
    """Reference implementation: test every cell in the bounding box.

    Exponential in the dimension - only suitable for tests, where it serves
    as the ground truth for :func:`adjacent_cells`.
    """
    if radius < 0:
        return set()
    base = grid.cell_of(point)
    # A cell at axis offset k is at distance >= (k - 1) * side, so only
    # offsets up to floor(radius / side) + 1 can qualify.
    span = int(math.floor(radius / grid.side)) + 1
    radius_sq = radius * radius
    result: set[Cell] = set()

    def recurse(axis: int, partial: list[int]) -> None:
        if axis == grid.dim:
            cell = tuple(partial)
            if grid.min_squared_distance(point, cell) <= radius_sq:
                result.add(cell)
            return
        for offset in range(-span, span + 1):
            partial.append(base[axis] + offset)
            recurse(axis + 1, partial)
            partial.pop()

    recurse(0, [])
    return result
