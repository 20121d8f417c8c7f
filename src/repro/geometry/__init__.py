"""Euclidean-space substrate: distances, random grids and cell adjacency.

The samplers post a random grid over R^d (Section 2.1) and make all
sampling decisions on grid-cell identifiers.  This subpackage provides:

* :mod:`repro.geometry.distance` - squared/plain Euclidean distances with
  early-abort variants used in the hot path,
* :mod:`repro.geometry.grid` - the random grid, ``cell(p)`` and stable
  64-bit cell identifiers,
* :mod:`repro.geometry.adjacency` - ``adj(p)`` via the DFS pruned search of
  the paper's Algorithms 6-7, plus a brute-force reference implementation.
"""

from repro.geometry.adjacency import (
    adjacent_cells,
    brute_force_adjacent_cells,
    collect_adjacent,
)
from repro.geometry.distance import (
    distance,
    squared_distance,
    within_distance,
)
from repro.geometry.grid import Grid

__all__ = [
    "Grid",
    "distance",
    "squared_distance",
    "within_distance",
    "adjacent_cells",
    "brute_force_adjacent_cells",
    "collect_adjacent",
]
