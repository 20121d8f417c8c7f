"""Vectorised geometry kernels: numpy twins of the scalar hot-path math.

The batched ingestion paths spend most of their per-point budget on
geometry - cell coordinates, cell identifiers, cell hashes, adjacency
neighbourhoods - recomputed point by point in Python.  This module
computes the same quantities for a whole chunk of points at once with
numpy, **bit-identically** to the scalar implementations they replace:

* :func:`cell_coords_chunk` - the floor-division cell assignment of
  :meth:`repro.geometry.grid.Grid.cell_of` (numpy's ``floor_divide``
  implements CPython's float ``//`` semantics exactly);
* :func:`fractional_positions_chunk` - the clamped per-axis distances of
  :meth:`~repro.geometry.grid.Grid.fractional_position`, computed with
  the identical IEEE operation sequence;
* :func:`tuple_hashes` / :func:`cell_ids_chunk` - CPython's int and
  tuple hashing (the xxHash-style combiner of ``Objects/tupleobject.c``)
  re-implemented in uint64 lanes, then the splitmix64 finalisation of
  :meth:`~repro.geometry.grid.Grid.cell_id`;
* :func:`splitmix64_chunk` - the splitmix64 finalizer over an array;
* :func:`max_trailing_zeros` - per-point survival exponents of the
  ``adj(p)`` hash tuples (:meth:`CandidateRecord.survival_exponent
  <repro.core.base.CandidateRecord.survival_exponent>` in bulk);
* :func:`adjacent_cells_chunk` - the pruned ``adj(p)`` enumeration of
  :func:`repro.geometry.adjacency.collect_adjacent` for every point of a
  chunk, producing the identical cells in the identical order
  (vectorised for the common ``dim <= 4`` grids; callers fall back to
  the scalar DFS above that);
* :func:`high_dim_ignore_probe` - a *conservative* sampled-cell
  membership probe usable at any dimension: ``True`` marks points that
  certainly have no sampled cell in ``adj(p)`` beyond their own cell,
  without enumerating the (exponential in ``dim``) neighbourhood;
* :func:`low_dim_ignore_probe` - its *exact* ``dim <= 2`` counterpart.
  When either probe returns ``None`` the infinite-window sampler runs
  the exact founding path for every point of the chunk.

Equality with the scalar path is not best-effort: record state (cells,
hash tuples) feeds ``state_fingerprint``, so any divergence - even a
1-ulp boundary flip in an adjacency cost - is a correctness bug.  The
differential suite in ``tests/test_geometry_kernels.py`` checks every
kernel against its scalar oracle over adversarial cell-boundary points.

numpy is a hard dependency (``setup.py``).  The kernels serve every
chunk a :class:`~repro.core.chunk_geometry.ChunkGeometry` covers; the
scalar implementations they mirror live on in the samplers' ``insert``,
which ingests the chunks too small for a geometry and is the oracle the
batch paths are checked against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Cell coordinates at or beyond this magnitude cannot be carried in the
#: int64 vector path (and the float64 they came from has long stopped
#: being integer-exact anyway).  A point whose cell reaches it is
#: rejected at the ingestion boundary
#: (:func:`repro.core.base.check_vector` and its vectorised twin in
#: :mod:`repro.core.chunk_geometry`), on every path alike.
COORD_LIMIT = float(1 << 62)

#: Mersenne prime modulus of CPython's number hashing (``_PyHASH_MODULUS``).
_M61 = (1 << 61) - 1

#: Vectorised adjacency is generated from a dense per-axis offset table;
#: above this dimension (or this many table entries) the scalar DFS is
#: the better tool and :func:`adjacent_cells_chunk` returns ``None``.
MAX_ADJACENCY_DIM = 4
_MAX_ADJACENCY_TABLE = 4_000_000

_U64 = np.uint64
_MASK64 = _U64(0xFFFFFFFFFFFFFFFF)
# splitmix64 finalizer constants (Steele et al., OOPSLA 2014).
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX_B = _U64(0xBF58476D1CE4E5B9)
_MIX_C = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S33 = _U64(30), _U64(27), _U64(31), _U64(33)
# CPython tuple-hash constants (xxHash primes, Objects/tupleobject.c).
_XXPRIME_1 = _U64(11400714785074694791)
_XXPRIME_2 = _U64(14029467366897019727)
_XXPRIME_5 = _U64(2870177450012600261)
_XXLEN_XOR = _XXPRIME_5 ^ _U64(3527539)


def splitmix64_chunk(values: "np.ndarray") -> "np.ndarray":
    """Vectorised :func:`repro.hashing.mix.splitmix64` over uint64 lanes.

    ``values`` must be a ``uint64`` array; returns a new ``uint64`` array
    with ``out[i] == splitmix64(int(values[i]))`` for every lane.
    """
    z = values + _GAMMA
    z = (z ^ (z >> _S30)) * _MIX_B
    z = (z ^ (z >> _S27)) * _MIX_C
    return z ^ (z >> _S31)


def int_hash_lanes(coords: "np.ndarray") -> "np.ndarray":
    """CPython ``hash(int)`` of every int64 entry, as unsigned 64-bit lanes.

    ``hash(n)`` is ``n mod (2^61 - 1)`` with the sign carried through and
    the value ``-1`` remapped to ``-2``; the unsigned lane is its two's
    complement image, exactly what the tuple-hash combiner consumes.
    Entries must satisfy ``|n| < 2^62`` (the :data:`COORD_LIMIT` the
    chunk builders enforce).
    """
    reduced = np.abs(coords) % _M61
    signed = np.where(coords < 0, -reduced, reduced)
    signed[signed == -1] = -2
    return signed.astype(np.uint64)


def tuple_hashes(coords: "np.ndarray") -> "np.ndarray":
    """CPython ``hash(tuple_of_ints) & (2^64 - 1)`` for every row.

    Replicates ``tuplehash`` from ``Objects/tupleobject.c`` (the
    xxHash-style combiner used since CPython 3.8) over uint64 lanes, one
    row of ``coords`` per output value.  Int hashing is not randomised
    by ``PYTHONHASHSEED``, so the values are stable across processes -
    the property :meth:`repro.geometry.grid.Grid.cell_id` relies on.
    """
    lanes = int_hash_lanes(coords)
    length = coords.shape[1]
    acc = np.full(coords.shape[0], _XXPRIME_5, dtype=np.uint64)
    for axis in range(length):
        acc = acc + lanes[:, axis] * _XXPRIME_2
        acc = (acc << _S31) | (acc >> _S33)
        acc = acc * _XXPRIME_1
    acc = acc + (_U64(length) ^ _XXLEN_XOR)
    acc[acc == _MASK64] = _U64(1546275796)
    return acc


def cell_ids_chunk(coords: "np.ndarray") -> "np.ndarray":
    """:meth:`Grid.cell_id <repro.geometry.grid.Grid.cell_id>` per row:
    ``splitmix64(hash(cell) & MASK64)`` as a uint64 array."""
    return splitmix64_chunk(tuple_hashes(coords))


def max_trailing_zeros(
    hashes: "np.ndarray", counts: "np.ndarray"
) -> "np.ndarray":
    """Largest trailing-zero count per consecutive group of uint64 hashes.

    ``counts[j]`` hashes of ``hashes`` form group ``j`` (in order); a
    zero hash counts 64 and an empty group 0.  Per group this equals
    :meth:`CandidateRecord.survival_exponent
    <repro.core.base.CandidateRecord.survival_exponent>`: the lowest set
    bit ``h & -h`` is a power of two, which ``frexp`` decodes exactly.
    """
    lowest = hashes & (~hashes + _U64(1))
    _, exponent = np.frexp(lowest.astype(np.float64))
    tz = np.where(hashes == 0, 64, exponent - 1)
    out = np.zeros(len(counts), dtype=np.int64)
    nonempty = counts > 0
    if nonempty.any():
        starts = np.cumsum(counts) - counts
        out[nonempty] = np.maximum.reduceat(tz, starts[nonempty])
    return out


def cell_coords_chunk(
    shifted: "np.ndarray", side: float
) -> "np.ndarray":
    """Float cell coordinates ``(x - offset) // side`` for a whole chunk.

    ``shifted`` is the pre-shifted ``(n, dim)`` coordinate array
    (``points - grid.offset``).  numpy's ``floor_divide`` implements the
    same fmod-then-floor algorithm as CPython's float ``//``, so every
    entry equals the scalar ``(x - o) // side`` bit for bit; non-finite
    inputs yield non-finite outputs, which the chunk validation
    rejects.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return np.floor_divide(shifted, side)


def fractional_positions_chunk(
    shifted: "np.ndarray", cells_f: "np.ndarray", side: float
) -> "np.ndarray":
    """Clamped per-axis distances to the cell's lower face, per point.

    Matches :meth:`Grid.fractional_position
    <repro.geometry.grid.Grid.fractional_position>` operation for
    operation: ``(x - o) - ((x - o) // side) * side`` with the result
    clamped into ``[0, side]`` against floating-point drift.
    """
    return np.clip(shifted - cells_f * side, 0.0, side)


def adjacent_cells_chunk(
    coords: "np.ndarray",
    fracs: "np.ndarray",
    side: float,
    radius: float,
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Enumerate ``adj(p)`` for every point of a chunk, vectorised.

    Returns ``(cells, counts)``: ``cells`` is an int64 ``(k, dim)`` array
    of adjacency cells, ``counts[i]`` how many of its rows belong to
    point ``i`` (rows are grouped by point, in point order), such that
    point ``i``'s rows equal
    ``collect_adjacent(grid, p_i, radius, base_cell=cell(p_i))`` - the
    same cells in the same enumeration order (the per-axis
    ``0, -1, ..., +1, ...`` move order with later axes outermost).

    Returns ``None`` when the dimension exceeds
    :data:`MAX_ADJACENCY_DIM` or the dense offset table would be
    unreasonably large (tiny ``side`` relative to ``radius``); callers
    then use the scalar DFS, which handles any configuration.
    """
    n, dim = coords.shape
    if dim > MAX_ADJACENCY_DIM:
        return None
    if radius < 0:
        return (
            np.empty((0, dim), dtype=np.int64),
            np.zeros(n, dtype=np.int64),
        )
    radius_sq = radius * radius
    # One extra step of headroom over floor(radius/side): float floor
    # division can round down (1.0 // 0.1 == 9.0) while the scalar
    # _axis_moves loop still admits the next offset whenever its product
    # rounds within the budget; surplus offsets are infeasible by
    # construction and the total-cost mask below discards them.
    j_max = int(radius // side) + 2
    m = 2 * j_max + 1
    if n * (m**dim) > _MAX_ADJACENCY_TABLE:
        return None

    # Per-axis offsets in _axis_moves order: 0, -1..-J, +1..+J.  A move
    # is feasible when its squared distance fits the remaining budget;
    # infeasible moves survive into the dense table and are masked out
    # by the total-cost test below (their cost alone already exceeds
    # radius_sq, and float addition of non-negatives never decreases).
    offsets = np.empty(m, dtype=np.int64)
    offsets[0] = 0
    offsets[1 : j_max + 1] = -np.arange(1, j_max + 1)
    offsets[j_max + 1 :] = np.arange(1, j_max + 1)
    # (j - 1) * side for j = 1..J, computed exactly as the scalar code.
    steps = (np.arange(1, j_max + 1, dtype=np.float64) - 1.0) * side
    cost = np.empty((n, dim, m), dtype=np.float64)
    cost[:, :, 0] = 0.0
    minus = fracs[:, :, None] + steps[None, None, :]
    cost[:, :, 1 : j_max + 1] = minus * minus
    plus = (side - fracs)[:, :, None] + steps[None, None, :]
    cost[:, :, j_max + 1 :] = plus * plus

    # Accumulate axis costs left-associatively (acc + cost), the same
    # float expression the scalar construction evaluates; the final
    # total <= radius_sq test subsumes the scalar path's intermediate
    # prefix pruning because float addition of non-negative costs is
    # monotone.  The accumulated block keeps later axes outermost, so
    # np.nonzero walks cells in the scalar enumeration order.
    total = cost[:, 0, :]
    for axis in range(1, dim):
        axis_cost = cost[:, axis, :].reshape((n, m) + (1,) * axis)
        total = total[:, None] + axis_cost
    mask = total <= radius_sq

    index = np.nonzero(mask)
    point = index[0]
    cells = np.empty((point.shape[0], dim), dtype=np.int64)
    for axis in range(dim):
        cells[:, axis] = coords[point, axis] + offsets[index[dim - axis]]
    counts = np.bincount(point, minlength=n)
    return cells, counts


def low_dim_ignore_probe(
    coords: "np.ndarray",
    fracs: "np.ndarray",
    side: float,
    radius: float,
    mask: int,
    hash_coords: "Callable[[np.ndarray], np.ndarray]",
) -> "np.ndarray | None":
    """Exact "no sampled cell in ``adj(p)``" verdict per point (small dims).

    Enumerates ``adj(p)`` itself with :func:`adjacent_cells_chunk`
    (bit-identical to the exact path's adjacency), hashes every cell
    (``hash_coords``) and tests against ``mask``.  ``True`` entries
    have **no** sampled cell in ``adj(p)`` - the exact founding path
    would ignore them outright.  The probe is exact, not conservative:
    ``False`` entries certainly have a sampled cell in ``adj(p)`` and
    go straight to the founding path.

    The enumeration includes the point's own cell; callers consult the
    probe only for points whose own cell is unsampled, where that row
    never matches.  Verdicts nest across mid-chunk rate doublings
    exactly like :func:`high_dim_ignore_probe`'s (the sampled set only
    shrinks), so one probe per chunk suffices for ``True`` entries;
    ``False`` entries re-test against the live mask on the exact path.

    Returns ``None`` when :func:`adjacent_cells_chunk` cannot serve the
    configuration (dimension or table size); callers then run the exact
    founding path for every point.
    """
    result = adjacent_cells_chunk(coords, fracs, side, radius)
    if result is None:
        return None
    n = coords.shape[0]
    cells, counts = result
    if cells.shape[0] == 0:
        return np.ones(n, dtype=bool)
    sampled = (hash_coords(cells) & _U64(mask)) == 0
    owners = np.repeat(np.arange(n), counts)
    return np.bincount(owners[sampled], minlength=n) == 0


def high_dim_ignore_probe(
    coords: "np.ndarray",
    fracs: "np.ndarray",
    side: float,
    radius: float,
    mask: int,
    hash_coords: "Callable[[np.ndarray], np.ndarray]",
) -> "np.ndarray | None":
    """Conservative "no sampled cell in ``adj(p)`` beyond ``cell(p)``" probe.

    For grids whose cells are strictly larger than ``radius`` (the
    ``dim > 2`` default, side ``radius * dim``), every adjacency offset
    is ``-1/0/+1`` per axis.  The probe marks a point ``True`` only when
    it is *certain* no sampled cell exists in ``adj(p)`` other than
    possibly its own cell:

    * an axis move is feasible only when its squared distance fits
      within ``radius^2 * (1 + 1e-9)`` (over-inclusive, so boundary
      points always reach the exact path);
    * every feasible single-axis neighbour is hashed (``hash_coords``)
      and tested against ``mask``;
    * multi-axis (diagonal) neighbours whose summed per-axis costs fit
      the budget are *enumerated and hashed too* (a pruned DFS over the
      feasible ``{-1, 0, +1}`` offsets, run only for the points whose
      two cheapest axis moves fit the budget together - corner-parked
      points, typically few); a point whose feasible enumeration would
      exceed :data:`_DIAGONAL_CELL_CAP` cells falls back to the old
      conservative verdict (sent to the exact path).

    Returns a bool array (``True`` = certainly ignorable when the
    point's own cell is unsampled), or ``None`` when ``side`` is not
    strictly larger than the radius budget (multi-step offsets would be
    possible and the probe's premise breaks - callers fall back to the
    exact path for the whole chunk).

    Because sampling decisions are nested across rates (Fact 1(b)), a
    verdict computed at rate mask ``R - 1`` stays valid after the rate
    doubles mid-chunk: the sampled-cell set only shrinks.
    """
    n, dim = coords.shape
    budget = radius * radius * (1.0 + 1e-9)
    if side * side <= budget:
        return None
    minus_cost = fracs * fracs
    rem = side - fracs
    plus_cost = rem * rem
    feasible_minus = minus_cost <= budget
    feasible_plus = plus_cost <= budget

    # Sampled single-axis neighbours (the only adjacency cells the probe
    # inspects exactly).
    hit = np.zeros(n, dtype=bool)
    neighbour_blocks = []
    owner_blocks = []
    for sign, feasible in ((-1, feasible_minus), (1, feasible_plus)):
        point, axis = np.nonzero(feasible)
        if point.size == 0:
            continue
        neighbours = coords[point].copy()
        neighbours[np.arange(point.size), axis] += sign
        neighbour_blocks.append(neighbours)
        owner_blocks.append(point)
    if neighbour_blocks:
        neighbours = np.concatenate(neighbour_blocks)
        owners = np.concatenate(owner_blocks)
        sampled = (hash_coords(neighbours) & _U64(mask)) == 0
        if sampled.any():
            hit = np.bincount(owners[sampled], minlength=n) > 0

    # Feasible diagonal neighbourhood: the two cheapest feasible axis
    # moves fitting the budget together means some multi-axis cell may
    # lie within the radius.  Those cells used to be a conservative
    # give-up; enumerate and hash them instead (the candidate points
    # are corner-parked and few, so the per-point DFS is cheap), so a
    # point whose whole feasible diagonal set is unsampled is still
    # certainly ignorable.
    if dim >= 2:
        axis_min = np.where(feasible_minus, minus_cost, np.inf)
        axis_min = np.minimum(
            axis_min, np.where(feasible_plus, plus_cost, np.inf)
        )
        cheapest_two = np.partition(axis_min, 1, axis=1)[:, :2]
        maybe = (cheapest_two.sum(axis=1) <= budget) & ~hit
        diagonal = np.zeros(n, dtype=bool)
        if maybe.any():
            candidates = np.nonzero(maybe)[0]
            minus_list = minus_cost[candidates].tolist()
            plus_list = plus_cost[candidates].tolist()
            coords_list = coords[candidates].tolist()
            cell_rows: list[list[int]] = []
            owner_rows: list[int] = []
            for position, index in enumerate(candidates.tolist()):
                cells = _feasible_diagonal_cells(
                    coords_list[position],
                    minus_list[position],
                    plus_list[position],
                    budget,
                )
                if cells is None:
                    # Cap exceeded: keep the old conservative verdict
                    # for this point (exact path decides).
                    diagonal[index] = True
                else:
                    cell_rows.extend(cells)
                    owner_rows.extend([index] * len(cells))
            if cell_rows:
                sampled = (
                    hash_coords(np.array(cell_rows, dtype=np.int64))
                    & _U64(mask)
                ) == 0
                if sampled.any():
                    owners = np.array(owner_rows, dtype=np.intp)
                    diagonal |= (
                        np.bincount(owners[sampled], minlength=n) > 0
                    )
        return ~(hit | diagonal)
    return ~hit


#: Per-point bound on enumerated feasible diagonal cells in
#: :func:`high_dim_ignore_probe`; beyond it the point keeps the old
#: conservative "send to the exact path" verdict.
_DIAGONAL_CELL_CAP = 512


def _feasible_diagonal_cells(
    cell: list, minus_cost: list, plus_cost: list, budget: float
) -> list[list[int]] | None:
    """Multi-axis ``{-1, 0, +1}`` neighbours within the cost budget.

    A pruned DFS over per-axis offsets: offset ``-1`` on axis ``a``
    costs ``minus_cost[a]`` (the squared distance to the lower face),
    ``+1`` costs ``plus_cost[a]``, ``0`` is free; a cell is feasible
    when its total cost fits ``budget``.  Only combinations with at
    least two non-zero offsets are returned (single-axis neighbours are
    hashed separately, the all-zero row is the point's own cell).  The
    summed costs bound the true squared distance from below exactly as
    the scalar adjacency does, and ``budget`` carries the caller's
    over-inclusive headroom, so the result is a superset of the true
    diagonal ``adj(p)`` cells.  Returns ``None`` when more than
    :data:`_DIAGONAL_CELL_CAP` cells would be produced.
    """
    dim = len(cell)
    out: list[list[int]] = []
    row = list(cell)

    def walk(axis: int, cost: float, moved: int) -> bool:
        if axis == dim:
            if moved >= 2:
                out.append(list(row))
                if len(out) > _DIAGONAL_CELL_CAP:
                    return False
            return True
        if not walk(axis + 1, cost, moved):
            return False
        base = row[axis]
        down = cost + minus_cost[axis]
        if down <= budget:
            row[axis] = base - 1
            if not walk(axis + 1, down, moved + 1):
                row[axis] = base
                return False
            row[axis] = base
        up = cost + plus_cost[axis]
        if up <= budget:
            row[axis] = base + 1
            if not walk(axis + 1, up, moved + 1):
                row[axis] = base
                return False
            row[axis] = base
        return True

    if not walk(0, 0.0, 0):
        return None
    return out
