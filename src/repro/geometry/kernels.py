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
  chunk, at any dimension, producing the identical cells in the
  identical order.  Hashed and reduced by :func:`max_trailing_zeros`,
  it is also the infinite-window ignore test
  (:meth:`ChunkGeometry.survival_exponents
  <repro.core.chunk_geometry.ChunkGeometry.survival_exponents>`).

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

#: Bound on the candidates :func:`adjacent_cells_chunk` extends along one
#: axis (prefixes times moves); beyond it the enumeration returns ``None``.
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


def _max_axis_move(side: float, radius: float) -> int:
    """Largest ``j`` with ``((j - 1) * side)**2 <= radius**2``.

    A move ``+-j`` costs at least that much (the in-cell distance it
    adds is non-negative, and float addition and squaring are monotone),
    so no point moves further along any axis.  The floor-division
    estimate is corrected with the exact predicate both ways:
    ``1.0 // 0.1 == 9.0`` in floats, yet ``fl(10 * 0.1) == 1.0`` still
    fits a unit budget.
    """
    radius_sq = radius * radius
    j = int(radius // side) + 1
    while j > 1 and ((j - 1) * side) * ((j - 1) * side) > radius_sq:
        j -= 1
    while (j * side) * (j * side) <= radius_sq:
        j += 1
    return j


def adjacency_block_rows(side: float, radius: float) -> int:
    """The most rows one :func:`adjacent_cells_chunk` call can take:
    its first axis extends every row by each of its ``2J + 1`` moves
    within ``_MAX_ADJACENCY_TABLE`` candidates (0 when not one row
    fits)."""
    return _MAX_ADJACENCY_TABLE // (2 * _max_axis_move(side, radius) + 1)


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
    same cells in the same enumeration order.

    This is the array form of that function's axis-by-axis pruning, at
    any dimension: every surviving prefix is extended by each move of
    the next axis (``0, -1, ..., +1, ...``) and kept while its
    accumulated cost ``acc + cost`` - the scalar float expression - is
    at most ``radius^2``.  The scalar order (move outermost, then the
    owner's prefixes in their previous order) is restored with one
    stable sort per axis.

    Returns ``None`` when some axis would extend more than
    ``_MAX_ADJACENCY_TABLE`` candidates (tiny ``side`` relative to
    ``radius``); callers then run the scalar DFS.
    """
    n, dim = coords.shape
    if radius < 0:
        return (
            np.empty((0, dim), dtype=np.int64),
            np.zeros(n, dtype=np.int64),
        )
    radius_sq = radius * radius
    j_max = _max_axis_move(side, radius)
    m = 2 * j_max + 1
    if max(n, 1) * m > _MAX_ADJACENCY_TABLE:
        return None
    # Per-axis moves in _axis_moves order: 0, -1..-J, +1..+J.
    offsets = np.concatenate(
        ([0], -np.arange(1, j_max + 1), np.arange(1, j_max + 1))
    )
    # (j - 1) * side for j = 1..J, exactly as the scalar code computes it.
    steps = np.arange(j_max, dtype=np.float64) * side

    def axis_cost(axis: int) -> "np.ndarray":
        """``(m, n)`` squared cost of every move along ``axis``."""
        frac = fracs[:, axis]
        minus = frac + steps[:, None]
        plus = (side - frac) + steps[:, None]
        cost = np.empty((m, n), dtype=np.float64)
        cost[0] = 0.0
        cost[1 : j_max + 1] = minus * minus
        cost[j_max + 1 :] = plus * plus
        return cost

    # Axis 0 extends one empty prefix per point (0.0 + cost == cost), so
    # the (point, move) walk already is the scalar order.
    cost = np.ascontiguousarray(axis_cost(0).T)
    kept = np.flatnonzero(cost <= radius_sq)
    owner = kept // m
    acc = cost.ravel()[kept]
    columns = [coords[owner, 0] + offsets[kept - owner * m]]
    for axis in range(1, dim):
        count = owner.shape[0]
        if count * m > _MAX_ADJACENCY_TABLE:
            return None
        total = acc + axis_cost(axis)[:, owner]
        # flatnonzero walks (move, prefix); the stable sort by owner
        # yields the scalar (owner, move, prefix) order.
        kept = np.flatnonzero(total <= radius_sq)
        kept = kept[np.argsort(owner[kept % count], kind="stable")]
        move = kept // count
        parent = kept - move * count
        acc = total.ravel()[kept]
        owner = owner[parent]
        columns = [column[parent] for column in columns]
        columns.append(coords[owner, axis] + offsets[move])
    return np.stack(columns, axis=1), np.bincount(owner, minlength=n)
