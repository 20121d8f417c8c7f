"""Shared machinery for the robust samplers.

All three samplers (Algorithms 1-3) revolve around the same bookkeeping:
representative points of *candidate groups*, each classified as accepted
(its own cell is sampled) or rejected (only some neighbouring cell is),
looked up by proximity when new points arrive.  This module provides:

* :func:`default_grid_side` - the grid side-length policy,
* :class:`SamplerConfig` - immutable bundle of grid + hash + alpha shared
  by a sampler (and across the levels of the sliding-window hierarchy),
* :class:`PointContext` - the per-arrival geometry (cell, cell hash,
  ``adj(p)`` hashes) computed once and shared across hierarchy levels,
* :class:`CandidateRecord` - one tracked group,
* :class:`CandidateStore` - the accept/reject sets with hash-bucketed
  proximity search.

Proximity search exploits the geometry: a stored representative ``u`` can
satisfy ``d(u, p) <= alpha`` only if ``cell(p)`` is within distance
``alpha`` of ``u`` - i.e. ``cell(p) in adj(u)``.  Each record is therefore
registered under the hash values of ``adj(representative)`` (already
computed for its accept/reject classification), and an arriving point only
inspects the single bucket of its own cell: the common "point of an
already-seen group" case costs one cell computation and one dictionary
lookup, no adjacency enumeration.

Sampling decisions everywhere reduce to ``hash_value & (R - 1) == 0``
(i.e. ``h_R(cell) = 0``) with ``R`` a power of two, so they are nested
across rates (Fact 1(b)) and records can be re-classified at a doubled
rate from their cached hash values alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence

from repro.errors import ParameterError
from repro.geometry.adjacency import collect_adjacent
from repro.geometry.distance import within_distance
from repro.geometry.grid import Cell, Grid
from repro.hashing.kwise import KWiseHash
from repro.hashing.sampling import SamplingHash
from repro.streams.point import StreamPoint

#: Default threshold constant kappa_0 (Line 10 of Algorithm 1).  The paper
#: only requires "a large enough constant": Lemma 2.5 needs kappa_0 >= 2
#: for the 1/m^2 failure bound; 4 doubles that exponent while keeping the
#: accept set (and hence pSpace) small.
DEFAULT_KAPPA0 = 4

#: Dimension up to which the conservative side alpha/sqrt(d) stays cheap
#: (|adj(p)| <= 25 at dim 2, exactly the paper's Section 2 setting; by
#: dim 4 the conservative neighbourhood already spans hundreds of cells).
_SMALL_DIM = 2

#: Chunk size used by :meth:`StreamSampler.extend` when slicing an
#: arbitrary iterable into batches for :meth:`StreamSampler.process_many`.
#: Large enough to amortise the per-batch setup, small enough that a
#: batch of dim-2 points stays well inside the L2 cache.
DEFAULT_BATCH_SIZE = 1024

#: Cap on the shared cell-hash memo of a :class:`SamplerConfig`.  The memo
#: is a pure cache (hash values are deterministic), so clearing it is
#: always safe; the cap only bounds memory on adversarial streams that
#: touch millions of distinct cells.
_CELL_MEMO_LIMIT = 1 << 20


def chunked(items, size: int):
    """Slice any iterable into consecutive lists of at most ``size`` items.

    Order-preserving; the final chunk may be shorter (the "uneven tail").
    Works on one-shot iterators, so it can sit directly on a file reader
    or a socket without materialising the stream.  Re-exported as
    :func:`repro.engine.batching.chunked` (this is the leaf definition -
    the engine package imports the core, not vice versa).

    >>> list(chunked(range(7), 3))
    [[0, 1, 2], [3, 4, 5], [6]]
    >>> list(chunked([], 3))
    []
    """
    if size < 1:
        raise ParameterError(f"chunk size must be >= 1, got {size}")
    iterator = iter(items)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


class StreamSampler:
    """Ingestion interface shared by every sampler in the library.

    Subclasses implement :meth:`insert` (one point) and may override
    :meth:`process_many` (one batch) with a specialised hot path.  The
    batched-ingestion contract, enforced by ``tests/test_engine.py``:

        ``process_many(batch)`` must leave the sampler in a state
        identical to ``for p in batch: insert(p)`` - same records, same
        rates, same counters, same RNG states - for every batch size,
        including singleton and empty batches.

    Equivalently: batching is an *implementation detail of throughput*,
    never observable in sampler output.  The default ``process_many``
    realises the contract trivially by looping over :meth:`insert`;
    :meth:`extend` slices any iterable into chunks of
    :data:`DEFAULT_BATCH_SIZE` so every bulk caller automatically rides
    the batch path of samplers that specialise it.
    """

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Process one arriving stream point."""
        raise NotImplementedError

    def process_many(
        self, points: Iterable[StreamPoint | Sequence[float]]
    ) -> int:
        """Process a batch of points; returns the number processed.

        Default fallback: per-point dispatch.  Subclasses override this
        with an inlined loop that computes the per-arrival geometry once
        per batch chunk (see the contract in the class docstring).
        """
        insert = self.insert
        processed = 0
        for point in points:
            insert(point)
            processed += 1
        return processed

    def extend(
        self,
        points: Iterable[StreamPoint | Sequence[float]],
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> int:
        """Insert a sequence of points through the batched path.

        Returns the number of points inserted.
        """
        if batch_size < 1:
            raise ParameterError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        total = 0
        for chunk in chunked(points, batch_size):
            total += self.process_many(chunk)
        return total


def default_grid_side(alpha: float, dim: int) -> float:
    """Grid side length used when the caller does not pick one.

    * ``dim <= 2``: ``alpha / sqrt(dim)`` - the cell diameter is at most
      ``alpha``, so Fact 1(a) holds for *any* well-separated dataset
      (separation ratio just above 2), matching Section 2's setting.
    * ``dim > 2``: ``alpha * dim`` - the Section 4 configuration.  Cells
      are large relative to ``alpha``, making ``adj(p)`` expected O(1)
      (Lemma 4.2); it assumes the stronger sparsity ``beta > dim**1.5 *
      alpha``, which the paper's own evaluation datasets satisfy by
      construction (their separation ratio is about ``dim**1.5``).

    Callers with small separation ratios in middling dimension should pass
    an explicit ``grid_side`` of about ``beta / sqrt(dim)`` instead.
    """
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if dim <= _SMALL_DIM:
        return alpha / math.sqrt(dim)
    return alpha * dim


@dataclass(frozen=True, slots=True)
class PointContext:
    """Per-arrival geometry shared across a hierarchy's levels.

    Attributes
    ----------
    cell:
        ``cell(p)`` coordinates.
    cell_hash:
        Base-hash value of ``cell(p)`` (sampling test: ``& (R-1) == 0``).
    adj_hashes:
        Base-hash values of every cell of ``adj(p)``, or ``None`` when not
        yet computed (they are only needed on the first-point path, so
        they are filled lazily).
    """

    cell: Cell
    cell_hash: int
    adj_hashes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SamplerConfig:
    """Geometry and hashing shared by one sampler instance.

    The sliding-window hierarchy creates many Algorithm 2 instances that
    *must* share the same grid and hash (sampling decisions have to be
    nested across levels); bundling them makes that sharing explicit.
    """

    alpha: float
    dim: int
    grid: Grid
    hash: SamplingHash
    #: Shared cell -> base-hash memo.  A pure cache: hash values are a
    #: deterministic function of the cell, so the memo never influences
    #: sampler state - it only lets the batched ingestion paths (and every
    #: hierarchy level / shard sharing this config) skip re-hashing cells
    #: they have already seen.  Excluded from equality and repr.
    cell_hash_memo: dict[Cell, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Shared cell -> conservative neighbourhood memo (see
    #: :meth:`conservative_neighborhood`).  A pure cache like
    #: :attr:`cell_hash_memo`.
    conservative_memo: dict[Cell, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Shared cell-id -> base-hash memo used by the vectorised chunk
    #: geometry (:mod:`repro.core.chunk_geometry`).  Sound by
    #: construction: a cell's base hash is *defined* as a function of
    #: its 64-bit cell id (``hash.value(grid.cell_id(cell))``), so
    #: caching by id can never diverge from hashing the cell directly.
    #: Keyed by int (cheaper lookups than coordinate tuples on the
    #: vectorised path, where ids come out of the kernels anyway).
    cell_id_hash_memo: dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def create(
        cls,
        alpha: float,
        dim: int,
        *,
        seed: int | None = None,
        rng: random.Random | None = None,
        grid_side: float | None = None,
        kwise: int | None = None,
    ) -> "SamplerConfig":
        """Build a configuration with sensible defaults.

        Parameters
        ----------
        alpha:
            Group-diameter threshold (the user-chosen input of the paper).
        dim:
            Ambient dimension.
        seed:
            Seed for both the grid offset and the sampling hash.  ``None``
            draws fresh randomness.  Ignored when ``rng`` is given.
        rng:
            Explicit source of randomness, as an alternative to ``seed``:
            library callers that already own one seeded generator can
            thread it through every construction instead of scattering
            integer seeds.
        grid_side:
            Override for the grid side length (see :func:`default_grid_side`).
        kwise:
            When given, use a ``kwise``-wise independent polynomial hash
            (the theory-faithful choice) instead of the default splitmix64
            mixer.
        """
        if alpha <= 0:
            raise ParameterError(f"alpha must be positive, got {alpha}")
        if dim < 1:
            raise ParameterError(f"dim must be >= 1, got {dim}")
        if rng is None:
            rng = random.Random(seed)
        side = grid_side if grid_side is not None else default_grid_side(alpha, dim)
        grid = Grid(side=side, dim=dim, rng=rng)
        hash_seed = rng.randrange(2**63)
        if kwise is not None:
            sampling = SamplingHash(KWiseHash(k=kwise, seed=hash_seed))
        else:
            sampling = SamplingHash(seed=hash_seed)
        return cls(alpha=alpha, dim=dim, grid=grid, hash=sampling)

    def cell_hash(self, cell: Cell) -> int:
        """Base-hash value of a cell (before the ``mod R`` reduction)."""
        return self.hash.value(self.grid.cell_id(cell))

    def cell_hashes(self, cells: Sequence[Cell]) -> list[int]:
        """Base-hash values of a batch of cells (batched base hash)."""
        cell_id = self.grid.cell_id
        return self.hash.value_many([cell_id(cell) for cell in cells])

    def conservative_neighborhood(
        self, cell: Cell
    ) -> tuple[tuple[tuple[float, ...], int], ...]:
        """Cells possibly within ``alpha`` of *any* point of ``cell``.

        Returns ``((lower_corner, base_hash), ...)`` for every cell whose
        minimum distance to ``cell``'s region is at most ``alpha`` (by the
        triangle inequality: within ``alpha + half-diagonal`` of the cell
        centre; the radius carries a relative epsilon so floating-point
        drift can only *over*-include).  This is the batched ingestion
        paths' ignore filter: a point of ``cell`` whose own cell is
        unsampled and that is farther than ``alpha`` from every *sampled*
        cell of this superset has no sampled cell in ``adj(p)`` and can be
        dropped without enumerating ``adj(p)`` at all.  Memoised per cell
        (mask-independent), shared across levels and shards.
        """
        memo = self.conservative_memo
        entry = memo.get(cell)
        if entry is None:
            grid = self.grid
            side = grid.side
            corner = grid.lower_corner(cell)
            center = tuple(c + side * 0.5 for c in corner)
            half_diagonal = side * math.sqrt(self.dim) * 0.5
            radius = (self.alpha + half_diagonal) * (1.0 + 1e-9)
            cells = collect_adjacent(grid, center, radius)
            hashes = self.cell_hashes(cells)
            entry = tuple(
                (grid.lower_corner(c), h) for c, h in zip(cells, hashes)
            )
            if len(memo) >= _CELL_MEMO_LIMIT:
                memo.clear()
            memo[cell] = entry
        return entry

    def point_context(self, vector: Sequence[float]) -> PointContext:
        """The cheap part of an arrival's geometry (no adjacency yet)."""
        cell = self.grid.cell_of(vector)
        return PointContext(cell=cell, cell_hash=self.cell_hash(cell))

    def adj_hashes(
        self, vector: Sequence[float], *, cell: Cell | None = None
    ) -> tuple[int, ...]:
        """Hash values of every cell of ``adj(vector)`` (DFS pruned).

        Each cell's hash is routed through the shared ``cell_hash_memo``:
        near-duplicate streams found new candidate groups around the same
        few cells over and over, so almost every adjacency cell has been
        hashed before.  Only memo misses pay for a base-hash evaluation,
        batched in one call (``adj(p)`` spans up to 25 cells at dim 2).
        The values are identical to hashing every cell directly - the
        memo is a pure cache.  ``cell``, when the caller has already
        computed ``cell(vector)``, skips the recomputation.
        """
        cells = collect_adjacent(
            self.grid, vector, self.alpha, base_cell=cell
        )
        memo = self.cell_hash_memo
        memo_get = memo.get
        hashes: list[int | None] = [memo_get(cell) for cell in cells]
        if None in hashes:
            missing = [
                index for index, value in enumerate(hashes) if value is None
            ]
            computed = self.cell_hashes([cells[index] for index in missing])
            if len(memo) + len(missing) >= _CELL_MEMO_LIMIT:
                memo.clear()
            for index, value in zip(missing, computed):
                hashes[index] = value
                memo[cells[index]] = value
        return tuple(hashes)  # type: ignore[arg-type]

    def with_adj(self, vector: Sequence[float], ctx: PointContext) -> PointContext:
        """Return ``ctx`` with ``adj_hashes`` filled (computing if needed)."""
        if ctx.adj_hashes is not None:
            return ctx
        return PointContext(
            cell=ctx.cell,
            cell_hash=ctx.cell_hash,
            adj_hashes=self.adj_hashes(vector, cell=ctx.cell),
        )


@dataclass(slots=True)
class CandidateRecord:
    """Bookkeeping for one candidate group.

    Attributes
    ----------
    representative:
        The group's representative point (the decision point of the
        algorithms; first point in the infinite window, the Observation 1
        point in sliding windows).
    cell:
        The representative's grid cell.
    cell_hash:
        Base-hash value of that cell; the record is *accepted* at rate
        ``1/R`` iff ``cell_hash & (R - 1) == 0``.
    adj_hashes:
        Base-hash values of ``adj(representative)``, cached because they
        are re-examined on every rate change (resampling / Split) and
        double as the record's bucket keys in the store.
    accepted:
        True when the record is in the accept set, False for the reject
        set.
    last:
        The group's most recent point (the value side of the paper's
        key-value store ``A``; equals the representative in the infinite
        window).
    count:
        Number of points of the group observed (drives Section 2.3's
        reservoir sampling).
    member:
        A uniformly random member of the group so far (reservoir sample);
        only maintained when member tracking is enabled.
    level:
        Hierarchy level owning the record (sliding-window samplers share
        one :class:`CandidateStore` across levels and tag each record
        with its level, so Split/Merge promotions move records without
        re-registering their adjacency buckets).  Always 0 outside a
        hierarchy.
    """

    representative: StreamPoint
    cell: Cell
    cell_hash: int
    adj_hashes: tuple[int, ...]
    accepted: bool
    last: StreamPoint
    count: int = 1
    member: StreamPoint | None = None
    level: int = 0
    #: Cached ``max_v tz(v)`` over ``adj_hashes`` (-1 = not yet computed;
    #: see :meth:`survival_exponent`).  Derived state - never serialised.
    adj_tz: int = -1
    #: Slot index into the owning :class:`CandidateStore`'s parallel
    #: arrays (``_slot_tb`` / ``_slot_words``).  0 is the reserved
    #: sentinel slot: a record not currently held by a store (detached
    #: stand-ins, removed records) carries slot 0, whose generation
    #: counter is permanently stale.  Derived state - never serialised.
    slot: int = 0

    def survival_exponent(self) -> int:
        """Largest ``k`` such that some ``adj`` hash is sampled at ``2^k``.

        ``any(v & (2^k - 1) == 0 for v in adj_hashes)`` is equivalent to
        ``survival_exponent() >= k`` (for ``k >= 1``), because a hash
        value survives the rate ``2^k`` test iff its trailing-zero count
        is at least ``k``.  Split re-derivations query this once per
        record per promotion, so the maximum is computed lazily and
        cached.
        """
        tz = self.adj_tz
        if tz < 0:
            tz = 0
            for value in self.adj_hashes:
                if value == 0:
                    tz = 64
                    break
                z = (value & -value).bit_length() - 1
                if z > tz:
                    tz = z
            self.adj_tz = tz
        return tz

    def space_words(self, *, track_members: bool) -> int:
        """Approximate memory footprint in machine words.

        Counts coordinates of the stored points plus one word per integer
        field, mirroring how the paper reports pSpace in words.
        """
        dim = len(self.representative.vector)
        words = dim + 2  # representative coordinates + index/time
        if self.last is not self.representative:
            words += dim + 2
        words += 3  # cell hash, accepted flag, count
        words += len(self.adj_hashes)
        if track_members and self.member is not None:
            words += dim + 2
        return words


class CandidateStore:
    """The accept/reject sets with hash-bucketed proximity lookup.

    Space accounting is *incremental*: the store maintains the exact sum
    of its records' footprints (``_base_words``, plus ``_member_words``
    for the optional member points) updated on :meth:`add`,
    :meth:`remove` and :meth:`relink_last`, so :meth:`space_words` is
    O(1) instead of a full record walk.  ``recount_space_words`` is the
    from-scratch oracle the invariant tests compare against.

    Adjacency index
    ---------------
    Every record is registered under each hash value of
    ``adj(representative)``.  The registrations under one hash form a
    sequence in registration order; its head is held inline in
    ``_buckets[h]`` and its tail, only when two or more registrations
    share ``h``, in ``_overflow[h]`` (never empty).  On the benchmark
    streams almost every hash has a single registration, so the index
    allocates no per-hash container.  A probe tests ``_buckets[h]`` and
    then ``_overflow[h]`` in order - the first match is the one a single
    ordered list would give - and removing the head promotes
    ``_overflow[h][0]``.  :meth:`check_index_integrity` is the oracle.

    Slot pool (the array-backed hot path)
    -------------------------------------
    Every live record owns an integer *slot* into the store's parallel
    arrays, granted by :meth:`add` from an explicit free list and
    released by :meth:`remove`:

    * ``_slot_record[slot]`` - the record occupying the slot (``None``
      when free),
    * ``_slot_tb[slot]`` - generation counter: the heap tiebreak of the
      record's most recent heap entry (-1 when the record has never been
      pushed, or the slot is free),
    * ``_slot_words[slot]`` - the record's current ``record_words``
      footprint, kept exact by :meth:`add` / :meth:`relink_last` (and
      the samplers' inlined relink fast paths).

    The sliding-window samplers stamp ``_slot_tb`` on every heap push,
    turning the lazy-eviction staleness check into one list index plus
    an int compare (``slot_tb[record.slot] != entry_tb``) instead of two
    object-identity probes through dict lookups.  Soundness: heap
    tiebreaks are drawn from a strictly increasing counter, every
    re-link of a record is immediately followed by a push with a fresh
    tiebreak, and a *reused* slot is only ever re-stamped with a later
    tiebreak - so ``slot_tb`` matches an entry's tiebreak iff that entry
    is the record's current (freshest) one.  Slot 0 is a reserved
    sentinel whose counter is permanently stale (-1): detached records
    (checkpoint stand-ins, removed records) carry slot 0, so their heap
    entries read as stale without special-casing.
    """

    __slots__ = (
        "_config",
        "_records",
        "_buckets",
        "_overflow",
        "_accepted_count",
        "_base_words",
        "_member_words",
        "_slot_record",
        "_slot_tb",
        "_slot_words",
        "_free",
    )

    def __init__(self, config: SamplerConfig) -> None:
        self._config = config
        self._records: dict[int, CandidateRecord] = {}
        # Adjacency index, keyed by the hash value of some cell of
        # adj(representative): the first record registered under a hash
        # inline, the later ones (in registration order) in _overflow.
        self._buckets: dict[int, CandidateRecord] = {}
        self._overflow: dict[int, list[CandidateRecord]] = {}
        self._accepted_count = 0
        self._base_words = 0
        self._member_words = 0
        # Parallel slot arrays; index 0 is the reserved stale sentinel.
        self._slot_record: list[CandidateRecord | None] = [None]
        self._slot_tb: list[int] = [-1]
        self._slot_words: list[int] = [0]
        self._free: list[int] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def accepted_count(self) -> int:
        """Size of the accept set ``|S_acc|``."""
        return self._accepted_count

    @property
    def rejected_count(self) -> int:
        """Size of the reject set ``|S_rej|``."""
        return len(self._records) - self._accepted_count

    def records(self) -> Iterator[CandidateRecord]:
        """Iterate all candidate records (accepted and rejected)."""
        return iter(list(self._records.values()))

    def get(self, representative_index: int) -> CandidateRecord | None:
        """Return the record keyed by its representative's arrival index."""
        return self._records.get(representative_index)

    def __contains__(self, record: CandidateRecord) -> bool:
        return self._records.get(record.representative.index) is record

    def accepted_records(self) -> list[CandidateRecord]:
        """The accept set's records."""
        return [r for r in self._records.values() if r.accepted]

    def rejected_records(self) -> list[CandidateRecord]:
        """The reject set's records."""
        return [r for r in self._records.values() if not r.accepted]

    def find_nearby(
        self, vector: Sequence[float], cell_hash: int, level: int | None = None
    ) -> CandidateRecord | None:
        """Return the first record whose representative is within alpha.

        ``cell_hash`` must be the hash value of ``cell(vector)``.  A
        matching representative ``u`` has ``cell(vector) in adj(u)``, and
        every record is registered under its ``adj`` hash values, so the
        single bucket of ``cell_hash`` suffices.  ``level`` restricts the
        match to records carrying that level tag (sliding hierarchies).
        """
        record = self._buckets.get(cell_hash)
        if record is None:
            return None
        if (level is None or record.level == level) and within_distance(
            record.representative.vector, vector, self._config.alpha
        ):
            return record
        return self.find_overflow(vector, cell_hash, level)

    def find_overflow(
        self, vector: Sequence[float], cell_hash: int, level: int | None = None
    ) -> CandidateRecord | None:
        """The miss path of a probe: :meth:`find_nearby` past the inline
        record, i.e. over the later registrations under ``cell_hash``.

        The hot ingestion loops test the inline ``_buckets`` record
        themselves and call this only when it does not match.
        """
        extra = self._overflow.get(cell_hash)
        if extra is not None:
            alpha = self._config.alpha
            for record in extra:
                if level is not None and record.level != level:
                    continue
                if within_distance(
                    record.representative.vector, vector, alpha
                ):
                    return record
        return None

    @staticmethod
    def record_words(record: CandidateRecord) -> int:
        """One record's footprint, member excluded (the ``_base_words``
        contribution; value-identical to
        :meth:`CandidateRecord.space_words` with ``track_members=False``)."""
        dim = len(record.representative.vector)
        words = dim + 5 + len(record.adj_hashes)
        if record.last is not record.representative:
            words += dim + 2
        return words

    def add(self, record: CandidateRecord) -> None:
        """Insert a new candidate record (granting it a slot)."""
        key = record.representative.index
        if key in self._records:
            raise ParameterError(
                f"representative with index {key} already stored"
            )
        self._records[key] = record
        buckets = self._buckets
        overflow = self._overflow
        # No dedup: a cell-id collision (CPython hashes -1 and -2 alike,
        # so cells (x, -1) and (x, -2) share an id) merely registers the
        # record twice under one hash - remove() iterates the same
        # sequence, so registration stays symmetric either way.
        for value in record.adj_hashes:
            if value not in buckets:
                buckets[value] = record
            else:
                extra = overflow.get(value)
                if extra is None:
                    overflow[value] = [record]
                else:
                    extra.append(record)
        if record.accepted:
            self._accepted_count += 1
        words = self.record_words(record)
        self._base_words += words
        if record.member is not None:
            self._member_words += len(record.representative.vector) + 2
        free = self._free
        if free:
            slot = free.pop()
            self._slot_record[slot] = record
            self._slot_tb[slot] = -1
            self._slot_words[slot] = words
        else:
            slot = len(self._slot_record)
            self._slot_record.append(record)
            self._slot_tb.append(-1)
            self._slot_words.append(words)
        record.slot = slot

    def remove(self, record: CandidateRecord) -> None:
        """Remove a candidate record (releasing its slot)."""
        key = record.representative.index
        del self._records[key]
        buckets = self._buckets
        overflow = self._overflow
        for value in record.adj_hashes:
            if value not in overflow:
                del buckets[value]
                continue
            extra = overflow[value]
            if buckets[value] is record:
                # Promote the next registration: probe order is unchanged.
                buckets[value] = extra.pop(0)
            else:
                extra.remove(record)
            if not extra:
                del overflow[value]
        if record.accepted:
            self._accepted_count -= 1
        slot = record.slot
        self._base_words -= self._slot_words[slot]
        if record.member is not None:
            self._member_words -= len(record.representative.vector) + 2
        self._slot_record[slot] = None
        self._slot_tb[slot] = -1
        self._slot_words[slot] = 0
        self._free.append(slot)
        record.slot = 0

    def relink_last(self, record: CandidateRecord, new_last: StreamPoint) -> None:
        """Set ``record.last`` keeping the incremental footprint exact.

        A record's ``last`` point only occupies extra words while it is a
        *distinct* object from the representative
        (:meth:`CandidateRecord.space_words`), so the counter moves only
        on the rep/non-rep identity transitions.  The hot ingestion loops
        inline this logic (the common non-rep -> non-rep update is free);
        every non-inlined call site goes through this method.
        """
        rep = record.representative
        extra = len(rep.vector) + 2
        if record.last is rep:
            if new_last is not rep:
                self._base_words += extra
                self._slot_words[record.slot] += extra
        elif new_last is rep:
            self._base_words -= extra
            self._slot_words[record.slot] -= extra
        record.last = new_last

    def check_slot_integrity(self) -> None:
        """Free-list / slot-pool invariant oracle (test hook, O(slots)).

        Raises ``AssertionError`` unless:

        * slot 0 is the pristine stale sentinel,
        * every live record owns exactly one slot, that slot points back
          at it, and its cached words match :meth:`record_words`,
        * every free-list entry is a cleared slot, listed exactly once,
          never slot 0, and never a live record's slot (no double-grant,
          no live-slot reuse),
        * live slots + free slots account for the whole pool.
        """
        slot_record = self._slot_record
        slot_tb = self._slot_tb
        slot_words = self._slot_words
        assert len(slot_record) == len(slot_tb) == len(slot_words)
        assert slot_record[0] is None and slot_tb[0] == -1 and slot_words[0] == 0
        free = self._free
        free_set = set(free)
        assert len(free_set) == len(free), "free list double-grants a slot"
        assert 0 not in free_set, "sentinel slot 0 on the free list"
        live_slots = set()
        for record in self._records.values():
            slot = record.slot
            assert 0 < slot < len(slot_record), "live record without a slot"
            assert slot not in live_slots, "two live records share a slot"
            assert slot not in free_set, "live record's slot on the free list"
            assert slot_record[slot] is record, "slot does not point back"
            assert slot_words[slot] == self.record_words(record)
            live_slots.add(slot)
        for slot in free_set:
            assert slot_record[slot] is None and slot_tb[slot] == -1
            assert slot_words[slot] == 0
        assert len(live_slots) + len(free_set) == len(slot_record) - 1

    def check_index_integrity(self) -> None:
        """Adjacency-index invariant oracle (test hook, O(registrations)).

        Rebuilds the registration multimap from the live records - in
        ``_records`` insertion order, each record's ``adj_hashes`` in
        order - and raises ``AssertionError`` unless, for every hash
        ``h``, ``(_buckets[h], *_overflow.get(h, ()))`` is exactly that
        rebuilt sequence, no overflow list is empty and every overflow
        key also has an inline head.
        """
        expected: dict[int, list[CandidateRecord]] = {}
        for record in self._records.values():
            for value in record.adj_hashes:
                expected.setdefault(value, []).append(record)
        buckets = self._buckets
        overflow = self._overflow
        assert buckets.keys() == expected.keys(), "keys != live adj hashes"
        for value, extra in overflow.items():
            assert extra, "empty overflow list"
            assert value in buckets, "overflow key without an inline head"
        for value, registered in expected.items():
            actual = [buckets[value], *overflow.get(value, ())]
            assert len(actual) == len(registered) and all(
                a is b for a, b in zip(actual, registered)
            ), "index order != registration order"

    def set_accepted(self, record: CandidateRecord, accepted: bool) -> None:
        """Flip a record between the accept and reject sets."""
        if record.accepted != accepted:
            record.accepted = accepted
            self._accepted_count += 1 if accepted else -1

    def resample(self, rate_denominator: int) -> None:
        """Re-derive every record's status at a new (coarser) rate.

        Implements the "update S_acc and S_rej according to the updated
        hash function" step (Line 12 of Algorithm 1): a record stays
        accepted if its own cell is still sampled, is rejected if some cell
        of ``adj(representative)`` is, and is dropped otherwise.
        """
        mask = rate_denominator - 1
        for record in self.records():
            if record.cell_hash & mask == 0:
                self.set_accepted(record, True)
            elif any(value & mask == 0 for value in record.adj_hashes):
                self.set_accepted(record, False)
            else:
                self.remove(record)

    def space_words(self, *, track_members: bool = False) -> int:
        """Total footprint of the store in words - O(1).

        Served from the incremental counters maintained by :meth:`add`,
        :meth:`remove` and :meth:`relink_last` (peak tracking runs this
        on the hot path); :meth:`recount_space_words` is the from-scratch
        recomputation the invariant tests compare against.
        """
        if track_members:
            return self._base_words + self._member_words
        return self._base_words

    def recount_space_words(self, *, track_members: bool = False) -> int:
        """From-scratch footprint walk (the incremental counters' oracle).

        Kept value-identical to summing
        :meth:`CandidateRecord.space_words` over all records; the
        invariant ``store.space_words() == store.recount_space_words()``
        must hold after every operation.
        """
        total = 0
        for record in self._records.values():
            dim = len(record.representative.vector)
            words = dim + 5 + len(record.adj_hashes)
            if record.last is not record.representative:
                words += dim + 2
            if track_members and record.member is not None:
                words += dim + 2
            total += words
        return total


def feed_copies(copies: Sequence, chunk: Sequence[StreamPoint]) -> None:
    """Feed a materialised chunk to independent sampler copies.

    Preserves per-point error semantics across copies: per-point
    ingestion gives every copy the same prefix before an invalid point
    raises, so if the first copy rejects a point mid-chunk, the other
    copies receive exactly the prefix it ingested before the error is
    re-raised.  (The rejection is deterministic per point - dimension or
    window-order checks - so the other copies accept that prefix.)
    """
    first = copies[0]
    before = first.points_seen
    try:
        first.process_many(chunk)
    except BaseException:
        prefix = first.points_seen - before
        for copy in copies[1:]:
            copy.process_many(chunk[:prefix])
        raise
    for copy in copies[1:]:
        copy.process_many(chunk)


def materialize_and_feed(
    copies: Sequence, points: Iterable[StreamPoint | Sequence[float]]
) -> int:
    """Shared batch path of the multi-copy wrappers (k-sample, F0).

    Raw coordinates are materialised once into :class:`StreamPoint`
    objects - all copies must agree on arrival indices, exactly as the
    wrappers' per-point ``insert`` arranges - then every copy ingests
    the shared chunk through its own specialised path.  Copies are
    independent, so chunk-at-a-time feeding leaves the same final state
    as point-interleaved feeding; error semantics also match per-point
    ingestion: if materialisation rejects a coordinate (non-numeric) or
    a copy rejects a point (dimension, window order), every copy ends up
    with exactly the valid prefix before the error propagates.

    Returns the number of points ingested.
    """
    index = copies[0].points_seen
    chunk: list[StreamPoint] = []
    append = chunk.append
    try:
        for point in points:
            if isinstance(point, StreamPoint):
                append(point)
            else:
                append(StreamPoint(tuple(float(x) for x in point), index))
            index += 1
    except BaseException:
        # Per-point ingestion would have fed the valid prefix to every
        # copy before hitting the bad coordinate; match that exactly.
        feed_copies(copies, chunk)
        raise
    feed_copies(copies, chunk)
    return len(chunk)


def coerce_point(
    value: StreamPoint | Sequence[float], next_index: int
) -> StreamPoint:
    """Accept either a StreamPoint or raw coordinates.

    Raw coordinates receive the sampler's running arrival index (and a
    matching timestamp).
    """
    if isinstance(value, StreamPoint):
        return value
    return StreamPoint(tuple(map(float, value)), next_index)


@dataclass
class _ThresholdPolicy:
    """Computes the kappa_0 * log m accept-set threshold.

    When the caller announces the expected stream length the threshold is
    fixed up front (the paper's setting); otherwise it grows with the
    number of points seen, which only affects *when* the rate halves, not
    correctness.  A ``fixed`` capacity short-circuits the log-m rule - the
    Section 5 F0 estimator replaces the threshold with ``kappa_B / eps^2``.
    """

    kappa0: float
    expected_stream_length: int | None = None
    minimum: int = 4
    fixed: int | None = None
    _seen: int = field(default=0, init=False)
    #: Memo ``(lo, hi, value)``: the inclusive interval of effective
    #: stream lengths ``m`` over which :meth:`threshold` is constant,
    #: and its value there.  A pure cache of the deterministic
    #: ``ceil(kappa0 * log2(m))`` rule - recomputed (and re-verified
    #: against the exact formula at both endpoints) on any miss, so it
    #: can never change what ``threshold()`` returns.  Excluded from
    #: equality; never serialised.
    _memo: tuple[int, int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def observe(self) -> None:
        """Record one arrival (drives the growing-m fallback)."""
        self._seen += 1

    def observe_many(self, count: int) -> None:
        """Record ``count`` arrivals in one step (the batched paths)."""
        self._seen += count

    @property
    def seen(self) -> int:
        """Number of arrivals observed so far."""
        return self._seen

    def threshold(self) -> int:
        """Current accept-set capacity.

        The growing-``m`` rule is a step function of the arrival count,
        so the hot paths' per-batch (and the eviction loops' per-point)
        calls are served from an interval memo: one tuple compare on a
        hit, with the full ``ceil(kappa0 * log2(m))`` evaluation - plus
        an exact-formula verification of the memoised interval's
        endpoints - only on a step boundary.
        """
        if self.fixed is not None:
            return max(self.minimum, self.fixed)
        m = (
            self.expected_stream_length
            if self.expected_stream_length is not None
            else max(self._seen, 16)
        )
        if m < 2:
            m = 2
        memo = self._memo
        if memo is not None and memo[0] <= m <= memo[1]:
            return memo[2]
        value = max(self.minimum, math.ceil(self.kappa0 * math.log2(m)))
        # Largest hi with the same threshold: analytically floor(2^(t/k0))
        # for the active branch, then nudged against the exact formula so
        # float drift in the analytic guess can never widen the interval.
        kappa0 = self.kappa0
        t = math.ceil(kappa0 * math.log2(m))
        if t <= self.minimum and kappa0 > 0:
            # minimum dominates: constant until ceil(k0*log2(hi)) exceeds it.
            t = self.minimum
        if kappa0 > 0:
            exponent = t / kappa0
            hi = int(2.0**exponent) if exponent < 62 else 1 << 62
            if hi < m:
                hi = m
            while math.ceil(kappa0 * math.log2(hi)) > t:
                hi -= 1
            while hi < 1 << 62 and math.ceil(kappa0 * math.log2(hi + 1)) <= t:
                hi += 1
        else:
            # Non-positive kappa0: the rule is no longer non-decreasing
            # in m, so memoise only the exact point just computed.
            hi = m
        # lo is recorded (rather than assuming m only grows) so the memo
        # stays sound even if _seen is rewound by a state restore.
        self._memo = (m, hi, value)
        return value
