"""Shared machinery for the robust samplers.

All three samplers (Algorithms 1-3) revolve around the same bookkeeping:
representative points of *candidate groups*, each classified as accepted
(its own cell is sampled) or rejected (only some neighbouring cell is),
looked up by proximity when new points arrive.  This module provides:

* :func:`default_grid_side` - the grid side-length policy,
* :class:`SamplerConfig` - immutable bundle of grid + hash + alpha shared
  by a sampler (and across the levels of the sliding-window hierarchy),
* :class:`CandidateRecord` - one tracked group,
* :class:`CandidateStore` - the accept/reject sets with hash-bucketed
  proximity search,
* :func:`eviction_heap` / :func:`evict_expired` - the sliding samplers'
  lazy eviction heap.

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

import heapq
import math
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DimensionMismatchError, ParameterError
from repro.geometry.adjacency import collect_adjacent
from repro.geometry.distance import within_distance
from repro.geometry.grid import Cell, Grid
from repro.geometry.kernels import COORD_LIMIT
from repro.hashing.kwise import KWiseHash
from repro.hashing.sampling import SamplingHash
from repro.streams.point import StreamPoint
from repro.streams.windows import WindowSpec

#: Default threshold constant kappa_0 (Line 10 of Algorithm 1).  The paper
#: only requires "a large enough constant": Lemma 2.5 needs kappa_0 >= 2
#: for the 1/m^2 failure bound; 4 doubles that exponent while keeping the
#: accept set (and hence pSpace) small.
DEFAULT_KAPPA0 = 4

#: Dimension up to which the conservative side alpha/sqrt(d) stays cheap
#: (|adj(p)| <= 25 at dim 2, exactly the paper's Section 2 setting; by
#: dim 4 ``adj(p)`` already spans hundreds of cells).
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


def is_numeric_array(chunk) -> bool:
    """Whether ``chunk`` is a 2-d numpy array of a numeric dtype, whose
    float64 cast is element-wise identical to ``float(x)``."""
    return (
        isinstance(chunk, np.ndarray)
        and chunk.ndim == 2
        and chunk.dtype.kind in "fiub"
    )


def chunked(items, size: int):
    """Slice any iterable into consecutive chunks of at most ``size`` items.

    Order-preserving; the final chunk may be shorter (the "uneven tail").
    A numeric ``(n, dim)`` array is sliced into row blocks (views), so
    its chunks keep the array form and skip per-row coercion; anything
    else yields lists.  Works on one-shot iterators, so it can sit
    directly on a file reader or a socket without materialising the
    stream.  Re-exported as :func:`repro.engine.batching.chunked` (this
    is the leaf definition - the engine package imports the core, not
    vice versa).

    >>> list(chunked(range(7), 3))
    [[0, 1, 2], [3, 4, 5], [6]]
    >>> list(chunked([], 3))
    []
    >>> [block.shape for block in chunked(np.zeros((5, 2)), 2)]
    [(2, 2), (2, 2), (1, 2)]
    """
    if size < 1:
        raise ParameterError(f"chunk size must be >= 1, got {size}")
    if is_numeric_array(items):
        for start in range(0, len(items), size):
            yield items[start : start + size]
        return
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

        ``process_many(batch)`` of a valid batch must leave the sampler
        in a state identical to ``for p in batch: insert(p)`` - same
        records, same rates, same counters, same RNG states - for every
        batch size, including singleton and empty batches.

        An invalid batch (a point that does not coerce to floats, has
        the wrong dimension, arrives out of window order, or has no
        grid cell the int64 path can carry) raises
        :class:`~repro.errors.ParameterError` naming an offending
        position and leaves the state unchanged, and so does ``insert``
        of an invalid point.  "Batch" means one materialised
        ``process_many`` chunk; :meth:`extend` and streamed iterables
        are all-or-nothing per chunk.  The grid-less point baselines
        (naive reservoir, min-rank) check coercion and finiteness; the
        item sketches, and min-rank's point keys, are checked against
        the item contract (:func:`repro.baselines.fm.item_key`: an int,
        a non-NaN float, a str, bytes or a tuple of these).

    Equivalently: batching is an *implementation detail of throughput*,
    never observable in sampler output.  The default ``process_many``
    realises the contract trivially: :meth:`_check_batch`, then a loop
    over :meth:`insert`;
    :meth:`extend` slices any iterable into chunks of
    :data:`DEFAULT_BATCH_SIZE` so every bulk caller automatically rides
    the batch path of samplers that specialise it.
    """

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Process one arriving stream point."""
        raise NotImplementedError

    def _check_batch(self, points: list) -> None:
        """Raise for an invalid batch before the default
        :meth:`process_many` mutates (by default nothing is invalid)."""

    def process_many(
        self, points: Iterable[StreamPoint | Sequence[float]]
    ) -> int:
        """Process a batch of points; returns the number processed.

        Default fallback: per-point dispatch once :meth:`_check_batch`
        accepted the whole batch.  Subclasses override this with an
        inlined loop that computes the per-arrival geometry once per
        batch chunk (see the contract in the class docstring).
        """
        batch = points if isinstance(points, list) else list(points)
        self._check_batch(batch)
        insert = self.insert
        for point in batch:
            insert(point)
        return len(batch)

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


@dataclass(frozen=True)
class SamplerConfig:
    """Geometry and hashing shared by one sampler instance.

    The levels of the sliding-window hierarchy and the shards of a
    pipeline *must* share the same grid and hash (sampling decisions
    have to be nested across levels and agree across shards); bundling
    them makes that sharing explicit.
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

    def adj_hashes(
        self, vector: Sequence[float], *, cell: Cell | None = None
    ) -> tuple[int, ...]:
        """Hash values of every cell of ``adj(vector)`` (DFS pruned).

        The scalar form behind the per-point ``insert`` path (and a chunk
        whose vectorised enumeration declined).  Each cell's hash is routed
        through the shared ``cell_hash_memo``: near-duplicate streams found
        new candidate groups around the same few cells over and over, so
        almost every adjacency cell has been hashed before.  Only a memo
        miss pays for a :meth:`cell_hash` evaluation.  The values are
        identical to hashing every cell directly - the memo is a pure
        cache.  ``cell``, when the caller has already computed
        ``cell(vector)``, skips the recomputation.
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
            if len(memo) + len(missing) >= _CELL_MEMO_LIMIT:
                memo.clear()
            value_of = self.hash.value
            cell_id = self.grid.cell_id
            for index in missing:
                missed = cells[index]
                hashes[index] = memo[missed] = value_of(cell_id(missed))
        return tuple(hashes)  # type: ignore[arg-type]


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
    #: True while a :class:`CandidateStore` holds the record (set by
    #: :meth:`CandidateStore.add`, cleared by
    #: :meth:`CandidateStore.remove`): the sliding samplers' eviction
    #: sweeps pop a removed record's heap entry on this one read.
    #: Derived state - never serialised.
    stored: bool = False
    #: The record's :meth:`CandidateStore.record_words` footprint, kept
    #: exact by :meth:`CandidateStore.add` and the relinks.  Derived
    #: state - never serialised.
    words: int = 0

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

    Heap membership and footprints (the hot path)
    ---------------------------------------------
    Two derived fields on each record serve the sliding samplers.
    ``record.stored`` is True from :meth:`add` until :meth:`remove`, so
    an eviction sweep (:func:`evict_expired`) tells a removed record's
    leftover heap entry apart with one attribute read.
    ``record.words`` is the record's :meth:`record_words` footprint,
    kept exact by :meth:`add` and the relinks, so moving or dropping a
    record is counter arithmetic.  :meth:`check_words_integrity` is the
    oracle.
    """

    __slots__ = (
        "_config",
        "_records",
        "_buckets",
        "_overflow",
        "_accepted_count",
        "_base_words",
        "_member_words",
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
        """Insert a new candidate record."""
        key = record.representative.index
        if key in self._records:
            raise ParameterError(
                f"representative with index {key} already stored"
            )
        self._records[key] = record
        record.stored = True
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
        words = record.words = self.record_words(record)
        self._base_words += words
        if record.member is not None:
            self._member_words += len(record.representative.vector) + 2

    def remove(self, record: CandidateRecord) -> None:
        """Remove a candidate record (its heap entry turns stale)."""
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
        self._base_words -= record.words
        if record.member is not None:
            self._member_words -= len(record.representative.vector) + 2
        record.stored = False

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
                record.words += extra
        elif new_last is rep:
            self._base_words -= extra
            record.words -= extra
        record.last = new_last

    def check_words_integrity(self) -> None:
        """Cached-footprint oracle (test hook, O(records)): raises
        ``AssertionError`` unless every live record's ``words`` equals
        :meth:`record_words`."""
        for record in self._records.values():
            assert record.words == self.record_words(record), (
                "cached words drifted"
            )

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


# --------------------------------------------------------------------- #
# the sliding samplers' lazy eviction heap
# --------------------------------------------------------------------- #
#
# A sliding sampler (Algorithm 2's fixed-rate level, Algorithm 3's
# hierarchy) keeps one min-heap entry per record it founded:
# ``(key, last index, representative index, record)``, pushed once, at
# the founding.  The key is at most ``expiry_key(record.last)``: an
# update moves ``record.last`` forward and pushes nothing, so the entry
# lags until a sweep meets it at the top and re-keys it in place.  The
# first three fields are unique across entries (a representative founds
# one record), so comparisons never reach the record.  A removed
# record's entry stays until it reaches the top, where ``record.stored``
# reads False and the sweep pops it.  The heap is derived state: a
# restore rebuilds it from the records (:func:`eviction_heap`).

#: One lazy eviction-heap entry (see above).
HeapEntry = tuple[float, int, int, CandidateRecord]


def eviction_heap(
    records: Iterable[CandidateRecord], window: WindowSpec
) -> list[HeapEntry]:
    """A restored sampler's eviction heap: one current entry per record."""
    expiry_key = window.expiry_key
    heap = [
        (
            expiry_key(record.last),
            record.last.index,
            record.representative.index,
            record,
        )
        for record in records
    ]
    heapq.heapify(heap)
    return heap


def evict_expired(
    heap: list[HeapEntry],
    window: WindowSpec,
    latest: StreamPoint,
    remove: Callable[[CandidateRecord], None],
) -> None:
    """Remove every record whose last point expired at ``latest``.

    The window's ``eviction_cutoff`` pre-filters by heap key - the
    common nothing-expires case costs one float comparison.  At the
    top, a removed record's entry is popped, a lagging key is re-keyed
    to the record's current last point, and the authoritative
    ``in_window`` test decides the rest; ``remove`` drops an expired
    record from its sampler.
    """
    if not heap:
        return
    expiry_key = window.expiry_key
    cutoff = window.eviction_cutoff(latest)
    while heap:
        key, _, rep_index, record = heap[0]
        if key > cutoff:
            break
        if not record.stored:
            heapq.heappop(heap)
            continue
        last = record.last
        last_key = expiry_key(last)
        if key < last_key:
            heapq.heapreplace(heap, (last_key, last.index, rep_index, record))
            continue
        if window.in_window(last, latest):
            break
        heapq.heappop(heap)
        remove(record)


def invalid_point(
    position: int, reason: str, kind: type[ParameterError] = ParameterError
) -> ParameterError:
    """The ingestion error for the point at ``position`` of a batch: one
    message shape (position plus reason) for every validating surface."""
    return kind(f"batch rejected, nothing ingested - point {position} {reason}")


def check_vector(grid: Grid, vector: Sequence[float], position: int = 0) -> None:
    """Raise unless ``vector`` is a point of ``grid``'s space with a cell.

    The scalar cell check: the dimension must match, and every
    coordinate must be a finite number whose cell index
    ``(x - offset) // side`` - the floor division of :meth:`Grid.cell_of`
    and of the vectorised check - stays below
    :data:`repro.geometry.kernels.COORD_LIMIT` in magnitude.
    """
    if len(vector) != grid.dim:
        raise invalid_point(
            position,
            f"has dimension {len(vector)}, expected {grid.dim}",
            DimensionMismatchError,
        )
    side = grid.side
    for x, o in zip(vector, grid.offset):
        try:
            cell = (x - o) // side
        except (TypeError, OverflowError) as error:
            raise invalid_point(
                position, f"has a non-float coordinate {x!r}"
            ) from error
        if not -COORD_LIMIT < cell < COORD_LIMIT:
            if math.isfinite(x):
                raise invalid_point(
                    position,
                    f"has coordinate {x!r}, whose grid cell is beyond the "
                    "int64 range (|index| >= 2^62)",
                )
            raise invalid_point(position, f"has a non-finite coordinate {x!r}")


def coerce_point(
    value: StreamPoint | Sequence[float],
    next_index: int,
    grid: Grid | None = None,
    position: int = 0,
) -> StreamPoint:
    """Accept either a StreamPoint or raw coordinates.

    Raw coordinates receive the sampler's running arrival index (and a
    matching timestamp).  The point is also validated - against
    ``grid`` (:func:`check_vector`) when given, else for finite
    coordinates - so an ``insert`` that coerces first rejects a bad
    point before it touches any state.  ``position`` names it.
    """
    if isinstance(value, StreamPoint):
        point = value
    else:
        try:
            point = StreamPoint(tuple(map(float, value)), next_index)
        except (TypeError, ValueError, OverflowError) as error:
            raise invalid_point(
                position, f"is not a sequence of numbers ({error})"
            ) from error
    if grid is not None:
        check_vector(grid, point.vector, position)
    else:
        try:
            finite = all(map(math.isfinite, point.vector))
        except TypeError as error:
            raise invalid_point(
                position, f"has a non-float coordinate ({error})"
            ) from error
        if not finite:
            raise invalid_point(position, "has a non-finite coordinate")
    return point


def coerce_points(
    points: Iterable[StreamPoint | Sequence[float]], next_index: int
) -> list[StreamPoint]:
    """:func:`coerce_point` over a whole chunk: raw coordinates get
    consecutive arrival indices from ``next_index``, and the first
    invalid point raises naming its position."""
    return [
        coerce_point(point, next_index + position, position=position)
        for position, point in enumerate(points)
    ]


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
