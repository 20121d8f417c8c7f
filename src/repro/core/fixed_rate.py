"""Algorithm 2: sliding-window sampling at a fixed cell sample rate.

This is the building block of the space-efficient hierarchy (Algorithm 3);
it can also be used standalone when the number of groups per window is
known to be modest (its worst-case space is w/R).

State per candidate group (cf. the paper's key-value store ``A``): the
group's representative point ``u`` (possibly already expired itself) and
the group's most recent point ``p``; the pair dies when ``p`` expires,
which is exactly when the group no longer intersects the window.
Observation 1: the representative of each group is then fully determined
by the stream (the latest point of the group preceded by a w-gap), and it
lands in the accept set with probability 1/R.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Iterable, Iterator, Sequence

from repro.core.base import (
    DEFAULT_BATCH_SIZE,
    CandidateRecord,
    CandidateStore,
    PointContext,
    SamplerConfig,
    StreamSampler,
    _CELL_MEMO_LIMIT,
    chunked,
)
from repro.core.chunk_geometry import (
    ChunkGeometry,
    compute_chunk_geometry,
    materialize_chunk,
)
from repro.core.reservoir import WindowReservoir
from repro.errors import DimensionMismatchError, EmptySampleError, ParameterError
from repro.streams.point import StreamPoint
from repro.streams.windows import WindowSpec


class FixedRateSlidingSampler(StreamSampler):
    """One Algorithm 2 instance: fixed rate ``1/R`` over a sliding window.

    Parameters
    ----------
    config:
        Shared geometry/hash bundle.  All instances of a hierarchy must
        share one config so that sampling decisions nest across rates.
    rate_denominator:
        ``R`` (power of two); cells are sampled with probability ``1/R``.
    window:
        Sequence- or time-based window specification.
    track_members:
        Maintain per-group :class:`~repro.core.reservoir.WindowReservoir`
        samples so :meth:`sample_member` works (Section 2.3).
    member_seed:
        Seed for the member-tracking randomness (reservoir priorities);
        ``None`` draws fresh randomness.  Seeding it makes runs - and the
        batch/per-point differential tests - reproducible.
    """

    def __init__(
        self,
        config: SamplerConfig,
        rate_denominator: int,
        window: WindowSpec,
        *,
        track_members: bool = False,
        member_seed: int | None = None,
    ) -> None:
        if rate_denominator < 1 or rate_denominator & (rate_denominator - 1):
            raise ParameterError(
                f"rate denominator must be a power of two, got {rate_denominator}"
            )
        self._config = config
        self._rate = rate_denominator
        self._window = window
        self._track_members = track_members
        self._store = CandidateStore(config)
        # Lazy eviction heap over (expiry key, tiebreak, record, last-ref).
        self._heap: list[tuple[float, int, CandidateRecord, StreamPoint]] = []
        self._tiebreak = itertools.count()
        self._reservoirs: dict[int, WindowReservoir] = {}
        self._member_rng = random.Random(member_seed)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def rate_denominator(self) -> int:
        """``R`` of this instance."""
        return self._rate

    @property
    def window(self) -> WindowSpec:
        """The window specification."""
        return self._window

    @property
    def config(self) -> SamplerConfig:
        """Shared geometry/hash bundle."""
        return self._config

    @property
    def accepted_count(self) -> int:
        """``|S_acc|`` (may include entries whose last point has expired
        until the next eviction; call :meth:`evict` first for exactness)."""
        return self._store.accepted_count

    @property
    def candidate_count(self) -> int:
        """Number of tracked candidate groups."""
        return len(self._store)

    def records(self) -> Iterator[CandidateRecord]:
        """Iterate all candidate records."""
        return self._store.records()

    def accepted_records(self) -> list[CandidateRecord]:
        """Records of the accept set."""
        return self._store.accepted_records()

    def rejected_records(self) -> list[CandidateRecord]:
        """Records of the reject set."""
        return self._store.rejected_records()

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #

    def _push_heap(self, record: CandidateRecord) -> None:
        # Stamp the record's slot generation with the entry's tiebreak
        # (see the slot-pool notes on CandidateStore): eviction then
        # detects stale entries with one list index + int compare.
        tiebreak = next(self._tiebreak)
        self._store._slot_tb[record.slot] = tiebreak
        heapq.heappush(
            self._heap,
            (
                self._window.expiry_key(record.last),
                tiebreak,
                record,
                record.last,
            ),
        )

    def evict(self, latest: StreamPoint) -> None:
        """Drop groups whose last point expired (Lines 1-3 of Algorithm 2).

        Stale heap entries (the record was updated or already removed -
        detected in O(1) by the entry tiebreak no longer matching its
        record's slot generation) are discarded lazily; amortised
        O(log n) per tracked update.  The window's
        :meth:`~repro.streams.windows.WindowSpec.eviction_cutoff`
        pre-filters live entries by their heap key, so the common
        nothing-expires case costs one comparison past the stale check.
        """
        heap = self._heap
        if not heap:
            return
        store = self._store
        window = self._window
        cutoff = window.eviction_cutoff(latest)
        slot_tb = store._slot_tb
        while heap:
            key, tiebreak, record, _ = heap[0]
            if slot_tb[record.slot] != tiebreak:
                heapq.heappop(heap)
                continue
            if key > cutoff or window.in_window(record.last, latest):
                break
            heapq.heappop(heap)
            store.remove(record)
            self._reservoirs.pop(record.representative.index, None)

    def insert(
        self,
        point: StreamPoint,
        ctx: PointContext | None = None,
    ) -> tuple[bool, PointContext]:
        """Process an arriving point.

        Returns ``(tracked, ctx)``.  ``tracked`` is the Algorithm 3 test
        "exists (u, p) in A_l": True exactly when ``point`` became the
        last point of some candidate group of this instance (either by
        updating an existing group or by founding one).  ``ctx`` is the
        point's geometry, possibly enriched with ``adj(p)`` hashes - a
        hierarchy passes it down so the computation happens once per
        arrival rather than once per level.
        """
        self.evict(point)
        config = self._config
        if ctx is None:
            ctx = config.point_context(point.vector)

        record = self._store.find_nearby(point.vector, ctx.cell_hash)
        if record is not None:
            self._store.relink_last(record, point)
            record.count += 1
            self._push_heap(record)
            if self._track_members:
                self._reservoir_for(record).offer(point, self._member_rng)
            return True, ctx

        ctx = config.with_adj(point.vector, ctx)
        assert ctx.adj_hashes is not None
        mask = self._rate - 1
        if ctx.cell_hash & mask == 0:
            accepted = True
        elif any(value & mask == 0 for value in ctx.adj_hashes):
            accepted = False
        else:
            return False, ctx

        record = CandidateRecord(
            representative=point,
            cell=ctx.cell,
            cell_hash=ctx.cell_hash,
            adj_hashes=ctx.adj_hashes,
            accepted=accepted,
            last=point,
        )
        self._store.add(record)
        self._push_heap(record)
        if self._track_members:
            self._reservoir_for(record).offer(point, self._member_rng)
        return True, ctx

    def _reservoir_for(self, record: CandidateRecord) -> WindowReservoir:
        key = record.representative.index
        reservoir = self._reservoirs.get(key)
        if reservoir is None:
            reservoir = WindowReservoir(self._window)
            self._reservoirs[key] = reservoir
        return reservoir

    def process_many(
        self,
        points: Iterable[StreamPoint],
        *,
        geometry: "ChunkGeometry | None" = None,
    ) -> int:
        """Batched :meth:`insert`; state-equivalent (including the heap).

        Cells and memo-aware cell hashes come from one vectorised
        :class:`~repro.core.chunk_geometry.ChunkGeometry` precompute per
        chunk (``geometry`` accepts one computed upstream); the loop
        inlines eviction and the bucket probe, replicating :meth:`evict`
        operation-for-operation so the lazy heap - stale entries
        included - ends up identical to the per-point path's.  A
        mid-chunk dimension error still evicts with the offending point
        before raising, exactly as :meth:`insert` evicts before
        ``point_context()`` can raise.  Points must be
        :class:`StreamPoint` instances, as for :meth:`insert`.
        """
        if geometry is None and not isinstance(points, (list, tuple)):
            # A non-materialised iterable is streamed in bounded chunks:
            # building one ChunkGeometry over an arbitrary stream would
            # regress the O(chunk)-memory behaviour of the batch engine
            # (chunk boundaries are state-invisible by the layout-
            # invariance contract, so this is purely a memory bound).
            streamed = 0
            for chunk in chunked(points, DEFAULT_BATCH_SIZE):
                streamed += self.process_many(chunk)
            return streamed

        config = self._config
        dim = config.dim
        grid = config.grid
        side = grid.side
        offset = grid.offset
        memo = config.cell_hash_memo
        memo_get = memo.get
        cell_id = grid.cell_id
        hash_value = config.hash.value
        window = self._window
        expiry_key = window.expiry_key
        in_window = window.in_window
        eviction_cutoff = window.eviction_cutoff
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        store = self._store
        slot_tb = store._slot_tb
        slot_words = store._slot_words
        buckets_get = store._buckets.get
        find_overflow = store.find_overflow
        reservoirs = self._reservoirs
        track = self._track_members
        member_rng = self._member_rng
        tiebreak = self._tiebreak
        rate_mask = self._rate - 1
        alpha_sq = config.alpha * config.alpha
        if dim == 1:
            off0 = offset[0]
            off1 = 0.0
        elif dim == 2:
            off0, off1 = offset
        else:
            off0 = off1 = 0.0

        pts, vectors, error, offender = materialize_chunk(
            points,
            dim,
            0,
            lambda actual: DimensionMismatchError(
                f"point has {actual} coordinates, grid expects {dim}"
            ),
            coerce=False,
        )
        if geometry is not None and not geometry.valid_for(config, vectors):
            geometry = None
        geom = (
            geometry
            if geometry is not None
            else compute_chunk_geometry(config, vectors)
        )
        if geom is not None:
            geom_n = min(geom.n, len(pts))
            hashes_list = geom.cell_hashes
            cell_at = geom.cell_at
        else:
            geom_n = 0
            hashes_list = ()
            cell_at = None
        processed = 0
        for i in range(len(pts)):
            p = pts[i]
            vector = vectors[i]
            # Inline evict(p) - identical operations, identical heap
            # state.
            if heap:
                cutoff = eviction_cutoff(p)
                while heap:
                    key, entry_tb, record, _ = heap[0]
                    if slot_tb[record.slot] != entry_tb:
                        heappop(heap)
                        continue
                    if key > cutoff or in_window(record.last, p):
                        break
                    heappop(heap)
                    store.remove(record)
                    reservoirs.pop(record.representative.index, None)

            processed += 1

            if i < geom_n:
                # Cell tuples are built lazily (cell_at) - only
                # candidate foundings need them.
                cell = None
                cell_hash = hashes_list[i]
            else:
                if dim == 2:
                    cell = (
                        int((vector[0] - off0) // side),
                        int((vector[1] - off1) // side),
                    )
                elif dim == 1:
                    cell = (int((vector[0] - off0) // side),)
                else:
                    cell = tuple(
                        int((x - o) // side) for x, o in zip(vector, offset)
                    )
                cell_hash = memo_get(cell)
                if cell_hash is None:
                    cell_hash = hash_value(cell_id(cell))
                    if len(memo) >= _CELL_MEMO_LIMIT:
                        memo.clear()
                    memo[cell] = cell_hash

            # Inline find_nearby: the overflow only on a head miss.
            existing = buckets_get(cell_hash)
            if existing is not None:
                acc = 0.0
                for a, b in zip(existing.representative.vector, vector):
                    diff = a - b
                    acc += diff * diff
                    if acc > alpha_sq:
                        existing = find_overflow(vector, cell_hash)
                        break
            if existing is not None:
                # Inline relink_last: footprint moves only on the (once
                # per record) rep -> non-rep identity transition.
                if p is not existing.representative:
                    if existing.last is existing.representative:
                        store._base_words += dim + 2
                        slot_words[existing.slot] += dim + 2
                elif existing.last is not existing.representative:
                    store._base_words -= dim + 2
                    slot_words[existing.slot] -= dim + 2
                existing.last = p
                existing.count += 1
                entry_tb = next(tiebreak)
                slot_tb[existing.slot] = entry_tb
                heappush(heap, (expiry_key(p), entry_tb, existing, p))
                if track:
                    self._reservoir_for(existing).offer(p, member_rng)
                continue

            # First point of a candidate group: same code as insert().
            if i < geom_n:
                if cell is None:
                    cell = cell_at(i)
                adj_hashes = geom.adj_hashes(i)
            else:
                adj_hashes = config.adj_hashes(vector, cell=cell)
            if cell_hash & rate_mask == 0:
                accepted = True
            elif any(value & rate_mask == 0 for value in adj_hashes):
                accepted = False
            else:
                continue
            record = CandidateRecord(
                representative=p,
                cell=cell,
                cell_hash=cell_hash,
                adj_hashes=adj_hashes,
                accepted=accepted,
                last=p,
            )
            store.add(record)
            entry_tb = next(tiebreak)
            slot_tb[record.slot] = entry_tb
            heappush(heap, (expiry_key(p), entry_tb, record, p))
            if track:
                self._reservoir_for(record).offer(p, member_rng)
        if error is not None:
            if offender is not None:
                # insert() evicts with the bad point before its geometry
                # can raise; replicate that so both paths agree on which
                # expired records survive the failed call.
                self.evict(offender)
            raise error
        return processed

    # ------------------------------------------------------------------ #
    # bulk-management helpers
    # ------------------------------------------------------------------ #
    # (The sliding-window hierarchy no longer builds on per-level
    # instances - it shares one store across levels - so the old
    # Split/Merge integration hooks are gone; these remain as standalone
    # Algorithm 2 conveniences.)

    def clear(self) -> None:
        """Reset to the freshly created state, keeping the rate (Line 9)."""
        self._store = CandidateStore(self._config)
        self._heap.clear()
        self._reservoirs.clear()

    def adopt_record(self, record: CandidateRecord) -> None:
        """Install an externally built record, with heap tracking."""
        self._store.add(record)
        self._push_heap(record)

    def find_group(
        self, vector: Sequence[float], cell_hash: int
    ) -> CandidateRecord | None:
        """Proximity lookup against this instance's representatives."""
        return self._store.find_nearby(vector, cell_hash)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def sample(
        self, latest: StreamPoint, rng: random.Random | None = None
    ) -> StreamPoint:
        """A uniformly random accepted group's last point, post-eviction."""
        self.evict(latest)
        accepted = self._store.accepted_records()
        if not accepted:
            raise EmptySampleError("no accepted group intersects the window")
        rng = rng if rng is not None else random.Random()
        return rng.choice(accepted).last

    def sample_member(
        self, latest: StreamPoint, rng: random.Random | None = None
    ) -> StreamPoint:
        """A uniformly random window member of a random accepted group."""
        if not self._track_members:
            raise ParameterError("sampler was built with track_members=False")
        self.evict(latest)
        accepted = self._store.accepted_records()
        if not accepted:
            raise EmptySampleError("no accepted group intersects the window")
        rng = rng if rng is not None else random.Random()
        record = rng.choice(accepted)
        return self._reservoirs[record.representative.index].member(latest)

    def space_words(self) -> int:
        """Current footprint in words (records + reservoirs + scalars).

        The record part is O(1) (incremental store counters); only the
        per-group reservoirs - empty unless ``track_members`` - walk.
        """
        words = self._store.space_words(track_members=False) + 3
        for reservoir in self._reservoirs.values():
            words += reservoir.space_words()
        return words

    def recount_space_words(self) -> int:
        """Debug oracle: recompute :meth:`space_words` from scratch."""
        words = self._store.recount_space_words(track_members=False) + 3
        for reservoir in self._reservoirs.values():
            words += reservoir.space_words()
        return words

    # ------------------------------------------------------------------ #
    # checkpoint state (building block of the sliding-window protocol)
    # ------------------------------------------------------------------ #

    def to_state(self) -> dict:
        """Serialise this level to a JSON-compatible dict.

        The state is the level's *replayable window contents*: every
        candidate record (representative + most recent in-window point +
        per-group reservoir of window members) plus the lazy eviction
        heap **verbatim** - stale entries, tiebreak counter position and
        all - so a restored level evicts, updates and samples exactly as
        the original would on the remainder of the stream.

        Heap entries are stored with two linkage flags instead of object
        references: ``linked`` (the referenced record is still the store's
        record for that representative) and ``cur`` (the entry is linked and
        its last-point is the record's current one).  ``from_state`` uses
        them to restore the identity relationships the lazy-eviction
        staleness checks rely on (``store.get(i) is record`` /
        ``record.last is last_ref``).

        The shared :class:`~repro.core.base.SamplerConfig` and window are
        *not* embedded; the owner (hierarchy or caller) restores them once
        and passes them to :meth:`from_state`.
        """
        from repro.core import serialize

        store = self._store
        records = sorted(
            store.records(), key=lambda r: r.representative.index
        )
        heap_state = []
        for key, tiebreak, record, last_ref in self._heap:
            linked = store.get(record.representative.index) is record
            heap_state.append(
                {
                    "k": key,
                    "t": tiebreak,
                    "r": record.representative.index,
                    "p": serialize.point_to_state(last_ref),
                    "linked": linked,
                    # A restored stand-in for an unlinked entry has
                    # last is last_ref: flagging only linked entries
                    # keeps re-serialisation byte-identical.
                    "cur": linked and record.last is last_ref,
                }
            )
        # Read the tiebreak position without perturbing the sequence: the
        # counter object is consumed by one peek and replaced by an equal
        # continuation (fingerprints never include the object itself).
        position = next(self._tiebreak)
        self._tiebreak = itertools.count(position)
        state = {
            "rate_denominator": self._rate,
            "track_members": self._track_members,
            "next_tiebreak": position,
            "records": [serialize.record_to_state(r) for r in records],
            "heap": heap_state,
            "reservoirs": [
                {
                    "key": key,
                    "entries": [
                        [priority, serialize.point_to_state(point)]
                        for priority, point in self._reservoirs[key]._entries
                    ],
                }
                for key in sorted(self._reservoirs)
            ],
        }
        # Untracked members never draw from the RNG (and an unseeded one
        # is OS entropy): omitting it keeps the envelope deterministic.
        if self._track_members:
            state["member_rng"] = serialize.rng_to_state(self._member_rng)
        return state

    @classmethod
    def from_state(
        cls,
        state: dict,
        *,
        config: SamplerConfig,
        window: WindowSpec,
    ) -> "FixedRateSlidingSampler":
        """Restore a level from :meth:`to_state` output.

        ``config`` and ``window`` come from the owning hierarchy (every
        level of one hierarchy must share them - sampling decisions have
        to nest across rates, expiry must be judged consistently).
        """
        from repro.core import serialize
        from repro.core.reservoir import WindowReservoir

        sampler = cls(
            config,
            state["rate_denominator"],
            window,
            track_members=state["track_members"],
        )
        if "member_rng" in state:
            sampler._member_rng = serialize.rng_from_state(state["member_rng"])
        sampler._tiebreak = itertools.count(state["next_tiebreak"])
        records: dict[int, CandidateRecord] = {}
        for record_state in state["records"]:
            record = serialize.record_from_state(record_state)
            records[record.representative.index] = record
            sampler._store.add(record)
        slot_tb = sampler._store._slot_tb
        for entry in state["heap"]:
            last = serialize.point_from_state(entry["p"])
            record = records.get(entry["r"]) if entry["linked"] else None
            if record is None:
                # The referenced record left the store: fabricate a
                # detached stand-in so the staleness check pops the entry
                # exactly as it would have popped the original (the
                # sentinel slot 0 never matches a real tiebreak).
                record = CandidateRecord(
                    representative=StreamPoint(last.vector, entry["r"]),
                    cell=(),
                    cell_hash=0,
                    adj_hashes=(),
                    accepted=False,
                    last=last,
                )
            elif entry["cur"]:
                # Live entry: restore the identity record.last is last_ref
                # and stamp the slot generation (max-wins: the record's
                # latest push owns the counter, as in live stamping).
                last = record.last
                if entry["t"] > slot_tb[record.slot]:
                    slot_tb[record.slot] = entry["t"]
            # The saved list order *is* a valid heap arrangement (it was
            # the live heap), so it is restored verbatim - heapifying
            # could legally rearrange it and break fingerprint equality.
            sampler._heap.append((entry["k"], entry["t"], record, last))
        for reservoir_state in state["reservoirs"]:
            reservoir = WindowReservoir(window)
            reservoir._entries = [
                (priority, serialize.point_from_state(point_state))
                for priority, point_state in reservoir_state["entries"]
            ]
            sampler._reservoirs[reservoir_state["key"]] = reservoir
        return sampler
