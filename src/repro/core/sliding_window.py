"""Algorithms 3-5: space-efficient robust l0-sampling over sliding windows.

The hierarchy tracks candidate groups at ``L + 1`` levels with sample
rates ``1, 1/2, ..., 1/2^L`` over a dynamic partition of the window into
subwindows (Definition 2.9): level ``l`` covers an older slice of the
window at a coarser rate.  New groups enter at level 0 (rate 1 - every
cell is sampled, so "ALG_0 includes every point", cf. Lemma 2.10); when a
level's accept set outgrows ``kappa_0 * log m`` its older prefix is
*promoted*: `Split` re-derives the prefix's accept/reject status at the
doubled rate and `Merge` folds it into the level above, possibly
cascading (Lemma 2.8 bounds the cascade past the top level by 1/m^2).

A query resamples each level's accepted last-points down to the coarsest
active rate ``1/R_c`` and picks uniformly (Theorem 2.7: the result is a
robust l0-sample of the window using O(log w log m) words).  Uniformity
rests on two invariants: every live group is tracked at exactly one
level, and a group tracked at level ``l`` is accepted iff its
representative's cell is sampled at rate ``1/R_l`` - so each group's
inclusion probability is ``(1/R_l) * (R_l / R_c) = 1/R_c`` regardless of
which level it occupies.

Representation (the incremental hot path)
-----------------------------------------

All levels share **one** :class:`~repro.core.base.CandidateStore` and
**one** lazy eviction heap; each :class:`~repro.core.base.CandidateRecord`
carries its ``level`` tag, and the sampler keeps per-level record maps,
accept counts and word counts beside the store.  Consequences, relative
to the earlier one-store-per-level layout:

* an arrival costs one eviction sweep and one bucket probe instead of a
  per-level top-down walk (the single-tracking invariant I1 guarantees
  the group's record is unique across levels);
* a ``Split``/``Merge`` promotion *moves* a record by retagging its
  level and shifting it between the per-level maps - the store's
  adjacency-bucket registration survives untouched, so cascades no
  longer tear down and re-register whole levels;
* ``space_words`` sums cached per-level word counters (updated on every
  record add/evict/promote and on ``last``-point detachment), so peak
  tracking is O(levels) instead of a full record walk;
  ``recount_space_words`` is the from-scratch oracle.

Eviction is hierarchy-wide and runs once per arrival, which matches the
paper's Line 4 (every ``A_l`` drops expired pairs on each arrival) more
closely than the earlier walk, which only evicted levels above the one
that absorbed the point.

Deviations from the paper's pseudocode (typos and an inconsistency
resolved; see DESIGN.md section 3 for the full discussion):

* the paper's insertion loop stops at the first level where the point is
  tracked *at all*, which lets a brand-new group be trapped as "rejected"
  at a high level; such a group is invisible to every accept set, which
  empirically starves the sampler and contradicts Fact 4 / Lemma 2.10.
  Here the probe only locates the group's existing record; genuinely new
  groups are inserted at level 0, and a rejected record that receives
  fresh activity is reassigned to level 0 (its subwindow is now the
  newest one; its representative is preserved);
* ``Split`` re-derives accept/reject status of the promoted points under
  the doubled rate exactly as Algorithm 1's resampling step does (the
  literal pseudocode would always promote an empty reject set);
* the query iterates levels ``0..c`` (not ``1..c``) and only over accepted
  groups' last-points;
* ``Merge`` deduplicates representatives of the same group.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Sequence

import heapq
import itertools

from repro.core.base import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_KAPPA0,
    CandidateRecord,
    CandidateStore,
    SamplerConfig,
    StreamSampler,
    _CELL_MEMO_LIMIT,
    _ThresholdPolicy,
    coerce_point,
    chunked,
)
from repro.core.chunk_geometry import (
    ChunkGeometry,
    compute_chunk_geometry,
    materialize_chunk,
)
from repro.errors import EmptySampleError, LevelOverflowError, ParameterError
from repro.geometry.distance import within_distance
from repro.streams.point import StreamPoint
from repro.streams.windows import SequenceWindow, WindowSpec

_record_words = CandidateStore.record_words


class HierarchyLevel:
    """Read-only Algorithm 2 view over one level of the shared hierarchy.

    The sliding-window sampler stores all levels in one
    :class:`~repro.core.base.CandidateStore`; this view exposes the
    classic per-level surface (``rate_denominator``, ``records()``,
    ``accepted_records()``, ``find_group``...) for queries, tests and
    the k-sample wrapper, backed by the shared structures.
    """

    __slots__ = ("_sampler", "_index")

    def __init__(self, sampler: "RobustL0SamplerSW", index: int) -> None:
        self._sampler = sampler
        self._index = index

    @property
    def rate_denominator(self) -> int:
        """``R_l = 2^l`` of this level."""
        return 1 << self._index

    @property
    def accepted_count(self) -> int:
        """``|S_acc_l|`` (pre-eviction; call :meth:`evict` for exactness)."""
        return self._sampler._level_accepted[self._index]

    @property
    def candidate_count(self) -> int:
        """Number of candidate groups tracked at this level."""
        return len(self._sampler._level_records[self._index])

    def records(self) -> Iterator[CandidateRecord]:
        """Iterate this level's candidate records."""
        return iter(list(self._sampler._level_records[self._index].values()))

    def accepted_records(self) -> list[CandidateRecord]:
        """Records of this level's accept set."""
        return [
            r
            for r in self._sampler._level_records[self._index].values()
            if r.accepted
        ]

    def rejected_records(self) -> list[CandidateRecord]:
        """Records of this level's reject set."""
        return [
            r
            for r in self._sampler._level_records[self._index].values()
            if not r.accepted
        ]

    def find_group(
        self, vector: Sequence[float], cell_hash: int
    ) -> CandidateRecord | None:
        """Proximity lookup restricted to this level's records."""
        return self._sampler._store.find_nearby(vector, cell_hash, self._index)

    def evict(self, latest: StreamPoint) -> None:
        """Evict expired groups (hierarchy-wide; levels share one heap)."""
        self._sampler._evict(latest)

    def space_words(self) -> int:
        """This level's footprint in words (cached counter + scalars)."""
        return self._sampler._level_words[self._index] + 3


class RobustL0SamplerSW(StreamSampler):
    """Robust distinct sampler for sliding windows (Algorithm 3).

    Works for both sequence-based and time-based windows; only the
    expiration rule differs (encapsulated in ``window``).

    Parameters
    ----------
    alpha:
        Near-duplicate distance threshold.
    dim:
        Point dimensionality.
    window:
        A :class:`~repro.streams.windows.SequenceWindow` or
        :class:`~repro.streams.windows.TimeWindow`.
    window_capacity:
        Upper bound on the number of points a window can contain; sets the
        number of levels ``L = ceil(log2(capacity))``.  Defaults to the
        window size for sequence-based windows; required for time-based
        windows (where the point count is not implied by the duration).
    kappa0, expected_stream_length, seed, grid_side, kwise:
        As in :class:`~repro.core.infinite_window.RobustL0SamplerIW`.

    Examples
    --------
    >>> sw = RobustL0SamplerSW(0.5, 1, SequenceWindow(4), seed=3)
    >>> for i in range(12):
    ...     sw.insert((float(i * 10),))
    >>> sw.sample(rng=random.Random(0)).vector[0] >= 80.0
    True
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "l0-sliding"

    def __init__(
        self,
        alpha: float,
        dim: int,
        window: WindowSpec,
        *,
        window_capacity: int | None = None,
        kappa0: float = DEFAULT_KAPPA0,
        expected_stream_length: int | None = None,
        seed: int | None = None,
        grid_side: float | None = None,
        kwise: int | None = None,
        config: SamplerConfig | None = None,
    ) -> None:
        if window_capacity is None:
            if isinstance(window, SequenceWindow):
                window_capacity = int(window.size)
            else:
                raise ParameterError(
                    "window_capacity is required for time-based windows "
                    "(the duration does not bound the point count)"
                )
        if window_capacity < 1:
            raise ParameterError(
                f"window_capacity must be >= 1, got {window_capacity}"
            )
        self._config = config if config is not None else SamplerConfig.create(
            alpha, dim, seed=seed, grid_side=grid_side, kwise=kwise
        )
        self._window = window
        self._policy = _ThresholdPolicy(kappa0, expected_stream_length)
        self._max_level = max(1, math.ceil(math.log2(max(window_capacity, 2))))
        levels = self._max_level + 1
        self._store = CandidateStore(self._config)
        self._heap: list[tuple[float, int, CandidateRecord, StreamPoint]] = []
        self._tiebreak = itertools.count()
        self._level_records: list[dict[int, CandidateRecord]] = [
            {} for _ in range(levels)
        ]
        self._level_accepted: list[int] = [0] * levels
        self._level_words: list[int] = [0] * levels
        self._latest: StreamPoint | None = None
        self._count = 0
        self._peak_words = 0

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def alpha(self) -> float:
        """The near-duplicate distance threshold."""
        return self._config.alpha

    @property
    def dim(self) -> int:
        """Point dimensionality."""
        return self._config.dim

    @property
    def window(self) -> WindowSpec:
        """The window specification."""
        return self._window

    @property
    def num_levels(self) -> int:
        """Number of hierarchy levels (``L + 1``)."""
        return self._max_level + 1

    @property
    def points_seen(self) -> int:
        """Number of stream points inserted."""
        return self._count

    @property
    def peak_space_words(self) -> int:
        """Largest footprint observed across the run."""
        return self._peak_words

    def level(self, index: int) -> HierarchyLevel:
        """Access one level's Algorithm 2 view (for queries/tests)."""
        if not 0 <= index <= self._max_level:
            raise ParameterError(
                f"level must be in [0, {self._max_level}], got {index}"
            )
        return HierarchyLevel(self, index)

    # ------------------------------------------------------------------ #
    # shared-store bookkeeping
    # ------------------------------------------------------------------ #

    def _push(self, record: CandidateRecord) -> None:
        # Stamping the record's slot with the entry's tiebreak is what
        # makes the eviction staleness check O(1): an entry is current
        # iff its tiebreak matches the slot's generation counter (see
        # the slot-pool notes on CandidateStore).
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

    def _add(self, record: CandidateRecord) -> None:
        """Register a record (store + its level's map/counters)."""
        store = self._store
        store.add(record)
        level = record.level
        self._level_records[level][record.representative.index] = record
        if record.accepted:
            self._level_accepted[level] += 1
        self._level_words[level] += store._slot_words[record.slot]

    def _remove(self, record: CandidateRecord) -> None:
        """Drop a record (store + its level's map/counters)."""
        store = self._store
        words = store._slot_words[record.slot]
        store.remove(record)
        level = record.level
        del self._level_records[level][record.representative.index]
        if record.accepted:
            self._level_accepted[level] -= 1
        self._level_words[level] -= words

    def _move(self, record: CandidateRecord, target: int) -> None:
        """Retag a record's level - the store registration survives."""
        source = record.level
        key = record.representative.index
        del self._level_records[source][key]
        self._level_records[target][key] = record
        record.level = target
        # The record's footprint is served from its slot (kept exact by
        # add/relink), so the promotion is counter moves only.
        words = self._store._slot_words[record.slot]
        level_words = self._level_words
        level_words[source] -= words
        level_words[target] += words
        if record.accepted:
            level_accepted = self._level_accepted
            level_accepted[source] -= 1
            level_accepted[target] += 1

    def _set_accepted(self, record: CandidateRecord, accepted: bool) -> None:
        """Flip accept status, keeping store and level counters in sync."""
        if record.accepted != accepted:
            self._store.set_accepted(record, accepted)
            self._level_accepted[record.level] += 1 if accepted else -1

    def _relink_last(self, record: CandidateRecord, new_last: StreamPoint) -> None:
        """Level-aware :meth:`CandidateStore.relink_last`."""
        rep = record.representative
        extra = len(rep.vector) + 2
        store = self._store
        if record.last is rep:
            if new_last is not rep:
                store._base_words += extra
                store._slot_words[record.slot] += extra
                self._level_words[record.level] += extra
        elif new_last is rep:
            store._base_words -= extra
            store._slot_words[record.slot] -= extra
            self._level_words[record.level] -= extra
        record.last = new_last

    def _evict(self, latest: StreamPoint) -> None:
        """Drop groups whose last point expired (Lines 1-3, all levels).

        One lazy heap covers the whole hierarchy.  The window's
        ``eviction_cutoff`` pre-filters by heap key first - the common
        nothing-expires case costs one float comparison - then stale
        entries (detected in O(1): the entry's tiebreak no longer
        matches its record's slot generation - the record was removed,
        or a later push superseded the entry) are popped, and the
        authoritative ``in_window`` test decides the rest.
        """
        heap = self._heap
        if not heap:
            return
        window = self._window
        cutoff = window.eviction_cutoff(latest)
        slot_tb = self._store._slot_tb
        while heap:
            key, tiebreak, record, _ = heap[0]
            if key > cutoff:
                break
            if slot_tb[record.slot] != tiebreak:
                heapq.heappop(heap)
                continue
            if window.in_window(record.last, latest):
                break
            heapq.heappop(heap)
            self._remove(record)

    def _note_space(self) -> None:
        """Record the current footprint into the running peak.

        The single call site family for peak tracking (both the per-point
        and the batched paths go through here on the same every-16th
        cadence), so per-point and batch ingestion report identical
        ``peak_space_words`` by construction.
        """
        words = self.space_words()
        if words > self._peak_words:
            self._peak_words = words

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Process one arriving stream point (Lines 4-18 of Algorithm 3)."""
        p = coerce_point(point, self._count)
        if p.dim != self._config.dim:
            raise ParameterError(
                f"point has dimension {p.dim}, sampler expects {self._config.dim}"
            )
        if self._latest is not None and (
            self._window.expiry_key(p) < self._window.expiry_key(self._latest)
        ):
            raise ParameterError(
                "stream points must arrive in non-decreasing window order"
            )
        self._count += 1
        self._policy.observe()
        self._latest = p
        self._evict(p)

        ctx = self._config.point_context(p.vector)
        record = self._store.find_nearby(p.vector, ctx.cell_hash)
        if record is not None:
            # The group is tracked at exactly one level (invariant I1);
            # the shared store finds its record in one bucket probe.
            self._relink_last(record, p)
            record.count += 1
            self._push(record)
            if not record.accepted and record.level != 0:
                # A rejected group with fresh activity belongs to the
                # newest subwindow: move it (representative preserved) to
                # level 0, whose rate 1 accepts everything.
                self._move(record, 0)
                self._set_accepted(record, True)
                if self._level_accepted[0] > self._policy.threshold():
                    self._cascade(0)
        else:
            # A genuinely new group enters at level 0 (Lemma 2.10: ALG_0
            # tracks every representative since R_0 = 1).
            record = CandidateRecord(
                representative=p,
                cell=ctx.cell,
                cell_hash=ctx.cell_hash,
                adj_hashes=self._config.adj_hashes(p.vector, cell=ctx.cell),
                accepted=True,
                last=p,
                level=0,
            )
            self._add(record)
            self._push(record)
            if self._level_accepted[0] > self._policy.threshold():
                self._cascade(0)

        # Peak-space tracking is sampled (every 16th arrival); with the
        # cached per-level counters each probe is O(levels).
        if self._count & 0xF == 0:
            self._note_space()

    def process_many(
        self,
        points: Iterable[StreamPoint | Sequence[float]],
        *,
        geometry: "ChunkGeometry | None" = None,
    ) -> int:
        """Batched :meth:`insert` over the whole hierarchy.

        The chunk's cells and memo-aware cell hashes come from one
        vectorised :class:`~repro.core.chunk_geometry.ChunkGeometry`
        precompute (``geometry`` accepts one computed upstream by the
        pipeline; founding-heavy chunks also get their ``adj(p)`` hash
        tuples from its vectorised enumeration), so the per-arrival loop
        keeps only the sequential machinery - eviction sweep, the single
        shared-store bucket probe, the distance test - replicating
        :meth:`insert` operation-for-operation; the resulting state
        (including the shared lazy heap) is identical to per-point
        ingestion.  Cascades never invalidate the hoisted locals: the
        shared store and heap objects are stable across Split/Merge
        (promotions retag records in place).  Chunks too small to
        vectorise take the inlined scalar branch.
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
        policy = self._policy
        threshold = policy.threshold
        store = self._store
        slot_tb = store._slot_tb
        slot_words = store._slot_words
        buckets_get = store._buckets.get
        find_overflow = store.find_overflow
        level_records0 = self._level_records[0]
        level_accepted = self._level_accepted
        level_words = self._level_words
        remove = self._remove
        tiebreak = self._tiebreak
        alpha_sq = config.alpha * config.alpha
        last_extra = dim + 2
        count = self._count
        latest = self._latest
        latest_key = expiry_key(latest) if latest is not None else None
        # Sequence windows admit exact inline arithmetic for the three
        # per-arrival window calls: expiry_key(p) == float(p.index),
        # eviction_cutoff(p) == float(p.index - w) == float(p.index) - w
        # and in_window(q, p) == q.index > p.index - w (indices stay far
        # below 2^53, so the float forms are exact).
        seq_size = (
            int(window.size) if type(window) is SequenceWindow else None
        )
        pending = 0  # arrivals not yet flushed into the threshold policy
        processed = 0
        if dim == 1:
            off0 = offset[0]
            off1 = 0.0
        elif dim == 2:
            off0, off1 = offset
        else:
            off0 = off1 = 0.0

        pts, vectors, error, _offender = materialize_chunk(
            points,
            dim,
            count,
            lambda actual: ParameterError(
                f"point has dimension {actual}, sampler expects {dim}"
            ),
            geometry=geometry,
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
        try:
            for i in range(len(pts)):
                p = pts[i]
                vector = vectors[i]
                point_key = (
                    float(p.index) if seq_size is not None else expiry_key(p)
                )
                if latest_key is not None and point_key < latest_key:
                    raise ParameterError(
                        "stream points must arrive in non-decreasing "
                        "window order"
                    )
                count += 1
                pending += 1
                processed += 1
                latest = p
                latest_key = point_key

                # Inline _evict(p): identical operations to the method.
                if heap:
                    if seq_size is not None:
                        cutoff = point_key - seq_size
                    else:
                        cutoff = eviction_cutoff(p)
                    while heap:
                        key, entry_tb, record, _ = heap[0]
                        if key > cutoff:
                            break
                        if slot_tb[record.slot] != entry_tb:
                            heappop(heap)
                            continue
                        if (
                            record.last.index > cutoff
                            if seq_size is not None
                            else in_window(record.last, p)
                        ):
                            break
                        heappop(heap)
                        remove(record)

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
                            int((x - o) // side)
                            for x, o in zip(vector, offset)
                        )
                    cell_hash = memo_get(cell)
                    if cell_hash is None:
                        cell_hash = hash_value(cell_id(cell))
                        if len(memo) >= _CELL_MEMO_LIMIT:
                            memo.clear()
                        memo[cell] = cell_hash

                # Inline find_nearby(p.vector, cell_hash): one probe
                # covers every level (single-tracking invariant I1).  The
                # inline head is tested here; the overflow only on a miss.
                found = buckets_get(cell_hash)
                if found is not None:
                    acc = 0.0
                    for a, b in zip(found.representative.vector, vector):
                        diff = a - b
                        acc += diff * diff
                        if acc > alpha_sq:
                            found = find_overflow(vector, cell_hash)
                            break
                if found is not None:
                    # Inline _relink_last: footprint moves only on the
                    # (once per record) rep -> non-rep transition.
                    rep = found.representative
                    if p is not rep:
                        if found.last is rep:
                            store._base_words += last_extra
                            slot_words[found.slot] += last_extra
                            level_words[found.level] += last_extra
                    elif found.last is not rep:
                        store._base_words -= last_extra
                        slot_words[found.slot] -= last_extra
                        level_words[found.level] -= last_extra
                    found.last = p
                    found.count += 1
                    entry_tb = next(tiebreak)
                    slot_tb[found.slot] = entry_tb
                    heappush(heap, (point_key, entry_tb, found, p))
                    if not found.accepted and found.level:
                        # Rejected group with fresh activity: move it to
                        # level 0 (representative preserved).
                        self._count = count
                        self._latest = latest
                        policy.observe_many(pending)
                        pending = 0
                        self._move(found, 0)
                        self._set_accepted(found, True)
                        if level_accepted[0] > threshold():
                            self._cascade(0)
                else:
                    # A genuinely new group enters at level 0 (R_0 = 1
                    # accepts every cell, Lemma 2.10).
                    self._count = count
                    self._latest = latest
                    policy.observe_many(pending)
                    pending = 0
                    if i < geom_n:
                        if cell is None:
                            cell = cell_at(i)
                        adj_hashes = geom.adj_hashes(i)
                    else:
                        adj_hashes = config.adj_hashes(vector, cell=cell)
                    record = CandidateRecord(
                        representative=p,
                        cell=cell,
                        cell_hash=cell_hash,
                        adj_hashes=adj_hashes,
                        accepted=True,
                        last=p,
                        level=0,
                    )
                    store.add(record)
                    level_records0[p.index] = record
                    level_accepted[0] += 1
                    level_words[0] += slot_words[record.slot]
                    entry_tb = next(tiebreak)
                    slot_tb[record.slot] = entry_tb
                    heappush(heap, (point_key, entry_tb, record, p))
                    if level_accepted[0] > threshold():
                        self._cascade(0)

                if count & 0xF == 0:
                    self._note_space()
        finally:
            self._count = count
            self._latest = latest
            policy.observe_many(pending)
        if error is not None:
            raise error
        return processed

    # ------------------------------------------------------------------ #
    # Split / Merge (Algorithms 4 and 5)
    # ------------------------------------------------------------------ #

    def _cascade(self, start_level: int) -> None:
        """Restore the accept-set invariant by promoting prefixes upward."""
        level = start_level
        threshold = self._policy.threshold()
        while self._level_accepted[level] > threshold:
            if level + 1 > self._max_level:
                raise LevelOverflowError(
                    "sliding-window hierarchy overflow (Algorithm 3 Line 17); "
                    "this is the probability <= 1/m^2 failure event of "
                    "Lemma 2.8 - increase window_capacity or kappa0"
                )
            promoted = self._split(level)
            self._merge(promoted, level + 1)
            level += 1

    def _split(self, level: int) -> list[CandidateRecord]:
        """Algorithm 4: carve off the promotable prefix of ``level``.

        Returns the records of the prefix *re-derived at the doubled rate*
        (already filtered to accepted/rejected; dropped points removed),
        still registered in the shared store and tagged with ``level`` -
        :meth:`_merge` retags the survivors.  The remaining suffix stays
        at ``level`` completely untouched: no store re-registration, no
        heap churn.
        """
        level_map = self._level_records[level]
        doubled_exponent = level + 1
        doubled_mask = (1 << doubled_exponent) - 1

        all_records = sorted(
            level_map.values(), key=lambda r: r.representative.index
        )
        accepted = [r for r in all_records if r.accepted]
        survivors = [
            r for r in accepted if r.cell_hash & doubled_mask == 0
        ]
        if survivors:
            boundary = survivors[-1].representative.index
        elif len(accepted) > 1:
            # Negligible-probability corner (see DESIGN.md): keep the last
            # accepted point at this level so Fact 3 survives.
            boundary = accepted[-2].representative.index
        else:
            boundary = accepted[-1].representative.index - 1

        # Re-derive the prefix at the doubled rate (Algorithm 4's ALG_a);
        # the suffix (ALG_b) keeps its rate and status by simply staying.
        # ``all_records`` is index-sorted, so the prefix is its leading
        # run; the adj test is the cached O(1) survival exponent.
        promoted: list[CandidateRecord] = []
        for record in all_records:
            if record.representative.index > boundary:
                break
            if record.cell_hash & doubled_mask == 0:
                self._set_accepted(record, True)
            else:
                # Inline the cached survival-exponent read (computed at
                # most once per record by survival_exponent()).
                tz = record.adj_tz
                if tz < 0:
                    tz = record.survival_exponent()
                if tz >= doubled_exponent:
                    self._set_accepted(record, False)
                else:
                    self._remove(record)
                    continue
            promoted.append(record)
        return promoted

    def _merge(self, promoted: list[CandidateRecord], level: int) -> None:
        """Algorithm 5: fold promoted records into the level above.

        Promotion is a *move*: the record's level tag flips and it shifts
        between the per-level maps; its store registration and its live
        heap entry survive as-is.  Deduplicates representatives of the
        same group: when the target level already tracks a group within
        ``alpha`` of a promoted representative, the existing record
        absorbs the promoted one's last-point and count.
        """
        store = self._store
        buckets_get = store._buckets.get
        overflow = store._overflow
        find_overflow = store.find_overflow
        alpha = self._config.alpha
        expiry_key = self._window.expiry_key
        for record in promoted:
            # Inline find_nearby(vector, cell_hash, level).  The head is
            # usually the promoted record itself: promoted-but-not-yet-
            # moved records still carry the source level tag, so they
            # never match, and the overflow is consulted only if it holds
            # the hash.
            cell_hash = record.cell_hash
            vector = record.representative.vector
            existing = buckets_get(cell_hash)
            if existing is not None and (
                existing.level != level
                or not within_distance(
                    existing.representative.vector, vector, alpha
                )
            ):
                existing = (
                    find_overflow(vector, cell_hash, level)
                    if cell_hash in overflow
                    else None
                )
            if existing is not None:
                if expiry_key(record.last) > expiry_key(existing.last):
                    self._relink_last(existing, record.last)
                    self._push(existing)
                existing.count += record.count
                self._remove(record)
            else:
                self._move(record, level)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def sample(self, rng: random.Random | None = None) -> StreamPoint:
        """Return a robust l0-sample of the current window (Lines 19-23).

        Each accepted group at level ``l`` is kept with probability
        ``R_l / R_c`` (``c`` the deepest non-empty level) so every group in
        the window survives with probability ``1/R_c``; the returned point
        is the group's last (most recent) point.
        """
        if self._latest is None:
            raise EmptySampleError("no points inserted yet")
        rng = rng if rng is not None else random.Random()
        self._evict(self._latest)

        active: list[tuple[int, list[CandidateRecord]]] = []
        for index, level_map in enumerate(self._level_records):
            if not self._level_accepted[index]:
                continue
            records = [r for r in level_map.values() if r.accepted]
            if records:
                active.append((index, records))
        if not active:
            raise EmptySampleError("the sliding window contains no points")

        deepest = active[-1][0]
        coarsest = 1 << deepest
        pool: list[StreamPoint] = []
        for index, records in active:
            keep_probability = (1 << index) / coarsest
            for record in records:
                if keep_probability >= 1.0 or rng.random() < keep_probability:
                    pool.append(record.last)
        # Level c participates with probability 1, so the pool is never
        # empty (Lemma 2.10).
        return rng.choice(pool)

    def estimate_f0(self) -> float:
        """Estimate the number of groups in the window (Section 5).

        Horvitz-Thompson form: a group tracked at level ``l`` is accepted
        with probability ``1/R_l`` (invariant I2), so each accepted record
        stands for ``R_l`` groups and ``sum_l |S_acc_l| * R_l`` is an
        unbiased estimate of the window's group count.  The paper's
        FM-style level statistic is exposed by
        :class:`~repro.core.f0_sliding.RobustF0EstimatorSW`'s ``mode="fm"``.
        """
        if self._latest is None:
            raise EmptySampleError("no points inserted yet")
        self._evict(self._latest)
        return float(
            sum(
                count << index
                for index, count in enumerate(self._level_accepted)
            )
        )

    def deepest_active_level(self) -> int | None:
        """Largest level index with a non-empty (unexpired) accept set."""
        if self._latest is None:
            return None
        self._evict(self._latest)
        deepest = None
        for index, count in enumerate(self._level_accepted):
            if count:
                deepest = index
        return deepest

    def space_words(self) -> int:
        """Current footprint across all levels (cached counters, O(levels))."""
        return sum(self._level_words) + 3 * (self._max_level + 1) + 4

    def recount_space_words(self) -> int:
        """Debug oracle: recompute :meth:`space_words` from scratch.

        Walks every level's records and sums their true footprints; the
        invariant tests assert this equals :meth:`space_words` (and that
        the per-level cached counters match per level) after every
        operation.
        """
        total = 0
        for level_map in self._level_records:
            total += sum(_record_words(r) for r in level_map.values())
        return total + 3 * (self._max_level + 1) + 4

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng: random.Random | None = None) -> StreamPoint:
        """Protocol query: a robust l0-sample of the current window."""
        return self.sample(rng)

    def merge(self, *others: "RobustL0SamplerSW") -> "RobustL0SamplerSW":
        """Sliding hierarchies cannot be merged exactly.

        A group's level assignment encodes *where in the interleaved
        arrival order* its subwindow sits (Definition 2.9); two
        independently grown hierarchies carry no consistent interleaving,
        so there is no union hierarchy whose invariants (I1/I2) are
        restorable from the two states alone.  Use per-stream sharding
        with infinite-window samplers (:class:`repro.engine.BatchPipeline`)
        when distributed merging is required.
        """
        from repro.api.protocol import merge_unsupported

        raise merge_unsupported(
            self, "level assignment depends on the interleaved arrival order"
        )

    def to_state(self) -> dict:
        """Serialise the hierarchy to a JSON-compatible dict.

        The state is the window's contents in replayable form - every
        candidate record (representative, most recent in-window point,
        level tag) plus the shared lazy eviction heap **verbatim** (stale
        entries, tiebreak counter position and all) - plus the shared
        config, window specification and threshold policy.  A restored
        hierarchy continues the stream with decisions identical to the
        original's (``repro.engine.state_fingerprint``-equal).

        Heap entries are stored with two linkage flags instead of object
        references: ``linked`` (the referenced record is still the store's
        record for that representative) and ``cur`` (the entry is linked and
        its last-point is the record's current one).  ``from_state`` uses
        them to restore the identity relationships the lazy-eviction
        staleness checks rely on (``store.get(i) is record`` /
        ``record.last is last_ref``).
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
        return {
            "config": serialize.config_to_state(self._config),
            "window": serialize.window_to_state(self._window),
            "policy": serialize.policy_to_state(self._policy),
            "max_level": self._max_level,
            "points_seen": self._count,
            "peak_space_words": self._peak_words,
            "latest": (
                serialize.point_to_state(self._latest)
                if self._latest is not None
                else None
            ),
            "records": [serialize.record_to_state(r) for r in records],
            "heap": heap_state,
            "next_tiebreak": position,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RobustL0SamplerSW":
        """Restore a hierarchy from :meth:`to_state` output.

        Also reads the legacy one-store-per-level layout (states written
        before the shared-store refactor, recognisable by their
        ``"levels"`` list): records are re-tagged with their level index
        and the per-level lazy heaps are folded into the shared heap
        (live entries only - stale entries are semantically inert, they
        only existed to be popped).
        """
        from repro.core import serialize

        from repro.errors import CheckpointError

        config = serialize.config_from_state(state["config"])
        window = serialize.window_from_state(state["window"])
        if window is None:
            raise CheckpointError(
                "sliding-window checkpoint is missing its window spec"
            )
        sampler = cls.__new__(cls)
        sampler._config = config
        sampler._window = window
        sampler._policy = serialize.policy_from_state(state["policy"])
        sampler._max_level = state["max_level"]
        levels = sampler._max_level + 1
        sampler._store = CandidateStore(config)
        sampler._heap = []
        sampler._level_records = [{} for _ in range(levels)]
        sampler._level_accepted = [0] * levels
        sampler._level_words = [0] * levels
        sampler._latest = (
            serialize.point_from_state(state["latest"])
            if state["latest"] is not None
            else None
        )
        sampler._count = state["points_seen"]
        sampler._peak_words = state["peak_space_words"]
        if "levels" in state:
            sampler._restore_legacy_levels(state["levels"])
            return sampler

        records: dict[int, CandidateRecord] = {}
        for record_state in state["records"]:
            record = serialize.record_from_state(record_state)
            records[record.representative.index] = record
            sampler._add(record)
        sampler._tiebreak = itertools.count(state["next_tiebreak"])
        slot_tb = sampler._store._slot_tb
        for entry in state["heap"]:
            last = serialize.point_from_state(entry["p"])
            record = records.get(entry["r"]) if entry["linked"] else None
            if record is None:
                # The referenced record left the store: fabricate a
                # detached stand-in so the staleness check pops the entry
                # exactly as it would have popped the original (a
                # detached record carries the sentinel slot 0, whose
                # generation counter never matches a real tiebreak).
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
                # and stamp the record's slot generation so the entry
                # reads as current.  Max-wins, matching live stamping
                # (the record's *latest* push owns the slot counter).
                last = record.last
                if entry["t"] > slot_tb[record.slot]:
                    slot_tb[record.slot] = entry["t"]
            # The saved list order *is* a valid heap arrangement (it was
            # the live heap), so it is restored verbatim - heapifying
            # could legally rearrange it and break fingerprint equality.
            sampler._heap.append((entry["k"], entry["t"], record, last))
        return sampler

    def _restore_legacy_levels(self, level_states: list[dict]) -> None:
        """Rebuild shared structures from per-level legacy states."""
        from repro.core import serialize

        live_entries: list[tuple[float, int, int, int]] = []
        records: dict[int, CandidateRecord] = {}
        for index, level_state in enumerate(level_states):
            for record_state in level_state["records"]:
                record = serialize.record_from_state(record_state)
                record.level = index
                records[record.representative.index] = record
                self._add(record)
            for entry in level_state["heap"]:
                if entry["linked"] and entry["cur"]:
                    live_entries.append(
                        (entry["k"], index, entry["t"], entry["r"])
                    )
        covered = {key for _, _, _, key in live_entries}
        for key, record in records.items():
            if key not in covered:
                live_entries.append(
                    (
                        self._window.expiry_key(record.last),
                        len(level_states),
                        0,
                        key,
                    )
                )
        # Pushing in sorted order yields a valid heap with fresh,
        # collision-free tiebreaks (per-level counters overlapped).
        self._tiebreak = itertools.count()
        slot_tb = self._store._slot_tb
        for heap_key, _, _, record_key in sorted(live_entries):
            record = records[record_key]
            tiebreak = next(self._tiebreak)
            # Later pushes overwrite: the slot generation tracks the
            # record's freshest entry, exactly as live stamping does.
            slot_tb[record.slot] = tiebreak
            self._heap.append((heap_key, tiebreak, record, record.last))
