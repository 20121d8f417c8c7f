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
  ``recount_space_words`` is the from-scratch oracle;
* each level's record map is kept in **representative-index order**.
  Foundings append the newest index and a promoted prefix is usually
  newer than the target level's tail, so both keep a level ordered; the
  exceptions (a reactivated group re-entering level 0, a promoted prefix
  older than the target's tail) only flag the level unordered, and it
  is re-sorted in place when a ``Split`` or a query next reads it.
  ``Split`` therefore finds its boundary by a short backward walk and
  carves the prefix off the front without sorting, and ``Split``/
  ``Merge`` apply their accept-count and word deltas once per cascade
  step.  The order is canonical, so a live hierarchy and one restored
  from its checkpoint (which rebuilds the maps in index order) draw the
  same query answers from the same ``rng``.

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

from repro.core.base import (
    DEFAULT_KAPPA0,
    CandidateRecord,
    CandidateStore,
    HeapEntry,
    SamplerConfig,
    StreamSampler,
    _ThresholdPolicy,
    coerce_point,
    evict_expired,
    eviction_heap,
    invalid_point,
)
from repro.core.chunk_geometry import ChunkGeometry, is_chunk, prepare_chunk
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
    ``accepted_records()``...) for tests and diagnostics, backed by the
    shared structures (records in representative-index order).
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
        return iter(list(self._sampler._ordered(self._index).values()))

    def accepted_records(self) -> list[CandidateRecord]:
        """Records of this level's accept set."""
        return [r for r in self.records() if r.accepted]

    def rejected_records(self) -> list[CandidateRecord]:
        """Records of this level's reject set."""
        return [r for r in self.records() if not r.accepted]

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
        self._heap: list[HeapEntry] = []
        self._level_records: list[dict[int, CandidateRecord]] = [
            {} for _ in range(levels)
        ]
        # True while a level's map is out of representative-index order.
        self._level_unordered: list[bool] = [False] * levels
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

    def _append(self, level: int, record: CandidateRecord) -> None:
        """Put a record at the end of a level map, noting lost order."""
        level_map = self._level_records[level]
        key = record.representative.index
        if level_map and next(reversed(level_map)) > key:
            self._level_unordered[level] = True
        level_map[key] = record

    def _ordered(self, level: int) -> dict[int, CandidateRecord]:
        """A level's record map, re-sorted in place if flagged unordered.

        The map object is kept (hot loops hold it in a local); only its
        insertion order changes.
        """
        level_map = self._level_records[level]
        if self._level_unordered[level]:
            keys = sorted(level_map)
            records = [level_map[key] for key in keys]
            level_map.clear()
            level_map.update(zip(keys, records))
            self._level_unordered[level] = False
        return level_map

    def _add(self, record: CandidateRecord) -> None:
        """Register a record (store + its level's map/counters)."""
        self._store.add(record)
        level = record.level
        self._append(level, record)
        if record.accepted:
            self._level_accepted[level] += 1
        self._level_words[level] += record.words

    def _remove(self, record: CandidateRecord) -> None:
        """Drop a record (store + its level's map/counters)."""
        self._store.remove(record)
        level = record.level
        del self._level_records[level][record.representative.index]
        if record.accepted:
            self._level_accepted[level] -= 1
        self._level_words[level] -= record.words

    def _reactivate(self, record: CandidateRecord) -> None:
        """Move a rejected record with fresh activity to level 0, accepted.

        The group belongs to the newest subwindow now; its representative
        (and so its store registration) is preserved - only the level tag,
        the per-level maps and the counters change.
        """
        source = record.level
        del self._level_records[source][record.representative.index]
        self._append(0, record)
        record.level = 0
        words = record.words
        self._level_words[source] -= words
        self._level_words[0] += words
        self._store.set_accepted(record, True)
        self._level_accepted[0] += 1

    def _relink_last(self, record: CandidateRecord, new_last: StreamPoint) -> None:
        """Level-aware :meth:`CandidateStore.relink_last`."""
        rep = record.representative
        extra = len(rep.vector) + 2
        store = self._store
        if record.last is rep:
            if new_last is not rep:
                store._base_words += extra
                record.words += extra
                self._level_words[record.level] += extra
        elif new_last is rep:
            store._base_words -= extra
            record.words -= extra
            self._level_words[record.level] -= extra
        record.last = new_last

    def _evict(self, latest: StreamPoint) -> None:
        """Drop groups whose last point expired (Lines 1-3, all levels).

        One lazy heap covers the whole hierarchy
        (:func:`~repro.core.base.evict_expired`).
        """
        evict_expired(self._heap, self._window, latest, self._remove)

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
        p = coerce_point(point, self._count, self._config.grid)
        if self._latest is not None and (
            self._window.expiry_key(p) < self._window.expiry_key(self._latest)
        ):
            raise invalid_point(0, "arrives out of window order")
        self._count += 1
        self._policy.observe()
        self._latest = p
        self._evict(p)

        config = self._config
        cell = config.grid.cell_of(p.vector)
        cell_hash = config.cell_hash(cell)
        record = self._store.find_nearby(p.vector, cell_hash)
        if record is not None:
            # The group is tracked at exactly one level (invariant I1);
            # the shared store finds its record in one bucket probe.
            self._relink_last(record, p)
            record.count += 1
            if not record.accepted and record.level != 0:
                # A rejected group with fresh activity belongs to the
                # newest subwindow: move it to level 0, whose rate 1
                # accepts everything.
                self._reactivate(record)
                if self._level_accepted[0] > self._policy.threshold():
                    self._cascade(0)
        else:
            # A genuinely new group enters at level 0 (Lemma 2.10: ALG_0
            # tracks every representative since R_0 = 1).
            record = CandidateRecord(
                representative=p,
                cell=cell,
                cell_hash=cell_hash,
                adj_hashes=config.adj_hashes(p.vector, cell=cell),
                accepted=True,
                last=p,
                level=0,
            )
            self._add(record)
            heapq.heappush(
                self._heap,
                (self._window.expiry_key(p), p.index, p.index, record),
            )
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

        The chunk's cells and cell hashes come from one
        vectorised :class:`~repro.core.chunk_geometry.ChunkGeometry`
        precompute (``points`` may be that validated chunk itself, or
        ``geometry`` one built separately; foundings also get their
        ``adj(p)`` hash tuples from its one vectorised enumeration), so
        the per-arrival loop keeps only the sequential machinery -
        eviction sweep, the single shared-store bucket probe, the
        distance test - replicating :meth:`insert`
        operation-for-operation; the resulting state is identical to
        per-point ingestion.  Cascades never invalidate the hoisted
        locals: the shared store and heap objects are stable across
        Split/Merge (promotions retag records in place).  A chunk too small to
        vectorise goes through :meth:`insert`.  An invalid point anywhere
        in the chunk - window order included, checked against the latest
        arrival - raises :class:`~repro.errors.ParameterError` before
        anything mutates.
        """
        if geometry is None and not is_chunk(points):
            # A one-shot iterable is streamed in bounded chunks, so
            # memory stays O(chunk) however long the stream is.
            return self.extend(points)

        config = self._config
        dim = config.dim
        window = self._window
        expiry_key = window.expiry_key
        in_window = window.in_window
        eviction_cutoff = window.eviction_cutoff
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        policy = self._policy
        threshold = policy.threshold
        store = self._store
        buckets_get = store._buckets.get
        find_overflow = store.find_overflow
        level_records0 = self._level_records[0]
        level_unordered = self._level_unordered
        level_accepted = self._level_accepted
        level_words = self._level_words
        remove = self._remove
        alpha_sq = config.alpha * config.alpha
        last_extra = dim + 2
        count = self._count
        latest = self._latest
        # Sequence windows admit exact inline arithmetic for the three
        # per-arrival window calls: expiry_key(p) == float(p.index),
        # eviction_cutoff(p) == float(p.index - w) == float(p.index) - w
        # and in_window(q, p) == q.index > p.index - w (indices stay far
        # below 2^53, so the float forms are exact).
        seq_size = (
            int(window.size) if type(window) is SequenceWindow else None
        )
        pending = 0  # arrivals not yet flushed into the threshold policy

        pts, vectors, geom, hashes_list = prepare_chunk(
            config,
            points,
            count,
            geometry=geometry,
            window=window,
            latest=latest,
        )
        geom_n = len(hashes_list)
        try:
            for i in range(geom_n):
                p = pts[i]
                vector = vectors[i]
                point_key = (
                    float(p.index) if seq_size is not None else expiry_key(p)
                )
                count += 1
                pending += 1
                latest = p

                # Inline _evict(p): identical operations to the method.
                if heap:
                    if seq_size is not None:
                        cutoff = point_key - seq_size
                    else:
                        cutoff = eviction_cutoff(p)
                    while heap:
                        key, _, rep_index, record = heap[0]
                        if key > cutoff:
                            break
                        if not record.stored:
                            heappop(heap)
                            continue
                        last = record.last
                        last_key = (
                            float(last.index)
                            if seq_size is not None
                            else expiry_key(last)
                        )
                        if key < last_key:
                            heapreplace(
                                heap, (last_key, last.index, rep_index, record)
                            )
                            continue
                        # A sequence entry at its last point's key is
                        # expired: the key is at most the cutoff.
                        if seq_size is None and in_window(last, p):
                            break
                        heappop(heap)
                        remove(record)

                cell_hash = hashes_list[i]

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
                            found.words += last_extra
                            level_words[found.level] += last_extra
                    elif found.last is not rep:
                        store._base_words -= last_extra
                        found.words -= last_extra
                        level_words[found.level] -= last_extra
                    found.last = p
                    found.count += 1
                    if not found.accepted and found.level:
                        # Rejected group with fresh activity: move it to
                        # level 0 (representative preserved).
                        self._count = count
                        self._latest = latest
                        policy.observe_many(pending)
                        pending = 0
                        self._reactivate(found)
                        if level_accepted[0] > threshold():
                            self._cascade(0)
                else:
                    # A genuinely new group enters at level 0 (R_0 = 1
                    # accepts every cell, Lemma 2.10).
                    self._count = count
                    self._latest = latest
                    policy.observe_many(pending)
                    pending = 0
                    # Cell tuples are built lazily - only foundings
                    # need them.
                    record = CandidateRecord(
                        representative=p,
                        cell=geom.cell_at(i),
                        cell_hash=cell_hash,
                        adj_hashes=geom.adj_hashes(i),
                        accepted=True,
                        last=p,
                        level=0,
                        adj_tz=geom.adj_tz(i),
                    )
                    store.add(record)
                    key = p.index
                    if level_records0 and next(reversed(level_records0)) > key:
                        level_unordered[0] = True
                    level_records0[key] = record
                    level_accepted[0] += 1
                    level_words[0] += record.words
                    heappush(heap, (point_key, key, key, record))
                    if level_accepted[0] > threshold():
                        self._cascade(0)

                if count & 0xF == 0:
                    self._note_space()
        finally:
            self._count = count
            self._latest = latest
            policy.observe_many(pending)
        if geom is None:
            for p in pts:
                self.insert(p)
        return len(pts)

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
        level_map = self._ordered(level)
        doubled_exponent = level + 1
        doubled_mask = (1 << doubled_exponent) - 1

        # The boundary is the last accepted record that survives the
        # doubled rate; the map is index-ordered, so a backward walk
        # finds it (survivors are dense: the walk is short).
        boundary = None
        last = second = None
        for record in reversed(level_map.values()):
            if record.accepted:
                if record.cell_hash & doubled_mask == 0:
                    boundary = record.representative.index
                    break
                if last is None:
                    last = record
                elif second is None:
                    second = record
        if boundary is None:
            if second is not None:
                # Negligible-probability corner (see DESIGN.md): keep the
                # last accepted point at this level so Fact 3 survives.
                boundary = second.representative.index
            else:
                boundary = last.representative.index - 1

        # Re-derive the prefix at the doubled rate (Algorithm 4's ALG_a);
        # the suffix (ALG_b) keeps its rate and status by simply staying.
        # The adj test reads the survival exponent founded with the
        # record (derived once otherwise).  Accept flips are counted and
        # applied to the counters once; dropped records leave the map
        # after the walk, in prefix order.
        flips = 0
        promoted: list[CandidateRecord] = []
        dropped: list[CandidateRecord] = []
        for record in level_map.values():
            if record.representative.index > boundary:
                break
            if record.cell_hash & doubled_mask == 0:
                if not record.accepted:
                    record.accepted = True
                    flips += 1
            else:
                tz = record.adj_tz
                if tz < 0:
                    tz = record.survival_exponent()
                if tz < doubled_exponent:
                    dropped.append(record)
                    continue
                if record.accepted:
                    record.accepted = False
                    flips -= 1
            promoted.append(record)
        for record in dropped:
            self._remove(record)
        self._store._accepted_count += flips
        self._level_accepted[level] += flips
        return promoted

    def _merge(self, promoted: list[CandidateRecord], level: int) -> None:
        """Algorithm 5: fold promoted records into the level above.

        Promotion is a *move*: the record's level tag flips and it shifts
        between the per-level maps; its store registration and its heap
        entry survive as-is.  Deduplicates representatives of the
        same group: when the target level already tracks a group within
        ``alpha`` of a promoted representative, the existing record
        absorbs the promoted one's last-point and count.
        """
        if not promoted:
            return
        store = self._store
        buckets_get = store._buckets.get
        overflow = store._overflow
        find_overflow = store.find_overflow
        alpha = self._config.alpha
        expiry_key = self._window.expiry_key
        source = level - 1
        source_map = self._level_records[source]
        target_map = self._level_records[level]
        # The prefix is index-ordered: appended after the target's tail
        # it keeps the target ordered unless it starts before that tail.
        if target_map and (
            next(reversed(target_map)) > promoted[0].representative.index
        ):
            self._level_unordered[level] = True
        moved_words = 0
        moved_accepted = 0
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
                existing.count += record.count
                self._remove(record)
            else:
                key = record.representative.index
                del source_map[key]
                target_map[key] = record
                record.level = level
                # The footprint is cached on the record (kept exact by
                # add/relink): the move is counter arithmetic only.
                moved_words += record.words
                moved_accepted += record.accepted
        level_words = self._level_words
        level_words[source] -= moved_words
        level_words[level] += moved_words
        level_accepted = self._level_accepted
        level_accepted[source] -= moved_accepted
        level_accepted[level] += moved_accepted

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
        pool = self.sample_pool(rng)
        if not pool:
            raise EmptySampleError("the sliding window contains no points")
        return rng.choice(pool)

    def sample_pool(self, rng: random.Random) -> list[StreamPoint]:
        """The rate-unified pool of accepted last-points (Lines 19-22).

        Evicts, then keeps each accepted group at level ``l`` with
        probability ``R_l / R_c`` (``c`` the deepest level with a
        non-empty accept set), drawing from ``rng`` level by level in
        representative-index order - so the draws depend on the state
        alone, not on how it was reached.  Level ``c`` participates with
        probability 1, so the pool is empty only when the window is
        (Lemma 2.10).  :meth:`sample` picks one member; the k-sample
        wrapper picks ``k`` distinct ones.
        """
        if self._latest is None:
            return []
        self._evict(self._latest)
        active = [
            index for index, count in enumerate(self._level_accepted) if count
        ]
        if not active:
            return []
        coarsest = 1 << active[-1]
        pool: list[StreamPoint] = []
        for index in active:
            keep_probability = (1 << index) / coarsest
            for record in self._ordered(index).values():
                if record.accepted and (
                    keep_probability >= 1.0 or rng.random() < keep_probability
                ):
                    pool.append(record.last)
        return pool

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
        level tag) as packed columns
        (:func:`repro.core.serialize.records_to_columns`) - plus the
        shared config, window specification and threshold policy.  The
        lazy eviction heap is derived from the records and not written.
        A restored hierarchy continues the stream with decisions
        identical to the original's
        (``repro.engine.state_fingerprint``-equal).
        """
        from repro.core import serialize

        records = sorted(
            self._store.records(), key=lambda r: r.representative.index
        )
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
            "records": serialize.records_to_columns(
                records, self._config.dim
            ),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RobustL0SamplerSW":
        """Restore a hierarchy from :meth:`to_state` output.

        Reads the current layout only (older envelopes are upgraded by
        :func:`repro.persist.upgrade_envelope`).  ``max_level`` is at
        most 255, the largest ``u1`` level, and is checked before the
        per-level tables are allocated.  The lazy eviction heap is
        rebuilt from the records (:func:`~repro.core.base.eviction_heap`).
        """
        from repro.core import serialize

        from repro.errors import CheckpointError

        serialize.check_int_fields(state, 0, "points_seen", "peak_space_words")
        serialize.check_int_fields(state, 1, "max_level", maximum=255)
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
        sampler._level_records = [{} for _ in range(levels)]
        sampler._level_unordered = [False] * levels
        sampler._level_accepted = [0] * levels
        sampler._level_words = [0] * levels
        sampler._latest = (
            serialize.point_from_state(state["latest"])
            if state["latest"] is not None
            else None
        )
        sampler._count = state["points_seen"]
        sampler._peak_words = state["peak_space_words"]
        for record in serialize.records_from_columns(
            state["records"], config.dim
        ):
            if record.level >= levels:
                raise CheckpointError(
                    f"record level {record.level} is beyond the "
                    f"hierarchy's max_level {sampler._max_level}"
                )
            sampler._add(record)
        sampler._heap = eviction_heap(sampler._store.records(), window)
        return sampler
