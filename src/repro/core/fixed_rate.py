"""Algorithm 2: sliding-window sampling at a fixed cell sample rate.

A standalone reference implementation of one fixed-rate level, usable
when the number of groups per window is known to be modest (its
worst-case space is w/R); the experiments use it as such.  The
space-efficient hierarchy (Algorithm 3,
:class:`~repro.core.sliding_window.RobustL0SamplerSW`) does not build on
it: it keeps every level in one shared candidate store.  Batches go
through the default per-point ``process_many``, after the whole batch
is checked.

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
import random
from typing import Iterator

from repro.core.base import (
    CandidateRecord,
    CandidateStore,
    HeapEntry,
    SamplerConfig,
    StreamSampler,
    check_vector,
    evict_expired,
    eviction_heap,
    invalid_point,
)
from repro.core.reservoir import WindowReservoir
from repro.errors import EmptySampleError, ParameterError
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
        self._heap: list[HeapEntry] = []
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

    def evict(self, latest: StreamPoint) -> None:
        """Drop groups whose last point expired (Lines 1-3 of Algorithm 2).

        One lazy heap entry per record
        (:func:`~repro.core.base.evict_expired`): the window's
        :meth:`~repro.streams.windows.WindowSpec.eviction_cutoff`
        pre-filters by heap key, so the common nothing-expires case
        costs one comparison.
        """
        evict_expired(self._heap, self._window, latest, self._remove)

    def _remove(self, record: CandidateRecord) -> None:
        """Drop an expired record and its member reservoir."""
        self._store.remove(record)
        self._reservoirs.pop(record.representative.index, None)

    def insert(self, point: StreamPoint) -> None:
        """Process an arriving point.

        The point is validated (:func:`~repro.core.base.check_vector`)
        before the eviction sweep, so an invalid point changes nothing.
        """
        config = self._config
        check_vector(config.grid, point.vector)
        self.evict(point)

        cell = config.grid.cell_of(point.vector)
        cell_hash = config.cell_hash(cell)
        record = self._store.find_nearby(point.vector, cell_hash)
        if record is not None:
            self._store.relink_last(record, point)
            record.count += 1
            if self._track_members:
                self._reservoir_for(record).offer(point, self._member_rng)
            return

        adj_hashes = config.adj_hashes(point.vector, cell=cell)
        mask = self._rate - 1
        if cell_hash & mask == 0:
            accepted = True
        elif any(value & mask == 0 for value in adj_hashes):
            accepted = False
        else:
            return

        record = CandidateRecord(
            representative=point,
            cell=cell,
            cell_hash=cell_hash,
            adj_hashes=adj_hashes,
            accepted=accepted,
            last=point,
        )
        self._store.add(record)
        heapq.heappush(
            self._heap,
            (self._window.expiry_key(point), point.index, point.index, record),
        )
        if self._track_members:
            self._reservoir_for(record).offer(point, self._member_rng)

    def _reservoir_for(self, record: CandidateRecord) -> WindowReservoir:
        key = record.representative.index
        reservoir = self._reservoirs.get(key)
        if reservoir is None:
            reservoir = WindowReservoir(self._window)
            self._reservoirs[key] = reservoir
        return reservoir

    def _check_batch(self, points: list) -> None:
        # The per-point contract of insert(), checked for the whole
        # batch before the default process_many inserts any of it.
        grid = self._config.grid
        for position, point in enumerate(points):
            if not isinstance(point, StreamPoint):
                raise invalid_point(position, "is not a StreamPoint")
            check_vector(grid, point.vector, position)

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
        per-group reservoir of window members), so a restored level
        evicts, updates and samples exactly as the original would on the
        remainder of the stream.  The lazy eviction heap is derived from
        the records and not written.

        Records and reservoirs are packed columns
        (:mod:`repro.core.serialize`).

        The shared :class:`~repro.core.base.SamplerConfig` and window are
        *not* embedded; the owner (hierarchy or caller) restores them once
        and passes them to :meth:`from_state`.
        """
        from repro.core import serialize

        dim = self._config.dim
        records = sorted(
            self._store.records(), key=lambda r: r.representative.index
        )
        state = {
            "rate_denominator": self._rate,
            "track_members": self._track_members,
            "records": serialize.records_to_columns(records, dim),
            "reservoirs": serialize.reservoirs_to_columns(
                [
                    (key, self._reservoirs[key]._entries)
                    for key in sorted(self._reservoirs)
                ],
                dim,
            ),
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
        Reads the current layout only: packed record and reservoir
        columns.  The lazy eviction heap is rebuilt from the records
        (:func:`~repro.core.base.eviction_heap`).
        """
        from repro.core import serialize

        sampler = cls(
            config,
            state["rate_denominator"],
            window,
            track_members=state["track_members"],
        )
        if "member_rng" in state:
            sampler._member_rng = serialize.rng_from_state(state["member_rng"])
        for record in serialize.records_from_columns(
            state["records"], config.dim
        ):
            sampler._store.add(record)
        sampler._heap = eviction_heap(sampler._store.records(), window)
        for key, entries in serialize.reservoirs_from_columns(
            state["reservoirs"], config.dim
        ):
            reservoir = WindowReservoir(window)
            reservoir._entries = entries
            sampler._reservoirs[key] = reservoir
        return sampler
