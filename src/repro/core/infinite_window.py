"""Algorithm 1: robust l0-sampling in the infinite window (Section 2.1).

The sampler maintains, for each *candidate group* (a group whose first
point landed in or next to a sampled grid cell), the group's first point as
its representative; representatives whose own cell is sampled form the
accept set ``S_acc``, the others the reject set ``S_rej``.  When the accept
set outgrows ``kappa_0 * log m`` the cell sample rate is halved in place
(``R <- 2R``), which is consistent because sampling decisions are nested
across rates (Fact 1(b)).  A query returns a uniformly random point of
``S_acc``, which Theorem 2.4 shows is a robust l0-sample with probability
``1 - 1/m`` using O(log m) words.

Section 2.3 extensions implemented here:

* ``sample_member`` - return a uniformly random *member* of the sampled
  group rather than its fixed representative, via reservoir counters.
* ``estimate_f0`` - ``|S_acc| * R``, the Section 5 estimator (see
  :mod:`repro.core.f0_infinite` for the full median-of-copies wrapper).
"""

from __future__ import annotations

import random
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.base import (
    DEFAULT_KAPPA0,
    CandidateRecord,
    CandidateStore,
    SamplerConfig,
    StreamSampler,
    _ThresholdPolicy,
    coerce_point,
)
from repro.core.chunk_geometry import (
    MIN_VECTOR_CHUNK,
    ChunkGeometry,
    is_chunk,
    resolve_chunk,
)
from repro.errors import CheckpointError, EmptySampleError, ParameterError
from repro.geometry.distance import within_distance
from repro.streams.point import StreamPoint


class RobustL0SamplerIW(StreamSampler):
    """Robust distinct sampler for the standard streaming model.

    Parameters
    ----------
    alpha:
        Distance threshold: points within ``alpha`` are near-duplicates.
    dim:
        Dimensionality of the points.
    kappa0:
        The constant of the ``kappa_0 * log m`` accept-set threshold.
    expected_stream_length:
        Optional a-priori bound on the stream length ``m``; fixes the
        threshold up front as in the paper.  When omitted the threshold
        grows with the points seen.
    seed:
        Seed for the grid offset and the sampling hash.
    grid_side:
        Override the grid side length (see
        :func:`repro.core.base.default_grid_side` for the default policy).
    kwise:
        Use a k-wise independent polynomial hash instead of the default
        mixer (theory-faithful mode).
    track_members:
        Maintain reservoir samples so :meth:`sample_member` can return a
        uniformly random group member (Section 2.3).
    accept_capacity:
        Fixed accept-set capacity overriding the ``kappa_0 * log m`` rule;
        Section 5's F0 estimator sets this to ``kappa_B / eps^2``.

    Examples
    --------
    >>> sampler = RobustL0SamplerIW(alpha=0.5, dim=2, seed=7)
    >>> for v in [(0.0, 0.0), (0.1, 0.0), (10.0, 10.0)]:
    ...     sampler.insert(v)
    >>> sampler.num_candidate_groups >= 1
    True
    >>> point = sampler.sample(rng=random.Random(1))
    >>> point.vector in {(0.0, 0.0), (10.0, 10.0)}
    True
    """

    #: Registry key (see :mod:`repro.api.registry`).
    summary_key = "l0-infinite"

    def __init__(
        self,
        alpha: float,
        dim: int,
        *,
        kappa0: float = DEFAULT_KAPPA0,
        expected_stream_length: int | None = None,
        seed: int | None = None,
        grid_side: float | None = None,
        kwise: int | None = None,
        track_members: bool = False,
        config: SamplerConfig | None = None,
        accept_capacity: int | None = None,
    ) -> None:
        if kappa0 <= 0:
            raise ParameterError(f"kappa0 must be positive, got {kappa0}")
        self._config = config if config is not None else SamplerConfig.create(
            alpha, dim, seed=seed, grid_side=grid_side, kwise=kwise
        )
        if self._config.dim != dim:
            raise ParameterError("config dimension does not match dim")
        self._store = CandidateStore(self._config)
        self._policy = _ThresholdPolicy(
            kappa0, expected_stream_length, fixed=accept_capacity
        )
        self._rate_denominator = 1
        self._track_members = track_members
        self._count = 0
        self._member_rng = random.Random(
            None if seed is None else seed ^ 0x5EED
        )
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
    def config(self) -> SamplerConfig:
        """Grid/hash bundle (shared with derived samplers)."""
        return self._config

    @property
    def rate_denominator(self) -> int:
        """Current ``R``: cells are sampled with probability ``1/R``."""
        return self._rate_denominator

    @property
    def points_seen(self) -> int:
        """Number of stream points inserted so far."""
        return self._count

    @property
    def accept_size(self) -> int:
        """``|S_acc|``."""
        return self._store.accepted_count

    @property
    def reject_size(self) -> int:
        """``|S_rej|``."""
        return self._store.rejected_count

    @property
    def num_candidate_groups(self) -> int:
        """Number of tracked (candidate) groups."""
        return len(self._store)

    @property
    def peak_space_words(self) -> int:
        """Largest footprint observed (the paper's pSpace measure)."""
        return self._peak_words

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Process one arriving stream point (the body of Algorithm 1)."""
        p = coerce_point(point, self._count, self._config.grid)
        self._count += 1
        self._policy.observe()

        config = self._config
        cell = config.grid.cell_of(p.vector)
        cell_hash = config.cell_hash(cell)
        existing = self._store.find_nearby(p.vector, cell_hash)
        if existing is not None:
            # Line 4: p is not the first point of its candidate group.
            existing.count += 1
            self._store.relink_last(existing, p)
            if self._track_members and (
                self._member_rng.random() < 1.0 / existing.count
            ):
                existing.member = p
            return

        adj_hashes = config.adj_hashes(p.vector, cell=cell)
        mask = self._rate_denominator - 1
        if cell_hash & mask == 0:
            accepted = True
        elif any(value & mask == 0 for value in adj_hashes):
            accepted = False
        else:
            return  # the group is ignored at the current rate

        record = CandidateRecord(
            representative=p,
            cell=cell,
            cell_hash=cell_hash,
            adj_hashes=adj_hashes,
            accepted=accepted,
            last=p,
            member=p if self._track_members else None,
        )
        self._store.add(record)

        while self._store.accepted_count > self._policy.threshold():
            self._rate_denominator *= 2
            self._store.resample(self._rate_denominator)

        # Peak tracking samples the footprint on the new-record path (the
        # paper's pSpace is driven by the record set; the O(1) incremental
        # counters make the probe itself free).
        words = self.space_words()
        if words > self._peak_words:
            self._peak_words = words

    def process_many(
        self,
        points: Iterable[StreamPoint | Sequence[float]],
        *,
        geometry: "ChunkGeometry | None" = None,
    ) -> int:
        """Batched :meth:`insert`: state-equivalent, several times faster.

        The chunk is validated once and its geometry - cells, cell
        hashes, the ``adj(p)`` product - computed once through the
        vectorised kernel layer
        (:class:`~repro.core.chunk_geometry.ChunkGeometry`, which may be
        ``points`` itself - the pipeline's validated chunk - or come in
        as ``geometry``).  One numpy pass then picks the chunk's
        *active* points (:func:`active_indices`): the only ones
        :meth:`insert` would do anything with besides counting them.
        The loop visits those alone, and only they become
        :class:`~repro.streams.point.StreamPoint` objects; every other
        point is an arrival and nothing more - its position still
        numbers the points after it and feeds the threshold policy.
        The loop is the sequential state machine - the bucket probe,
        the distance test, foundings through the same code ``insert``
        runs (adjacency hashes from the chunk's product, rate halving,
        peak tracking).  A chunk too small to vectorise goes through
        :meth:`insert`.  An invalid point anywhere in the chunk raises
        :class:`~repro.errors.ParameterError` before anything mutates.
        See :class:`~repro.core.base.StreamSampler` for the equivalence
        contract this method honours.
        """
        if geometry is None and not is_chunk(points):
            # A one-shot iterable is streamed in bounded chunks, so
            # memory stays O(chunk) however long the stream is.
            return self.extend(points)

        config = self._config
        start = self._count
        geom = resolve_chunk(config, points, geometry)
        if geom.n < MIN_VECTOR_CHUNK:
            # This class's insert, not an override's: the points are
            # already in the sampler's own space (a projecting subclass
            # projected them before handing the chunk over).
            for p in geom.stream_points(start):
                RobustL0SamplerIW.insert(self, p)
            return geom.n

        dim = config.dim
        store = self._store
        buckets_get = store._buckets.get
        find_overflow = store.find_overflow
        alpha_sq = config.alpha * config.alpha
        track = self._track_members
        member_random = self._member_rng.random
        policy = self._policy
        mask = self._rate_denominator - 1
        rate_exponent = mask.bit_length()

        order = active_indices(geom, store._buckets, mask).tolist()
        pts = geom.stream_points(start, order)
        hashes = geom.cell_hashes

        # Positions in the chunk: seen counts the arrivals so far (the
        # current point's included), flushed those the policy observed.
        seen = flushed = 0
        # The ignore test for an active point that misses the probe with
        # its own cell unsampled (its exponent below the rate exponent:
        # no sampled cell in adj(p)), fetched on first need.
        exponents = None
        probed = False
        try:
            for i, p in zip(order, pts):
                seen = i + 1
                vector = p.vector
                cell_hash = hashes[i]

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
                        existing.count += 1
                        # Inline relink_last: the footprint only moves on
                        # the (once per record) rep -> non-rep transition.
                        if p is not existing.representative:
                            if existing.last is existing.representative:
                                store._base_words += dim + 2
                                existing.words += dim + 2
                        elif existing.last is not existing.representative:
                            store._base_words -= dim + 2
                            existing.words -= dim + 2
                        existing.last = p
                        if track and member_random() < 1.0 / existing.count:
                            existing.member = p
                        continue

                if cell_hash & mask != 0:
                    if not probed:
                        exponents = geom.survival_exponents()
                        probed = True
                    if exponents is not None and exponents[i] < rate_exponent:
                        continue

                # First point of a candidate group: same code as insert().
                adj_hashes = geom.adj_hashes(i)
                if cell_hash & mask == 0:
                    accepted = True
                elif any(value & mask == 0 for value in adj_hashes):
                    accepted = False
                else:
                    continue

                record = CandidateRecord(
                    representative=p,
                    cell=geom.cell_at(i),
                    cell_hash=cell_hash,
                    adj_hashes=adj_hashes,
                    accepted=accepted,
                    last=p,
                    member=p if track else None,
                )
                store.add(record)

                policy.observe_many(seen - flushed)
                flushed = seen
                while store.accepted_count > policy.threshold():
                    self._rate_denominator *= 2
                    store.resample(self._rate_denominator)
                    mask = self._rate_denominator - 1
                    rate_exponent = mask.bit_length()

                self._count = start + seen
                words = self.space_words()
                if words > self._peak_words:
                    self._peak_words = words
            seen = geom.n
        finally:
            self._count = start + seen
            policy.observe_many(seen - flushed)
        return geom.n

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def sample(self, rng: random.Random | None = None) -> StreamPoint:
        """Return a robust l0-sample: a random representative of ``S_acc``.

        Raises
        ------
        EmptySampleError
            If no group is currently accepted (empty stream, or the
            probability-``1/m`` failure event of Lemma 2.5).
        """
        accepted = self._store.accepted_records()
        if not accepted:
            raise EmptySampleError(
                "accept set is empty; no robust sample available"
            )
        rng = rng if rng is not None else random.Random()
        return rng.choice(accepted).representative

    def sample_member(self, rng: random.Random | None = None) -> StreamPoint:
        """Return a uniformly random *member* of a random group (S 2.3).

        Requires ``track_members=True``.
        """
        if not self._track_members:
            raise ParameterError(
                "sampler was built with track_members=False"
            )
        accepted = self._store.accepted_records()
        if not accepted:
            raise EmptySampleError(
                "accept set is empty; no robust sample available"
            )
        rng = rng if rng is not None else random.Random()
        record = rng.choice(accepted)
        assert record.member is not None
        return record.member

    def accepted_representatives(self) -> list[StreamPoint]:
        """The representatives of all accepted groups (for F0 estimation)."""
        return [r.representative for r in self._store.accepted_records()]

    def estimate_f0(self) -> float:
        """Point estimate ``|S_acc| * R`` of the number of groups (S 5)."""
        return float(self._store.accepted_count * self._rate_denominator)

    def space_words(self) -> int:
        """Current memory footprint in words (records + scalars) - O(1)."""
        return self._store.space_words(track_members=self._track_members) + 4

    def recount_space_words(self) -> int:
        """Debug oracle: recompute :meth:`space_words` from scratch."""
        return (
            self._store.recount_space_words(
                track_members=self._track_members
            )
            + 4
        )

    # ------------------------------------------------------------------ #
    # Summary protocol (see repro.api.protocol)
    # ------------------------------------------------------------------ #

    def query(self, rng: random.Random | None = None) -> StreamPoint:
        """Protocol query: one robust l0-sample (see :meth:`sample`)."""
        return self.sample(rng)

    def merge(self, *others: "RobustL0SamplerIW") -> "RobustL0SamplerIW":
        """Combine samplers sharing one grid/hash into a union sampler.

        This is the coordinator's merge protocol (consistency argument in
        :mod:`repro.distributed.coordinator`), run by
        :func:`merge_columns` on the inputs' record columns: every input
        is raised to the maximum rate - decisions nest, so resampling
        only drops or demotes records - groups observed by several
        inputs are deduplicated by proximity, keeping the earliest
        representative and pooling the counts, and the rate doubles
        while the accept set is too big.  The final rate, which is at
        least the largest input rate, is derived before any record is
        built, and only the surviving records are.  Representatives are
        re-keyed injectively (input-local arrival indices overlap across
        inputs).

        Returns a NEW :class:`RobustL0SamplerIW`; the inputs are not
        modified.  The merged sampler remains a live summary: re-keyed
        representatives receive fresh *negative* indices (marking them as
        synthetic union representatives), so they can never collide with
        the arrival indices of points ingested after the merge.  Member
        tracking does not survive merging (a uniform member of a union
        group cannot be derived from two independent reservoirs), so
        ``track_members=True`` inputs are rejected.
        """
        from repro.api.protocol import (
            check_compatible_configs,
            check_merge_peers,
            merge_unsupported,
        )

        check_merge_peers(self, others)
        check_compatible_configs(self, others)
        samplers: tuple[RobustL0SamplerIW, ...] = (self, *others)
        if any(s._track_members for s in samplers):
            raise merge_unsupported(
                self, "member reservoirs cannot be combined exactly"
            )

        return merge_columns(
            self._config, [sampler.merge_input() for sampler in samplers]
        )

    def merge_input(self) -> "MergeInput":
        """This sampler as one input of :func:`merge_columns`: its rate,
        arrival count, policy and the live store's record columns that
        the kernel reads (:func:`~repro.core.serialize.merge_arrays`,
        no base64)."""
        from repro.core import serialize

        return MergeInput(
            self._rate_denominator,
            self._count,
            self._policy,
            serialize.merge_arrays(
                list(self._store.records()), self._config.dim
            ),
        )

    @staticmethod
    def merge_input_from_state(
        state: dict[str, Any], dim: int
    ) -> "MergeInput":
        """A :meth:`to_state` output as one input of :func:`merge_columns`,
        without rebuilding the sampler.

        The record columns go through the checkpoint reader's checks, so
        a corrupt state raises :class:`~repro.errors.CheckpointError`
        here, as its restore would.
        """
        from repro.core import serialize

        try:
            check_state_fields(state)
            policy = serialize.policy_from_state(state["policy"])
            records = state["records"]
        except (KeyError, TypeError) as error:
            raise CheckpointError(
                f"shard state is malformed: {type(error).__name__}: {error}"
            ) from error
        records = serialize.record_arrays_from_columns(records, dim)
        return MergeInput(
            state["rate_denominator"], state["points_seen"], policy, records
        )

    def to_state(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dict (protocol checkpoint)."""
        from repro.core import serialize

        state = {
            "config": serialize.config_to_state(self._config),
            "rate_denominator": self._rate_denominator,
            "points_seen": self._count,
            "peak_space_words": self._peak_words,
            "track_members": self._track_members,
            "policy": serialize.policy_to_state(self._policy),
            "records": serialize.records_to_columns(
                list(self._store.records()), self._config.dim
            ),
        }
        # Untracked members never draw from the RNG (and a config-built
        # sampler's is OS entropy): omitting it keeps the envelope
        # deterministic.  from_state still reads older envelopes' RNG.
        if self._track_members:
            state["member_rng"] = serialize.rng_to_state(self._member_rng)
        return state

    @classmethod
    def _construct_for_restore(
        cls, state: dict[str, Any], config: SamplerConfig, policy
    ) -> "RobustL0SamplerIW":
        """Build the empty shell ``from_state`` fills (subclass hook)."""
        return cls(
            config.alpha,
            config.dim,
            kappa0=policy.kappa0,
            expected_stream_length=policy.expected_stream_length,
            accept_capacity=policy.fixed,
            track_members=state["track_members"],
            config=config,
        )

    @classmethod
    def from_state(
        cls, state: dict[str, Any], *, config: SamplerConfig | None = None
    ) -> "RobustL0SamplerIW":
        """Restore a sampler from :meth:`to_state` output.

        The restored sampler continues the stream with decisions identical
        to the original (same grid, hash, rate, candidate records and
        member-RNG state); ``config`` lets a coordinator re-share one
        configuration object across restored shards.
        """
        from repro.core import serialize

        check_state_fields(state)
        if config is None:
            config = serialize.config_from_state(state["config"])
        policy = serialize.policy_from_state(state["policy"])
        sampler = cls._construct_for_restore(state, config, policy)
        sampler._policy = policy
        sampler._rate_denominator = state["rate_denominator"]
        sampler._count = state["points_seen"]
        sampler._peak_words = state["peak_space_words"]
        if "member_rng" in state:
            sampler._member_rng = serialize.rng_from_state(state["member_rng"])
        for record in serialize.records_from_columns(
            state["records"], config.dim
        ):
            sampler._store.add(record)
        return sampler


def check_state_fields(state: dict[str, Any]) -> None:
    """Reject a :meth:`RobustL0SamplerIW.to_state` output whose top-level
    fields would restore a broken sampler.

    The rate must be an int power of two: sampling is nested across rates
    only between powers of two (Fact 1(b)), so a rate of 3 would double
    through 6, 12, ... and break it.  The arrival and peak-space counts
    must be non-negative ints (a negative arrival count hands out indices
    already stored), and ``track_members`` a bool.  Raises
    :class:`~repro.errors.CheckpointError` naming the first bad field; a
    missing field raises ``KeyError``, which the restore paths report as
    a malformed checkpoint.
    """
    from repro.core import serialize

    rate = state["rate_denominator"]
    if type(rate) is not int or rate < 1 or rate & (rate - 1):
        raise CheckpointError(
            f"sampler state field 'rate_denominator' must be a power of "
            f"two >= 1, got {rate!r}"
        )
    serialize.check_int_fields(state, 0, "points_seen", "peak_space_words")
    if type(state["track_members"]) is not bool:
        raise CheckpointError(
            "sampler state field 'track_members' must be a bool, got "
            f"{state['track_members']!r}"
        )


def active_indices(
    geometry: ChunkGeometry, buckets: dict, mask: int
) -> np.ndarray:
    """The positions of a chunk's *active* points, in order.

    At the chunk's starting rate ``mask + 1 = 2^k`` a point with cell
    hash ``h`` is active iff

    * its cell is sampled (``h & mask == 0``) or its ``adj(p)`` has a
      sampled cell (survival exponent at least ``k``) - together, the
      chunk's *candidates*;
    * ``h`` is a key of ``buckets`` (the store's registrations) now; or
    * ``h`` is in the ``adj(p)`` of a candidate.

    Every other point is one ``insert`` would count and ignore.  The
    rate only doubles inside a chunk and sampling is nested across
    rates (Fact 1(b)), so a cell or an ``adj(p)`` unsampled at ``2^k``
    stays unsampled: only a candidate can found a record, a founding
    registers exactly its ``adj(p)``, and a resample only removes
    registrations.  An inactive point therefore misses the bucket probe
    and is ignored at every rate the chunk reaches.

    The ``adj(p)`` product is not built when every point is sampled or
    hits a registration already (a chunk of pure duplicates); when its
    enumeration declines, every point is active.
    """
    hashes = geometry.cell_hash_array
    sampled = (hashes & np.uint64(mask)) == 0
    # Dict probes cost O(chunk); an array of the keys would cost O(store).
    registered_now = np.fromiter(
        map(buckets.__contains__, geometry.cell_hashes), bool, geometry.n
    )
    active = sampled | registered_now
    product = None if active.all() else geometry.adjacency_arrays()
    if product is None:
        return np.arange(geometry.n)
    adj, starts, exponents = product
    candidates = sampled | (exponents >= mask.bit_length())
    registered = adj[np.repeat(candidates, np.diff(starts))]
    active |= candidates | np.isin(hashes, registered)
    return np.flatnonzero(active)


class MergeInput(NamedTuple):
    """One input sampler of :func:`merge_columns`."""

    rate_denominator: int
    points_seen: int
    policy: _ThresholdPolicy
    #: Record columns: :func:`~repro.core.serialize.merge_arrays` of a
    #: live store, or the arrays of a state's packed columns.
    records: dict[str, Any]


_U64 = (1 << 64) - 1


def _sampled(hashes: np.ndarray, rate: int) -> np.ndarray:
    """Which hash values are sampled at ``1/rate`` (``h & (rate - 1) == 0``,
    exactly as the scalar test: hash values have 64 bits, so the mask's
    higher bits never matter)."""
    return hashes & np.uint64((rate - 1) & _U64) == 0


def merge_columns(
    config: SamplerConfig, inputs: Sequence[MergeInput]
) -> RobustL0SamplerIW:
    """The union of samplers sharing ``config``, from their record columns.

    The paper's merge (Algorithm 1, Line 12 applied to a union): raise
    every input to the largest input rate, visit each input's records in
    representative-index order, pool a record whose group an earlier
    record already holds (the first record registered under the
    record's cell hash within ``alpha``, counts summed), then double the
    rate while the accept set is over the threshold.  Decisions nest, so
    the final rate - at least the largest input rate - and every
    record's fate follow from the hash columns alone: they are derived
    here before any record is built, and only the survivors become
    :class:`~repro.core.base.CandidateRecord`\\ s.

    Only records with an earlier registrant under their cell hash can
    pool; a sorted ``(hash, position)`` table finds them in numpy, and
    just those reach the scalar :func:`within_distance` test, in
    registration order.  The result is the state the record-by-record
    loop gives: each survivor keeps the negative key its position among
    the unpooled records assigns (input-local arrival indices overlap
    across inputs, and non-negative keys would collide with later
    arrivals), its ``last`` is a distinct point, and the threshold
    policy is ``inputs[0]``'s.
    """
    dim = config.dim
    policy = inputs[0].policy
    merged = RobustL0SamplerIW(
        config.alpha,
        dim,
        kappa0=policy.kappa0,
        expected_stream_length=policy.expected_stream_length,
        accept_capacity=policy.fixed,
        config=config,
    )
    merged._count = sum(item.points_seen for item in inputs)
    merged._policy.observe_many(merged._count)
    rate = max(item.rate_denominator for item in inputs)

    def column(name: str) -> np.ndarray:
        return np.concatenate([item.records[name] for item in inputs])

    cell_hash = column("cell_hash")
    adj, adj_len = column("adj"), column("adj_len")
    adj_start = np.cumsum(adj_len) - adj_len
    rep_index = column("rep_i")

    # Each input in representative-index order, kept at the start rate.
    source = np.repeat(
        np.arange(len(inputs)), [item.records["n"] for item in inputs]
    )
    order = np.lexsort((rep_index, source))
    kept = _sampled(cell_hash, rate)
    adj_row = np.repeat(np.arange(len(adj_len)), adj_len)
    kept[adj_row[_sampled(adj, rate)]] = True
    rows = order[kept[order]]
    n = len(rows)

    # The kept rows' adjacency registrations, in registration order,
    # and a (hash, row) table over them.
    reg_hash, reg_row = _ragged_rows(adj, adj_start, adj_len, rows)
    by_hash = np.argsort(reg_hash, kind="stable")
    table_hash, table_row = reg_hash[by_hash], reg_row[by_hash]

    # Pooling: only a row with an earlier registrant under its own cell
    # hash can pool, into the first unpooled one within alpha.
    hashes = cell_hash[rows]
    lo = np.searchsorted(table_hash, hashes, "left")
    hi = np.searchsorted(table_hash, hashes, "right")
    pools = lo < hi
    pools[pools] = table_row[lo[pools]] < np.flatnonzero(pools)
    candidates = np.flatnonzero(pools)
    vectors = column("rep_v").reshape(-1, dim)[rows]
    counts = column("count")[rows].tolist()
    unpooled = np.ones(n, dtype=bool)
    alpha = config.alpha
    for row, first, stop in zip(
        candidates.tolist(), lo[candidates].tolist(), hi[candidates].tolist()
    ):
        vector = vectors[row].tolist()
        for earlier in table_row[first:stop].tolist():
            if earlier >= row:
                break
            if unpooled[earlier] and within_distance(
                vectors[earlier].tolist(), vector, alpha
            ):
                unpooled[row] = False
                counts[earlier] += counts[row]
                break

    # The final rate: double while the unpooled accept set is too big,
    # dropping what each doubling drops.
    threshold = merged._policy.threshold()
    alive = unpooled.copy()
    accepted = _sampled(hashes, rate)
    while np.count_nonzero(accepted & alive) > threshold:
        rate *= 2
        accepted = _sampled(hashes, rate)
        adjacent = np.zeros(n, dtype=bool)
        adjacent[reg_row[_sampled(reg_hash, rate)]] = True
        alive &= accepted | adjacent
    merged._rate_denominator = rate

    # Build the survivors only, in merge order.
    survivors = np.flatnonzero(alive)
    source_rows = rows[survivors]
    last_is_rep = column("last_is_rep").astype(bool)
    same = last_is_rep[source_rows]
    last_rows = (np.cumsum(~last_is_rep) - 1)[source_rows[~same]]
    lasts = iter(
        StreamPoint(tuple(vector), index, time)
        for vector, index, time in zip(
            column("last_v").reshape(-1, dim)[last_rows].tolist(),
            column("last_i")[last_rows].tolist(),
            column("last_t")[last_rows].tolist(),
        )
    )
    adj_flat = _ragged_rows(adj, adj_start, adj_len, source_rows)[0].tolist()
    fields = zip(
        (-np.cumsum(unpooled))[survivors].tolist(),
        vectors[survivors].tolist(),
        rep_index[source_rows].tolist(),
        column("rep_t")[source_rows].tolist(),
        column("cell").reshape(-1, dim)[source_rows].tolist(),
        cell_hash[source_rows].tolist(),
        np.cumsum(adj_len[source_rows]).tolist(),
        same.tolist(),
        accepted[survivors].tolist(),
        (counts[row] for row in survivors.tolist()),
    )
    begin = 0
    for (
        key, vector, index, time, cell, value, end, is_rep, flag, count
    ) in fields:
        vector = tuple(vector)
        merged._store.add(
            CandidateRecord(
                representative=StreamPoint(vector, key, time),
                cell=tuple(cell),
                cell_hash=value,
                adj_hashes=tuple(adj_flat[begin:end]),
                accepted=flag,
                last=(
                    StreamPoint(vector, index, time) if is_rep else next(lasts)
                ),
                count=count,
            )
        )
        begin = end
    return merged


def _ragged_rows(
    flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The values of ragged ``rows`` (``flat[starts[r]:starts[r] +
    lengths[r]]`` for each ``r`` in order), concatenated, and the
    position in ``rows`` each value came from."""
    counts = lengths[rows]
    ends = np.cumsum(counts)
    gather = np.repeat(starts[rows] - (ends - counts), counts)
    gather += np.arange(len(gather))
    return flat[gather], np.repeat(np.arange(len(rows)), counts)
