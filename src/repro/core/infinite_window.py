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
from typing import Any, Iterable, Sequence

from repro.core.base import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_KAPPA0,
    CandidateRecord,
    CandidateStore,
    SamplerConfig,
    StreamSampler,
    _CELL_MEMO_LIMIT,
    _SMALL_DIM,
    _ThresholdPolicy,
    coerce_point,
    chunked,
)
from repro.core.chunk_geometry import (
    ChunkGeometry,
    compute_chunk_geometry,
    materialize_chunk,
)
from repro.errors import EmptySampleError, ParameterError
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
        # Batch-path ignore filter: cell -> lower corners of the cells of
        # its conservative neighbourhood sampled at the memoised mask.  A
        # pure cache (decisions are re-derived by the exact path); it is
        # rebuilt whenever the rate changes.
        self._sampled_nearby: dict = {}
        self._sampled_nearby_mask = -1

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
        p = coerce_point(point, self._count)
        if p.dim != self._config.dim:
            raise ParameterError(
                f"point has dimension {p.dim}, sampler expects {self._config.dim}"
            )
        self._count += 1
        self._policy.observe()

        config = self._config
        ctx = config.point_context(p.vector)
        existing = self._store.find_nearby(p.vector, ctx.cell_hash)
        if existing is not None:
            # Line 4: p is not the first point of its candidate group.
            existing.count += 1
            self._store.relink_last(existing, p)
            if self._track_members and (
                self._member_rng.random() < 1.0 / existing.count
            ):
                existing.member = p
            return

        adj_hashes = config.adj_hashes(p.vector, cell=ctx.cell)
        mask = self._rate_denominator - 1
        if ctx.cell_hash & mask == 0:
            accepted = True
        elif any(value & mask == 0 for value in adj_hashes):
            accepted = False
        else:
            return  # the group is ignored at the current rate

        record = CandidateRecord(
            representative=p,
            cell=ctx.cell,
            cell_hash=ctx.cell_hash,
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

        The chunk's geometry - cells, memo-aware cell hashes, the
        high-dimensional ignore probe, adjacency hash tuples - is
        computed once per chunk through the vectorised kernel layer
        (:class:`~repro.core.chunk_geometry.ChunkGeometry`; ``geometry``
        accepts one precomputed by the pipeline), so the per-point loop
        reduces to the sequential state machine: the bucket probe, the
        distance test and the rate bookkeeping.  New candidate groups
        run the same code the per-point path runs (adjacency hashing,
        rate halving, peak tracking); chunks too small to vectorise (and
        points whose coordinates the int64 kernels cannot carry) take
        the inlined scalar branch, which is the pre-kernel hot path.
        See :class:`~repro.core.base.StreamSampler` for the equivalence
        contract this method honours.
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
        store = self._store
        buckets_get = store._buckets.get
        find_overflow = store.find_overflow
        alpha_sq = config.alpha * config.alpha
        # Inclusive threshold with 1-ulp headroom: boundary points must
        # reach the exact path, never be dropped by the filter.
        alpha_eps = alpha_sq * (1.0 + 1e-9)
        track = self._track_members
        member_random = self._member_rng.random
        policy = self._policy
        count = self._count

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

        processed = 0
        pending = 0  # arrivals not yet flushed into the threshold policy
        mask = self._rate_denominator - 1
        if self._sampled_nearby_mask != mask:
            self._sampled_nearby = {}
            self._sampled_nearby_mask = mask
        nearby_memo = self._sampled_nearby
        nearby_get = nearby_memo.get
        conservative_neighborhood = config.conservative_neighborhood
        # The conservative-neighbourhood ignore filter pays off only
        # where the neighbourhood is small (<= 25 cells at dim <= 2, the
        # paper's Section 2 setting) - it is exponential in dim.  High
        # dimensions use the vectorised sampled-cell probe instead: a
        # per-chunk conservative verdict whose False entries certainly
        # have no sampled cell in adj(p) beyond their own (verdicts stay
        # valid across mid-chunk rate doublings because sampling
        # decisions nest).  Without chunk geometry (tiny chunks, scalar
        # mode) high dimensions go straight to the exact path, exactly
        # as insert() does.
        use_ignore_filter = dim <= _SMALL_DIM
        ignorable = None
        if geom_n and not use_ignore_filter:
            ignorable = geom.high_dim_ignorable(mask)
        # Low-dimensional twin: the exact vectorised adj(p) probe
        # (fetched lazily on the first untracked point, so chunks of
        # pure duplicates never pay for it).  Unlike the conservative
        # corner filter it is exact in both directions: True entries
        # are certainly ignored, False entries certainly found or join
        # a sampled neighbourhood and skip the corner test entirely.
        low_ignorable = None
        low_probe_ok = bool(geom_n) and use_ignore_filter
        if dim == 1:
            off0 = offset[0]
            off1 = 0.0
        elif dim == 2:
            off0, off1 = offset
        else:
            off0 = off1 = 0.0
        try:
            for i in range(len(pts)):
                p = pts[i]
                vector = vectors[i]
                count += 1
                processed += 1
                pending += 1

                if i < geom_n:
                    # Cell tuples are built lazily (cell_at) - only the
                    # ignore filter and candidate foundings need them.
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
                                store._slot_words[existing.slot] += dim + 2
                        elif existing.last is not existing.representative:
                            store._base_words -= dim + 2
                            store._slot_words[existing.slot] -= dim + 2
                        existing.last = p
                        if track and member_random() < 1.0 / existing.count:
                            existing.member = p
                        continue

                # Untracked group.  Ignore filter: unless the point's own
                # cell is sampled, it can only become tracked by lying
                # within alpha of a sampled cell - and the sampled cells
                # of its conservative neighbourhood are few and memoised.
                # The exact path below stays authoritative for the rest.
                if use_ignore_filter and cell_hash & mask != 0:
                    if low_probe_ok and i < geom_n:
                        if low_ignorable is None:
                            low_ignorable = geom.low_dim_ignorable(mask)
                            low_probe_ok = low_ignorable is not None
                        if low_probe_ok:
                            if low_ignorable[i]:
                                # Exact verdict: no sampled cell in
                                # adj(p), and cell(p) is unsampled -
                                # insert() would ignore the point.
                                continue
                            # A sampled adjacency cell certainly
                            # exists: skip the corner filter, the
                            # founding path below decides.
                            low_verdict = True
                        else:
                            low_verdict = False
                    else:
                        low_verdict = False
                    if not low_verdict:
                        if cell is None:
                            cell = cell_at(i)
                        corners = nearby_get(cell)
                        if corners is None:
                            corners = tuple(
                                corner
                                for corner, value in (
                                    conservative_neighborhood(cell)
                                )
                                if value & mask == 0
                            )
                            if len(nearby_memo) >= _CELL_MEMO_LIMIT:
                                nearby_memo.clear()
                            nearby_memo[cell] = corners
                        for corner in corners:
                            acc = 0.0
                            for x, low in zip(vector, corner):
                                if x < low:
                                    diff = low - x
                                else:
                                    diff = x - low - side
                                    if diff <= 0.0:
                                        continue
                                acc += diff * diff
                                if acc > alpha_eps:
                                    break
                            else:
                                break  # near a sampled cell: exact path
                        else:
                            continue  # certainly ignored at current rate
                elif (
                    ignorable is not None
                    and i < geom_n
                    and cell_hash & mask != 0
                    and ignorable[i]
                ):
                    # High-dimensional ignore filter: the sampled-cell
                    # probe proved no sampled cell exists in adj(p)
                    # beyond cell(p), and cell(p) is unsampled - insert()
                    # would ignore the point at the current rate.
                    continue

                # First point of a candidate group: same code as insert().
                if i < geom_n:
                    if cell is None:
                        cell = cell_at(i)
                    adj_hashes = geom.adj_hashes(i)
                else:
                    adj_hashes = config.adj_hashes(vector, cell=cell)
                if cell_hash & mask == 0:
                    accepted = True
                elif any(value & mask == 0 for value in adj_hashes):
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
                    member=p if track else None,
                )
                store.add(record)

                policy.observe_many(pending)
                pending = 0
                while store.accepted_count > policy.threshold():
                    self._rate_denominator *= 2
                    store.resample(self._rate_denominator)
                    mask = self._rate_denominator - 1
                    nearby_memo.clear()
                    self._sampled_nearby_mask = mask

                self._count = count
                words = self.space_words()
                if words > self._peak_words:
                    self._peak_words = words
        finally:
            self._count = count
            policy.observe_many(pending)
        if error is not None:
            raise error
        return processed

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

    def rejected_representatives(self) -> list[StreamPoint]:
        """The representatives of all rejected groups."""
        return [r.representative for r in self._store.rejected_records()]

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
        :mod:`repro.distributed.coordinator`): every input is first raised
        to the maximum rate - decisions nest, so resampling only drops or
        demotes records - then groups observed by several inputs are
        deduplicated by proximity, keeping the earliest representative and
        pooling the counts.  Representatives are re-keyed injectively
        (input-local arrival indices overlap across inputs).

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

        target_rate = max(s.rate_denominator for s in samplers)
        policy = self._policy
        merged = RobustL0SamplerIW(
            self._config.alpha,
            self._config.dim,
            kappa0=policy.kappa0,
            expected_stream_length=policy.expected_stream_length,
            accept_capacity=policy.fixed,
            config=self._config,
        )
        merged._rate_denominator = target_rate
        store = merged._store
        mask = target_rate - 1
        total_seen = 0
        # Re-keyed representatives get fresh negative indices: input-local
        # arrival indices overlap across inputs (so they cannot be kept),
        # and non-negative keys would eventually collide with the arrival
        # indices of points inserted into the merged sampler later.
        next_key = -1
        for sampler in samplers:
            total_seen += sampler.points_seen
            sampler_records = sorted(
                sampler._store.records(),
                key=lambda r: r.representative.index,
            )
            for record in sampler_records:
                if record.cell_hash & mask == 0:
                    accepted = True
                elif any(v & mask == 0 for v in record.adj_hashes):
                    accepted = False
                else:
                    continue
                existing = store.find_nearby(
                    record.representative.vector, record.cell_hash
                )
                if existing is not None:
                    # Same group seen by several inputs: keep the earlier
                    # representative, pool the counts.
                    existing.count += record.count
                    continue
                rep = record.representative
                global_rep = StreamPoint(rep.vector, next_key, rep.time)
                next_key -= 1
                store.add(
                    CandidateRecord(
                        representative=global_rep,
                        cell=record.cell,
                        cell_hash=record.cell_hash,
                        adj_hashes=record.adj_hashes,
                        accepted=accepted,
                        last=record.last,
                        count=record.count,
                    )
                )
        merged._count = total_seen
        merged._policy.observe_many(total_seen)
        while store.accepted_count > merged._policy.threshold():
            merged._rate_denominator *= 2
            store.resample(merged._rate_denominator)
        return merged

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
            "records": [
                serialize.record_to_state(record)
                for record in self._store.records()
            ],
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
        for record_state in state["records"]:
            sampler._store.add(serialize.record_from_state(record_state))
        return sampler
