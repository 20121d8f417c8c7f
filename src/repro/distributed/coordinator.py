"""Coordinator/shard protocol for distributed robust sampling.

Deployment model: ``k`` independent stream shards (e.g. per-datacenter
feeds of the same logical event stream) each run Algorithm 1's
:class:`~repro.core.infinite_window.RobustL0SamplerIW`; a coordinator
periodically pulls their compact states and merges them into a single
sampler over the union stream.

Consistency argument: all shards share one ``SamplerConfig`` (same grid
offset, same sampling hash), so a group's accept/reject status at rate
``1/R`` is the same everywhere - it depends only on the representative's
cell.  The merge is the Summary protocol's
(:meth:`repro.core.infinite_window.RobustL0SamplerIW.merge`), run by
:func:`~repro.core.infinite_window.merge_columns` on the shards' record
columns: raise every shard to the maximum rate (decisions nest),
deduplicate groups observed by several shards by proximity, keep the
earliest representative and pool the counts, then double the rate while
the accept set is too big.  The final rate is derived from the hash
columns before any record is built, so only the surviving records are;
it is at least the largest shard rate, so a merged accept set is empty
more often than a single sampler's.

A shard whose current state arrived as a protocol state (shipped home
by a parallel executor, see :meth:`DistributedRobustSampler.park_shard`)
stays *parked* as that state: the merge reads its columns directly, and
the shard object is rebuilt only when something reads it
(:meth:`~DistributedRobustSampler.shard`, checkpoints, ingestion).

Shards are **spec-constructed**: the coordinator holds one
:class:`~repro.api.specs.L0InfiniteSpec` describing every shard, derives
the shared config from it once, and builds each shard through the
registry's ``l0-infinite`` factory with that config; a shard is a plain
``RobustL0SamplerIW`` whose identity is its index.  The whole
coordinator checkpoints through the same protocol (:meth:`to_state` /
:meth:`from_state`), shards mid-stream included, and every shard
restore is ``RobustL0SamplerIW.from_state(state, config=config)``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.base import SamplerConfig
from repro.core.infinite_window import RobustL0SamplerIW, merge_columns
from repro.errors import CheckpointError, EmptySampleError, ParameterError
from repro.streams.point import StreamPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.api.specs import L0InfiniteSpec
    from repro.core.chunk_geometry import ChunkGeometry


class DistributedRobustSampler:
    """Coordinator over ``num_shards`` robust shard samplers.

    Parameters
    ----------
    spec:
        A :class:`~repro.api.specs.L0InfiniteSpec` describing every
        shard; the shared config (grid + hash) is derived from it once.
        ``track_members=True`` is rejected: every coordinator query is
        a merge, and member reservoirs cannot be merged.
    num_shards:
        Number of shard samplers to create.

    Examples
    --------
    >>> from repro.api.specs import L0InfiniteSpec
    >>> spec = L0InfiniteSpec(alpha=0.5, dim=1, seed=3)
    >>> coordinator = DistributedRobustSampler(spec, num_shards=2)
    >>> coordinator.shard(0).insert((0.0,))
    >>> coordinator.shard(1).insert((0.1,))   # same group, other shard
    >>> coordinator.shard(1).insert((9.0,))
    >>> merged = coordinator.merged_sampler()
    >>> merged.num_candidate_groups
    2
    """

    def __init__(self, spec: "L0InfiniteSpec", num_shards: int) -> None:
        from repro.api.registry import build

        if num_shards < 1:
            raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
        if spec.track_members:
            raise ParameterError(
                "track_members=True is not supported by the coordinator: "
                "its queries merge the shards, and member reservoirs "
                "cannot be merged"
            )
        self._spec = spec
        self._config = SamplerConfig.create(
            spec.alpha,
            spec.dim,
            seed=spec.seed,
            grid_side=spec.grid_side,
            kwise=spec.kwise,
        )
        self._shards = [
            build("l0-infinite", spec, config=self._config)
            for _ in range(num_shards)
        ]
        # Parked shards: index -> the shard's current protocol state,
        # which supersedes self._shards[index] (see park_shard).
        self._parked: dict[int, dict[str, Any]] = {}

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def config(self) -> SamplerConfig:
        """The shared grid/hash configuration."""
        return self._config

    @property
    def spec(self) -> "L0InfiniteSpec":
        """The spec every shard was constructed from."""
        return self._spec

    def shard(self, index: int) -> RobustL0SamplerIW:
        """Access one shard's sampler (rebuilding a parked shard first)."""
        state = self._parked.get(index)
        if state is not None:
            self.restore_shard(index, state)
        return self._shards[index]

    def route(self, point: StreamPoint | Sequence[float], shard: int) -> None:
        """Deliver a point to a shard (convenience for simulations)."""
        self.shard(shard).insert(point)

    def route_many(
        self,
        points: "ChunkGeometry | Iterable[StreamPoint | Sequence[float]]",
        shard: int,
    ) -> int:
        """Deliver a batch to a shard through its batched ingestion path.

        ``points`` may be a validated
        :class:`~repro.core.chunk_geometry.ChunkGeometry` (valid for
        every shard - they share one config), which the shard ingests
        without validating it again.
        """
        return self.shard(shard).process_many(points)

    def restore_shard(self, index: int, state: dict[str, Any]) -> None:
        """Replace one shard with a restore of ``state`` (protocol state).

        Used by the parallel shard executors: worker processes ingest
        into shard *replicas* and ship their protocol states back; this
        folds one returned state into the coordinator, re-sharing the
        coordinator's config object.  The round-trip is
        ``state_fingerprint``-exact, so a pipeline that ran on process
        workers is indistinguishable from one that ran serially.
        """
        self._shards[index] = RobustL0SamplerIW.from_state(
            state, config=self._config
        )
        self._parked.pop(index, None)

    def park_shard(self, index: int, state: dict[str, Any]) -> None:
        """Record that shard ``index``'s current protocol state is ``state``.

        The deferred form of :meth:`restore_shard`, for the states a
        parallel executor's drain ships home: :meth:`merged_sampler`
        reads the state's record columns without rebuilding the shard,
        and the first read that needs the shard *object* restores it.
        """
        self._parked[index] = state

    def scatter(
        self,
        points: Iterable[StreamPoint | Sequence[float]],
        *,
        rng: random.Random | None = None,
    ) -> None:
        """Distribute points across shards uniformly at random."""
        rng = rng if rng is not None else random.Random()
        for point in points:
            self.route(point, rng.randrange(len(self._shards)))

    # ------------------------------------------------------------------ #
    # merge protocol
    # ------------------------------------------------------------------ #

    def merged_sampler(self) -> RobustL0SamplerIW:
        """Merge all shard states into one sampler over the union stream.

        The Summary protocol's merge
        (:func:`~repro.core.infinite_window.merge_columns`) over each
        shard's record columns, read from whichever form the shard is
        in: a live shard's store, or a parked shard's state (checked as
        a checkpoint is, so a corrupt one raises
        :class:`~repro.errors.CheckpointError`) - no shard is rebuilt.
        The merged rate is derived before any record is built and is at
        least the largest shard rate.  Communication cost is the shards'
        sketch sizes (O(k log m) words total), not the stream size.
        """
        inputs = []
        for index, shard in enumerate(self._shards):
            state = self._parked.get(index)
            inputs.append(
                shard.merge_input()
                if state is None
                else RobustL0SamplerIW.merge_input_from_state(
                    state, self._config.dim
                )
            )
        return merge_columns(self._config, inputs)

    def sample(self, rng: random.Random | None = None) -> StreamPoint:
        """One-shot distributed query: merge then sample."""
        merged = self.merged_sampler()
        if merged.accept_size == 0:
            raise EmptySampleError("no shard holds an accepted group")
        return merged.sample(rng)

    def estimate_f0(self) -> float:
        """Distributed robust F0: merge then apply the Section 5 estimate."""
        return self.merged_sampler().estimate_f0()

    def communication_words(self) -> int:
        """Total words shipped to the coordinator in one merge."""
        return sum(
            self.shard(index).space_words() for index in range(self.num_shards)
        )

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #

    def to_state(self) -> dict[str, Any]:
        """Serialise spec, shared config and every shard (mid-stream OK)."""
        from repro.core import serialize

        return {
            "spec": self._spec.to_state(),
            "config": serialize.config_to_state(self._config),
            "shards": [
                self.shard(index).to_state() for index in range(self.num_shards)
            ],
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "DistributedRobustSampler":
        """Restore a coordinator; all shards re-share one config object.

        The spec must describe every restored shard: a spec field a
        shard carries (its threshold policy, member tracking) that
        disagrees with the shard raises
        :class:`~repro.errors.CheckpointError` naming the field and the
        shard, and ``track_members=True`` is rejected as the constructor
        rejects it.
        """
        from repro.api.registry import spec_from_state
        from repro.core import serialize

        coordinator = cls.__new__(cls)
        spec = coordinator._spec = spec_from_state(state["spec"])
        coordinator._config = serialize.config_from_state(state["config"])
        coordinator._shards = [
            RobustL0SamplerIW.from_state(
                shard_state, config=coordinator._config
            )
            for shard_state in state["shards"]
        ]
        for index, shard in enumerate(coordinator._shards):
            policy = shard._policy
            for field, value in (
                ("kappa0", policy.kappa0),
                ("expected_stream_length", policy.expected_stream_length),
                ("accept_capacity", policy.fixed),
                ("track_members", shard._track_members),
            ):
                if getattr(spec, field) != value:
                    raise CheckpointError(
                        f"coordinator spec field {field!r} is "
                        f"{getattr(spec, field)!r}, but shard {index} "
                        f"was built with {value!r}"
                    )
        if spec.track_members:
            raise CheckpointError(
                "coordinator spec field 'track_members' is True: member "
                "reservoirs cannot be merged"
            )
        coordinator._parked = {}
        return coordinator
