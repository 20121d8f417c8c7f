"""Canonical state fingerprints for the batch/per-point equivalence contract.

The batched ingestion engine promises that ``process_many(batch)`` leaves a
sampler in a state identical to inserting the batch point by point (see
:class:`repro.core.base.StreamSampler`).  "State" here means every quantity
that can influence future decisions or queries:

* all candidate records (representative, cell, hashes, accept flag, last
  point, counts, reservoir members),
* rates, arrival counters, threshold-policy observations, peak space,
* the member-tracking RNG states (so future random draws coincide too).

The sliding samplers' lazy eviction heaps are left out: they are derived
from the records (one entry per record, keyed at or below its last
point's expiry key), a live heap holds lazily stale keys and the entries
of removed records that a restored heap does not, and no arrangement of
entries changes which records a sweep evicts.  The test suite checks the
heap against the records instead.

:func:`state_fingerprint` maps a sampler to a hashable tree of plain
Python values capturing exactly that; two samplers with equal fingerprints
are behaviourally indistinguishable on any future input.  The differential
suite (``tests/test_engine.py``) asserts fingerprint equality between
batch and per-point ingestion for every sampler and window flavour.
"""

from __future__ import annotations

from typing import Any

from repro.core.base import CandidateRecord, CandidateStore, _ThresholdPolicy
from repro.core.f0_infinite import RobustF0EstimatorIW
from repro.core.f0_sliding import RobustF0EstimatorSW
from repro.core.fixed_rate import FixedRateSlidingSampler
from repro.core.heavy_hitters import RobustHeavyHitters
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.ksample import KDistinctSampler
from repro.core.reservoir import ReservoirMember, WindowReservoir
from repro.core.sliding_window import RobustL0SamplerSW
from repro.distributed.coordinator import DistributedRobustSampler
from repro.engine.pipeline import BatchPipeline
from repro.errors import ParameterError
from repro.streams.point import StreamPoint


def _point(point: StreamPoint | None) -> tuple | None:
    if point is None:
        return None
    return (point.vector, point.index, point.time)


def _record(record: CandidateRecord) -> tuple:
    return (
        _point(record.representative),
        record.cell,
        record.cell_hash,
        record.adj_hashes,
        record.accepted,
        _point(record.last),
        record.count,
        _point(record.member),
        record.level,
    )


def _store(store: CandidateStore) -> tuple:
    records = tuple(
        _record(record)
        for record in sorted(
            store.records(), key=lambda r: r.representative.index
        )
    )
    # The incremental space counters are part of the contract: a batch
    # path that drifts from the per-point accounting (or a resume that
    # fails to rebuild it) is a fingerprint mismatch, not just a wrong
    # space report.
    return (
        records,
        store.accepted_count,
        store.space_words(track_members=False),
        store.space_words(track_members=True),
    )


def _policy(policy: _ThresholdPolicy) -> tuple:
    return (
        policy.kappa0,
        policy.expected_stream_length,
        policy.minimum,
        policy.fixed,
        policy.seen,
    )


def _window_reservoir(reservoir: WindowReservoir) -> tuple:
    return tuple(
        (priority, _point(point)) for priority, point in reservoir._entries
    )


def _member_reservoir(reservoir: ReservoirMember) -> tuple:
    return (reservoir.count, _point(reservoir._member))


def _infinite(sampler: RobustL0SamplerIW) -> tuple:
    return (
        "RobustL0SamplerIW",
        sampler.rate_denominator,
        sampler.points_seen,
        _policy(sampler._policy),
        sampler._track_members,
        sampler.peak_space_words,
        _store(sampler._store),
        sampler._member_rng.getstate() if sampler._track_members else None,
    )


def _fixed_rate(sampler: FixedRateSlidingSampler) -> tuple:
    reservoirs = tuple(
        (key, _window_reservoir(sampler._reservoirs[key]))
        for key in sorted(sampler._reservoirs)
    )
    return (
        "FixedRateSlidingSampler",
        sampler.rate_denominator,
        sampler._track_members,
        _store(sampler._store),
        reservoirs,
        sampler._member_rng.getstate() if sampler._track_members else None,
    )


def _sliding(sampler: RobustL0SamplerSW) -> tuple:
    return (
        "RobustL0SamplerSW",
        sampler.points_seen,
        _policy(sampler._policy),
        _point(sampler._latest),
        sampler.peak_space_words,
        _store(sampler._store),
        tuple(sampler._level_accepted),
        tuple(sampler._level_words),
    )


def state_fingerprint(sampler: Any) -> tuple:
    """A hashable tree capturing a sampler's decision-relevant state.

    Two samplers with equal fingerprints behave identically on every
    future insertion and query.  Supports every sampler of the library
    (a distributed shard is a plain infinite-window sampler) plus the
    standalone reservoirs.
    """
    if isinstance(sampler, RobustL0SamplerIW):
        return _infinite(sampler)
    if isinstance(sampler, FixedRateSlidingSampler):
        return _fixed_rate(sampler)
    if isinstance(sampler, RobustL0SamplerSW):
        return _sliding(sampler)
    if isinstance(sampler, KDistinctSampler):
        return (
            "KDistinctSampler",
            sampler.k,
            sampler.replacement,
            tuple(state_fingerprint(s) for s in sampler._samplers),
        )
    if isinstance(sampler, RobustF0EstimatorIW):
        return (
            "RobustF0EstimatorIW",
            tuple(state_fingerprint(c) for c in sampler._copies),
        )
    if isinstance(sampler, RobustF0EstimatorSW):
        return (
            "RobustF0EstimatorSW",
            tuple(state_fingerprint(c) for c in sampler._copies),
        )
    if isinstance(sampler, RobustHeavyHitters):
        counters = tuple(
            (
                key,
                _point(counter.representative),
                counter.cell_hash,
                counter.adj_hashes,
                counter.count,
                counter.error,
            )
            for key, counter in sorted(sampler._counters.items())
        )
        return ("RobustHeavyHitters", sampler.points_seen, counters)
    if isinstance(sampler, WindowReservoir):
        return ("WindowReservoir", _window_reservoir(sampler))
    if isinstance(sampler, ReservoirMember):
        return ("ReservoirMember", _member_reservoir(sampler))
    if isinstance(sampler, BatchPipeline):
        return (
            "BatchPipeline",
            sampler.batch_size,
            sampler._next_shard,
            sampler.points_seen,
            state_fingerprint(sampler.coordinator),
        )
    if isinstance(sampler, DistributedRobustSampler):
        return (
            "DistributedRobustSampler",
            tuple(
                state_fingerprint(sampler.shard(i))
                for i in range(sampler.num_shards)
            ),
        )
    # Any other Summary-protocol implementor (the noiseless baselines):
    # its to_state() is by contract a complete capture of its
    # decision-relevant state, so the frozen state tree is a fingerprint.
    key = getattr(type(sampler), "summary_key", None)
    to_state = getattr(sampler, "to_state", None)
    if key is not None and to_state is not None:
        return (key, _freeze(to_state()))
    raise ParameterError(
        f"no fingerprint defined for {type(sampler).__name__}"
    )


def _freeze(value: Any) -> Any:
    """Recursively convert a JSON state tree into a hashable value."""
    if isinstance(value, dict):
        return tuple(
            (key, _freeze(value[key])) for key in sorted(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value
