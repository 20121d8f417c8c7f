"""Differential suite: the column merge kernel against the object merge.

:func:`repro.core.infinite_window.merge_columns` derives the merged rate
from the hash columns and builds only the surviving records.  The
record-by-record loop it replaced is kept here as the oracle
(:func:`object_merge`), the way ``insert`` is the oracle for
``process_many``: it adds every record that passes the largest input
rate to a real :class:`~repro.core.base.CandidateStore`, pools a record
into the first stored one its cell-hash probe finds within ``alpha``,
and then doubles the rate through ``CandidateStore.resample``.

Both inputs of the kernel are checked - a live sampler's store
(``merge``) and shipped protocol states (``merge_input_from_state``) -
for equal ``state_fingerprint``, equal ``dumps_summary`` bytes, an
intact adjacency index and identical continuation after further
``process_many``.  The generated cases split near-duplicate groups
across shards (half of them centred on a cell corner, so a group's
representatives sit in different cells; a quarter of them twice as
wide, so a record can lie within alpha of a pooled record but not of
the record it pooled into), load the shards unevenly so their rates
differ, leave some shards empty and use small ``kappa0`` so the union
accept set forces several doublings.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import CandidateRecord, SamplerConfig
from repro.core.infinite_window import RobustL0SamplerIW, merge_columns
from repro.engine.equivalence import state_fingerprint
from repro.errors import CheckpointError
from repro.persist import dumps_summary, loads_summary
from repro.streams.point import StreamPoint

FIXTURE = pathlib.Path(__file__).parent / "data" / "v2_batch_pipeline.json"
ALPHA = 1.0


def object_merge(*samplers, pooled=None):
    """The record-by-record merge (the oracle).

    ``pooled``, when a list, collects ``(record, into)`` for every input
    record that pooled into an earlier stored record.
    """
    first = samplers[0]
    policy = first._policy
    merged = RobustL0SamplerIW(
        first.alpha,
        first.dim,
        kappa0=policy.kappa0,
        expected_stream_length=policy.expected_stream_length,
        accept_capacity=policy.fixed,
        config=first.config,
    )
    merged._rate_denominator = max(s.rate_denominator for s in samplers)
    store = merged._store
    mask = merged._rate_denominator - 1
    next_key = -1
    for sampler in samplers:
        merged._count += sampler.points_seen
        for record in sorted(
            sampler._store.records(), key=lambda r: r.representative.index
        ):
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
                existing.count += record.count
                if pooled is not None:
                    pooled.append((record, existing))
                continue
            rep = record.representative
            store.add(
                CandidateRecord(
                    representative=StreamPoint(rep.vector, next_key, rep.time),
                    cell=record.cell,
                    cell_hash=record.cell_hash,
                    adj_hashes=record.adj_hashes,
                    accepted=accepted,
                    last=record.last,
                    count=record.count,
                )
            )
            next_key -= 1
    merged._policy.observe_many(merged._count)
    while store.accepted_count > merged._policy.threshold():
        merged._rate_denominator *= 2
        store.resample(merged._rate_denominator)
    return merged


def group_points(rng, config, centre_on_corner, count, spread=0.5):
    """``count`` points around one centre, each coordinate within
    ``spread * alpha / sqrt(dim)`` of it: pairwise within alpha (one
    near-duplicate group) at the default ``spread``, and chains of
    points within alpha of a neighbour but not of each other at 1."""
    dim, grid = config.dim, config.grid
    if centre_on_corner:
        centre = [
            grid.offset[j] + grid.side * rng.randrange(-20, 20)
            for j in range(dim)
        ]
    else:
        centre = [rng.uniform(-40.0, 40.0) * dim for _ in range(dim)]
    radius = spread * ALPHA / dim**0.5
    return [
        tuple(c + rng.uniform(-radius, radius) for c in centre)
        for _ in range(count)
    ]


def build_shards(dim, shards, seed, kappa0, groups, even=False):
    """Shards of one config fed a shared group stream, unevenly unless
    ``even`` (even loads keep the shard rates close, so the union's
    accept set is largest and the merge doubles most)."""
    rng = random.Random(seed)
    config = SamplerConfig.create(ALPHA, dim, seed=seed)
    samplers = [
        RobustL0SamplerIW(ALPHA, dim, kappa0=kappa0, config=config)
        for _ in range(shards)
    ]
    weights = [1.0 if even else rng.random() ** 2 for _ in range(shards)]
    if shards > 1 and rng.random() < 0.3:
        weights[rng.randrange(shards)] = 0.0  # an empty shard
    if not any(weights):
        weights[0] = 1.0
    points = []
    for _ in range(groups):
        vectors = group_points(
            rng,
            config,
            rng.random() < 0.5,
            rng.randint(1, 8),
            1.0 if rng.random() < 0.25 else 0.5,
        )
        # Mostly on one home shard, so the shards' groups differ and the
        # union outgrows each shard; the rest split across shards.
        home = rng.choices(range(shards), weights)[0]
        points.extend(
            (
                vector,
                home
                if rng.random() < 0.7
                else rng.choices(range(shards), weights)[0],
            )
            for vector in vectors
        )
    rng.shuffle(points)
    streams = [[v for v, owner in points if owner == s] for s in range(shards)]
    for sampler, stream in zip(samplers, streams):
        # Per-point and chunked ingestion are state-equivalent; mix them.
        half = len(stream) // 2
        for vector in stream[:half]:
            sampler.insert(vector)
        sampler.process_many(stream[half:])
    return config, samplers


def shipped_merge(config, samplers):
    """The kernel over the samplers' protocol states (as shipped home)."""
    states = [json.loads(json.dumps(s.to_state())) for s in samplers]
    return merge_columns(
        config,
        [
            RobustL0SamplerIW.merge_input_from_state(state, config.dim)
            for state in states
        ],
    )


def continuation(config, seed):
    rng = random.Random(seed ^ 0xC0FFEE)
    return [
        vector
        for _ in range(12)
        for vector in group_points(rng, config, rng.random() < 0.5, 3)
    ]


def assert_same_merge(config, samplers, seed=0):
    expected = object_merge(*samplers)
    merged = [samplers[0].merge(*samplers[1:]), shipped_merge(config, samplers)]
    for result in merged:
        assert state_fingerprint(result) == state_fingerprint(expected)
        assert dumps_summary(result) == dumps_summary(expected)
        result._store.check_index_integrity()
        result._store.check_words_integrity()
    extra = continuation(config, seed)
    for result in [expected, *merged]:
        result.process_many(extra)
    for result in merged:
        assert state_fingerprint(result) == state_fingerprint(expected)
    return expected


CASES = st.tuples(
    st.integers(1, 4),  # dim
    st.integers(1, 5),  # shards
    st.integers(0, 2**31 - 1),  # seed
    st.sampled_from([0.1, 0.3, 1.0, 2.0]),  # kappa0
    st.integers(0, 80),  # groups
    st.booleans(),  # even loads
)


@given(case=CASES)
@settings(max_examples=60, deadline=None)
def test_kernel_equals_object_merge(case):
    config, samplers = build_shards(*case)
    assert_same_merge(config, samplers, case[2])


def test_generated_cases_reach_the_hard_paths():
    """The case generator reaches what the kernel must get right.

    Over a fixed set of cases: shards at different rates, empty shards,
    several doublings past the largest shard rate, groups pooled across
    shards from representatives in different cells, and a group whose
    earliest representative a later doubling drops although the record
    pooled into it would have survived (the count is lost with it).
    """
    seen = dict(
        uneven_rates=0, empty_shard=0, doublings=0, cross_cell_pool=0,
        dropped_into=0,
    )
    for seed in range(40):
        config, samplers = build_shards(
            1 + seed % 4, 3 + seed % 3, seed, [0.1, 0.3][seed % 2], 60,
            even=seed % 2 == 0,
        )
        pooled = []
        oracle = object_merge(*samplers, pooled=pooled)
        assert_same_merge(config, samplers, seed)
        rates = [s.rate_denominator for s in samplers]
        seen["uneven_rates"] += len(set(rates)) > 1
        seen["empty_shard"] += any(s.points_seen == 0 for s in samplers)
        seen["doublings"] += oracle.rate_denominator >= 4 * max(rates)
        mask = oracle.rate_denominator - 1
        for record, into in pooled:
            seen["cross_cell_pool"] += record.cell != into.cell
            survives = record.cell_hash & mask == 0 or any(
                v & mask == 0 for v in record.adj_hashes
            )
            dropped = oracle._store.get(into.representative.index) is not into
            seen["dropped_into"] += survives and dropped
    assert all(seen.values()), seen


def test_empty_and_single_inputs():
    config = SamplerConfig.create(ALPHA, 2, seed=5)
    empty = [RobustL0SamplerIW(ALPHA, 2, config=config) for _ in range(3)]
    assert_same_merge(config, empty)
    assert_same_merge(config, empty[:1])
    lone = RobustL0SamplerIW(ALPHA, 2, config=config)
    lone.process_many([(float(i), 0.0) for i in range(50)])
    assert_same_merge(config, [lone])
    assert_same_merge(config, [lone, *empty])


def test_v2_pipeline_fixture_merges_identically():
    """The committed version-2 pipeline restores into live shards whose
    merge - live and through their re-shipped states - is the oracle's."""
    pipeline = loads_summary(FIXTURE.read_bytes())
    shards = [pipeline.shard(i) for i in range(pipeline.num_shards)]
    assert any(len(s._store) for s in shards)
    assert_same_merge(pipeline.config, shards)
    assert state_fingerprint(
        loads_summary(FIXTURE.read_bytes()).merge()
    ) == state_fingerprint(object_merge(*shards))


@pytest.mark.parametrize(
    "field, value",
    [
        ("rate_denominator", 3),
        ("rate_denominator", 0),
        ("rate_denominator", "8"),
        ("rate_denominator", True),
        ("points_seen", -5),
        ("points_seen", 2.0),
        ("peak_space_words", None),
        ("track_members", "no"),
    ],
)
def test_shipped_state_with_invalid_field_fails_typed(field, value):
    """A shipped state is checked like a restored one: a rate that is not
    a power of two (its doublings would break nesting), a negative or
    non-int count or a non-bool flag raises CheckpointError naming it."""
    sampler = RobustL0SamplerIW(ALPHA, 2, seed=5)
    sampler.process_many([(float(i), 0.0) for i in range(50)])
    state = json.loads(json.dumps(sampler.to_state()))
    state[field] = value
    for restore in (
        lambda: RobustL0SamplerIW.merge_input_from_state(state, 2),
        lambda: RobustL0SamplerIW.from_state(state),
    ):
        with pytest.raises(CheckpointError, match=field):
            restore()
