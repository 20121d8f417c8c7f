"""repro - robust distinct sampling on streams with near-duplicates.

A from-scratch reproduction of Chen & Zhang, "Distinct Sampling on
Streaming Data with Near-Duplicates" (PODS 2018): streaming l0-sampling
and F0 estimation that treat all near-duplicate points (within distance
``alpha``) as one element, for infinite and sliding windows.

The unified API
---------------
Every summary - samplers, estimators, heavy hitters, baselines - is
described by a typed spec and constructed through one registry
(:mod:`repro.api`), and implements one protocol
(:class:`repro.api.Summary`): ``process_many`` (batched ingestion),
``query``, ``merge`` (where exact merging exists) and
``to_state``/``from_state`` (the universal checkpoint protocol of
:mod:`repro.persist`).

>>> import random
>>> from repro.api import L0InfiniteSpec, build
>>> spec = L0InfiniteSpec(alpha=0.5, dim=2, seed=42)
>>> sampler = build("l0-infinite", spec)       # or spec.build()
>>> sampler.process_many([(0.0, 0.0), (0.1, 0.1), (9.0, 9.0)])
3
>>> sampler.query(rng=random.Random(7)).dim
2

The direct constructors remain available (``RobustL0SamplerIW(...)``
etc.); the registry builds exactly those classes.  ``repro.api.available()``
lists every registered summary key, and ``repro.persist.dump_summary`` /
``load_summary`` checkpoint and restore any of them through a versioned
envelope.

Scale
-----
Ingestion is batched everywhere (``process_many`` hot paths that are
state-equivalent to per-point insertion), and the sliding-window
hierarchy runs on a shared-store design: ONE candidate store and ONE
lazy eviction heap across all levels, records tagged with their level,
space served from incrementally-maintained counters.
:class:`repro.engine.BatchPipeline` shards any stream over
spec-constructed shard samplers and runs them on a pluggable executor
(``serial``, ``process``, or backend-leased ``remote`` workers - see
:mod:`repro.engine.executors`); finished shard states stream into the
coordinator's running union merge as workers deliver them.  Executor
choice, batching and checkpoint/resume are all invisible in summary
state (``repro.engine.state_fingerprint`` is the oracle).

See ``docs/ARCHITECTURE.md`` for the layer map and the invariants,
``docs/ADDING_A_SUMMARY.md`` for the extension recipe, ``examples/``
for end-to-end scenarios, ``README.md`` for the registry table, and
``benchmarks/`` for the reproduction of the paper's evaluation figures.
"""

from repro import api
from repro.api import Summary, build
from repro.core.base import DEFAULT_BATCH_SIZE, StreamSampler
from repro.core.f0_infinite import RobustF0EstimatorIW
from repro.core.f0_sliding import RobustF0EstimatorSW
from repro.core.fixed_rate import FixedRateSlidingSampler
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.ksample import KDistinctSampler
from repro.core.sliding_window import RobustL0SamplerSW
from repro.engine.batching import chunked
from repro.engine.equivalence import state_fingerprint
from repro.engine.pipeline import BatchPipeline
from repro.errors import (
    CheckpointError,
    EmptySampleError,
    ExecutorError,
    LevelOverflowError,
    MergeUnsupportedError,
    ParameterError,
    ReproError,
)
from repro.streams.point import StreamPoint, as_stream
from repro.streams.windows import InfiniteWindow, SequenceWindow, TimeWindow

__version__ = "1.1.0"

__all__ = [
    "api",
    "build",
    "Summary",
    "RobustL0SamplerIW",
    "RobustL0SamplerSW",
    "FixedRateSlidingSampler",
    "KDistinctSampler",
    "StreamSampler",
    "BatchPipeline",
    "DEFAULT_BATCH_SIZE",
    "chunked",
    "state_fingerprint",
    "RobustF0EstimatorIW",
    "RobustF0EstimatorSW",
    "StreamPoint",
    "as_stream",
    "InfiniteWindow",
    "SequenceWindow",
    "TimeWindow",
    "ReproError",
    "ParameterError",
    "EmptySampleError",
    "LevelOverflowError",
    "MergeUnsupportedError",
    "CheckpointError",
    "ExecutorError",
    "__version__",
]
