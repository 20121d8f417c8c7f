#!/usr/bin/env python
"""Throughput benchmark: batched vs per-point ingestion.

Measures points/sec of ``insert`` loops against ``process_many`` chunks
for the infinite-window sampler, the sliding-window hierarchy (on two
workloads: the cascade-dominated one - many re-founded groups feeding
Split/Merge promotions - and a steady-window one where the per-arrival
walk dominates), and the sharded
:class:`~repro.engine.pipeline.BatchPipeline` - and, on every run,
verifies the state-equivalence contract by comparing
:func:`~repro.engine.equivalence.state_fingerprint` of the batch-fed and
point-fed samplers.

Regression gates (committed floors, conservative against CI noise; the
actually measured ratios are higher - see BENCH_sliding.json for the
tracked trajectory).  The infinite-window, sliding and geometry sections
each run 5 per-point/batch pairs (3 in --smoke), alternating which side
goes first, and gate the median of the per-pair ratios; the record keeps
that median as ``speedup`` and its interquartile range as
``speedup_iqr``.  The pipeline section times serial/process pairs the
same way, per worker count:

* infinite window: batch/per-point >= 1.7x.  The floor was 3x before the
  shared-store/incremental-space PR, whose optimisations (memoised
  adjacency hashing, O(1) space accounting) accelerated the *per-point*
  baseline ~1.8x while batch throughput held, shrinking the ratio.
* sliding, cascade-dominated: >= 1.35x (both paths share the founding/
  promotion costs that dominate this workload; >= 1.5x in --smoke).
* sliding, steady-window: >= 2.2x (the batch walk advantage).
* pipeline, process executor at ONE worker: >= 1.0x *wall-clock* over
  the serial executor - the parallel-no-slower-than-serial contract of
  the zero-copy shared-memory chunk transport.  Gated in full mode on
  EVERY machine; the floor is 1.0x with >= 2 CPU cores (a 1-worker
  pipeline is two processes - submitter plus worker - and with four
  shards the submitter ingests two of them itself while the worker
  ingests the other two, so a second core runs shard work in both),
  and a strict transport-overhead bound of 0.92x on a literally 1-core
  box, where the submitter's asarray/memcpy, the worker's tuple recovery
  and the state ship all serialise onto the single core and exact
  parity is physically out of reach (measured ~0.97x; the seed
  regression this gate exists for was 0.91x at 1 worker and 0.40x at
  4).  Each worker count runs ``--pipeline-repeats`` serial/process
  pairs (3 in --smoke), each pair back to back with the first side
  alternating, and the gate reads the median per-pair ratio: a host
  that changes speed between pairs moves both sides of a pair alike.
* pipeline, process executor at 4 workers: >= 1.5x *wall-clock* over
  the serial executor on the infinite-window workload.  This is the one
  gate that needs real cores: it is enforced in full mode only when
  ``os.cpu_count()`` covers the worker count (a 1-core box would only
  measure IPC overhead), and the measured trajectory is always recorded.
* geometry (dim-3 ignore test): batch/per-point on the dim-3
  high-cardinality infinite-window workload >= 2.0x (>= 1.5x in
  --smoke), fingerprint-checked like every section.  ``insert`` has
  no chunk-wide ignore test - it enumerates ``adj(p)`` for every
  untracked point - so this ratio is what the chunk geometry and its
  vectorised survival exponents buy on the workload they exist for.
* ``--smoke`` (CI): sliding >= 1.5x on the small duplicate-heavy stream
  and dim-3 geometry >= 1.5x; the pipeline scaling section runs ungated (2 process workers, mostly
  an end-to-end executor-equivalence check).
* pipeline query latency (recorded and printed in both modes, never
  gated): the median and interquartile range of ``pipeline.query()``
  over 40 rounds (12 in --smoke), each a chunk per shard then a
  ``sync()``, on a process-executor pipeline (one worker, dim 3, 4
  shards) - the merge of the shipped shard states a query pays for.

Every timed region - per-point and batch, in every section - starts
from a collected and frozen heap (:func:`settle_heap`), so no GC pass
left over from an earlier section lands inside a ~15 ms smoke timing.

Every run merges its sections into ``BENCH_sliding.json`` (sliding
measurements), ``BENCH_pipeline.json`` (pipeline executor scaling) and
``BENCH_geometry.json`` (the dim-3 geometry section) at the repo root
through one writer (:func:`write_record`), which keeps the sections a
run does not write - ``bench_remote.py``'s ``"remote"`` among them.
The files are committed, so the cross-PR trajectory is their git
history (CI also uploads the freshly measured records as
artifacts, including on gate failures).

Not collected by pytest (``bench_`` prefix); run directly::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script
    _SRC = Path(__file__).resolve().parents[1] / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.api.specs import PipelineSpec
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.sliding_window import RobustL0SamplerSW
from repro.engine.batching import chunked
from repro.engine.equivalence import state_fingerprint
from repro.engine.pipeline import BatchPipeline
from repro.streams.windows import SequenceWindow


def make_stream(
    n: int, groups: int, dim: int, seed: int
) -> list[tuple[float, ...]]:
    """A noisy stream: ``groups`` tight clusters on a 25-spaced lattice."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        g = rng.randrange(groups)
        base = [25.0 * (g % 100), 25.0 * (g // 100)]
        point = tuple(
            (base[axis] if axis < 2 else 0.0) + rng.uniform(0.0, 0.4)
            for axis in range(dim)
        )
        points.append(point)
    return points


def _rate(n: int, elapsed: float) -> float:
    return n / elapsed if elapsed > 0 else float("inf")


def settle_heap() -> None:
    """Collect-then-freeze, off the clock: each timed region starts
    from a frozen heap, so its in-region GC work (which stays enabled -
    real deployments run with it) is proportional to its own
    allocations instead of quasi-randomly re-traversing whatever the
    harness and earlier sections happened to retain.  A single-shot
    smoke region lasts ~15 ms, so one leftover collection decides it.
    The earlier regions' frozen objects are unfrozen first, so the
    samplers of finished pairs are collected instead of piling up."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def time_ingest(sampler, points, batch_size: int | None) -> float:
    """Seconds to feed ``points`` to ``sampler``: one ``insert`` per
    point when ``batch_size`` is ``None``, else ``process_many`` chunks."""
    settle_heap()
    start = time.perf_counter()
    if batch_size is None:
        insert = sampler.insert
        for p in points:
            insert(p)
    else:
        for chunk in chunked(points, batch_size):
            sampler.process_many(chunk)
    return time.perf_counter() - start


def bench_pairs(make_sampler, points, batch_size: int, pairs: int) -> dict:
    """Per-point vs batch ingestion of ``points``, as ``pairs`` pairs.

    Each pair feeds the whole stream to two fresh samplers from
    ``make_sampler()``, one per point and one in chunks.  Even pairs
    time the per-point side first and odd pairs the batch side, so a
    host that changes speed during a run moves both sides alike.  Each
    pair's two samplers must end with equal fingerprints.  Returns the
    section's record: both sides' median rates and the median and
    interquartile range of the per-pair batch/per-point ratios.  The
    median ratio is what the floors gate: one slow timing moves one
    pair, not the verdict.
    """
    per_rates, batch_rates = [], []
    for index in range(pairs):
        per, batch = make_sampler(), make_sampler()
        if index % 2 == 0:
            per_seconds = time_ingest(per, points, None)
            batch_seconds = time_ingest(batch, points, batch_size)
        else:
            batch_seconds = time_ingest(batch, points, batch_size)
            per_seconds = time_ingest(per, points, None)
        assert state_fingerprint(per) == state_fingerprint(batch), (
            f"state-equivalence violation on {type(per).__name__}"
        )
        per_rates.append(_rate(len(points), per_seconds))
        batch_rates.append(_rate(len(points), batch_seconds))
    return {
        "pairs": pairs,
        "per_point_pts_per_sec": round(statistics.median(per_rates)),
        "batch_pts_per_sec": round(statistics.median(batch_rates)),
        **ratio_summary(per_rates, batch_rates),
    }


def ratio_summary(base_rates, rates) -> dict:
    """The median and interquartile range of the per-pair ratios
    ``rates[i] / base_rates[i]`` (``speedup`` / ``speedup_iqr``)."""
    ratios = [rate / base for base, rate in zip(base_rates, rates)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"speedup": round(median, 3), "speedup_iqr": round(q3 - q1, 3)}


def infinite_sampler(points, seed: int):
    """A factory of fresh infinite-window samplers for :func:`bench_pairs`."""
    return lambda: RobustL0SamplerIW(alpha=1.0, dim=len(points[0]), seed=seed)


def sliding_sampler(points, seed: int, window: int):
    """A factory of fresh sliding-window samplers for :func:`bench_pairs`."""
    spec = SequenceWindow(window)
    return lambda: RobustL0SamplerSW(1.0, len(points[0]), spec, seed=seed)


def make_highdim_stream(
    n: int, dim: int, seed: int
) -> list[tuple[float, ...]]:
    """High-cardinality stream: almost every point is its own group.

    This is the workload the dim > 2 batch ignore filter exists for: the
    rate halves repeatedly, so most arrivals are untracked points whose
    only question is "is any cell of adj(p) sampled?".
    """
    rng = random.Random(seed)
    return [
        tuple(rng.uniform(0.0, 3000.0) for _ in range(dim))
        for _ in range(n)
    ]


def bench_pipeline(points, batch_size: int, seed: int, shards: int):
    """Sharded batch ingestion throughput (no per-point twin)."""
    pipeline = BatchPipeline(
        PipelineSpec(
            alpha=1.0,
            dim=len(points[0]),
            num_shards=shards,
            batch_size=batch_size,
            seed=seed,
        )
    )
    start = time.perf_counter()
    pipeline.extend(points)
    elapsed = time.perf_counter() - start
    merged = pipeline.merge()
    return _rate(len(points), elapsed), merged.num_candidate_groups


def bench_pipeline_query(
    rounds: int, chunk: int, seed: int, shards: int = 4, dim: int = 3
) -> dict:
    """Query latency of a synced process-executor pipeline (one worker).

    Each round submits one ``chunk``-point chunk of the high-cardinality
    dim-3 stream per shard and calls ``sync()``, untimed; the timed
    region is the ``query()`` that follows, i.e. the merge of the
    shard states the drain shipped home plus one draw.  Returns the
    record kept under ``"query"`` in ``BENCH_pipeline.json``.
    """
    spec = PipelineSpec(
        alpha=1.0,
        dim=dim,
        seed=seed,
        num_shards=shards,
        batch_size=chunk,
        executor="process",
        num_workers=1,
    )
    points = make_highdim_stream(rounds * shards * chunk, dim, seed)
    times = []
    with BatchPipeline(spec=spec) as pipeline:
        for start in range(0, len(points), shards * chunk):
            for offset in range(start, start + shards * chunk, chunk):
                pipeline.submit(points[offset : offset + chunk])
            pipeline.sync()
            begin = time.perf_counter()
            pipeline.query(random.Random(start))
            times.append((time.perf_counter() - begin) * 1e3)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {
        "executor": "process",
        "workers": 1,
        "dim": dim,
        "num_shards": shards,
        "chunk": chunk,
        "queries": len(times),
        "median_ms": round(median, 3),
        "iqr_ms": round(q3 - q1, 3),
    }


def _transport_record(stats) -> dict | None:
    """The transport-counter block kept per worker count in
    ``BENCH_pipeline.json`` - chunk counts per payload kind, bytes
    through shared memory, the chunks the submitting process ingested
    itself (``inline_chunks``: with fewer workers than shards it owns
    shards too), and the submit-side per-chunk overhead (the number the
    zero-copy transport exists to keep small)."""
    if not stats:
        return None
    chunks = stats.get("chunks") or 0
    submit_seconds = stats.get("submit_seconds", 0.0)
    return {
        "chunks": chunks,
        "shm_chunks": stats.get("shm_chunks", 0),
        "pickle_chunks": stats.get("pickle_chunks", 0),
        "shm_bytes": stats.get("shm_bytes", 0),
        "inline_chunks": stats.get("inline_chunks", 0),
        "submit_us_per_chunk": (
            round(submit_seconds / chunks * 1e6, 1) if chunks else 0.0
        ),
    }


def write_record(path: Path, record: dict) -> None:
    """Merge ``record``'s top-level sections into the JSON file ``path``.

    The one writer of every bench record: the sections ``record`` lacks
    are kept - other scripts merge their own into the same file
    (``bench_remote.py`` writes ``"remote"`` into
    ``BENCH_pipeline.json``), and rewriting it whole would erase them.
    An unreadable existing file is replaced; a file that cannot be
    written (a read-only checkout) only prints a note, so recording
    never fails a run.
    """
    try:
        merged = json.loads(path.read_text())
    except (OSError, ValueError):
        merged = {}
    merged.update(record)
    try:
        path.write_text(json.dumps(merged, indent=2) + "\n")
    except OSError as error:
        print(f"note: could not write {path}: {error}")
        return
    print(f"perf record merged into {path}")


def bench_pipeline_scaling(
    points, batch_size: int, seed: int, shards: int, workers_list,
    pairs: int = 3,
):
    """Wall-clock pipeline scaling: serial executor vs process workers.

    Every parallel run is fingerprint-checked against the serial
    pipeline (the executor-equivalence contract), and timing includes
    the final ``sync()`` - shipping the shard states home is part of the
    wall-clock cost a real deployment pays.  Executor startup (worker
    fork, queue setup) happens *before* the clock starts, identically
    for every configuration: the bench measures steady-state ingestion,
    not one-time process launch.

    Every worker count is timed as ``pairs`` serial/process pairs, as
    :func:`bench_pairs` times per-point/batch: each pair runs its two
    sides back to back, even pairs serial first and odd pairs process
    first, so a host that changes speed between pairs moves both sides
    of a pair alike.  Rounds interleave the worker counts (one pair of
    each per round).  Immediately before each timed region the
    accumulated heap (input streams, earlier regions' leftovers) is
    collected and ``gc.freeze``-exempted from collection, off the
    clock, so in-region GC work - which stays ENABLED: real
    deployments run with it - is proportional to the region's own
    allocations instead of quasi-randomly re-traversing whatever the
    harness happened to retain.  Returns
    ``(serial_rate, process, transport_stats)``: the serial executor's
    median rate; per worker count, the process executor's median rate
    and :func:`ratio_summary` of its pairs; and per worker count, the
    executor's transport/scheduling counter snapshot
    (:meth:`repro.engine.executors.ShardExecutor.stats`) from that
    configuration's fastest run.
    """
    def spec(executor, workers=None):
        return PipelineSpec(
            alpha=1.0,
            dim=len(points[0]),
            seed=seed,
            num_shards=shards,
            batch_size=batch_size,
            executor=executor,
            num_workers=workers,
        )

    reference = None
    transport_stats: dict[int, dict] = {}
    fastest: dict[int, float] = {}

    def time_serial():
        nonlocal reference
        serial = BatchPipeline(spec=spec("serial"))
        serial._ensure_executor()  # startup outside the timed region
        settle_heap()
        start = time.perf_counter()
        serial.extend(points)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = state_fingerprint(serial)
        return _rate(len(points), elapsed)

    def time_process(workers):
        pipeline = BatchPipeline(spec=spec("process", workers))
        pipeline._ensure_executor()  # fork/attach outside, like serial
        try:
            settle_heap()
            start = time.perf_counter()
            pipeline.extend(points)
            pipeline.sync()
            elapsed = time.perf_counter() - start
            assert state_fingerprint(pipeline) == reference, (
                "executor-equivalence violation: process pipeline "
                f"({workers} workers) diverged from the serial one"
            )
            stats = pipeline.executor_stats()
        finally:
            pipeline.close()
        rate = _rate(len(points), elapsed)
        if rate > fastest.get(workers, 0.0):
            fastest[workers] = rate
            transport_stats[workers] = stats
        return rate

    # Pair 0 runs serial first: the reference fingerprint exists before
    # any process run is checked against it.
    serial_rates: dict[int, list[float]] = {w: [] for w in workers_list}
    process_rates: dict[int, list[float]] = {w: [] for w in workers_list}
    try:
        for index in range(pairs):
            for workers in workers_list:
                if index % 2 == 0:
                    serial_rates[workers].append(time_serial())
                    process_rates[workers].append(time_process(workers))
                else:
                    process_rates[workers].append(time_process(workers))
                    serial_rates[workers].append(time_serial())
    finally:
        gc.unfreeze()
        gc.collect()
    process = {
        workers: {
            "pts_per_sec": statistics.median(process_rates[workers]),
            **ratio_summary(serial_rates[workers], process_rates[workers]),
        }
        for workers in workers_list
    }
    serial_rate = statistics.median(
        rate for rates in serial_rates.values() for rate in rates
    )
    return serial_rate, process, transport_stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=100_000)
    parser.add_argument("--groups", type=int, default=2000)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--window", type=int, default=2000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a few thousand points: the full batch path, the equivalence "
        "checks and the conservative sliding floor - the CI mode",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.7,
        help="fail unless batch/per-point >= this on the infinite-window "
        "sampler (ignored with --smoke)",
    )
    parser.add_argument(
        "--min-sliding-speedup", type=float, default=1.35,
        help="committed floor for the cascade-dominated sliding workload "
        "(ignored with --smoke; raised from 1.15 when the array-backed "
        "candidate/heap hot path landed - measured 1.57x)",
    )
    parser.add_argument(
        "--min-sliding-steady-speedup", type=float, default=2.2,
        help="committed floor for the steady-window sliding workload "
        "(ignored with --smoke; measured 2.49x)",
    )
    parser.add_argument(
        "--min-sliding-smoke-speedup", type=float, default=1.5,
        help="committed floor for the sliding ratio in --smoke mode "
        "(raised from 1.3 with the array-backed hot path - measured "
        "2.2x; kept conservative against CI-runner noise)",
    )
    parser.add_argument(
        "--min-geometry-speedup", type=float, default=2.0,
        help="committed floor for the batch/per-point ratio on the "
        "dim-3 high-cardinality infinite-window workload (the chunk "
        "geometry's ignore test, which insert() does not have); gated "
        "in full mode (measured 2.6-3.2x)",
    )
    parser.add_argument(
        "--min-geometry-smoke-speedup", type=float, default=1.5,
        help="committed floor for the dim-3 batch/per-point ratio in "
        "--smoke mode (smaller stream, conservative against CI noise)",
    )
    parser.add_argument(
        "--geometry-json-out",
        default=str(
            Path(__file__).resolve().parents[1] / "BENCH_geometry.json"
        ),
        help="where to write the geometry-kernel perf record",
    )
    parser.add_argument(
        "--min-pipeline-speedup", type=float, default=1.5,
        help="committed wall-clock floor for the process-executor "
        "pipeline at --pipeline-workers workers vs the serial executor "
        "(gated in full mode on machines with enough cores; always "
        "recorded in BENCH_pipeline.json)",
    )
    parser.add_argument(
        "--pipeline-workers", type=int, default=4,
        help="process worker count the pipeline floor is gated at",
    )
    parser.add_argument(
        "--min-pipeline-1worker-speedup", type=float, default=1.0,
        help="committed wall-clock floor for the process executor at ONE "
        "worker vs the serial executor - the parallel-no-slower-than-"
        "serial contract of the shared-memory transport; gated in full "
        "mode on every machine with >= 2 CPU cores (no 4-core "
        "requirement; see --min-pipeline-1worker-1core-speedup)",
    )
    parser.add_argument(
        "--min-pipeline-1worker-1core-speedup", type=float, default=0.92,
        help="committed floor for the 1-worker process executor on a "
        "literally 1-core machine, where the submitter and the worker "
        "serialise onto one core and the transport's residual cost "
        "(tuple recovery, state ship) cannot overlap anything; still "
        "gated in full mode - it bounds transport overhead at 8%%",
    )
    parser.add_argument(
        "--pipeline-repeats", type=int, default=5,
        help="serial/process pairs per worker count in full mode (the "
        "gates read the median per-pair ratio; --smoke runs 3 pairs)",
    )
    parser.add_argument(
        "--pipeline-points", type=int, default=250_000,
        help="stream length for the pipeline scaling section in full "
        "mode (used when larger than --points).  The executor gates "
        "measure steady-state transport overhead; the per-sync fixed "
        "cost - shipping the shard states home once - amortises with "
        "stream length, so the scaling section uses a longer stream "
        "than the batch sections to keep the parity gate from mostly "
        "measuring the one-time sync edge",
    )
    parser.add_argument(
        "--json-out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_sliding.json"),
        help="where to write the sliding perf-trajectory record",
    )
    parser.add_argument(
        "--pipeline-json-out",
        default=str(
            Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"
        ),
        help="where to write the pipeline-scaling perf record",
    )
    args = parser.parse_args(argv)

    n = 4000 if args.smoke else args.points
    groups = min(args.groups, max(8, n // 50))
    points = make_stream(n, groups, args.dim, args.seed)
    failures: list[str] = []
    record: dict = {
        "mode": "smoke" if args.smoke else "full",
        "points": n,
        "batch_size": args.batch_size,
        "workloads": {},
    }

    def gate(name: str, speedup: float, floor: float | None) -> None:
        if floor is not None and speedup < floor:
            failures.append(
                f"{name} speedup {speedup:.2f}x is below the "
                f"committed floor {floor:.2f}x"
            )

    pairs = 3 if args.smoke else 5

    def section(name: str, n_points: int, result: dict) -> None:
        print(
            f"{name:<24} n={n_points}  per-point "
            f"{result['per_point_pts_per_sec']:12,.0f} pts/s   batch "
            f"{result['batch_pts_per_sec']:12,.0f} pts/s   speedup "
            f"{result['speedup']:5.2f}x  IQR {result['speedup_iqr']:.2f}x "
            f"({result['pairs']} pairs)"
        )
        gate(name, result["speedup"], floors[name])

    floors = {
        "infinite-window": None if args.smoke else args.min_speedup,
        "sliding (cascade-heavy)": args.min_sliding_smoke_speedup
        if args.smoke
        else args.min_sliding_speedup,
        "sliding (steady window)": args.min_sliding_steady_speedup,
        "geometry (dim-3 filter)": args.min_geometry_smoke_speedup
        if args.smoke
        else args.min_geometry_speedup,
    }

    infinite = bench_pairs(
        infinite_sampler(points, args.seed), points, args.batch_size, pairs
    )
    section("infinite-window", n, infinite)
    record["workloads"]["infinite_window"] = {"groups": groups, **infinite}

    # Sliding workload 1: cascade-dominated (the ROADMAP's named hot
    # path) - groups ~ window, so most arrivals re-found expired groups
    # and feed Split/Merge promotions.  Both paths share those costs.
    cascade = bench_pairs(
        sliding_sampler(points, args.seed, args.window),
        points, args.batch_size, pairs,
    )
    section("sliding (cascade-heavy)", n, cascade)
    record["workloads"]["cascade_dominated"] = {
        "groups": groups, "window": args.window, **cascade,
    }
    if not args.smoke:
        # Sliding workload 2: steady window - few groups re-found, the
        # per-arrival walk dominates and the batch inlining pays off.
        steady_groups = max(8, n // 1000)
        steady_points = make_stream(n, steady_groups, args.dim, args.seed)
        steady = bench_pairs(
            sliding_sampler(steady_points, args.seed, args.window),
            steady_points, args.batch_size, pairs,
        )
        section("sliding (steady window)", n, steady)
        record["workloads"]["steady_window"] = {
            "groups": steady_groups, "window": args.window, **steady,
        }

    # Geometry section: batch/per-point on the dim-3 high-cardinality
    # stream.  The batch path's chunk geometry answers most arrivals
    # with its vectorised ignore test; insert() enumerates adj(p) for
    # each of them.
    highdim_n = 4000 if args.smoke else min(n, 60_000)
    highdim_points = make_highdim_stream(highdim_n, 3, args.seed)
    highdim = bench_pairs(
        infinite_sampler(highdim_points, args.seed),
        highdim_points, args.batch_size, pairs,
    )
    section("geometry (dim-3 filter)", highdim_n, highdim)
    geometry_record: dict = {
        "mode": record["mode"],
        "batch_size": args.batch_size,
        "workloads": {
            "highdim_filter": {"dim": 3, "points": highdim_n, **highdim},
        },
    }

    pipe_rate, merged_groups = bench_pipeline(
        points, args.batch_size, args.seed, args.shards
    )
    print(
        f"batch pipeline           n={n}  {args.shards} shards "
        f"{pipe_rate:12,.0f} pts/s   merged groups {merged_groups}"
    )

    # Pipeline scaling: the serial executor vs process shard workers on
    # the infinite-window workload - the first wall-clock (not just
    # per-core) comparison.  Parallel runs are fingerprint-checked
    # against the serial pipeline inside bench_pipeline_scaling.
    cpu_count = os.cpu_count() or 1
    gate_workers = min(args.pipeline_workers, args.shards)
    if args.smoke:
        workers_list = [min(2, args.shards)]
    else:
        workers_list = sorted(
            {w for w in (1, 2, gate_workers) if w <= args.shards}
        )
    pipeline_pairs = pairs if args.smoke else max(2, args.pipeline_repeats)
    scaling_n = n if args.smoke else max(n, args.pipeline_points)
    scaling_points = (
        points
        if scaling_n == n
        else make_stream(scaling_n, groups, args.dim, args.seed)
    )
    serial_rate, process, transport_stats = bench_pipeline_scaling(
        scaling_points, args.batch_size, args.seed, args.shards,
        workers_list, pairs=pipeline_pairs,
    )
    print(
        f"pipeline executor=serial n={scaling_n}  {args.shards} shards "
        f"{serial_rate:12,.0f} pts/s   (baseline)"
    )
    for workers, result in process.items():
        stats = transport_stats.get(workers) or {}
        chunks = stats.get("chunks") or 0
        overhead_us = (
            stats.get("submit_seconds", 0.0) / chunks * 1e6 if chunks else 0.0
        )
        print(
            f"pipeline executor=process n={scaling_n} {workers} workers "
            f"{result['pts_per_sec']:11,.0f} pts/s   speedup "
            f"{result['speedup']:5.2f}x  IQR {result['speedup_iqr']:.2f}x "
            f"({pipeline_pairs} pairs)   "
            f"{overhead_us:6.1f} us/chunk submit-side"
        )
    pipeline_record = {
        "mode": record["mode"],
        "workload": "infinite-window",
        "points": scaling_n,
        "batch_size": args.batch_size,
        "num_shards": args.shards,
        "cpu_count": cpu_count,
        "pairs": pipeline_pairs,
        "serial_pts_per_sec": round(serial_rate),
        "process": {
            str(workers): {
                **result,
                "pts_per_sec": round(result["pts_per_sec"]),
                "transport": _transport_record(transport_stats.get(workers)),
            }
            for workers, result in process.items()
        },
    }
    if not args.smoke and 1 in process:
        # The parallel-no-slower-than-serial contract: gated on every
        # machine.  A 1-worker pipeline is TWO processes (submitter +
        # worker), and with more shards than workers the submitter
        # ingests a share of them itself; with a second core both run
        # shard work and the floor is full parity, while on a
        # literally 1-core box every transport cost serialises onto
        # the one core and the gate bounds the residual overhead
        # instead of demanding physically impossible exact parity.
        if cpu_count >= 2:
            floor_1w = args.min_pipeline_1worker_speedup
        else:
            floor_1w = args.min_pipeline_1worker_1core_speedup
            print(
                "note: 1-worker pipeline floor relaxed to "
                f"{floor_1w:.2f}x: only 1 CPU core available, so the "
                "submitter cannot overlap the worker (gate still "
                "bounds transport overhead)"
            )
        gate(
            "pipeline (process, 1 worker)",
            process[1]["speedup"],
            floor_1w,
        )
    if not args.smoke and gate_workers in process:
        pipeline_speedup = process[gate_workers]["speedup"]
        if cpu_count >= gate_workers:
            gate(
                f"pipeline (process, {gate_workers} workers)",
                pipeline_speedup,
                args.min_pipeline_speedup,
            )
        else:
            # A 1-core box cannot run 4 workers in parallel; gating
            # there would only measure IPC overhead.  The record keeps
            # the measured trajectory (cpu_count says how to read it).
            print(
                f"note: pipeline floor ({args.min_pipeline_speedup:.2f}x "
                f"at {gate_workers} workers) not gated: only "
                f"{cpu_count} CPU core(s) available"
            )

    query_record = bench_pipeline_query(
        12 if args.smoke else 40,
        512 if args.smoke else args.batch_size,
        args.seed,
    )
    pipeline_record["query"] = query_record
    print(
        f"pipeline query (process, 1 worker, dim 3, "
        f"{query_record['num_shards']} shards) "
        f"{query_record['queries']} queries  median "
        f"{query_record['median_ms']:.2f} ms   IQR "
        f"{query_record['iqr_ms']:.2f} ms   (ungated)"
    )

    print("state equivalence: OK (batch == per-point fingerprints)")
    write_record(Path(args.json_out), record)
    write_record(Path(args.pipeline_json_out), pipeline_record)
    write_record(Path(args.geometry_json_out), geometry_record)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
