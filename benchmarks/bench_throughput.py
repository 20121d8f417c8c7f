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
tracked trajectory):

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
  pipeline is two processes - submitter plus worker - and with a
  second core the transport work overlaps worker compute), and a
  strict transport-overhead bound of 0.92x on a literally 1-core box,
  where the submitter's asarray/memcpy, the worker's tuple recovery
  and the state ship all serialise onto the single core and exact
  parity is physically out of reach (measured ~0.97x; the seed
  regression this gate exists for was 0.91x at 1 worker and 0.40x at
  4).  Pipeline configurations are timed over ``--pipeline-repeats``
  interleaved rounds with the best rate winning, which is what makes
  the ratio stable on shared/1-core boxes.
* pipeline, process executor at 4 workers: >= 1.5x *wall-clock* over
  the serial executor on the infinite-window workload.  This is the one
  gate that needs real cores: it is enforced in full mode only when
  ``os.cpu_count()`` covers the worker count (a 1-core box would only
  measure IPC overhead), and the measured trajectory is always recorded.
* geometry kernels: vectorised vs scalar chunk geometry on the dim-3
  high-cardinality workload >= 1.3x (>= 1.2x in --smoke).  Both runs
  take the batched path; the toggle isolates the kernel layer, and for
  dim > 2 the scalar mode also has no batch ignore filter (the
  pre-kernel behaviour), so this gate covers the un-gated filter too.
  The dup-heavy dim-2 and sliding-cascade geometry ratios are recorded
  ungated (memoisation already made the scalar dim-2 path near-optimal).
* ``--smoke`` (CI): sliding >= 1.3x on the small duplicate-heavy stream;
  the pipeline scaling section runs ungated (2 process workers, mostly
  an end-to-end executor-equivalence check).

Every run overwrites ``BENCH_sliding.json`` (sliding measurements),
``BENCH_pipeline.json`` (pipeline executor scaling) and
``BENCH_geometry.json`` (geometry kernels) at the repo root; the files
are committed, so the cross-PR trajectory is their git history (CI also
uploads the freshly measured records as artifacts, including on gate
failures).

Not collected by pytest (``bench_`` prefix); run directly::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script
    _SRC = Path(__file__).resolve().parents[1] / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.sliding_window import RobustL0SamplerSW
from repro.engine.batching import chunked, set_vectorized_geometry
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


def bench_infinite(points, batch_size: int, seed: int):
    """Per-point vs batch on the infinite-window sampler."""
    per = RobustL0SamplerIW(alpha=1.0, dim=len(points[0]), seed=seed)
    start = time.perf_counter()
    insert = per.insert
    for p in points:
        insert(p)
    per_elapsed = time.perf_counter() - start

    bat = RobustL0SamplerIW(alpha=1.0, dim=len(points[0]), seed=seed)
    start = time.perf_counter()
    for chunk in chunked(points, batch_size):
        bat.process_many(chunk)
    bat_elapsed = time.perf_counter() - start

    assert state_fingerprint(per) == state_fingerprint(bat), (
        "state-equivalence violation on the infinite-window sampler"
    )
    return _rate(len(points), per_elapsed), _rate(len(points), bat_elapsed)


def bench_sliding(points, batch_size: int, seed: int, window: int):
    """Per-point vs batch on the sliding-window hierarchy."""
    spec = SequenceWindow(window)
    dim = len(points[0])
    per = RobustL0SamplerSW(1.0, dim, spec, seed=seed)
    start = time.perf_counter()
    insert = per.insert
    for p in points:
        insert(p)
    per_elapsed = time.perf_counter() - start

    bat = RobustL0SamplerSW(1.0, dim, spec, seed=seed)
    start = time.perf_counter()
    for chunk in chunked(points, batch_size):
        bat.process_many(chunk)
    bat_elapsed = time.perf_counter() - start

    assert state_fingerprint(per) == state_fingerprint(bat), (
        "state-equivalence violation on the sliding-window sampler"
    )
    return _rate(len(points), per_elapsed), _rate(len(points), bat_elapsed)


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


def bench_geometry(points, dim: int, batch_size: int, seed: int, sliding=None):
    """Scalar vs vectorised chunk geometry on one batched workload.

    Both runs take the *batched* path; the only difference is the
    :func:`repro.engine.batching.set_vectorized_geometry` toggle, so the
    ratio isolates what the geometry kernel layer buys (for dim > 2 the
    scalar mode also has no batch ignore filter - the pre-kernel
    behaviour, where the conservative neighbourhood was exponential and
    gated off).  Fingerprints of both runs are compared, which makes the
    benchmark double as an end-to-end kernel-equivalence check.
    """

    def build():
        if sliding is not None:
            return RobustL0SamplerSW(
                1.0, dim, SequenceWindow(sliding), seed=seed
            )
        return RobustL0SamplerIW(alpha=1.0, dim=dim, seed=seed)

    rates = {}
    fingerprints = {}
    for vectorised in (False, True):
        previous = set_vectorized_geometry(vectorised)
        try:
            sampler = build()
            start = time.perf_counter()
            for chunk in chunked(points, batch_size):
                sampler.process_many(chunk)
            elapsed = time.perf_counter() - start
        finally:
            set_vectorized_geometry(previous)
        rates[vectorised] = _rate(len(points), elapsed)
        fingerprints[vectorised] = state_fingerprint(sampler)
    assert fingerprints[True] == fingerprints[False], (
        "state-equivalence violation between scalar and vectorised "
        "chunk geometry"
    )
    return rates[False], rates[True]


def bench_pipeline(points, batch_size: int, seed: int, shards: int):
    """Sharded batch ingestion throughput (no per-point twin)."""
    pipeline = BatchPipeline(
        1.0,
        len(points[0]),
        num_shards=shards,
        batch_size=batch_size,
        seed=seed,
    )
    start = time.perf_counter()
    pipeline.extend(points)
    elapsed = time.perf_counter() - start
    merged = pipeline.merge()
    return _rate(len(points), elapsed), merged.num_candidate_groups


def _transport_record(stats) -> dict | None:
    """The transport-counter block kept per worker count in
    ``BENCH_pipeline.json`` - chunk counts per transport kind, bytes
    through shared memory, shard migrations, and the submit-side
    per-chunk overhead (the number the zero-copy transport exists to
    keep small)."""
    if not stats:
        return None
    chunks = stats.get("chunks") or 0
    submit_seconds = stats.get("submit_seconds", 0.0)
    return {
        "kind": stats.get("transport"),
        "chunks": chunks,
        "shm_chunks": stats.get("shm_chunks", 0),
        "array_chunks": stats.get("array_chunks", 0),
        "pickle_chunks": stats.get("pickle_chunks", 0),
        "shm_bytes": stats.get("shm_bytes", 0),
        "migrations": stats.get("migrations", 0),
        "submit_us_per_chunk": (
            round(submit_seconds / chunks * 1e6, 1) if chunks else 0.0
        ),
    }


def bench_pipeline_scaling(
    points, batch_size: int, seed: int, shards: int, workers_list,
    repeats: int = 1,
):
    """Wall-clock pipeline scaling: serial executor vs process workers.

    Every parallel run is fingerprint-checked against the serial
    pipeline (the executor-equivalence contract), and timing includes
    the final ``sync()`` - shipping the shard states home is part of the
    wall-clock cost a real deployment pays.  Executor startup (worker
    fork, queue setup) happens *before* the clock starts, identically
    for every configuration: the bench measures steady-state ingestion,
    not one-time process launch.

    With ``repeats`` > 1 every configuration is timed that many times,
    rounds interleaved (every configuration once per round, order
    alternating between rounds so in-round clock drift cannot
    systematically favour one side) and the best rate per configuration
    wins - the minimum-of-N estimator a shared or 1-core box needs for
    a stable speedup ratio.  Immediately before each timed region the
    accumulated heap (input streams, earlier regions' leftovers) is
    collected and ``gc.freeze``-exempted from collection, off the
    clock, so in-region GC work - which stays ENABLED: real
    deployments run with it - is proportional to the region's own
    allocations instead of quasi-randomly re-traversing whatever the
    harness happened to retain.  Returns
    ``(serial_rate, process_rates, transport_stats)`` where
    ``transport_stats[workers]`` is the executor's transport/scheduling
    counter snapshot (:meth:`repro.engine.executors.ShardExecutor.stats`)
    from that configuration's fastest run.
    """
    from repro.api.specs import PipelineSpec

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

    serial_rate = 0.0
    reference = None
    process_rates: dict[int, float] = {}
    transport_stats: dict[int, dict] = {}
    import gc

    def settle_heap():
        """Collect-then-freeze, off the clock: each timed region starts
        from a frozen heap, so its in-region GC work (which stays
        enabled - real deployments run with it) is proportional to its
        own allocations instead of quasi-randomly re-traversing
        whatever the harness and earlier rounds happened to retain."""
        gc.collect()
        gc.freeze()

    def time_serial():
        nonlocal serial_rate, reference
        serial = BatchPipeline(spec=spec("serial"))
        serial._ensure_executor()  # startup outside the timed region
        settle_heap()
        start = time.perf_counter()
        serial.extend(points)
        elapsed = time.perf_counter() - start
        serial_rate = max(serial_rate, _rate(len(points), elapsed))
        if reference is None:
            reference = state_fingerprint(serial)

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
        if rate > process_rates.get(workers, 0.0):
            process_rates[workers] = rate
            transport_stats[workers] = stats

    try:
        for round_index in range(max(1, repeats)):
            # Alternate the in-round order: clock-frequency drift
            # (thermal throttling, turbo decay) is roughly monotone
            # within a round, so a fixed serial-first order would
            # systematically favour one side of the speedup ratio.
            if round_index % 2 == 0:
                time_serial()
                for workers in workers_list:
                    time_process(workers)
            else:
                for workers in workers_list:
                    time_process(workers)
                time_serial()
    finally:
        gc.unfreeze()
        gc.collect()
    return serial_rate, process_rates, transport_stats


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
        "--min-geometry-speedup", type=float, default=1.3,
        help="committed floor for the vectorised-vs-scalar chunk "
        "geometry ratio on the dim-3 high-cardinality workload (the "
        "batch ignore filter the kernels un-gated); gated in full mode",
    )
    parser.add_argument(
        "--min-geometry-smoke-speedup", type=float, default=1.2,
        help="committed floor for the dim-3 geometry ratio in --smoke "
        "mode (smaller stream, conservative against CI noise)",
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
        help="interleaved timing rounds per pipeline configuration in "
        "full mode (best rate wins; --smoke always runs one round)",
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

    per_iw, bat_iw = bench_infinite(points, args.batch_size, args.seed)
    speedup_iw = bat_iw / per_iw
    print(
        f"infinite-window          n={n}  per-point {per_iw:12,.0f} pts/s   "
        f"batch {bat_iw:12,.0f} pts/s   speedup {speedup_iw:5.2f}x"
    )
    if not args.smoke:
        gate("infinite-window", speedup_iw, args.min_speedup)

    # Sliding workload 1: cascade-dominated (the ROADMAP's named hot
    # path) - groups ~ window, so most arrivals re-found expired groups
    # and feed Split/Merge promotions.  Both paths share those costs.
    per_sw, bat_sw = bench_sliding(
        points, args.batch_size, args.seed, args.window
    )
    speedup_sw = bat_sw / per_sw
    print(
        f"sliding (cascade-heavy)  n={n}  per-point {per_sw:12,.0f} pts/s   "
        f"batch {bat_sw:12,.0f} pts/s   speedup {speedup_sw:5.2f}x"
    )
    record["workloads"]["cascade_dominated"] = {
        "groups": groups,
        "window": args.window,
        "per_point_pts_per_sec": round(per_sw),
        "batch_pts_per_sec": round(bat_sw),
        "speedup": round(speedup_sw, 3),
    }
    if args.smoke:
        gate("sliding (smoke)", speedup_sw, args.min_sliding_smoke_speedup)
    else:
        gate("sliding (cascade-heavy)", speedup_sw, args.min_sliding_speedup)

        # Sliding workload 2: steady window - few groups re-found, the
        # per-arrival walk dominates and the batch inlining pays off.
        steady_groups = max(8, n // 1000)
        steady_points = make_stream(n, steady_groups, args.dim, args.seed)
        per_st, bat_st = bench_sliding(
            steady_points, args.batch_size, args.seed, args.window
        )
        speedup_st = bat_st / per_st
        print(
            f"sliding (steady window)  n={n}  per-point {per_st:12,.0f} pts/s   "
            f"batch {bat_st:12,.0f} pts/s   speedup {speedup_st:5.2f}x"
        )
        record["workloads"]["steady_window"] = {
            "groups": steady_groups,
            "window": args.window,
            "per_point_pts_per_sec": round(per_st),
            "batch_pts_per_sec": round(bat_st),
            "speedup": round(speedup_st, 3),
        }
        gate(
            "sliding (steady window)",
            speedup_st,
            args.min_sliding_steady_speedup,
        )

    # Geometry-kernel section: scalar vs vectorised chunk geometry, both
    # on the batched path (fingerprint-checked inside bench_geometry).
    geometry_record: dict = {
        "mode": record["mode"],
        "points": n,
        "batch_size": args.batch_size,
        "workloads": {},
    }
    highdim_n = 4000 if args.smoke else min(n, 60_000)
    highdim_points = make_highdim_stream(highdim_n, 3, args.seed)
    scal_hd, vect_hd = bench_geometry(
        highdim_points, 3, args.batch_size, args.seed
    )
    speedup_hd = vect_hd / scal_hd
    print(
        f"geometry (dim-3 filter)  n={highdim_n}  scalar "
        f"{scal_hd:11,.0f} pts/s   vectorised {vect_hd:11,.0f} pts/s   "
        f"speedup {speedup_hd:5.2f}x"
    )
    geometry_record["workloads"]["highdim_filter"] = {
        "dim": 3,
        "points": highdim_n,
        "scalar_pts_per_sec": round(scal_hd),
        "vectorised_pts_per_sec": round(vect_hd),
        "speedup": round(speedup_hd, 3),
    }
    gate(
        "geometry (dim-3 filter)",
        speedup_hd,
        args.min_geometry_smoke_speedup
        if args.smoke
        else args.min_geometry_speedup,
    )

    scal_g2, vect_g2 = bench_geometry(points, args.dim, args.batch_size, args.seed)
    print(
        f"geometry (IW dup-heavy)  n={n}  scalar "
        f"{scal_g2:11,.0f} pts/s   vectorised {vect_g2:11,.0f} pts/s   "
        f"speedup {vect_g2 / scal_g2:5.2f}x"
    )
    geometry_record["workloads"]["iw_duplicate_heavy"] = {
        "dim": args.dim,
        "points": n,
        "scalar_pts_per_sec": round(scal_g2),
        "vectorised_pts_per_sec": round(vect_g2),
        "speedup": round(vect_g2 / scal_g2, 3),
    }

    if not args.smoke:
        scal_sw, vect_sw = bench_geometry(
            points, args.dim, args.batch_size, args.seed, sliding=args.window
        )
        print(
            f"geometry (SW cascade)    n={n}  scalar "
            f"{scal_sw:11,.0f} pts/s   vectorised {vect_sw:11,.0f} pts/s   "
            f"speedup {vect_sw / scal_sw:5.2f}x"
        )
        geometry_record["workloads"]["sliding_cascade"] = {
            "dim": args.dim,
            "window": args.window,
            "points": n,
            "scalar_pts_per_sec": round(scal_sw),
            "vectorised_pts_per_sec": round(vect_sw),
            "speedup": round(vect_sw / scal_sw, 3),
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
    pipeline_repeats = 1 if args.smoke else max(1, args.pipeline_repeats)
    scaling_n = n if args.smoke else max(n, args.pipeline_points)
    scaling_points = (
        points
        if scaling_n == n
        else make_stream(scaling_n, groups, args.dim, args.seed)
    )
    serial_rate, process_rates, transport_stats = bench_pipeline_scaling(
        scaling_points, args.batch_size, args.seed, args.shards,
        workers_list, repeats=pipeline_repeats,
    )
    print(
        f"pipeline executor=serial n={scaling_n}  {args.shards} shards "
        f"{serial_rate:12,.0f} pts/s   (baseline)"
    )
    for workers, rate in process_rates.items():
        stats = transport_stats.get(workers) or {}
        chunks = stats.get("chunks") or 0
        overhead_us = (
            stats.get("submit_seconds", 0.0) / chunks * 1e6 if chunks else 0.0
        )
        print(
            f"pipeline executor=process n={scaling_n} {workers} workers "
            f"{rate:11,.0f} pts/s   speedup {rate / serial_rate:5.2f}x   "
            f"transport {stats.get('transport', '?')} "
            f"{overhead_us:6.1f} us/chunk submit-side"
        )
    pipeline_record = {
        "mode": record["mode"],
        "workload": "infinite-window",
        "points": scaling_n,
        "batch_size": args.batch_size,
        "num_shards": args.shards,
        "cpu_count": cpu_count,
        "repeats": pipeline_repeats,
        "serial_pts_per_sec": round(serial_rate),
        "process": {
            str(workers): {
                "pts_per_sec": round(rate),
                "speedup": round(rate / serial_rate, 3),
                "transport": _transport_record(transport_stats.get(workers)),
            }
            for workers, rate in process_rates.items()
        },
    }
    if not args.smoke and 1 in process_rates:
        # The parallel-no-slower-than-serial contract: gated on every
        # machine.  A 1-worker pipeline is TWO processes (submitter +
        # worker); with a second core the transport work overlaps
        # worker compute and the floor is full parity, while on a
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
            process_rates[1] / serial_rate,
            floor_1w,
        )
    if not args.smoke and gate_workers in process_rates:
        pipeline_speedup = process_rates[gate_workers] / serial_rate
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

    print("state equivalence: OK (batch == per-point fingerprints)")
    try:
        Path(args.json_out).write_text(json.dumps(record, indent=2) + "\n")
        print(f"sliding perf record written to {args.json_out}")
    except OSError as error:  # read-only checkouts shouldn't fail the run
        print(f"note: could not write {args.json_out}: {error}")
    try:
        Path(args.pipeline_json_out).write_text(
            json.dumps(pipeline_record, indent=2) + "\n"
        )
        print(f"pipeline perf record written to {args.pipeline_json_out}")
    except OSError as error:  # read-only checkouts shouldn't fail the run
        print(f"note: could not write {args.pipeline_json_out}: {error}")
    try:
        Path(args.geometry_json_out).write_text(
            json.dumps(geometry_record, indent=2) + "\n"
        )
        print(f"geometry perf record written to {args.geometry_json_out}")
    except OSError as error:  # read-only checkouts shouldn't fail the run
        print(f"note: could not write {args.geometry_json_out}: {error}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
