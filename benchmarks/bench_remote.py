"""Remote-executor overhead benchmark: backend round-trips per chunk.

The ``remote`` executor ships every chunk through a ``StateBackend``
(encode + ``put_many`` group commit on the way out; lease heartbeat,
CAS state commit and chunk delete on the worker side), so unlike the
shared-memory ``process`` transport its cost is dominated by backend
round-trips, not IPC.  This bench measures that cost explicitly:

- serial pipeline rate (the executor-equivalence reference),
- remote pipeline rate over the in-memory backend (protocol cost with
  a free transport) and over the file backend (protocol cost plus
  fsync-disciplined durability),
- the derived **per-chunk round-trip overhead** in microseconds -
  ``(remote_elapsed - serial_elapsed) / chunks`` - which is the number
  a deployment sizes ``batch_size`` against: make chunks big enough
  that folding one dwarfs its round trip.

Every remote run is fingerprint-checked against the serial pipeline
(the executor-equivalence contract; chaos coverage lives in
``tests/test_remote_executor.py``).  There is **no floor gate**: local
worker threads share the submitter's GIL, so the bench records the
overhead trajectory instead of demanding a speedup the topology cannot
deliver.  Results merge into the ``"remote"`` section of
``BENCH_pipeline.json`` through ``bench_throughput.write_record``, the
one section-merging writer of the bench records (the rest of the
record belongs to ``bench_throughput.py``, whose runs keep this
section).
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bench_throughput import write_record  # noqa: E402
from repro.api.specs import PipelineSpec  # noqa: E402
from repro.engine import BatchPipeline, state_fingerprint  # noqa: E402


def make_stream(n: int, seed: int, groups: int = 512):
    """Grouped 2-d points: near-duplicates within alpha, many groups."""
    rng = random.Random(seed)
    return [
        (
            25.0 * rng.randrange(groups) + rng.uniform(0.0, 0.4),
            25.0 * rng.randrange(groups) + rng.uniform(0.0, 0.4),
        )
        for _ in range(n)
    ]


def _rate(n: int, elapsed: float) -> float:
    return n / elapsed if elapsed > 0 else float("inf")


def _spec(points, batch_size, seed, shards, **executor_knobs):
    return PipelineSpec(
        alpha=1.0,
        dim=len(points[0]),
        seed=seed,
        num_shards=shards,
        batch_size=batch_size,
        **executor_knobs,
    )


def _time_pipeline(spec, points, reference=None):
    """Time extend+sync with startup off the clock; return (rate, stats).

    ``sync()`` is inside the timed region on purpose: for the remote
    executor the drain *is* the transport cost coming home (polling the
    per-shard ``(consumed_seq, state)`` commits), exactly what a real
    deployment pays before it can query.
    """
    pipeline = BatchPipeline(spec=spec)
    pipeline._ensure_executor()  # worker startup outside the timed region
    try:
        gc.collect()
        start = time.perf_counter()
        pipeline.extend(points)
        pipeline.sync()
        elapsed = time.perf_counter() - start
        fingerprint = state_fingerprint(pipeline)
        if reference is not None and fingerprint != reference:
            raise AssertionError(
                "executor-equivalence violation: remote pipeline "
                f"({spec.executor}) diverged from the serial one"
            )
        stats = pipeline.executor_stats()
    finally:
        pipeline.close()
    return _rate(len(points), elapsed), elapsed, fingerprint, stats


def bench_remote(points, batch_size, seed, shards, repeats):
    """Serial vs remote (memory + file backends); best-of-N rates."""
    results: dict[str, dict] = {}
    serial_rate, serial_elapsed, reference = 0.0, float("inf"), None

    for _ in range(max(1, repeats)):
        rate, elapsed, fingerprint, _ = _time_pipeline(
            _spec(points, batch_size, seed, shards, executor="serial"), points
        )
        serial_rate = max(serial_rate, rate)
        serial_elapsed = min(serial_elapsed, elapsed)
        reference = fingerprint

    flavours: dict[str, dict] = {
        # Zero-config: private in-memory backend + one local worker
        # thread.  Pure protocol cost - the transport itself is a dict.
        "memory": dict(executor="remote", num_workers=1),
    }
    with tempfile.TemporaryDirectory(prefix="bench-remote-") as tmp:
        flavours["file"] = dict(
            executor="remote",
            num_workers=1,
            queue_backend="file",
            queue_path=tmp,
            queue_key="bench",
        )
        for name, knobs in flavours.items():
            best_rate, best_elapsed, best_stats = 0.0, float("inf"), None
            for _ in range(max(1, repeats)):
                rate, elapsed, _, stats = _time_pipeline(
                    _spec(points, batch_size, seed, shards, **knobs),
                    points,
                    reference=reference,
                )
                if rate > best_rate:
                    best_rate, best_elapsed, best_stats = rate, elapsed, stats
            chunks = max(1, best_stats.get("chunks", 0))
            round_trip_us = (best_elapsed - serial_elapsed) / chunks * 1e6
            results[name] = {
                "pts_per_sec": round(best_rate),
                "speedup": round(best_rate / serial_rate, 3),
                "chunks": best_stats.get("chunks", 0),
                "array_chunks": best_stats.get("array_chunks", 0),
                "pickle_chunks": best_stats.get("pickle_chunks", 0),
                "bytes_out": best_stats.get("bytes_out", 0),
                "flushes": best_stats.get("flushes", 0),
                "round_trip_us_per_chunk": round(round_trip_us, 1),
                "backend_ops": best_stats.get("backend_ops", {}),
            }
    return serial_rate, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=100_000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run (CI): 20k points, 1 repeat",
    )
    parser.add_argument(
        "--json-out",
        default=str(
            Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"
        ),
        help="pipeline perf record to merge the remote section into",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.points, args.repeats = min(args.points, 20_000), 1

    points = make_stream(args.points, args.seed)
    serial_rate, results = bench_remote(
        points, args.batch_size, args.seed, args.shards, args.repeats
    )

    print(
        f"pipeline executor=serial n={len(points)} "
        f"{serial_rate:11,.0f} pts/s   (reference)"
    )
    for name, result in results.items():
        print(
            f"pipeline executor=remote backend={name} n={len(points)} "
            f"{result['pts_per_sec']:11,.0f} pts/s   "
            f"speedup {result['speedup']:5.2f}x   "
            f"{result['round_trip_us_per_chunk']:8.1f} us/chunk round trip"
        )
    print("state equivalence: OK (remote == serial fingerprints)")

    remote = {
        "mode": "smoke" if args.smoke else "full",
        "points": len(points),
        "batch_size": args.batch_size,
        "num_shards": args.shards,
        "repeats": args.repeats,
        "num_workers": 1,
        "serial_pts_per_sec": round(serial_rate),
        "backends": results,
    }
    write_record(Path(args.json_out), {"remote": remote})
    return 0


if __name__ == "__main__":
    sys.exit(main())
