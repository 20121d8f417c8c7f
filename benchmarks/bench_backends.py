#!/usr/bin/env python
"""State-backend benchmark: op throughput and checkpoint overhead.

Measures the serving layer's eviction/restore unit, the checkpoint
envelope of a service-sized tenant (an ``l0-sliding`` summary, dim 2,
window 512, fed 128-point ingests of 300 near-duplicate groups):

* its size and best-of-N ``dumps_summary`` / ``loads_summary`` times;

and, per backend flavour:

* raw ``put`` / ``get`` / ``compare_and_swap`` operations per second
  with that envelope as the payload;
* the end-to-end cost of a crash-safe resumable pipeline run
  (:func:`repro.engine.resumable.run_resumable`) against the same run
  with no checkpointing, at several ``checkpoint_every`` settings - the
  number an operator actually needs to pick a checkpoint cadence.

No committed floor: the file backend's durability discipline (fsync +
rename + directory fsync per commit) has hardware-dependent cost, so
gating it would gate the runner's disk.  The run *does* assert the
correctness side effects: every resumable run must fingerprint-equal
the plain run, whatever the cadence.

Redis joins when ``REPRO_REDIS_URL`` is set and reachable; otherwise
the flavour is reported as skipped.  The results merge into the
``"backends"`` section of ``BENCH_pipeline.json`` through
``bench_throughput.write_record``.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py [--ops 2000]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

from bench_throughput import write_record
from repro.api import PipelineSpec, build
from repro.backends import FileBackend, MemoryBackend
from repro.engine import BatchPipeline, run_resumable, state_fingerprint
from repro.errors import CASConflictError
from repro.persist import dumps_summary, loads_summary


def tenant_summary(seed: int = 1, batches: int = 32):
    """A service-sized ``l0-sliding`` tenant after ``batches`` ingests."""
    rng = random.Random(seed)
    summary = build(
        "l0-sliding", alpha=1.0, dim=2, seed=2018, window_size=512
    )
    for _ in range(batches):
        batch = []
        for _ in range(128):
            group = rng.randrange(300)
            batch.append(
                (
                    25.0 * (group % 20) + rng.uniform(0.0, 0.4),
                    25.0 * (group // 20) + rng.uniform(0.0, 0.4),
                )
            )
        summary.process_many(batch)
    return summary


def bench_envelope(summary, repeats: int) -> tuple[bytes, dict[str, float]]:
    """The tenant's envelope and its best-of-``repeats`` codec times."""
    data = dumps_summary(summary)
    restored = loads_summary(data)
    assert state_fingerprint(restored) == state_fingerprint(summary), (
        "envelope round trip diverged"
    )

    def best_ms(call) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        return round(best * 1e3, 3)

    return data, {
        "envelope_bytes": len(data),
        "dumps_ms": best_ms(lambda: dumps_summary(summary)),
        "loads_ms": best_ms(lambda: loads_summary(data)),
    }


def make_backends(root: str):
    """(name, backend) pairs for every locally available flavour."""
    flavours = [
        ("memory", MemoryBackend()),
        ("file", FileBackend(os.path.join(root, "file-backend"))),
    ]
    url = os.environ.get("REPRO_REDIS_URL")
    if url:
        from repro.backends import HAVE_REDIS, RedisBackend

        if HAVE_REDIS:
            backend = RedisBackend(url, namespace="repro-bench")
            try:
                backend.ping()
            except Exception:
                print("# redis: unreachable, skipped")
            else:
                backend.clear()
                flavours.append(("redis", backend))
        else:
            print("# redis: package not installed, skipped")
    else:
        print("# redis: REPRO_REDIS_URL not set, skipped")
    return flavours


def bench_ops(backend, ops: int, payload: bytes) -> dict[str, float]:
    """puts/gets/CAS per second on one hot key plus a key spread."""
    start = time.perf_counter()
    for i in range(ops):
        backend.put(f"spread-{i % 64}", payload)
    put_rate = ops / (time.perf_counter() - start)

    start = time.perf_counter()
    for i in range(ops):
        backend.get(f"spread-{i % 64}")
    get_rate = ops / (time.perf_counter() - start)

    version = backend.put("cas-key", payload)
    start = time.perf_counter()
    for _ in range(ops):
        try:
            version = backend.compare_and_swap("cas-key", version, payload)
        except CASConflictError:  # pragma: no cover - single writer
            version = backend.get_versioned("cas-key")[1]
    cas_rate = ops / (time.perf_counter() - start)
    return {
        "put_per_s": round(put_rate),
        "get_per_s": round(get_rate),
        "cas_per_s": round(cas_rate),
    }


def bench_resumable(backend, name: str) -> dict[str, float]:
    """Checkpointed vs plain pipeline run on one seeded stream."""
    rng = random.Random(4242)
    stream = [
        (25.0 * rng.randrange(12) + rng.uniform(0, 0.4),)
        for _ in range(6000)
    ]
    spec = PipelineSpec(alpha=1.0, dim=1, seed=7, num_shards=4, batch_size=64)

    start = time.perf_counter()
    plain = BatchPipeline(spec=spec)
    plain.extend(stream)
    plain.close()
    plain_seconds = time.perf_counter() - start
    reference = state_fingerprint(plain)

    results: dict[str, float] = {"plain_s": round(plain_seconds, 4)}
    for every in (1, 8, 32):
        key = f"bench-{name}-{every}"
        backend.delete(key)
        start = time.perf_counter()
        resumed = run_resumable(
            spec, stream, backend, key, checkpoint_every=every
        )
        seconds = time.perf_counter() - start
        assert state_fingerprint(resumed) == reference, (
            f"{name}: resumable run diverged at checkpoint_every={every}"
        )
        backend.delete(key)
        results[f"every_{every}_s"] = round(seconds, 4)
        results[f"every_{every}_overhead_x"] = round(
            seconds / plain_seconds, 3
        )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ops", type=int, default=2000, help="operations per raw-op timing"
    )
    parser.add_argument(
        "--json-out",
        default=str(
            Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"
        ),
        help="pipeline perf record to merge the backends section into",
    )
    args = parser.parse_args(argv)
    payload, envelope = bench_envelope(tenant_summary(), repeats=20)
    print(f"envelope: {json.dumps(envelope)}")
    report: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as root:
        for name, backend in make_backends(root):
            row = bench_ops(backend, args.ops, payload)
            row.update(bench_resumable(backend, name))
            report[name] = row
            print(f"{name}: {json.dumps(row)}")
            if name == "redis":
                backend.clear()
            backend.close()
    section = {"ops": args.ops, "envelope": envelope, "flavours": report}
    print(json.dumps({"backends": section}, indent=2))
    write_record(Path(args.json_out), {"backends": section})
    return 0


if __name__ == "__main__":
    sys.exit(main())
