"""End-to-end benchmark of the repro library: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sliding-cascade --seed 1 \
        --seconds 12 --trace 0

Workloads (see each ``pb_*.py`` module for why it was chosen):

* ``sliding-cascade``  - one process; the sliding-window core's
  Split/Merge cascade and candidate store (``pb_sliding``).
* ``highdim-pipeline`` - ``BatchPipeline`` on one process worker, dim 3,
  numpy chunks, 4 shards (``pb_pipeline``).
* ``service-churn``    - the ASGI service in-process, zipf tenants
  beyond capacity, so requests keep evicting and restoring tenants
  (``pb_service``).

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` measures half the time untraced and half traced,
and reports the per-layer metrics (self times from spans recorded
around calls into each layer, counts, and the tracing overhead).

Single-process times are on the host-normalised clock of ``pb_clock``;
the raw wall figures are printed beside them as ``wall.*``.  Every run
checks its workload's outputs, counts failed operations, writes its
result (and, traced, its spans) under ``perfbench/results/``, and
prints one JSON object as its last line.  It exits 1 when a check
fails or an operation failed, and 2 when the library is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Per-layer metrics: name -> (unit, better).  Each workload reports
#: the layers it exercises; a layer it bypasses reads 0.
LAYER_METRICS = {
    "engine.batching.geometry_ms": ("ms", "lower"),
    "core.sliding_window.process_many_ms": ("ms", "lower"),
    "core.sliding_window.query_ms": ("ms", "lower"),
    "core.sliding_window.num_levels": ("count", "lower"),
    "core.sliding_window.peak_space_words": ("words", "lower"),
    "core.sliding_window.small_batch_ms": ("ms", "lower"),
    "persist.dumps_ms": ("ms", "lower"),
    "persist.loads_ms": ("ms", "lower"),
    "persist.envelope_bytes": ("bytes", "lower"),
    "engine.pipeline.submit_ms": ("ms", "lower"),
    "engine.pipeline.sync_ms": ("ms", "lower"),
    "engine.executors.spawn_s": ("s", "lower"),
    "engine.executors.shm_chunks": ("count", "higher"),
    "engine.executors.pickle_chunks": ("count", "lower"),
    "engine.executors.migrations": ("count", "lower"),
    "engine.executors.submit_us_per_chunk": ("us", "lower"),
    "distributed.coordinator.merge_ms": ("ms", "lower"),
    "serial.ingest_pts_per_s": ("pts/s", "higher"),
    "core.infinite_window.process_many_ms": ("ms", "lower"),
    "service.app.self_ms": ("ms", "lower"),
    "service.tenants.restores_per_kreq": ("1/kreq", "lower"),
    "service.tenants.evictions_per_kreq": ("1/kreq", "lower"),
    "service.tenants.builds": ("count", "lower"),
    "backends.memory.get": ("1/kreq", "lower"),
    "backends.memory.put": ("1/kreq", "lower"),
    "backends.memory.delete": ("1/kreq", "lower"),
    "wall.ingest_pts_per_s": ("pts/s", "higher"),
    "ref.kernel_ms": ("ms", "lower"),
    "trace.overhead.ingest_pts_per_s": ("pts/s", "higher"),
    "trace.overhead.ingest_p50_ms": ("ms", "lower"),
}

WORKLOADS = {
    "sliding-cascade": "pb_sliding",
    "highdim-pipeline": "pb_pipeline",
    "service-churn": "pb_service",
}


def provenance(ref_kernel_ms: float) -> dict:
    """Where a result came from, so results from different boxes differ."""
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ref_kernel_median_ms": round(ref_kernel_ms, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: the repro library is not at {SRC / 'repro'}; run from "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    module = __import__(WORKLOADS[args.workload])
    started = time.perf_counter()
    report = module.run(args.seed, args.seconds, bool(args.trace))
    elapsed = time.perf_counter() - started

    stamp = provenance(report.ref_kernel_ms)
    if args.trace:
        figures = {name: (0.0, unit) for name, (unit, _) in LAYER_METRICS.items()}
        figures.update(report.layers)
        figures["ref.kernel_ms"] = (report.ref_kernel_ms, "ms")
        unknown = set(figures) - set(LAYER_METRICS)
        if unknown:
            raise RuntimeError(f"unregistered per-layer metrics: {sorted(unknown)}")
    else:
        figures = report.metrics
    correct = all(passed for _, passed, _ in report.checks) and report.failed == 0

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ran {elapsed:.1f} s")
    print("# provenance " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in figures.items():
        print(f"{name:40s} {value:16.4f} {unit}")
    for note in report.notes:
        print(f"# {note}")
    for name, passed, detail in report.checks:
        print(f"# check {'ok  ' if passed else 'FAIL'} {name} {detail}".rstrip())
    for error in report.errors:
        print(error, file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in figures.items()
        },
    }
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    suffix = "trace" if args.trace else "run"
    with open(out / f"{args.workload}-seed{args.seed}-{suffix}.json", "w") as handle:
        json.dump(
            {"provenance": stamp, "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "notes": report.notes,
             "checks": report.checks, **result, "spans": report.spans},
            handle,
        )
    print(json.dumps(result))
    if not correct:
        print(f"error: {args.workload} failed its output checks or had "
              f"{report.failed} failed operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
