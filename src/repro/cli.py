"""Command-line interface: robust sampling over point files.

Reads a stream of points from CSV (one point per line, comma-separated
coordinates) or JSON-lines (one JSON array per line) and runs one of the
library's summaries over it:

* ``sample``   - k robust distinct samples (infinite or sliding window);
* ``count``    - robust F0 estimate;
* ``heavy``    - robust heavy hitters;
* ``pipeline`` - sharded parallel ingestion (``--shards`` shard
  samplers fed round-robin by a serial/process/remote
  ``--executor`` with ``--workers`` workers), answering a robust F0
  estimate and one distinct sample over the union stream from one
  merge of the synchronised shards;
* ``worker``   - serve a remote pipeline's work queue from any machine
  that shares its backend (:func:`repro.engine.remote_worker.run_worker`);
* ``serve``    - the multi-tenant summary service (:mod:`repro.service`):
  one summary per tenant key with LRU/TTL eviction to checkpoint,
  ``/metrics`` and SSE streaming, run under uvicorn (``pip install
  repro[service]``).  Takes no input file - traffic arrives over HTTP.

Summaries are constructed through the unified API (:mod:`repro.api`):
each command assembles a typed spec (``KSampleSpec``, ``F0InfiniteSpec``,
``HeavyHittersSpec``, ``PipelineSpec``) and builds it through the
registry, so the CLI composes with every capability the specs expose.

Examples
--------
::

    python -m repro.cli sample --alpha 0.5 data.csv
    python -m repro.cli sample --alpha 0.5 --window 1000 --k 3 data.csv
    python -m repro.cli count  --alpha 0.5 --epsilon 0.1 data.csv
    python -m repro.cli heavy  --alpha 0.5 --phi 0.05 --output json data.csv
    python -m repro.cli pipeline --alpha 0.5 --shards 4 --executor process data.csv
    python -m repro.cli serve --summary l0-infinite --alpha 0.5 --dim 2 --port 8000
    cat data.csv | python -m repro.cli sample --alpha 0.5 -

Ingestion always runs through the batched engine (``--batch-size``
points at a time; see :mod:`repro.engine`); batching is state-equivalent
to per-point ingestion, so it only affects throughput.  ``--seed`` makes
a run bit-reproducible: one master generator derives the sampler
construction seed and the query randomness (see ``_derived_rngs``).

``--save-state FILE`` writes the summary's checkpoint envelope
(:func:`repro.persist.dump_summary`) after ingestion; ``--resume FILE``
starts from such a checkpoint instead of a fresh summary, ingests the
input on top (which may be empty - pass ``/dev/null`` to just query),
and continues with decisions identical to the uninterrupted run.

The ``pipeline`` command can instead checkpoint *during* the run:
``--backend {memory,file,redis}`` routes ingestion through
:func:`repro.engine.resumable.run_resumable`, committing chunk-aligned
checkpoints into a :class:`repro.backends.StateBackend` under atomic
compare-and-swap (``--backend-path`` for file, ``--backend-url`` for
redis, ``--checkpoint-key``/``--checkpoint-every`` to tune).  Kill the
process and rerun the same command on the same input: it resumes from
the last committed checkpoint and finishes fingerprint-identical to an
uninterrupted run.

``--output json`` emits one JSON object per result line so downstream
tooling does not have to parse the bespoke text formats.

All input errors - unparseable lines, empty input without ``--resume``,
invalid parameters - are reported uniformly as ``error: ...`` on stderr
with exit code 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from typing import Iterator, Sequence, TextIO

from repro.api import (
    F0InfiniteSpec,
    HeavyHittersSpec,
    KSampleSpec,
    PipelineSpec,
    build,
)
from repro.backends import BACKEND_NAMES
from repro.core.base import DEFAULT_BATCH_SIZE
from repro.engine.executors import EXECUTOR_NAMES
from repro.engine.remote_worker import run_worker
from repro.engine.resumable import DEFAULT_CHECKPOINT_EVERY
from repro.errors import CheckpointError, ReproError
from repro.persist import dump_summary, load_summary
from repro.streams.point import StreamPoint


def _parse_lines(handle: TextIO, fmt: str) -> Iterator[tuple[float, ...]]:
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if fmt == "jsonl":
                values = json.loads(line)
            else:
                values = line.split(",")
            yield tuple(float(x) for x in values)
        except (ValueError, json.JSONDecodeError) as error:
            raise ReproError(
                f"line {line_number}: cannot parse point ({error})"
            ) from error


def _open_input(path: str) -> TextIO:
    if path == "-":
        return sys.stdin
    return open(path, "r", encoding="utf-8")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="input file, or - for stdin")
    parser.add_argument(
        "--alpha", type=float, required=True,
        help="near-duplicate distance threshold",
    )
    parser.add_argument(
        "--format", choices=["csv", "jsonl"], default="csv",
        help="input format (default csv)",
    )
    parser.add_argument(
        "--output", choices=["text", "json"], default="text",
        help="result format: bespoke text lines (default) or one JSON "
        "object per result line",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="random seed; one seeded generator drives sampler "
        "construction and query randomness, so runs with the same seed "
        "and input are bit-reproducible (regardless of --batch-size)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
        help="points per ingestion batch (state-equivalent to per-point "
        f"ingestion, just faster; default {DEFAULT_BATCH_SIZE})",
    )
    parser.add_argument(
        "--save-state", metavar="FILE", default=None,
        help="write a checkpoint envelope of the summary after ingestion",
    )
    parser.add_argument(
        "--resume", metavar="FILE", default=None,
        help="start from a checkpoint written by --save-state instead of "
        "a fresh summary (construction flags are then taken from the "
        "checkpoint; the input may be empty)",
    )


def _derived_rngs(args) -> tuple[int, random.Random]:
    """One master generator -> (sampler seed, query rng).

    Threading every source of randomness through a single seeded
    ``random.Random`` makes whole CLI runs reproducible end to end; the
    differential CLI tests rely on it.
    """
    master = random.Random(args.seed)
    sampler_seed = master.randrange(2**62)
    query_rng = random.Random(master.randrange(2**62))
    return sampler_seed, query_rng


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Robust distinct sampling over noisy point streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sample = commands.add_parser("sample", help="robust distinct samples")
    _add_common(sample)
    sample.add_argument("--k", type=int, default=1, help="samples to draw")
    sample.add_argument(
        "--replacement", action="store_true",
        help="sample groups with replacement",
    )
    sample.add_argument(
        "--window", type=int, default=None,
        help="restrict to the last N points (sequence-based window)",
    )

    count = commands.add_parser("count", help="robust distinct count (F0)")
    _add_common(count)
    count.add_argument(
        "--epsilon", type=float, default=0.2, help="target relative accuracy"
    )
    count.add_argument(
        "--copies", type=int, default=9, help="median-of-copies count"
    )

    heavy = commands.add_parser("heavy", help="robust heavy hitters")
    _add_common(heavy)
    heavy.add_argument(
        "--phi", type=float, default=0.05,
        help="report groups above this frequency fraction",
    )
    heavy.add_argument(
        "--epsilon", type=float, default=0.01, help="counter resolution"
    )

    pipeline = commands.add_parser(
        "pipeline",
        help="sharded parallel ingestion: robust F0 + one distinct "
        "sample over the union stream",
    )
    _add_common(pipeline)
    pipeline.add_argument(
        "--shards", type=int, default=4,
        help="shard samplers fed round-robin (default 4)",
    )
    pipeline.add_argument(
        "--executor", choices=list(EXECUTOR_NAMES),
        default="serial",
        help="where shard ingestion runs; every choice is "
        "state-equivalent, 'process' adds wall-clock parallelism, "
        "'remote' serves chunks through a shared state backend to "
        "workers that may run on other machines (default serial)",
    )
    pipeline.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for --executor process besides this "
        "one, which ingests a share of the shards itself when there "
        "are fewer workers than shards (default: one per shard); for "
        "--executor remote the number of "
        "LOCAL worker threads - pass 0 when every worker is an "
        "external 'worker' command",
    )
    pipeline.add_argument(
        "--queue-backend", choices=list(BACKEND_NAMES), default=None,
        help="work-queue backend for --executor remote (default "
        "memory: in-process only; 'file'/'redis' let external workers "
        "join)",
    )
    pipeline.add_argument(
        "--queue-path", default=None,
        help="directory of the file work queue (with "
        "--queue-backend file)",
    )
    pipeline.add_argument(
        "--queue-url", default=None,
        help="redis URL of the work queue (with --queue-backend redis)",
    )
    pipeline.add_argument(
        "--queue-key", default=None,
        help="work-queue namespace workers serve (default remote-queue)",
    )
    pipeline.add_argument(
        "--lease-ttl", type=float, default=5.0,
        help="seconds without a worker heartbeat before its shards are "
        "re-adopted (default 5)",
    )
    pipeline.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="checkpoint the run into this state backend under atomic "
        "CAS (chunk-aligned, crash-safe): rerunning the same command "
        "on the same input resumes from the last committed checkpoint "
        "(default: no mid-run checkpoints)",
    )
    pipeline.add_argument(
        "--backend-path", default=None,
        help="directory of the file backend (with --backend file)",
    )
    pipeline.add_argument(
        "--backend-url", default=None,
        help="redis URL of the redis backend (with --backend redis; "
        "needs the redis extra: pip install 'repro[redis]')",
    )
    pipeline.add_argument(
        "--checkpoint-key", default="cli-pipeline",
        help="backend key the run checkpoints under; one key per job "
        "(default cli-pipeline)",
    )
    pipeline.add_argument(
        "--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT_EVERY,
        help="chunks between checkpoint commits "
        f"(default {DEFAULT_CHECKPOINT_EVERY})",
    )

    worker = commands.add_parser(
        "worker",
        help="serve a remote pipeline work queue: lease shards via "
        "backend CAS, fold their chunks, commit states through the CAS "
        "fence (runs on any machine sharing the backend)",
    )
    worker.add_argument(
        "--backend",
        required=True,
        choices=["file", "redis"],
        help="shared backend flavour the submitting pipeline uses "
        "(memory is in-process only and has no worker command)",
    )
    worker.add_argument(
        "--backend-path",
        default=None,
        help="directory of the file backend (with --backend file)",
    )
    worker.add_argument(
        "--backend-url",
        default=None,
        help="redis URL of the redis backend (with --backend redis)",
    )
    worker.add_argument(
        "--queue-key",
        default="remote-queue",
        help="work-queue namespace to serve (default remote-queue; "
        "must match the pipeline's queue key)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="lease identity (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=5.0,
        help="seconds without a heartbeat before this worker's shards "
        "are stolen (default 5; match the pipeline's lease ttl)",
    )
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        help="idle polling period in seconds (default 0.05)",
    )
    worker.add_argument(
        "--max-idle",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: serve "
        "forever, across successive pipeline runs)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant summary service (one summary per "
        "tenant key, LRU/TTL eviction to checkpoint, /metrics, SSE)",
    )
    serve.add_argument(
        "--summary", default="l0-infinite",
        help="registry key of the per-tenant summary "
        "(default l0-infinite; see repro.api.available())",
    )
    serve.add_argument(
        "--alpha", type=float, default=None,
        help="near-duplicate distance threshold (required by the "
        "point-stream summaries)",
    )
    serve.add_argument(
        "--dim", type=int, default=None,
        help="ambient dimension of ingested points (required by the "
        "point-stream summaries)",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="base seed; each tenant derives its own reproducible seed",
    )
    serve.add_argument(
        "--window", type=int, default=None,
        help="sliding-window size for windowed summaries",
    )
    serve.add_argument(
        "--k", type=int, default=None, help="samples per query (ksample)"
    )
    serve.add_argument(
        "--epsilon", type=float, default=None,
        help="accuracy parameter (f0-*, heavy-hitters, bjkst)",
    )
    serve.add_argument(
        "--phi", type=float, default=None,
        help="heavy-hitter report threshold",
    )
    serve.add_argument(
        "--copies", type=int, default=None,
        help="median-of-copies count (f0-*, fm)",
    )
    serve.add_argument(
        "--capacity", type=int, default=1024,
        help="max tenants resident in memory before LRU eviction to "
        "the envelope store (default 1024)",
    )
    serve.add_argument(
        "--ttl", type=float, default=None,
        help="evict tenants idle for this many seconds (default: never)",
    )
    serve.add_argument(
        "--store", choices=["memory", "file", "redis"], default="memory",
        help="where evicted tenants' checkpoint envelopes go "
        "(default memory; 'file' survives restarts, 'redis' is shared "
        "across service replicas)",
    )
    serve.add_argument(
        "--store-path", default=None,
        help="directory of the file envelope store (with --store file)",
    )
    serve.add_argument(
        "--store-url", default=None,
        help="redis URL of the envelope store (with --store redis; "
        "needs the redis extra: pip install 'repro[redis]')",
    )
    serve.add_argument(
        "--stream-interval", type=float, default=1.0,
        help="default seconds between SSE events on /v1/{tenant}/stream",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8000, help="bind port")
    return parser


def _summary_for(
    args, points: Iterator[Sequence[float]], expected_key: str
):
    """Resume or spec-construct the command's summary, then ingest.

    Returns the summary after feeding it the (possibly empty-on-resume)
    input through the batched engine.
    """
    first = next(points, None)
    if args.resume is not None:
        try:
            summary = load_summary(args.resume)
        except (OSError, CheckpointError) as error:
            raise ReproError(
                f"cannot load checkpoint {args.resume}: {error}"
            ) from error
        key = getattr(type(summary), "summary_key", None)
        if key != expected_key:
            raise ReproError(
                f"checkpoint holds a {key!r} summary; this command "
                f"needs {expected_key!r}"
            )
    else:
        if first is None:
            raise ReproError("input contains no points")
        sampler_seed, _ = _derived_rngs(args)
        spec = _spec_for(args, dim=len(first), seed=sampler_seed)
        summary = build(expected_key, spec)
    try:
        if first is not None:
            summary.extend(
                itertools.chain([first], points), batch_size=args.batch_size
            )
        if args.save_state is not None:
            try:
                dump_summary(summary, args.save_state)
            except OSError as error:
                raise ReproError(
                    f"cannot write checkpoint {args.save_state}: {error}"
                ) from error
    except BaseException:
        # Summaries with workers (the pipeline) must not leak them when
        # ingestion fails mid-stream; the original error is the one to
        # report, so a close() failure on the same broken run is
        # swallowed.
        closer = getattr(summary, "close", None)
        if closer is not None:
            try:
                closer()
            except ReproError:
                pass
        raise
    return summary


def _spec_for(args, *, dim: int, seed: int):
    """The typed spec of the invoked command."""
    if args.command == "sample":
        return KSampleSpec(
            alpha=args.alpha,
            dim=dim,
            seed=seed,
            k=args.k,
            replacement=args.replacement,
            window_size=args.window,
        )
    if args.command == "count":
        return F0InfiniteSpec(
            alpha=args.alpha,
            dim=dim,
            seed=seed,
            epsilon=args.epsilon,
            copies=args.copies,
        )
    if args.command == "pipeline":
        return PipelineSpec(
            alpha=args.alpha,
            dim=dim,
            seed=seed,
            num_shards=args.shards,
            batch_size=args.batch_size,
            executor=args.executor,
            num_workers=args.workers,
            queue_backend=args.queue_backend,
            queue_path=args.queue_path,
            queue_url=args.queue_url,
            queue_key=args.queue_key,
            lease_ttl=args.lease_ttl,
        )
    return HeavyHittersSpec(
        alpha=args.alpha,
        dim=dim,
        seed=seed,
        epsilon=args.epsilon,
        phi=args.phi,
    )


def _service_spec_for(args):
    """Assemble a validated :class:`repro.service.ServiceSpec` from flags.

    The summary spec is built generically: the candidate flags below are
    filtered to the fields the chosen registry key's spec class actually
    declares, so every servable key works without per-key plumbing.
    Missing required fields (e.g. ``--alpha`` for a point summary)
    surface as the CLI's uniform ``error:`` convention.
    """
    import dataclasses as _dataclasses

    from repro.api.registry import spec_class
    from repro.service import ServiceSpec

    candidates = {
        "alpha": args.alpha,
        "dim": args.dim,
        "seed": args.seed,
        "window_size": args.window,
        "k": args.k,
        "epsilon": args.epsilon,
        "phi": args.phi,
        "copies": args.copies,
    }
    try:
        cls = spec_class(args.summary)
    except ReproError:
        raise
    fields = {field.name for field in _dataclasses.fields(cls)}
    kwargs = {
        name: value
        for name, value in candidates.items()
        if value is not None and name in fields
    }
    try:
        summary_spec = cls(**kwargs)
    except TypeError as error:
        raise ReproError(
            f"summary {args.summary!r}: {error} "
            "(point summaries need --alpha and --dim)"
        ) from error
    return ServiceSpec(
        summary=args.summary,
        spec=summary_spec,
        capacity=args.capacity,
        ttl_seconds=args.ttl,
        store=args.store,
        store_path=args.store_path,
        store_url=args.store_url,
        stream_interval=args.stream_interval,
    )


def _run_worker(args, out: TextIO) -> None:
    """Serve a remote work queue until stopped (the ``worker`` command).

    Runs :func:`repro.engine.remote_worker.run_worker` on the named
    backend; prints the worker's counters as JSON on exit.
    """
    from repro.backends import make_backend

    backend = make_backend(
        args.backend, path=args.backend_path, url=args.backend_url
    )
    try:
        stats = run_worker(
            backend,
            args.queue_key,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            poll_interval=args.poll_interval,
            max_idle=args.max_idle,
        )
    finally:
        backend.close()
    out.write(json.dumps(stats, sort_keys=True) + "\n")


def _run_serve(args) -> None:
    """Build the ASGI app and hand it to uvicorn (if installed).

    The app itself has no web-framework dependency - without uvicorn it
    can still be driven in-process (``repro.service.testing``); this
    command is the network front door, so it needs a real server.
    """
    from repro.service import create_app

    app = create_app(_service_spec_for(args))
    try:
        import uvicorn
    except ImportError:
        raise ReproError(
            "the serve command needs uvicorn (install the service extra: "
            "pip install 'repro[service]'); the app can still be driven "
            "in-process via repro.service.testing.ASGITestClient"
        ) from None
    uvicorn.run(app, host=args.host, port=args.port)


def _emit_point(point: StreamPoint, args, out: TextIO) -> None:
    if args.output == "json":
        out.write(
            json.dumps(
                {
                    "vector": list(point.vector),
                    "index": point.index,
                    "time": point.time,
                }
            )
            + "\n"
        )
    else:
        out.write(",".join(repr(x) for x in point.vector) + "\n")


def _run_sample(args, points: Iterator[Sequence[float]], out: TextIO) -> None:
    _, query_rng = _derived_rngs(args)
    sampler = _summary_for(args, points, "ksample")
    for point in sampler.query(query_rng):
        _emit_point(point, args, out)


def _run_count(args, points: Iterator[Sequence[float]], out: TextIO) -> None:
    estimator = _summary_for(args, points, "f0-infinite")
    estimate = estimator.query()
    if args.output == "json":
        out.write(json.dumps({"estimate": estimate}) + "\n")
    else:
        out.write(f"{estimate:.1f}\n")


def _resumable_pipeline_for(args, points: Iterator[Sequence[float]]):
    """Run the pipeline through a CAS-checkpointed state backend.

    The ``--backend`` twin of :func:`_summary_for`: the run commits
    chunk-aligned checkpoints under ``--checkpoint-key``, so a killed
    run rerun on the same input resumes from the last committed chunk
    boundary and finishes fingerprint-identical.
    """
    from repro.backends import make_backend
    from repro.engine.resumable import run_resumable

    if args.resume is not None:
        raise ReproError(
            "--resume and --backend are both resume mechanisms; pass "
            "one (the backend already holds the run's checkpoints)"
        )
    first = next(points, None)
    if first is None:
        raise ReproError("input contains no points")
    sampler_seed, _ = _derived_rngs(args)
    spec = _spec_for(args, dim=len(first), seed=sampler_seed)
    backend = make_backend(
        args.backend, path=args.backend_path, url=args.backend_url
    )
    try:
        pipeline = run_resumable(
            spec,
            itertools.chain([first], points),
            backend,
            args.checkpoint_key,
            checkpoint_every=args.checkpoint_every,
        )
        if args.save_state is not None:
            try:
                dump_summary(pipeline, args.save_state)
            except OSError as error:
                raise ReproError(
                    f"cannot write checkpoint {args.save_state}: {error}"
                ) from error
    finally:
        backend.close()
    return pipeline


def _run_pipeline(
    args, points: Iterator[Sequence[float]], out: TextIO
) -> None:
    """Sharded ingestion; answers come from one barrier shard merge.

    Text output is two lines - the robust F0 estimate, then one distinct
    sample's coordinates; ``--output json`` emits one object per line.
    Every executor leaves the same shard states and the merge is a
    function of them alone, so runs are bit-reproducible for a fixed
    seed whichever executor ran the shards.
    """
    _, query_rng = _derived_rngs(args)
    if args.backend is not None:
        pipeline = _resumable_pipeline_for(args, points)
    else:
        pipeline = _summary_for(args, points, "batch-pipeline")
    try:
        merged = pipeline.merge()
        estimate = merged.estimate_f0()
        sample = merged.sample(query_rng)
    finally:
        pipeline.close()
    if args.output == "json":
        out.write(
            json.dumps(
                {
                    "estimate": estimate,
                    "shards": pipeline.num_shards,
                    "executor": pipeline.executor_name,
                    "communication_words": pipeline.communication_words(),
                }
            )
            + "\n"
        )
    else:
        out.write(f"{estimate:.1f}\n")
    _emit_point(sample, args, out)


def _run_heavy(args, points: Iterator[Sequence[float]], out: TextIO) -> None:
    hitters = _summary_for(args, points, "heavy-hitters")
    for hit in hitters.query(phi=args.phi):
        if args.output == "json":
            out.write(
                json.dumps(
                    {
                        "count": hit.count,
                        "error": hit.error,
                        "guaranteed_count": hit.guaranteed_count,
                        "vector": list(hit.representative.vector),
                    }
                )
                + "\n"
            )
        else:
            coords = ",".join(repr(x) for x in hit.representative.vector)
            out.write(f"{hit.count}\t{hit.error}\t{coords}\n")


def main(argv: list[str] | None = None, out: TextIO | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command in ("serve", "worker"):
        # Neither takes an input stream: serve answers the network,
        # worker pulls its work from the shared backend queue.
        try:
            if args.command == "serve":
                _run_serve(args)
            else:
                _run_worker(args, out)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:  # pragma: no cover - the daemon's stop
            return 130
        return 0
    handle = _open_input(args.input)
    try:
        points = _parse_lines(handle, args.format)
        if args.command == "sample":
            _run_sample(args, points, out)
        elif args.command == "count":
            _run_count(args, points, out)
        elif args.command == "pipeline":
            _run_pipeline(args, points, out)
        else:
            _run_heavy(args, points, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if handle is not sys.stdin:
            handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
