"""Workload ``service-churn``: the multi-tenant ASGI service under churn.

The service app runs in-process behind ``ASGITestClient``, driven as a
closed loop by one client coroutine: each request is sent when the
previous one has been answered.  Every tenant keeps an ``l0-sliding``
summary (dim 2, window 512).  Tenant popularity is zipf over more
tenants than the service's resident ``capacity``, so requests keep
evicting tenants to checkpoint envelopes in the memory backend and
restoring them on their next touch.  Three small ingest requests (128
points, pre-encoded JSON) alternate with a group of 96 queries to one
tenant, so writes sit beside reads.  This is where request validation
and the restore path live; executors and large-chunk geometry are
bypassed.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import time
import traceback
from dataclasses import dataclass

from pb_clock import HostClock, SetupTimer
from pb_stats import Recorder, Report, median_ms, overhead, peak_rss_mb
from pb_trace import Tracer, maybe_span, patched, self_times

NAME = "service-churn"

#: Seed of the service's own randomness (per-tenant seeds derive from
#: it); inputs come from ``--seed``.
SUMMARY_SEED = 2018


@dataclass(frozen=True)
class Params:
    tenants: int = 64
    capacity: int = 24
    zipf_exponent: float = 1.2
    window: int = 512
    batch: int = 128
    groups: int = 300
    bodies: int = 64
    ingests_per_cycle: int = 3
    #: Queries per group, all to one tenant (a client polling it).
    query_group: int = 96
    #: Measured seconds between reference-kernel samples.
    kernel_every_s: float = 0.1
    setups: int = 3
    #: Draws of the pre-generated tenant sequence (cycled if exhausted).
    draws: int = 200_000

    @classmethod
    def small(cls) -> "Params":
        return cls(
            tenants=8, capacity=3, window=64, batch=32, groups=40, bodies=8,
            setups=2, draws=2000,
        )


class _Inputs:
    """Request bodies and the zipf tenant sequence, made from the seed."""

    def __init__(self, seed: int, params: Params) -> None:
        import numpy as np

        rng = random.Random(seed)
        self.points = []
        for _ in range(params.bodies):
            body = []
            for _ in range(params.batch):
                group = rng.randrange(params.groups)
                body.append(
                    (
                        25.0 * (group % 20) + rng.uniform(0.0, 0.4),
                        25.0 * (group // 20) + rng.uniform(0.0, 0.4),
                    )
                )
            self.points.append(body)
        self.encoded = [
            json.dumps({"points": [list(p) for p in body]}).encode("utf-8")
            for body in self.points
        ]
        weights = 1.0 / np.arange(1, params.tenants + 1) ** params.zipf_exponent
        draws = np.random.default_rng(seed)
        self.tenant_seq = draws.choice(
            params.tenants, size=params.draws, p=weights / weights.sum()
        ).tolist()
        self.body_seq = draws.integers(0, params.bodies, params.draws).tolist()


def tenant_name(index: int) -> str:
    return f"t{index:03d}"


class _State:
    def __init__(self, inputs: _Inputs, params: Params, clock: HostClock) -> None:
        self.inputs = inputs
        self.params = params
        self.clock = clock
        self.app = None
        self.client = None
        self.cursor = 0
        #: Body indices each tenant ingested, in order (for the replay).
        self.history: dict[int, list[int]] = {}

    async def build(self, lap) -> None:
        """A fresh service; every tenant built and its window filled.

        ``lap`` is called after every eighth tenant (see
        :meth:`pb_clock.SetupTimer.lap`).
        """
        from repro.api import L0SlidingSpec
        from repro.service import ServiceSpec, create_app
        from repro.service.testing import ASGITestClient

        params = self.params
        self.app = create_app(
            ServiceSpec(
                summary="l0-sliding",
                spec=L0SlidingSpec(
                    alpha=1.0, dim=2, seed=SUMMARY_SEED, window_size=params.window
                ),
                capacity=params.capacity,
            )
        )
        self.client = ASGITestClient(self.app)
        self.history = {t: [] for t in range(params.tenants)}
        self.cursor = 0
        for tenant in range(params.tenants):
            for round_ in range(params.window // params.batch + 1):
                body = (tenant * 7 + round_) % params.bodies
                response = await self.ingest(tenant, body)
                if response.status != 200:
                    raise RuntimeError(f"warm-up ingest failed: {response.body!r}")
            if tenant % 8 == 7:
                lap()

    async def ingest(self, tenant: int, body: int):
        response = await self.client.request(
            "POST", f"/v1/{tenant_name(tenant)}/ingest",
            body=self.inputs.encoded[body],
        )
        if response.status == 200:
            self.history[tenant].append(body)
        return response

    def next_draw(self) -> tuple[int, int]:
        index = self.cursor % len(self.inputs.tenant_seq)
        self.cursor += 1
        return self.inputs.tenant_seq[index], self.inputs.body_seq[index]

    async def counters(self) -> dict:
        response = await self.client.get("/metrics")
        payload = response.json()
        return {**payload["tenants"], **payload["store"]}


async def _measure(
    state: _State, seconds: float, tracer: Tracer | None
) -> tuple[Recorder, dict]:
    params, clock = state.params, state.clock
    record = Recorder()
    before = await state.counters()
    pending_ingest: list[float] = []
    pending_query: list[float] = []
    since_kernel = 0.0

    def settle() -> None:
        """Normalise the samples taken since the last kernel sample."""
        clock.sample()
        factor = clock.factor()
        for wall in pending_ingest:
            record.add_ingest(params.batch, wall, wall * factor)
        for wall in pending_query:
            record.add_query_group(params.query_group, wall, wall * factor)
        pending_ingest.clear()
        pending_query.clear()

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in range(params.ingests_per_cycle):
            tenant, body = state.next_draw()
            record.attempted += 1
            try:
                with maybe_span(tracer, "service.app.ingest", state.cursor):
                    start = time.perf_counter()
                    response = await state.ingest(tenant, body)
                    wall = time.perf_counter() - start
            except Exception:
                record.fail(traceback.format_exc())
                continue
            if response.status != 200:
                record.fail(f"ingest {response.status}: {response.body[:200]!r}")
                continue
            pending_ingest.append(wall)
            since_kernel += wall
        statuses = []
        record.attempted += params.query_group
        try:
            tenant, _ = state.next_draw()
            target = f"/v1/{tenant_name(tenant)}/query?seed="
            with maybe_span(tracer, "service.app.query_group", state.cursor):
                start = time.perf_counter()
                for query in range(params.query_group):
                    response = await state.client.get(f"{target}{query}")
                    statuses.append(response.status)
                wall = time.perf_counter() - start
        except Exception:
            record.fail(traceback.format_exc())
            continue
        bad = [status for status in statuses if status != 200]
        for status in bad:
            record.fail(f"query answered {status}")
        if not bad:
            pending_query.append(wall)
        since_kernel += wall
        if since_kernel >= params.kernel_every_s:
            settle()
            since_kernel = 0.0
    settle()
    after = await state.counters()
    delta = {key: after[key] - before.get(key, 0) for key in after}
    delta["requests"] = record.attempted
    return record, delta


async def _replay_check(state: _State, tenants: list[int]) -> list[tuple[str, bool, str]]:
    """Sampled tenants' checkpoints against a serial replay of their batches.

    Compared by ``state_fingerprint`` of the restored checkpoint - the
    equality the service guarantees.  (Envelope bytes can differ
    without a behavioural difference: a heap entry whose record has
    left the store is written with a ``cur`` flag that a restore does
    not reproduce, and that nothing reads.)
    """
    from repro.engine.equivalence import state_fingerprint
    from repro.persist import summary_from_state

    checks = []
    for tenant in tenants:
        replay = state.app.tenants.fresh_summary(tenant_name(tenant))
        batches = state.history[tenant]
        for body in batches:
            replay.process_many(state.inputs.points[body])
        response = await state.client.post(f"/v1/{tenant_name(tenant)}/checkpoint")
        same = response.status == 200 and state_fingerprint(
            summary_from_state(response.json())
        ) == state_fingerprint(replay)
        checks.append(
            (f"tenant {tenant_name(tenant)} checkpoint == serial replay", same,
             f"{len(batches)} batches")
        )
    return checks


async def _footprint(state: _State) -> tuple[int, int]:
    """(space_words, state_bytes) summed over every tenant."""
    from repro.persist import loads_summary

    tenants = state.app.tenants
    for name in tenants.resident_tenants():
        await tenants.evict(name)
    words = size = 0
    for tenant in range(state.params.tenants):
        data = tenants.store.get(tenant_name(tenant))
        size += len(data)
        words += loads_summary(data).space_words()
    return words, size


def _per_kreq(delta: dict, key: str) -> float:
    return delta.get(key, 0) * 1000.0 / max(delta["requests"], 1)


async def _run(seed: int, seconds: float, trace: bool, params: Params) -> Report:
    from repro.core.sliding_window import RobustL0SamplerSW
    from repro.service import tenants as tenants_module

    clock = HostClock()
    state = _State(_Inputs(seed, params), params, clock)
    setup = SetupTimer(clock)
    for _ in range(params.setups):
        state.app = state.client = None
        setup.start()
        await state.build(setup.lap)
        setup.stop()

    gc.collect()
    tracer = Tracer() if trace else None
    first, _ = await _measure(state, seconds / 2 if trace else seconds, None)
    second = None
    if trace:
        traced_from = len(clock.samples_ms)
        with (
            patched(tenants_module, "dumps_summary",
                    tracer.wrap("persist.dumps", tenants_module.dumps_summary)),
            patched(tenants_module, "loads_summary",
                    tracer.wrap("persist.loads", tenants_module.loads_summary)),
            patched(RobustL0SamplerSW, "process_many",
                    tracer.wrap("core.sliding_window.small_batch",
                                RobustL0SamplerSW.process_many)),
        ):
            second, delta = await _measure(state, seconds / 2, tracer)
    peak = peak_rss_mb()

    by_popularity = sorted(
        range(params.tenants), key=lambda t: -len(state.history[t])
    )
    sampled = sorted({by_popularity[0], by_popularity[len(by_popularity) // 2],
                      by_popularity[-1]})
    checks = await _replay_check(state, sampled)
    footprint = await _footprint(state)

    metrics, notes = first.metrics(setup.median(), peak, footprint)
    notes.append(setup.note())
    notes.append(f"space_words and state_bytes summed over {params.tenants} tenants")
    records = [first] if second is None else [first, second]
    layers = {}
    if trace:
        traced_metrics, _ = second.metrics(metrics["setup_s"][0], peak, footprint)
        factor = clock.factor_since(traced_from)
        own = self_times(tracer.spans)
        layers = {
            "service.app.self_ms": (median_ms(own["service.app.ingest"], factor), "ms"),
            "core.sliding_window.small_batch_ms": (
                median_ms(own["core.sliding_window.small_batch"], factor), "ms"),
            "persist.dumps_ms": (median_ms(own.get("persist.dumps", []), factor), "ms"),
            "persist.loads_ms": (median_ms(own.get("persist.loads", []), factor), "ms"),
            "persist.envelope_bytes": (footprint[1] / params.tenants, "bytes"),
            "service.tenants.restores_per_kreq": (_per_kreq(delta, "restores"), "1/kreq"),
            "service.tenants.evictions_per_kreq": (
                _per_kreq(delta, "evictions"), "1/kreq"),
            "service.tenants.builds": (state.app.tenants.builds, "count"),
            "backends.memory.get": (_per_kreq(delta, "gets"), "1/kreq"),
            "backends.memory.put": (_per_kreq(delta, "puts"), "1/kreq"),
            "backends.memory.delete": (_per_kreq(delta, "deletes"), "1/kreq"),
            "wall.ingest_pts_per_s": (second.rate(wall=True), "pts/s"),
            **overhead(metrics, traced_metrics),
        }
    return Report(
        metrics=metrics,
        layers=layers,
        notes=notes,
        checks=checks,
        attempted=sum(r.attempted for r in records),
        failed=sum(r.failed for r in records),
        ref_kernel_ms=clock.median_ms(),
        spans=tracer.spans if trace else [],
        errors=[r.first_error for r in records if r.first_error],
    )


def run(seed: int, seconds: float, trace: bool, params: Params = Params()) -> Report:
    return asyncio.run(_run(seed, seconds, trace, params))
