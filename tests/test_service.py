"""Serving-layer tests: tenants, eviction exactness, HTTP surface, SSE.

The headline gate (modelled on fastlimit's concurrency suite) is
differential: N asyncio clients interleave ingest traffic across M
tenants through the in-process ASGI client - with evictions forced
mid-stream by a chaos task *and* by an undersized resident capacity -
and every tenant's final ``state_fingerprint`` must equal a serial
replay of that tenant's point sequence into a fresh summary.  That is
the serving layer's whole correctness story: concurrency, locking and
evict/restore cycles must be invisible in per-tenant state.
"""

from __future__ import annotations

import asyncio
import collections
import random

import pytest

from repro.api import (
    BJKSTSpec,
    F0InfiniteSpec,
    FMSpec,
    HeavyHittersSpec,
    HyperLogLogSpec,
    L0InfiniteSpec,
    L0SlidingSpec,
    LogLogSpec,
    MinRankSpec,
    NaiveReservoirSpec,
)
from repro.backends import FileBackend, MemoryBackend
from repro.engine import state_fingerprint
from repro.errors import ParameterError
from repro.service import (
    ServiceMetrics,
    ServiceSpec,
    TenantStore,
    create_app,
    derive_tenant_seed,
)
from repro.service.testing import ASGITestClient

#: The concurrency-equivalence gate runs one infinite-window, one
#: sliding-window and one heavy-hitters key (the acceptance criterion).
GATE_SPECS = {
    "l0-infinite": L0InfiniteSpec(alpha=1.0, dim=1, seed=11),
    "l0-sliding": L0SlidingSpec(alpha=1.0, dim=1, seed=11, window_size=48),
    "heavy-hitters": HeavyHittersSpec(
        alpha=1.0, dim=1, seed=11, epsilon=0.1
    ),
}


def run(coro):
    return asyncio.run(coro)


def service_spec(key="l0-infinite", **overrides):
    overrides.setdefault("spec", GATE_SPECS.get(key) or GATE_SPECS["l0-infinite"])
    overrides.setdefault("lock_shards", 4)
    return ServiceSpec(summary=key, **overrides)


def noisy_points(rng, n, groups=10):
    """1-D near-duplicate traffic: ``groups`` entities, noisy sightings."""
    return [
        [rng.randrange(groups) * 3.0 + rng.random() * 0.2] for _ in range(n)
    ]


# --------------------------------------------------------------------- #
# ServiceSpec validation
# --------------------------------------------------------------------- #


class TestServiceSpec:
    def test_valid_spec_builds(self):
        spec = service_spec(capacity=2)
        assert spec.capacity == 2
        assert spec.build_store().__class__ is MemoryBackend

    def test_unknown_summary_key_rejected(self):
        with pytest.raises(ParameterError):
            ServiceSpec(summary="nope", spec=GATE_SPECS["l0-infinite"])

    def test_pipeline_tenants_accepted(self):
        # Formerly gated: per-tenant eviction would have leaked the
        # pipeline's workers.  Eviction/drop/shutdown now close
        # worker-owning summaries, so the key is served like any other.
        from repro.api import PipelineSpec

        spec = ServiceSpec(
            summary="batch-pipeline",
            spec=PipelineSpec(alpha=1.0, dim=1, seed=1),
        )
        assert spec.summary == "batch-pipeline"

    def test_mismatched_spec_type_rejected(self):
        with pytest.raises(ParameterError):
            ServiceSpec(summary="f0-infinite", spec=GATE_SPECS["l0-infinite"])

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(capacity=0),
            dict(ttl_seconds=0.0),
            dict(ttl_seconds=-1.0),
            dict(lock_shards=0),
            dict(stream_interval=0.0),
            dict(store="redis"),
            dict(store="file"),  # file without store_path
            dict(store_path="/tmp/x"),  # store_path without file
        ],
    )
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(ParameterError):
            service_spec(**overrides)

    def test_file_store_built_from_spec(self, tmp_path):
        spec = service_spec(store="file", store_path=str(tmp_path / "s"))
        store = spec.build_store()
        assert isinstance(store, FileBackend)
        assert store.directory == str(tmp_path / "s")
        store.close()


# --------------------------------------------------------------------- #
# envelope stores
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("flavour", ["memory", "file"])
class TestEnvelopeStores:
    """The store a ServiceSpec builds: a state backend keyed by tenant."""

    def make(self, flavour, tmp_path):
        if flavour == "file":
            return service_spec(
                store="file", store_path=str(tmp_path / "envelopes")
            ).build_store()
        return service_spec().build_store()

    def test_round_trip_and_delete(self, flavour, tmp_path):
        store = self.make(flavour, tmp_path)
        assert store.get("a") is None
        store.put("a", b'{"x": 1}')
        store.put("b", b"bb")
        assert store.get("a") == b'{"x": 1}'
        assert "a" in store and "c" not in store
        assert sorted(store.keys()) == ["a", "b"]
        assert len(store) == 2
        assert store.delete("a") is True
        assert store.delete("a") is False
        assert store.get("a") is None

    def test_put_replaces(self, flavour, tmp_path):
        store = self.make(flavour, tmp_path)
        store.put("t", b"one")
        store.put("t", b"two")
        assert store.get("t") == b"two"
        assert len(store) == 1

    def test_awkward_tenant_names_round_trip(self, flavour, tmp_path):
        # The store layer must accept anything (the HTTP router is the
        # place that restricts the charset); the file store hex-encodes.
        store = self.make(flavour, tmp_path)
        names = ["user@example.com", "päivä", "a b", "..", "0" * 64]
        for i, name in enumerate(names):
            store.put(name, str(i).encode())
        assert sorted(store.keys()) == sorted(names)
        for i, name in enumerate(names):
            assert store.get(name) == str(i).encode()


class TestFileStoreOnDisk:
    def test_foreign_files_ignored(self, tmp_path):
        store = FileBackend(str(tmp_path))
        (tmp_path / "README.txt").write_text("not an envelope")
        (tmp_path / "zz-not-hex.json").write_text("{}")
        store.put("t", b"data")
        assert list(store.keys()) == ["t"]

    def test_survives_reopen(self, tmp_path):
        FileBackend(str(tmp_path)).put("t", b"data")
        assert FileBackend(str(tmp_path)).get("t") == b"data"


# --------------------------------------------------------------------- #
# tenant store: lifecycle, locking, eviction
# --------------------------------------------------------------------- #


class TestTenantStore:
    def test_lazy_build_and_counters(self):
        async def scenario():
            store = TenantStore(service_spec(capacity=8))
            assert store.resident_count == 0
            n = await store.ingest("alice", [(0.0,), (9.0,)])
            assert n == 2
            assert store.builds == 1 and store.resident_count == 1
            await store.ingest("alice", [(3.0,)])
            assert store.builds == 1  # same summary, no rebuild
            counters = store.counters()
            assert counters["resident"] == 1
            assert counters["evictions"] == 0

        run(scenario())

    def test_per_tenant_seed_derivation(self):
        store = TenantStore(service_spec())
        spec_a = store.tenant_spec("alice")
        spec_b = store.tenant_spec("bob")
        assert spec_a.seed != spec_b.seed
        assert spec_a == store.tenant_spec("alice")  # deterministic
        assert spec_a.seed == derive_tenant_seed(11, "alice")
        # Unseeded service spec: used as-is (fresh randomness per build).
        unseeded = ServiceSpec(
            summary="l0-infinite",
            spec=L0InfiniteSpec(alpha=1.0, dim=1, seed=None),
        )
        assert TenantStore(unseeded).tenant_spec("alice").seed is None

    def test_lru_eviction_beyond_capacity(self):
        async def scenario():
            store = TenantStore(service_spec(capacity=2))
            for tenant in ("a", "b", "c"):
                await store.ingest(tenant, [(1.0,)])
            assert store.resident_count == 2
            assert store.resident_tenants() == ["b", "c"]
            assert store.evictions == 1 and store.spilled_count == 1
            assert store.store.get("a") is not None
            # Touching "b" makes "c" the LRU victim for the next arrival.
            await store.query("b")
            await store.ingest("d", [(1.0,)])
            assert store.resident_tenants() == ["b", "d"]

        run(scenario())

    def test_ttl_eviction_with_injected_clock(self):
        async def scenario():
            now = 0.0
            store = TenantStore(
                service_spec(capacity=8, ttl_seconds=10.0),
                clock=lambda: now,
            )
            await store.ingest("a", [(1.0,)])
            await store.ingest("b", [(2.0,)])
            now = 5.0
            await store.query("b")  # refresh b's TTL
            now = 12.0  # a idle 12s > ttl, b idle 7s < ttl
            assert await store.enforce() == 1
            assert store.resident_tenants() == ["b"]
            assert store.evictions == 1
            # The evicted tenant restores transparently on next touch.
            await store.ingest("a", [(3.0,)])
            assert store.restores == 1 and store.spilled_count == 0

        run(scenario())

    def test_evict_restore_is_fingerprint_exact(self):
        async def scenario():
            spec = service_spec(capacity=8)
            churned = TenantStore(spec)
            control = TenantStore(spec)
            rng = random.Random(5)
            chunks = [noisy_points(rng, 17) for _ in range(6)]
            for i, chunk in enumerate(chunks):
                points = [tuple(p) for p in chunk]
                await churned.ingest("t", points)
                await control.ingest("t", points)
                if i % 2 == 0:  # force an evict/restore cycle mid-stream
                    assert await churned.evict("t") is True
            assert await churned.fingerprint("t") == await control.fingerprint(
                "t"
            )
            assert churned.evictions == 3 and churned.restores == 3
            assert control.evictions == 0

        run(scenario())

    @pytest.mark.parametrize("key", ["l0-infinite", "l0-sliding"])
    def test_corrupt_envelope_fails_typed_and_stays_stored(self, key):
        import json

        from repro.errors import CheckpointError

        def grow_n(envelope):
            envelope["state"]["records"]["n"] += 1  # disagrees with columns

        def drop_max_level(envelope):
            del envelope["state"]["max_level"]

        def v2_record(envelope):
            envelope["version"] = 2
            envelope["state"]["records"] = [{"rep": 1}]

        def v1_without_fields(envelope):
            envelope.clear()
            envelope.update(version=1, format="repro/summary")

        def set_field(field, value):
            def corrupt(envelope):
                envelope["state"][field] = value

            return corrupt

        corruptions = [grow_n, v2_record, v1_without_fields]
        if key == "l0-sliding":
            corruptions.append(drop_max_level)
        else:
            # Without a field check each of these restores: rate 3 then
            # doubles through 6, 12, ... (sampling no longer nested), and
            # the others fail at the next ingest with an untyped error.
            corruptions += [
                set_field("rate_denominator", 3),
                set_field("rate_denominator", 0),
                set_field("rate_denominator", "8"),
                set_field("points_seen", -5),
                set_field("peak_space_words", None),
                set_field("track_members", "no"),
            ]

        async def scenario(corrupt_envelope):
            store = TenantStore(service_spec(key, capacity=8))
            await store.ingest("t", noisy_points(random.Random(2), 40))
            assert await store.evict("t") is True
            envelope = json.loads(store.store.get("t"))
            corrupt_envelope(envelope)
            corrupt = json.dumps(envelope).encode("utf-8")
            store.store.put("t", corrupt)
            for _ in range(2):
                with pytest.raises(CheckpointError):
                    await store.ingest("t", [(1.0,)])
                with pytest.raises(CheckpointError):
                    await store.query("t")
            # Nothing was restored, rebuilt or deleted: the bytes stay.
            assert store.store.get("t") == corrupt
            assert store.resident_tenants() == []
            assert store.restores == 0 and store.builds == 1

            # Through the HTTP surface: a 400, and the bytes stay.
            app = create_app(service_spec(key, capacity=8))
            client = ASGITestClient(app)
            await client.post_json(
                "/v1/t/ingest", {"points": noisy_points(random.Random(2), 40)}
            )
            assert await app.tenants.evict("t") is True
            app.tenants.store.put("t", corrupt)
            for _ in range(2):
                resp = await client.post_json(
                    "/v1/t/ingest", {"points": [[1.0]]}
                )
                assert resp.status == 400 and "error" in resp.json()
                resp = await client.get("/v1/t/query?seed=1")
                assert resp.status == 400 and "error" in resp.json()
            assert app.tenants.store.get("t") == corrupt

        for corrupt_envelope in corruptions:
            run(scenario(corrupt_envelope))

    def test_drop_forgets_memory_and_store(self):
        async def scenario():
            store = TenantStore(service_spec(capacity=8))
            await store.ingest("gone", [(1.0,)])
            await store.evict("gone")
            assert await store.drop("gone") is True
            assert store.spilled_count == 0
            assert await store.drop("gone") is False
            # A re-touch builds from scratch, not from stale state.
            await store.ingest("gone", [(1.0,)])
            assert store.builds == 2 and store.restores == 0

        run(scenario())

    def test_same_tenant_requests_serialise(self):
        async def scenario():
            store = TenantStore(service_spec(capacity=8))
            order = []

            original = store._materialize

            def slow_materialize(tenant):
                order.append(f"enter-{tenant}")
                summary = original(tenant)
                order.append(f"exit-{tenant}")
                return summary

            store._materialize = slow_materialize
            await asyncio.gather(
                store.ingest("t", [(1.0,)]), store.ingest("t", [(2.0,)])
            )
            assert order == ["enter-t", "exit-t", "enter-t", "exit-t"]

        run(scenario())


# --------------------------------------------------------------------- #
# HTTP surface
# --------------------------------------------------------------------- #


class TestHttpSurface:
    def make_client(self, key="l0-infinite", **overrides):
        app = create_app(service_spec(key, **overrides))
        return app, ASGITestClient(app)

    def test_ingest_query_checkpoint_delete(self):
        async def scenario():
            app, client = self.make_client(capacity=8)
            points = noisy_points(random.Random(3), 30)
            resp = await client.post_json(
                "/v1/alice/ingest", {"points": points}
            )
            assert resp.status == 200
            assert resp.json() == {"tenant": "alice", "ingested": 30}

            resp = await client.get("/v1/alice/query?seed=5")
            assert resp.status == 200
            result = resp.json()["result"]
            assert len(result["vector"]) == 1 and "index" in result
            # Seeded queries are deterministic.
            again = await client.get("/v1/alice/query?seed=5")
            assert again.json() == resp.json()

            resp = await client.post("/v1/alice/checkpoint")
            assert resp.status == 200
            envelope = resp.json()
            assert envelope["format"] == "repro/summary"
            assert envelope["summary"] == "l0-infinite"
            # The wire envelope restores fingerprint-exactly.
            from repro.persist import summary_from_state

            restored = summary_from_state(envelope)
            assert state_fingerprint(restored) == await app.tenants.fingerprint(
                "alice"
            )

            resp = await client.delete("/v1/alice")
            assert resp.status == 200 and resp.json()["dropped"] is True
            resp = await client.delete("/v1/alice")
            assert resp.status == 404

        run(scenario())

    def test_error_statuses_are_uniform_json(self):
        async def scenario():
            app, client = self.make_client(capacity=8)
            cases = [
                ("POST", "/v1/t/ingest", b"{not json", 400),
                ("POST", "/v1/t/ingest", b'{"points": "no"}', 400),
                ("POST", "/v1/t/ingest", b'{"points": [["x"]]}', 400),
                ("GET", "/nope", b"", 404),
                ("GET", "/v1/t/nope", b"", 404),
                ("DELETE", "/v1/t/ingest", b"", 405),
                ("GET", "/metrics/x", b"", 404),
                ("POST", "/metrics", b"", 405),
                ("GET", "/v1/empty/query", b"", 409),  # nothing ingested yet
                ("GET", "/v1/t/query?seed=x", b"", 400),
                ("GET", "/v1/t/stream?interval=0", b"", 400),
            ]
            for method, target, body, expected in cases:
                resp = await client.request(method, target, body=body)
                assert resp.status == expected, (method, target, resp.body)
                assert "error" in resp.json(), (method, target)

        run(scenario())

    def test_unsupported_query_parameter_is_400(self):
        async def scenario():
            _, client = self.make_client(
                "f0-infinite",
                spec=F0InfiniteSpec(alpha=1.0, dim=1, seed=3, copies=3),
            )
            await client.post_json("/v1/t/ingest", {"points": [[0.0], [9.0]]})
            resp = await client.get("/v1/t/query?phi=0.5")
            assert resp.status == 400  # F0 queries take no phi

        run(scenario())

    def test_dimension_mismatch_is_400(self):
        async def scenario():
            _, client = self.make_client(capacity=8)
            resp = await client.post_json(
                "/v1/t/ingest", {"points": [[1.0, 2.0]]}
            )
            assert resp.status == 400
            assert "error" in resp.json()

        run(scenario())

    def test_heavy_hitters_query_shape(self):
        async def scenario():
            _, client = self.make_client("heavy-hitters")
            points = [[0.05], [0.1], [0.0], [9.0]]
            await client.post_json("/v1/t/ingest", {"points": points})
            resp = await client.get("/v1/t/query?phi=0.5")
            assert resp.status == 200
            (hit,) = resp.json()["result"]
            assert hit["count"] == 3
            assert hit["guaranteed_count"] == hit["count"] - hit["error"]
            assert hit["representative"]["vector"] == [0.05]

        run(scenario())

    def test_metrics_report_population_and_throughput(self):
        async def scenario():
            app, client = self.make_client(capacity=2)
            for tenant in ("a", "b", "c"):  # c's arrival evicts a
                await client.post_json(
                    f"/v1/{tenant}/ingest", {"points": [[1.0]] * 10}
                )
            await client.post_json("/v1/a/ingest", {"points": [[1.0]]})
            resp = await client.get("/metrics")
            assert resp.status == 200
            metrics = resp.json()
            tenants = metrics["tenants"]
            assert tenants["resident"] == 2
            assert tenants["capacity"] == 2
            assert tenants["evictions"] >= 2
            assert tenants["restores"] == 1  # a came back
            ingest = metrics["ingest"]
            assert ingest["points_total"] == 31
            assert ingest["requests"] == 4
            assert ingest["points_per_second"] > 0
            route = metrics["routes"]["POST /v1/{tenant}/ingest"]
            assert route["count"] == 4 and route["errors"] == 0
            assert sum(route["latency_ms"].values()) == 4
            # Errors are counted against their route.
            await client.request(
                "POST", "/v1/x/ingest", body=b"{broken"
            )
            metrics = (await client.get("/metrics")).json()
            assert metrics["routes"]["POST /v1/{tenant}/ingest"]["errors"] == 1

        run(scenario())


# --------------------------------------------------------------------- #
# SSE streaming
# --------------------------------------------------------------------- #


class TestStreaming:
    def test_stream_pushes_periodic_results(self):
        async def scenario():
            app = create_app(
                service_spec(capacity=8, stream_interval=0.005)
            )
            client = ASGITestClient(app)
            await client.post_json(
                "/v1/t/ingest",
                {"points": noisy_points(random.Random(1), 20)},
            )
            events = await client.stream(
                "/v1/t/stream?interval=0.005&seed=3", events=3
            )
            assert [event["seq"] for event in events] == [0, 1, 2]
            assert all(event["tenant"] == "t" for event in events)
            assert all("result" in event for event in events)

        run(scenario())

    def test_stream_sees_concurrent_ingestion(self):
        async def scenario():
            app = create_app(service_spec("f0-infinite", spec=F0InfiniteSpec(
                alpha=1.0, dim=1, seed=3, copies=3
            )))
            client = ASGITestClient(app)
            await client.post_json("/v1/t/ingest", {"points": [[0.0]]})

            async def pump():
                for i in range(1, 40):
                    await client.post_json(
                        "/v1/t/ingest", {"points": [[i * 5.0]]}
                    )
                    await asyncio.sleep(0.002)

            pump_task = asyncio.create_task(pump())
            events = await client.stream(
                "/v1/t/stream?interval=0.01", events=5
            )
            await pump_task
            estimates = [event["result"] for event in events]
            assert estimates[-1] > estimates[0]  # growth is visible live

        run(scenario())

    def test_stream_limit_closes_server_side(self):
        async def scenario():
            app = create_app(service_spec(capacity=8))
            client = ASGITestClient(app)
            await client.post_json("/v1/t/ingest", {"points": [[1.0]]})
            events = await client.stream(
                "/v1/t/stream?interval=0.001&limit=2", events=10
            )
            assert len(events) == 2  # server closed after ?limit=

        run(scenario())

    def test_stream_on_empty_tenant_reports_error_events(self):
        async def scenario():
            app = create_app(service_spec(capacity=8))
            client = ASGITestClient(app)
            events = await client.stream(
                "/v1/empty/stream?interval=0.001&limit=2", events=2
            )
            assert all("error" in event for event in events)

        run(scenario())


# --------------------------------------------------------------------- #
# the concurrency-equivalence gate
# --------------------------------------------------------------------- #


async def interleaved_traffic(
    key, *, capacity, num_clients=6, num_tenants=5, chaos=True, seed=0
):
    """N clients interleave ingest across M tenants; returns (app, streams).

    Per-tenant chunk order is fixed (clients pop the tenant's next chunk
    under a client-side lock, and the service serialises same-tenant
    requests under its own lock), while cross-tenant interleaving and
    which-client-sends-what are schedule-dependent.  A chaos task forces
    evictions mid-traffic on top of the LRU churn the small capacity
    already causes.
    """
    app = create_app(
        ServiceSpec(
            summary=key,
            spec=GATE_SPECS[key],
            capacity=capacity,
            lock_shards=3,  # fewer shards than tenants: locks are shared
        )
    )
    client = ASGITestClient(app)
    rng = random.Random(seed)
    tenants = [f"tenant-{i}" for i in range(num_tenants)]
    streams = {
        tenant: [
            noisy_points(rng, rng.randrange(1, 9))
            for _ in range(rng.randrange(12, 20))
        ]
        for tenant in tenants
    }
    pending = {t: collections.deque(chunks) for t, chunks in streams.items()}
    locks = {t: asyncio.Lock() for t in tenants}

    async def one_client(client_id):
        crng = random.Random(1000 + client_id)
        while any(pending.values()):
            tenant = crng.choice(tenants)
            async with locks[tenant]:
                if not pending[tenant]:
                    continue
                chunk = pending[tenant].popleft()
                resp = await client.post_json(
                    f"/v1/{tenant}/ingest", {"points": chunk}
                )
                assert resp.status == 200, resp.body
            await asyncio.sleep(0)

    stop = asyncio.Event()

    async def chaos_evictor():
        crng = random.Random(9999)
        while not stop.is_set():
            await app.tenants.evict(crng.choice(tenants))
            await asyncio.sleep(0)

    chaos_task = asyncio.create_task(chaos_evictor()) if chaos else None
    try:
        await asyncio.gather(
            *(one_client(i) for i in range(num_clients))
        )
    finally:
        stop.set()
        if chaos_task is not None:
            await chaos_task
    return app, streams


class TestConcurrencyEquivalence:
    @pytest.mark.parametrize("key", sorted(GATE_SPECS))
    def test_interleaved_traffic_fingerprints_serial_replay(self, key):
        async def scenario():
            app, streams = await interleaved_traffic(key, capacity=2)
            # Evictions really happened mid-traffic (both LRU and chaos).
            assert app.tenants.evictions > 0
            assert app.tenants.restores > 0
            for tenant, chunks in streams.items():
                served = await app.tenants.fingerprint(tenant)
                replay = app.tenants.fresh_summary(tenant)
                replay.process_many(
                    [tuple(p) for chunk in chunks for p in chunk]
                )
                assert served == state_fingerprint(replay), tenant

        run(scenario())

    @pytest.mark.parametrize("key", sorted(GATE_SPECS))
    def test_evicted_equals_never_evicted(self, key):
        # The same interleaved traffic served with churn (capacity 2 +
        # chaos) and without (roomy capacity, no chaos) must agree
        # tenant by tenant: eviction is unobservable in state.
        async def scenario():
            churned, streams_a = await interleaved_traffic(
                key, capacity=2, chaos=True, seed=7
            )
            roomy, streams_b = await interleaved_traffic(
                key, capacity=64, chaos=False, seed=7
            )
            assert streams_a == streams_b  # same generated traffic
            assert churned.tenants.evictions > 0
            assert roomy.tenants.evictions == 0
            for tenant in streams_a:
                assert await churned.tenants.fingerprint(
                    tenant
                ) == await roomy.tenants.fingerprint(tenant), tenant

        run(scenario())

    def test_traffic_through_file_store(self, tmp_path):
        # Envelope round-trips hit real files and still replay exactly.
        async def scenario():
            app = create_app(
                ServiceSpec(
                    summary="l0-infinite",
                    spec=GATE_SPECS["l0-infinite"],
                    capacity=1,
                    store="file",
                    store_path=str(tmp_path / "spill"),
                )
            )
            client = ASGITestClient(app)
            rng = random.Random(2)
            streams = {
                tenant: noisy_points(rng, 60) for tenant in ("a", "b", "c")
            }
            for i in range(0, 60, 10):  # round-robin: constant churn
                for tenant, points in streams.items():
                    resp = await client.post_json(
                        f"/v1/{tenant}/ingest",
                        {"points": points[i : i + 10]},
                    )
                    assert resp.status == 200
            assert app.tenants.evictions >= 2
            for tenant, points in streams.items():
                replay = app.tenants.fresh_summary(tenant)
                replay.process_many([tuple(p) for p in points])
                assert await app.tenants.fingerprint(
                    tenant
                ) == state_fingerprint(replay)

        run(scenario())


# --------------------------------------------------------------------- #
# metrics unit behaviour (fake clock)
# --------------------------------------------------------------------- #


class TestServiceMetrics:
    def test_rate_window_and_histograms(self):
        now = 0.0
        metrics = ServiceMetrics(clock=lambda: now)
        metrics.observe_ingest(100)
        now = 10.0
        metrics.observe_ingest(100)
        assert metrics.points_per_second() == pytest.approx(20.0)
        now = 65.0  # the t=0 burst ages out of the 60s window
        assert metrics.points_per_second() == pytest.approx(100 / 60.0)
        now = 100.0  # everything aged out
        assert metrics.points_per_second() == 0.0
        metrics.observe_request("GET /x", 200, 0.0004)
        metrics.observe_request("GET /x", 500, 0.040)
        snapshot = metrics.snapshot({"resident": 1})
        route = snapshot["routes"]["GET /x"]
        assert route["count"] == 2 and route["errors"] == 1
        assert route["latency_ms"]["le_1ms"] == 1
        assert route["latency_ms"]["le_100ms"] == 1
        assert snapshot["tenants"] == {"resident": 1}
        assert snapshot["ingest"]["points_total"] == 200


# --------------------------------------------------------------------- #
# state-backend satellites: all-or-nothing ingest, O(1) spill count,
# backend-aware spec, /metrics store section
# --------------------------------------------------------------------- #


class TestAllOrNothingIngest:
    """The ingest-atomicity bugfix: a poisoned batch mutates nothing.

    Before the fix, ``process_many`` raised *at* the bad point, leaving
    the valid prefix ingested; a client retrying its corrected batch
    then double-counted that prefix, breaking the per-tenant
    serial-replay invariant under the most ordinary failure mode there
    is (a retry after a 400).
    """

    POISONS = [
        [[1.0], [2.0], ["x"]],          # unparseable coordinate
        [[1.0], None, [2.0]],           # not a point at all
        [[1.0], [2.0, 3.0], [4.0]],     # wrong dimension mid-batch
        [[1.0], [], [2.0]],             # empty point
    ]

    @pytest.mark.parametrize("poison", POISONS)
    def test_tenant_store_state_unchanged(self, poison):
        async def scenario():
            store = TenantStore(service_spec(capacity=8))
            await store.ingest("alice", [[0.0], [9.0]])
            before = await store.fingerprint("alice")
            with pytest.raises(ParameterError, match="nothing ingested"):
                await store.ingest("alice", poison)
            assert await store.fingerprint("alice") == before

        run(scenario())

    def test_retry_after_rejection_equals_serial_replay(self):
        """The scenario the bug corrupted: 400ed batch, client fixes the
        bad point, retries the WHOLE batch.  The tenant must equal a
        serial replay of good-batch + corrected-batch only."""

        async def scenario():
            store = TenantStore(service_spec(capacity=8))
            good = [[0.0], [9.0], [3.0]]
            poisoned = [[1.0], [2.0], ["x"]]
            corrected = [[1.0], [2.0], [7.0]]
            await store.ingest("alice", good)
            with pytest.raises(ParameterError):
                await store.ingest("alice", poisoned)
            await store.ingest("alice", corrected)
            oracle = store.fresh_summary("alice")
            oracle.process_many(good)
            oracle.process_many(corrected)
            assert await store.fingerprint("alice") == state_fingerprint(
                oracle
            )

        run(scenario())

    def test_http_poisoned_batch_is_400_and_ingests_nothing(self):
        async def scenario():
            app = create_app(service_spec(capacity=8))
            client = ASGITestClient(app)
            good = [[0.0], [9.0]]
            await client.post_json("/v1/alice/ingest", {"points": good})
            before = await app.tenants.fingerprint("alice")
            resp = await client.post_json(
                "/v1/alice/ingest", {"points": [[1.0], ["x"], [2.0]]}
            )
            assert resp.status == 400
            assert "nothing ingested" in resp.json()["error"]
            assert await app.tenants.fingerprint("alice") == before
            # Nothing from the rejected batch counts as ingested.
            metrics = (await client.get("/metrics")).json()
            assert metrics["ingest"]["points_total"] == 2

        run(scenario())

    @pytest.mark.parametrize("bad", [b"Infinity", b"NaN"])
    def test_http_non_finite_point_is_400_and_checkpoint_unchanged(
        self, bad
    ):
        """A NaN or infinite coordinate has no grid cell; it used to
        escape the app as a raw ValueError after the points before it
        were ingested."""

        async def scenario():
            app = create_app(
                service_spec(spec=L0InfiniteSpec(alpha=1.0, dim=2, seed=3))
            )
            client = ASGITestClient(app)
            await client.post_json("/v1/t/ingest", {"points": [[1, 1], [5, 5]]})
            before = (await client.post("/v1/t/checkpoint")).body
            resp = await client.request(
                "POST",
                "/v1/t/ingest",
                body=b'{"points": [[50,50],[' + bad + b',0]]}',
            )
            assert resp.status == 400
            error = resp.json()["error"]
            assert "nothing ingested" in error and "point 1" in error
            assert (await client.post("/v1/t/checkpoint")).body == before

        run(scenario())

    #: The specs without ``dim``: the item sketches and the grid-less
    #: point baselines, whose batch the service checks before ingest.
    DIMLESS = {
        "naive-reservoir": NaiveReservoirSpec(seed=3),
        "minrank": MinRankSpec(seed=3),
        "fm": FMSpec(seed=3),
        "loglog": LogLogSpec(seed=3),
        "hyperloglog": HyperLogLogSpec(seed=3),
        "bjkst": BJKSTSpec(seed=3),
    }

    @pytest.mark.parametrize("key", sorted(DIMLESS))
    def test_dimless_stream_point_is_ingested_as_its_vector(self, key):
        """A StreamPoint is not an item: a spec without ``dim`` gets its
        vector, exactly as if the bare tuple had been sent."""
        from repro.streams.point import StreamPoint

        async def scenario():
            fingerprints = []
            for batch in ([StreamPoint((1.0, 2.0), 0)], [(1.0, 2.0)]):
                store = TenantStore(service_spec(key, spec=self.DIMLESS[key]))
                assert await store.ingest("t", batch) == 1
                fingerprints.append(await store.fingerprint("t"))
            assert fingerprints[0] == fingerprints[1]

        run(scenario())

    @pytest.mark.parametrize("key", sorted(DIMLESS))
    @pytest.mark.parametrize(
        "bad", [b'["x"]', b"[NaN]", b"[-Infinity]", b"null"]
    )
    def test_http_dimless_poisoned_batch_is_400_and_checkpoint_unchanged(
        self, key, bad
    ):
        """A string or non-finite row would otherwise be hashed by
        ``hash()`` - randomised per process, or identity-based for NaN -
        after the rows before it were ingested."""

        async def scenario():
            app = create_app(service_spec(key, spec=self.DIMLESS[key]))
            client = ASGITestClient(app)
            good = {"points": [[1.0, 2.0], [5.0, 5.0]]}
            await client.post_json("/v1/t/ingest", good)
            before = (await client.post("/v1/t/checkpoint")).body
            resp = await client.request(
                "POST",
                "/v1/t/ingest",
                body=b'{"points": [[7, 7], ' + bad + b", [8, 8]]}",
            )
            assert resp.status == 400
            error = resp.json()["error"]
            assert "nothing ingested - point 1" in error
            assert (await client.post("/v1/t/checkpoint")).body == before

        run(scenario())

    def test_stream_points_pass_through_untouched(self):
        """Pre-tagged StreamPoints keep their index/time tags (the
        coercion layer must not re-wrap them)."""
        from repro.streams.point import StreamPoint

        async def scenario():
            store = TenantStore(service_spec(capacity=8))
            tagged = [StreamPoint((5.0,), 3, time=1.5)]
            await store.ingest("alice", tagged)
            with pytest.raises(ParameterError):
                await store.ingest(
                    "alice", [StreamPoint((1.0, 2.0), 4)]  # wrong dim
                )

        run(scenario())


class TestSpilledCountIsO1:
    def test_scrape_never_walks_the_spill_directory(self, tmp_path, monkeypatch):
        """The spilled_count bugfix pinned: /metrics used to listdir the
        spill directory per scrape.  After construction, counters() must
        work with directory enumeration forbidden entirely."""
        import os as _os

        async def scenario():
            store = TenantStore(
                service_spec(
                    capacity=1,
                    store="file",
                    store_path=str(tmp_path / "spill"),
                )
            )
            for tenant in ("a", "b", "c"):
                await store.ingest(tenant, [[1.0]])
            assert store.spilled_count == 2  # a and b were evicted

            def forbidden(path):
                raise AssertionError(
                    "/metrics scrape enumerated the spill directory"
                )

            monkeypatch.setattr(_os, "listdir", forbidden)
            assert store.spilled_count == 2
            counters = store.counters()
            assert counters["spilled"] == 2
            stats = store.store_stats()
            assert stats["puts"] == 2  # the two evictions

        run(scenario())


class TestBackendAwareServiceSpec:
    def test_store_names_include_redis(self):
        from repro.service import STORE_NAMES

        assert STORE_NAMES == ("memory", "file", "redis")

    def test_redis_needs_url_and_url_needs_redis(self):
        with pytest.raises(ParameterError):
            service_spec(store="redis")
        with pytest.raises(ParameterError):
            service_spec(store="memory", store_url="redis://localhost")
        with pytest.raises(ParameterError):
            service_spec(
                store="file",
                store_path="/tmp/x",
                store_url="redis://localhost",
            )

    def test_redis_spec_validates_without_the_package(self):
        """Spec validation must not require a redis connection (or even
        the package): unavailability surfaces at build_store() time."""
        spec = service_spec(store="redis", store_url="redis://localhost:1/0")
        assert spec.store == "redis"
        from repro.backends import HAVE_REDIS
        from repro.errors import BackendUnavailableError

        if not HAVE_REDIS:
            with pytest.raises(BackendUnavailableError):
                spec.build_store()

    @pytest.mark.parametrize("flavour", ["memory", "file"])
    def test_store_is_the_state_backend(self, flavour, tmp_path):
        """The spec's store is a plain StateBackend, no adapter between:
        the tenant store writes evicted tenants' envelopes straight into
        it, and the persist layer reads them back."""
        from repro.backends import StateBackend
        from repro.persist import load_stored_summary, summary_to_state

        overrides = {"capacity": 1}
        if flavour == "file":
            overrides.update(store="file", store_path=str(tmp_path / "s"))
        spec = service_spec(**overrides)
        backend = spec.build_store()
        assert isinstance(backend, StateBackend)
        assert isinstance(
            backend, FileBackend if flavour == "file" else MemoryBackend
        )

        async def scenario():
            tenants = TenantStore(spec, store=backend)
            assert tenants.store is backend
            await tenants.ingest("a", [(1.0,), (4.0,)])
            expected = (await tenants.checkpoint("a"))["state"]
            await tenants.ingest("b", [(2.0,)])  # evicts "a"
            assert list(backend.keys()) == ["a"]
            restored = load_stored_summary(backend, "a")
            assert summary_to_state(restored)["state"] == expected
            await tenants.close()

        run(scenario())

class TestMetricsStoreSection:
    def test_metrics_expose_backend_operation_counters(self, tmp_path):
        async def scenario():
            app = create_app(
                service_spec(
                    capacity=1,
                    store="file",
                    store_path=str(tmp_path / "spill"),
                )
            )
            client = ASGITestClient(app)
            for tenant in ("a", "b"):  # b's arrival evicts a
                await client.post_json(
                    f"/v1/{tenant}/ingest", {"points": [[1.0]]}
                )
            metrics = (await client.get("/metrics")).json()
            store = metrics["store"]
            assert store["puts"] == 1  # a's eviction
            assert store["cas_attempts"] == 0
            assert set(store) == {
                "puts", "gets", "deletes", "cas_attempts", "cas_conflicts"
            }

        run(scenario())


class TestPipelineTenants:
    """``batch-pipeline`` tenants: the former ServiceSpec gate is gone.

    The risk the gate guarded against was leaked workers: a pipeline
    summary owns an executor (threads/processes), and eviction used to
    drop the object without closing it.  Eviction, drop and the
    TenantStore shutdown hook now close worker-owning summaries, and the
    envelope round-trip must stay fingerprint-exact.
    """

    def pipeline_service_spec(self, **overrides):
        from repro.api import PipelineSpec

        overrides.setdefault(
            "spec",
            PipelineSpec(
                alpha=1.0, dim=1, seed=11, num_shards=2, batch_size=8,
                executor="process", num_workers=2,
            ),
        )
        overrides.setdefault("lock_shards", 4)
        return ServiceSpec(summary="batch-pipeline", **overrides)

    def test_eviction_closes_workers_and_restores_exactly(self):
        store = TenantStore(self.pipeline_service_spec(capacity=4))
        rng = random.Random(5)
        points = noisy_points(rng, 96)

        async def scenario():
            await store.ingest("t", points)
            pipeline = store._resident["t"].summary
            before = await store.fingerprint("t")
            assert pipeline._executor is not None  # workers are live
            assert await store.evict("t")
            assert pipeline._executor is None  # close() ran on eviction
            # Restore from the envelope is fingerprint-exact and the
            # tenant keeps ingesting (workers restart lazily).
            assert await store.fingerprint("t") == before
            await store.ingest("t", noisy_points(rng, 32))
            await store.close()

        run(scenario())

    def test_drop_closes_resident_workers(self):
        store = TenantStore(self.pipeline_service_spec(capacity=4))

        async def scenario():
            await store.ingest("t", noisy_points(random.Random(7), 40))
            pipeline = store._resident["t"].summary
            assert await store.drop("t")
            assert pipeline._executor is None
            await store.close()

        run(scenario())

    def test_shutdown_hook_closes_every_resident(self):
        store = TenantStore(self.pipeline_service_spec(capacity=8))

        async def scenario():
            rng = random.Random(9)
            for tenant in ("a", "b", "c"):
                await store.ingest(tenant, noisy_points(rng, 40))
            pipelines = [
                store._resident[t].summary for t in ("a", "b", "c")
            ]
            await store.close()
            assert store.resident_count == 0
            assert all(p._executor is None for p in pipelines)
            await store.close()  # idempotent

        run(scenario())

    def test_asgi_lifespan_shutdown_closes_tenants(self):
        app = create_app(self.pipeline_service_spec(capacity=8))

        async def scenario():
            client = ASGITestClient(app)
            await client.post_json(
                "/v1/t/ingest",
                {"points": [[float(i % 5)] for i in range(40)]},
            )
            pipeline = app.tenants._resident["t"].summary
            messages = iter(
                [{"type": "lifespan.startup"}, {"type": "lifespan.shutdown"}]
            )
            sent = []

            async def receive():
                return next(messages)

            async def send(message):
                sent.append(message["type"])

            await app({"type": "lifespan"}, receive, send)
            assert sent == [
                "lifespan.startup.complete", "lifespan.shutdown.complete"
            ]
            assert app.tenants.resident_count == 0
            assert pipeline._executor is None

        run(scenario())
