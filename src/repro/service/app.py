"""The ASGI application: HTTP + SSE surface over a :class:`TenantStore`.

Framework-free by design: the app is a plain ``async def(scope,
receive, send)`` callable, so it runs under any ASGI server (uvicorn,
hypercorn, daphne) **and** under the in-process test client
(:mod:`repro.service.testing`) with no web dependency installed - the
test suite and ``examples/multi_tenant.py`` drive it that way.

Routes
------
=========  ===============================  =====================================
method     path                             behaviour
=========  ===============================  =====================================
``POST``   ``/v1/{tenant}/ingest``          batched points -> ``process_many``
``GET``    ``/v1/{tenant}/query``           the summary's natural answer
``POST``   ``/v1/{tenant}/checkpoint``      the tenant's envelope, verbatim
``DELETE`` ``/v1/{tenant}``                 forget the tenant (memory + store)
``GET``    ``/v1/{tenant}/stream``          SSE: periodic query results
``GET``    ``/metrics``                     counters, throughput, histograms
=========  ===============================  =====================================

Request/response bodies are JSON.  Errors are uniform
``{"error": ...}`` objects: 400 for malformed input or parameter
errors, 404 for unknown routes/tenants, 405 for wrong methods, 409 for
queries the summary cannot answer yet (e.g. sampling an empty stream).

``GET /v1/{tenant}/query`` accepts ``?seed=`` (deterministic query
randomness) and ``?phi=`` (heavy-hitter threshold); ``stream`` adds
``?interval=`` (seconds between events) and ``?limit=`` (stop after N
events - handy for curl and tests; without it the stream runs until
the client disconnects).
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import time
from typing import Any
from urllib.parse import parse_qsl

from repro.backends import StateBackend
from repro.errors import (
    BackendError,
    EmptySampleError,
    LevelOverflowError,
    ParameterError,
    ReproError,
)
from repro.service.config import ServiceSpec
from repro.service.metrics import ServiceMetrics
from repro.service.tenants import TenantStore

__all__ = ["SummaryService", "create_app"]

_TENANT_ROUTE = re.compile(r"^/v1/([^/]+)(?:/(ingest|query|checkpoint|stream))?$")

#: JSON body size cap (16 MiB): a service should fail loudly, not OOM.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _HttpError(Exception):
    """Internal: mapped to a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class SummaryService:
    """The ASGI callable; holds the tenant store and metrics.

    Build one with :func:`create_app` (or directly); the ``tenants``
    and ``metrics`` attributes are the in-process observability surface
    the tests and examples use.
    """

    def __init__(
        self,
        spec: ServiceSpec,
        *,
        store: StateBackend | None = None,
        clock=None,
    ) -> None:
        self.spec = spec
        self.tenants = TenantStore(spec, store=store, clock=clock)
        self.metrics = ServiceMetrics(clock=clock)
        self._clock = clock if clock is not None else time.monotonic

    # ------------------------------------------------------------------ #
    # ASGI entry point
    # ------------------------------------------------------------------ #

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws not served
            raise RuntimeError(f"unsupported scope type {scope['type']!r}")
        started = self._clock()
        route, handler, kwargs = self._resolve(scope)
        status = 500
        try:
            status = await handler(scope, receive, send, **kwargs)
        except _HttpError as error:
            status = error.status
            await _send_json(send, status, {"error": error.message})
        except ParameterError as error:
            status = 400
            await _send_json(send, status, {"error": str(error)})
        except (EmptySampleError, LevelOverflowError) as error:
            status = 409
            await _send_json(send, status, {"error": str(error)})
        except BackendError as error:
            # The envelope store's backing service failed (e.g. Redis
            # connectivity): the tenant is fine, the storage is not.
            status = 503
            await _send_json(send, status, {"error": str(error)})
        except ReproError as error:
            status = 400
            await _send_json(send, status, {"error": str(error)})
        except TypeError as error:
            # e.g. ?phi= against a summary whose query has no phi.
            status = 400
            await _send_json(
                send, status, {"error": f"unsupported query parameter: {error}"}
            )
        finally:
            self.metrics.observe_request(
                route, status, self._clock() - started
            )

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                # Spill every resident tenant and close its summary
                # before acknowledging: worker-owning summaries (the
                # batch-pipeline's executor threads/processes) must not
                # outlive the server.
                await self.tenants.close()
                await send({"type": "lifespan.shutdown.complete"})
                return

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def _resolve(self, scope):
        """(route label, handler, kwargs) for a scope; 404/405 raise."""
        method = scope["method"].upper()
        path = scope["path"]
        if path == "/metrics":
            if method != "GET":
                return "GET /metrics", self._method_not_allowed, {}
            return "GET /metrics", self._metrics, {}
        match = _TENANT_ROUTE.match(path)
        if match is None:
            return method + " ?", self._not_found, {}
        tenant, action = match.group(1), match.group(2)
        table = {
            (None, "DELETE"): ("DELETE /v1/{tenant}", self._delete),
            ("ingest", "POST"): ("POST /v1/{tenant}/ingest", self._ingest),
            ("query", "GET"): ("GET /v1/{tenant}/query", self._query),
            (
                "checkpoint",
                "POST",
            ): ("POST /v1/{tenant}/checkpoint", self._checkpoint),
            ("stream", "GET"): ("GET /v1/{tenant}/stream", self._stream),
        }
        found = table.get((action, method))
        if found is None:
            known_actions = {key[0] for key in table}
            if action in known_actions:
                label = f"{method} /v1/{{tenant}}"
                if action is not None:
                    label += f"/{action}"
                return label, self._method_not_allowed, {}
            return method + " ?", self._not_found, {}
        label, handler = found
        return label, handler, {"tenant": tenant}

    async def _not_found(self, scope, receive, send) -> int:
        await _send_json(send, 404, {"error": "not found"})
        return 404

    async def _method_not_allowed(self, scope, receive, send, **_) -> int:
        await _send_json(send, 405, {"error": "method not allowed"})
        return 405

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #

    async def _ingest(self, scope, receive, send, *, tenant: str) -> int:
        body = await _read_body(receive)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"request body is not JSON: {error}")
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("points"), list)
        ):
            raise _HttpError(
                400, 'ingest body must be {"points": [[...], ...]}'
            )
        # Coercion and validation happen inside TenantStore.ingest
        # (all-or-nothing over the whole batch, with the offending
        # position in the error); a rejected batch is a 400 with the
        # tenant's state untouched.
        count = await self.tenants.ingest(tenant, payload["points"])
        self.metrics.observe_ingest(count)
        await _send_json(
            send,
            200,
            {"tenant": tenant, "ingested": count},
        )
        return 200

    async def _query(self, scope, receive, send, *, tenant: str) -> int:
        params = dict(parse_qsl(scope.get("query_string", b"").decode()))
        rng, kwargs = _query_args(params)
        result = await self.tenants.query(tenant, rng, **kwargs)
        await _send_json(
            send,
            200,
            {"tenant": tenant, "result": encode_result(result)},
        )
        return 200

    async def _checkpoint(self, scope, receive, send, *, tenant: str) -> int:
        envelope = await self.tenants.checkpoint(tenant)
        await _send_json(send, 200, envelope)
        return 200

    async def _delete(self, scope, receive, send, *, tenant: str) -> int:
        dropped = await self.tenants.drop(tenant)
        if not dropped:
            raise _HttpError(404, f"unknown tenant {tenant!r}")
        await _send_json(send, 200, {"tenant": tenant, "dropped": True})
        return 200

    async def _metrics(self, scope, receive, send) -> int:
        # Scrape-path discipline: counters() serves the spill population
        # from the store's O(1) count and store_stats() is a dict copy -
        # no enumeration of the envelope store per scrape.
        await _send_json(
            send,
            200,
            self.metrics.snapshot(
                self.tenants.counters(), self.tenants.store_stats()
            ),
        )
        return 200

    async def _stream(self, scope, receive, send, *, tenant: str) -> int:
        """SSE: one ``data:`` event with the query result per interval.

        Runs until the client disconnects (or ``?limit=`` events have
        been sent).  Each event re-queries the live summary, so a
        client watching the stream sees ingestion from other clients
        land between events.
        """
        params = dict(parse_qsl(scope.get("query_string", b"").decode()))
        try:
            interval = float(params.get("interval", self.spec.stream_interval))
            limit = int(params["limit"]) if "limit" in params else None
        except ValueError as error:
            raise _HttpError(400, f"bad stream parameter: {error}")
        if interval <= 0 or (limit is not None and limit < 1):
            raise _HttpError(400, "interval must be > 0 and limit >= 1")
        rng, kwargs = _query_args(params)

        await send(
            {
                "type": "http.response.start",
                "status": 200,
                "headers": [
                    (b"content-type", b"text/event-stream"),
                    (b"cache-control", b"no-cache"),
                ],
            }
        )
        disconnected = asyncio.Event()

        async def watch_disconnect() -> None:
            while True:
                message = await receive()
                if message["type"] == "http.disconnect":
                    disconnected.set()
                    return

        watcher = asyncio.create_task(watch_disconnect())
        sent = 0
        try:
            while not disconnected.is_set():
                try:
                    result = await self.tenants.query(tenant, rng, **kwargs)
                    event: dict[str, Any] = {
                        "tenant": tenant,
                        "result": encode_result(result),
                    }
                except (ReproError, TypeError) as error:
                    # The stream already committed its response; report
                    # per-event errors as events rather than tearing the
                    # connection down (an empty tenant becomes queryable
                    # as soon as ingestion lands).
                    event = {"tenant": tenant, "error": str(error)}
                event["seq"] = sent
                payload = f"data: {json.dumps(event)}\n\n".encode("utf-8")
                try:
                    await send(
                        {
                            "type": "http.response.body",
                            "body": payload,
                            "more_body": True,
                        }
                    )
                except Exception:
                    break  # client went away mid-send
                sent += 1
                if limit is not None and sent >= limit:
                    break
                try:
                    await asyncio.wait_for(
                        disconnected.wait(), timeout=interval
                    )
                except asyncio.TimeoutError:
                    pass
            try:
                await send(
                    {
                        "type": "http.response.body",
                        "body": b"",
                        "more_body": False,
                    }
                )
            except Exception:
                pass
        finally:
            watcher.cancel()
        return 200


def create_app(
    spec: ServiceSpec,
    *,
    store: StateBackend | None = None,
    clock=None,
) -> SummaryService:
    """Build the service's ASGI app from a validated :class:`ServiceSpec`."""
    return SummaryService(spec, store=store, clock=clock)


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #


def _query_args(params: dict[str, str]):
    """(rng, query kwargs) from request query parameters."""
    rng = None
    if "seed" in params:
        try:
            rng = random.Random(int(params["seed"]))
        except ValueError as error:
            raise _HttpError(400, f"bad seed: {error}")
    kwargs: dict[str, Any] = {}
    if "phi" in params:
        try:
            kwargs["phi"] = float(params["phi"])
        except ValueError as error:
            raise _HttpError(400, f"bad phi: {error}")
    return rng, kwargs


def encode_result(result: Any) -> Any:
    """JSON-encode a summary's query answer.

    Handles every registered summary's natural answer: stream points
    (sample queries), heavy-hitter records, lists of either, and plain
    numbers (F0 estimates).
    """
    vector = getattr(result, "vector", None)
    if vector is not None and hasattr(result, "index"):
        return {
            "vector": list(vector),
            "index": result.index,
            "time": result.time,
        }
    representative = getattr(result, "representative", None)
    if representative is not None:
        return {
            "count": result.count,
            "error": result.error,
            "guaranteed_count": result.guaranteed_count,
            "representative": encode_result(representative),
        }
    if isinstance(result, list):
        return [encode_result(item) for item in result]
    if isinstance(result, (bool, int, float, str)) or result is None:
        return result
    return repr(result)  # defensive: never 500 on an exotic answer


async def _read_body(receive) -> bytes:
    """Drain the request body (bounded by :data:`MAX_BODY_BYTES`)."""
    chunks: list[bytes] = []
    total = 0
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            raise _HttpError(400, "client disconnected mid-request")
        chunk = message.get("body", b"")
        total += len(chunk)
        if total > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        chunks.append(chunk)
        if not message.get("more_body", False):
            return b"".join(chunks)


async def _send_json(send, status: int, payload: dict[str, Any]) -> None:
    body = json.dumps(payload).encode("utf-8")
    await send(
        {
            "type": "http.response.start",
            "status": status,
            "headers": [
                (b"content-type", b"application/json"),
                (b"content-length", str(len(body)).encode("ascii")),
            ],
        }
    )
    await send(
        {"type": "http.response.body", "body": body, "more_body": False}
    )
