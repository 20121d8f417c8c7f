"""repro.service - the multi-tenant summary serving layer.

Everything below this package is batch or in-process; this is the
subsystem that serves it as traffic.  A long-running ASGI app keeps
**one summary per tenant key** (one distinct-count / heavy-hitter /
sliding-window sketch per user, API key or endpoint), built lazily
through :func:`repro.api.build`, with:

* **sharded asyncio locking** - same-tenant requests are strictly
  serialised, distinct tenants run concurrently
  (:class:`TenantStore`);
* **eviction to checkpoint** - cold tenants (LRU beyond ``capacity``,
  or idle past ``ttl_seconds``) are serialised through the versioned
  checkpoint envelope into a pluggable
  :class:`~repro.backends.StateBackend` (memory, per-tenant files or
  redis) and restored *fingerprint-exactly* on the next touch;
* **live metrics** - ``GET /metrics`` reports per-route counters and
  latency histograms, the tenant population, and ingest throughput
  (:mod:`repro.service.metrics`);
* **SSE streaming** - ``GET /v1/{tenant}/stream`` pushes periodic query
  results while the client stays connected.

The app (:func:`create_app`) is framework-free: hand it to uvicorn
(``python -m repro.cli serve ...``, or ``pip install repro[service]``)
or drive it in-process with :class:`repro.service.testing.ASGITestClient`
- no web dependency required.  The serving-layer invariant (interleaved
per-tenant traffic fingerprint-equals a serial replay, across
evict/restore cycles) is documented in ``docs/ARCHITECTURE.md`` and
enforced by ``tests/test_service.py``.

>>> import asyncio
>>> from repro.api import HeavyHittersSpec
>>> from repro.service import ServiceSpec, create_app
>>> from repro.service.testing import ASGITestClient
>>> app = create_app(ServiceSpec(
...     summary="heavy-hitters",
...     spec=HeavyHittersSpec(alpha=0.5, dim=1, seed=1, epsilon=0.1),
...     capacity=2,
... ))
>>> client = ASGITestClient(app)
>>> async def demo():
...     await client.post_json("/v1/key-1/ingest",
...                            {"points": [[0.0], [0.1], [9.0]]})
...     resp = await client.get("/v1/key-1/query?phi=0.5")
...     return [hit["count"] for hit in resp.json()["result"]]
>>> asyncio.run(demo())
[2]
"""

from repro.service.app import SummaryService, create_app
from repro.service.config import STORE_NAMES, ServiceSpec
from repro.service.metrics import ServiceMetrics
from repro.service.tenants import TenantStore, derive_tenant_seed

__all__ = [
    "STORE_NAMES",
    "ServiceSpec",
    "ServiceMetrics",
    "SummaryService",
    "TenantStore",
    "create_app",
    "derive_tenant_seed",
]
