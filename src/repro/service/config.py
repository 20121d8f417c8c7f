"""Frozen, validated configuration of the multi-tenant summary service.

A :class:`ServiceSpec` is to the serving layer what a
:class:`~repro.api.specs.SummarySpec` is to a single summary: immutable
declarative data, validated at construction, from which the live object
(here: the ASGI app and its tenant store) is built.  It names *which*
summary every tenant gets (a registry key plus the matching spec) and
*how* the service manages the tenant population (resident capacity,
idle TTL, envelope store, lock sharding, SSE cadence).

>>> from repro.api import F0InfiniteSpec
>>> spec = ServiceSpec(
...     summary="f0-infinite",
...     spec=F0InfiniteSpec(alpha=0.5, dim=2, seed=7, copies=3),
...     capacity=64,
... )
>>> spec.capacity
64
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.api.specs import SummarySpec
from repro.backends import StateBackend, make_backend
from repro.errors import ParameterError

#: Envelope-store choices ``ServiceSpec.store`` accepts (one per
#: :data:`repro.backends.BACKEND_NAMES` flavour).
STORE_NAMES = ("memory", "file", "redis")


@dataclass(frozen=True, kw_only=True)
class ServiceSpec:
    """What the service serves and how it manages tenants.

    Attributes
    ----------
    summary:
        Registry key of the summary kept per tenant (any key from
        :func:`repro.api.available`, including ``batch-pipeline``:
        eviction and shutdown close worker-owning summaries through
        their ``close()`` hook, so pipeline tenants cannot leak
        executors - see :meth:`repro.service.TenantStore.close`).
    spec:
        The summary spec every tenant is built from.  When ``spec.seed``
        is set, each tenant gets its own deterministically derived seed
        (see :meth:`repro.service.TenantStore.tenant_spec`), so restarts
        and serial replays reproduce per-tenant randomness exactly.
    capacity:
        Maximum tenants resident in memory; the least recently used is
        evicted to the envelope store beyond this.
    ttl_seconds:
        Idle time after which a resident tenant is evicted even under
        capacity (``None`` disables the TTL).
    lock_shards:
        Size of the asyncio lock table tenants hash onto.  More shards
        mean fewer false lock conflicts between distinct tenants; one
        shard serialises the whole service.
    store:
        Envelope store flavour - one state backend per choice
        (:mod:`repro.backends`): ``"memory"`` (default), ``"file"``
        (``store_path`` names the directory; evicted tenants then
        survive restarts) or ``"redis"`` (``store_url`` names the
        server; evicted tenants survive restarts *and* are visible to
        other machines; needs the ``[redis]`` extra).
    store_path:
        Directory of the file store (required iff ``store="file"``).
    store_url:
        ``redis://host:port/db`` URL (required iff ``store="redis"``).
    stream_interval:
        Default seconds between SSE events on ``GET /v1/{tenant}/stream``
        (overridable per request with ``?interval=``).
    """

    summary: str
    spec: SummarySpec
    capacity: int = 1024
    ttl_seconds: float | None = None
    lock_shards: int = 64
    store: Literal["memory", "file", "redis"] = "memory"
    store_path: str | None = None
    store_url: str | None = None
    stream_interval: float = 1.0

    def __post_init__(self) -> None:
        from repro.api import registry

        entry = registry.entry(self.summary)  # raises on unknown keys
        if not isinstance(self.spec, entry.spec_cls):
            raise ParameterError(
                f"summary {self.summary!r} expects a "
                f"{entry.spec_cls.__name__}, got {type(self.spec).__name__}"
            )
        if self.capacity < 1:
            raise ParameterError(
                f"capacity must be >= 1, got {self.capacity}"
            )
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ParameterError(
                f"ttl_seconds must be positive, got {self.ttl_seconds}"
            )
        if self.lock_shards < 1:
            raise ParameterError(
                f"lock_shards must be >= 1, got {self.lock_shards}"
            )
        if self.store not in STORE_NAMES:
            raise ParameterError(
                f"store must be one of {', '.join(STORE_NAMES)}, "
                f"got {self.store!r}"
            )
        if (self.store == "file") != (self.store_path is not None):
            raise ParameterError(
                "store_path is required for store='file' and meaningless "
                "otherwise"
            )
        if (self.store == "redis") != (self.store_url is not None):
            raise ParameterError(
                "store_url is required for store='redis' and meaningless "
                "otherwise"
            )
        if self.stream_interval <= 0:
            raise ParameterError(
                f"stream_interval must be positive, got {self.stream_interval}"
            )

    def build_store(self) -> StateBackend:
        """The envelope store this spec describes: the matching
        :class:`~repro.backends.StateBackend`, keyed by tenant.

        ``store="redis"`` raises
        :class:`~repro.errors.BackendUnavailableError` here - at build
        time, not at spec validation - when the ``redis`` package is
        not installed.
        """
        return make_backend(
            self.store, path=self.store_path, url=self.store_url
        )
