"""Keyed tenant summaries: lazy build, sharded locks, evict-to-envelope.

The :class:`TenantStore` is the serving layer's state machine.  Each
tenant key owns one summary, built lazily through
:func:`repro.api.build` on first touch; traffic for a tenant is
serialised by an asyncio lock drawn from a sharded lock table (distinct
tenants almost never contend, same-tenant requests are strictly
ordered); cold tenants are evicted - by LRU count beyond ``capacity``
and by idle TTL - into a :class:`~repro.backends.StateBackend` (the
envelope store) as checkpoint-envelope bytes, and transparently
restored on the next touch.

The correctness invariant everything above this module leans on:

    **per-tenant serial order** - the summary a tenant holds after any
    interleaving of concurrent clients (including evict/restore cycles
    mid-traffic) is ``state_fingerprint``-identical to a fresh summary
    fed the same per-tenant point sequence serially.

That holds because (a) each tenant's operations run under its lock, so
its per-tenant sequence is well defined, (b) summaries are deterministic
given their spec and input sequence, and (c) the checkpoint envelope
protocol is exact (restore continues with decisions identical to the
original - the PR-2 contract).  ``tests/test_service.py`` enforces it
differentially.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import OrderedDict
from hashlib import blake2b
from typing import Any, Callable, Iterable

from repro.api import build
from repro.backends import StateBackend
from repro.core.base import coerce_points
from repro.persist import dumps_summary, loads_summary, summary_to_state
from repro.service.config import ServiceSpec

__all__ = ["TenantStore", "derive_tenant_seed"]


def derive_tenant_seed(base_seed: int, tenant: str) -> int:
    """Deterministic per-tenant seed from the service's base seed.

    Stable across processes and restarts (builtin ``hash`` is neither),
    so a tenant rebuilt after a restart - or a serial replay in a test -
    draws identical randomness.
    """
    digest = blake2b(
        f"{base_seed}:{tenant}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % (2**62)


def _close_summary(summary: Any) -> None:
    """Release whatever resources ``summary`` holds, if any.

    Most summaries are plain in-memory objects; the ones that own
    workers (``batch-pipeline``'s executor threads/processes) expose
    ``close()``.  Eviction and drop call this so a tenant leaving
    memory never leaks its workers - the property that lets the
    service host pipeline tenants at all.
    """
    close = getattr(summary, "close", None)
    if callable(close):
        close()


class _Resident:
    """One in-memory tenant: its live summary and last-touch time."""

    __slots__ = ("summary", "last_touch")

    def __init__(self, summary: Any, last_touch: float) -> None:
        self.summary = summary
        self.last_touch = last_touch


class TenantStore:
    """One summary per tenant key, with locking and eviction.

    Parameters
    ----------
    spec:
        The validated service configuration.
    store:
        Backend evictions spill envelopes into, keyed by tenant;
        defaults to ``spec.build_store()``.  Its calls are synchronous
        and made under the tenant's lock: the built-in backends are
        fast enough that yielding the event loop around them buys
        nothing, so a network-backed one should batch or cache
        internally rather than block the loop for long.
    clock:
        Monotonic-seconds callable for TTL bookkeeping (injectable for
        tests; default :func:`time.monotonic`).
    """

    def __init__(
        self,
        spec: ServiceSpec,
        *,
        store: StateBackend | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.spec = spec
        self.store = store if store is not None else spec.build_store()
        self._clock = clock if clock is not None else time.monotonic
        self._resident: OrderedDict[str, _Resident] = OrderedDict()
        self._locks = [asyncio.Lock() for _ in range(spec.lock_shards)]
        self.evictions = 0
        self.restores = 0
        self.builds = 0
        self.drops = 0

    # ------------------------------------------------------------------ #
    # construction and locking
    # ------------------------------------------------------------------ #

    def tenant_spec(self, tenant: str):
        """The summary spec ``tenant``'s summary is built from.

        With a seeded service spec, each tenant gets its own
        deterministically derived seed (:func:`derive_tenant_seed`) so
        tenants sample independently yet reproducibly; an unseeded spec
        is used as-is (fresh randomness per build).
        """
        base = self.spec.spec
        if base.seed is None:
            return base
        return dataclasses.replace(
            base, seed=derive_tenant_seed(base.seed, tenant)
        )

    def fresh_summary(self, tenant: str) -> Any:
        """A brand-new summary as ``tenant`` would first receive it.

        This is the serial-replay oracle the differential tests use:
        feed it the tenant's recorded point sequence and its fingerprint
        must match the served tenant's.
        """
        return build(self.spec.summary, self.tenant_spec(tenant))

    def _lock_for(self, tenant: str) -> asyncio.Lock:
        digest = blake2b(tenant.encode("utf-8"), digest_size=8).digest()
        shard = int.from_bytes(digest, "big") % len(self._locks)
        return self._locks[shard]

    def _materialize(self, tenant: str) -> Any:
        """Resident summary for ``tenant`` (restore or build as needed).

        Must be called with the tenant's lock held.  Touches the tenant
        (LRU order + TTL timestamp).
        """
        entry = self._resident.get(tenant)
        if entry is None:
            data = self.store.get(tenant)
            if data is not None:
                summary = loads_summary(data)
                self.store.delete(tenant)
                self.restores += 1
            else:
                summary = self.fresh_summary(tenant)
                self.builds += 1
            entry = self._resident[tenant] = _Resident(
                summary, self._clock()
            )
        else:
            entry.last_touch = self._clock()
        self._resident.move_to_end(tenant)
        return entry.summary

    # ------------------------------------------------------------------ #
    # tenant operations (each serialised under the tenant's lock)
    # ------------------------------------------------------------------ #

    async def ingest(self, tenant: str, points: Iterable[Any]) -> int:
        """Feed a batch to ``tenant``'s summary; returns points ingested.

        All-or-nothing: an invalid batch raises
        :class:`~repro.errors.ParameterError` (an HTTP 400) and leaves
        the tenant's state unchanged, so a client retry cannot
        double-ingest a valid prefix.  The item sketches (specs without
        ``dim``) hash whatever they get, so for them the batch is
        checked here (:func:`~repro.core.base.coerce_points`): each row
        - a StreamPoint as its vector - reaches them as a tuple of
        finite floats, whose hash - unlike a string's or a NaN's - is
        the same in every process.
        """
        if getattr(self.spec.spec, "dim", None) is None:
            points = [coerced.vector for coerced in coerce_points(points, 0)]
        async with self._lock_for(tenant):
            summary = self._materialize(tenant)
            count = summary.process_many(points)
        await self.enforce()
        return count

    async def query(self, tenant: str, rng=None, **kwargs: Any) -> Any:
        """The tenant summary's natural answer (sample/estimate/hitters)."""
        async with self._lock_for(tenant):
            summary = self._materialize(tenant)
            result = summary.query(rng, **kwargs)
        await self.enforce()
        return result

    async def checkpoint(self, tenant: str) -> dict[str, Any]:
        """The tenant's current checkpoint envelope (tenant stays hot)."""
        async with self._lock_for(tenant):
            summary = self._materialize(tenant)
            envelope = summary_to_state(summary)
        await self.enforce()
        return envelope

    async def fingerprint(self, tenant: str) -> tuple:
        """``state_fingerprint`` of the tenant's summary (test surface)."""
        from repro.engine import state_fingerprint

        async with self._lock_for(tenant):
            summary = self._materialize(tenant)
            return state_fingerprint(summary)

    async def drop(self, tenant: str) -> bool:
        """Forget ``tenant`` entirely (memory and store)."""
        async with self._lock_for(tenant):
            entry = self._resident.pop(tenant, None)
            if entry is not None:
                _close_summary(entry.summary)
            was_stored = self.store.delete(tenant)
            dropped = entry is not None or was_stored
            if dropped:
                self.drops += 1
            return dropped

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #

    async def evict(self, tenant: str) -> bool:
        """Force-evict ``tenant`` to the envelope store.

        Returns whether the tenant was resident.  Must not be called
        while holding a tenant lock (it acquires the victim's).
        """
        async with self._lock_for(tenant):
            return self._evict_locked(tenant)

    def _evict_locked(self, tenant: str) -> bool:
        entry = self._resident.pop(tenant, None)
        if entry is None:
            return False
        # Serialise first: to_state() synchronises any workers the
        # summary owns (e.g. a batch-pipeline's executor), so the
        # envelope always captures the settled state; only then release
        # the summary's resources.
        self.store.put(tenant, dumps_summary(entry.summary))
        _close_summary(entry.summary)
        self.evictions += 1
        return True

    def _next_victim(self) -> str | None:
        """The tenant eviction policy wants gone next, if any.

        LRU order and last-touch order coincide (every touch moves the
        tenant to the OrderedDict's end), so only the front entry can
        ever be over TTL or over capacity.
        """
        if not self._resident:
            return None
        tenant, entry = next(iter(self._resident.items()))
        if len(self._resident) > self.spec.capacity:
            return tenant
        ttl = self.spec.ttl_seconds
        if ttl is not None and self._clock() - entry.last_touch >= ttl:
            return tenant
        return None

    async def enforce(self) -> int:
        """Apply the eviction policy until it is satisfied.

        Called after every tenant operation (and usable directly, e.g.
        by a periodic sweeper when traffic alone is too sparse to drive
        TTL eviction).  Returns the number of tenants evicted.  Must not
        be called while holding a tenant lock.
        """
        evicted = 0
        while True:
            victim = self._next_victim()
            if victim is None:
                return evicted
            async with self._lock_for(victim):
                # Re-check under the lock: the victim may have been
                # touched, dropped, or already evicted while we waited.
                if self._next_victim() == victim:
                    self._evict_locked(victim)
                    evicted += 1

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #

    async def close(self) -> None:
        """Evict every resident tenant and release the envelope store.

        The service's lifespan shutdown hook: each resident summary is
        serialised to the store (so summaries whose specs persist - file
        or redis stores - survive the restart) and then closed, which is
        what lets worker-owning summaries such as ``batch-pipeline`` be
        served per tenant without leaking executors on exit.  Safe to
        call more than once.
        """
        while True:
            tenants = list(self._resident)
            if not tenants:
                break
            for tenant in tenants:
                async with self._lock_for(tenant):
                    self._evict_locked(tenant)
        self.store.close()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def resident_count(self) -> int:
        """Tenants currently live in memory."""
        return len(self._resident)

    @property
    def spilled_count(self) -> int:
        """Tenants currently parked in the envelope store.

        Served from the backend's O(1)
        :meth:`~repro.backends.StateBackend.count` -
        this is on the ``/metrics`` scrape path, which must never pay a
        directory walk (or a network enumeration) per request.
        """
        return self.store.count()

    def resident_tenants(self) -> list[str]:
        """Resident tenant keys, least recently used first."""
        return list(self._resident)

    def counters(self) -> dict[str, Any]:
        """Population counters (the ``/metrics`` ``tenants`` section)."""
        return {
            "resident": self.resident_count,
            "spilled": self.spilled_count,
            "capacity": self.spec.capacity,
            "builds": self.builds,
            "evictions": self.evictions,
            "restores": self.restores,
            "drops": self.drops,
        }

    def store_stats(self) -> dict[str, int]:
        """Backend operation counters (the ``/metrics`` ``store`` section)."""
        return self.store.stats()

