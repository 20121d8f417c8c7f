"""Typed, frozen, validated configuration for every summary.

A :class:`SummarySpec` is the declarative half of the unified API: it
captures *what* to build (geometry, accuracy, window, seeds) as an
immutable dataclass whose invariants are checked at construction, and
the registry (:func:`repro.api.build`) turns it into a live summary.
Specs are plain data - hashable, comparable, serialisable with
``dataclasses.asdict`` - so they can be logged, shipped to shard
workers, or embedded in checkpoints verbatim.

Every spec knows its registry key (``spec.key``), so
``spec.build()`` is shorthand for ``repro.api.build(spec.key, spec)``.

>>> from repro.api.specs import L0InfiniteSpec
>>> spec = L0InfiniteSpec(alpha=0.5, dim=2, seed=7)
>>> sampler = spec.build()
>>> sampler.process_many([(0.0, 0.0), (0.1, 0.0), (9.0, 9.0)])
3
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Literal

from repro.core.base import DEFAULT_BATCH_SIZE, DEFAULT_KAPPA0
from repro.core.f0_infinite import DEFAULT_KAPPA_B
from repro.core.f0_sliding import FM_PHI
from repro.errors import ParameterError
from repro.streams.windows import SequenceWindow, TimeWindow, WindowSpec


@dataclass(frozen=True, kw_only=True)
class SummarySpec:
    """Base of every summary configuration.

    Attributes
    ----------
    seed:
        Master seed of the summary's randomness (grid offset, hash
        functions, per-copy derived seeds).  ``None`` draws fresh
        randomness - two summaries that are ever to be merged or
        differentially compared should fix it.
    """

    #: Registry key of the summary this spec builds (class attribute).
    key: ClassVar[str] = ""

    seed: int | None = None

    def build(self, **overrides: Any) -> Any:
        """Construct the summary this spec describes (via the registry)."""
        from repro.api.registry import build

        return build(type(self).key, self, **overrides)

    def to_state(self) -> dict[str, Any]:
        """Spec as a plain dict (stored inside checkpoint envelopes)."""
        state = dataclasses.asdict(self)
        state["key"] = type(self).key
        return state


@dataclass(frozen=True, kw_only=True)
class PointSummarySpec(SummarySpec):
    """Shared geometry of the point-stream summaries.

    Attributes
    ----------
    alpha:
        Near-duplicate distance threshold (the paper's user input).
    dim:
        Ambient dimension of the points.
    """

    alpha: float
    dim: int

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ParameterError(
                f"alpha must be positive, got {self.alpha}"
            )
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True, kw_only=True)
class WindowedSpec(PointSummarySpec):
    """Mixin for sliding-window summaries.

    Exactly one of ``window_size`` (sequence-based: last N points) and
    ``window_seconds`` (time-based: last w time units) selects the
    window flavour; ``window_capacity`` bounds the points per window
    (required for time-based windows).
    """

    window_size: int | None = None
    window_seconds: float | None = None
    window_capacity: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.window_size is None) == (self.window_seconds is None):
            raise ParameterError(
                "exactly one of window_size and window_seconds is required"
            )
        if self.window_size is not None and self.window_size < 1:
            raise ParameterError(
                f"window_size must be >= 1, got {self.window_size}"
            )
        if self.window_seconds is not None:
            if self.window_seconds <= 0:
                raise ParameterError(
                    f"window_seconds must be positive, got {self.window_seconds}"
                )
            if self.window_capacity is None:
                raise ParameterError(
                    "window_capacity is required for time-based windows "
                    "(the duration does not bound the point count)"
                )

    def window_spec(self) -> WindowSpec:
        """The live window object this spec describes."""
        if self.window_size is not None:
            return SequenceWindow(self.window_size)
        assert self.window_seconds is not None
        return TimeWindow(self.window_seconds)


@dataclass(frozen=True, kw_only=True)
class L0InfiniteSpec(PointSummarySpec):
    """Algorithm 1: robust l0-sampling in the infinite window."""

    key: ClassVar[str] = "l0-infinite"

    kappa0: float = DEFAULT_KAPPA0
    expected_stream_length: int | None = None
    grid_side: float | None = None
    kwise: int | None = None
    track_members: bool = False
    accept_capacity: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kappa0 <= 0:
            raise ParameterError(
                f"kappa0 must be positive, got {self.kappa0}"
            )


@dataclass(frozen=True, kw_only=True)
class L0SlidingSpec(WindowedSpec):
    """Algorithms 3-5: robust l0-sampling over a sliding window."""

    key: ClassVar[str] = "l0-sliding"

    kappa0: float = DEFAULT_KAPPA0
    expected_stream_length: int | None = None
    grid_side: float | None = None
    kwise: int | None = None


@dataclass(frozen=True, kw_only=True)
class KSampleSpec(PointSummarySpec):
    """Section 2.3: k distinct samples, with or without replacement.

    ``window_size``/``window_seconds`` are optional here (``None`` means
    the infinite window), unlike :class:`WindowedSpec` which requires a
    window.
    """

    key: ClassVar[str] = "ksample"

    k: int = 1
    replacement: bool = False
    window_size: int | None = None
    window_seconds: float | None = None
    window_capacity: int | None = None
    kappa0: float = DEFAULT_KAPPA0
    expected_stream_length: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.window_size is not None and self.window_seconds is not None:
            raise ParameterError(
                "window_size and window_seconds are mutually exclusive"
            )

    def window_spec(self) -> WindowSpec | None:
        """The window object, or ``None`` for the infinite window."""
        if self.window_size is not None:
            return SequenceWindow(self.window_size)
        if self.window_seconds is not None:
            return TimeWindow(self.window_seconds)
        return None


@dataclass(frozen=True, kw_only=True)
class F0InfiniteSpec(PointSummarySpec):
    """Section 5: (1 + eps) robust F0 estimation, infinite window."""

    key: ClassVar[str] = "f0-infinite"

    epsilon: float = 0.2
    copies: int = 9
    kappa_b: float = DEFAULT_KAPPA_B
    grid_side: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.epsilon <= 1:
            raise ParameterError(
                f"epsilon must be in (0, 1], got {self.epsilon}"
            )
        if self.copies < 1:
            raise ParameterError(f"copies must be >= 1, got {self.copies}")


@dataclass(frozen=True, kw_only=True)
class F0SlidingSpec(WindowedSpec):
    """Section 5: robust F0 estimation over a sliding window."""

    key: ClassVar[str] = "f0-sliding"

    copies: int = 16
    mode: Literal["ht", "fm", "hll"] = "ht"
    calibration: float = FM_PHI
    kappa0: float = DEFAULT_KAPPA0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.copies < 1:
            raise ParameterError(f"copies must be >= 1, got {self.copies}")
        if self.mode not in ("ht", "fm", "hll"):
            raise ParameterError(
                f"mode must be 'ht', 'fm' or 'hll', got {self.mode!r}"
            )


@dataclass(frozen=True, kw_only=True)
class HeavyHittersSpec(PointSummarySpec):
    """Robust heavy hitters (SpaceSaving over near-duplicate groups)."""

    key: ClassVar[str] = "heavy-hitters"

    epsilon: float = 0.01
    phi: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.epsilon <= 1:
            raise ParameterError(
                f"epsilon must be in (0, 1], got {self.epsilon}"
            )
        if not 0 < self.phi <= 1:
            raise ParameterError(f"phi must be in (0, 1], got {self.phi}")


@dataclass(frozen=True, kw_only=True)
class PipelineSpec(PointSummarySpec):
    """Sharded batched ingestion (:class:`repro.engine.BatchPipeline`).

    Attributes
    ----------
    executor:
        Where shard ingestion runs (see :mod:`repro.engine.executors`):
        ``"serial"`` (default) ingests chunks synchronously in the
        calling process, ``"process"`` ships them to worker processes
        holding shard replicas, whose states come home at the next
        synchronisation, ``"remote"`` enqueues chunks
        into a shared :class:`~repro.backends.base.StateBackend` served
        by lease-holding workers that may live on other machines
        (``python -m repro.cli worker``).  Every choice is
        ``state_fingerprint``-equivalent; only wall-clock throughput
        differs.
    num_workers:
        Worker processes for the process executor besides the
        submitting process (capped at ``num_shards``, the unit of
        parallelism); with fewer workers than shards the submitter
        ingests a share of the shards itself.  ``None`` means one
        worker per shard - except under the remote executor, where it
        means one *local* worker thread and ``0`` is allowed (every
        worker is an external process someone launches against the
        queue).  Ignored by the serial executor.
    queue_backend / queue_path / queue_url / queue_key / lease_ttl:
        Remote-executor knobs (rejected for every other executor).  The
        backend flavour (``"memory"`` default - in-process only, for
        the zero-configuration / test mode), its location, the queue's
        key namespace (default ``"remote-queue"``) and the seconds
        without a heartbeat before a worker's shard is stolen.  All
        plain data, so specs embed in checkpoints unchanged.
    """

    key: ClassVar[str] = "batch-pipeline"

    num_shards: int = 4
    batch_size: int = DEFAULT_BATCH_SIZE
    executor: Literal["serial", "process", "remote"] = "serial"
    num_workers: int | None = None
    queue_backend: Literal["memory", "file", "redis"] | None = None
    queue_path: str | None = None
    queue_url: str | None = None
    queue_key: str | None = None
    lease_ttl: float = 5.0
    kappa0: float = DEFAULT_KAPPA0
    expected_stream_length: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_shards < 1:
            raise ParameterError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.batch_size < 1:
            raise ParameterError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        from repro.engine.executors import EXECUTOR_NAMES

        if self.executor not in EXECUTOR_NAMES:
            raise ParameterError(
                f"executor must be one of {', '.join(EXECUTOR_NAMES)}, "
                f"got {self.executor!r}"
            )
        minimum_workers = 0 if self.executor == "remote" else 1
        if (
            self.num_workers is not None
            and self.num_workers < minimum_workers
        ):
            raise ParameterError(
                f"num_workers must be >= {minimum_workers}, "
                f"got {self.num_workers}"
            )
        if self.executor != "remote":
            for knob in (
                "queue_backend", "queue_path", "queue_url", "queue_key"
            ):
                if getattr(self, knob) is not None:
                    raise ParameterError(
                        f"{knob} applies only to the remote executor, "
                        f"but executor is {self.executor!r}"
                    )
        else:
            from repro.backends.base import BACKEND_NAMES

            if (
                self.queue_backend is not None
                and self.queue_backend not in BACKEND_NAMES
            ):
                raise ParameterError(
                    "queue_backend must be one of "
                    f"{', '.join(BACKEND_NAMES)}, got "
                    f"{self.queue_backend!r}"
                )
        if self.lease_ttl <= 0:
            raise ParameterError(
                f"lease_ttl must be > 0, got {self.lease_ttl}"
            )


# --------------------------------------------------------------------- #
# baselines
# --------------------------------------------------------------------- #


@dataclass(frozen=True, kw_only=True)
class ExactSpec(PointSummarySpec):
    """Ground truth: Omega(n)-space exact robust distinct sampler."""

    key: ClassVar[str] = "exact"


@dataclass(frozen=True, kw_only=True)
class NaiveReservoirSpec(SummarySpec):
    """Motivation baseline: uniform reservoir over raw points."""

    key: ClassVar[str] = "naive-reservoir"


@dataclass(frozen=True, kw_only=True)
class MinRankSpec(SummarySpec):
    """Folklore noiseless min-rank l0-sampler (identity = coordinates)."""

    key: ClassVar[str] = "minrank"


@dataclass(frozen=True, kw_only=True)
class FMSpec(SummarySpec):
    """Flajolet-Martin noiseless F0 sketch."""

    key: ClassVar[str] = "fm"

    copies: int = 16

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ParameterError(f"copies must be >= 1, got {self.copies}")


@dataclass(frozen=True, kw_only=True)
class LogLogSpec(SummarySpec):
    """Durand-Flajolet LogLog noiseless F0 sketch."""

    key: ClassVar[str] = "loglog"

    bucket_bits: int = 6

    def __post_init__(self) -> None:
        if not 2 <= self.bucket_bits <= 16:
            raise ParameterError(
                f"bucket_bits must be in [2, 16], got {self.bucket_bits}"
            )


@dataclass(frozen=True, kw_only=True)
class HyperLogLogSpec(SummarySpec):
    """HyperLogLog noiseless F0 sketch."""

    key: ClassVar[str] = "hyperloglog"

    bucket_bits: int = 8

    def __post_init__(self) -> None:
        if not 4 <= self.bucket_bits <= 16:
            raise ParameterError(
                f"bucket_bits must be in [4, 16], got {self.bucket_bits}"
            )


@dataclass(frozen=True, kw_only=True)
class BJKSTSpec(SummarySpec):
    """BJKST noiseless F0 sketch (the Section 5 framework's ancestor)."""

    key: ClassVar[str] = "bjkst"

    epsilon: float = 0.2
    kappa: float = 8.0

    def __post_init__(self) -> None:
        if not 0 < self.epsilon <= 1:
            raise ParameterError(
                f"epsilon must be in (0, 1], got {self.epsilon}"
            )
