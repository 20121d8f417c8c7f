"""String-keyed registry: one construction path for every summary.

``build("l0-sliding", spec)`` turns a validated
:class:`~repro.api.specs.SummarySpec` into a live summary; the same
table drives checkpoint restores (:func:`repro.persist.summary_from_state`
looks the envelope's ``summary`` key up here) and the generic contract
test in ``tests/test_api.py`` (every registered key must build, ingest,
query, checkpoint and - where supported - merge through the same code
path).

Extensions register their own summaries with :func:`register_summary`;
the entry carries everything the rest of the library needs to treat the
new summary uniformly: its spec type, its class (for restore dispatch)
and a factory closing over any construction quirks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.api import specs as _specs
from repro.api.specs import SummarySpec
from repro.baselines.bjkst import BJKSTSketch
from repro.baselines.exact import ExactDistinctSampler
from repro.baselines.fm import FMSketch
from repro.baselines.hyperloglog import HyperLogLog
from repro.baselines.loglog import LogLogSketch
from repro.baselines.minrank import MinRankL0Sampler
from repro.baselines.naive import NaiveReservoirSampler
from repro.core.f0_infinite import RobustF0EstimatorIW
from repro.core.f0_sliding import RobustF0EstimatorSW
from repro.core.heavy_hitters import RobustHeavyHitters
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.ksample import KDistinctSampler
from repro.core.sliding_window import RobustL0SamplerSW
from repro.errors import ParameterError


@dataclass(frozen=True)
class SummaryEntry:
    """One registered summary kind."""

    key: str
    spec_cls: type[SummarySpec]
    summary_cls: type
    factory: Callable[..., Any]
    supports_merge: bool
    description: str


_REGISTRY: dict[str, SummaryEntry] = {}


def register_summary(
    key: str,
    spec_cls: type[SummarySpec],
    summary_cls: type,
    factory: Callable[..., Any],
    *,
    supports_merge: bool,
    description: str,
) -> None:
    """Register a summary kind under ``key`` (idempotent re-registration
    of the same class is allowed; conflicting keys are an error)."""
    existing = _REGISTRY.get(key)
    if existing is not None and existing.summary_cls is not summary_cls:
        raise ParameterError(
            f"registry key {key!r} already bound to "
            f"{existing.summary_cls.__name__}"
        )
    _REGISTRY[key] = SummaryEntry(
        key=key,
        spec_cls=spec_cls,
        summary_cls=summary_cls,
        factory=factory,
        supports_merge=supports_merge,
        description=description,
    )


def available() -> list[str]:
    """Sorted list of registered summary keys."""
    return sorted(_REGISTRY)


def entry(key: str) -> SummaryEntry:
    """The registry entry of ``key`` (raises on unknown keys)."""
    found = _REGISTRY.get(key)
    if found is None:
        raise ParameterError(
            f"unknown summary key {key!r}; available: "
            + ", ".join(available())
        )
    return found


def entries() -> list[SummaryEntry]:
    """All registry entries, sorted by key."""
    return [_REGISTRY[key] for key in available()]


def summary_class(key: str) -> type:
    """The summary class bound to ``key`` (checkpoint restore dispatch)."""
    return entry(key).summary_cls


def spec_class(key: str) -> type[SummarySpec]:
    """The spec dataclass bound to ``key``."""
    return entry(key).spec_cls


def spec_from_state(state: dict[str, Any]) -> SummarySpec:
    """Rebuild a spec from :meth:`SummarySpec.to_state` output."""
    fields = dict(state)
    key = fields.pop("key")
    return spec_class(key)(**fields)


def build(key: str, spec: SummarySpec | None = None, **kwargs: Any) -> Any:
    """Construct the summary registered under ``key``.

    Parameters
    ----------
    key:
        Registry key, e.g. ``"l0-sliding"``; see :func:`available`.
    spec:
        A matching spec instance.  When omitted, one is built from
        ``kwargs`` (so ``build("l0-infinite", alpha=0.5, dim=2)`` works
        without importing the spec class).
    kwargs:
        With ``spec`` given: construction overrides forwarded to the
        factory (e.g. the coordinator passes ``config=`` so all shards
        share one grid/hash).  Without ``spec``: the spec's fields.

    >>> sampler = build("l0-infinite", alpha=0.5, dim=1, seed=3)
    >>> sampler.process_many([(0.0,), (0.1,), (9.0,)])
    3
    >>> round(sampler.estimate_f0())
    2
    """
    found = entry(key)
    if spec is None:
        spec = found.spec_cls(**kwargs)
        kwargs = {}
    elif not isinstance(spec, found.spec_cls):
        raise ParameterError(
            f"summary {key!r} expects a {found.spec_cls.__name__}, "
            f"got {type(spec).__name__}"
        )
    return found.factory(spec, **kwargs)


# --------------------------------------------------------------------- #
# built-in factories
# --------------------------------------------------------------------- #


def _build_l0_infinite(spec: _specs.L0InfiniteSpec, *, config=None):
    return RobustL0SamplerIW(
        spec.alpha,
        spec.dim,
        kappa0=spec.kappa0,
        expected_stream_length=spec.expected_stream_length,
        seed=spec.seed,
        grid_side=spec.grid_side,
        kwise=spec.kwise,
        track_members=spec.track_members,
        accept_capacity=spec.accept_capacity,
        config=config,
    )


def _build_l0_sliding(spec: _specs.L0SlidingSpec, *, config=None):
    return RobustL0SamplerSW(
        spec.alpha,
        spec.dim,
        spec.window_spec(),
        window_capacity=spec.window_capacity,
        kappa0=spec.kappa0,
        expected_stream_length=spec.expected_stream_length,
        seed=spec.seed,
        grid_side=spec.grid_side,
        kwise=spec.kwise,
        config=config,
    )


def _build_ksample(spec: _specs.KSampleSpec):
    return KDistinctSampler(
        spec.alpha,
        spec.dim,
        spec.k,
        replacement=spec.replacement,
        window=spec.window_spec(),
        window_capacity=spec.window_capacity,
        seed=spec.seed,
        kappa0=spec.kappa0,
        expected_stream_length=spec.expected_stream_length,
    )


def _build_f0_infinite(spec: _specs.F0InfiniteSpec):
    return RobustF0EstimatorIW(
        spec.alpha,
        spec.dim,
        epsilon=spec.epsilon,
        copies=spec.copies,
        kappa_b=spec.kappa_b,
        seed=spec.seed,
        grid_side=spec.grid_side,
    )


def _build_f0_sliding(spec: _specs.F0SlidingSpec):
    return RobustF0EstimatorSW(
        spec.alpha,
        spec.dim,
        spec.window_spec(),
        window_capacity=spec.window_capacity,
        copies=spec.copies,
        mode=spec.mode,
        calibration=spec.calibration,
        kappa0=spec.kappa0,
        seed=spec.seed,
    )


def _build_heavy_hitters(spec: _specs.HeavyHittersSpec):
    return RobustHeavyHitters(
        spec.alpha,
        spec.dim,
        epsilon=spec.epsilon,
        seed=spec.seed,
        phi=spec.phi,
    )


def _build_pipeline(spec: _specs.PipelineSpec):
    from repro.engine.pipeline import BatchPipeline

    return BatchPipeline(spec)


def _build_exact(spec: _specs.ExactSpec):
    return ExactDistinctSampler(spec.alpha, spec.dim, seed=spec.seed)


def _build_naive(spec: _specs.NaiveReservoirSpec):
    import random

    rng = random.Random(spec.seed) if spec.seed is not None else None
    return NaiveReservoirSampler(rng=rng)


def _build_minrank(spec: _specs.MinRankSpec):
    return MinRankL0Sampler(seed=spec.seed if spec.seed is not None else 0)


def _build_fm(spec: _specs.FMSpec):
    return FMSketch(
        copies=spec.copies, seed=spec.seed if spec.seed is not None else 0
    )


def _build_loglog(spec: _specs.LogLogSpec):
    return LogLogSketch(
        bucket_bits=spec.bucket_bits,
        seed=spec.seed if spec.seed is not None else 0,
    )


def _build_hyperloglog(spec: _specs.HyperLogLogSpec):
    return HyperLogLog(
        bucket_bits=spec.bucket_bits,
        seed=spec.seed if spec.seed is not None else 0,
    )


def _build_bjkst(spec: _specs.BJKSTSpec):
    return BJKSTSketch(
        epsilon=spec.epsilon,
        kappa=spec.kappa,
        seed=spec.seed if spec.seed is not None else 0,
    )


def _register_builtins() -> None:
    from repro.engine.pipeline import BatchPipeline

    register_summary(
        "l0-infinite",
        _specs.L0InfiniteSpec,
        RobustL0SamplerIW,
        _build_l0_infinite,
        supports_merge=True,
        description="Algorithm 1: robust l0-sample, infinite window",
    )
    register_summary(
        "l0-sliding",
        _specs.L0SlidingSpec,
        RobustL0SamplerSW,
        _build_l0_sliding,
        supports_merge=False,
        description="Algorithms 3-5: robust l0-sample, sliding window",
    )
    register_summary(
        "ksample",
        _specs.KSampleSpec,
        KDistinctSampler,
        _build_ksample,
        supports_merge=True,
        description="Section 2.3: k distinct samples (+/- replacement)",
    )
    register_summary(
        "f0-infinite",
        _specs.F0InfiniteSpec,
        RobustF0EstimatorIW,
        _build_f0_infinite,
        supports_merge=True,
        description="Section 5: (1+eps) robust F0, infinite window",
    )
    register_summary(
        "f0-sliding",
        _specs.F0SlidingSpec,
        RobustF0EstimatorSW,
        _build_f0_sliding,
        supports_merge=False,
        description="Section 5: robust F0 over a sliding window",
    )
    register_summary(
        "heavy-hitters",
        _specs.HeavyHittersSpec,
        RobustHeavyHitters,
        _build_heavy_hitters,
        supports_merge=True,
        description="SpaceSaving over near-duplicate groups",
    )
    register_summary(
        "batch-pipeline",
        _specs.PipelineSpec,
        BatchPipeline,
        _build_pipeline,
        supports_merge=False,
        description="Sharded batched ingestion over l0-infinite shards "
        "(serial/process/remote executors)",
    )
    register_summary(
        "exact",
        _specs.ExactSpec,
        ExactDistinctSampler,
        _build_exact,
        supports_merge=True,
        description="Ground truth: Omega(n)-space exact distinct sampler",
    )
    register_summary(
        "naive-reservoir",
        _specs.NaiveReservoirSpec,
        NaiveReservoirSampler,
        _build_naive,
        supports_merge=True,
        description="Motivation baseline: uniform reservoir over raw points",
    )
    register_summary(
        "minrank",
        _specs.MinRankSpec,
        MinRankL0Sampler,
        _build_minrank,
        supports_merge=True,
        description="Folklore noiseless min-rank l0-sampler",
    )
    register_summary(
        "fm",
        _specs.FMSpec,
        FMSketch,
        _build_fm,
        supports_merge=True,
        description="Flajolet-Martin noiseless F0 sketch",
    )
    register_summary(
        "loglog",
        _specs.LogLogSpec,
        LogLogSketch,
        _build_loglog,
        supports_merge=True,
        description="Durand-Flajolet LogLog noiseless F0 sketch",
    )
    register_summary(
        "hyperloglog",
        _specs.HyperLogLogSpec,
        HyperLogLog,
        _build_hyperloglog,
        supports_merge=True,
        description="HyperLogLog noiseless F0 sketch",
    )
    register_summary(
        "bjkst",
        _specs.BJKSTSpec,
        BJKSTSketch,
        _build_bjkst,
        supports_merge=True,
        description="BJKST noiseless F0 sketch",
    )


_register_builtins()
