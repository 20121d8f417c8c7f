"""The :class:`Summary` protocol: the one interface every summary speaks.

The paper defines a *family* of robust summaries (l0-samples, F0
estimates, heavy hitters) over one data model; this protocol is the
library-level reflection of that family.  Anything registered in
:mod:`repro.api.registry` implements:

* ``process_many(points) -> int`` - batched ingestion (the engine's
  state-equivalence contract of :class:`repro.core.base.StreamSampler`
  applies: batching is never observable in output);
* ``query(rng=None, **kwargs)`` - the summary's natural answer (a sample
  point, a list of samples, a float estimate, a heavy-hitter list);
* ``merge(*others)`` - a NEW summary of the same type over the union of
  the inputs' streams, or :class:`~repro.errors.MergeUnsupportedError`
  when exact merging is impossible (see each class's docstring);
* ``to_state() -> dict`` / ``from_state(state)`` - lossless round-trip
  through a JSON-compatible dict.  A restored summary continues the
  stream with *decisions identical* to the original: for every core
  sampler, ``repro.engine.state_fingerprint`` of the restored object
  equals the original's.

``summary_key`` is the class's registry key, embedded in checkpoint
envelopes so :func:`repro.persist.summary_from_state` can dispatch the
restore without being told the type.
"""

from __future__ import annotations

import random
from typing import Any, ClassVar, Iterable, Protocol, runtime_checkable

from repro.errors import MergeUnsupportedError, ParameterError


@runtime_checkable
class Summary(Protocol):
    """Structural interface shared by every registered summary."""

    #: Registry key of the class (e.g. ``"l0-infinite"``); written into
    #: checkpoint envelopes and used to dispatch restores.
    summary_key: ClassVar[str]

    def process_many(self, points: Iterable[Any]) -> int:
        """Ingest a batch; returns the number of points processed."""
        ...  # pragma: no cover - protocol

    def query(self, rng: random.Random | None = None, **kwargs: Any) -> Any:
        """Return the summary's natural answer (sample/estimate/hitters)."""
        ...  # pragma: no cover - protocol

    def merge(self, *others: "Summary") -> "Summary":
        """Combine with same-typed summaries into one over the union."""
        ...  # pragma: no cover - protocol

    def to_state(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dict (no envelope)."""
        ...  # pragma: no cover - protocol

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "Summary":
        """Rebuild an instance from :meth:`to_state` output."""
        ...  # pragma: no cover - protocol


def check_merge_peers(summary: Any, others: tuple[Any, ...]) -> None:
    """Shared preamble of every ``merge``: same concrete type throughout.

    Raises
    ------
    ParameterError
        When any peer is of a different type than ``summary``.
    """
    for other in others:
        # Subclass peers are allowed (e.g. a HighDimSamplerIW merges
        # through the inherited RobustL0SamplerIW.merge); unrelated
        # types are not.
        if not isinstance(other, type(summary)):
            raise ParameterError(
                f"cannot merge {type(summary).__name__} with "
                f"{type(other).__name__}"
            )


def check_compatible_configs(summary: Any, others: tuple[Any, ...]) -> None:
    """Merging requires value-identical grid + hash configurations.

    Two summaries built from the same spec (same seed) share equal-valued
    configurations even though the objects differ; summaries built with
    different seeds sample different cells and cannot be combined
    consistently.
    """
    reference = summary._config

    def signature(config):
        base = config.hash.base
        return (
            config.alpha,
            config.dim,
            config.grid.side,
            config.grid.offset,
            type(base).__name__,
            getattr(base, "seed", None),
            getattr(base, "coefficients", None),
        )

    expected = signature(reference)
    for other in others:
        if signature(other._config) != expected:
            raise ParameterError(
                "cannot merge summaries with different grid/hash "
                "configurations (build them from one spec, or share a "
                "config explicitly)"
            )


def merge_unsupported(summary: Any, reason: str) -> MergeUnsupportedError:
    """Uniform error for summaries that cannot merge."""
    return MergeUnsupportedError(
        f"{type(summary).__name__} does not support merge: {reason}"
    )
