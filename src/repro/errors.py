"""Exception types shared across the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ParameterError(ReproError, ValueError):
    """An argument is outside its documented domain."""


class DimensionMismatchError(ParameterError):
    """A point's dimensionality does not match the structure it is fed to."""


class LevelOverflowError(ReproError, RuntimeError):
    """The sliding-window hierarchy ran out of levels.

    This corresponds to Algorithm 3 returning "error" (Line 17); the paper
    shows it happens with probability at most 1/m^2 (Lemma 2.8).
    """


class EmptySampleError(ReproError, RuntimeError):
    """A sample was requested but the sampler holds no points.

    Raised when querying an empty stream, or in the (provably negligible)
    event that every tracked point was subsampled away.
    """


class MergeUnsupportedError(ReproError, RuntimeError):
    """This summary does not support merging.

    Raised by :meth:`repro.api.Summary.merge` implementations whose state
    cannot be combined exactly (e.g. the sliding-window hierarchy, whose
    level assignment depends on the full interleaved arrival order, not
    just on the union of the two states).
    """


class ExecutorError(ReproError, RuntimeError):
    """A shard executor's worker failed or became unusable.

    Raised when a process or remote shard worker hit an exception while
    ingesting a chunk (the original traceback is embedded in the
    message), when a worker process died unexpectedly, or when work is
    submitted to a closed executor.
    """


class CheckpointError(ReproError, ValueError):
    """A checkpoint envelope cannot be written or restored.

    Raised for unknown format versions, unregistered summary keys, and
    summaries whose state is not serialisable (e.g. a
    :class:`~repro.baselines.minrank.MinRankL0Sampler` with a custom
    ``key`` callable).
    """


class BackendError(ReproError, RuntimeError):
    """A state backend operation failed (I/O, protocol, connectivity)."""


class BackendUnavailableError(BackendError):
    """The requested backend cannot run in this environment.

    Raised when constructing a backend whose driver is not importable
    (e.g. :class:`repro.backends.RedisBackend` without the ``redis``
    package - install the ``[redis]`` extra).
    """


class CASConflictError(BackendError):
    """A compare-and-swap lost the race: the key's version moved.

    Carries the version the writer expected and the version the backend
    actually held, so the caller can re-read, rebase its update on the
    winner's state, and retry - the losing write is never applied, even
    partially.
    """

    def __init__(
        self, key: str, *, expected_version: int, actual_version: int
    ) -> None:
        super().__init__(
            f"compare_and_swap on {key!r} expected version "
            f"{expected_version}, backend holds {actual_version}"
        )
        self.key = key
        self.expected_version = expected_version
        self.actual_version = actual_version
