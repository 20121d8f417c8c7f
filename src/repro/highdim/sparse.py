"""Samplers for (alpha, beta)-sparse data in high dimension (Theorem 4.1).

The only change relative to Section 2 is the grid: side length
``d * alpha`` instead of ``alpha / sqrt(d)``.  Every cell still meets at
most one group (the sparsity gives inter-group distance > d**1.5 * alpha,
which exceeds the cell diameter d**1.5 * alpha only marginally - exactly
the paper's setting), a group meets at most ``2^d`` cells in the worst
case but only O(1) in expectation over the random grid shift (Lemma 4.2),
and the DFS adjacency search prunes to those few cells.

These classes are thin wrappers that pick the Section 4 grid, validate the
sparsity promise, and optionally apply Johnson-Lindenstrauss projection
first (Remark 2).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.base import DEFAULT_KAPPA0, SamplerConfig
from repro.core.chunk_geometry import ChunkGeometry, coerce_rows, is_chunk
from repro.core.infinite_window import RobustL0SamplerIW
from repro.core.sliding_window import RobustL0SamplerSW
from repro.errors import CheckpointError, ParameterError
from repro.highdim.jl import JohnsonLindenstrauss, jl_dimension
from repro.streams.point import StreamPoint
from repro.streams.windows import WindowSpec


def _highdim_config(
    alpha: float, dim: int, seed: int | None, kwise: int | None
) -> SamplerConfig:
    return SamplerConfig.create(
        alpha, dim, seed=seed, grid_side=dim * alpha, kwise=kwise
    )


class HighDimSamplerIW(RobustL0SamplerIW):
    """Infinite-window robust sampler configured per Section 4.

    Requires the dataset to be ``(alpha, beta)``-sparse with
    ``beta > dim**1.5 * alpha`` (use
    :func:`repro.datasets.validation.validate_sparse` to check offline).

    With ``project_to`` / ``num_points`` set, points are first projected
    by Johnson-Lindenstrauss to ``O(log m)`` dimensions (Remark 2), which
    weakens the sparsity requirement to
    ``beta > c * log(m)**1.5 * alpha``.
    """

    def __init__(
        self,
        alpha: float,
        dim: int,
        *,
        kappa0: float = DEFAULT_KAPPA0,
        expected_stream_length: int | None = None,
        seed: int | None = None,
        kwise: int | None = None,
        project_to: int | None = None,
        num_points: int | None = None,
        jl_epsilon: float = 0.5,
    ) -> None:
        self._projection: JohnsonLindenstrauss | None = None
        effective_dim = dim
        effective_alpha = alpha
        if project_to is not None or num_points is not None:
            if project_to is None:
                assert num_points is not None
                project_to = jl_dimension(num_points, jl_epsilon)
            if project_to >= dim:
                raise ParameterError(
                    f"projection target {project_to} is not below dim {dim}"
                )
            jl_seed = None if seed is None else seed ^ 0x7A11
            self._projection = JohnsonLindenstrauss(dim, project_to, seed=jl_seed)
            effective_dim = project_to
            # Distances may stretch by (1 + eps); widen alpha accordingly
            # so near-duplicates stay within threshold after projection.
            effective_alpha = alpha * (1.0 + jl_epsilon)
        config = _highdim_config(effective_alpha, effective_dim, seed, kwise)
        super().__init__(
            effective_alpha,
            effective_dim,
            kappa0=kappa0,
            expected_stream_length=expected_stream_length,
            config=config,
        )
        self._native_dim = dim

    @property
    def native_dim(self) -> int:
        """Dimensionality of the points as fed by the caller."""
        return self._native_dim

    @property
    def projection(self) -> JohnsonLindenstrauss | None:
        """The JL projection, if one is active."""
        return self._projection

    def insert(self, point: StreamPoint | Sequence[float]) -> None:
        """Insert a native-dimension point (projecting when configured)."""
        if self._projection is None:
            super().insert(point)
            return
        super().insert(self._project([point])[0])

    def process_many(
        self,
        points: Iterable[StreamPoint | Sequence[float]],
        *,
        geometry: ChunkGeometry | None = None,
    ) -> int:
        """Batched :meth:`insert` of native-dimension points.

        With a projection the chunk is validated and projected whole
        (:meth:`_project`, the routine ``insert`` uses, so both paths
        see the same bits) before the parent ingests it.
        """
        if self._projection is None:
            return super().process_many(points, geometry=geometry)
        if geometry is None and not is_chunk(points):
            return self.extend(points)
        return super().process_many(self._project(points), geometry=geometry)

    def to_state(self) -> dict[str, Any]:
        """Checkpoint state of a sampler without a projection.

        A projecting sampler has no checkpoint form: the envelope holds
        the projected-space state only, so a restore would be a plain
        ``project_to``-dimensional sampler without the JL matrix, which
        rejects the native rows it is fed.  It raises
        :class:`~repro.errors.CheckpointError` instead.
        """
        if self._projection is not None:
            raise CheckpointError(
                "a HighDimSamplerIW with a Johnson-Lindenstrauss projection "
                f"({self._native_dim} -> {self.dim} dims) cannot be "
                "checkpointed: the state does not carry the projection"
            )
        return super().to_state()

    @classmethod
    def _construct_for_restore(
        cls, state: dict[str, Any], config: SamplerConfig, policy
    ) -> "HighDimSamplerIW":
        """The empty shell ``from_state`` fills: the Section 4 grid
        arrives with ``config``, and a checkpointed sampler never
        projects (:meth:`to_state`)."""
        sampler = cls.__new__(cls)
        RobustL0SamplerIW.__init__(
            sampler,
            config.alpha,
            config.dim,
            kappa0=policy.kappa0,
            expected_stream_length=policy.expected_stream_length,
            accept_capacity=policy.fixed,
            track_members=state["track_members"],
            config=config,
        )
        sampler._projection = None
        sampler._native_dim = config.dim
        return sampler

    def _project(
        self, points: Iterable[StreamPoint | Sequence[float]]
    ) -> list[StreamPoint | tuple[float, ...]]:
        """Check native rows, then project each one (arrival metadata of
        a :class:`StreamPoint` is kept).  A row that is not a sequence of
        ``native_dim`` numbers raises
        :class:`~repro.errors.ParameterError` naming its position."""
        items, vectors, _ = coerce_rows(points, self._native_dim)
        project = self._projection.project
        return [
            StreamPoint(project(vector), item.index, item.time)
            if isinstance(item, StreamPoint)
            else project(vector)
            for item, vector in zip(items, vectors)
        ]


class HighDimSamplerSW(RobustL0SamplerSW):
    """Sliding-window robust sampler configured per Section 4.

    Corollary 4.3: O(d log w log m) words for (alpha, beta)-sparse data
    with ``beta > dim**1.5 * alpha``.
    """

    def __init__(
        self,
        alpha: float,
        dim: int,
        window: WindowSpec,
        *,
        window_capacity: int | None = None,
        kappa0: float = DEFAULT_KAPPA0,
        expected_stream_length: int | None = None,
        seed: int | None = None,
        kwise: int | None = None,
    ) -> None:
        config = _highdim_config(alpha, dim, seed, kwise)
        super().__init__(
            alpha,
            dim,
            window,
            window_capacity=window_capacity,
            kappa0=kappa0,
            expected_stream_length=expected_stream_length,
            config=config,
        )
