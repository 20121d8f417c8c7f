"""Synthetic base point clouds.

Everything returns plain lists of float tuples (the library's vector
type).  numpy is used internally where it simplifies the generation.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.errors import ParameterError

Vector = tuple[float, ...]


def random_points(
    n: int, dim: int, *, rng: random.Random | None = None
) -> list[Vector]:
    """``n`` points uniform in ``(0, 1)^dim`` - the paper's RandD base sets.

    >>> pts = random_points(5, 3, rng=random.Random(0))
    >>> len(pts), len(pts[0])
    (5, 3)
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    rng = rng if rng is not None else random.Random()
    return [tuple(rng.random() for _ in range(dim)) for _ in range(n)]


def gaussian_clusters(
    n: int,
    dim: int,
    num_clusters: int,
    *,
    spread: float = 0.05,
    rng: random.Random | None = None,
) -> tuple[list[Vector], list[int]]:
    """Points from a Gaussian mixture with uniformly placed centers.

    Returns ``(points, cluster labels)``.  Cluster sizes differ by at most
    one.  Used by the UCI-like stand-ins.
    """
    if num_clusters < 1:
        raise ParameterError(f"num_clusters must be >= 1, got {num_clusters}")
    rng = rng if rng is not None else random.Random()
    centers = [tuple(rng.random() for _ in range(dim)) for _ in range(num_clusters)]
    points: list[Vector] = []
    labels: list[int] = []
    for i in range(n):
        label = i % num_clusters
        center = centers[label]
        points.append(tuple(c + rng.gauss(0.0, spread) for c in center))
        labels.append(label)
    return points, labels


def well_separated_clusters(
    num_groups: int,
    points_per_group: int,
    dim: int,
    *,
    alpha: float = 1.0,
    separation: float = 4.0,
    rng: random.Random | None = None,
) -> tuple[list[Vector], list[int], float]:
    """A dataset that is well-separated *by construction*.

    Group centers sit on a scaled integer lattice so that any two centers
    are at least ``separation * alpha`` apart; members are placed within
    ``alpha / 2`` of their center, giving intra-group diameter <= alpha and
    inter-group distance > (separation - 1) * alpha.

    Returns ``(points, labels, alpha)``.

    >>> pts, labels, a = well_separated_clusters(3, 4, 2, rng=random.Random(1))
    >>> len(pts), len(set(labels)), a
    (12, 3, 1.0)
    """
    if separation <= 3.0:
        # Centers are `separation * alpha` apart and members wander alpha/2
        # from them, so the inter-group gap is (separation - 1) * alpha;
        # well-separatedness needs that gap to exceed 2 * alpha.
        raise ParameterError(
            f"separation must exceed 3 for well-separatedness, got {separation}"
        )
    rng = rng if rng is not None else random.Random()
    # Lattice of candidate centers, subsampled without replacement.
    per_axis = max(2, math.ceil(num_groups ** (1.0 / dim)) + 1)
    lattice = []
    needed = num_groups
    # Enumerate lattice nodes lazily in mixed-radix order; stop once we have
    # enough candidates (shuffled afterwards for randomness).
    total_nodes = per_axis**dim
    candidates = min(total_nodes, max(needed * 4, needed))
    chosen_indices = rng.sample(range(total_nodes), candidates)
    for flat in chosen_indices:
        node = []
        for _ in range(dim):
            node.append(flat % per_axis)
            flat //= per_axis
        lattice.append(tuple(node))
        if len(lattice) >= needed:
            break
    if len(lattice) < needed:
        raise ParameterError(
            f"cannot place {num_groups} groups in dimension {dim}; "
            "increase dim or reduce num_groups"
        )
    scale = separation * alpha
    centers = [tuple(scale * c for c in node) for node in lattice[:needed]]

    radius = alpha / 2.0
    points: list[Vector] = []
    labels: list[int] = []
    for g, center in enumerate(centers):
        for _ in range(points_per_group):
            direction = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            norm = math.sqrt(sum(x * x for x in direction)) or 1.0
            length = radius * rng.random()
            points.append(
                tuple(c + length * x / norm for c, x in zip(center, direction))
            )
            labels.append(g)
    return points, labels, alpha


def overlapping_chain(
    num_links: int,
    dim: int,
    *,
    alpha: float = 1.0,
    step_fraction: float = 0.75,
    points_per_link: int = 3,
    rng: random.Random | None = None,
) -> tuple[list[Vector], float]:
    """A *general* (non-well-separated) dataset: a chain of overlapping blobs.

    Consecutive blob centers are ``step_fraction * alpha`` apart along the
    first axis, so distances hop between "within alpha" and "slightly above
    alpha" and no natural partition exists.  Exercises Theorem 3.1.

    Returns ``(points, alpha)`` - there is deliberately no ground-truth
    labelling; use :mod:`repro.partition` to compute reference partitions.
    """
    if not 0 < step_fraction < 2:
        raise ParameterError(
            f"step_fraction must be in (0, 2), got {step_fraction}"
        )
    rng = rng if rng is not None else random.Random()
    jitter = alpha / 20.0
    points: list[Vector] = []
    for link in range(num_links):
        base = link * step_fraction * alpha
        for _ in range(points_per_link):
            coords = [base + rng.uniform(-jitter, jitter)]
            coords.extend(rng.uniform(-jitter, jitter) for _ in range(dim - 1))
            points.append(tuple(coords))
    return points, alpha


def sparse_high_dim(
    num_groups: int,
    points_per_group: int,
    dim: int,
    *,
    alpha: float = 1.0,
    rng: random.Random | None = None,
    ratio_margin: float = 1.5,
) -> tuple[list[Vector], list[int], float]:
    """An ``(alpha, beta)``-sparse dataset with ``beta > dim**1.5 * alpha``.

    Exercises the high-dimensional sampler of Section 4.  Centers are
    random orthant corners of a hypercube with side ``ratio_margin *
    dim**1.5 * alpha * 2`` (pairwise center distance is then at least twice
    the required beta); members lie within ``alpha / 2`` of their center.

    Returns ``(points, labels, alpha)``.
    """
    rng = rng if rng is not None else random.Random()
    beta = dim**1.5 * alpha
    side = ratio_margin * 2.0 * beta
    seen: set[tuple[int, ...]] = set()
    centers = []
    attempts = 0
    while len(centers) < num_groups:
        corner = tuple(rng.randrange(2) for _ in range(dim))
        attempts += 1
        if attempts > 100 * num_groups + 100:
            raise ParameterError(
                f"cannot place {num_groups} sparse groups in dimension {dim}"
            )
        if corner in seen:
            continue
        seen.add(corner)
        centers.append(tuple(side * c for c in corner))
    points: list[Vector] = []
    labels: list[int] = []
    radius = alpha / 2.0
    for g, center in enumerate(centers):
        for _ in range(points_per_group):
            direction = np.random.default_rng(rng.randrange(2**32)).normal(size=dim)
            norm = float(np.linalg.norm(direction)) or 1.0
            length = radius * rng.random()
            points.append(
                tuple(float(c + length * d / norm) for c, d in zip(center, direction))
            )
            labels.append(g)
    return points, labels, alpha
