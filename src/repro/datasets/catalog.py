"""The eight evaluation datasets of Section 6.1, ready to stream.

``paper_datasets`` materialises Rand5, Rand20, Yacht, Seeds and their
power-law variants (suffixed ``-pl``) with ground-truth group labels and
the separation threshold ``alpha`` implied by the near-duplicate transform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.datasets.near_duplicates import (
    add_near_duplicates,
    power_law_counts,
    uniform_counts,
)
from repro.datasets.synthetic import random_points
from repro.datasets.uci_like import seeds_like, yacht_like
from repro.streams.point import StreamPoint

Vector = tuple[float, ...]


@dataclass(frozen=True)
class LabeledDataset:
    """A noisy dataset with ground-truth group labels.

    Attributes
    ----------
    name:
        Dataset identifier (matches the paper, e.g. ``"Rand5-pl"``).
    vectors:
        All points, base points interleaved with their near-duplicates.
    labels:
        ``labels[i]`` is the group id of ``vectors[i]``.
    alpha:
        Distance threshold under which the dataset is well-separated.
    """

    name: str
    vectors: tuple[Vector, ...]
    labels: tuple[int, ...]
    alpha: float

    @property
    def dim(self) -> int:
        """Dimensionality of the points."""
        return len(self.vectors[0]) if self.vectors else 0

    @property
    def num_points(self) -> int:
        """Stream length m."""
        return len(self.vectors)

    @property
    def num_groups(self) -> int:
        """Ground-truth F0 (number of groups)."""
        return len(set(self.labels))

    def shuffled_stream(
        self, rng: random.Random
    ) -> tuple[list[StreamPoint], list[int]]:
        """Random arrival order (as the paper streams data), with labels.

        Returns ``(points, labels)`` where ``labels[i]`` is the group of
        ``points[i]`` and arrival indices run 0..m-1.
        """
        order = list(range(len(self.vectors)))
        rng.shuffle(order)
        points = [
            StreamPoint(self.vectors[j], i) for i, j in enumerate(order)
        ]
        labels = [self.labels[j] for j in order]
        return points, labels


_BASES: dict[str, Callable[[random.Random], list[Vector]]] = {
    "Rand5": lambda rng: random_points(500, 5, rng=rng),
    "Rand20": lambda rng: random_points(500, 20, rng=rng),
    "Yacht": lambda rng: yacht_like(rng=rng),
    "Seeds": lambda rng: seeds_like(rng=rng),
}


def _build(
    name: str,
    base: Sequence[Vector],
    *,
    power_law: bool,
    rng: random.Random,
) -> LabeledDataset:
    counts_fn = power_law_counts if power_law else uniform_counts
    counts = counts_fn(len(base), rng=rng)
    vectors, labels, alpha = add_near_duplicates(base, rng=rng, counts=counts)
    return LabeledDataset(
        name=name,
        vectors=tuple(vectors),
        labels=tuple(labels),
        alpha=alpha,
    )


def make_dataset(
    name: str, *, seed: int = 0, power_law: bool = False
) -> LabeledDataset:
    """Build one of the paper's base datasets with a near-dup transform.

    ``name`` is one of ``Rand5``, ``Rand20``, ``Yacht``, ``Seeds``.
    """
    if name not in _BASES:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(_BASES)}")
    # Deterministic per-(seed, name, variant) stream of randomness; str hash
    # randomisation makes built-in hash() unsuitable here.
    material = f"{seed}:{name}:{int(power_law)}".encode()
    rng = random.Random(int.from_bytes(material, "little"))
    base = _BASES[name](rng)
    full_name = f"{name}-pl" if power_law else name
    return _build(full_name, base, power_law=power_law, rng=rng)


def paper_datasets(
    *, seed: int = 0, names: Sequence[str] | None = None
) -> dict[str, LabeledDataset]:
    """All eight evaluation datasets keyed by name.

    >>> data = paper_datasets(seed=1, names=["Seeds"])
    >>> sorted(data)
    ['Seeds', 'Seeds-pl']
    """
    selected = list(names) if names is not None else list(_BASES)
    catalog: dict[str, LabeledDataset] = {}
    for name in selected:
        plain = make_dataset(name, seed=seed, power_law=False)
        power = make_dataset(name, seed=seed, power_law=True)
        catalog[plain.name] = plain
        catalog[power.name] = power
    return catalog
