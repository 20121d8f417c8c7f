"""Shared seeded stream generators for the test suite.

One home for the generators that used to be copy-pasted across
``test_engine.py`` / ``test_persist.py`` / ``test_api.py``; the
property-based harness (``test_property_equivalence.py``) builds on the
same shapes.  Kept outside ``conftest.py`` because the repo has a second
conftest under ``benchmarks/`` - a bare ``import conftest`` from a test
module is ambiguous, ``import stream_generators`` is not.
``tests/conftest.py`` re-exports these for fixture-style use.
"""

from __future__ import annotations

import random


def noisy_grid_stream(n, groups, seed, dim=2, spacing=25.0):
    """Seeded random stream of near-duplicate clusters (raw tuples).

    ``groups`` tight clusters on a ``spacing``-spaced lattice; the shared
    generator behind the differential suites.
    """
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        g = rng.randrange(groups)
        base = (spacing * (g % 50), spacing * (g // 50))
        points.append(
            tuple(base[axis % 2] + rng.uniform(0.0, 0.4) for axis in range(dim))
        )
    return points


def line_stream(n, seed, groups):
    """Seeded 1-D stream of ``groups`` clusters on a 25-spaced line.

    The shared generator behind the API-contract and persistence suites
    and the property harness.
    """
    rng = random.Random(seed)
    return [
        (25.0 * rng.randrange(groups) + rng.uniform(0, 0.4),)
        for _ in range(n)
    ]


def poisoned_chunk(config):
    """A validated one-point chunk whose array is then overwritten with NaN.

    No submitter can build it - ``chunk_geometry_for`` rejects NaN - so
    it stands for a chunk corrupted past the submit boundary: handed
    straight to an executor, it reaches a worker whose own validation
    rejects it, which poisons the worker.
    """
    from repro.core.chunk_geometry import chunk_geometry_for

    chunk = chunk_geometry_for(config, [(0.0,) * config.dim])
    chunk.array[:] = float("nan")
    return chunk
