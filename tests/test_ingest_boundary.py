"""Fuzz of the ingestion boundary: an invalid batch is rejected whole.

Invariant 1's rejection half (``docs/ARCHITECTURE.md``): a batch holding
any point that does not coerce to floats, has the wrong dimension,
arrives out of window order, or has no grid cell the int64 path can
carry raises one typed error and leaves the state exactly as it was -
no valid prefix is ingested.  Hypothesis places one point of a hostile
alphabet at any position of chunks of size 1, 3, ``MIN_VECTOR_CHUNK``
and 200, and drives every surface that ingests points:

* ``insert`` and ``process_many`` of every point summary (the registry
  keys with a ``dim``) and of the grid-less point baselines;
* ``BatchPipeline.submit`` under each executor;
* HTTP ingest (400, checkpoint unchanged);
* CLI input (exit 1, one ``error:`` line, no ``--save-state`` file).
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import math
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import L0InfiniteSpec, PipelineSpec, build
from repro.cli import main
from repro.core.base import SamplerConfig, check_vector
from repro.core.chunk_geometry import MIN_VECTOR_CHUNK
from repro.core.infinite_window import RobustL0SamplerIW
from repro.engine.equivalence import state_fingerprint
from repro.engine.executors import EXECUTOR_NAMES
from repro.errors import DimensionMismatchError, ParameterError
from repro.geometry.kernels import COORD_LIMIT
from repro.service import ServiceSpec, create_app
from repro.service.testing import ASGITestClient
from repro.streams.point import StreamPoint

#: Spec kwargs of every point summary (the registry keys with ``dim``).
POINT_SPECS = {
    "l0-sliding": dict(window_size=40),
    "l0-infinite": {},
    "f0-sliding": dict(window_size=40, copies=2),
    "f0-infinite": dict(copies=2, epsilon=0.5),
    "ksample": dict(k=2),
    "heavy-hitters": dict(epsilon=0.2),
    "exact": {},
    "batch-pipeline": dict(num_shards=2, batch_size=16),
}
WINDOWED = {"l0-sliding", "f0-sliding"}

#: The hostile alphabet (see HOSTILE).  "edge" is the first magnitude
#: whose cell index reaches 2^62 at the summary's own grid; "stale"
#: (windowed keys only) is a StreamPoint older than the latest arrival.
ALPHABET = [
    "nan", "inf", "-inf", "1e308", "edge", "-edge",
    "ragged-long", "ragged-short", "string", "text", "none",
    "wrong-dim-streampoint",
]
CHUNK_SIZES = [1, 3, MIN_VECTOR_CHUNK, 200]


def first_rejected(grid, sign: float) -> float:
    """The smallest-magnitude ``x`` (on the ``sign`` side) whose first
    coordinate's cell index reaches 2^62 on ``grid``."""

    def ok(x):
        try:
            check_vector(grid, (x,) + (0.0,) * (grid.dim - 1))
        except ParameterError:
            return False
        return True

    x = grid.offset[0] + sign * COORD_LIMIT * grid.side
    while not ok(x):
        x = math.nextafter(x, 0.0)
    while ok(x):
        x = math.nextafter(x, sign * math.inf)
    return x


def grid_of(summary):
    for attr in ("_samplers", "_copies"):
        copies = getattr(summary, attr, None)
        if copies is not None:
            return copies[0]._config.grid
    coordinator = getattr(summary, "_coordinator", None)
    if coordinator is not None:
        return coordinator.config.grid
    config = getattr(summary, "_config", None)
    return config.grid if config is not None else summary._grid


HOSTILE = {
    "nan": lambda grid: (math.nan, 1.0),
    "inf": lambda grid: (math.inf, 0.0),
    "-inf": lambda grid: (0.0, -math.inf),
    "1e308": lambda grid: (1e308, 0.0),
    "edge": lambda grid: (first_rejected(grid, 1.0), 0.0),
    "-edge": lambda grid: (first_rejected(grid, -1.0), 0.0),
    "ragged-long": lambda grid: (1.0, 2.0, 3.0),
    "ragged-short": lambda grid: (1.0,),
    "string": lambda grid: ("x", 1.0),
    "text": lambda grid: "ab",
    "none": lambda grid: None,
    "wrong-dim-streampoint": lambda grid: StreamPoint((1.0, 2.0, 3.0), 10**6),
    "stale": lambda grid: StreamPoint((1.0, 1.0), 0),
}


def good_points(n: int, seed: int) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    return [
        (25.0 * rng.randrange(12) + rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4))
        for _ in range(n)
    ]


@st.composite
def hostile_chunks(draw, kinds):
    size = draw(st.sampled_from(CHUNK_SIZES))
    position = draw(st.integers(0, size - 1))
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 10_000))
    return size, position, kind, seed


def place(kind, grid, size, position, seed):
    chunk = good_points(size, seed)
    chunk[position] = HOSTILE[kind](grid)
    return chunk


class TestSummaries:
    @pytest.mark.parametrize("key", sorted(POINT_SPECS))
    @given(case=st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_and_insert_rejected_with_state_unchanged(self, key, case):
        kinds = ALPHABET + (["stale"] if key in WINDOWED else [])
        size, position, kind, seed = case.draw(hostile_chunks(kinds))
        summary = build(key, alpha=1.0, dim=2, seed=seed, **POINT_SPECS[key])
        try:
            summary.process_many(good_points(30, seed + 1))
            before = state_fingerprint(summary)
            chunk = place(kind, grid_of(summary), size, position, seed)
            with pytest.raises(ParameterError, match=f"point {position} "):
                summary.process_many(chunk)
            assert state_fingerprint(summary) == before
            insert = getattr(summary, "insert", None)
            if insert is not None:
                with pytest.raises(ParameterError):
                    insert(chunk[position])
                assert state_fingerprint(summary) == before
        finally:
            getattr(summary, "close", lambda: None)()


#: The grid-less point baselines: no dimension or grid to check, but
#: every point must coerce to finite floats (their hashes and
#: checkpoints must not depend on a NaN's identity).
GRIDLESS = ["minrank", "naive-reservoir"]
GRIDLESS_ALPHABET = ["nan", "inf", "-inf", "string", "text", "none"]


class TestGridlessBaselines:
    @pytest.mark.parametrize("key", GRIDLESS)
    @given(case=hostile_chunks(GRIDLESS_ALPHABET))
    @settings(max_examples=30, deadline=None)
    def test_batch_and_insert_rejected_with_state_unchanged(self, key, case):
        size, position, kind, seed = case
        summary = build(key, seed=seed)
        summary.process_many(good_points(30, seed + 1))
        before = state_fingerprint(summary)
        chunk = place(kind, None, size, position, seed)
        with pytest.raises(ParameterError, match=f"point {position} "):
            summary.process_many(chunk)
        assert state_fingerprint(summary) == before
        with pytest.raises(ParameterError):
            summary.insert(chunk[position])
        assert state_fingerprint(summary) == before

    @pytest.mark.parametrize("key", GRIDLESS)
    def test_valid_batch_equals_per_point(self, key):
        points = good_points(50, 4)
        batched, single = build(key, seed=4), build(key, seed=4)
        assert batched.process_many(points) == len(points)
        for point in points:
            single.insert(point)
        assert state_fingerprint(batched) == state_fingerprint(single)


def test_worker_array_of_the_wrong_width_is_rejected_as_a_batch():
    # Worker loops hand the transported array straight to the replica.
    config = SamplerConfig.create(1.0, 2, seed=1)
    replica = RobustL0SamplerIW(1.0, 2, config=config)
    with pytest.raises(
        DimensionMismatchError, match="nothing ingested - point 0 "
    ):
        replica.process_many(np.zeros((5, 3)))
    assert replica.points_seen == 0


@pytest.fixture(scope="module", params=EXECUTOR_NAMES)
def pipeline(request):
    spec = PipelineSpec(
        alpha=1.0, dim=2, seed=9, num_shards=2, batch_size=16,
        executor=request.param, num_workers=1,
    )
    with build("batch-pipeline", spec) as built:
        built.submit(good_points(40, 1))
        yield built


class TestPipelineSubmit:
    @given(case=hostile_chunks(ALPHABET))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_submit_rejected_with_state_unchanged(self, pipeline, case):
        size, position, kind, seed = case
        before = state_fingerprint(pipeline)
        chunk = place(kind, grid_of(pipeline), size, position, seed)
        with pytest.raises(ParameterError, match=f"point {position} "):
            pipeline.submit(chunk)
        assert state_fingerprint(pipeline) == before


#: The alphabet a JSON body can carry (no StreamPoints).
JSON_ALPHABET = [kind for kind in ALPHABET if "streampoint" not in kind]


class TestHttpIngest:
    @given(case=hostile_chunks(JSON_ALPHABET))
    @settings(max_examples=40, deadline=None)
    def test_400_and_checkpoint_unchanged(self, case):
        size, position, kind, seed = case

        async def scenario():
            app = create_app(
                ServiceSpec(
                    summary="l0-infinite",
                    spec=L0InfiniteSpec(alpha=1.0, dim=2, seed=3),
                )
            )
            client = ASGITestClient(app)
            good = [list(p) for p in good_points(20, seed)]
            resp = await client.post_json("/v1/t/ingest", {"points": good})
            assert resp.status == 200
            before = (await client.post("/v1/t/checkpoint")).body
            summary = app.tenants._resident["t"].summary
            chunk = place(kind, grid_of(summary), size, position, seed)
            body = json.dumps(
                {"points": [
                    list(p) if isinstance(p, tuple) else p for p in chunk
                ]}
            ).encode("utf-8")
            resp = await client.request("POST", "/v1/t/ingest", body=body)
            assert resp.status == 400
            assert f"point {position} " in resp.json()["error"]
            assert (await client.post("/v1/t/checkpoint")).body == before

        asyncio.run(scenario())


def csv_line(point) -> str:
    return ",".join(repr(x) for x in point)


class TestCliInput:
    @pytest.mark.parametrize("command", ["sample", "count", "heavy", "pipeline"])
    @given(
        case=hostile_chunks(
            ["nan", "inf", "-inf", "1e308", "ragged-long", "ragged-short"]
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_exit_1_and_no_checkpoint(self, command, case):
        size, position, kind, seed = case
        # The first line fixes the CLI summary's dimension: keep it good.
        lines = [csv_line(p) for p in good_points(size + 1, seed)]
        lines[position + 1] = csv_line(HOSTILE[kind](None))
        with tempfile.TemporaryDirectory() as workdir:
            data = os.path.join(workdir, "in.csv")
            state = os.path.join(workdir, "state.json")
            with open(data, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(
                    [command, "--alpha", "1.0", "--seed", str(seed),
                     "--save-state", state, data],
                    out=io.StringIO(),
                )
            assert code == 1
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1
            assert f"point {position + 1} " in message
            assert not os.path.exists(state)

