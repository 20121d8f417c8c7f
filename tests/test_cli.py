"""Tests for the command-line interface."""

from __future__ import annotations

import io
import sys
import types
import json
import random

import pytest

from repro.cli import main


@pytest.fixture
def csv_file(tmp_path):
    rng = random.Random(0)
    lines = []
    for g in range(10):
        for _ in range(4):
            lines.append(f"{20.0 * g + rng.uniform(0, 0.4)},{0.0}")
    rng.shuffle(lines)
    path = tmp_path / "points.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestSampleCommand:
    def test_single_sample(self, csv_file):
        out = io.StringIO()
        code = main(
            ["sample", "--alpha", "1.0", "--seed", "3", csv_file], out=out
        )
        assert code == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 1
        x, y = (float(v) for v in lines[0].split(","))
        assert y == 0.0 and 0.0 <= x <= 200.0

    def test_k_without_replacement(self, csv_file):
        out = io.StringIO()
        code = main(
            [
                "sample", "--alpha", "1.0", "--k", "3", "--seed", "1",
                csv_file,
            ],
            out=out,
        )
        assert code == 0
        groups = {
            round(float(line.split(",")[0]) // 20.0)
            for line in out.getvalue().strip().splitlines()
        }
        assert len(groups) == 3

    def test_window_mode(self, csv_file):
        out = io.StringIO()
        code = main(
            [
                "sample", "--alpha", "1.0", "--window", "5", "--seed", "2",
                csv_file,
            ],
            out=out,
        )
        assert code == 0
        assert out.getvalue().strip()

    @pytest.mark.parametrize("command", ["sample", "count", "heavy"])
    def test_empty_input(self, tmp_path, capsys, command):
        # Every command reports empty input through the uniform error
        # path: "error: ..." on stderr, exit code 1 - no bare SystemExit.
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(
            [command, "--alpha", "1.0", str(empty)], out=io.StringIO()
        )
        assert code == 1
        assert "error: input contains no points" in capsys.readouterr().err

    def test_bad_line_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\nnot-a-number\n")
        code = main(["sample", "--alpha", "1.0", str(bad)], out=io.StringIO())
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err


class TestHostileInputLines:
    """A parseable line whose point has no grid cell (NaN, inf, 1e308)
    or the wrong width used to end some runs with a raw traceback.
    Every command now exits 1 with one ``error:`` line and writes no
    ``--save-state`` file."""

    @pytest.mark.parametrize(
        "command",
        [
            ["sample"],
            ["count"],
            ["heavy"],
            ["pipeline"],
            ["pipeline", "--executor", "process", "--workers", "1"],
        ],
        ids=["sample", "count", "heavy", "pipeline", "pipeline-process"],
    )
    @pytest.mark.parametrize("bad", ["nan,1", "inf,0", "1e308,0", "1,2,3"])
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, command, bad):
        lines = [f"{20.0 * g},0.0" for g in range(10)]
        lines.insert(5, bad)
        data = tmp_path / "hostile.csv"
        data.write_text("\n".join(lines) + "\n")
        state = tmp_path / "state.json"
        code = main(
            [*command, "--alpha", "1.0", "--seed", "1",
             "--save-state", str(state), str(data)],
            out=io.StringIO(),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nothing ingested - point 5" in err
        assert not state.exists()


class TestReproducibilityAndBatching:
    @staticmethod
    def run_cli(argv):
        out = io.StringIO()
        assert main(argv, out=out) == 0
        return out.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--alpha", "1.0", "--k", "2", "--seed", "5"],
            ["sample", "--alpha", "1.0", "--window", "20", "--seed", "5"],
            ["count", "--alpha", "1.0", "--epsilon", "0.5", "--seed", "5"],
            ["heavy", "--alpha", "1.0", "--phi", "0.1", "--seed", "5"],
        ],
    )
    def test_same_seed_same_output(self, csv_file, argv):
        first = self.run_cli(argv + [csv_file])
        second = self.run_cli(argv + [csv_file])
        assert first == second

    @pytest.mark.parametrize("batch_size", ["1", "3", "1000"])
    def test_batch_size_never_changes_output(self, csv_file, batch_size):
        # Batching is a throughput knob, not a semantic one: every batch
        # size must produce bit-identical output for a fixed seed.
        base = self.run_cli(
            ["sample", "--alpha", "1.0", "--k", "3", "--seed", "9", csv_file]
        )
        batched = self.run_cli(
            [
                "sample", "--alpha", "1.0", "--k", "3", "--seed", "9",
                "--batch-size", batch_size, csv_file,
            ]
        )
        assert batched == base

    def test_count_batch_invariance(self, csv_file):
        outputs = {
            self.run_cli(
                [
                    "count", "--alpha", "1.0", "--epsilon", "0.5",
                    "--seed", "4", "--batch-size", size, csv_file,
                ]
            )
            for size in ("1", "7", "4096")
        }
        assert len(outputs) == 1


class TestCountCommand:
    def test_exact_small_count(self, csv_file):
        out = io.StringIO()
        code = main(
            [
                "count", "--alpha", "1.0", "--epsilon", "0.5", "--seed", "0",
                csv_file,
            ],
            out=out,
        )
        assert code == 0
        assert float(out.getvalue()) == 10.0


class TestHeavyCommand:
    def test_heavy_reports_big_group(self, tmp_path):
        rng = random.Random(1)
        lines = [f"{rng.uniform(0, 0.3)}" for _ in range(30)]
        lines += [f"{50.0 * g}" for g in range(1, 8)]
        rng.shuffle(lines)
        path = tmp_path / "one_d.csv"
        path.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        code = main(
            [
                "heavy", "--alpha", "1.0", "--phi", "0.5",
                "--epsilon", "0.2", str(path),
            ],
            out=out,
        )
        assert code == 0
        rows = out.getvalue().strip().splitlines()
        assert len(rows) == 1
        count, error, coords = rows[0].split("\t")
        assert int(count) >= 30
        assert abs(float(coords)) < 1.0


class TestJsonOutput:
    """--output json: one JSON object per result line."""

    def test_sample_json_lines(self, csv_file):
        out = io.StringIO()
        code = main(
            [
                "sample", "--alpha", "1.0", "--k", "3", "--seed", "1",
                "--output", "json", csv_file,
            ],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"vector", "index", "time"}
            assert len(record["vector"]) == 2

    def test_json_matches_text_results(self, csv_file):
        text_out, json_out = io.StringIO(), io.StringIO()
        base = ["sample", "--alpha", "1.0", "--k", "2", "--seed", "5"]
        assert main(base + [csv_file], out=text_out) == 0
        assert main(base + ["--output", "json", csv_file], out=json_out) == 0
        text_vectors = [
            [float(x) for x in line.split(",")]
            for line in text_out.getvalue().strip().splitlines()
        ]
        json_vectors = [
            json.loads(line)["vector"]
            for line in json_out.getvalue().strip().splitlines()
        ]
        assert json_vectors == text_vectors

    def test_count_json(self, csv_file):
        out = io.StringIO()
        code = main(
            [
                "count", "--alpha", "1.0", "--epsilon", "0.5", "--seed", "0",
                "--output", "json", csv_file,
            ],
            out=out,
        )
        assert code == 0
        assert json.loads(out.getvalue()) == {"estimate": 10.0}

    def test_heavy_json(self, tmp_path):
        rng = random.Random(1)
        lines = [f"{rng.uniform(0, 0.3)}" for _ in range(30)]
        lines += [f"{50.0 * g}" for g in range(1, 8)]
        path = tmp_path / "one_d.csv"
        path.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        code = main(
            [
                "heavy", "--alpha", "1.0", "--phi", "0.5",
                "--epsilon", "0.2", "--output", "json", str(path),
            ],
            out=out,
        )
        assert code == 0
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(rows) == 1
        assert rows[0]["count"] >= 30
        assert set(rows[0]) == {
            "count", "error", "guaranteed_count", "vector",
        }


class TestCheckpointResume:
    """--save-state / --resume continue runs through repro.persist."""

    def test_split_run_equals_full_run(self, tmp_path):
        rng = random.Random(3)
        lines = [
            f"{20.0 * (i % 10) + rng.uniform(0, 0.4)},0.0" for i in range(40)
        ]
        full = tmp_path / "full.csv"
        full.write_text("\n".join(lines) + "\n")
        first = tmp_path / "first.csv"
        first.write_text("\n".join(lines[:20]) + "\n")
        second = tmp_path / "second.csv"
        second.write_text("\n".join(lines[20:]) + "\n")
        state = tmp_path / "state.json"

        full_out = io.StringIO()
        args = ["count", "--alpha", "1.0", "--epsilon", "0.5", "--seed", "7"]
        assert main(args + [str(full)], out=full_out) == 0

        assert main(
            args + ["--save-state", str(state), str(first)],
            out=io.StringIO(),
        ) == 0
        resumed_out = io.StringIO()
        assert main(
            args + ["--resume", str(state), str(second)], out=resumed_out
        ) == 0
        assert resumed_out.getvalue() == full_out.getvalue()

    def test_resume_with_empty_input_queries_checkpoint(self, tmp_path):
        data = tmp_path / "points.csv"
        data.write_text("0.0,0.0\n30.0,0.0\n")
        state = tmp_path / "state.json"
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        args = ["count", "--alpha", "1.0", "--epsilon", "0.5", "--seed", "2"]
        first_out = io.StringIO()
        assert main(
            args + ["--save-state", str(state), str(data)], out=first_out
        ) == 0
        resumed_out = io.StringIO()
        assert main(
            args + ["--resume", str(state), str(empty)], out=resumed_out
        ) == 0
        assert resumed_out.getvalue() == first_out.getvalue()

    def test_resume_type_mismatch_is_uniform_error(self, tmp_path, capsys):
        data = tmp_path / "points.csv"
        data.write_text("0.0\n9.0\n")
        state = tmp_path / "state.json"
        assert main(
            [
                "sample", "--alpha", "1.0", "--seed", "1",
                "--save-state", str(state), str(data),
            ],
            out=io.StringIO(),
        ) == 0
        code = main(
            [
                "count", "--alpha", "1.0", "--resume", str(state), str(data),
            ],
            out=io.StringIO(),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestPipelineCommand:
    def test_text_output(self, csv_file):
        out = io.StringIO()
        code = main(
            [
                "pipeline", "--alpha", "1.0", "--seed", "3",
                "--shards", "3", csv_file,
            ],
            out=out,
        )
        assert code == 0
        estimate_line, sample_line = out.getvalue().strip().splitlines()
        assert 3.0 <= float(estimate_line) <= 40.0  # true 10 groups
        x, y = (float(v) for v in sample_line.split(","))
        assert y == 0.0 and 0.0 <= x <= 200.0

    @pytest.mark.parametrize("executor", ["process", "remote"])
    def test_parallel_executors_match_serial_output(
        self, csv_file, executor
    ):
        def run(executor_args):
            out = io.StringIO()
            code = main(
                [
                    "pipeline", "--alpha", "1.0", "--seed", "3",
                    "--shards", "3", *executor_args, csv_file,
                ],
                out=out,
            )
            assert code == 0
            return out.getvalue()

        serial = run([])
        parallel = run(["--executor", executor, "--workers", "2"])
        # Deterministic shard-order merge fold: bit-identical output
        # whichever executor ran the shards.
        assert parallel == serial

    def test_json_output_and_resume(self, csv_file, tmp_path):
        state = tmp_path / "pipeline.json"
        out = io.StringIO()
        code = main(
            [
                "pipeline", "--alpha", "1.0", "--seed", "3",
                "--executor", "process", "--output", "json",
                "--save-state", str(state), csv_file,
            ],
            out=out,
        )
        assert code == 0
        result_line, sample_line = out.getvalue().strip().splitlines()
        result = json.loads(result_line)
        assert result["shards"] == 4
        assert result["executor"] == "process"
        assert result["communication_words"] > 0
        assert json.loads(sample_line)["vector"][1] == 0.0
        envelope = json.loads(state.read_text())
        assert envelope["summary"] == "batch-pipeline"
        assert envelope["state"]["spec"]["executor"] == "process"

        # Resume from the checkpoint with empty input: pure re-query.
        resumed_out = io.StringIO()
        code = main(
            [
                "pipeline", "--alpha", "1.0", "--seed", "3",
                "--output", "json", "--resume", str(state), "/dev/null",
            ],
            out=resumed_out,
        )
        assert code == 0
        resumed_line = resumed_out.getvalue().strip().splitlines()[0]
        assert json.loads(resumed_line)["estimate"] == result["estimate"]


class TestFormats:
    def test_jsonl_input(self, tmp_path):
        path = tmp_path / "points.jsonl"
        rows = [[0.1, 0.0], [0.2, 0.0], [30.0, 0.0]]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = io.StringIO()
        code = main(
            [
                "count", "--alpha", "1.0", "--format", "jsonl",
                "--epsilon", "0.5", str(path),
            ],
            out=out,
        )
        assert code == 0
        assert float(out.getvalue()) == 2.0

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("# header\n\n1.0,0.0\n9.0,0.0\n")
        out = io.StringIO()
        code = main(
            ["count", "--alpha", "1.0", "--epsilon", "0.5", str(path)],
            out=out,
        )
        assert code == 0
        assert float(out.getvalue()) == 2.0


class TestServeCommand:
    """The serve subcommand: app handoff to uvicorn, uniform errors."""

    def test_missing_uvicorn_is_uniform_error(self, monkeypatch, capsys):
        # A sys.modules entry of None makes `import uvicorn` raise
        # ImportError even if uvicorn were installed.
        monkeypatch.setitem(sys.modules, "uvicorn", None)
        code = main(
            ["serve", "--summary", "l0-infinite", "--alpha", "0.5",
             "--dim", "2"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "uvicorn" in err and "repro[service]" in err

    def test_hands_validated_app_to_uvicorn(self, monkeypatch):
        calls = {}

        def fake_run(app, host, port):
            calls["app"] = app
            calls["host"] = host
            calls["port"] = port

        monkeypatch.setitem(
            sys.modules, "uvicorn", types.SimpleNamespace(run=fake_run)
        )
        code = main(
            ["serve", "--summary", "heavy-hitters", "--alpha", "1.0",
             "--dim", "1", "--epsilon", "0.1", "--seed", "7",
             "--capacity", "16", "--ttl", "30", "--host", "0.0.0.0",
             "--port", "9001"]
        )
        assert code == 0
        from repro.service import SummaryService

        app = calls["app"]
        assert isinstance(app, SummaryService)
        assert app.spec.summary == "heavy-hitters"
        assert app.spec.capacity == 16
        assert app.spec.ttl_seconds == 30.0
        assert app.spec.spec.epsilon == 0.1
        assert app.spec.spec.seed == 7
        assert (calls["host"], calls["port"]) == ("0.0.0.0", 9001)

    def test_unknown_summary_key_is_uniform_error(self, capsys):
        code = main(["serve", "--summary", "nope", "--alpha", "1.0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown summary key" in err

    def test_missing_required_spec_fields_is_uniform_error(self, capsys):
        code = main(["serve", "--summary", "l0-infinite"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--alpha" in err

    def test_pipeline_key_is_servable(self, monkeypatch):
        # Formerly a uniform error: the ServiceSpec gate on
        # 'batch-pipeline' is gone now that eviction/shutdown close
        # worker-owning summaries.
        calls = {}
        monkeypatch.setitem(
            sys.modules,
            "uvicorn",
            types.SimpleNamespace(
                run=lambda app, host, port: calls.update(app=app)
            ),
        )
        code = main(
            ["serve", "--summary", "batch-pipeline", "--alpha", "1.0",
             "--dim", "1"]
        )
        assert code == 0
        assert calls["app"].spec.summary == "batch-pipeline"

    def test_file_store_flags_validated(self, capsys, tmp_path,
                                        monkeypatch):
        # --store file without --store-path is a spec validation error.
        code = main(
            ["serve", "--summary", "l0-infinite", "--alpha", "1.0",
             "--dim", "1", "--store", "file"]
        )
        assert code == 1
        assert "store_path" in capsys.readouterr().err

    def test_windowed_summary_via_flags(self, monkeypatch):
        ran = {}
        monkeypatch.setitem(
            sys.modules,
            "uvicorn",
            types.SimpleNamespace(run=lambda app, host, port: ran.update(
                app=app
            )),
        )
        code = main(
            ["serve", "--summary", "l0-sliding", "--alpha", "0.5",
             "--dim", "2", "--window", "100", "--seed", "1"]
        )
        assert code == 0
        assert ran["app"].spec.spec.window_size == 100
