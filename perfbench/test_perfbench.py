"""Tests of the benchmark's own helpers, plus a tiny run of each workload.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import pb_clock  # noqa: E402
import pb_pipeline  # noqa: E402
import pb_service  # noqa: E402
import pb_sliding  # noqa: E402
import run  # noqa: E402
from pb_stats import Recorder, Report, tail_percentile  # noqa: E402
from pb_trace import Tracer, self_times  # noqa: E402

# ---------------------------------------------------------------- tail rule


@pytest.mark.parametrize(
    "samples, percentile, beyond",
    [
        (1000, 99.0, 10),
        (120, 100.0 * 110 / 120, 10),
        (11, 100.0 * 1 / 11, 10),
        (5, 100.0, 0),  # too few: the maximum
    ],
)
def test_tail_is_the_highest_percentile_with_ten_beyond(samples, percentile, beyond):
    values = list(range(samples, 0, -1))  # unsorted on purpose
    tail = tail_percentile(values)
    assert tail.percentile == pytest.approx(percentile)
    assert (tail.beyond, tail.samples) == (beyond, samples)
    assert sum(1 for v in values if v > tail.value) == beyond
    assert f"of {samples} samples ({beyond} beyond)" in tail.describe()


def test_tail_moves_smoothly_with_the_sample_count():
    # 99 and 101 samples of the same distribution give nearly the same
    # tail, not one jump of a percentile ladder apart.
    below = tail_percentile([float(i) for i in range(99)])
    above = tail_percentile([float(i) for i in range(101)])
    assert above.value - below.value == 2.0


# ------------------------------------------------------------ normalisation


def test_scale_factor_maps_the_nominal_kernel_time_to_one():
    assert pb_clock.scale_factor([7.0, 7.0], nominal_ms=7.0) == 1.0
    assert pb_clock.scale_factor([14.0], nominal_ms=7.0, exponent=1.0) == 0.5
    assert pb_clock.scale_factor([28.0], nominal_ms=7.0, exponent=0.5) == 0.5
    assert pb_clock.scale_factor([14.0], nominal_ms=7.0) == pytest.approx(
        0.5 ** pb_clock.SOLO_EXPONENT
    )
    with pytest.raises(ValueError):
        pb_clock.scale_factor([])


def test_normalise_divides_by_the_running_median_of_recent_samples():
    clock = pb_clock.HostClock()
    assert clock.window == 7
    # The first sample is out of the window; the 90 ms spike is outvoted.
    clock.samples_ms = [1000.0, 10.0, 20.0, 90.0, 14.0, 16.0, 12.0, 18.0]
    factor = (pb_clock.NOMINAL_REF_MS / 16.0) ** pb_clock.SOLO_EXPONENT
    assert clock.factor() == pytest.approx(factor)
    assert clock.normalise(2.0) == pytest.approx(2.0 * factor)
    assert clock.factor_since(5) == pytest.approx(
        (pb_clock.NOMINAL_REF_MS / 16.0) ** pb_clock.SOLO_EXPONENT
    )
    assert clock.median_ms() == 17.0


def test_reference_kernel_is_deterministic_and_checked():
    assert pb_clock.reference_kernel() == pb_clock.KERNEL_CHECKSUM
    assert pb_clock.reference_kernel(100) == pb_clock.reference_kernel(100)
    clock = pb_clock.HostClock()
    assert clock.sample() > 0.0
    assert clock.samples_ms == [pytest.approx(clock.samples_ms[0])]


def test_recorder_throughput_uses_normalised_time():
    record = Recorder()
    record.add_ingest(1000, wall_s=2.0, norm_s=1.0)
    record.add_ingest(1000, wall_s=2.0, norm_s=1.0)
    assert record.rate() == pytest.approx(1000.0)
    assert record.rate(wall=True) == pytest.approx(500.0)


# ------------------------------------------------------------------ spans


def _span(sid, name, start, end, parent=None, request=None):
    return [sid, name, start, end, parent, request]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, "request", 0.0, 10.0),
        _span(1, "child", 1.0, 3.0, parent=0),
        _span(2, "child", 2.0, 5.0, parent=0),   # overlaps the first child
        _span(3, "child", 8.0, 12.0, parent=0),  # runs past the parent's end
        _span(4, "grandchild", 8.5, 9.0, parent=3),
    ]
    own = self_times(spans)
    assert own["request"] == [pytest.approx(10.0 - 4.0 - 2.0)]
    assert own["child"] == [pytest.approx(2.0), pytest.approx(3.0), pytest.approx(3.5)]
    assert own["grandchild"] == [pytest.approx(0.5)]


def test_tracer_nests_spans_and_shares_the_request_id():
    tracer = Tracer()
    with tracer.span("outer", request=7):
        with tracer.span("inner"):
            pass
        traced = tracer.wrap("wrapped", lambda x: x + 1)
        assert traced(1) == 2
    with tracer.span("next"):
        pass
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["wrapped"][4] == by_name["outer"][0]
    assert by_name["inner"][5] == by_name["wrapped"][5] == 7
    assert by_name["next"][4] is None and by_name["next"][5] is None
    assert all(span[3] >= span[2] for span in tracer.spans)


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_metrics_the_runs_print():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["per_layer"]] == list(run.LAYER_METRICS)
    record = Recorder()
    record.add_ingest(10, 0.001, 0.001)
    record.add_query_group(2, 0.001, 0.001)
    metrics, _ = record.metrics(1.0, 10.0, footprint=(5, 6))
    assert [m["name"] for m in config["end_to_end"]] == list(metrics)
    assert [m["unit"] for m in config["end_to_end"]] == [u for _, u in metrics.values()]
    assert sorted(w["name"] for w in config["workloads"]) == sorted(run.WORKLOADS)


# ------------------------------------------------------- workload smoke


@pytest.mark.parametrize(
    "module",
    [pb_sliding, pb_pipeline, pb_service],
    ids=lambda module: module.NAME,
)
def test_tiny_traced_run_passes_its_output_checks(module):
    report = module.run(seed=3, seconds=0.4, trace=True, params=module.Params.small())
    assert report.checks and all(passed for _, passed, _ in report.checks), report.checks
    assert report.failed == 0, report.errors
    assert report.attempted > 0
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(report.metrics) == [m["name"] for m in config["end_to_end"]]
    assert all(value > 0 for value, _ in report.metrics.values()), report.metrics
    assert set(report.layers) <= set(run.LAYER_METRICS)
    assert "trace.overhead.ingest_pts_per_s" in report.layers
    assert report.spans


def test_a_failed_check_makes_the_command_fail(monkeypatch, tmp_path, capsys):
    def broken(seed, seconds, trace):
        return Report(
            metrics={}, layers={}, notes=[], attempted=1, failed=0,
            checks=[("fingerprint", False, "mismatch")], ref_kernel_ms=7.0,
        )

    monkeypatch.setattr(pb_sliding, "run", broken)
    monkeypatch.setattr(run, "HERE", tmp_path)
    code = run.main(["--workload", "sliding-cascade", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_without_the_library_the_command_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sliding-cascade",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
