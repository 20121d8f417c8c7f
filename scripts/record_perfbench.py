"""Append one perfbench run to the committed ``BENCH_perfbench.json``.

Reads the stdout of one ``perfbench/run.py`` invocation from a file,
takes its final JSON line (``correct``, ``attempted``,
``failed``, ``metrics``) and the run's header line (workload, seed,
seconds, trace), adds provenance (``commit``, ``cpu_count``,
``python``, ``numpy``) and appends the entry to that workload's
``history``, keeping the newest :data:`CAP` entries.  Older entries are
folded into the workload's ``by_commit`` summary: per commit, the run
count, the provenance and each metric's list of values, so exact
per-commit medians outlive the raw entries.  Other workloads are left
as they are, so records grow into a trajectory instead of being
overwritten.

    python3 perfbench/run.py --workload sliding-cascade --seed 1 \\
        --seconds 20 --trace 0 > run.txt
    python3 scripts/record_perfbench.py run.txt

Exit codes: 0 recorded; 1 the output holds no perfbench result.  The
run's own verdict (``correct``) is recorded, not enforced: a failed run
is kept in the history like any other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_RECORD = ROOT / "BENCH_perfbench.json"
#: Raw entries kept per workload history; older ones are folded.
CAP = 20

_HEADER = re.compile(
    r"^# (?P<workload>\S+) seed=(?P<seed>-?\d+) seconds=(?P<seconds>\S+) "
    r"trace=(?P<trace>\d)"
)


def parse_output(text: str) -> dict:
    """The run described by perfbench's stdout, as one history entry.

    Raises ``ValueError`` when the header or the final JSON line is
    missing.
    """
    header = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            break
    if header is None:
        raise ValueError("no perfbench header line ('# <workload> seed=...')")
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as error:
        raise ValueError(f"last line is not perfbench's JSON result: {error}")
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("last line is not perfbench's JSON result")
    return {
        "workload": header["workload"],
        "seed": int(header["seed"]),
        "seconds": float(header["seconds"]),
        "trace": int(header["trace"]),
        **result,
    }


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True
    )


def provenance(record: Path) -> dict:
    """Where the run happened: commit, cores, Python and numpy versions.

    The commit is ``git describe --always``, marked ``-dirty`` when a
    tracked file other than ``record`` differs from HEAD: the record
    changes with every append, which does not change the measured code.
    """
    pathspec = ["."]
    try:
        pathspec.append(f":(exclude){record.resolve().relative_to(ROOT)}")
    except ValueError:
        pass  # a record outside the checkout cannot dirty it
    try:
        described = _git("describe", "--always")
        dirty = _git("diff", "--quiet", "HEAD", "--", *pathspec)
    except OSError:
        described = None
    if described is None or described.returncode != 0:
        commit = "unknown"
    else:
        commit = described.stdout.strip()
        if dirty.returncode != 0:
            commit += "-dirty"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def fold_run(by_commit: dict, entry: dict) -> None:
    """Fold one history entry into its commit's summary: the run count,
    the first run's provenance and every metric's list of values."""
    summary = by_commit.setdefault(
        entry.get("commit", "unknown"),
        {
            "runs": 0,
            "cpu_count": entry.get("cpu_count"),
            "python": entry.get("python"),
            "numpy": entry.get("numpy"),
            "metrics": {},
        },
    )
    summary["runs"] += 1
    for name, metric in entry.get("metrics", {}).items():
        summary["metrics"].setdefault(name, []).append(metric["value"])


def append_run(record: dict, entry: dict, cap: int = CAP) -> dict:
    """Append ``entry`` to its workload's history, newest ``cap`` kept;
    the entries pushed out are folded into ``by_commit``."""
    workload = record.setdefault("workloads", {}).setdefault(
        entry["workload"], {}
    )
    history = workload.setdefault("history", [])
    history.append(entry)
    if len(history) > cap:
        by_commit = workload.setdefault("by_commit", {})
        for old in history[:-cap]:
            fold_run(by_commit, old)
        del history[:-cap]
    return record


def load_record(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def write_record(path: Path, record: dict) -> None:
    """Write through a temporary file, so a crash leaves the old record."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="perfbench stdout file")
    parser.add_argument("--record", type=Path, default=DEFAULT_RECORD)
    args = parser.parse_args(argv)
    try:
        entry = parse_output(Path(args.output).read_text(encoding="utf-8"))
    except ValueError as error:
        print(f"error: {args.output}: {error}", file=sys.stderr)
        return 1
    entry.update(provenance(args.record))
    record = append_run(load_record(args.record), entry)
    write_record(args.record, record)
    history = record["workloads"][entry["workload"]]["history"]
    print(f"recorded {entry['workload']} seed={entry['seed']} "
          f"({len(history)} in history) -> {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
