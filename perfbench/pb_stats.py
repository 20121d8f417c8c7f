"""Run statistics: percentiles, the tail rule and the end-to-end record.

Every workload fills one :class:`Recorder` per measured phase and turns
it into the benchmark's end-to-end metrics with :meth:`Recorder.metrics`.
Times are kept twice - on the host-normalised clock (the gated figures)
and on the raw wall clock (the ``wall.*`` figures printed beside them).
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

#: Samples that must rank above the reported tail percentile.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The reported tail: which percentile, its value, how many beyond."""

    percentile: float
    value: float
    samples: int
    beyond: int

    def describe(self) -> str:
        return (
            f"p{self.percentile:.2f} of {self.samples} samples "
            f"({self.beyond} beyond)"
        )


def tail_percentile(values: list[float], min_beyond: int = MIN_BEYOND) -> Tail:
    """The highest percentile with ``min_beyond`` samples above it.

    That is the ``(min_beyond + 1)``-th largest sample, at percentile
    ``100 * (n - min_beyond) / n``.  The percentile moves smoothly with
    the sample count, so runs that measured slightly different numbers
    of calls report comparable tails (a fixed ladder of percentiles
    would jump, say from p75 to p90, as the count crosses 100).  With
    ``min_beyond`` samples or fewer the maximum is reported, with
    :attr:`Tail.beyond` 0.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    beyond = min_beyond if n > min_beyond else 0
    return Tail(100.0 * (n - beyond) / n, ordered[n - 1 - beyond], n, beyond)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child.

    Worker processes count once they have been joined; call this after
    closing them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


@dataclass
class Recorder:
    """Everything one measured phase observed.

    ``ingest_*`` hold one sample per ingest call and ``query_*`` one per
    query *group* divided by the group's size.  Throughput is the points
    ingested over the summed ingest time.
    """

    points: int = 0
    ingest_norm_ms: list[float] = field(default_factory=list)
    ingest_wall_ms: list[float] = field(default_factory=list)
    query_norm_ms: list[float] = field(default_factory=list)
    query_wall_ms: list[float] = field(default_factory=list)
    space_words: list[int] = field(default_factory=list)
    state_bytes: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_error: str | None = None

    def add_ingest(self, points: int, wall_s: float, norm_s: float) -> None:
        self.points += points
        self.ingest_wall_ms.append(wall_s * 1e3)
        self.ingest_norm_ms.append(norm_s * 1e3)

    def add_query_group(self, queries: int, wall_s: float, norm_s: float) -> None:
        self.query_wall_ms.append(wall_s * 1e3 / queries)
        self.query_norm_ms.append(norm_s * 1e3 / queries)

    def fail(self, error: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = error

    def rate(self, wall: bool = False) -> float:
        seconds = sum(self.ingest_wall_ms if wall else self.ingest_norm_ms) / 1e3
        return self.points / seconds if seconds > 0 else 0.0

    def metrics(
        self,
        setup_s: float,
        peak_rss: float,
        footprint: tuple[int, int] | None = None,
    ) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """The end-to-end metrics, plus notes for the human-readable log.

        ``footprint`` is ``(space_words, state_bytes)`` measured once at
        the end of the run; without it the medians of the samples taken
        during the phase are reported.
        """
        tail = tail_percentile(self.ingest_norm_ms)
        wall_tail = tail_percentile(self.ingest_wall_ms)
        notes = [
            f"ingest_tail_ms is {tail.describe()}",
            f"wall.ingest_pts_per_s {self.rate(wall=True):.1f} pts/s",
            f"wall.ingest_p50_ms {statistics.median(self.ingest_wall_ms):.4f} ms",
            f"wall.ingest_tail_ms {wall_tail.value:.4f} ms "
            f"({wall_tail.describe()})",
            f"wall.query_p50_ms {statistics.median(self.query_wall_ms):.4f} ms "
            f"({len(self.query_wall_ms)} groups)",
        ]
        if footprint is None:
            footprint = (
                statistics.median(self.space_words),
                statistics.median(self.state_bytes),
            )
            notes.append(
                f"space_words median of {len(self.space_words)} samples "
                f"(last {self.space_words[-1]}), state_bytes median of "
                f"{len(self.state_bytes)} samples (last {self.state_bytes[-1]})"
            )
        metrics = {
            "setup_s": (setup_s, "s"),
            "ingest_pts_per_s": (self.rate(), "pts/s"),
            "ingest_p50_ms": (statistics.median(self.ingest_norm_ms), "ms"),
            "ingest_tail_ms": (tail.value, "ms"),
            "query_p50_ms": (statistics.median(self.query_norm_ms), "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
            "space_words": (footprint[0], "words"),
            "state_bytes": (footprint[1], "bytes"),
        }
        return metrics, notes


@dataclass
class Report:
    """A workload's result: metrics, checks and the notes behind them.

    ``metrics`` are the end-to-end figures of the untraced phase;
    ``layers`` the per-layer figures of a traced run (empty otherwise).
    ``checks`` are ``(name, passed, detail)`` triples.
    """

    metrics: dict[str, tuple[float, str]]
    layers: dict[str, tuple[float, str]]
    notes: list[str]
    checks: list[tuple[str, bool, str]]
    attempted: int
    failed: int
    ref_kernel_ms: float
    spans: list = field(default_factory=list)
    #: First traceback of each phase that had a failed operation.
    errors: list[str] = field(default_factory=list)


def overhead(
    untraced: dict[str, tuple[float, str]], traced: dict[str, tuple[float, str]]
) -> dict[str, tuple[float, str]]:
    """Tracing overhead: traced-phase figures minus untraced-phase ones."""
    return {
        f"trace.overhead.{name}": (traced[name][0] - untraced[name][0], unit)
        for name, (_, unit) in untraced.items()
        if name in ("ingest_pts_per_s", "ingest_p50_ms")
    }


def median_ms(seconds: list[float], factor: float = 1.0) -> float:
    """Median of ``seconds`` in milliseconds (0 when there are none)."""
    return statistics.median(seconds) * factor * 1e3 if seconds else 0.0
