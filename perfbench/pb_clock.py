"""Host-speed reference clock.

The benchmark runs on shared virtual machines whose speed drifts in
phases the guest cannot observe: the same pure-Python loop can take
twice as long a few seconds later, with no steal time reported.  A
wall-clock figure then measures the host's phase as much as the
program.

The remedy here is a fixed pure-Python reference kernel, timed
interleaved with the measured calls.  Each measured time is divided by
a running average of the most recent kernel times and multiplied by
:data:`NOMINAL_REF_MS`, so a normalised figure still reads as seconds
(or points per second) - the seconds a host running the kernel in
``NOMINAL_REF_MS`` would have taken.  When the host slows down, the
kernel slows with it and the quotient stays put.  The running average
is the median of the last :data:`RUNNING_WINDOW` samples: one kernel
call caught by a preemption can take three times as long, and a mean
would carry that spike into the next few measured calls.

The kernel reacts more strongly to the host's slow phases than the
program does when it runs alone: over ten-run sets spread across
phases, sliding-cascade and service-churn times grew as the kernel
time to the power 0.6-0.85, and dividing by the full kernel ratio
turned an under-correction into an over-correction (normalised
throughput rising with the kernel time).  A single-process clock
therefore scales by the kernel ratio to the power
:data:`SOLO_EXPONENT`.  (Timing the kernel on both cores at once, for
the pipeline's worker core, was tried and dropped: how much two
concurrent kernels slow each other changed from one host phase to the
next by up to 1.8x while the pipeline's own speed did not.)

The kernel mimics the program's inner loops (dict probes keyed by
tuples, float arithmetic, a lazy-deletion heap, a few thousand live
records allocated and freed) but imports nothing from ``repro``, so no
change to the program under test can move it.  Its shape was chosen by
measurement: against sliding-cascade chunk times over runs spread
across host phases, this kernel left a 3-7% spread (interquartile
range over median) in normalised throughput where wall time spread
12-40%; a variant with a working set of a few hundred records left
6-9%, and one with a 10 MB dict 8-15%.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Kernel time (ms) that maps a normalised figure onto seconds: the
#: kernel time on the 2-vCPU reference box (Python 3.11) in its faster
#: phases.  A constant, never re-measured, so figures from different
#: runs share one scale.
NOMINAL_REF_MS = 5.0

#: Iterations of one kernel call (4-10 ms on the reference box,
#: depending on the host's phase).
KERNEL_ITERATIONS = 5000

#: The kernel's result for :data:`KERNEL_ITERATIONS`; a different value
#: means the kernel did not run as written, and its timing is void.
KERNEL_CHECKSUM = 12334110

#: Power of the kernel ratio the clock scales by (see the module
#: docstring).
SOLO_EXPONENT = 0.7

#: Kernel samples in the running median each measured time is divided by.
RUNNING_WINDOW = 7

#: Kernel samples taken before a set-up starts.
SETUP_SAMPLES = 3

#: Untimed kernel calls when a clock is created: the first calls in a
#: fresh process run while the allocator is still claiming memory from
#: the system and are not representative.
WARMUP_CALLS = 10


def reference_kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Deterministic pure-Python work; returns a checksum."""
    heap: list[tuple[int, tuple[int, int]]] = []
    cells: dict[tuple[int, int], list] = {}
    x = 0.0
    checksum = 0
    for i in range(iterations):
        x = (x * 1.61803398875 + 0.5) % 99991.0
        cell = (int(x // 2.0), i & 63)
        record = cells.get(cell)
        if record is None:
            cells[cell] = [x, i]
            heapq.heappush(heap, (i + (i * 7919) % 1000, cell))
        else:
            record[1] = i
        while heap and heap[0][0] < i - 4000:
            _, expired = heapq.heappop(heap)
            cells.pop(expired, None)
        checksum = (checksum + len(cells)) & 0xFFFFFFF
    return checksum


def scale_factor(
    recent_ms: list[float],
    nominal_ms: float = NOMINAL_REF_MS,
    exponent: float = SOLO_EXPONENT,
) -> float:
    """Factor turning a wall time into a normalised one.

    ``recent_ms`` are the latest kernel times; their median stands for
    the host's current speed.
    """
    if not recent_ms:
        raise ValueError("no reference-kernel sample taken yet")
    return (nominal_ms / statistics.median(recent_ms)) ** exponent


def timed_kernel() -> float:
    """Milliseconds of one checked kernel call.

    The cyclic garbage collector is off during the call: the kernel
    makes no cycles, and a collection its allocations happened to
    trigger would traverse the program's heap - tying the reference
    to the size of the program's state.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        checksum = reference_kernel()
        elapsed_ms = (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()
    if checksum != KERNEL_CHECKSUM:
        raise RuntimeError(
            f"reference kernel returned {checksum}, expected {KERNEL_CHECKSUM}"
        )
    return elapsed_ms


class HostClock:
    """Reference-kernel samples and the normalisation they imply.

    Call :meth:`sample` right after a measured call (or group of calls)
    and :meth:`normalise` on that call's wall time.  Where another
    process shares the machine's cores - the pipeline's workers - sample
    only while that process is idle, or the kernel measures contention
    instead of host speed.
    """

    def __init__(self) -> None:
        self.window = RUNNING_WINDOW
        self.nominal_ms = NOMINAL_REF_MS
        self.samples_ms: list[float] = []
        for _ in range(WARMUP_CALLS):
            timed_kernel()

    def sample(self) -> float:
        """Time one kernel call; returns its milliseconds."""
        elapsed_ms = timed_kernel()
        self.samples_ms.append(elapsed_ms)
        return elapsed_ms

    def factor(self) -> float:
        """The current wall-to-normalised factor (running median)."""
        return scale_factor(self.samples_ms[-self.window:], self.nominal_ms)

    def factor_since(self, start: int) -> float:
        """The factor implied by every sample from index ``start`` on."""
        return scale_factor(self.samples_ms[start:], self.nominal_ms)

    def normalise(self, seconds: float) -> float:
        """``seconds`` of wall time on the normalised clock."""
        return seconds * self.factor()

    def median_ms(self) -> float:
        """Median kernel time over the whole run (provenance)."""
        return statistics.median(self.samples_ms)


class SetupTimer:
    """Times repeated set-ups on the normalised clock.

    ``start`` collects garbage (so freeing the previous set-up's objects
    is not billed to the next) and samples the kernel
    :data:`SETUP_SAMPLES` times.  A set-up made of steps calls ``lap``
    between them: the clock pauses, the kernel is sampled, and the step
    is normalised by the running median - so a set-up that spans a
    change of host phase is normalised piece by piece.  ``stop`` ends
    the last step the same way.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.wall_s: list[float] = []
        self.norm_s: list[float] = []
        self._started = 0.0
        self._wall = self._norm = 0.0

    def start(self) -> None:
        gc.collect()
        for _ in range(SETUP_SAMPLES):
            self.clock.sample()
        self._wall = self._norm = 0.0
        self._started = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._started
        self.clock.sample()
        self._wall += wall
        self._norm += self.clock.normalise(wall)
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.lap()
        self.wall_s.append(self._wall)
        self.norm_s.append(self._norm)

    def median(self) -> float:
        """Median normalised set-up time (the ``setup_s`` metric)."""
        return statistics.median(self.norm_s)

    def note(self) -> str:
        return f"wall.setup_s {statistics.median(self.wall_s):.4f} s"
