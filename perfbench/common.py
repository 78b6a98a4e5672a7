"""Shared pieces of the benchmark: tallies, samples, statistics, inputs, machine data."""

from __future__ import annotations

import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The repository checkout this file lives in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent


class Tally:
    """Operations attempted and failed; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, passed: bool, what: str, count: int = 1) -> bool:
        """Count *count* operations covered by one output check."""
        self.attempted += count
        if not passed:
            self.failed += count
            if len(self.messages) < 20:
                self.messages.append(what)
        return passed

    def error(self, what: str, exc: BaseException, count: int = 1) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}", count)


class Measures:
    """Every repeat of each timed step of one measured phase.

    A pass repeats the workload's fixed script, so each step (``key``)
    is timed once per pass.  ``op_keys`` name the steps that are the
    workload's unit operation.  ``windows`` hold unit operations that
    are not repeated (open-loop requests), one list per stretch of the
    run.

    The host this benchmark was tuned on ran the same code up to twice
    as slowly for seconds to minutes at a time, and processor time
    slowed with the wall clock.  So the workloads run a fixed
    calibration loop (:meth:`calibrate`) between timed steps, and each
    sample is scaled by the reference loop time over the mean of the
    loop times just before and just after it: it becomes a time on a
    machine on which the loop takes :data:`CALIBRATION_REFERENCE`
    seconds.  A step is reported by the median of its scaled repeats.
    Scaling by the run's fastest loop and reporting each step's fastest
    repeat instead spread the suite time of ``solve_cold`` by 0.17
    (IQR over median) over ten seeds, as the slow stretches rarely hit
    the loop and the steps alike.
    """

    def __init__(self):
        #: Per step, every repeat as (seconds, index of the calibration
        #: that follows it).
        self.samples: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
        self.op_keys: List[str] = []
        #: Per stretch of an open loop, its latencies and the index of
        #: the calibration that follows it.
        self.windows: List[Tuple[List[float], int]] = []
        self.calibrations: List[float] = []
        self.passes = 0
        self.notes: dict = {}
        #: The timed work traced layer time is compared with, when it is
        #: not simply :attr:`timed_seconds`.
        self.covered: Optional[float] = None

    def add(self, key: str, seconds: float, op: bool = False) -> None:
        if op and key not in self.samples:
            self.op_keys.append(key)
        self.samples[key].append((seconds, len(self.calibrations)))

    @contextmanager
    def timed(self, key: str, op: bool = False):
        """Time the block as one repeat of step *key*; a block that
        raises records nothing."""
        start = time.perf_counter()
        yield
        self.add(key, time.perf_counter() - start, op)

    def calibrate(self) -> None:
        self.calibrations.append(calibration())

    def speed(self, index: int) -> float:
        """Reference over the mean loop time around calibration *index*."""
        around = self.calibrations[max(index - 1, 0) : index + 1]
        return CALIBRATION_REFERENCE * len(around) / sum(around) if around else 1.0

    def step_seconds(self, key: str) -> float:
        """The median scaled repeat of step *key*."""
        return median([seconds * self.speed(index) for seconds, index in self.samples[key]])

    @property
    def scale(self) -> float:
        """Reference over the median loop time of the phase (for span times)."""
        return CALIBRATION_REFERENCE / median(self.calibrations) if self.calibrations else 1.0

    @property
    def pass_seconds(self) -> float:
        """One pass, every step at its median scaled repeat."""
        return sum(self.step_seconds(key) for key in self.samples)

    @property
    def raw_pass_seconds(self) -> float:
        """One pass, every step at its median unscaled repeat."""
        return sum(median([seconds for seconds, _ in values]) for values in self.samples.values())

    @property
    def latencies(self) -> List[float]:
        return [t for window, _ in self.windows for t in window]

    @property
    def op_seconds(self) -> float:
        """The median unit operation, each step at its median scaled
        repeat; for open-loop requests, the unscaled median of the
        fastest stretch: their latency is mostly the server's flush
        timer, the server process and the loopback, which the loop in
        this process does not track (scaling each stretch by it spread
        ``serve_http``'s op_ms_p50 by 0.22 over ten seeds)."""
        if self.windows:
            return min(median(window) for window, _ in self.windows if window)
        return median([self.step_seconds(key) for key in self.op_keys])

    @property
    def timed_seconds(self) -> float:
        """All timed work of the phase, every repeat included."""
        if self.covered is not None:
            return self.covered
        return sum(seconds for values in self.samples.values() for seconds, _ in values)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: int) -> float:
    """The *q*-th percentile (``statistics.quantiles``, inclusive)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Seconds the calibration loop's fastest run takes on the reference
#: machine: about its fastest run on the 2-core host the benchmark was
#: tuned on.
CALIBRATION_REFERENCE = 0.006


def calibration_loop() -> float:
    """Seconds of a fixed pure-Python loop (dict, arithmetic, PRNG)."""
    rng = random.Random(12345)
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(12_500):
        key = rng.randrange(4096)
        acc = (acc + table.get(key, i) * 31) % 1_000_003
        table[key] = acc
    return time.perf_counter() - start


def calibration() -> float:
    """The faster of two calibration loops: the machine's current speed."""
    return min(calibration_loop(), calibration_loop())


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1 / 1024 if sys.platform != "darwin" else 1 / (1024 * 1024)
    return max(own, children) * scale


def read_program_text(name: str) -> str:
    return (ROOT / "examples" / "programs" / name).read_text()


#: The seed every workload draws the *shape* of its inputs from (graphs,
#: streams, query pools, request mixes).  The run's ``--seed`` draws the
#: vertex names: each input is the fixed shape with its vertices renamed
#: by a seeded permutation, so every seed gives other inputs of the same
#: cost.  With shapes drawn from ``--seed``, the inputs alone (the size
#: of a transitive closure or of a Dyck closure, which edge a stream
#: expires, how many writes a request burst holds) moved a run's times
#: by more than the bound of a metric.
SHAPE_SEED = 0


class Relabel:
    """A seeded renaming of the vertices ``0..n-1`` of every input."""

    def __init__(self, num_vertices: int, seed: int):
        self.names = list(range(num_vertices))
        random.Random(seed).shuffle(self.names)

    def __call__(self, vertex: int) -> int:
        return self.names[vertex]

    def fact(self, fact):
        return type(fact)(fact.predicate, tuple(self.names[a] for a in fact.args))

    def database(self, database):
        """A copy of *database* with every vertex renamed, weights kept."""
        renamed = type(database)()
        for fact in database.facts():
            renamed.add_fact(self.fact(fact), database.weight(fact))
        return renamed

    def weights(self, weights: dict) -> dict:
        return {self.fact(fact): weight for fact, weight in weights.items()}
