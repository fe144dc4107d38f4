"""The speed of the machine, from a fixed loop timed around and during each
command.

The benchmark runs on shared hosts whose speed changes by up to a factor of
two within seconds, which no length of run averages out.  So every command
is timed together with a fixed pure-Python loop, run just before and just
after it and, every PROBE_INTERVAL_S while it runs, from a SIGALRM handler
(the handler runs in the main thread between bytecodes, so it pauses the
command; its time is taken out of the command's).  The command's time is
then also reported at reference speed:

    ref_seconds = seconds * REF_LOOP_S / mean(loop seconds around and during it)

The loop is the benchmark's own code and never changes with the package; it
does what the package does most (exact fractions and dictionaries of
integer counts), so a change of machine speed scales both alike while a
change of the package scales only the command.  REF_LOOP_S is about the
loop's time on a 2-vCPU x86-64 host with Python 3.11.7 at its fastest, so
reference-speed figures read as seconds on that host when it is unloaded.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Iterator

REF_LOOP_S = 0.0010  # the loop's time on the reference host, unloaded
REPEATS = 3  # loop runs per sample between commands; the sample is their median
WARMUP = 5  # samples discarded when a meter starts
PROBE_INTERVAL_S = 0.025  # one loop run per interval while a command runs

_TERMS = 400


def _loop() -> int:
    # an exact sum of fractions, with degree counts kept in a dictionary
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, _TERMS):
        total += Fraction(i * i + 1, i + 7)
        counts[i % 37] = counts.get(i % 37, 0) + i
    return (total.numerator + sum(counts.values())) % 1000003


def sample(repeats: int = REPEATS) -> float:
    """Seconds of one loop run, the median of repeats, with the garbage
    collector off so that the package's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = perf_counter()
            _loop()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


@dataclass
class Timing:
    seconds: float = 0.0  # wall time, the probes' time taken out
    ref_seconds: float = 0.0  # the same at reference speed
    probes: int = 0  # loop samples taken while the command ran


class Speedometer:
    """Times commands and the loop around and during them.  The sample after
    one command serves as the sample before the next."""

    def __init__(self, probe: bool = True) -> None:
        self.probe = probe
        for _ in range(WARMUP):  # let the interpreter specialise the loop
            sample()
        self.last = sample()

    def resample(self) -> None:
        """Call before a command when other work ran since the last one."""
        self.last = sample()

    @contextmanager
    def timing(self) -> Iterator[Timing]:
        """Times the body; the Timing is filled in when the body ends."""
        timing = Timing()
        loops = [self.last]
        paused = 0.0

        def probe(signum, frame) -> None:
            nonlocal paused
            start = perf_counter()
            loops.append(sample(1))
            paused += perf_counter() - start

        if self.probe:
            previous = signal.signal(signal.SIGALRM, probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = perf_counter()
        try:
            yield timing
        finally:
            if self.probe:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seconds = perf_counter() - start - paused
            self.last = sample()
            loops.append(self.last)
            timing.seconds = seconds
            timing.ref_seconds = seconds * REF_LOOP_S / statistics.fmean(loops)
            timing.probes = len(loops) - 2
