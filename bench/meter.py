"""Program time scaled to a fixed reference speed.

The benchmark runs on shared machines whose speed drifts by a fifth
within a minute, which swamps run-to-run differences in the program.
So a meter times a fixed reference task that never touches the package
between the program's calls, and scales each program duration by
``reference_s`` over the mean of the reference times taken just before
and just after it: a reported time is what the call would take on a
machine where the reference task takes ``reference_s``.  A change that
slows the program still slows its scaled time; a machine that slows
everything does not.

In-process workloads use ``kernel``, a few milliseconds of pure-Python
work, sampled again once a tenth of a second of program time has gone
by; a sample is the median of three runs, so one run stretched by a
preemption does not skew it.  The workload that starts child processes
uses ``stdlib_child``, a child interpreter that imports what the command
line imports from the standard library, sampled after every call,
because a child's start-up follows the machine differently from
bytecode.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# what each reference takes on the machine the bounds were set on (a
# 2.1 GHz Xeon vCPU, Python 3.11), so scaled times there read close to
# raw ones
KERNEL_S = 0.0026
CHILD_S = 0.07
SLICE_S = 0.1


@dataclass(frozen=True)
class _Row:
    a: int
    b: int
    key: tuple


def kernel() -> None:
    """Fixed work in the package's style: exact rationals, integer
    arithmetic, many small frozen records, and string formatting."""
    total = Fraction(0)
    table = {}
    for i in range(1, 90):
        value = Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(1, 3)
        total += value
        table[i % 17] = (i, str(value))
    checksum = 0
    for i in range(3500):
        checksum += i * i % 7
    lines = []
    for i in range(650):
        row = _Row(i, i * i - 3, (i % 5, -i))
        lines.append(f"{row.a},{row.b},{':'.join(str(v) for v in row.key)}")
    json.dumps(["\n".join(lines), table, checksum, str(total)])


# the standard modules the command line imports, without the package
STDLIB_IMPORTS = "import argparse, cmath, dataclasses, enum, fractions, json, math, re, tempfile, typing"


def stdlib_child(env: dict) -> None:
    """A child interpreter that imports what the command line imports
    from the standard library, and exits."""
    subprocess.run([sys.executable, "-c", STDLIB_IMPORTS], env=env, check=True)


class Meter:
    """Scaled durations of requests.

    Call ``request`` to open a request, ``timed`` (or ``add``) for each
    stretch of program time that belongs to it, ``idle`` between program
    calls, and ``take`` for the scaled durations of the requests opened
    so far.
    """

    def __init__(
        self, reference=kernel, reference_s: float = KERNEL_S, slice_s: float = SLICE_S, repeats: int = 3
    ) -> None:
        self.reference = reference
        self.reference_s = reference_s
        self.slice_s = slice_s
        self.repeats = repeats
        self.samples: list[float] = []
        self.last = self._sample()
        self.pending: list[tuple[int, float]] = []
        self.scaled: list[float] = []
        self.since = 0.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def _sample(self) -> float:
        times = []
        for _ in range(self.repeats):
            start = perf_counter()
            self.reference()
            times.append(perf_counter() - start)
        elapsed = statistics.median(times)
        self.samples.append(elapsed)
        return elapsed

    def request(self) -> None:
        self.scaled.append(0.0)

    def add(self, raw: float) -> None:
        self.pending.append((len(self.scaled) - 1, raw))
        self.since += raw
        self.raw_s += raw

    @contextmanager
    def timed(self):
        """Adds the wall time of the block, also when it raises."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add(perf_counter() - start)

    def idle(self) -> None:
        if self.since >= self.slice_s:
            self.flush()

    def flush(self) -> None:
        new = self._sample()
        factor = 2 * self.reference_s / (self.last + new)
        for index, raw in self.pending:
            self.scaled[index] += raw * factor
            self.scaled_s += raw * factor
        self.pending.clear()
        self.since = 0.0
        self.last = new

    def take(self) -> list[float]:
        if self.pending:
            self.flush()
        taken, self.scaled = self.scaled, []
        return taken

    def report(self) -> dict:
        return {
            "reference_median_s": statistics.median(self.samples),
            "reference_samples": len(self.samples),
            "program_raw_s": self.raw_s,
            "program_scaled_s": self.scaled_s,
        }


class _Unmetered:
    """For warm-up requests, whose time is not reported."""

    def request(self) -> None:
        pass

    def add(self, raw: float) -> None:
        pass

    def timed(self):
        return nullcontext()

    def idle(self) -> None:
        pass


UNMETERED = _Unmetered()
