"""Host-speed probe: times that do not move with the host's load.

The benchmark runs on a few cores of a shared machine.  Its speed
shifts by up to half for tens of seconds at a time as neighbours load
it, and the same crawl pass then reads 2.1 s or 3.5 s.  The probe runs
a fixed slice of interpreter work every ``PERIOD_S`` of wall time, in
the program's own thread (from a ``SIGALRM`` handler), so the slices
sample the speed the program got over the same interval.

A timed span's *reference time* is its wall time minus the slices that
ran inside it, scaled by ``NOMINAL_SLICE_S`` over the span's mean slice
time: the time the span would have taken with the host at the speed
where one slice takes ``NOMINAL_SLICE_S``.  The slice is benchmark code
only, so a change to the program moves the reference time exactly as
it moves the work, and a change of host speed moves neither.
"""

from __future__ import annotations

import gc
import json
import re
import signal
import time
from dataclasses import dataclass

#: Wall time between slices.  One slice costs about 3% of this.
PERIOD_S = 0.01
#: A slice's time on the 2-core development host in its unloaded state
#: (Intel Xeon at 2.0 GHz, Python 3.11); reference times read close to
#: wall times there.
NOMINAL_SLICE_S = 0.00025
#: Spans with fewer slices than this use the mean over the whole run.
MIN_SLICES = 5

_WORD = re.compile(r"[a-z]+\d*")


class _Row:
    __slots__ = ("key", "size", "words")

    def __init__(self, key: str, size: int, words: list) -> None:
        self.key = key
        self.size = size
        self.words = words


def reference_slice(rounds: int = 60) -> int:
    """A fixed mix of the interpreter work the program does.

    String formatting, dict updates, small objects, a regex scan and a
    JSON dump, on data of its own.
    """
    counts: dict[str, int] = {}
    sizes = []
    for i in range(rounds):
        key = f"user{i % 17}/thread{i % 5}"
        counts[key] = counts.get(key, 0) + i
        text = "<li class='c'>%d %s</li>" % (i, key)
        row = _Row(key, len(text), _WORD.findall(text))
        sizes.append(row.size + len(row.words))
        if i % 10 == 0:
            sizes.append(len(json.dumps({"k": row.key, "w": row.words})))
    return sum(sizes) + len(counts)


@dataclass
class Span:
    """Wall time of a timed region and the slices that ran inside it."""

    wall: float = 0.0
    slice_s: float = 0.0
    slices: int = 0


class HostProbe:
    """Runs reference slices on a wall-clock timer while it is entered.

    ``enabled=False`` gives a probe that runs no slices and reports
    wall time as reference time, for the traced runs.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.slice_total = 0.0
        self.slices = 0
        self._busy = False
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_slice()
            self.slice_total += time.perf_counter() - start
            self.slices += 1
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self) -> "HostProbe":
        if self.enabled:
            for _ in range(20):
                reference_slice()
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """Call ``fn()``: (its result, the :class:`Span` it took)."""
        total, count = self.slice_total, self.slices
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        return result, Span(wall, self.slice_total - total, self.slices - count)

    def mean_slice_s(self, span: Span) -> float:
        if span.slices >= MIN_SLICES:
            return span.slice_s / span.slices
        if self.slices:
            return self.slice_total / self.slices
        return NOMINAL_SLICE_S

    def reference_s(self, span: Span) -> float:
        """The span's time at the nominal host speed (see module doc)."""
        return self.scale(span.wall - span.slice_s, span)

    def scale(self, seconds: float, span: Span) -> float:
        """``seconds`` of work done during ``span``, at the nominal speed."""
        if not self.enabled:
            return seconds
        return seconds * NOMINAL_SLICE_S / self.mean_slice_s(span)

    def host_factor(self) -> float:
        """Mean slice time over the nominal one: 1.0 on an unloaded host."""
        if not self.slices:
            return 1.0
        return self.slice_total / self.slices / NOMINAL_SLICE_S
