"""Outside-in timing for the benchmark.

Nothing here edits the program.  Per-request latency comes from a thin
wrapper installed over a transport's ``send``; per-layer spans come from
:class:`Tracer`, which swaps the public functions and methods each layer
exposes for timing wrappers and puts the originals back on exit.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict

#: Percentile ladder for the tail diagnostic, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of unsorted values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    return best


def time_sends(transport, samples, unusual: list | None = None) -> None:
    """Append the wall time of every ``transport.send`` to ``samples`` (ns).

    ``samples`` is a list or an ``array("q")``.  The wrapper is an
    instance attribute, so every caller holding the transport object
    goes through it.  When ``unusual`` is given, each response whose
    status is neither 200 nor 429 (the rate limiter's refusal, which the
    checks allow) is kept there as ``(url, status)`` for the output
    check after the timed region.
    """
    send = transport.send
    clock = time.perf_counter_ns

    def timed_send(request, *args, **kwargs):
        start = clock()
        try:
            response = send(request, *args, **kwargs)
        finally:
            samples.append(clock() - start)
        if unusual is not None and response.status not in (200, 429):
            unusual.append((request.url, response.status))
        return response

    transport.send = timed_send


def record_sends(transport, records: list) -> None:
    """Like :func:`time_sends`, keeping ``(url, X-Cache, status, ns)`` per send."""
    send = transport.send
    clock = time.perf_counter_ns

    def recorded_send(request, *args, **kwargs):
        start = clock()
        response = send(request, *args, **kwargs)
        records.append((request.url, response.headers.get("X-Cache"),
                        response.status, clock() - start))
        return response

    transport.send = recorded_send


class Tracer:
    """Times calls into a layer's public entry points.

    ``Tracer(targets)`` wraps each ``(target, metric)`` pair at once.
    ``wrap(target, metric)`` replaces ``module:attr`` or
    ``module:Class.method`` with a wrapper that adds the call's wall and
    CPU time to ``metric``.  Only the outermost call of a metric is
    timed, so entry points that call one another are not counted twice.
    ``observers`` get ``(metric, args, result)`` after each outermost
    call, which lets a workload pick up the object a layer built.
    """

    def __init__(self, targets=()) -> None:
        self.wall: dict[str, float] = defaultdict(float)
        self.cpu: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.observers: list = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, bool]] = []
        for target, metric in targets:
            self.wrap(target, metric)

    def wrap(self, target: str, metric: str) -> None:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        if not hasattr(owner, attr):
            # A renamed entry point leaves its metric at zero instead of
            # failing the run; the name is reported on stderr.
            self.missing.append(target)
            return
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        def traced(*args, **kwargs):
            depth = tracer._depth
            if depth[metric]:
                return original(*args, **kwargs)
            depth[metric] += 1
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.cpu[metric] += time.process_time() - cpu0
                tracer.wall[metric] += time.perf_counter() - wall0
                depth[metric] -= 1
            for observe in tracer.observers:
                observe(metric, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        if self.missing:
            print("trace: entry points not found: " + ", ".join(self.missing),
                  file=sys.stderr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
