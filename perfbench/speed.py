"""Machine-speed calibration: a fixed reference computation timed between ops.

On a shared host a neighbour can slow this process by a third or a half for
seconds, sometimes for a minute, and a run of 20 seconds cannot average that
out: the same op at the same seed measured 13 ops/s in one 20-second window
and 20 in the next.  So the worker times a short fixed computation, the
reference, before every op and once after the last.  The reference's time
against ``REFERENCE_S`` says how fast the machine runs at that moment; each
op's latency is divided by the factor measured around it (``factors``).  Both
figures are kept: the report prints the raw ones next to the calibrated ones.

The reference is pure-Python work of the program's two kinds, about half its
time each: integer arithmetic (fraction-free elimination, a modular orbit
walk into a set), and object work (lookups in a table of 4096 entries, JSON
rendering with indentation).  Timed against the program over minutes of
changing load, the integer half alone moved less than the program's ops did
and the object half more; together they track them closest.  It shares no
code with the program, so a change to the program cannot change it, and it
imports only the standard library and holds a few hundred kB.
"""

from __future__ import annotations

import json
import random
import statistics
from time import perf_counter

# Median time of one reference pass on the machine the benchmark was tuned on
# (2 vCPUs of a shared x86-64 host, CPython 3.11).  A calibrated figure is the
# time the op would take on that machine at its usual speed.
REFERENCE_S = 0.00045
# timed passes per probe, after one untimed pass that warms the caches (a
# child process or a long op leaves them cold); the probe is their median,
# so one interrupt does not count
PASSES = 3
# probes per factor: the median of this many probes centred on the op
WINDOW = 4

_MATRIX = tuple(
    tuple((7 * i * i + 3 * j + 11 * i * j) % 23 - 11 for j in range(9)) for i in range(9)
)
_rng = random.Random(1)
_TABLE = {_rng.getrandbits(48): i for i in range(4096)}
_KEYS = list(_TABLE)[::5]
_DOCS = [{"a": i, "b": [i, 3 * i, 7 * i], "c": f"x{i}"} for i in range(24)]


def _reference() -> int:
    a = [list(row) for row in _MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    seen, x = set(), 1
    for _ in range(1500):
        x = x * 7 % 100003
        seen.add(x)
    total = sum(_TABLE[k] for k in _KEYS)
    return a[-1][-1] + len(seen) + total + len(json.dumps(_DOCS, indent=2))


def probe() -> float:
    """Seconds of one reference pass now: the median of ``PASSES`` passes."""
    _reference()
    times = []
    for _ in range(PASSES):
        t0 = perf_counter()
        _reference()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def factors(probes: list[float], samples: int) -> list[float]:
    """Slowdown during each of ``samples`` ops, from the probes around them.

    ``probes[k]`` was taken just before op k and ``probes[k + 1]`` just after
    it; op k's factor is the median of the ``WINDOW`` probes centred there,
    over ``REFERENCE_S``.
    """
    out = []
    for k in range(samples):
        lo = max(0, min(k + 1 - WINDOW // 2, len(probes) - WINDOW))
        out.append(statistics.median(probes[lo:lo + WINDOW]) / REFERENCE_S)
    return out
