"""Host-speed calibration: times at a fixed reference speed.

The benchmark shares a few cores of a busy host.  Its speed swings by up to
1.5x over tenths of a second and drifts over minutes, with no steal time to
show for it (process CPU time swings with wall time), so the raw time of
the same pass differs by a quarter between runs minutes apart.

While a measured region runs, an interval timer interrupts it every
``INTERVAL_S`` and runs one calibration unit: fixed integer-polynomial and
dict arithmetic written here, which the package under test cannot change.
The units sample the host's speed through the same tenths of a second as
the region's own work.  The region's net time is its elapsed time minus the
time of the units run inside it, and ``scaled`` reports a net time as it
would read on a host where one unit takes ``REF_UNIT_S``:

    scaled(net) = net * REF_UNIT_S / (median time of one unit)

The median, not the mean: now and then a unit takes several times its
usual time, and a few such units among thousands move the mean of a run by
a tenth while the package's own time, spread over the whole run, moves
little.

A change to the package moves the net time and not the units, so it moves
the scaled time by the same share.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

INTERVAL_S = 0.01
# the median time of one unit on a 2-vCPU Intel Xeon VM at 2.1 GHz, idle but
# for the benchmark; it fixes the scale of every reported time
REF_UNIT_S = 0.00045
WARM_UNITS = 50

_P = (1, -2, 3, 1, 4)
_M = (1, 3, -2, 1)


def unit() -> int:
    """One calibration unit: products, pseudo-remainders and contents of
    small integer polynomials, kept in a dict.  Always the same work."""
    p, acc, seen = _P, 0, {}
    for k in range(40):
        prod = [0] * (len(p) + len(_M) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(_M):
                prod[i + j] += x * y
        r, lb = prod, _M[-1]
        while len(r) >= len(_M):
            head, shift = r[-1], len(r) - len(_M)
            r = [x * lb for x in r]
            for j, y in enumerate(_M):
                r[shift + j] -= head * y
            r.pop()
        g = 0
        for x in r:
            g = math.gcd(g, x)
        seen[(k, g)] = tuple(r)
        p = tuple(x % 89 - 44 for x in r) + (k % 5 + 1,)
        acc += len(seen)
    return acc


class Sampler:
    """Runs calibration units on an interval timer while armed.

    ``times`` holds the time of every unit run so far and ``units_s`` their
    sum; a region's net time is its elapsed time minus the growth of
    ``units_s`` over it.
    """

    def __init__(self):
        self.times: list[float] = []
        self.units_s = 0.0
        self._busy = False
        self._previous = None
        for _ in range(WARM_UNITS):  # warm the interpreter's caches for unit()
            unit()

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        # a collection of the package's garbage is the package's time, not the unit's
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        unit()
        took = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.times.append(took)
        self.units_s += took
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

def scaled(net_s: float, unit_times: list[float]) -> float:
    """A net time measured while the units took ``unit_times``, at the
    reference speed."""
    if not unit_times:
        raise RuntimeError("no calibration unit ran; the measured region was shorter than the timer interval")
    return net_s * REF_UNIT_S / statistics.median(unit_times)
