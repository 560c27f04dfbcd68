"""Host-speed normalization of the benchmark's timings.

On a shared host the same code runs up to twice as slow for minutes at
a time while other tenants load the machine, and its speed also moves
by tens of percent from one tenth of a second to the next.  A median
inside one run removes neither the slow drift nor, for a handful of
multi-second passes, the fast one.  So while a :class:`Sampler` is
entered, a timer signal interrupts the program every
:data:`INTERVAL_S` and runs :func:`probe`, a fixed ~0.25 ms mix of
the kinds of work repro does (interpreter arithmetic, object and dict
churn, small numpy calls).  The probes sample the host's speed evenly
in time, and a timing is reported as the seconds it would have taken
on a host where the probe takes :data:`REF_PROBE_S`::

    normalized = seconds * mean(REF_PROBE_S / probe time)

over the probes taken while it ran.  ``seconds`` comes from
:meth:`Sampler.clock`, which leaves out the probes' own time.

The probe is benchmark code, not repro's, so a change to repro moves
the measured seconds and leaves the probe alone.  Its mix was chosen on
a 2-vCPU shared VM as the one whose normalized times spread least over
runs of all five workloads: small numpy calls track the host best,
while cache-missing memory reads, tried too, tracked none of them.
"""

from __future__ import annotations

import array
import gc
import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

#: Seconds :func:`probe` takes on a quiet host (2-vCPU Intel Xeon VM,
#: Python 3.11, numpy 2.4).  Only a scale: changing it rescales every
#: normalized timing, so it stays fixed once baselines exist.
REF_PROBE_S = 0.00025
#: Seconds between probes: about 2 % of the run goes to probing.
INTERVAL_S = 0.02

_VEC = np.arange(64.0)
_SORTED = np.linspace(0.0, 1.0, 512)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _work() -> None:
    # About 15 % arithmetic, 25 % objects and 60 % numpy calls by time.
    total = 0
    for i in range(600):
        total += i * i % 7
    points, table = [], {}
    for i in range(120):
        p = _Point(i, i * 0.5)
        table[i & 1023] = (p.a, p.b * 1.0001)
        points.append(p)
    points.sort(key=lambda p: -p.b)
    for _ in range(45):
        total += float(_VEC @ _VEC)
        total += int(np.searchsorted(_SORTED, 0.5))


def probe() -> float:
    """Wall seconds of one fixed reference workload, with the garbage
    collector off so the size of repro's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Timing(NamedTuple):
    """A measured time and the host's speed while it ran."""

    seconds: float
    #: Mean of ``REF_PROBE_S / probe time`` over the probes taken
    #: meanwhile: above 1 on a host faster than the reference.
    scale: float

    @property
    def normalized(self) -> float:
        """Seconds at the reference host speed."""
        return self.seconds * self.scale


class Sampler:
    """Probes the host every :data:`INTERVAL_S` while entered.

    The probes run in a ``SIGALRM`` handler, so in the main thread
    between two bytecodes (after a long native call returns, at the
    latest).  Leaving the ``with`` block disarms the timer and restores
    the previous handler.
    """

    def __init__(self) -> None:
        self.probes = array.array("d")
        #: Seconds spent in the handler so far.
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        # A signal that arrives while a probe runs (the process was
        # descheduled for a whole interval) is dropped, not nested.
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.probes.append(probe())
            self.spent += time.perf_counter() - t0
        finally:
            self._busy = False

    def clock(self) -> float:
        """Wall seconds, less the time spent probing."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            # A probe between the two reads would be counted in
            # ``now`` but not in ``spent``: read again.
            if spent == self.spent:
                return now - spent

    def mark(self) -> int:
        """A position in the probe series, for :meth:`scale_since`."""
        return len(self.probes)

    def scale_since(self, mark: int) -> float:
        """:attr:`Timing.scale` over the probes taken since ``mark``;
        one probe is run here if none was."""
        taken = self.probes[mark:] or [probe()]
        return statistics.fmean(REF_PROBE_S / p for p in taken)

    def timed(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), Timing)``."""
        mark = self.mark()
        t0 = self.clock()
        out = fn(*args, **kwargs)
        return out, Timing(self.clock() - t0, self.scale_since(mark))
