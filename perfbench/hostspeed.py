"""A probe of the host's speed, timed next to every timed block.

On a shared host the speed of one core changes by up to a half for
seconds to minutes at a time, as other tenants load the machine: a fixed
loop of pure Python and `np.sort` took 21-23 ms in one spell and 30-36 ms
in the next.  So an untraced run probes the host before and after every
timed block, and scales each block's time by `REF_S` over the median of
the probes made within `WINDOW_S` of it.  The scaled time is the block's
time on a host where the probe takes `REF_S`.  The probe is the
benchmark's own code, which no change to the package moves: interpreted
loops and small numpy calls, the two kinds of work the package does.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.002  # probe time the scaled figures are given at
REPEATS = 3  # runs of the kernel per probe; the probe is the fastest
WINDOW_S = 2.0  # probes this close to a block set its scale

_INTS = list(range(1000))
_rng = np.random.default_rng(0)
_FLOATS = _rng.random(8000)
_WORDS = _rng.integers(0, 2**62, 1500)


def _kernel() -> None:
    total = 0
    for i in _INTS:
        total += i * i
    slots = {}
    for i in _INTS:
        slots[i & 255] = i
    np.sort(_FLOATS)
    bits = np.unpackbits(_WORDS.view(np.uint8))
    np.flatnonzero(bits)
    np.cumsum(bits)


def probe() -> float:
    """Seconds taken by the fixed kernel: the fastest of REPEATS runs, so
    that caches the block before it left cold do not count."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Host:
    """Probes of the host's speed over a run, and the scale factor they
    give a timed block.  With `enabled` false no probe runs and every
    factor is 1."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.at: list = []  # clock time of each probe
        self.probes: list = []  # seconds each probe took

    def mark(self) -> None:
        """Probe now; called before and after every timed block."""
        if self.enabled:
            took = probe()
            self.at.append(time.perf_counter())
            self.probes.append(took)

    def scale(self, t0: float, t1: float) -> float:
        """`REF_S` over the median of the probes made from WINDOW_S before
        a block that ran from `t0` to `t1` until WINDOW_S after it; call
        once the run's probes are all made."""
        if not self.enabled:
            return 1.0
        lo, hi = np.searchsorted(self.at, [t0 - WINDOW_S, t1 + WINDOW_S])
        return REF_S / float(np.median(self.probes[lo:hi]))
