"""Host-speed calibration: timings expressed at one reference host speed.

The 2-vCPU VMs this benchmark is tuned on change speed by 2-3x from one
minute to the next: the physical host's clock frequency and its other
tenants slow the vCPUs, in CPU time as much as in wall time.  Medians
within a run cannot remove a slowdown that lasts the whole run, and
runs minutes apart then disagree by more than any useful bound.

So every timed segment of program work is bracketed by two short runs
of a fixed calibration job that never changes with the program (numpy
array arithmetic and a pure-Python loop, the two kinds of work the
codec does).  The segment's seconds are multiplied by
``mean(rate before, rate after) / REF_RATE``: a segment run while the
host was twice as slow as the reference counts half its wall time.  A
change to the program does not touch the calibration job, so it moves
the scaled figures by the same share as the raw ones.

The raw (unscaled) figures and the measured speed are printed on the
``host:`` line of every run.
"""

from __future__ import annotations

import time

import numpy as np

from harness import median

#: Calibration jobs per second on the reference host (a 2-vCPU Xeon VM,
#: Python 3.11, numpy 2.4) in its slow state.  A constant: it only fixes
#: the scale, and parent and change are measured against the same one.
REF_RATE = 1400.0
#: Wall seconds of calibration per sample.
SAMPLE_S = 0.1
_VALUES = 1 << 16
_LOOP = 3000


class HostSpeed:
    """Times the fixed calibration job; keeps every rate it measured."""

    def __init__(self):
        rng = np.random.default_rng(20251017)
        self._a = rng.random(_VALUES, dtype=np.float32)
        # Preallocated buffers: the job allocates nothing, so page
        # faults and allocator state do not move its speed.
        self._f = np.empty(_VALUES, np.float32)
        self._q, self._d, self._u, self._t = (np.empty(_VALUES, np.int32) for _ in range(4))
        self._c = np.empty(_VALUES, np.int64)
        self._small = [int(x) for x in rng.integers(0, 1 << 20, size=_LOOP)]
        self.rates: list[float] = []
        self._job()

    def _job(self) -> int:
        """Quantize, delta, zigzag and prefix-sum 256 KB; a short Python loop."""
        np.multiply(self._a, 1000.0, out=self._f)
        np.rint(self._f, out=self._f)
        np.copyto(self._q, self._f, casting="unsafe")
        np.subtract(self._q[1:], self._q[:-1], out=self._d[1:])
        self._d[0] = self._q[0]
        np.left_shift(self._d, 1, out=self._u)
        np.right_shift(self._d, 31, out=self._t)
        np.bitwise_xor(self._u, self._t, out=self._u)
        np.cumsum(self._u, out=self._c)
        acc = 0
        for v in self._small:
            acc += (v ^ (v >> 3)) & 7
        return int(self._c[-1]) + acc

    def sample(self) -> float:
        """Jobs per wall second now, over one short sample.

        Wall time, like the program's timings: a vCPU the host shares
        out in time slices slows both alike.
        """
        jobs = 0
        t0 = time.perf_counter()
        while True:
            self._job()
            jobs += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SAMPLE_S:
                break
        rate = jobs / elapsed
        self.rates.append(rate)
        return rate

    def segments(self) -> "Segments":
        return Segments(self)

    def relative(self) -> float:
        """Median measured speed as a share of the reference speed."""
        return median(self.rates) / REF_RATE


class Segments:
    """Consecutive segments of program work, each bracketed by samples.

    ``close()`` ends the current segment and returns its scale: the
    factor that turns its wall seconds into reference-host seconds.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self._last = speed.sample()

    def close(self) -> float:
        rate = self.speed.sample()
        scale = (self._last + rate) / 2.0 / REF_RATE
        self._last = rate
        return scale


class Unscaled:
    """Stand-in for :class:`Segments` where no scaling is wanted."""

    def close(self) -> float:
        return 1.0
