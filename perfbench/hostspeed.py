"""Host speed sampling, so that timings can be read at one reference speed.

The benchmark runs on virtual machines whose host is shared.  There the
same pure-Python work runs at two speeds that switch within a second and
persist for minutes: on 2 vCPUs of a 2.1 GHz Xeon with Python 3.11, a
fixed 2000-step kernel took about 300 us in the fast state and 420-450 us
in the slow one.  CPU time tracks wall time and pinning does not help, so
a median of wall seconds depends on how much of a run fell in each state.

:class:`SpeedProbe` measures the state while the timed work runs: a
``SIGALRM`` interval timer interrupts the main thread every ``INTERVAL_S``
and the handler times one run of a fixed pure-Python kernel (``kernel``,
about 25-50 us).  A signal handler runs between two bytecodes of the
interrupted code, so the samples fall evenly over the wall time of
interpreted work.  :meth:`SpeedProbe.reference_seconds` turns the wall
seconds of an interval into *reference seconds*: the seconds that interval
would have taken had the host run at the speed where the kernel takes
``REFERENCE_KERNEL_S``.  With speed ``s(t)`` proportional to
``1 / kernel time``, the work done in ``[t0, t1]`` is the integral of
``s``, and the reference seconds are estimated as
``REFERENCE_KERNEL_S * (t1 - t0 - kernel time inside) * mean(1 / c_i)``
over the kernel times ``c_i`` sampled in the interval.

Nothing of the library is timed by the kernel; a change to ``endop``
changes the wall seconds and leaves the kernel as it was.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.004
# sets only the scale of reference seconds.  On 2 vCPUs of a shared 2.1 GHz
# Xeon with Python 3.11 the kernel took about 25 us fast and 35-50 us slow,
# and reference seconds read 0.75-0.80 of the wall seconds of the same work
REFERENCE_KERNEL_S = 34e-6


def kernel():
    """Fixed interpreter work of the library's kind: tuples, dicts, ints."""
    d = {}
    for i in range(160):
        d[(i, i & 7)] = i * 3 % 11
    s = 0
    for v in d.values():
        s += v
    return s


class SpeedProbe:
    """Samples the host's speed from a timer signal while it is started."""

    def __init__(self):
        self.ends = []  # perf_counter at the end of each sample
        self.kernel_s = []  # the kernel's duration in each sample
        self._previous = None
        for _ in range(50):  # warm the kernel's code before the first sample
            kernel()

    def _sample(self, _signum, _frame):
        clock = time.perf_counter
        t0 = clock()
        kernel()
        t1 = clock()
        self.ends.append(t1)
        self.kernel_s.append(t1 - t0)

    def start(self):
        self._sample(None, None)  # so that every interval has a neighbour
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def reference_seconds(self, t0, t1):
        """Reference seconds of the wall interval ``[t0, t1]``.

        Uses the samples that ended inside it; an interval too short to hold
        one uses the samples just before and after it.
        """
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = self.kernel_s[lo:hi]
        if inside:
            rates = inside
        else:
            rates = self.kernel_s[max(lo - 1, 0):lo + 1]
        if not rates:
            raise RuntimeError("no speed sample: the probe was not started")
        work_s = (t1 - t0) - sum(inside)
        return work_s * REFERENCE_KERNEL_S * sum(1.0 / c for c in rates) / len(rates)
