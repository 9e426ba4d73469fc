"""How fast the machine ran while a call was timed.

The benchmark runs on a few virtual cores of a shared host, whose speed
drifts by tens of percent for seconds to minutes at a time.  Every
process slows together (CPU time grows as much as wall time), so neither
CPU time nor a median over the calls of one run removes the drift.

``SpeedMeter`` samples the speed during the timed call itself.  An
interval timer interrupts the process every ``interval`` seconds of wall
time, and the signal handler times one fixed probe: a small pure-Python
integer matrix product, the kind of interpreter work seidelkit does.  A
process forked while the meter is on (a scan's pool worker) arms its own
timer and writes its probe times to a shared file, so the speed of a
pool scan is also read where the work is done.

The probe is timed in thread CPU time, so a probe that waits while a
pool worker has the core is not read as slow.  The machine's speed at a
sample is ``REFERENCE_PROBE_S / probe time``; ``factor`` is its mean over
the samples of every process of the call, that is over their wall time.
``wall seconds * factor`` is the call's duration in reference seconds:
what it would have taken with the probe at its reference speed.
The probe is the benchmark's own code, so a change to seidelkit does not
move it; its handler runs inside the timed call and costs about 1 %.
"""

import os
import signal
import struct
from time import thread_time

# A round figure near the probe's time on the reference machine (2 vCPUs,
# Python 3.11.7).  It only sets the unit: the ratio of two runs does not
# depend on it.
REFERENCE_PROBE_S = 0.5e-3
PROBE_INTERVAL_S = 0.05
WARM_PROBES = 5

_MATRIX = [[(3 * i + 5 * j) % 11 - 5 for j in range(12)] for i in range(12)]
_COLUMNS = list(zip(*_MATRIX))


def probe() -> float:
    """CPU seconds of one fixed piece of interpreter work."""
    start = thread_time()
    m = _MATRIX
    for _ in range(2):
        m = [[sum(x * y for x, y in zip(row, col)) for col in _COLUMNS]
             for row in m]
    return thread_time() - start


_active = None  # the meter that is on, if any
_hook_registered = False


def _after_fork_in_child():
    if _active is not None:
        _active._start_in_child()


class SpeedMeter:
    """Samples the probe every ``interval`` s of wall time while it is on.

    ``sink`` is a file path that forked children append their samples to;
    it is truncated when the meter starts.
    """

    def __init__(self, sink, interval=PROBE_INTERVAL_S):
        self.sink = sink
        self.interval = interval
        self.samples = []
        self.child_samples = []
        self._fd = None
        self._in_child = False
        self._previous = None

    def _handler(self, signum, frame):
        seconds = probe()
        if self._in_child:
            os.write(self._fd, struct.pack("d", seconds))
        else:
            self.samples.append(seconds)

    def _start_in_child(self):
        self._in_child = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def __enter__(self):
        global _active, _hook_registered
        if _active is not None:
            raise RuntimeError("a speed meter is already on")
        if not _hook_registered:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _hook_registered = True
        for _ in range(WARM_PROBES):
            probe()  # so that no sample times the probe's first, cold runs
        self.samples.clear()
        self._fd = os.open(self.sink, os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                           | os.O_APPEND)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        _active = self
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        _active = None
        os.close(self._fd)
        with open(self.sink, "rb") as fh:
            self.child_samples = [s for (s,) in struct.iter_unpack("d",
                                                                   fh.read())]
        return False

    def factor(self) -> float:
        """Mean speed over the call, relative to the reference speed.

        The samples of the calling process and of its forked workers are
        pooled, each standing for one interval of one process.  A call
        shorter than one interval gets one probe, taken here.
        """
        samples = self.samples + self.child_samples or [probe()]
        return sum(REFERENCE_PROBE_S / s for s in samples) / len(samples)
