"""Machine-speed probe that runs alongside the timed job.

The benchmark's host shares its cores with other machines, and its speed
drifts by tens of percent within seconds and between runs.  To report
times that do not move with that drift, ``SpeedProbe`` interrupts the
process every ``PERIOD_S`` of wall time (SIGALRM) and runs one fixed
chunk of reference work, written like the library's hot path (small
numpy ufunc stacks and a Python loop) but sharing no code with it.  The
mean chunk time over the job is the host's slowdown during the job, and
``rescale`` converts a time measured at that slowdown into a time at
reference speed, where a chunk takes ``REF_CHUNK_S``.  A change to
dmchain does not change the probe, so a faster library still reads as
faster.

When the host is busy, dmchain's work slows more than the probe's:
across fresh-process repetitions here, log job time grew about 1.3 to
1.5 times as fast as log chunk time.  ``ELASTICITY`` applies that
exponent; with 1 instead, the run-to-run spread of ``wall_s`` on the
figures and features workloads was up to three times as wide.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.02
# Mean chunk time of this host when it is quiet; the unit of reported time.
REF_CHUNK_S = 1.1e-3
ELASTICITY = 1.3

_X = np.linspace(0.01, 3.0, 120)
_ONES = np.ones(15)


def chunk():
    """Fixed reference work, about a millisecond."""
    acc = 0.0
    for i in range(40):
        s = np.sin(_X + i * 1e-3)
        c = np.cos(_X)
        u = 0.3 * (c - 0.2 * s) - 1.0
        d = np.sqrt(u * u + (0.1 * s) ** 2)
        y = np.stack([u / d, c * u / d, s * s / d, s * s * u / d ** 3])
        acc += float((y.reshape(4, 8, 15) @ _ONES).sum())
        acc += sum(k * k for k in range(30))
    return acc


def rescale(seconds, chunk_s):
    """``seconds`` measured while a chunk took ``chunk_s``, at reference speed."""
    return seconds * (REF_CHUNK_S / chunk_s) ** ELASTICITY


class SpeedProbe:
    """Runs ``chunk`` every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.spent = 0.0
        self.chunks = 0
        self.t0 = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        chunk()
        self.spent += time.perf_counter() - t0
        self.chunks += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.t0 = time.perf_counter()

    def stop(self):
        """(wall time since ``start`` less the probe's own, mean chunk time)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - self.t0
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.chunks:
            raise RuntimeError("the speed probe never ran; the job is too short")
        return wall - self.spent, self.spent / self.chunks
