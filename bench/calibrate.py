"""Host-speed calibration.

The host's speed swings by up to a factor of two, in stretches of ten
seconds to minutes (bench/STEADINESS.md), far more than any bound of the
benchmark.  So every timing is scaled to the reference host's usual speed:
while a round runs, a timer interrupts the worker every ``INTERVAL_S``
seconds to take a sample of a fixed piece of work that does not touch
legknots, and the time the samples take is left out of the request
latencies.  A request's latency is multiplied by ``REFERENCE_S`` over the
mean sample taken from ``WINDOW_S`` before it starts until ``WINDOW_S``
after it ends.  A change to the program moves a scaled time as much as a
raw one; a change of the host's speed moves both the latency and the
samples around it, and cancels.

The work is the pivot search of a Smith normal form: a scan of a fixed
sparse 150 x 150 integer matrix for its entry of least bit length.  Like
legknots' hot loops it is interpreter-bound list indexing and small-integer
arithmetic, and on the reference host its speed follows the program's more
closely than exact rational elimination does.  The mean, not the median,
is taken because a latency integrates the host's speed over time, and the
mean of equal pieces of work does the same.
"""

import gc
import random
import signal
import statistics
import time

# The mean of sample() on the reference host (2-vCPU Intel Xeon at
# 2.1 GHz, Python 3.11.7).  It only sets the scale of the scaled times.
REFERENCE_S = 0.0025
INTERVAL_S = 0.05
WINDOW_S = 0.5

_SIZE = 150
_SWEEPS = 3
_rng = random.Random(5)
_MATRIX = [[0] * _SIZE for _ in range(_SIZE)]
for _row in _MATRIX:
    for _col in _rng.sample(range(_SIZE), 3):
        _row[_col] = _rng.randint(1, 255)


def sample() -> float:
    """Seconds this host takes, now, for the fixed scan.  The garbage
    collector is off meanwhile, so that the program's heap does not bill
    the sample for its collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_SWEEPS):
            best = None
            for i in range(_SIZE):
                row = _MATRIX[i]
                for j in range(_SIZE):
                    entry = row[j]
                    if entry and (best is None or entry.bit_length() < best):
                        best = entry.bit_length()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """What scales a time measured among ``samples`` to reference speed."""
    return REFERENCE_S / statistics.fmean(samples)


class Sampler:
    """Samples taken on a SIGALRM timer in the main thread, as
    ``(start, seconds)`` on the ``time.perf_counter`` clock; ``take`` is
    ``sample`` or a wrapper of it that times it the same way."""

    def __init__(self, take=sample):
        self.samples = []
        self._sample = take

    def _take(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, self._sample()))

    def start(self):
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, start: float, end: float) -> float:
        """Seconds of sampling that began in [start, end)."""
        return sum(seconds for began, seconds in self.samples if start <= began < end)


def scaled(latencies, spans, samples) -> list:
    """Latencies at reference speed; ``spans`` holds each request's
    (start, end), ``samples`` the round's ``(start, seconds)`` samples."""
    everything = [seconds for _, seconds in samples]
    out = []
    for latency, (start, end) in zip(latencies, spans):
        near = [s for began, s in samples if start - WINDOW_S <= began < end + WINDOW_S]
        out.append(latency * factor(near or everything))
    return out
