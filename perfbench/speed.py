"""Host speed sampling, so that times measure the program and not the host.

The 2-vCPU virtual machine the benchmark was built on runs each vCPU at one
of two speeds, about 1.8x apart, in episodes of seconds to minutes; a run
could spend all or none of its time in the slow state, and raw times moved
by that factor between runs of one commit.  So every time the benchmark
reports for the work (not for set-up, see below) is scaled to a reference
host speed:

    scaled time = measured time * REFERENCE_S / kernel time

where the kernel is a fixed small-array numpy loop that shares no code with
su11lso, timed on the same thread while the program runs.  A program change
that makes the work faster or slower moves the scaled time as much as the
measured one; a slow episode of the host moves both the work and the kernel.

``Sampler`` times the kernel ten times a second from a SIGALRM handler on
the main thread.  ``Sampler.scale`` turns a measured interval into a scaled
one by integrating the sampled speed over the interval, after taking out the
benchmark's own time spent inside the interval.
That steadies long intervals (a whole workload) but not single operations of
a millisecond: at times the host flips speed within milliseconds, so the
``points`` workload pairs each of its operations with kernel runs of its
own instead (see ``workload.points_work``).  Set-up is not scaled: numpy is
only there once most of it is over, and scaling by samples taken right after
it spread the set-up times more than it steadied them.  Nor is the
``validate`` workload, whose LAPACK and BLAS work hardly follows the kernel
(see ``workload.WORKLOADS``).
"""

from __future__ import annotations

import signal
import statistics
import time

# kernel time at the reference speed: about its time on a fast vCPU of the
# machine the benchmark was built on, so scaled times read close to that
# machine's times at full speed
REFERENCE_S = 1.25e-4
INTERVAL_S = 0.1  # time between samples
REPEATS = 3  # kernel runs per sample; the fastest counts, so that an
# interrupt landing in one run does not read as a slow host


def kernel_seconds():
    """Time of one run of the reference kernel (about 0.1 ms)."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 24)
    t0 = time.perf_counter()
    for _ in range(40):
        x = np.exp(-x) * 0.5 + np.sqrt(x)
    return time.perf_counter() - t0


def sample_seconds():
    """Kernel time of one sample: the fastest of REPEATS runs."""
    return min(kernel_seconds() for _ in range(REPEATS))


class Sampler:
    """Samples the host speed while the work runs; see the module docstring."""

    def __init__(self):
        self.times = []  # mid-point of each sample, perf_counter seconds
        self.factors = []  # REFERENCE_S / kernel seconds of each sample
        self.spent = 0.0  # seconds spent sampling, cumulative
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        seconds = sample_seconds()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.factors.append(REFERENCE_S / seconds)
        self.spent += t1 - t0

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, starts, ends, spent_inside):
        """Scaled durations of the intervals [starts, ends], of which
        spent_inside seconds each went to the benchmark itself (arrays of
        equal length).

        Between two consecutive samples the speed is the mean of their two
        factors, before the first sample the first one's and after the last
        the last one's.  The integral is piecewise linear between samples,
        so np.interp computes it exactly.
        """
        import numpy as np

        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        s = np.asarray(self.times)
        f = np.asarray(self.factors)
        lo = min(float(np.min(starts)), s[0]) - 1.0
        hi = max(float(np.max(ends)), s[-1]) + 1.0
        knots = np.concatenate(([lo], s, [hi]))
        speeds = np.concatenate(([f[0]], 0.5 * (f[1:] + f[:-1]), [f[-1]]))
        cum = np.concatenate(([0.0], np.cumsum(np.diff(knots) * speeds)))
        scaled = np.interp(ends, knots, cum) - np.interp(starts, knots, cum)
        raw = ends - starts
        safe = np.where(raw > 0, raw, 1.0)
        kept = np.clip((raw - np.asarray(spent_inside)) / safe, 0.0, 1.0)
        return scaled * kept

    def summary(self):
        f = self.factors
        return {
            "samples": len(f),
            "factor_median": statistics.median(f),
            "factor_min": min(f),
            "factor_max": max(f),
            "sampling_s": self.spent,
        }
