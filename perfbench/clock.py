"""Tick stamps at the input boundary, scaled to a reference machine speed.

A `TickClock` is told by the input source each time the program pulls the
first IMU sample of a tick; the time between two pulls is one tick's
processing.

On a small shared machine the speed available to one thread drifts by up
to 1.9x over seconds, as other tenants come and go.  So right before and
after every epoch tick the clock also times a fixed reference loop, of the
same kind of work as the filter (small numpy products driven from Python,
and 90x90 LU solves), while the program waits for its sample.  That pause
lies outside every measured tick.  Each tick's wall time is scaled by
REFERENCE_S over the mean of the two reference timings that bracket it: a
scaled time is the time the tick would have taken at the reference speed.
The loop does not touch the package, so a change to the program moves
scaled times as it moves wall times.
"""

import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# Reference-loop time on the 2-core machine the benchmark was defined on.
REFERENCE_S = 0.005


def reference_loop():
    """About half small-array work driven from Python, as in propagation,
    and half 90x90 LU solves and products, as in a six-vehicle update."""
    a = np.full((15, 15), 0.01) + np.eye(15)
    v = np.array([0.1, -0.2, 0.3])
    acc = 0.0
    for k in range(150):
        b = a @ a.T
        m = np.zeros((3, 3))
        m[0, 1], m[1, 0], m[2, 0] = -v[2], v[2], -v[1]
        acc += float(np.linalg.norm(m @ v)) + b[k % 15, 3]
        acc += sum(j * 0.5 for j in range(15))
    s = np.eye(90) + np.full((90, 90), 1e-3)
    rhs = s[:, :15].copy()
    for _ in range(12):
        lu = lu_factor(s)
        acc += float(lu_solve(lu, rhs)[0, 0]) + float((s @ s)[0, 0])
    return acc


def reference_time():
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


class TickClock:
    """Pull stamps of one run, with reference timings at chosen pulls."""

    def __init__(self, calibrate_at, on_pause=None):
        self.calibrate_at = frozenset(calibrate_at)
        self.on_pause = on_pause    # told the length of each pause
        self.enter = []     # pull entered: the previous tick ends
        self.leave = []     # sample handed over: the tick starts
        self.refs = {}      # pull index -> reference-loop seconds

    def to_dict(self):
        return {"calibrate_at": sorted(self.calibrate_at),
                "enter": self.enter, "leave": self.leave,
                "refs": sorted(self.refs.items())}

    @classmethod
    def from_dict(cls, d):
        clock = cls(d["calibrate_at"])
        clock.enter, clock.leave = d["enter"], d["leave"]
        clock.refs = dict(d["refs"])
        return clock

    def pull(self, k):
        t = time.perf_counter()
        self.enter.append(t)
        if k in self.calibrate_at:
            self.refs[k] = reference_time()
            t = time.perf_counter()
            if self.on_pause:
                self.on_pause(t - self.enter[-1])
        self.leave.append(t)

    def scales(self):
        """Per pull k, the factor for the tick that pull k starts."""
        marks = sorted(self.refs)
        out = []
        j = 0
        for k in range(len(self.leave)):
            while j + 1 < len(marks) and marks[j + 1] <= k:
                j += 1
            a = self.refs[marks[j]]
            b = self.refs[marks[j + 1]] if j + 1 < len(marks) else a
            out.append(REFERENCE_S / (0.5 * (a + b)))
        return out

    def ticks(self, t_end):
        """Scaled durations of ticks 1..n; the last one ends at t_end."""
        scales = self.scales()
        ends = self.enter[1:] + [t_end]
        return [(end - start) * s
                for start, end, s in zip(self.leave, ends, scales)]


def calibration_pulls(epoch_ticks, n_ticks):
    """The pulls that start and end each epoch tick, the first and the last.

    An epoch tick is then scaled by the reference speed measured right
    before and right after it.
    """
    pulls = {0, n_ticks - 1}
    for e in epoch_ticks:
        pulls |= {e - 1, e}
    return {k for k in pulls if k < n_ticks}


def split_ticks(durations, epoch_ticks):
    """Tick durations split into epoch and plain ticks.

    durations[k - 1] is tick k.  The last tick, which also carries the
    end-of-run work, is left out of both lists.
    """
    epoch, plain = [], []
    for k in range(1, len(durations)):
        (epoch if k in epoch_ticks else plain).append(durations[k - 1])
    return epoch, plain
