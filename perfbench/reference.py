"""The reference loop: fixed pure-Python work that tracks the machine's speed.

On a shared host the speed of this container moves by up to 2x within
seconds, and CPU time moves with it (other tenants take the caches, the
memory bandwidth and the sibling hyperthread, not the processor).  The
benchmark therefore times this loop while the program runs, ten times a
second, and divides each stretch of the program's time by how slow the loop
ran around it.  The loop never calls the program, so a change to the program
moves the program's time and not the yardstick.

The loop mixes what the program spends its time on: interpreted integer
arithmetic, a Karatsuba-size big-integer product (the Kronecker-packed
series products) and a nested coefficient loop (schoolbook products over
F_p).  Its data is a few KB, so it does not move the worker's peak RSS.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

# Median CPU time of one warm run of the loop on a 2-core Intel Xeon
# container at a quiet time, Python 3.11.7.  A speed is the loop's time over this, so a
# scaled time is in seconds at that speed; the constant only sets the scale.
NOMINAL_S = 0.0036

_rng = random.Random(20220317)
_A = _rng.getrandbits(60_000)
_B = _rng.getrandbits(60_000)
_P = [_rng.randrange(9) for _ in range(128)]


def _work():
    s = 0
    for i in range(10_000):
        s = (s * 31 + i) & 0xFFFFFFFF
    s ^= (_A * _B) >> 50_000
    out = [0] * 256
    for i, a in enumerate(_P):
        for j, b in enumerate(_P):
            out[i + j] += a * b
    return s, out


def sample():
    """Run the loop once; returns its (wall, CPU) time as speed factors,
    1.0 at NOMINAL_S and above 1 when the machine runs slower."""
    w, c = time.perf_counter(), time.process_time()
    _work()
    return (time.perf_counter() - w) / NOMINAL_S, (time.process_time() - c) / NOMINAL_S


class Ticker:
    """Runs the loop from a SIGALRM handler, ``every`` seconds of wall time
    after its last run ended, so that the speed is known inside long jobs
    too.  ``clocks()`` gives wall and CPU time less the time spent in the
    loop; ``scaled()`` turns an interval on those clocks into seconds at
    nominal speed."""

    def __init__(self, every):
        self.every = every
        self.ticks = []  # (wall, CPU) on clocks(), then the (wall, CPU) speed there
        self._out = [0.0, 0.0]  # wall and CPU time spent in the loop

    def clocks(self):
        return time.perf_counter() - self._out[0], time.process_time() - self._out[1]

    def _tick(self):
        # The first run brings the loop back into the caches the program
        # took over; only the second is timed, so the program's own cache
        # footprint does not change the yardstick.
        at = self.clocks()
        w0, c0 = time.perf_counter(), time.process_time()
        _work()
        speed = sample()
        self._out[0] += time.perf_counter() - w0
        self._out[1] += time.process_time() - c0
        self.ticks.append((at, speed))

    def _on_alarm(self, *_):
        self._tick()
        # one-shot timer, armed again only once this tick is done: on a
        # stalled machine ticks are spaced further apart, they never nest
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def start(self):
        _work()  # warm-up
        for _ in range(2):
            self._tick()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.every)

    def stop(self):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(2):
            self._tick()
        # The speed at a tick is the median of it and its two neighbours, so
        # one run of the loop that an interrupt lengthened does not set it.
        self._at = [[t[0][axis] for t in self.ticks] for axis in (0, 1)]
        self._speeds = [
            [statistics.median(t[1][axis] for t in self.ticks[max(i - 1, 0):i + 2]) for i in range(len(self.ticks))]
            for axis in (0, 1)
        ]

    def speeds(self):
        """The wall speed at every tick (after stop())."""
        return self._speeds[0]

    def scaled(self, a, b, axis):
        """[a, b] on clock ``axis`` (0 wall, 1 CPU), each stretch between two
        ticks divided by the mean speed at its ends (after stop())."""
        at, sp = self._at[axis], self._speeds[axis]
        total = 0.0
        i = bisect.bisect_right(at, a)  # first tick after a
        lo = a
        while lo < b:
            hi = min(b, at[i]) if i < len(at) else b
            if 0 < i < len(at):
                speed = (sp[i - 1] + sp[i]) / 2
            else:
                speed = sp[min(i, len(at) - 1)]
            total += (hi - lo) / speed
            lo = hi
            i += 1
        return total
