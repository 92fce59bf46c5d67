"""Host-speed calibration: a fixed pure-Python kernel timed between requests.

The shared host this benchmark was tuned on runs the same interpreter work
at two speeds, about 1.8x apart, and switches between them anywhere from a
fraction of a second to minutes at a time.  A whole run can sit at either
level, so medians within a run cannot remove it.  What does remove it is
timing a fixed piece of work next to every request: a request's wall time
divided by the kernel time measured around it is its cost in kernel units,
whatever the level was.  Multiplied by `REF_ROUND_S` it reads as seconds at
one fixed reference speed.

The kernel imports nothing from `weyl`, so a change to the program moves the
normalised figures exactly as it moves the raw ones.  Its mix (calls that
return tuples, complex multiply-adds, list indexing, a small dict) follows the
interpreter work of the program's hot loops: on the tuning host the ratio of
an `integrate_ivp` call or a block of Jacobi and Bessel calls to the kernel
spread by 0.05 (quartile distance over the median, blocks of 20) where the raw
times spread by 0.23-0.26.
"""

from __future__ import annotations

import signal
import statistics
import time

# One round at reference speed.  On the tuning host a round took about
# 1.6 ms at the fast level and 2.9 ms at the slow one.
REF_ROUND_S = 0.002
ROUND_STEPS = 300
WINDOW = 2  # gap rounds on each side of a request that count for its speed
TICK_S = 0.05  # wall time between rounds taken inside a request

_TABLEAU = ((0.2,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9), (0.1, 0.2, 0.3, 0.4))


def _rhs(x, u, up):
    return up, (x * x - 0.7) * u


def kernel(steps=ROUND_STEPS):
    """Fixed interpreter work shaped like an explicit Runge-Kutta loop."""
    acc = 0j
    y = 1 + 0.5j
    yp = 0.3 - 0.1j
    keep = {}
    for i in range(steps):
        x = 0.001 * i
        k = [_rhs(x, y, yp)]
        for row in _TABLEAU:
            su = 0j
            for j, a in enumerate(row):
                su += a * k[min(j, len(k) - 1)][0]
            k.append(_rhs(x + 0.1, y + 0.01 * su, yp))
        y = y * 0.999 + 1e-3 * k[-1][1]
        keep[i & 63] = y
        acc += y
    return acc


class Speedometer:
    """Kernel rounds timed between requests and, on a timer, inside them.

    `sample()` times one round in a gap between requests.  Between `begin()`
    and `end()` an interval timer (SIGALRM every `tick_s` seconds of wall
    time) times one more round from a signal handler, which Python runs in
    the main thread between bytecodes; `end()` returns the wall and CPU time
    those rounds took, for the caller to take out of the request's time.
    Without `tick_s` only the gap rounds are taken.
    """

    def __init__(self, tick_s=None):
        self.tick_s = tick_s
        self.wall = []  # gap round i was taken just before request i
        self.cpu = []
        self.inside = []  # per request, the (wall, cpu) rounds taken during it
        self._spent = [0.0, 0.0]

    @staticmethod
    def _round():
        w0 = time.perf_counter()
        c0 = time.process_time()
        kernel()
        return time.perf_counter() - w0, time.process_time() - c0

    def sample(self):
        w, c = self._round()
        self.wall.append(w)
        self.cpu.append(c)

    def _tick(self, signum, frame):
        w0 = time.perf_counter()
        c0 = time.process_time()
        self.inside[-1].append(self._round())
        self._spent[0] += time.perf_counter() - w0
        self._spent[1] += time.process_time() - c0

    def begin(self):
        self.inside.append([])
        self._spent = [0.0, 0.0]
        if self.tick_s:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def end(self):
        """Stop the timer; returns (wall, cpu) spent in rounds since begin()."""
        if self.tick_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return tuple(self._spent)

    def _scale(self, gap, i, which):
        """REF_ROUND_S times the mean reciprocal round time for request i.

        The rounds are the WINDOW gap rounds on each side of the request and
        every round taken inside it.  The inside rounds are evenly spaced in
        wall time, so the mean of their reciprocals weights each stretch of a
        long request by its length, whichever level it ran at.
        """
        lo = max(0, i + 1 - WINDOW)
        hi = min(len(gap), i + 1 + WINDOW)
        rounds = gap[lo:hi]
        if i < len(self.inside):
            rounds = rounds + [r[which] for r in self.inside[i]]
        return REF_ROUND_S * statistics.fmean(1.0 / r for r in rounds)

    def wall_scale(self, i):
        return self._scale(self.wall, i, 0)

    def cpu_scale(self, i):
        return self._scale(self.cpu, i, 1)

    def median_round_s(self):
        return statistics.median(self.wall + [r[0] for rs in self.inside for r in rs])
