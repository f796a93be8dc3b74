"""A speed probe that measures how fast the machine runs while the work runs.

The benchmark's host is a shared virtual machine whose speed moves by 20–40%
from one second to the next and for phases longer than a whole run, so two
runs of the same code can differ by more than any useful regression bound.
A kernel timed before or after the work does not follow these swings; one
timed in the middle of the work does.  While a :class:`SpeedProbe` is active,
a timer interrupts the work every ``interval_s`` of wall time and runs a
small fixed kernel, and the probe adds up the kernel's time and samples.  The
work's own time is the measured time minus the kernel's, and its time at the
reference speed is

    scaled = own time * reference_s / mean kernel sample

where ``reference_s`` is the kernel's usual time on the reference machine
(see ``README.md``).  Scaled times therefore read as seconds on that machine
at its usual speed.  The kernels never call riemflow, so a change to the
program cannot change them.
"""

import signal
import time


def interpreter_kernel():
    """Plain interpreter work: arithmetic, and a dict (imports and set-up)."""
    total = 0
    for k in range(15000):
        total += k * k % 7
    table = {}
    for k in range(2000):
        table[k % 97] = table.get(k % 97, 0) + k
    return total + len(table)


def array_kernel():
    """A kernel whose parts mirror the workloads: numpy calls on 3×3 arrays
    (the analytic chart), a rank-4 contraction over samples (the grid), vector
    updates on a line (the 1+1 wave), and :func:`interpreter_kernel`."""
    import numpy as np

    rng = np.random.default_rng(12345)
    small = rng.normal(size=(3, 3))
    small = small @ small.T + 3.0 * np.eye(3)
    rank4 = rng.normal(size=(96, 3, 3, 3, 3))
    pairs = rng.normal(size=(96, 3, 3))
    line = rng.normal(size=256)

    def kernel():
        acc = 0.0
        for _ in range(40):
            inv = np.linalg.inv(small)
            acc += float(np.einsum("ij,jk,ki->", inv, small, inv))
        acc += float(np.einsum("sijkl,sjm,skn->", rank4, pairs, pairs, optimize=False))
        u = line.copy()
        for _ in range(40):
            u = 0.5 * (np.roll(u, 1) + np.roll(u, -1)) + 1e-3 * u * u
        return acc + float(u.sum()) + interpreter_kernel()

    return kernel


# the kernels' usual times on the reference machine (README.md)
INTERPRETER_REFERENCE_S = 0.0015
ARRAY_REFERENCE_S = 0.0039


class SpeedProbe:
    """Runs ``kernel`` every ``interval_s`` of wall time while active.

    Use it as a context manager around the timed work; it may be entered
    many times, and the timer carries over from one stretch to the next.
    Signal handlers run in the main thread between bytecodes, so a tick that
    falls inside a long numpy call runs as soon as the call returns.
    """

    def __init__(self, kernel, interval_s):
        self.kernel = kernel
        self.interval_s = interval_s
        self.kernel_s = 0.0
        self.samples = 0
        self._remaining = interval_s
        self._previous = None
        for _ in range(3):  # the kernel's first calls are slower
            kernel()

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.kernel_s += time.perf_counter() - start
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._remaining, self.interval_s)
        return self

    def __exit__(self, *exc):
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        self._remaining = remaining or self.interval_s
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take(self):
        """The kernel's total seconds and samples since the last take."""
        totals = (self.kernel_s, self.samples)
        self.kernel_s, self.samples = 0.0, 0
        return totals


def scaled(own_s, kernel_s, samples, reference_s):
    """``own_s`` seconds of work at the reference speed, given the kernel's
    total time and sample count while the work ran."""
    if samples == 0:
        raise ValueError("the speed probe took no sample; the work was shorter "
                         "than its interval")
    return own_s * reference_s * samples / kernel_s
