"""Call times scaled to a reference speed of the machine.

The 2-CPU machines this benchmark was built on change speed by up to
1.5x for seconds to minutes at a time (a fixed loop takes 12.5 ms, then
19 ms), because other tenants share the cores.  Such a swing moves every
raw time in a run alike.  So every timed call is followed by a fixed
computation that uses only the standard library (4x4 Fraction matrix
products, the same mix of small-rational arithmetic and interpreter
work as dqkin), and the call's time is scaled by ``REF_MS`` over that
computation's time, averaged with the one before the call.  A scaled
time reads in milliseconds on a machine where the reference takes
``REF_MS``; a change to dqkin cannot move the reference.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

REF_MS = 4.0
START_MS = 55.0

_A = [[Fraction(i + 2 * j + 1, j + 2) for j in range(4)] for i in range(4)]


def reference_seconds():
    clock = time.perf_counter
    t0 = clock()
    acc = 0
    for _ in range(20):
        b = [[sum(_A[i][k] * _A[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        acc += b[0][0].numerator & 1
    return clock() - t0


def start_seconds():
    """Wall time of a fresh interpreter that runs the reference twice.

    Like a dqkin command it starts a process, imports a module and
    computes with small rationals (this file run as a script).
    """
    clock = time.perf_counter
    t0 = clock()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True)
    return clock() - t0


class RefClock:
    """Times calls and scales each to the reference speed.

    Calls into dqkin in this process are scaled by ``reference_seconds``.
    Calls that start a process are scaled by ``start_seconds`` instead:
    starting a process swings with the machine differently from
    arithmetic (one repeated cli call varied by 10% scaled by the
    arithmetic reference, 7% scaled by a bare interpreter start).
    """

    def __init__(self, reference=reference_seconds, nominal=REF_MS / 1e3):
        self.reference = reference
        self.nominal = nominal
        self.last = reference()
        self.scales = []

    def time(self, fn, *args):
        """(result, scaled seconds) of fn(*args)."""
        clock = time.perf_counter
        t0 = clock()
        res = fn(*args)
        return res, self.scaled(clock() - t0)

    def scaled(self, dt):
        """dt, measured just now, in reference-speed seconds."""
        ref = self.reference()
        scale = self.nominal / ((self.last + ref) / 2)
        self.last = ref
        self.scales.append(scale)
        return dt * scale


if __name__ == "__main__":
    for _ in range(2):
        reference_seconds()
