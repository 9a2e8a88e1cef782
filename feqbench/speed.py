"""How fast the machine runs right now, against a fixed nominal speed.

On a shared VM the same pass can run 20-40% slower for minutes at a time,
and a pure-Python loop and a small LAPACK call slow down with it. The
runner times this reference between every two cases of a pass and divides
the pass time by the mean slowdown, so the normalised pass time reads in
seconds at the nominal speed and a slow spell of the host largely drops
out. A single sample also flickers between speeds within a second, which
the program does not follow in step, so a pass takes many samples. The
reference calls nothing of feqlab, so a change to feqlab moves the
normalised time as much as the plain one.

The nominal times are the medians of the two kernels on a 2-vCPU Intel
Xeon VM (Python 3.11, numpy 2.4, OpenBLAS at 1 thread).
"""

import time

import numpy as np

PY_NOMINAL_S = 0.78e-3
LA_NOMINAL_S = 0.36e-3
REPS = 2

_A = np.random.default_rng(0).standard_normal((24, 24))


def _py_loop():
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


def _la():
    for _ in range(3):
        np.linalg.svd(_A)


def _sample():
    """Reference time over nominal time: 1.0 at the nominal speed, 1.3 when
    the machine runs 30% slower. The least of REPS runs, so an interrupt in
    one run does not count."""
    runs = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _py_loop()
        t1 = time.perf_counter()
        _la()
        t2 = time.perf_counter()
        runs.append(0.5 * (t1 - t0) / PY_NOMINAL_S
                    + 0.5 * (t2 - t1) / LA_NOMINAL_S)
    return min(runs)


def slowdown(samples):
    """The mean slowdown of `samples` samples taken now (about 2 ms each)."""
    return sum(_sample() for _ in range(samples)) / samples
