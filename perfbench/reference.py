"""Reference computation, timed right before every job of a timed pass.

A fixed mix of the kinds of work the library spends its time in: building
integer sets (the reachability closure), a scalar Python loop (the per-row
sampling loops) and row-wise ``einsum`` products (the pgf row kernels).  It
never calls ``bpre``, so a change to the library cannot move it, while a
change in the speed of the machine moves it along with the jobs.  Job
times divided by it are steady on a shared machine whose speed drifts.
"""

import time

import numpy as np

_ROWS = np.linspace(0.0, 1.0, 2048 * 24).reshape(2048, 24)


def _work() -> float:
    n = 0
    for _ in range(8):
        reach = {0}
        for _ in range(6):
            reach = {a + b for a in reach for b in range(0, 60, 3) if a + b <= 300}
        n += len(reach)
    acc = 0.0
    for i in range(200_000):
        acc += (i % 7) * 0.5 - acc * 1e-3
    out = np.zeros_like(_ROWS)
    for _ in range(4):
        for j in range(_ROWS.shape[1]):
            out[:, j] = np.einsum("mi,mi->m", _ROWS[:, : j + 1], _ROWS[:, j::-1])
    return n + acc + float(out.sum())


def seconds() -> float:
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
