"""Speed calibration of the box a run lands on.

CPU-bound work on a shared VM runs up to ~30% slower while neighbours are
busy, and that state drifts over minutes, so raw wall times of one commit
measured a few minutes apart differ by more than a useful regression
bound.  A fixed kernel that does not touch benj (small real FFTs and
17-digit float formatting, the two kinds of work the workloads spend
their time on) runs five times after every repetition, and timings are
scaled by ``REFERENCE_S / mean(kernel time)``, i.e. to the box's speed
when unloaded.  Single kernel runs land in fast or slow stretches of a
few seconds each; the mean over many of them tracks the share of the
window the box spent slow.
A change to benj leaves the kernel alone, so it moves scaled times just
as it moves raw ones.  Raw times are kept in each run's record.
"""

import gc
import time

import numpy as np

REFERENCE_S = 0.045  # kernel time on the 2-core reference box when unloaded


def kernel_seconds() -> float:
    # 800 is 5-smooth: a prime length would take numpy's Bluestein path,
    # whose time scatters by 2x on its own and would swamp the signal.
    x = np.linspace(0.0, 1.0, 800)
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(500):
        y = np.fft.irfft(np.fft.rfft(x) * 0.5, n=800)
        "".join(f"{v:.17g}" for v in y[:64])
    return time.perf_counter() - t0
