"""Time one workload's set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

It prints the set-up seconds, then the calibration kernel's seconds in the
same process (see ``calibrate.py``).

Set-up is ``import benj`` plus the workload's config parsing or input
construction, ``build_field``, and the linear multipliers / ETD weights
for its sizes.  ``run.py`` starts this several times and reports the
median, since a fresh import is what a user pays on every run.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports benj; part of the timed set-up)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
setup_s = time.perf_counter() - t0

import calibrate  # noqa: E402

calibrate.kernel_seconds()  # first call pays numpy's FFT plan set-up
print(f"{setup_s:.9f} {calibrate.kernel_seconds():.9f}")
