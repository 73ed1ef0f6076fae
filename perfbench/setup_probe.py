"""Time one cold set-up: import endop from the checkout's sources and build
the fields, monoids and operads the jobs share (``workloads.Setup``).

    python3 perfbench/setup_probe.py

Prints the set-up's duration in reference seconds (see hostspeed.py).  The
runner starts this script several times per run and reports the median as
setup_s.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

probe = hostspeed.SpeedProbe()
with probe:
    t0 = time.perf_counter()
    workloads.Setup()
    t1 = time.perf_counter()
print(probe.reference_seconds(t0, t1))
