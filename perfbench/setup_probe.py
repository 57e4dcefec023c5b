"""Time ``import chaindyn`` plus loading each spec, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR SPEC [SPEC ...]
Prints the elapsed seconds, then the machine's slowness measured right after
in the same process (see calibrate.py), as its last line.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from chaindyn.systems import load_analysis_defaults, load_system  # noqa: E402

for spec in sys.argv[2:]:
    load_system(spec)
    load_analysis_defaults(spec)
elapsed = time.perf_counter() - t0

import calibrate  # noqa: E402  (found next to this script)

print(elapsed, calibrate.slowness())
