"""Put the benchmark's modules and the package under test on the path.

Run with ``python -m pytest bench/tests -q`` from the repo root; the
directory is outside the tier-1 ``testpaths`` on purpose.
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(BENCH), "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
