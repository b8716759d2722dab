"""Put the benchmark, the package sources and the brute-force census on sys.path.

Run from the root of the checkout: python3 -m pytest perfbench/tests
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "tests"), os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
