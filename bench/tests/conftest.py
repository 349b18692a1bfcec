import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
# like bench/run.py, the harness imports the frozen copy, not src/
for path in (os.path.join(BENCH, "baseline"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
