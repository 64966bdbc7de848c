"""Tests of the benchmark itself (not collected by tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
E2E = HERE.parent
ROOT = E2E.parents[1]

for path in (E2E, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
