"""Import paths for the benchmark's tests: the checkout root, src/ and tests/."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "tests", ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
