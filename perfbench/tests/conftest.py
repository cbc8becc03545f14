"""Make ``perfbench`` and this checkout's ``repro`` importable however
pytest was started (the suite is run explicitly, not as part of tier-1)."""

import os
import sys

CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(CHECKOUT, "src"), CHECKOUT):
    if path not in sys.path:
        sys.path.insert(0, path)
