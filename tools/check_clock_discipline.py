#!/usr/bin/env python
"""Lint: no module under src/repro/ may read the wall clock directly.

Every wall-clock access must go through :mod:`repro.obs.clock`, so the
simulated disk clock and the telemetry clock cannot be accidentally
mixed.  Run from the repository root::

    PYTHONPATH=src python tools/check_clock_discipline.py

Exits non-zero (listing the violations) if any module imports ``time``
or calls ``time.time`` outside the allowlist
(``repro.obs.clock.ALLOWED_CLOCK_MODULES``), which holds the clock module
itself and nothing else.  Adding a module to the allowlist is a reviewed
code change, not something this lint will ever do silently.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.clock import check_clock_discipline  # noqa: E402


def main() -> int:
    src_root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    violations = check_clock_discipline(os.path.abspath(src_root))
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} clock-discipline violation(s)", file=sys.stderr)
        return 1
    print("clock discipline ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
