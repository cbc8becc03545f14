"""The observability clock: the only wall-clock source in the library.

The store runs two clocks side by side: the *simulated* disk clock (see
:mod:`repro.storage.disk`), which the benchmarks report, and the real
wall clock, which telemetry records for span durations.  Mixing ad-hoc
``time.*`` calls into store modules makes it too easy to contaminate the
simulated numbers with wall time (or to diverge between platforms), so
every module under :mod:`repro` reads the wall clock through this module
— a rule enforced by :func:`check_clock_discipline`, which runs in CI
and in the test suite.

Timestamps are *monotonic* (seconds relative to an arbitrary process
origin, via ``time.perf_counter``).  Telemetry needs durations and
ordering, not civil time, and a monotonic base can never run backwards
under NTP adjustments.
"""

from __future__ import annotations

import re
from typing import List

import time as _time

#: Modules (relative to the scanned root) allowed to touch ``time``: this
#: one.  Anything else that imports ``time`` fails the lint.
ALLOWED_CLOCK_MODULES = frozenset({("obs", "clock.py")})

_FORBIDDEN = re.compile(
    r"^\s*(?:import\s+time\b|from\s+time\s+import\b)|\btime\.time\s*\(",
    re.MULTILINE,
)


def perf_seconds() -> float:
    """Monotonic high-resolution seconds (process-relative origin)."""
    return _time.perf_counter()


def sleep(seconds: float) -> None:
    """Block for ``seconds`` of wall time (the buffer pool's bounded
    re-read backoff is the one store-side consumer).  Lives here so the
    clock-discipline lint keeps every wall-clock touchpoint in one
    module."""
    _time.sleep(seconds)


def check_clock_discipline(src_root: str) -> List[str]:
    """Scan ``src_root`` (the ``repro`` package directory) for modules
    that import ``time`` directly instead of going through this module.

    Returns a list of human-readable violations (empty = clean).
    """
    import os

    violations: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, src_root)
            parts = tuple(relative.split(os.sep))
            if parts in ALLOWED_CLOCK_MODULES:
                continue
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            match = _FORBIDDEN.search(source)
            if match is not None:
                line = source.count("\n", 0, match.start()) + 1
                violations.append(
                    f"{relative}:{line}: direct wall-clock access "
                    f"({match.group(0).strip()!r}); use repro.obs.clock"
                )
    return sorted(violations)
