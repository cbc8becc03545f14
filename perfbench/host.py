"""Host calibration: tell a noisy or slow host from a slow commit.

The loop's time is printed in every output header and never divides a
metric: it qualifies the numbers, it does not normalise them.
"""

from __future__ import annotations

import os
import platform
import struct
from time import perf_counter
from typing import Dict

_PAIR = struct.Struct("<IH")


def calib_loop_s(rounds: int = 800_000) -> float:
    """A fixed pure-Python loop of dict, bytes and struct work."""
    start = perf_counter()
    table: Dict[int, bytes] = {}
    blob = bytearray()
    total = 0
    for i in range(rounds):
        packed = _PAIR.pack(i, i & 0xFFFF)
        table[i & 1023] = packed
        blob += packed[:2]
        value, low = _PAIR.unpack(table.get((i * 7) & 1023, packed))
        total += value ^ low
        if len(blob) > 4096:
            del blob[:2048]
    return perf_counter() - start


def header() -> Dict[str, object]:
    """What a reader needs to judge the host the numbers came from."""
    return {
        "host.calib_loop_s": calib_loop_s(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_1min": os.getloadavg()[0],
    }
