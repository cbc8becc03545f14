"""The adaptive controller (paper §2.1, §9).

"In this work we take a middle approach, and try to optimize one or the
other depending on the application load. ... The store achieves this by
lazily creating its storage and index structures and optimizes for reads
or updates according to how the application focuses on one or the other.
The process is transparent to the application."

The controller watches a sliding window of recent operations.  When the
window is read-heavy it keeps the partial index populating (read-optimized
mode); when it turns update-heavy it stops populating and sheds stale
entries, so updates pay nothing for location caching they will invalidate
anyway (update-optimized mode).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.core.locator import Locator
from repro.core.partial_index import PartialIndex
from repro.core.ranges import RangeTable


@dataclass
class AdaptiveDecision:
    """A mode switch taken by the controller (kept for observability)."""

    at_operation: int
    read_fraction: float
    read_optimized: bool


class AdaptiveController:
    """Flips the store between read- and update-optimized modes."""

    def __init__(
        self,
        locator: Locator,
        partial_index: Optional[PartialIndex],
        ranges: RangeTable,
        window: int = 256,
        read_threshold: float = 0.5,
    ) -> None:
        self.locator = locator
        self.partial_index = partial_index
        self.ranges = ranges
        self.window = window
        #: read fraction of the window at or above which the partial index
        #: populates (read-optimized); below ``1 - this`` the store stops
        #: populating and sheds entries (update-optimized)
        self.read_threshold = read_threshold
        self._recent: Deque[bool] = deque(maxlen=window)  # True = read
        self._reads_in_window = 0
        self._operations = 0
        self.read_optimized = True
        self.decisions: list = []

    @property
    def read_fraction(self) -> float:
        if not self._recent:
            return 1.0
        return self._reads_in_window / len(self._recent)

    def observe(self, is_read: bool) -> None:
        """Record one operation and re-evaluate the mode."""
        self._operations += 1
        if len(self._recent) == self._recent.maxlen and self._recent[0]:
            self._reads_in_window -= 1
        self._recent.append(is_read)
        if is_read:
            self._reads_in_window += 1
        # hysteresis: only consider switching once the window has substance
        if len(self._recent) < max(8, self.window // 8):
            return
        fraction = self.read_fraction
        if self.read_optimized and fraction < 1.0 - self.read_threshold:
            self._switch(read_optimized=False, fraction=fraction)
        elif not self.read_optimized and fraction >= self.read_threshold:
            self._switch(read_optimized=True, fraction=fraction)

    def _switch(self, read_optimized: bool, fraction: float) -> None:
        self.read_optimized = read_optimized
        self.locator.populate_partial = read_optimized
        if not read_optimized and self.partial_index is not None:
            self.partial_index.sweep_stale(self.ranges)
        self.decisions.append(
            AdaptiveDecision(
                at_operation=self._operations,
                read_fraction=fraction,
                read_optimized=read_optimized,
            )
        )
