"""Black-box flight recorder: the last moments before an incident.

When something goes wrong — a checksum quarantine, a crash recovery, a
critical alert — the fine-grained context *around* the failure is what an
operator needs and what a bounded ring of spans has already forgotten.
The recorder keeps it: a bounded ring of journal rows
(:mod:`repro.obs.journal`), on the simulated clock, of the events teed
from :class:`~repro.obs.events.EventLog` (wall reading dropped), the alert
transitions the alert engine journals, and a counter-delta frame every
:data:`DEFAULT_INTERVAL` Table-1 operations from the watch tick (which
reads the capture history and alerts just read).  The ring is the
journal's in-memory tail: its rows share the journal's ``seq``, so each
sits in causal order among the persisted rows.  An incident bundle
(:mod:`repro.obs.incident`) dumps it.

Rows carry no wall-clock values, so identical seeded runs record
byte-identically (CI diffs the dumps); a recorder built with
``enabled=False`` opens no ring and stays empty behind one ``.enabled``
check at every feed (``tests/bench/test_obs_zero_cost.py`` pins Table 5).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.journal import Journal, Row

DEFAULT_CAPACITY = 512
DEFAULT_INTERVAL = 32


class FlightRecorder:
    """The ring's bound and its feeds: events and metric frames."""

    def __init__(
        self,
        journal: Optional[Journal] = None,
        capacity: int = DEFAULT_CAPACITY,
        interval: int = DEFAULT_INTERVAL,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.capacity = max(1, capacity)
        #: Table-1 operations between the watch tick's metric frames
        self.interval = interval
        #: the journal whose ring this recorder bounds
        self.journal = journal if journal is not None else Journal(enabled=enabled)
        if enabled:
            self.journal.open_ring(self.capacity)
        self._last_metrics = None  # MetricsSnapshot of the previous frame

    @property
    def dropped(self) -> int:
        """Rows evicted from the ring (``repro_recorder_dropped_total``)."""
        return self.journal.dropped

    # ------------------------------------------------------------- recording --

    def record_event(self, event) -> Optional[Row]:
        """Tee one :class:`~repro.obs.events.Event` into the ring.  The
        ``wall`` reading is deliberately dropped: recorder contents are
        diffed byte-for-byte across identical runs."""
        journal = self.journal
        if not journal.enabled:
            return None
        payload = event.to_dict()
        del payload["wall"]
        ops = journal.operations
        return journal.append(
            "event", None if ops is None else ops.total, event.simulated,
            {"source": event.source, "label": event.kind, "payload": payload},
        )

    def frame(self, store, label: str, current) -> Optional[Row]:
        """Record one counter-delta frame from ``current``, the tick's
        deterministic :class:`~repro.obs.bridge.MetricsSnapshot` of
        ``store``."""
        if not self.journal.enabled:
            return None
        last, self._last_metrics = self._last_metrics, current
        deltas = current.values if last is None else current.delta(last)
        deltas = {key: value for key, value in deltas.items() if value}
        return self.journal.append(
            "metrics", store.operations.total, store.simulated_seconds,
            {"label": label, "deltas": deltas},
        )

    # ---------------------------------------------------------------- reading --

    def entries(self) -> List[Row]:
        """The ring's rows, oldest first."""
        return self.journal.tail()

    def to_dict(self) -> Dict[str, object]:
        """The full ring dump (what incident bundles embed), stamped."""
        from repro.obs.schema import stamp

        return stamp({"capacity": self.capacity, "interval": self.interval,
                      "dropped": self.dropped, "entries": self.entries()})

    def clear(self) -> None:
        self.journal.open_ring(self.capacity)

    def __len__(self) -> int:
        return len(self.entries())
