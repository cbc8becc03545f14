"""Black-box flight recorder: the last moments before an incident.

The live observability layers answer questions while the store is up;
the moment something goes wrong — a checksum quarantine, a crash
recovery, a critical alert — the fine-grained context *around* the
failure is exactly what an operator needs and exactly what a bounded
ring of spans and counters has already forgotten by the time a human
looks.  This module is the aviation answer: an always-on, bounded ring
of :class:`RecorderEntry` rows capturing, on the simulated clock,

* structured events teed from :class:`~repro.obs.events.EventLog`
  (``wall`` stripped, so entries are pure functions of the workload);
* alert transitions and periodic metric counter-delta frames (every
  :data:`DEFAULT_INTERVAL` Table-1 operations), both fed by the store's
  watch tick; a frame reads the capture history and alerts just read.

When an incident trigger fires (:mod:`repro.obs.incident`), the ring's
contents are dumped into the bundle — the black box is read out.

The contract of :mod:`repro.obs` holds: entries carry no wall-clock
values, so two identical seeded runs record byte-identically (CI diffs
the dumps); a recorder built with ``enabled=False`` stays empty behind
one ``.enabled`` attribute check at every feed (Table-5 byte-identity is
pinned by ``tests/bench/test_obs_zero_cost.py``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

DEFAULT_CAPACITY = 512
DEFAULT_INTERVAL = 32

#: Entry kinds, in the order they were introduced.
EVENT = "event"
ALERT = "alert"
METRICS = "metrics"


@dataclass
class RecorderEntry:
    """One ring row: who recorded what, keyed by op-seq, never wall time."""

    #: Monotone recorder sequence number (the ring's own order).
    seq: int
    #: ``"event"`` | ``"alert"`` | ``"metrics"``.
    kind: str
    #: Emitting component (event source, alert rule, ``"recorder"``).
    source: str
    #: What happened (event kind, alert state, frame label).
    label: str
    #: Simulated clock at record time (read, never advanced).
    simulated: float
    #: Deterministic payload (event fields, alert transition, deltas).
    payload: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "source": self.source,
            "label": self.label,
            "simulated": self.simulated,
            "payload": dict(self.payload),
        }


class FlightRecorder:
    """Bounded ring over events, alerts and metric frames."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        interval: int = DEFAULT_INTERVAL,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        if capacity < 1:
            capacity = 1
        self.capacity = capacity
        #: Table-1 operations between the watch tick's metric frames
        self.interval = interval
        #: entries evicted from the ring (exported as
        #: ``repro_recorder_dropped_total``)
        self.dropped = 0
        self._entries: Deque[RecorderEntry] = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
        self._last_metrics = None  # MetricsSnapshot of the previous frame

    # ------------------------------------------------------------- recording --

    def record(
        self,
        kind: str,
        source: str,
        label: str,
        simulated: float,
        payload: Optional[Dict[str, object]] = None,
    ) -> RecorderEntry:
        """Append one entry (the shared path all three feeds use)."""
        with self._lock:
            entry = RecorderEntry(
                seq=self._seq,
                kind=kind,
                source=source,
                label=label,
                simulated=simulated,
                payload=payload if payload is not None else {},
            )
            self._seq += 1
            if len(self._entries) == self.capacity:
                self.dropped += 1
            self._entries.append(entry)
        return entry

    def record_event(self, event) -> RecorderEntry:
        """Tee one :class:`~repro.obs.events.Event` into the ring.  The
        ``wall`` reading is deliberately dropped: recorder contents are
        diffed byte-for-byte across identical runs."""
        payload = event.to_dict()
        payload.pop("wall", None)
        return self.record(
            EVENT, event.source, event.kind, event.simulated, payload
        )

    def record_alert(self, alert_event) -> RecorderEntry:
        """Tee one :class:`~repro.obs.alerts.AlertEvent` transition."""
        payload = alert_event.to_dict()
        payload.pop("schema_version", None)
        return self.record(
            ALERT,
            alert_event.rule,
            alert_event.state,
            alert_event.simulated_seconds,
            payload,
        )

    def frame(self, store, label: str, current) -> RecorderEntry:
        """Record one counter-delta frame from ``current``, the tick's
        deterministic :class:`~repro.obs.bridge.MetricsSnapshot` of
        ``store``."""
        if self._last_metrics is not None:
            deltas = current.delta(self._last_metrics)
        else:
            deltas = current.values
        deltas = {key: value for key, value in deltas.items() if value}
        self._last_metrics = current
        return self.record(
            METRICS,
            "recorder",
            label,
            store.simulated_seconds,
            {"operations": store.operations.total, "deltas": deltas},
        )

    # ---------------------------------------------------------------- reading --

    def entries(self, since: int = 0) -> List[RecorderEntry]:
        """Entries still in the ring, oldest first, ``seq >= since``."""
        with self._lock:
            return [entry for entry in self._entries if entry.seq >= since]

    def to_dict(self) -> Dict[str, object]:
        """The full ring dump (what incident bundles embed), stamped."""
        from repro.obs.schema import stamp

        return stamp(
            {
                "capacity": self.capacity,
                "interval": self.interval,
                "dropped": self.dropped,
                "entries": [entry.to_dict() for entry in self.entries()],
            }
        )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
