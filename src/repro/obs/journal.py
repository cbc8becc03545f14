"""The store's journal: every observability row in one append-only file.

History captures, alert transitions and incidents are rows of
:data:`JOURNAL_FILE` beside the store's device file; the flight
recorder's ring is the journal's in-memory tail of its ring kinds.  Every
row is ``{schema_version, seq, kind, op, sim, ...the kind's fields}``:
``seq`` numbers every row, ring rows included, and is restored from the
file on reopen, so ``seq`` order is causal across opens; ``op`` and
``sim`` are the Table-1 operation count and the simulated clock at the
row's moment (None on a store-less repair's incident).

:data:`JOURNAL_KINDS` declares each kind once, and the writer, the
reader and the post-mortem timeline go by it.  Rows are appended as
sorted-key lines; a history compaction rewrites the file through a
rename with every other row in place.  A torn final line is dropped, the
way the WAL drops a torn frame.  Trails older versions wrote
(:data:`LEGACY_TRAILS`, ``incident-<n>/`` directories) are named once by
:func:`warn_legacy` and never read.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import ObservabilityError
from repro.log import get_logger
from repro.obs.schema import INCIDENTS_DIR, SCHEMA_VERSION, check_schema_version

JOURNAL_FILE = "store.journal.jsonl"
LEGACY_TRAILS = ("store.history.jsonl", "store.alerts.jsonl")
_LEGACY_BUNDLE = re.compile(r"^incident-\d+$")

_log = get_logger("obs.journal")

Row = Dict[str, object]
Check = Callable[[object], bool]


def _is(*types) -> Check:
    """A check that a value's type is one of ``types`` (None: null)."""
    allowed = tuple(type(None) if kind is None else kind for kind in types)
    return lambda value: type(value) in allowed


_INT, _NUMBER, _TEXT, _OBJECT = _is(int), _is(int, float), _is(str), _is(dict)


def _deltas(value) -> bool:
    return _OBJECT(value) and all(map(_NUMBER, value.values()))


@dataclass(frozen=True)
class JournalKind:
    fields: Dict[str, Check]  # the kind's own fields and their checks
    persisted: bool  # appended to the file
    ring: bool  # kept in the flight recorder's ring
    subkind: str  # the field saying what happened
    summary: Callable[[Row], str]


JOURNAL_KINDS: Dict[str, JournalKind] = {
    "history": JournalKind(  # a workload-history capture
        {"label": _TEXT, "deltas": _deltas, "partial_index": _is(dict, None),
         "heatmap": _is(dict, None), "merged": _INT},
        persisted=True, ring=False, subkind="label",
        summary=lambda row: f"history snapshot #{row['seq']}"
        f" ({row['label']}, {len(row['deltas'])} deltas)",  # type: ignore[arg-type]
    ),
    "alert": JournalKind(  # an alert state transition
        {"state": _TEXT, "rule": _TEXT, "severity": _TEXT, "summary": _TEXT,
         "value": _NUMBER, "bound": _NUMBER, "label": _TEXT},
        persisted=True, ring=True, subkind="state",
        summary=lambda row: f"alert {row['rule']} -> {row['state']}"
        f" ({row['severity']}): {row['summary']}",
    ),
    "incident": JournalKind(  # ``bundle``: its store.incidents/<bundle>.json
        {"trigger": _TEXT, "key": _TEXT, "detail": _OBJECT,
         "bundle": _is(str, None)},
        persisted=True, ring=False, subkind="trigger",
        summary=lambda row: f"incident {row['bundle'] or '#' + str(row['seq'])}:"
        f" {row['trigger']}" + (f" [{row['key']}]" if row["key"] else ""),
    ),
    "event": JournalKind(  # an event-log event, wall reading dropped
        {"source": _TEXT, "label": _TEXT, "payload": _OBJECT},
        persisted=False, ring=True, subkind="label",
        summary=lambda row: f"event {row['source']}/{row['label']}",
    ),
    "metrics": JournalKind(  # a recorder frame of non-zero counter deltas
        {"label": _TEXT, "deltas": _deltas},
        persisted=False, ring=True, subkind="label",
        summary=lambda row: f"metrics frame {row['label']}"
        f" ({len(row['deltas'])} deltas)",  # type: ignore[arg-type]
    ),
}

_HEADER = {"seq": _INT, "kind": _TEXT, "op": _is(int, None), "sim": _is(int, float, None)}


def check_row(row: object, where: str) -> Row:
    """``row`` if it is a well-formed journal row, else an
    :class:`~repro.errors.ObservabilityError` naming ``where``."""
    if type(row) is not dict:
        raise ObservabilityError(f"{where}: malformed row (not an object)")
    check_schema_version(row, where)
    fields = dict(_HEADER)
    if _TEXT(row.get("kind")):
        if row["kind"] not in JOURNAL_KINDS:
            raise ObservabilityError(f"{where}: unknown row kind {row['kind']!r}")
        fields.update(JOURNAL_KINDS[row["kind"]].fields)  # type: ignore[index]
    for name, check in fields.items():
        if name not in row or not check(row[name]):
            raise ObservabilityError(f"{where}: row has a malformed {name!r}")
    return row


def read_journal(path: str) -> List[Row]:
    """The rows of the journal at ``path`` in file order (none when it is
    absent).  A torn final line is dropped; any other line that is not a
    well-formed row raises :class:`~repro.errors.ObservabilityError`."""
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")[:-1]
    except FileNotFoundError:
        return []
    except OSError as error:
        raise ObservabilityError(f"cannot read {path}: {error}") from error
    rows = []
    for number, line in enumerate(lines, start=1):
        if line.strip():
            where = f"{path}:{number}"
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as error:
                raise ObservabilityError(f"{where}: malformed line ({error})") from error
            rows.append(check_row(row, where))
    return rows


def _encode(rows: List[Row]) -> bytes:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()


def as_row(kind: str, item) -> Row:
    """The row of ``item``, whose attributes are ``seq``, ``operations``,
    ``simulated_seconds`` and the fields of ``kind``."""
    row = {name: getattr(item, name) for name in JOURNAL_KINDS[kind].fields}
    row.update(schema_version=SCHEMA_VERSION, seq=item.seq, kind=kind,
               op=item.operations, sim=item.simulated_seconds)
    return row


def from_row(cls, row: Row):
    """``row`` as a ``cls`` (the inverse of :func:`as_row`)."""
    fields = JOURNAL_KINDS[row["kind"]].fields  # type: ignore[index]
    return cls(seq=row["seq"], operations=row["op"], simulated_seconds=row["sim"],
               **{name: row[name] for name in fields})


def legacy_trails(directory: str) -> List[str]:
    """The trails an older version left under ``directory``."""
    found = [n for n in LEGACY_TRAILS if os.path.exists(os.path.join(directory, n))]
    incidents = os.path.join(directory, INCIDENTS_DIR)
    if os.path.isdir(incidents):
        found += [
            f"{INCIDENTS_DIR}/{name}/"
            for name in sorted(os.listdir(incidents))
            if _LEGACY_BUNDLE.match(name)
            and os.path.isdir(os.path.join(incidents, name))
        ]
    return found


_warned: set = set()  # directories already named in a warning


def warn_legacy(directory: str) -> None:
    """Warn once per directory that its legacy trails are ignored."""
    key = os.path.abspath(directory)
    found = [] if key in _warned else legacy_trails(directory)
    _warned.add(key)
    if found:
        _log.warning(
            "ignoring trails an older version wrote under %s: %s (%s replaces "
            "them; nothing is read from them)",
            directory, ", ".join(found), JOURNAL_FILE,
        )


class Journal:
    """The one writer of a journal file, and the holder of the ring.  A
    journal built with ``enabled=False`` reads no file, keeps no counter
    object and is never appended to."""

    def __init__(self, path: Optional[str] = None, operations=None,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.path = path if enabled else None
        #: the store's OperationCounts: the event tee's ``op`` stamp
        self.operations = operations if enabled else None
        if self.path is not None:
            warn_legacy(os.path.dirname(self.path))
        #: the rows the file held at open
        self.restored = read_journal(self.path) if self.path is not None else []
        self._seq = max((row["seq"] for row in self.restored), default=-1) + 1  # type: ignore[type-var]
        self.ring: Optional[Deque[Row]] = None  # opened by a flight recorder
        self.dropped = 0  # rows evicted from the ring
        self._lock = threading.Lock()

    def open_ring(self, capacity: int) -> None:
        with self._lock:
            self.ring, self.dropped = deque(maxlen=capacity), 0

    def append(self, kind: str, op: Optional[int], sim: Optional[float],
               row: Row, write: bool = True) -> Row:
        """Make ``row``, the kind's fields, a numbered row of ``kind`` (the
        header is added in place) and append it: to the ring for ring
        kinds, to the file for persisted ones unless ``write`` is False
        (the caller then hands it to :meth:`write`)."""
        row["schema_version"] = SCHEMA_VERSION
        row["kind"] = kind
        row["op"] = op
        row["sim"] = sim
        with self._lock:
            row["seq"] = self._seq
            self._seq += 1
            ring = self.ring
            if ring is not None and JOURNAL_KINDS[kind].ring:
                if len(ring) == ring.maxlen:
                    self.dropped += 1
                ring.append(row)
            if write and JOURNAL_KINDS[kind].persisted:
                self._append(row)
        return row

    def write(self, row: Row) -> None:
        """Persist ``row``, appended earlier with ``write=False``."""
        with self._lock:
            self._append(row)

    def _append(self, row: Row) -> None:
        """One line onto the file, after cutting off a torn final line."""
        if self.path is None:
            return
        with open(self.path, "a+b") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    handle.seek(0)
                    handle.truncate(handle.read().rfind(b"\n") + 1)
            handle.write(_encode([row]))

    def rewrite(self, kind: str, rows: List[Row]) -> None:
        """Replace the file's rows of ``kind`` by ``rows``; every other row
        keeps its line, and the file stays in ``seq`` order."""
        if self.path is None:
            return
        with self._lock:
            kept = [row for row in read_journal(self.path) if row["kind"] != kind]
            temporary = self.path + ".tmp"
            with open(temporary, "wb") as handle:
                handle.write(_encode(sorted(kept + rows, key=_seq_of)))
            os.replace(temporary, self.path)

    def tail(self) -> List[Row]:
        """The ring's rows, oldest first."""
        with self._lock:
            return list(self.ring or ())


def _seq_of(row: Row) -> int:
    return row["seq"]  # type: ignore[return-value]
