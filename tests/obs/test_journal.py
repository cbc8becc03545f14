"""The journal: one row shape, kinds declared once, and its byte boundary.

``read_journal`` must turn any file into rows or a typed
:class:`ObservabilityError` — never a ``KeyError``/``TypeError`` — and
drop a torn final line; a history compaction must leave every other row's
line as it was; trails written by older versions are named once and never
read.
"""

import json
import logging
import os
import shutil
from argparse import Namespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StoreConfig
from repro.core.filestore import close_directory, open_directory
from repro.errors import ChecksumError, ObservabilityError
from repro.obs.journal import (
    JOURNAL_FILE,
    JOURNAL_KINDS,
    Journal,
    legacy_trails,
    read_journal,
)
from repro.obs.timeline import diagnose

#: ``store.history.jsonl``, ``store.alerts.jsonl`` and a seven-file
#: ``incident-0/`` bundle, as the last version with separate trails wrote
#: them (a quarantine, a fired critical alert, a checkpoint)
LEGACY = os.path.join(os.path.dirname(__file__), "legacy_trails")

#: one well-formed row of each kind
ROWS = {
    "history": {"label": "interval", "deltas": {"k": 1.0}, "partial_index": None,
                "heatmap": None, "merged": 1},
    "alert": {"state": "fired", "rule": "r", "severity": "critical",
              "summary": "s", "value": 1.0, "bound": 0, "label": "interval"},
    "incident": {"trigger": "repair", "key": "", "detail": {}, "bundle": None},
    "event": {"source": "fault", "label": "crash", "payload": {"seq": 0}},
    "metrics": {"label": "interval", "deltas": {}},
}


def _row(row_kind, seq=0, **changes):
    row = {"schema_version": 1, "seq": seq, "kind": row_kind, "op": 3, "sim": 0.5}
    row.update(ROWS[row_kind])
    row.update(changes)
    return row


def test_every_kind_is_declared_once_with_a_reader_that_accepts_it(tmp_path):
    assert set(JOURNAL_KINDS) == set(ROWS)
    path = tmp_path / JOURNAL_FILE
    rows = [_row(kind, seq) for seq, kind in enumerate(ROWS)]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert read_journal(str(path)) == rows
    for row in rows:
        spec = JOURNAL_KINDS[row["kind"]]
        assert spec.summary(row)
        assert row[spec.subkind]
    assert {k for k, spec in JOURNAL_KINDS.items() if spec.persisted} == {
        "history", "alert", "incident"}
    assert {k for k, spec in JOURNAL_KINDS.items() if spec.ring} == {
        "alert", "event", "metrics"}


# -- the byte boundary ------------------------------------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated_rows(draw):
    """A well-formed row with one field dropped, retyped or added, or
    its kind or stamp changed."""
    row = _row(draw(st.sampled_from(sorted(ROWS))))
    key = draw(st.sampled_from(sorted(row) + ["extra"]))
    if draw(st.booleans()):
        row.pop(key, None)
    else:
        row[key] = draw(_json)
    return row


_lines = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40).map(lambda text: text.encode("utf-8")),
    _json.map(lambda value: json.dumps(value).encode("utf-8")),
    _mutated_rows().map(lambda row: json.dumps(row).encode("utf-8")),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_lines, max_size=4), st.binary(max_size=12))
def test_reader_returns_rows_or_a_typed_error(tmp_path_factory, lines, torn):
    path = tmp_path_factory.mktemp("journal") / JOURNAL_FILE
    path.write_bytes(b"".join(line.replace(b"\n", b" ") + b"\n" for line in lines)
                     + torn.replace(b"\n", b" "))
    try:
        rows = read_journal(str(path))
    except ObservabilityError:
        return
    for row in rows:
        assert row["kind"] in JOURNAL_KINDS
        JOURNAL_KINDS[row["kind"]].summary(row)


def test_torn_final_line_is_dropped(tmp_path):
    path = tmp_path / JOURNAL_FILE
    path.write_text(json.dumps(_row("alert")) + "\n" + '{"schema_version": 1, "se')
    assert read_journal(str(path)) == [_row("alert")]
    journal = Journal(str(path))
    journal.append("incident", None, None, dict(ROWS["incident"]))
    assert [row["seq"] for row in read_journal(str(path))] == [0, 1]


@pytest.mark.parametrize(
    "line, match",
    [
        (b"[1, 2]", "not an object"),
        (b'{"seq": 0, "kind": "alert"}', "schema_version"),
        (json.dumps(_row("alert", kind="gossip")).encode(), "unknown row kind"),
        (json.dumps(_row("alert", seq="0")).encode(), "'seq'"),
        (json.dumps({k: v for k, v in _row("alert").items() if k != "rule"}).encode(),
         "'rule'"),
        (json.dumps(_row("incident", detail=[])).encode(), "'detail'"),
        (json.dumps(_row("history", schema_version=2)).encode(), "newer"),
    ],
)
def test_malformed_rows_raise_typed_errors(tmp_path, line, match):
    path = tmp_path / JOURNAL_FILE
    path.write_bytes(line + b"\n")
    with pytest.raises(ObservabilityError, match=match):
        read_journal(str(path))


# -- compaction --------------------------------------------------------------


def test_history_compaction_keeps_every_other_row_byte_identical(tmp_path):
    path = str(tmp_path / "store")
    config = StoreConfig(history_enabled=True, alerts_enabled=True,
                         recorder_enabled=True, events_enabled=True)
    store = open_directory(path, config)
    store.history.capacity = 3
    store.history.interval = 1000
    root = store.load_document("<r><a>x</a></r>")
    # alert and incident rows between history rows
    store.watch("one", ["history"])
    store.pool.quarantine(99, ChecksumError("boom", block_no=99))
    store.watch("two", ["history", "alerts"])
    store.pool.clear_quarantine()
    store.read(root + 1)
    store.watch("three", ["history", "alerts"])
    journal_path = os.path.join(path, JOURNAL_FILE)
    with open(journal_path, "rb") as handle:
        before = handle.read().splitlines()
    others = [line for line in before if b'"kind": "history"' not in line]
    assert any(b'"kind": "alert"' in line for line in others)
    assert any(b'"kind": "incident"' in line for line in others)
    for label in ("four", "five"):
        store.read(root + 1)
        store.watch(label, ["history"])
    assert store.history.compactions == 2
    with open(journal_path, "rb") as handle:
        after = handle.read().splitlines()
    assert [line for line in after if b'"kind": "history"' not in line] == others
    rows = read_journal(journal_path)
    assert [row["seq"] for row in rows] == sorted(row["seq"] for row in rows)
    history = [row for row in rows if row["kind"] == "history"]
    assert [row["label"] for row in history] == ["compacted", "four", "five"]
    assert history[0]["merged"] == 3
    store.pool.clear_quarantine()
    close_directory(path, store)


# -- legacy trails -------------------------------------------------------------


def test_legacy_trails_are_named_once_and_never_read(tmp_path, caplog):
    from repro.cli import _watch_frame
    from repro.obs.alerts import AlertEngine

    path = tmp_path / "store"
    shutil.copytree(LEGACY, path)
    names = [
        "store.history.jsonl",
        "store.alerts.jsonl",
        "store.incidents/incident-0/",
    ]
    assert legacy_trails(str(path)) == names
    with caplog.at_level(logging.WARNING, logger="repro.obs.journal"):
        store = open_directory(
            str(path),
            StoreConfig(history_enabled=True, alerts_enabled=True,
                        recorder_enabled=True),
        )
        # nothing restored from the old trails
        assert store.history.snapshots() == [] and store.alerts.events() == []
        store.load_document("<r/>")
        close_directory(str(path), store)
        report = diagnose(str(path))
        frame = _watch_frame(
            Namespace(store=str(path), top=3), AlertEngine(), 1
        )
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert all(name in warnings[0] for name in names)
    # the old critical alert and incident are not evidence: only this
    # open's rows are
    assert report.verdict == "clean" and report.incidents == []
    assert {entry["source"] for entry in report.timeline} == {"history"}
    assert "alert log: empty" in frame
