"""A disabled facility is a live object in an empty state.

Every switchable observability facility (event log, heatmap, history,
SLO tracker, alert engine, flight recorder, incident manager, the journal
the last four record into, telemetry) is one class whose ``enabled`` flag
is a constructor argument.  A
disabled instance would really record if it were called, so two things
keep the default store free:

* **the guard lint** — every recording call in ``src/`` sits under an
  ``if <same object>.enabled`` (or after an early exit on ``not
  <same object>.enabled``);
* **the behaviour** — a mixed workload on a default ``StoreConfig()``
  store leaves every facility of its live type, disabled and empty.
"""

import ast
import gc
import os
import weakref

import pytest

import repro
from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.obs.alerts import AlertEngine
from repro.obs.events import EventLog
from repro.obs.heatmap import BlockHeatmap
from repro.obs.history import WorkloadHistory
from repro.obs.incident import IncidentManager
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOTracker
from repro.obs.telemetry import Telemetry

SRC = os.path.dirname(repro.__file__)

#: methods that record into a facility
RECORDING = frozenset({
    "emit", "record_fetch", "record_write", "record_event", "record_alert",
    "observe", "capture", "frame", "evaluate", "trigger", "alert_fired",
    "append", "write", "rewrite",
})
#: the names a facility goes by at its call sites
FACILITIES = frozenset({
    "event_log", "heatmap", "history", "alerts", "recorder", "incidents",
    "journal",
})
#: statements that leave the enclosing block early
EXITS = (ast.Return, ast.Raise, ast.Continue)


def _receiver_name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _reads_enabled(node, receiver: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and ast.dump(node.value) == receiver
    )


def _positive_guard(test, receiver: str) -> bool:
    """``if x.enabled:`` or ``if ... and x.enabled and ...:``."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_positive_guard(value, receiver) for value in test.values)
    return _reads_enabled(test, receiver)


def _negative_guard(test, receiver: str) -> bool:
    """``if not x.enabled:`` or ``if ... or not x.enabled:``."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_negative_guard(value, receiver) for value in test.values)
    return (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and _reads_enabled(test.operand, receiver)
    )


def _is_guarded(path, receiver: str) -> bool:
    """``path`` runs from the module down to the call: guarded when an
    enclosing ``if`` tests the receiver's flag with the call in its body,
    or an earlier statement of an enclosing block exits on ``not`` it."""
    for parent, child in zip(path, path[1:]):
        if isinstance(parent, ast.If) and child in parent.body:
            if _positive_guard(parent.test, receiver):
                return True
        body = getattr(parent, "body", None)
        if isinstance(body, list) and child in body:
            for statement in body[: body.index(child)]:
                if (
                    isinstance(statement, ast.If)
                    and _negative_guard(statement.test, receiver)
                    and isinstance(statement.body[-1], EXITS)
                ):
                    return True
    return False


def _recording_calls(tree):
    """Yield ``(call, path)`` for every recording call on a facility."""
    stack = [(tree, [tree])]
    while stack:
        node, path = stack.pop()
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RECORDING
            and _receiver_name(node.func.value) in FACILITIES
        ):
            yield node, path
        for child in ast.iter_child_nodes(node):
            stack.append((child, path + [child]))


def _source_files():
    for directory, subdirectories, filenames in os.walk(SRC):
        subdirectories[:] = [n for n in subdirectories if not n.startswith(("_", "."))]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(directory, filename)


def unguarded_recording_calls():
    found = []
    for path in _source_files():
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for call, ancestry in _recording_calls(tree):
            receiver = ast.dump(call.func.value)
            if not _is_guarded(ancestry, receiver):
                found.append(
                    f"{os.path.relpath(path, SRC)}:{call.lineno}: "
                    f"{ast.unparse(call.func)}()"
                )
    return sorted(found)


def test_every_recording_call_is_guarded_by_its_own_flag():
    assert unguarded_recording_calls() == []


def test_the_lint_sees_guards_and_their_absence():
    def calls(source):
        tree = ast.parse(source)
        return [
            _is_guarded(path, ast.dump(call.func.value))
            for call, path in _recording_calls(tree)
        ]

    assert calls("if self.event_log.enabled:\n    self.event_log.emit('a', 'b')") == [True]
    assert calls("if ok and log.heatmap.enabled:\n    log.heatmap.record_write(1)") == [True]
    assert calls(
        "def f(history):\n"
        "    if history is None or not history.enabled:\n        return\n"
        "    history.capture(store, 'x')"
    ) == [True]
    # unguarded, guarded on another object, or in the else branch
    assert calls("self.event_log.emit('a', 'b')") == [False]
    assert calls("if self.alerts.enabled:\n    self.recorder.frame(s, 'x')") == [False]
    assert calls(
        "if self.incidents.enabled:\n    pass\nelse:\n    self.incidents.trigger('repair')"
    ) == [False]
    # the journal's appends and writes are recording calls too
    assert calls("self.journal.append('event', 0, 0.0)") == [False]
    assert calls("if self.history.enabled:\n    self.journal.write(row)") == [False]
    assert calls(
        "if self.journal.enabled:\n    self.journal.append('event', 0, 0.0)"
    ) == [True]
    assert calls(
        "def f(journal):\n"
        "    if busy or not journal.enabled:\n        return\n"
        "    journal.rewrite('history', [])"
    ) == [True]


# ------------------------------------------------------------------ behaviour --

def _mixed_workload(store: XMLStore) -> None:
    root = store.load_document(
        "<orders>" + "".join(f"<order n='{n}'><qty>{n}</qty></order>" for n in range(20))
        + "</orders>"
    )
    # more operations than any periodic observer's interval (64 at most)
    for node_id in range(root + 1, root + 80):
        store.read(node_id)
    store.insert_into_last(root, "<order n='x'><qty>9</qty></order>")
    store.insert_before(root + 1, "<order n='y'/>")
    store.xpath("/orders/order")
    store.read()
    store.checkpoint()


@pytest.mark.parametrize(
    "policy",
    [IndexingPolicy.RANGE_PLUS_PARTIAL, IndexingPolicy.FULL],
    ids=["partial", "full"],
)
def test_default_store_holds_every_facility_disabled_and_empty(policy):
    store = XMLStore.open(StoreConfig(policy=policy))
    _mixed_workload(store)
    facilities = {
        "telemetry": (store.telemetry, Telemetry),
        "event_log": (store.event_log, EventLog),
        "heatmap": (store.heatmap, BlockHeatmap),
        "history": (store.history, WorkloadHistory),
        "slo": (store.slo, SLOTracker),
        "alerts": (store.alerts, AlertEngine),
        "recorder": (store.recorder, FlightRecorder),
        "incidents": (store.incidents, IncidentManager),
    }
    for name, (facility, live_type) in facilities.items():
        assert type(facility) is live_type, name
        assert facility.enabled is False, name
    assert store.event_log.events() == []
    assert store.event_log.next_seq == 0
    assert store.heatmap.counts() == {}
    assert len(store.history) == 0
    assert store.journal.enabled is False and store.journal.path is None
    assert store.recorder.entries() == []
    assert store.incidents.incidents() == []
    assert store.alerts.events() == []
    assert store.alerts.evaluations == 0
    assert store.telemetry.events() == []
    assert store.telemetry.collect() == []
    # the components share the store's disabled facilities
    assert store.pool.event_log is store.event_log
    assert store.pool.heatmap is store.heatmap
    assert store.event_log.recorder is store.recorder


def test_disabled_telemetry_hands_out_the_two_null_objects():
    from repro.obs.metrics import NOOP_METRIC
    from repro.obs.tracing import NOOP_SPAN

    telemetry = Telemetry(enabled=False)
    assert telemetry.span("read", node_id=1) is NOOP_SPAN
    assert telemetry.counter("c") is NOOP_METRIC
    assert telemetry.gauge("g") is NOOP_METRIC
    assert telemetry.histogram("h") is NOOP_METRIC
    telemetry.preregister_spans(["read"])
    with telemetry.span("read"):
        pass
    assert telemetry.events() == [] and telemetry.collect() == []
    assert telemetry.snapshot() == {}


def test_components_default_to_a_disabled_facility_of_their_own():
    first = XMLStore.open(StoreConfig(events_enabled=True))
    second = XMLStore.open(StoreConfig())
    # nothing mutable is shared between two stores' disabled facilities
    assert second.event_log is not first.event_log
    assert second.recorder is not first.recorder
    assert EventLog(enabled=False).recorder.enabled is False


def test_disabled_facilities_hold_no_reference_to_the_store():
    # so a default store is freed by reference counting, without waiting
    # for the cycle collector
    gc.disable()
    try:
        store = XMLStore.open(StoreConfig())
        root = store.load_document("<r><a>x</a></r>")
        store.read(root + 1)
        store.insert_into_last(root, "<b/>")
        store.checkpoint()
        ref = weakref.ref(store)
        del store
        assert ref() is None
    finally:
        gc.enable()
