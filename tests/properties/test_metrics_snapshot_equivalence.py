"""The flat snapshot path agrees with a reference that renders everything.

``metrics_snapshot`` reads each series through keys it rendered once;
``collect()`` pairs the same cached label tuples with fresh values.  The
oracle here shares neither: it walks the registries' metrics and their
children and re-derives every sample name, label tuple, bucket bound text
and flat key on the spot, the way the exporters' path did before keys were
cached.  Hypothesis drives a store with all seven observability
facilities on through random operation sequences — span names first seen
mid-run, incident kinds appearing (a labeled projection counter), a
callback gauge, served writes (the custom-bucket group-commit histogram)
— and holds both paths, and the Prometheus exposition, to the oracle:
same keys, same order, same kinds, same values of the same type.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.obs.bridge import (
    deterministic_snapshot,
    metrics_snapshot,
    store_families,
    store_registry,
)
from repro.obs.exporters import prometheus_text
from repro.obs.metrics import Histogram, MetricFamily, Sample
from repro.server.sessions import SessionOp, XMLServer

DOC = (
    "<orders>"
    + "".join(f"<order no='{i}'><item>w{i}</item></order>" for i in range(6))
    + "</orders>"
)

INCIDENT_KINDS = ("repair", "crash-recovery", "checksum-quarantine")

operations = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, 40)),
        st.tuples(st.just("insert"), st.integers(0, 40)),
        st.tuples(st.just("delete"), st.integers(0, 40)),
        st.tuples(st.just("xpath"), st.integers(0, 2)),
        st.tuples(st.just("served_insert"), st.integers(1, 3)),
        st.tuples(st.just("span"), st.integers(0, 3)),
        st.tuples(st.just("incident"), st.integers(0, 5)),
    ),
    max_size=24,
)


# ------------------------------------------------------------------ the oracle --

def reference_bound_text(bound):
    if bound == float("inf"):
        return "+Inf"
    return str(int(bound)) if bound == int(bound) else repr(bound)


def reference_samples(metric, labels):
    if isinstance(metric, Histogram):
        rows = [
            (metric.name + "_bucket", labels + (("le", reference_bound_text(bound)),), count)
            for bound, count in metric.bucket_counts()
        ]
        rows.append((metric.name + "_sum", labels, metric.sum))
        rows.append((metric.name + "_count", labels, float(metric.count)))
        return rows
    return [(metric.name, labels, metric.value)]


def reference_families(registry):
    families = []
    for metric in registry._metrics.values():
        rows = []
        if metric.labelnames:
            for values, child in metric._children.items():
                rows += reference_samples(child, tuple(zip(metric.labelnames, values)))
        else:
            rows += reference_samples(metric, ())
        families.append(
            MetricFamily(
                metric.name, metric.kind, metric.help,
                tuple(Sample(*row) for row in rows),
            )
        )
    return families


def reference_flat(families):
    """``[(key, kind, value), ...]`` in export order."""
    flat = []
    for family in families:
        for name, labels, value in family.samples:
            key = name
            if labels:
                key += "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"
            flat.append((key, family.kind, value))
    return flat


def store_reference(store):
    return reference_families(store_registry(store)) + reference_families(
        store.telemetry.registry
    )


def flat_of(snapshot):
    assert list(snapshot.values) == list(snapshot.kinds)
    return [
        (key, snapshot.kinds[key], value)
        for key, value in snapshot.values.items()
    ]


def typed(flat):
    return [(key, kind, type(value), value) for key, kind, value in flat]


# ------------------------------------------------------------------- the driver --

def open_store():
    store = XMLStore.open(
        StoreConfig(
            policy=IndexingPolicy.RANGE_PLUS_PARTIAL,
            max_range_tokens=16,
            telemetry_enabled=True,
            events_enabled=True,
            heatmap_enabled=True,
            profiling_enabled=True,
            history_enabled=True,
            history_interval=3,
            alerts_enabled=True,
            alerts_interval=4,
            recorder_enabled=True,
            recorder_interval=2,
            recorder_capacity=8,
        )
    )
    root = store.load_document(DOC)
    calls = [0]

    def callback():
        calls[0] += 1
        return 0.5

    # a callback gauge on the live registry: read at snapshot time
    store.telemetry.gauge("repro_test_callback", "set_function gauge").set_function(callback)
    return store, root, calls


def apply(store, root, server, op, argument):
    live = [node.node_id for node in store.xpath("/orders/order")]
    target = live[argument % len(live)] if live else root
    if op == "read":
        store.read(target)
    elif op == "insert":
        store.insert_into_last(root, f"<order><item>n{argument}</item></order>")
    elif op == "delete":
        if len(live) > 1:
            store.delete_node(target)
    elif op == "xpath":
        store.xpath(("/orders/order", "/orders/order/item", "//item")[argument])
    elif op == "served_insert":
        for _ in range(argument):
            server.submit([SessionOp("insert_into_last", root, "<order/>")])
        server.run(seed=argument)
        server.retire_finished()
    elif op == "span":
        with store.telemetry.span(f"custom.{argument}"):
            pass
    elif op == "incident":
        store.incidents.trigger(INCIDENT_KINDS[argument % 3], key=str(argument))


def check(store):
    reference = store_reference(store)
    expected = reference_flat(reference)
    assert typed(flat_of(metrics_snapshot(store))) == typed(expected)
    assert typed(flat_of(deterministic_snapshot(store))) == typed(
        [row for row in expected if not row[0].startswith("repro_span_seconds")]
    )
    live = store.telemetry.registry
    assert list(live.snapshot().items()) == [
        (key, value) for key, _, value in reference_flat(reference_families(live))
    ]
    assert prometheus_text(store_families(store)) == prometheus_text(reference)


@settings(max_examples=25, deadline=None)
@given(operations)
def test_flat_snapshot_equals_render_everything_reference(ops):
    store, root, calls = open_store()
    server = XMLServer(store)
    check(store)
    for op, argument in ops:
        apply(store, root, server, op, argument)
        check(store)
    assert calls[0] > 0


def test_reference_covers_every_kind_of_series():
    """The oracle is only worth its name if the surface it walks holds a
    labeled projection counter, a callback gauge, a custom-bucket
    histogram and span series born mid-run."""
    store, root, _ = open_store()
    server = XMLServer(store)
    before = set(metrics_snapshot(store).values)
    for op, argument in (
        ("served_insert", 2), ("span", 1), ("incident", 0), ("incident", 1),
        ("read", 3), ("delete", 2),
    ):
        apply(store, root, server, op, argument)
    check(store)
    born = set(metrics_snapshot(store).values) - before
    assert 'repro_incidents_total{kind="repair"}' in born
    assert 'repro_incidents_total{kind="crash-recovery"}' in born
    assert 'repro_wal_group_commit_batch_size_bucket{le="2"}' in born
    assert 'repro_spans_total{span="custom.1"}' in born
    assert 'repro_span_seconds_bucket{span="custom.1",le="5e-05"}' in born
    assert "repro_test_callback" in before
