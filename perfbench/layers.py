"""The traced run: per-layer self times, unit costs and counts.

One untraced pass and one traced pass of the same seeded work, on fresh
stores.  The traced pass must reproduce the untraced one exactly (result
digest, counters, simulated seconds): tracing may cost time, never change
work.  ``*_self_s`` come from the spans of the traced pass's mix and scan
windows, ``*_us_per_*`` from isolated micro-loops over the traced store's
own records and pages, counts from the counters the objects already expose.
Never used for end-to-end numbers.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.store import XMLStore
from repro.ids.sequential import SequentialIdScheme
from repro.replication import ChangeStream
from repro.replication.changestream import decode_frames, encode_batch
from repro.server.sessions import SessionOp, XMLServer
from repro.storage.pages import CHECKSUM_OVERHEAD, SlottedPage
from repro.workloads import purchase_orders_document
from repro.xmltoken.binary import decode_token, encode_tokens

from perfbench.catalog import PER_LAYER, WORKLOADS_BY_NAME, Workload
from perfbench.measure import run_pass, verify, verify_served
from perfbench.tracer import NET_REQUEST, SpanWindow, Tracer
from perfbench.workload import (
    ORDERS_XPATH, WRITE, ExactState, OpStream, Plan, Scale, Trial, mix_window, set_up,
    store_config, trial_workdir,
)

#: Which spans make up which ``*_self_s`` metric.
SELF_TIME_SPANS: Dict[str, Sequence[str]] = {
    "xmltoken.parse_self_s": ("xmltoken.parse",),
    "xmltoken.serialize_self_s": ("xmltoken.serialize",),
    "pages.decode_self_s": ("pages.decode",),
    "pages.encode_self_s": ("pages.encode",),
    "buffer.fetch_self_s": ("buffer.fetch", "buffer.flush_all"),
    "disk.self_s": ("disk.read", "disk.write"),
    "heap.insert_self_s": ("heap.insert_records", "heap.split_block"),
    "wal.append_self_s": ("wal.append",),
    "wal.sync_self_s": ("wal.sync", "wal.flush"),
    "bptree.probe_self_s": ("bptree.get", "bptree.floor_item"),
    "bptree.update_self_s": ("bptree.insert", "bptree.delete"),
    "locator.scan_self_s": ("locator.locate", "locator.locate_span", "locator.find_end"),
    "partial.probe_self_s": ("partial.probe", "partial.remember"),
    "range_index.locate_self_s": ("range_index.locate",),
    "full_index.lookup_self_s": ("full_index.lookup",),
    "full_index.update_self_s": ("full_index.put", "full_index.remove"),
    "store.read_self_s": ("store.read",),
    "store.write_self_s": ("store.write",),
    "server.request_self_s": ("server.respond", "server.run", "server.step"),
    "server.snapshot_self_s": ("server.snapshot_read",),
    "net.request_self_s": (NET_REQUEST,),
    "replication.apply_self_s": ("replication.apply",),
    "replication.digest_self_s": ("replication.digest",),
}

SCHED_BATCHES = 40
SCHED_SESSIONS = 8
OBS_RATIO_OPS = 300
PINGS = 200


def per_unit_us(loop: Callable[[], int], repeat_s: float) -> float:
    """Microseconds per unit of ``loop`` (which returns how many units it
    processed): repeated for ``repeat_s``, the fastest repetition counts —
    the one the host disturbed least."""
    best = float("inf")
    deadline = perf_counter() + repeat_s
    while True:
        start = perf_counter()
        units = loop()
        elapsed = perf_counter() - start
        if units:
            best = min(best, elapsed / units)
        if perf_counter() >= deadline:
            return best * 1e6 if units else 0.0


def micro_costs(store: XMLStore, repeat_s: float) -> Dict[str, float]:
    """Unit costs of the per-token and per-page functions the tracer leaves
    unwrapped, over this store's own records, pages and log."""
    records = [record for _, record in store.layout.iter_from(None)]
    tokens = [decode_token(record) for record in records]
    starters = [token for token in tokens if token.starts_node]
    scheme = SequentialIdScheme()

    def decode() -> int:
        for record in records:
            decode_token(record)
        return len(records)

    def encode() -> int:
        encode_tokens(tokens)
        return len(tokens)

    def next_id() -> int:
        current = 1
        advance = scheme.next_id
        for token in starters:
            current = advance(current, token)
        return len(starters)

    def heap_records() -> int:
        return sum(1 for _ in store.layout.iter_from(None))

    store.pool.flush_all()
    codec = store.codec
    images = [(block_no, store.device.read_block(block_no))
              for block_no in store.layout.chain.blocks()]
    header = CHECKSUM_OVERHEAD if codec.checksums else 0

    def from_bytes() -> int:
        for _, image in images:
            SlottedPage.from_bytes(image[header:])
        return len(images)

    def crc() -> int:
        for block_no, image in images:
            codec.inspect(image, block_no)
        return len(images)

    index = store.full_index if store.full_index is not None else store.range_index
    tree = index._tree  # the one non-public reach: a node load has no public form
    nodes = tree.block_numbers()

    def node_decode() -> int:
        for block_no in nodes:
            tree._load(block_no)
        return len(nodes)

    changes = list(ChangeStream(store.wal).records())
    wire = encode_batch(changes)

    def wire_encode() -> int:
        for change in changes:
            change.encode()
        return len(changes)

    def wire_decode() -> int:
        return len(decode_frames(wire)[0])

    return {
        "xmltoken.decode_us_per_token": per_unit_us(decode, repeat_s),
        "xmltoken.encode_us_per_token": per_unit_us(encode, repeat_s),
        "ids.next_id_us_per_token": per_unit_us(next_id, repeat_s),
        "heap.records_us_per_record": per_unit_us(heap_records, repeat_s),
        "pages.from_bytes_us_per_page": per_unit_us(from_bytes, repeat_s),
        "pages.crc_us_per_page": per_unit_us(crc, repeat_s),
        "bptree.leaf_decode_us_per_node": per_unit_us(node_decode, repeat_s),
        "replication.wire_encode_us_per_record": per_unit_us(wire_encode, repeat_s),
        "replication.wire_decode_us_per_record": per_unit_us(wire_decode, repeat_s),
    }


def sched_phase(spec: Workload, scale: Scale, seed: int) -> Dict[str, float]:
    """``SCHED_BATCHES`` batches of ``SCHED_SESSIONS`` concurrent one-insert
    writer sessions on the seeded cooperative scheduler: deterministic, no
    threads, no socket — the serving core's own cost and its group commit."""
    store = XMLStore.open(store_config(spec))
    store.load_document(
        purchase_orders_document(scale.orders, scale.items_per_order, seed))
    orders = [node.node_id for node in store.xpath(ORDERS_XPATH)]
    stream = OpStream(replace(spec, read_fraction=0.0), seed, orders, orders,
                      SCHED_BATCHES * SCHED_SESSIONS)
    server = XMLServer(store)
    barriers = store.wal.sync_barriers
    start = perf_counter()
    for batch in range(SCHED_BATCHES):
        for slot in range(SCHED_SESSIONS):
            _, order, xml = stream.op(batch * SCHED_SESSIONS + slot)
            server.submit([SessionOp("insert_into_last", order, xml)])
        server.run(seed=seed + batch)
    wall_s = perf_counter() - start
    barriers = store.wal.sync_barriers - barriers
    return {
        "server.sched_ops_per_s": server.stats.ops_executed / wall_s,
        "server.commits_per_barrier": server.stats.sessions_committed / barriers if barriers else 0.0,
        "server.lock_waits": server.stats.lock_waits,
    }


def obs_on_over_off(scale: Scale, seed: int) -> float:
    """Wall time of ``lazy_partial_hot``'s mix with every obs facility on
    (``repro serve``'s flags) over the same mix with all of them off; each
    side is run twice and its faster run counts."""
    lazy = WORKLOADS_BY_NAME["lazy_partial_hot"]
    plan = Plan(mix_ops=OBS_RATIO_OPS, scan_passes=0)
    best = {False: float("inf"), True: float("inf")}
    for _ in range(2):
        for obs in (False, True):
            trial = set_up(lazy, scale, seed, plan, "", config=store_config(lazy, obs=obs))
            mix_window(trial)
            best[obs] = min(best[obs], trial.mix_end - trial.issued_at[0])
    return best[True] / best[False]


def layer_metrics(
    spec: Workload, trial: Trial, exact: ExactState, window: SpanWindow,
    replication: Optional[SpanWindow], micro: Dict[str, float],
) -> Dict[str, float]:
    """Everything the traced pass itself yields: self times, and counts as
    they stood when the scan window ended (``exact``)."""
    c = exact.counters
    store = trial.store
    values: Dict[str, float] = {}
    for name, spans in SELF_TIME_SPANS.items():
        source = replication if name.startswith("replication.") else window
        values[name] = source.self_of(*spans) if source is not None else 0.0
    tokens_decoded = c["locator.tokens_scanned"] + c["tokens_emitted"]
    fetches = c["buffer.hits"] + c["buffer.misses"]
    locates = c["locator.partial"] + c["locator.full"] + c["locator.scan"]
    probes = window.count_of("bptree.get", "bptree.floor_item")
    writes = trial.stream.timed_kinds().count(WRITE)
    values.update({
        "xmltoken.tokens_decoded": tokens_decoded,
        "pages.decodes": window.count_of("pages.decode"),
        "buffer.fetches": fetches,
        "buffer.hit_ratio": c["buffer.hits"] / fetches if fetches else 0.0,
        "buffer.evictions": c["buffer.evictions"],
        "buffer.dirty_writebacks": c["buffer.dirty_writebacks"],
        "disk.reads": c["disk.reads"],
        "disk.writes": c["disk.writes"],
        "disk.bytes_written_per_xml_byte":
            c["disk.writes"] * store.config.page_size / exact.xml_bytes,
        # a generator cannot be spanned without timing every token, so this
        # one self time is the unit cost times the records it yielded
        "heap.records_self_s": micro["heap.records_us_per_record"] * 1e-6 * tokens_decoded,
        "heap.block_splits": window.count_of("heap.split_block"),
        "wal.appends": c["wal.appends"],
        "wal.bytes_per_xml_byte": store.wal.size_bytes / exact.xml_bytes,
        "wal.sync_barriers": c["wal.sync_barriers"],
        "bptree.probes": probes,
        "bptree.nodes_per_probe":
            window.children_of(("bptree.get", "bptree.floor_item"), "buffer.fetch") / probes
            if probes else 0.0,
        "bptree.entries_decoded": c["index_entries_loaded"],
        "locator.locates": locates,
        "locator.path_share.partial": c["locator.partial"] / locates if locates else 0.0,
        "locator.path_share.full": c["locator.full"] / locates if locates else 0.0,
        "locator.path_share.scan": c["locator.scan"] / locates if locates else 0.0,
        "locator.tokens_scanned_per_locate":
            c["locator.tokens_scanned"] / locates if locates else 0.0,
        "partial.probes": c.get("partial.probes", 0),
        "partial.hit_ratio":
            c["partial.hits"] / c["partial.probes"] if c.get("partial.probes") else 0.0,
        "partial.evictions": c.get("partial.evictions", 0),
        "full_index.entries_written_per_insert":
            window.count_of("full_index.put") / writes if writes else 0.0,
        "store.ranges": c["store.ranges"],
        "store.range_splits": c["store.range_splits"],
        "obs.events_emitted": c["obs.events"],
    })
    if spec.served:
        values["net.bytes_per_request"] = trial.target.bytes_moved / trial.target.requests
    return values


def layer_shares(window: SpanWindow, wall_s: float) -> List[str]:
    """Self time per layer (span-name prefix) as a share of the window."""
    by_layer: Dict[str, float] = {}
    for name, seconds in window.self_s.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    ranked = sorted(by_layer.items(), key=lambda item: -item[1])
    return [f"{layer}={seconds / wall_s:.1%}" for layer, seconds in ranked]


def run_traced(spec: Workload, scale: Scale, seed: int, seconds: float,
               results_dir: str, header: Dict[str, object]) -> Dict[str, object]:
    plan = Plan.make(spec, seconds)
    values: Dict[str, float] = {metric.name: 0.0 for metric in PER_LAYER}
    values["host.calib_loop_s"] = header["host.calib_loop_s"]
    failed = 0
    # -- untraced pass: the baseline the traced pass is held against, and the
    # -- correctness checks
    with trial_workdir(results_dir, f"{spec.name}-plain") as workdir:
        plain = run_pass(spec, scale, seed, plan, workdir, None)
        try:
            plain_mix_s = plain.mix_s
            report = verify(plain.trial, plain.warm)
            values["wal.replay_ops_per_s"] = report["wal.replay_ops_per_s"]
            if spec.served:
                values["replication.catchup_ops_per_s"] = plain.replica.ops_per_s
                failed += plain.replica.failures
                rtts = []
                for _ in range(PINGS):
                    start = perf_counter()
                    plain.trial.target.ping()
                    rtts.append(perf_counter() - start)
                values["net.ping_rtt_ms"] = statistics.median(rtts) * 1e3
                verify_served(plain.trial, report, plain.replica)
            failed += report["failures"] + plain.trial.failed_ops
        finally:
            plain.trial.target.close()
    # -- traced pass
    tracer = Tracer()
    with trial_workdir(results_dir, f"{spec.name}-traced") as workdir:
        with tracer.installed():
            traced = run_pass(spec, scale, seed, plan, workdir, tracer)
            if spec.served:
                traced.trial.target.stop_serving()
        # the program's own functions are back: the counters and micro-loops
        # read the traced store untraced
        try:
            if traced.signature != plain.signature:
                failed += 1
            marks = traced.marks
            mix = tracer.window(marks[0], marks[1])
            window = tracer.window(marks[0], marks[2])
            replication = None
            if spec.served:
                replication = tracer.window(marks[2], marks[3])
                values["replication.records"] = traced.replica.applied
                values["replication.fetches"] = traced.replica.fetches
                failed += traced.replica.failures
            micro = micro_costs(traced.trial.store, scale.micro_s)
            values.update(layer_metrics(
                spec, traced.trial, traced.exact, window, replication, micro))
            values.update({name: value for name, value in micro.items() if name in values})
            values["trace.overhead_ratio"] = traced.mix_s / plain_mix_s
            values["trace.coverage_ratio"] = mix.root_s / traced.mix_s
            failed += traced.trial.failed_ops
        finally:
            traced.trial.target.close()
    if spec.served:
        values.update(sched_phase(spec, scale, seed))
        values["obs.on_over_off_ratio"] = obs_on_over_off(scale, seed)
    trace_path = os.path.join(results_dir, f"trace-{spec.name}-{seed}.jsonl")
    tracer.dump(trace_path)
    attempted = 2 * (len(traced.trial.stream) + plan.scan_passes + 1) + report["comparisons"]
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in PER_LAYER
        },
        "notes": [
            f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path)}",
            "self time share of the traced mix window, by layer: "
            + " ".join(layer_shares(mix, traced.mix_s)),
        ],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
    }
