"""Command-line interface: operate a directory-backed store from a shell.

Usage::

    python -m repro.cli <store-dir> <command> [args...]

``python -m repro.cli <store-dir> --help`` lists the commands and
``<command> --help`` describes one, with the exit codes it declares in
:data:`EXIT_CODES`; README.md ("Exit codes") has the canonical 0/1/2 table.
Every report command takes ``--output FILE``, and ``--verbose`` turns on
the ``repro.*`` logs on stderr.  A command outside :data:`OWN_LIFECYCLE`
runs on a store opened with every observability facility on, then
checkpointed and closed, so the directory is consistent afterwards.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.errors import (
    InvalidOperationError,
    ReproError,
    StoreCorruptError,
    StoreDegradedError,
)
from repro.core.config import StoreConfig
from repro.core.filestore import close_directory, open_directory
from repro.log import install_handler

#: What each command's exit codes mean, beyond 1 for any error it raises.
#: ``--help`` renders these as the epilog; README.md's "Exit codes" table
#: names the same commands.
EXIT_CODES = {
    "verify": {
        0: "every check passed and no degraded-repair sidecar",
        1: "checks pass but the store carries a store.repair.json sidecar "
        "(an earlier repair lost data)",
        2: "one or more checks failed (corrupt)",
    },
    "scrub": {0: "all blocks verify", 2: "bad block(s) found"},
    "repair": {
        0: "fully recovered",
        1: "repaired but degraded (data provably lost)",
        2: "repair could not restore integrity",
    },
    "torture": {
        0: "every tested crash point recovered verify-clean",
        1: "a crash point failed",
    },
    "alerts": {
        0: "nothing firing above info",
        1: "warning alert(s) firing",
        2: "critical alert(s) firing",
    },
    "health": {0: "healthy", 1: "degraded", 2: "unhealthy"},
    "diagnose": {
        0: "clean (no incidents)",
        1: "incidents resolved by a clean repair, a replica is stale, "
        "or a store.repair.json sidecar is present",
        2: "unresolved incident(s)",
    },
    "bundle": {0: "bundle written", 1: "cannot write"},
    "serve": {0: "served and shut down cleanly", 1: "failed to bind or serve"},
    "client": {
        0: "session committed (or control request ok)",
        1: "session aborted, shed, or the server refused",
    },
    "replicate": {
        0: "replica converged (digest verified)",
        1: "the retry budget ran out (checkpoint committed — rerun to resume)",
        2: "the replica diverges and resync is disabled or failed",
    },
    "lag": {
        0: "every replica is fresh (or none configured)",
        1: "a replica's checkpoint is stale (no recent apply progress)",
    },
}

#: Commands that skip the default open -> command -> close, each with the
#: reason it manages the store (or no store) itself.
OWN_LIFECYCLE = {
    "torture": "runs on throwaway in-memory stores: never opens the directory",
    "scrub": "reads the device images: an open would replay and checkpoint",
    "repair": "opens in repair mode, since a normal open chokes on corruption",
    "watch": "tails the JSONL files only, so it can run beside a workload",
    "diagnose": "reads persisted artifacts: works on a store too corrupt to open",
    "bundle": "packs persisted artifacts, like diagnose",
    "serve": "a long-running loop that owns its open and close",
    "client": "talks to a running server, never to the store files",
    "replicate": "reads the primary's WAL bytes, owns the replica directory",
    "lag": "reads the registry, checkpoints and WAL bytes beside a live primary",
    "health": "falls back to a repair-mode open on the stores it diagnoses",
}

#: The Table-1 updates that take ``<node-id> <xml>``: command -> (store
#: method, help, what the output calls the id the method returns).
_UPDATES = {
    "insert-last": ("insert_into_last", "insert as last child", "inserted; first"),
    "insert-before": ("insert_before", "insert before", "inserted; first"),
    "insert-after": ("insert_after", "insert after", "inserted; first"),
    "replace": ("replace_node", "replace a node", "replaced; new"),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Adaptive XML store (Duda & Kossmann, SIGMOD 2005)",
    )
    parser.add_argument("store", help="store directory (created on demand)")
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log repro.* debug output to stderr",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="the report as JSON")
    to_file = argparse.ArgumentParser(add_help=False)
    to_file.add_argument(
        "--output", metavar="FILE", help="write the report to FILE instead of stdout"
    )
    report = (as_json, to_file)

    def add(name, handler, help, description=None, parents=()):
        """Declare one command: its parser, its handler, its exit codes."""
        codes = EXIT_CODES.get(name)
        epilog = codes and (
            "exit codes: "
            + "; ".join(f"{code} = {meaning}" for code, meaning in codes.items())
            + ".  See the canonical exit-code table in README.md."
        )
        command = commands.add_parser(
            name,
            help=help,
            description=description,
            epilog=epilog,
            parents=list(parents),
        )
        command.set_defaults(handler=handler)
        return command

    load = add("load", _load, "bulk-insert a document")
    load.add_argument("source", help="XML file path, or - for stdin")

    # the Table-1 verbs, which explain and profile run as they are
    ops = {}
    read = ops["read"] = add("read", _read, "serialize the store or a node")
    read.add_argument("node_id", nargs="?", type=int)
    read.add_argument("--pretty", action="store_true", help="indent output")

    xpath = ops["xpath"] = add("xpath", _xpath, "evaluate an XPath query")
    xpath.add_argument("expression")

    for name, (method, help, said) in _UPDATES.items():
        update = ops[name] = add(name, _update, help)
        update.add_argument("node_id", type=int)
        update.add_argument("xml")
        update.set_defaults(method=method, said=said)

    delete = ops["delete"] = add("delete", _delete, "delete a node")
    delete.add_argument("node_id", type=int)

    add("ranges", _ranges, "show the Range Index snapshot", parents=[as_json])

    stats = add("stats", _stats, "show store statistics")
    stats_format = stats.add_mutually_exclusive_group()
    stats_format.add_argument(
        "--json", action="store_true", help="flat JSON metrics snapshot"
    )
    stats_format.add_argument(
        "--prometheus", action="store_true", help="Prometheus text format"
    )
    stats_format.add_argument(
        "--top", action="store_true", help="top-style span/metric summary"
    )

    trace = add(
        "trace", _trace, "dump recorded spans (JSON lines)", parents=[to_file]
    )
    trace.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        help="only the most recent N spans",
    )

    explain = add(
        "explain",
        _explain,
        "run one operation and report its access path",
        description=(
            "Runs the <op> command itself, parsed by its own parser, and "
            "reports which access path it took (partial-index hit, full-"
            "index probe, range scan), the blocks and tokens it touched, "
            "and a per-stage cost breakdown."
        ),
        parents=report,
    )
    profile = add(
        "profile",
        _profile,
        "run one operation and report where its cost went",
        description=(
            "Runs the <op> command itself, parsed by its own parser, and "
            "reports a deterministic cost profile: the span call tree and "
            "a per-component table on both the simulated and the wall axis."
        ),
        parents=[to_file],
    )
    for recorded in (explain, profile):
        recorded.add_argument("op", help="one of: " + ", ".join(ops))
        recorded.add_argument(
            "op_args", nargs="*", help="the operation's own arguments"
        )
        recorded.set_defaults(ops=ops)
    profile.add_argument(
        "--format",
        choices=("top", "collapsed", "speedscope", "components", "json"),
        default="top",
        help="output shape (default: pstats-style top table)",
    )
    profile.add_argument(
        "--axis",
        choices=("simulated", "wall"),
        default="simulated",
        help="which clock weights collapsed/speedscope output",
    )

    heatmap = add(
        "heatmap",
        _heatmap,
        "per-block access counts and hot ranges",
        parents=report,
    )
    heatmap.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        help="rows per section (default 10)",
    )
    heatmap.add_argument(
        "--xpath",
        default=None,
        metavar="EXPR",
        help="evaluate EXPR first so the heatmap shows that query's accesses",
    )

    add("compact", _compact, "merge adjacent ranges")

    add(
        "verify",
        _verify,
        "run every integrity check and report each",
        description=(
            "Runs every store invariant check (layout, range-index, "
            "id-density, partial-memo, block-checksum, quarantine) and "
            "reports each individually."
        ),
        parents=report,
    )

    scrub = add(
        "scrub",
        _scrub,
        "verify every owned block's checksum against the raw device",
        description=(
            "Walks every block the store owns (data chain + index trees) "
            "and verifies each raw device image's checksum frame out-of-"
            "band, bypassing the buffer pool cache.  Read-only: nothing "
            "is modified (bad blocks are reported, and would be "
            "quarantined by a running store).  Vacuous on legacy "
            "no-checksum stores."
        ),
        parents=report,
    )
    scrub.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        metavar="N",
        help="verify in incremental steps of N blocks (default: one pass)",
    )

    add(
        "repair",
        _repair,
        "self-heal the store around checksum-dead blocks",
        description=(
            "Tries a full-log rebuild first (the WAL holds the complete "
            "operation history, so a readable log recovers everything); "
            "falls back to structural salvage: surviving records are "
            "re-chained, provable id prefixes/suffixes are reassigned, "
            "ambiguous runs are dropped and every derived structure "
            "(range index, partial memos, full index) is rebuilt.  A "
            "degraded salvage writes a store.repair.json sidecar that "
            "'verify' reports as exit 1."
        ),
        parents=report,
    )

    torture = add(
        "torture",
        _torture,
        "crash-consistency torture: crash at every I/O point, verify recovery",
        description=(
            "Generates a seeded workload, enumerates every crash point it "
            "exposes (block writes, per-block fsync flushes, WAL frame "
            "appends), replays the workload once per point with a "
            "simulated crash there, recovers, and verifies the result "
            "against an oracle run plus every integrity invariant.  Runs "
            "entirely on in-memory stores; the store directory is left "
            "untouched."
        ),
        parents=report,
    )
    torture.add_argument(
        "--seed", type=int, default=0, help="workload + fault seed (default 0)"
    )
    torture.add_argument(
        "--ops",
        type=_positive_int,
        default=30,
        help="mutating operations in the workload (default 30)",
    )
    torture.add_argument(
        "--workload",
        choices=("mixed", "insert"),
        default="mixed",
        help="mixed random updates, or the Table-5 insert stream",
    )
    from repro.storage.faults import fault_classes_help

    torture.add_argument(
        "--fault-classes",
        default="all",
        metavar="LIST",
        help=(
            "comma list of fault classes, or all (crash classes) / none. "
            + fault_classes_help()
        ),
    )
    torture.add_argument(
        "--media-rate",
        type=float,
        default=None,
        metavar="P",
        help=(
            "per-flush probability of injecting an enabled media fault "
            "(default 0.05; only meaningful with bitrot / lost_write / "
            "misdirect classes)"
        ),
    )
    torture.add_argument(
        "--crash-points",
        type=_positive_int,
        default=None,
        metavar="N",
        help="test at most N points (seeded sample; default: all of them)",
    )

    monitor = add(
        "monitor",
        _monitor,
        "show the workload-history timeline and drift",
        description=(
            "Reads the store's workload history (periodic counter-delta "
            "snapshots journaled in store.journal.jsonl) and shows the "
            "timeline, the current workload fingerprint and the rolling "
            "drift series (0 = steady workload, 1 = completely changed)."
        ),
        parents=report,
    )
    advise = add(
        "advise",
        _advise,
        "run the tuning advisor over the workload history",
        description=(
            "Runs the rule-based tuning advisor: recommendations to "
            "split/merge range granularity, resize the partial index, "
            "grow the buffer pool or compact, each backed by the history "
            "counters that triggered it and a what-if simulated-cost "
            "estimate from the store's own cost model.  Vacuous (zero "
            "recommendations, reason stated) without enough evidence."
        ),
        parents=report,
    )
    for windowed in (monitor, advise):
        windowed.add_argument(
            "--window",
            type=_positive_int,
            default=4,
            help="snapshots per drift window (default 4)",
        )

    add(
        "alerts",
        _alerts,
        "evaluate the alert rules and list firing alerts",
        description=(
            "Evaluates the deterministic alert rule set (threshold / "
            "ratio / delta-over-window / absence rules over the metric "
            "registry, history snapshots and SLO budgets) and lists the "
            "currently-firing alerts plus the journaled transitions "
            "(store.journal.jsonl)."
        ),
        parents=report,
    )

    add(
        "health",
        _health,
        "composite health verdict with verify's exit codes",
        description=(
            "Folds every liveness signal — integrity checks, block "
            "quarantine, checksum errors, the degraded-repair sidecar, "
            "scrub recency, WAL growth, workload drift and the "
            "simulated-axis SLO statuses — into one healthy / degraded "
            "/ unhealthy verdict a supervisor can poll."
        ),
        parents=report,
    )

    watch = add(
        "watch",
        _watch,
        "live top-style view over the journal",
        description=(
            "Tails the history and alert rows of store.journal.jsonl (plus "
            "the store file sizes) and renders a refreshing top-style frame "
            "with cumulative counters, firing alerts and recent "
            "transitions.  Read-only and lock-free: the store is never "
            "opened, so it can run beside a live workload."
        ),
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval (default 2.0)",
    )
    watch.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    watch.add_argument(
        "--top",
        type=_positive_int,
        default=8,
        metavar="N",
        help="counters shown in the hot-counter section (default 8)",
    )

    diagnose = add(
        "diagnose",
        _diagnose,
        "post-mortem timeline + root cause from persisted artifacts",
        description=(
            "Reads the journal (store.journal.jsonl: workload history, "
            "alert transitions, incidents) in order, with the "
            "flight-recorder rows of the incident bundles "
            "(store.incidents/) and the degraded-repair sidecar, as one "
            "causally-ordered post-mortem timeline with a root-cause "
            "summary.  Purely "
            "file-based: the store is never opened, so it works on a "
            "store too corrupt to open and beside a live workload."
        ),
        parents=report,
    )
    diagnose.add_argument(
        "--incident",
        default=None,
        metavar="NAME",
        help="focus the timeline on one bundle (e.g. incident-0)",
    )

    add(
        "bundle",
        _bundle,
        "pack observability artifacts into a support tarball",
        description=(
            "Packs every observability artifact the store directory "
            "carries (alert log, history, repair sidecar, incident "
            "bundles) plus a fresh diagnosis into one portable tarball "
            "for hand-off: --output names it (default: "
            "<store>/support-bundle.tar) and --json prints its manifest.  "
            "The tar is deterministic (uncompressed, zeroed member "
            "metadata): identical seeded runs produce byte-identical "
            "bundles.  Read-only: the store is never opened."
        ),
        parents=report,
    )

    serve = add(
        "serve",
        _serve,
        "serve the store to concurrent clients over a TCP socket",
        description=(
            "Opens the store and serves newline-delimited JSON sessions "
            "over TCP.  Requests arriving together are multiplexed "
            "through one deterministic scheduler run, so concurrent "
            "writers share group-commit sync barriers and read-only "
            "sessions are served from lock-free snapshots.  Runs until "
            "a client sends {\"cmd\": \"shutdown\"}."
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = pick a free port, printed on startup)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="scheduler seed (default 0)"
    )

    client = add(
        "client",
        _client,
        "send one session (or control request) to a running server",
        description=(
            "Connects to a `repro serve` instance and submits one "
            "session program: a JSON list of ops such as "
            "'[{\"op\": \"read\", \"node_id\": 1}]'.  Control requests "
            "(--ping, --stats, --shutdown) skip the session machinery."
        ),
    )
    client.add_argument(
        "--host", default="127.0.0.1", help="server address (default 127.0.0.1)"
    )
    client.add_argument(
        "--port", type=int, required=True, help="server TCP port"
    )
    client.add_argument(
        "--read-only",
        action="store_true",
        help="run the program in a snapshot (lock-free) session",
    )
    client.add_argument(
        "--ping", action="store_true", help="liveness check instead of a session"
    )
    client.add_argument(
        "--stats",
        action="store_true",
        help="fetch server + group-commit counters instead of a session",
    )
    client.add_argument(
        "--shutdown", action="store_true", help="ask the server to stop"
    )
    client.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "reconnect attempts after a refused/dropped connection "
            "(default 0 = fail on the first); exhaustion exits 1 with a "
            "typed server-unavailable error"
        ),
    )
    client.add_argument(
        "--retry-backoff",
        type=float,
        default=0.1,
        help=(
            "base seconds between reconnect attempts, doubled each retry "
            "(default 0.1)"
        ),
    )
    client.add_argument(
        "program",
        nargs="?",
        default=None,
        help="session program: JSON list of {op, node_id, xml} objects",
    )

    from repro.replication.channel import channel_fault_classes_help

    replicate = add(
        "replicate",
        _replicate,
        "catch a read replica up to this store's change stream",
        description=(
            "Tails the primary's WAL as a logical change stream and "
            "applies it onto the replica directory (created on demand; "
            "a standard store directory afterwards, so read/xpath/serve/"
            "health all work on it).  Apply is idempotent and resumes "
            "from the replica's durable checkpoint; a seeded hostile "
            "channel (--channel-faults) and deterministic retry/backoff "
            "exercise the convergence machinery; divergence is detected "
            "by state digest and healed by auto-resync.  The primary is "
            "only ever read."
        ),
        parents=report,
    )
    replicate.add_argument("replica", help="replica directory (created on demand)")
    replicate.add_argument(
        "--name", default="replica", help="replica name in the registry"
    )
    replicate.add_argument(
        "--channel-faults",
        default="none",
        help=channel_fault_classes_help(),
    )
    replicate.add_argument(
        "--seed", type=int, default=0, help="channel fault seed (default 0)"
    )
    replicate.add_argument(
        "--fault-rate",
        type=float,
        default=0.5,
        help="per-fetch probability of injecting one enabled fault",
    )
    replicate.add_argument(
        "--max-faults",
        type=int,
        default=16,
        help="fault injections before the channel turns honest",
    )
    replicate.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        help="change records per channel fetch (default from config)",
    )
    replicate.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=None,
        help="fetch attempts per batch before giving up (default: RetryPolicy's)",
    )
    replicate.add_argument(
        "--no-resync",
        action="store_true",
        help="report divergence as an error instead of auto-resyncing",
    )
    replicate.add_argument(
        "--force-diverge",
        action="store_true",
        help=(
            "write directly to the replica before catch-up (a split-brain "
            "drill: the digest check must detect it and resync heal it)"
        ),
    )

    lag = add(
        "lag",
        _lag,
        "show replica lag against this store's change stream",
        description=(
            "Reads the primary's WAL, the replica registry "
            "(store.replicas.json) and each replica's persisted "
            "replication checkpoint — files only, the store is never "
            "opened — and reports per-replica lag in committed "
            "operations."
        ),
        parents=report,
    )
    lag.add_argument(
        "--stale-after",
        type=_positive_int,
        default=None,
        help="staleness bound in operations (default: STALE_AFTER_OPS)",
    )
    return parser


def run(argv: Optional[List[str]] = None, stdin=None) -> str:
    """Execute one CLI invocation; returns the text that was printed."""
    arguments = build_parser().parse_args(argv)
    if arguments.verbose:
        install_handler(logging.DEBUG)
    if arguments.command in OWN_LIFECYCLE:
        return arguments.handler(arguments)
    store = open_directory(arguments.store, config=_cli_store_config())
    try:
        return arguments.handler(
            arguments, store, stdin if stdin is not None else sys.stdin
        )
    finally:
        close_directory(arguments.store, store)


def _cli_store_config() -> StoreConfig:
    return StoreConfig(
        telemetry_enabled=True,
        events_enabled=True,
        heatmap_enabled=True,
        profiling_enabled=True,
        history_enabled=True,
        alerts_enabled=True,
        recorder_enabled=True,
    )


def _report(arguments, report=None, text=None, code=None, why="") -> str:
    """Print one report, or write it to ``--output``; then exit with its code.

    With ``--json`` the report is printed as JSON: a payload dict, which
    is stamped here, or an object's ``to_dict()``.  Otherwise ``text`` is
    printed, or the object's ``render()``.  Only after the report is
    delivered does a non-zero ``code`` raise, with ``why`` as its message.
    ``code`` defaults to the report's own ``exit_code``.
    """
    from repro.obs.schema import stamp

    if getattr(arguments, "json", False):
        payload = stamp(report) if isinstance(report, dict) else report.to_dict()
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif text is None:
        text = report.render().rstrip("\n")
    output = getattr(arguments, "output", None)
    if output is not None:
        try:
            with open(output, "w") as handle:
                handle.write(text + "\n")
        except OSError as error:
            raise ReproError(f"cannot write {output}: {error}") from error
        text = f"wrote {output}"
    if code is None:
        code = getattr(report, "exit_code", 0)
    if code:
        raise (StoreCorruptError if code == 2 else StoreDegradedError)(why)
    return text


@contextmanager
def _repair_mode_open(path: str):
    """The store in ``path``, opened read-only in repair mode: its catalog
    over the raw device images, with no WAL replay and no checkpoint on
    close.  The recorder is on, so a block quarantined here leaves an
    incident bundle behind, exactly as in a running store."""
    from repro.core.filestore import CATALOG_FILE, DEVICE_FILE
    from repro.core.store import XMLStore
    from repro.storage.disk import FileBlockDevice, InstrumentedDevice

    config = StoreConfig(
        events_enabled=True, recorder_enabled=True, artifacts_dir=path
    )
    catalog_path = os.path.join(path, CATALOG_FILE)
    device_path = os.path.join(path, DEVICE_FILE)
    if not (os.path.exists(catalog_path) and os.path.exists(device_path)):
        raise ReproError(f"{path}: not a store directory (no catalog/device)")
    with open(catalog_path, "rb") as handle:
        catalog = handle.read()
    device = InstrumentedDevice(
        FileBlockDevice(device_path, block_size=config.page_size)
    )
    try:
        yield XMLStore.from_catalog(device, catalog, config=config)
    finally:
        device.close()


# ------------------------------------------------- commands on an open store --


def _load(arguments, store, stdin) -> str:
    if arguments.source == "-":
        text = stdin.read()
    else:
        with open(arguments.source) as handle:
            text = handle.read()
    return f"loaded; first node id = {store.load_document(text)}"


def _read(arguments, store, stdin) -> str:
    text = store.read(arguments.node_id)
    if arguments.pretty and text:
        from repro.xmltoken.emitter import emit, indented
        from repro.xmltoken.parser import parse_records

        text = emit(indented(parse_records(text)[0], "  ")).decode("utf-8")
    return text


def _xpath(arguments, store, stdin) -> str:
    results = store.xpath(arguments.expression)
    lines = [f"{len(results)} match(es)"]
    lines.extend(f"#{node.node_id}\t{node.xml()}" for node in results)
    return "\n".join(lines)


def _update(arguments, store, stdin) -> str:
    first_id = getattr(store, arguments.method)(arguments.node_id, arguments.xml)
    return f"{arguments.said} node id = {first_id}"


def _delete(arguments, store, stdin) -> str:
    store.delete_node(arguments.node_id)
    return f"deleted node {arguments.node_id}"


def _ranges(arguments, store, stdin) -> str:
    snapshot = store.range_snapshot()
    keys = ("range_id", "block_id", "start_id", "end_id")
    lines = ["RangeId  BlockId  StartId  EndId"]
    for range_id, block_id, start_id, end_id in snapshot:
        lines.append(
            f"{range_id:>7}  {block_id:>7}  {str(start_id):>7}  {str(end_id):>5}"
        )
    payload = {"ranges": [dict(zip(keys, row)) for row in snapshot]}
    return _report(arguments, payload, "\n".join(lines))


def _stats(arguments, store, stdin) -> str:
    from repro.obs.bridge import metrics_snapshot, store_families
    from repro.obs.exporters import prometheus_text, render_top

    if arguments.json:
        return _report(arguments, metrics_snapshot(store).values)
    if arguments.prometheus:
        families = store_families(store)
        if store.slo.enabled:
            # SLO budgets ride along in the exposition (both axes: the
            # scrape is already wall-clock territory)
            families = families + store.slo.families(
                store, axes=("simulated", "wall")
            )
        return prometheus_text(families).rstrip("\n")
    if arguments.top:
        return render_top(store_families(store)).rstrip("\n")
    return store.stats.summary()


def _trace(arguments, store, stdin) -> str:
    from repro.obs.exporters import events_jsonl

    events = store.telemetry.events()
    if arguments.limit is not None:
        events = events[-arguments.limit :]
    return _report(arguments, text=events_jsonl(events).rstrip("\n"))


def _op(arguments):
    """``explain``/``profile``'s operation, parsed by its own command's
    parser (whose ``handler`` runs it)."""
    parser = arguments.ops.get(arguments.op)
    if parser is None:
        raise InvalidOperationError(
            f"cannot {arguments.command} {arguments.op!r}; "
            f"supported: {', '.join(arguments.ops)}"
        )
    return parser.parse_args(arguments.op_args)


def _explain(arguments, store, stdin) -> str:
    from repro.obs.explain import ExplainRecorder

    op = _op(arguments)
    with ExplainRecorder(store, arguments.op, arguments.op_args) as recorder:
        op.handler(op, store, stdin)
    return _report(arguments, recorder.report)


def _profile(arguments, store, stdin) -> str:
    from repro.obs.profile_export import (
        collapsed_stacks,
        render_profile_top,
        speedscope_json,
    )
    from repro.obs.profiler import ProfileRecorder

    op = _op(arguments)
    with ProfileRecorder(store, arguments.op) as recorder:
        op.handler(op, store, stdin)
    profile, axis = recorder.profile, arguments.axis
    if arguments.format == "collapsed":
        text = collapsed_stacks(profile, axis=axis).rstrip("\n")
    elif arguments.format == "components":
        text = collapsed_stacks(profile, axis=axis, by="component").rstrip("\n")
    elif arguments.format == "speedscope":
        text = speedscope_json(profile, name=arguments.op, axis=axis)
    elif arguments.format == "json":
        text = json.dumps(profile.to_dict(), indent=2, sort_keys=True)
    else:
        text = render_profile_top(profile)
    return _report(arguments, text=text)


def _heatmap(arguments, store, stdin) -> str:
    from repro.obs.heatmap import heatmap_report, render_heatmap

    if arguments.xpath is not None:
        for node in store.xpath(arguments.xpath):
            node.xml()  # serialize so per-node locates hit the heatmap
    if arguments.json:
        return _report(arguments, heatmap_report(store, top=arguments.top))
    text = render_heatmap(store, top=arguments.top).rstrip("\n")
    return _report(arguments, text=text)


def _compact(arguments, store, stdin) -> str:
    report = store.compact()
    return (
        f"compacted: {report.ranges_before} -> {report.ranges_after} "
        f"ranges ({report.merges} merges)"
    )


def _verify(arguments, store, stdin) -> str:
    from repro.core.integrity import integrity_report
    from repro.core.repair import read_sidecar

    report = integrity_report(store)
    sidecar = read_sidecar(arguments.store)
    payload, text = report.to_dict(), report.render()
    code, why = 0, ""
    if sidecar is not None:
        payload["degraded_repair"] = sidecar
        text += (
            "\nDEGRADED: an earlier repair lost data "
            f"(lost_ids={sidecar.get('lost_ids', '?')}); "
            "see store.repair.json"
        )
        code, why = 1, (
            "store verifies but an earlier repair lost data "
            "(store.repair.json present)"
        )
    if not report.ok:
        names = ", ".join(check.name for check in report.failed())
        code, why = 2, f"integrity check(s) failed: {names}"
    return _report(arguments, payload, text, code, why)


def _monitor(arguments, store, stdin) -> str:
    from repro.obs.fingerprint import drift_series, fingerprint_window
    from repro.obs.journal import as_row

    snapshots = store.history.snapshots()
    finger = fingerprint_window(snapshots)
    drift = drift_series(snapshots, window=arguments.window)
    payload = {
        "snapshots": [as_row("history", snap) for snap in snapshots],
        "fingerprint": finger.to_dict() if finger else None,
        "drift": drift,
    }
    lines = [f"workload history: {len(snapshots)} snapshot(s)"]
    for snap in snapshots:
        lines.append(
            f"  #{snap.seq:<4} {snap.label:<12} "
            f"ops={snap.operations:<8} "
            f"simulated={snap.simulated_seconds:.4f}s"
            + (f"  (x{snap.merged} merged)" if snap.merged > 1 else "")
        )
    if finger is not None:
        lines.append("fingerprint")
        for key, value in finger.to_dict().items():
            lines.append(f"  {key:<20} {value:.4f}")
    if drift:
        lines.append("drift (rolling windows)")
        for point in drift:
            lines.append(f"  up to #{point['seq']:<4} drift={point['drift']:.3f}")
    return _report(arguments, payload, "\n".join(lines))


def _advise(arguments, store, stdin) -> str:
    from repro.obs.advisor import advise

    return _report(arguments, advise(store, window=arguments.window))


def _alerts(arguments, store, stdin) -> str:
    from repro.obs.journal import as_row

    engine = store.alerts
    store.watch("cli", ["alerts"])
    active = engine.active()
    payload = {
        "active": [as_row("alert", event) for event in active],
        "log": [as_row("alert", event) for event in engine.events()],
        "rules": [rule.name for rule in engine.rules],
        "evaluations": engine.evaluations,
    }
    lines = [
        f"alerts: {len(active)} firing ({len(engine.rules)} rule(s) evaluated)"
    ]
    lines.extend(f"  {event.render()}" for event in active)
    recent = engine.events()[-5:]
    if recent:
        lines.append("recent transitions:")
        lines.extend(f"  #{event.seq} {event.render()}" for event in recent)
    worst = engine.worst_active_severity()
    firing = ", ".join(e.rule for e in active if e.severity == worst)
    return _report(
        arguments,
        payload,
        "\n".join(lines),
        {"critical": 2, "warning": 1}.get(worst, 0),
        f"{worst} alert(s) firing: {firing}",
    )


# ------------------------------------------- commands that own their lifecycle --


def _health(arguments) -> str:
    from repro.errors import ChecksumError, StoreError
    from repro.obs.health import health_report

    try:
        store = open_directory(arguments.store, config=_cli_store_config())
    except (ChecksumError, StoreError):
        # a normal open dies on the first corrupt chain block: report
        # what a repair-mode open can still see
        with _repair_mode_open(arguments.store) as store:
            report = health_report(store, store_path=arguments.store)
    else:
        try:
            report = health_report(store, store_path=arguments.store)
        finally:
            close_directory(arguments.store, store)
    failed = ", ".join(component.name for component in report.failed())
    return _report(arguments, report, why=f"store is {report.verdict}: {failed}")


def _scrub(arguments) -> str:
    from repro.storage.scrub import scrub_store

    with _repair_mode_open(arguments.store) as store:
        report = scrub_store(store, blocks_per_call=arguments.budget)
    return _report(
        arguments,
        report,
        code=0 if report.ok else 2,
        why=f"scrub found {len(report.issues)} bad block(s): {report.bad_blocks()}",
    )


def _repair(arguments) -> str:
    from repro.core.repair import repair_directory

    report = repair_directory(arguments.store, config=StoreConfig())
    if not report.integrity_ok:
        code, why = 2, "repair could not restore integrity (see report)"
    else:
        code, why = (1 if report.degraded else 0), (
            f"store repaired but degraded: {report.lost_ids} id(s) lost, "
            f"{report.records_dropped} ambiguous record(s) dropped, "
            f"{report.skipped_ops} WAL op(s) skipped"
        )
    return _report(arguments, report, code=code, why=why)


def _torture(arguments) -> str:
    from repro.storage.faults import FaultConfig
    from repro.testing.torture import TortureConfig, run_torture

    fault_classes = FaultConfig.from_classes(
        arguments.fault_classes, media_fault_rate=arguments.media_rate
    )
    config = TortureConfig(
        seed=arguments.seed,
        ops=arguments.ops,
        workload=arguments.workload,
        torn_page_writes=fault_classes.torn_page_writes,
        torn_wal_appends=fault_classes.torn_wal_appends,
        reorder_sync=fault_classes.reorder_sync,
        bitrot=fault_classes.bitrot,
        lost_writes=fault_classes.lost_writes,
        misdirected_writes=fault_classes.misdirected_writes,
        media_fault_rate=fault_classes.media_fault_rate,
        crash_points=arguments.crash_points,
    )
    report = run_torture(config)
    return _report(
        arguments,
        report,
        code=0 if report.ok else 1,
        why=(
            f"torture failed at {len(report.failures)} of "
            f"{report.tested_points} tested case(s) (seed {config.seed})"
        ),
    )


def _watch_frame(arguments, engine, tick: int) -> str:
    """One rendered frame of the live view (pure function of the files)."""
    from repro.core.filestore import DEVICE_FILE, WAL_FILE
    from repro.obs.alerts import AlertEvent, history_view
    from repro.obs.history import HistorySnapshot
    from repro.obs.journal import JOURNAL_FILE, from_row, read_journal

    rows = read_journal(os.path.join(arguments.store, JOURNAL_FILE))
    snapshots = [from_row(HistorySnapshot, row) for row in rows if row["kind"] == "history"]
    persisted = [from_row(AlertEvent, row) for row in rows if row["kind"] == "alert"]
    lines = [f"watch {arguments.store}  frame {tick}"]
    sizes = []
    for name in (DEVICE_FILE, WAL_FILE):
        file_path = os.path.join(arguments.store, name)
        if os.path.exists(file_path):
            sizes.append(f"{name} {os.path.getsize(file_path)}B")
    lines.append(
        "files: " + (" | ".join(sizes) if sizes else "no store files yet")
    )
    if not snapshots:
        lines.append("history: no snapshots yet (no history rows journaled)")
    else:
        last = snapshots[-1]
        lines.append(
            f"history: {len(snapshots)} snapshot(s), "
            f"ops={last.operations}, "
            f"simulated={last.simulated_seconds:.4f}s"
        )
        view = history_view(snapshots)
        transitions = engine.evaluate(view, f"watch-{tick}")
        del transitions  # the active set below is what the frame shows
        active = engine.active()
        if active:
            lines.append(f"alerts firing: {len(active)}")
            for event in active:
                lines.append(f"  {event.render()}")
        else:
            lines.append("alerts firing: none")
        counters = sorted(
            view.values.items(), key=lambda item: (-item[1], item[0])
        )
        lines.append("top counters (cumulative from history deltas):")
        for key, value in counters[: arguments.top]:
            lines.append(f"  {key:<56} {value:g}")
    if persisted:
        lines.append(f"alert log: {len(persisted)} transition(s)")
        for event in persisted[-5:]:
            lines.append(f"  #{event.seq} {event.render()}")
    else:
        lines.append("alert log: empty (no alert rows journaled)")
    return "\n".join(lines)


def _watch(arguments) -> str:
    from repro.obs.alerts import AlertEngine
    from repro.obs.clock import sleep
    from repro.obs.journal import warn_legacy

    warn_legacy(arguments.store)
    # in-memory engine: watch observes, it never writes the store's journal
    engine = AlertEngine()
    tick = 0
    frame = ""
    try:
        while True:
            tick += 1
            frame = _watch_frame(arguments, engine, tick)
            if (
                arguments.iterations is not None
                and tick >= arguments.iterations
            ):
                return frame
            if sys.stdout.isatty():
                # clear between frames only on a real terminal
                print("\x1b[2J\x1b[H", end="")
            print(frame)
            print(flush=True)
            sleep(arguments.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return frame


def _diagnose(arguments) -> str:
    from repro.obs.timeline import diagnose

    report = diagnose(arguments.store, incident=arguments.incident)
    incidents = len(report.incidents)
    stale = (report.replication or {}).get("stale_replicas") or []
    why = {
        "unresolved": f"{incidents} incident(s) with no clean repair after "
        "them (see the timeline)",
        "resolved": f"{incidents} incident(s) occurred; a later repair came "
        "back clean",
        "degraded": f"replication stale: {len(stale)} configured replica(s) "
        "show no recent apply progress (see the report)"
        if stale
        else "an earlier repair lost data (store.repair.json present)",
    }.get(report.verdict, "")
    return _report(arguments, report, why=why)


def _bundle(arguments) -> str:
    from repro.obs.timeline import write_support_bundle

    output = arguments.output
    if output is None:
        output = os.path.join(arguments.store, "support-bundle.tar")
    try:
        manifest = write_support_bundle(arguments.store, output)
    except OSError as error:
        raise ReproError(f"cannot write {output}: {error}") from error
    if arguments.json:
        return json.dumps(manifest, indent=2, sort_keys=True)
    return (
        f"wrote {output}: {len(manifest['members'])} artifact member(s), "
        f"verdict {manifest['verdict']}"
    )


def _serve(arguments) -> str:
    import asyncio

    from repro.server.netadapter import AsyncXMLServer
    from repro.server.sessions import XMLServer

    store = open_directory(arguments.store, config=_cli_store_config())
    try:
        server = XMLServer(store)
        adapter = AsyncXMLServer(
            server, host=arguments.host, port=arguments.port, seed=arguments.seed
        )

        async def _serve() -> None:
            await adapter.start()
            print(
                f"serving {arguments.store} on {arguments.host}:{adapter.port} "
                f"(seed {adapter.seed})",
                flush=True,
            )
            await adapter.serve_until_shutdown()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        stats = server.stats
        return (
            f"served {adapter.requests_served} request(s) in "
            f"{adapter.batches_driven} batch(es): "
            f"{stats.sessions_committed} committed, "
            f"{stats.sessions_aborted} aborted, "
            f"{stats.sessions_shed} shed; "
            f"{store.wal.group_commits} group commit(s)"
        )
    finally:
        close_directory(arguments.store, store)


def _client(arguments) -> str:
    from repro.server.netadapter import client_request

    if arguments.ping:
        payload = {"cmd": "ping"}
    elif arguments.stats:
        payload = {"cmd": "stats"}
    elif arguments.shutdown:
        payload = {"cmd": "shutdown"}
    else:
        if arguments.program is None:
            raise ReproError(
                "client needs a session program (JSON list of ops) or one "
                "of --ping/--stats/--shutdown"
            )
        try:
            ops = json.loads(arguments.program)
        except json.JSONDecodeError as exc:
            raise ReproError(f"bad session program: {exc}")
        if not isinstance(ops, list):
            raise ReproError("session program must be a JSON list of ops")
        payload = {
            "cmd": "session",
            "read_only": arguments.read_only,
            "ops": ops,
        }
    response = client_request(
        arguments.host,
        arguments.port,
        payload,
        retries=arguments.retries,
        retry_backoff=arguments.retry_backoff,
    )
    text = json.dumps(response, indent=2, sort_keys=True)
    if not response.get("ok", False):
        # session aborted/shed or server refused: exit 1
        raise ReproError(
            f"request failed "
            f"(outcome={response.get('outcome', 'unknown')}): {text}"
        )
    return text


def _primary_stream_image(primary_dir: str) -> bytes:
    """The primary's durable WAL bytes — replication's only input."""
    from repro.core.filestore import WAL_FILE

    wal_path = os.path.join(primary_dir, WAL_FILE)
    if not os.path.exists(wal_path):
        raise ReproError(f"{primary_dir}: not a store directory (no WAL)")
    with open(wal_path, "rb") as handle:
        return handle.read()


def _replicate(arguments) -> str:
    from repro.core.store import XMLStore
    from repro.replication.changestream import ChangeStream
    from repro.replication.channel import (
        ChannelFaultConfig,
        ReplicationChannel,
        RetryPolicy,
    )
    from repro.replication.replica import Replica
    from repro.replication.service import catch_up, register_replica
    from repro.storage.wal import WriteAheadLog

    primary_dir = arguments.store
    replica_dir = arguments.replica
    if os.path.abspath(primary_dir) == os.path.abspath(replica_dir):
        raise ReproError("the replica directory must differ from the primary's")
    image = _primary_stream_image(primary_dir)
    # the primary's committed state, reconstructed from its durable log
    # alone (full restore is always sound) — the primary's files are
    # never opened for writing
    primary_wal = WriteAheadLog.from_bytes(image)
    primary_state = XMLStore.recover(WriteAheadLog.from_bytes(image))
    stream = ChangeStream(primary_wal)
    faults = ChannelFaultConfig.from_classes(
        arguments.channel_faults,
        seed=arguments.seed,
        fault_rate=arguments.fault_rate,
        max_faults=arguments.max_faults,
    )
    channel = ReplicationChannel(stream, faults)
    retry = (
        RetryPolicy(max_attempts=arguments.max_attempts)
        if arguments.max_attempts is not None
        else RetryPolicy()
    )
    store = open_directory(replica_dir, config=_cli_store_config())
    replica = None
    try:
        replica = Replica(store, directory=replica_dir, name=arguments.name)
        if arguments.force_diverge:
            if replica.cursor == 0:
                raise ReproError(
                    "--force-diverge needs a replica with applied state "
                    "(run replicate once first)"
                )
            # a split-brain drill: write around the stream, directly on
            # the replica — the digest check must catch it
            store.insert_into_last(1, "<diverged>forced</diverged>")
        register_replica(
            primary_dir, arguments.name, os.path.abspath(replica_dir)
        )
        report = catch_up(
            channel,
            replica,
            primary_store=primary_state,
            batch_size=(
                arguments.batch_size
                if arguments.batch_size is not None
                else StoreConfig().replication_batch_size
            ),
            retry=retry,
            auto_resync=not arguments.no_resync,
            source=os.path.abspath(primary_dir),
        )
    finally:
        # a resync swaps the replica's store object wholesale — close
        # whichever store is live now, not the one opened above
        close_directory(
            replica_dir, replica.store if replica is not None else store
        )
    text = (
        f"replica {report.replica!r} caught up: cursor "
        f"{report.started_cursor} -> {report.final_cursor} of "
        f"{report.head} (applied {report.applied}, "
        f"{report.duplicates_skipped} duplicate(s) skipped, "
        f"{report.gaps_detected} gap(s), {report.retries} retrie(s), "
        f"{report.faults_injected} channel fault(s), "
        f"{report.resyncs} resync(s); digest "
        f"{'ok' if report.digest_match else 'MISMATCH'})"
    )
    return _report(arguments, report, text)


def _lag(arguments) -> str:
    from repro.replication.replica import read_checkpoint
    from repro.replication.service import (
        STALE_AFTER_OPS,
        list_replicas,
        stream_head_of,
    )

    replicas = list_replicas(arguments.store)
    head = stream_head_of(arguments.store)
    if head is None:
        raise ReproError(
            f"{arguments.store}: not a store directory (no WAL)"
        )
    stale_after = (
        arguments.stale_after
        if arguments.stale_after is not None
        else STALE_AFTER_OPS
    )
    rows = []
    for entry in replicas:
        checkpoint = read_checkpoint(entry.get("path", ""))
        cursor = int(checkpoint["cursor"]) if checkpoint else 0
        lag = max(0, head - cursor)
        rows.append(
            {
                "name": entry.get("name", "?"),
                "path": entry.get("path", ""),
                "cursor": cursor,
                "lag": lag,
                "stale": lag > stale_after,
                "has_checkpoint": checkpoint is not None,
            }
        )
    stale = [row["name"] for row in rows if row["stale"]]
    payload = {
        "head": head,
        "stale_after_ops": stale_after,
        "replicas": rows,
        "stale_count": len(stale),
    }
    lines = [f"stream head: {head} committed operation(s)"]
    if not rows:
        lines.append("no replicas configured")
    for row in rows:
        status = "STALE" if row["stale"] else "fresh"
        lines.append(
            f"  {row['name']:<12} cursor {row['cursor']:>6} "
            f"lag {row['lag']:>6}  [{status}]"
        )
    return _report(
        arguments,
        payload,
        "\n".join(lines),
        code=1 if stale else 0,
        why=f"{len(stale)} replica(s) stale (lag > {stale_after} ops): "
        + ", ".join(stale),
    )


def main() -> int:  # pragma: no cover - thin wrapper
    try:
        print(run())
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        # 1 = degraded-but-working, 2 = corrupt (see EXIT_CODES)
        return error.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
