"""Command-line interface: operate a directory-backed store from a shell.

Usage::

    python -m repro.cli <store-dir> <command> [args...]

Commands:

    load <file.xml | ->        bulk-insert a document (- reads stdin)
    read [node-id]             serialize the store or one subtree
    xpath <expression>         evaluate an XPath query
    insert-last <id> <xml>     insert as last child of node <id>
    insert-before <id> <xml>   insert as preceding sibling
    delete <id>                delete a node (and subtree)
    replace <id> <xml>         replace a node
    ranges                     show the Range Index snapshot (Tables 2-3)
    stats [--json|--prometheus|--top]
                               show store statistics (human summary by
                               default; machine formats for scripts)
    trace [--limit N]          dump recorded spans as JSON lines
    explain <op> [args...]     run one operation and report its access
                               path, blocks touched and tokens replayed
    profile <op> [args...]     run one operation and report where its
                               cost went (call tree, component table;
                               --format top|collapsed|speedscope|
                               components|json, --sample for the
                               wall-clock stack sampler)
    heatmap [--top N]          per-block access counts and hot ranges
    compact                    merge adjacent ranges
    verify [--json]            run every integrity check and report each
    scrub [--budget N] [--json]
                               out-of-band checksum verification of every
                               owned block against the raw device image
                               (read-only; bad blocks exit 2)
    repair [--json]            self-healing repair: full-log rebuild when
                               the WAL is usable, structural salvage
                               otherwise (degraded result exits 1)
    torture [--seed N] [--ops N] [--crash-points N] [--json]
                               crash-consistency torture: enumerate every
                               crash point of a seeded workload, crash at
                               each, recover and verify (in-memory; the
                               store directory is left untouched)
    monitor [--window N] [--json]
                               show the workload-history timeline:
                               snapshots, the current fingerprint and the
                               rolling drift series
    advise [--window N] [--json]
                               run the tuning advisor over the workload
                               history; every recommendation carries its
                               evidence and a what-if cost estimate
    alerts [--json]            evaluate the deterministic alert rules
                               and list the currently-firing alerts
                               (critical exits 2, warning exits 1)
    health [--json]            composite health verdict (integrity,
                               quarantine, checksums, repair sidecar,
                               scrub recency, WAL growth, drift, SLOs)
                               with verify's 0/1/2 exit-code scheme
    watch [--interval F] [--iterations N] [--top N]
                               live top-style view: tails the history
                               and alert files without opening the
                               store, so it can run next to a workload
    diagnose [--incident NAME] [--json]
                               post-mortem timeline + root cause from
                               persisted artifacts alone (alert log,
                               history, repair sidecar, incident
                               bundles); never opens the store
    bundle [--json] [--output FILE.tar]
                               pack every observability artifact plus a
                               fresh diagnosis into one portable,
                               deterministic support tarball
    serve [--host H] [--port N] [--seed N]
                               serve the store to concurrent clients
                               over TCP (newline-delimited JSON)
    client --port N [--retries N] [--retry-backoff F] [PROGRAM]
                               submit one session (or --ping/--stats/
                               --shutdown) to a running server, with
                               capped reconnect on dropped connections
    replicate <replica-dir> [--channel-faults CLASSES] [--seed N]
                               catch a read replica up to this store's
                               change stream: idempotent resumable
                               apply, seeded channel faults, bounded
                               retry/backoff, digest-checked with
                               auto-resync on divergence
    lag [--json]               per-replica lag from the registry and
                               checkpoints (files only; stale exits 1)

``trace``, ``explain``, ``profile``, ``heatmap``, ``verify``, ``scrub``,
``repair``, ``monitor``, ``advise``, ``alerts``, ``health``,
``diagnose``, ``replicate`` and ``lag`` accept ``--output FILE`` to
write the report to a file
instead of stdout; an unwritable path exits non-zero.  The global
``--verbose`` flag turns on the ``repro.*`` log hierarchy on stderr.

Exit codes distinguish *how bad* things are (mirroring
``tools/bench_compare.py``; the canonical table lives in README.md):
**0** clean, **1** degraded — the store works but something was lost or
needs attention (``repair`` that could not save every record,
``verify`` on a store carrying a degraded-repair sidecar, ``diagnose``
over incidents a clean repair resolved), **2** corrupt — verification
failed outright (``scrub`` finding bad blocks, ``verify`` with failing
checks, an unrepairable store, ``diagnose`` over unresolved incidents).

Every invocation opens the store, applies the command, checkpoints and
closes — so the directory is always consistent afterwards.  The CLI
opens stores with telemetry, the event log, the heatmap, workload
history, the alert engine and the flight recorder enabled, so
``stats``/``trace``/``explain``/``heatmap``/``monitor``/``advise``/
``alerts``/``health`` always have data for the work the invocation
itself performed — and, because the history and alert logs persist to
``store.history.jsonl`` and ``store.alerts.jsonl`` and incident
bundles to ``store.incidents/``, for every earlier invocation too.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from repro.errors import ReproError, StoreCorruptError, StoreDegradedError
from repro.core.config import StoreConfig
from repro.core.filestore import close_directory, open_directory
from repro.log import install_handler


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

    load = commands.add_parser("load", help="bulk-insert a document")
    load.add_argument("source", help="XML file path, or - for stdin")

    read = commands.add_parser("read", help="serialize the store or a node")
    read.add_argument("node_id", nargs="?", type=int)
    read.add_argument("--pretty", action="store_true", help="indent output")

    xpath = commands.add_parser("xpath", help="evaluate an XPath query")
    xpath.add_argument("expression")

    insert_last = commands.add_parser("insert-last", help="insert as last child")
    insert_last.add_argument("node_id", type=int)
    insert_last.add_argument("xml")

    insert_before = commands.add_parser("insert-before", help="insert before")
    insert_before.add_argument("node_id", type=int)
    insert_before.add_argument("xml")

    delete = commands.add_parser("delete", help="delete a node")
    delete.add_argument("node_id", type=int)

    replace = commands.add_parser("replace", help="replace a node")
    replace.add_argument("node_id", type=int)
    replace.add_argument("xml")

    ranges = commands.add_parser("ranges", help="show the Range Index snapshot")
    ranges.add_argument(
        "--json", action="store_true", help="snapshot as stamped JSON"
    )

    stats = commands.add_parser("stats", help="show store statistics")
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

    trace = commands.add_parser("trace", help="dump recorded spans (JSON lines)")
    trace.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        help="only the most recent N spans",
    )
    trace.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    explain = commands.add_parser(
        "explain",
        help="run one operation and report its access path",
        description=(
            "Runs <op> exactly like the plain command would, and reports "
            "which access path it took (partial-index hit, full-index "
            "probe, range scan), the blocks and tokens it touched, and a "
            "per-stage cost breakdown."
        ),
    )
    explain.add_argument(
        "op", help="operation to explain: read, xpath, insert-last, ..."
    )
    explain.add_argument(
        "op_args", nargs="*", help="the operation's own arguments"
    )
    explain.add_argument(
        "--json", action="store_true", help="full report as JSON"
    )
    explain.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    profile = commands.add_parser(
        "profile",
        help="run one operation and report where its cost went",
        description=(
            "Runs <op> exactly like the plain command would, and reports "
            "a deterministic cost profile: the span call tree and a per-"
            "component table on both the simulated and the wall axis.  "
            "--sample switches to the statistical wall-clock stack "
            "sampler (collapsed/speedscope formats only)."
        ),
    )
    profile.add_argument(
        "op", help="operation to profile: read, xpath, insert-last, ..."
    )
    profile.add_argument(
        "op_args", nargs="*", help="the operation's own arguments"
    )
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
    profile.add_argument(
        "--sample",
        action="store_true",
        help="use the wall-clock stack sampler instead of span folding",
    )
    profile.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    heatmap = commands.add_parser(
        "heatmap", help="per-block access counts and hot ranges"
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
    heatmap.add_argument(
        "--json", action="store_true", help="report as JSON"
    )
    heatmap.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    commands.add_parser("compact", help="merge adjacent ranges")

    verify = commands.add_parser(
        "verify",
        help="run every integrity check and report each",
        description=(
            "Runs every store invariant check (layout, range-index, "
            "id-density, partial-memo, block-checksum, quarantine) and "
            "reports each individually."
        ),
        epilog=(
            "exit codes: 0 = every check passed and no degraded-repair "
            "sidecar; 1 = checks pass but the store carries a "
            "store.repair.json sidecar (an earlier repair lost data); "
            "2 = one or more checks failed (corrupt).  See the canonical "
            "exit-code table in README.md."
        ),
    )
    verify.add_argument(
        "--json", action="store_true", help="per-check report as JSON"
    )
    verify.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    scrub = commands.add_parser(
        "scrub",
        help="verify every owned block's checksum against the raw device",
        description=(
            "Walks every block the store owns (data chain + index trees) "
            "and verifies each raw device image's checksum frame out-of-"
            "band, bypassing the buffer pool cache.  Read-only: nothing "
            "is modified (bad blocks are reported, and would be "
            "quarantined by a running store).  Vacuous on legacy "
            "no-checksum stores."
        ),
        epilog=(
            "exit codes: 0 = all blocks verify; 2 = bad block(s) found.  "
            "See the canonical exit-code table in README.md."
        ),
    )
    scrub.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        metavar="N",
        help="verify in incremental steps of N blocks (default: one pass)",
    )
    scrub.add_argument(
        "--json", action="store_true", help="report as JSON"
    )
    scrub.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    repair = commands.add_parser(
        "repair",
        help="self-heal the store around checksum-dead blocks",
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
        epilog=(
            "exit codes: 0 = fully recovered; 1 = repaired but degraded "
            "(data provably lost); 2 = repair could not restore "
            "integrity.  See the canonical exit-code table in README.md."
        ),
    )
    repair.add_argument(
        "--json", action="store_true", help="report as JSON"
    )
    repair.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    torture = commands.add_parser(
        "torture",
        help="crash-consistency torture: crash at every I/O point, verify recovery",
        description=(
            "Generates a seeded workload, enumerates every crash point it "
            "exposes (block writes, per-block fsync flushes, WAL frame "
            "appends), replays the workload once per point with a "
            "simulated crash there, recovers, and verifies the result "
            "against an oracle run plus every integrity invariant.  Runs "
            "entirely on in-memory stores; the store directory is left "
            "untouched.  Exits non-zero if any crash point fails."
        ),
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
    torture.add_argument(
        "--json", action="store_true", help="report as JSON"
    )
    torture.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    monitor = commands.add_parser(
        "monitor",
        help="show the workload-history timeline and drift",
        description=(
            "Reads the store's workload history (periodic counter-delta "
            "snapshots persisted in store.history.jsonl) and shows the "
            "timeline, the current workload fingerprint and the rolling "
            "drift series (0 = steady workload, 1 = completely changed)."
        ),
    )
    monitor.add_argument(
        "--window",
        type=_positive_int,
        default=4,
        help="snapshots per drift window (default 4)",
    )
    monitor.add_argument(
        "--json", action="store_true", help="report as JSON"
    )
    monitor.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    advise = commands.add_parser(
        "advise",
        help="run the tuning advisor over the workload history",
        description=(
            "Runs the rule-based tuning advisor: recommendations to "
            "split/merge range granularity, resize the partial index, "
            "grow the buffer pool or compact, each backed by the history "
            "counters that triggered it and a what-if simulated-cost "
            "estimate from the store's own cost model.  Vacuous (zero "
            "recommendations, reason stated) without enough evidence."
        ),
    )
    advise.add_argument(
        "--window",
        type=_positive_int,
        default=4,
        help="snapshots per drift window (default 4)",
    )
    advise.add_argument(
        "--json", action="store_true", help="report as JSON"
    )
    advise.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    alerts = commands.add_parser(
        "alerts",
        help="evaluate the alert rules and list firing alerts",
        description=(
            "Evaluates the deterministic alert rule set (threshold / "
            "ratio / delta-over-window / absence rules over the metric "
            "registry, history snapshots and SLO budgets) and lists the "
            "currently-firing alerts plus the persisted transition log "
            "(store.alerts.jsonl)."
        ),
        epilog=(
            "exit codes: 0 = nothing firing above info; 1 = warning "
            "alert(s) firing; 2 = critical alert(s) firing.  See the "
            "canonical exit-code table in README.md."
        ),
    )
    alerts.add_argument(
        "--json", action="store_true", help="report as JSON"
    )
    alerts.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    health = commands.add_parser(
        "health",
        help="composite health verdict with verify's exit codes",
        description=(
            "Folds every liveness signal — integrity checks, block "
            "quarantine, checksum errors, the degraded-repair sidecar, "
            "scrub recency, WAL growth, workload drift and the "
            "simulated-axis SLO statuses — into one healthy / degraded "
            "/ unhealthy verdict a supervisor can poll."
        ),
        epilog=(
            "exit codes: 0 = healthy; 1 = degraded; 2 = unhealthy.  See "
            "the canonical exit-code table in README.md."
        ),
    )
    health.add_argument(
        "--json", action="store_true", help="report as JSON"
    )
    health.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    watch = commands.add_parser(
        "watch",
        help="live top-style view over the history and alert files",
        description=(
            "Tails store.history.jsonl and store.alerts.jsonl (plus the "
            "store file sizes) and renders a refreshing top-style frame "
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

    diagnose = commands.add_parser(
        "diagnose",
        help="post-mortem timeline + root cause from persisted artifacts",
        description=(
            "Merges every persisted observability artifact — the alert "
            "log, workload-history snapshots, the degraded-repair "
            "sidecar and incident bundles (store.incidents/, including "
            "their flight-recorder dumps) — into one causally-ordered "
            "post-mortem timeline with a root-cause summary.  Purely "
            "file-based: the store is never opened, so it works on a "
            "store too corrupt to open and beside a live workload."
        ),
        epilog=(
            "exit codes: 0 = clean (no incidents); 1 = incidents "
            "resolved by a clean repair; 2 = unresolved incident(s).  "
            "See the canonical exit-code table in README.md."
        ),
    )
    diagnose.add_argument(
        "--incident",
        default=None,
        metavar="NAME",
        help="focus the timeline on one bundle (e.g. incident-0)",
    )
    diagnose.add_argument(
        "--json", action="store_true", help="report as JSON"
    )
    diagnose.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    bundle = commands.add_parser(
        "bundle",
        help="pack observability artifacts into a support tarball",
        description=(
            "Packs every observability artifact the store directory "
            "carries (alert log, history, repair sidecar, incident "
            "bundles) plus a fresh diagnosis into one portable tarball "
            "for hand-off.  The tar is deterministic (uncompressed, "
            "zeroed member metadata): identical seeded runs produce "
            "byte-identical bundles.  Read-only: the store is never "
            "opened."
        ),
        epilog=(
            "exit codes: 0 = bundle written; 1 = cannot write.  See the "
            "canonical exit-code table in README.md."
        ),
    )
    bundle.add_argument(
        "--output",
        default=None,
        metavar="FILE.tar",
        help="tarball path (default: <store>/support-bundle.tar)",
    )
    bundle.add_argument(
        "--json", action="store_true", help="print the manifest as JSON"
    )

    serve = commands.add_parser(
        "serve",
        help="serve the store to concurrent clients over a TCP socket",
        description=(
            "Opens the store and serves newline-delimited JSON sessions "
            "over TCP.  Requests arriving together are multiplexed "
            "through one deterministic scheduler run, so concurrent "
            "writers share group-commit sync barriers and read-only "
            "sessions are served from lock-free snapshots.  Runs until "
            "a client sends {\"cmd\": \"shutdown\"}."
        ),
        epilog=(
            "exit codes: 0 = served and shut down cleanly; 1 = failed to "
            "bind or serve.  See the canonical exit-code table in "
            "README.md."
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

    client = commands.add_parser(
        "client",
        help="send one session (or control request) to a running server",
        description=(
            "Connects to a `repro serve` instance and submits one "
            "session program: a JSON list of ops such as "
            "'[{\"op\": \"read\", \"node_id\": 1}]'.  Control requests "
            "(--ping, --stats, --shutdown) skip the session machinery."
        ),
        epilog=(
            "exit codes: 0 = session committed (or control request ok); "
            "1 = session aborted, shed, or the server refused.  See the "
            "canonical exit-code table in README.md."
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

    replicate = commands.add_parser(
        "replicate",
        help="catch a read replica up to this store's change stream",
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
        epilog=(
            "exit codes: 0 = replica converged (digest verified); 1 = "
            "the retry budget ran out (checkpoint committed — rerun to "
            "resume); 2 = the replica diverges and resync is disabled or "
            "failed.  See the canonical exit-code table in README.md."
        ),
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
        help="fetch attempts per batch before giving up (default from config)",
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
    replicate.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    replicate.add_argument("--output", default=None, help="write the report to a file")

    lag = commands.add_parser(
        "lag",
        help="show replica lag against this store's change stream",
        description=(
            "Reads the primary's WAL, the replica registry "
            "(store.replicas.json) and each replica's persisted "
            "replication checkpoint — files only, the store is never "
            "opened — and reports per-replica lag in committed "
            "operations."
        ),
        epilog=(
            "exit codes: 0 = every replica is fresh (or none configured); "
            "1 = a replica's checkpoint is stale (no recent apply "
            "progress).  See the canonical exit-code table in README.md."
        ),
    )
    lag.add_argument(
        "--stale-after",
        type=_positive_int,
        default=None,
        help="staleness bound in operations (default from config)",
    )
    lag.add_argument("--json", action="store_true", help="machine-readable report")
    lag.add_argument("--output", default=None, help="write the report to a file")
    return parser


def run(argv: Optional[List[str]] = None, stdin=None) -> str:
    """Execute one CLI invocation; returns the text that was printed."""
    arguments = build_parser().parse_args(argv)
    if arguments.verbose:
        install_handler(logging.DEBUG)
    stdin = stdin if stdin is not None else sys.stdin
    if arguments.command == "torture":
        # torture runs on throwaway in-memory stores: never open (or
        # mutate) the user's store directory
        return _run_torture(arguments)
    if arguments.command == "scrub":
        # scrub is read-only and must see the *device* images, not a
        # replayed store: never go through open/close (which replays the
        # WAL and checkpoints on close)
        return _run_scrub(arguments)
    if arguments.command == "repair":
        # repair manages the directory's files itself (and must open in
        # repair mode: a normal open would choke on the corruption)
        return _run_repair(arguments)
    if arguments.command == "watch":
        # watch only tails the JSONL files and file sizes: never open
        # the store, so it can run beside a live workload
        return _run_watch(arguments)
    if arguments.command == "diagnose":
        # diagnose reads persisted artifacts only: it must work on a
        # store too corrupt to open (that is its whole point)
        return _run_diagnose(arguments)
    if arguments.command == "bundle":
        # same stance: the support bundle is built from files alone
        return _run_bundle(arguments)
    if arguments.command == "serve":
        # serve owns the open/close lifecycle (long-running loop)
        return _run_serve(arguments)
    if arguments.command == "client":
        # client talks to a running server: never touches the store files
        return _run_client(arguments)
    if arguments.command == "replicate":
        # replicate reads the primary's WAL bytes and owns the replica
        # directory's lifecycle; the primary's files are never written
        return _run_replicate(arguments)
    if arguments.command == "lag":
        # lag reads the registry, checkpoints and WAL bytes only: it can
        # run beside a live primary without opening the store
        return _run_lag(arguments)
    if arguments.command == "health":
        # health must not crash on the stores it exists to diagnose: a
        # normal open walks every chain block and dies on the first
        # corrupt one, so fall back to a repair-mode open and report
        return _run_health(arguments, stdin)
    store = open_directory(arguments.store, config=_cli_store_config())
    try:
        output = _dispatch(store, arguments, stdin)
    finally:
        close_directory(arguments.store, store)
    return output


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


def _run_serve(arguments) -> str:
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


def _run_client(arguments) -> str:
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
        # session aborted/shed or server refused: print the response and
        # exit degraded (code 1), mirroring the canonical table
        error = ReproError(
            f"request failed "
            f"(outcome={response.get('outcome', 'unknown')}): {text}"
        )
        error.exit_code = 1
        raise error
    return text


def _primary_stream_image(primary_dir: str) -> bytes:
    """The primary's durable WAL bytes — replication's only input."""
    import os

    from repro.core.filestore import WAL_FILE

    wal_path = os.path.join(primary_dir, WAL_FILE)
    if not os.path.exists(wal_path):
        raise ReproError(f"{primary_dir}: not a store directory (no WAL)")
    with open(wal_path, "rb") as handle:
        return handle.read()


def _run_replicate(arguments) -> str:
    import os

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
    config = StoreConfig()
    faults = ChannelFaultConfig.from_classes(
        arguments.channel_faults,
        seed=arguments.seed,
        fault_rate=arguments.fault_rate,
        max_faults=arguments.max_faults,
    )
    channel = ReplicationChannel(stream, faults)
    retry = RetryPolicy(
        max_attempts=(
            arguments.max_attempts
            if arguments.max_attempts is not None
            else config.replication_max_attempts
        ),
        base_delay=config.replication_backoff_base,
        max_delay=config.replication_backoff_max,
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
                else config.replication_batch_size
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
    if arguments.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
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
    return _deliver(text, arguments.output)


def _run_lag(arguments) -> str:
    from repro.obs.schema import stamp
    from repro.replication.replica import read_checkpoint
    from repro.replication.service import list_replicas, stream_head_of

    replicas = list_replicas(arguments.store)
    head = stream_head_of(arguments.store)
    if head is None:
        raise ReproError(
            f"{arguments.store}: not a store directory (no WAL)"
        )
    stale_after = (
        arguments.stale_after
        if arguments.stale_after is not None
        else StoreConfig().replication_stale_after_ops
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
    stale = [row for row in rows if row["stale"]]
    if arguments.json:
        text = json.dumps(
            stamp(
                {
                    "head": head,
                    "stale_after_ops": stale_after,
                    "replicas": rows,
                    "stale_count": len(stale),
                }
            ),
            indent=2,
            sort_keys=True,
        )
    else:
        lines = [f"stream head: {head} committed operation(s)"]
        if not rows:
            lines.append("no replicas configured")
        for row in rows:
            status = "STALE" if row["stale"] else "fresh"
            lines.append(
                f"  {row['name']:<12} cursor {row['cursor']:>6} "
                f"lag {row['lag']:>6}  [{status}]"
            )
        text = "\n".join(lines)
    delivered = _deliver(text, arguments.output)
    if stale:
        raise StoreDegradedError(
            f"{len(stale)} replica(s) stale (lag > {stale_after} ops): "
            + ", ".join(row["name"] for row in stale)
        )
    return delivered


def _run_health(arguments, stdin) -> str:
    import os

    from repro.core.filestore import CATALOG_FILE, DEVICE_FILE
    from repro.core.store import XMLStore
    from repro.errors import ChecksumError, StoreError
    from repro.obs.health import health_report
    from repro.storage.disk import FileBlockDevice, InstrumentedDevice

    try:
        store = open_directory(arguments.store, config=_cli_store_config())
    except (ChecksumError, StoreError):
        pass
    else:
        try:
            return _dispatch(store, arguments, stdin)
        finally:
            close_directory(arguments.store, store)
    # the normal open choked on corruption: diagnose what can still be
    # seen through a read-only repair-mode open (no WAL replay, no
    # residency walk — the same stance scrub takes); recorder +
    # incidents stay on so quarantines found here dump bundles too
    from repro.obs.incident import INCIDENTS_DIR

    config = StoreConfig(
        events_enabled=True,
        recorder_enabled=True,
        recorder_incidents_dir=os.path.join(arguments.store, INCIDENTS_DIR),
    )
    catalog_path = os.path.join(arguments.store, CATALOG_FILE)
    device_path = os.path.join(arguments.store, DEVICE_FILE)
    if not (os.path.exists(catalog_path) and os.path.exists(device_path)):
        raise ReproError(
            f"{arguments.store}: not a store directory (no catalog/device)"
        )
    with open(catalog_path, "rb") as handle:
        catalog = handle.read()
    device = InstrumentedDevice(
        FileBlockDevice(device_path, block_size=config.page_size),
        cost_model=config.cost_model,
    )
    try:
        store = XMLStore.from_catalog(device, catalog, config=config)
        report = health_report(store, store_path=arguments.store)
    finally:
        device.close()
    return _deliver_health(report, arguments)


def _deliver(text: str, output_path: Optional[str]) -> str:
    """Print-or-write plumbing shared by trace/explain/heatmap."""
    if output_path is None:
        return text
    try:
        with open(output_path, "w") as handle:
            handle.write(text + "\n")
    except OSError as error:
        raise ReproError(f"cannot write {output_path}: {error}") from error
    return f"wrote {output_path}"


def _run_torture(arguments) -> str:
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
    if arguments.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.render()
    delivered = _deliver(text, arguments.output)
    if not report.ok:
        # the report was delivered (file written) before failing
        raise ReproError(
            f"torture failed at {len(report.failures)} of "
            f"{report.tested_points} tested case(s) (seed {config.seed})"
        )
    return delivered


def _run_scrub(arguments) -> str:
    import os

    from repro.core.filestore import CATALOG_FILE, DEVICE_FILE
    from repro.core.store import XMLStore
    from repro.obs.incident import INCIDENTS_DIR
    from repro.storage.disk import FileBlockDevice, InstrumentedDevice
    from repro.storage.scrub import scrub_store

    # recorder + incidents on: a scrub that quarantines a block should
    # leave an incident bundle behind, exactly like a running store
    config = StoreConfig(
        events_enabled=True,
        recorder_enabled=True,
        recorder_incidents_dir=os.path.join(arguments.store, INCIDENTS_DIR),
    )
    catalog_path = os.path.join(arguments.store, CATALOG_FILE)
    device_path = os.path.join(arguments.store, DEVICE_FILE)
    if not (os.path.exists(catalog_path) and os.path.exists(device_path)):
        raise ReproError(
            f"{arguments.store}: not a store directory (no catalog/device)"
        )
    with open(catalog_path, "rb") as handle:
        catalog = handle.read()
    device = InstrumentedDevice(
        FileBlockDevice(device_path, block_size=config.page_size),
        cost_model=config.cost_model,
    )
    try:
        store = XMLStore.from_catalog(device, catalog, config=config)
        report = scrub_store(store, blocks_per_call=arguments.budget)
    finally:
        device.close()
    if arguments.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.render()
    delivered = _deliver(text, arguments.output)
    if not report.ok:
        # the report was delivered (file written) before failing
        raise StoreCorruptError(
            f"scrub found {len(report.issues)} bad block(s): "
            f"{report.bad_blocks()}"
        )
    return delivered


def _run_repair(arguments) -> str:
    from repro.core.repair import repair_directory

    report = repair_directory(arguments.store, config=StoreConfig())
    if arguments.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.render()
    delivered = _deliver(text, arguments.output)
    if not report.integrity_ok:
        raise StoreCorruptError(
            "repair could not restore integrity (see report)"
        )
    if report.degraded:
        raise StoreDegradedError(
            f"store repaired but degraded: {report.lost_ids} id(s) lost, "
            f"{report.records_dropped} ambiguous record(s) dropped, "
            f"{report.skipped_ops} WAL op(s) skipped"
        )
    return delivered


def _watch_frame(arguments, engine, tick: int) -> str:
    """One rendered frame of the live view (pure function of the files)."""
    import os

    from repro.core.filestore import (
        ALERTS_FILE,
        DEVICE_FILE,
        HISTORY_FILE,
        WAL_FILE,
    )
    from repro.obs.alerts import history_view, load_events
    from repro.obs.history import load_snapshots

    history_path = os.path.join(arguments.store, HISTORY_FILE)
    alerts_path = os.path.join(arguments.store, ALERTS_FILE)
    snapshots = (
        load_snapshots(history_path) if os.path.exists(history_path) else []
    )
    persisted = (
        load_events(alerts_path) if os.path.exists(alerts_path) else []
    )
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
        lines.append("history: no snapshots yet (store.history.jsonl absent)")
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
        lines.append("alert log: empty (store.alerts.jsonl absent)")
    return "\n".join(lines)


def _run_watch(arguments) -> str:
    from repro.obs.alerts import AlertEngine
    from repro.obs.clock import sleep

    # in-memory engine: watch observes, it never writes the store's log
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


def _run_diagnose(arguments) -> str:
    from repro.obs.timeline import diagnose

    report = diagnose(arguments.store, incident=arguments.incident)
    if arguments.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.render().rstrip("\n")
    delivered = _deliver(text, arguments.output)
    if report.verdict == "unresolved":
        # the report was delivered (file written) before failing
        raise StoreCorruptError(
            f"{len(report.incidents)} incident(s) with no clean repair "
            "after them (see the timeline)"
        )
    if report.verdict == "resolved":
        raise StoreDegradedError(
            f"{len(report.incidents)} incident(s) occurred; a later "
            "repair came back clean"
        )
    if report.verdict == "degraded":
        stale = (report.replication or {}).get("stale_replicas") or []
        raise StoreDegradedError(
            f"replication stale: {len(stale)} configured replica(s) "
            "show no recent apply progress (see the report)"
        )
    return delivered


def _run_bundle(arguments) -> str:
    import os

    from repro.obs.timeline import write_support_bundle

    output = arguments.output
    if output is None:
        output = os.path.join(arguments.store, "support-bundle.tar")
    manifest = write_support_bundle(arguments.store, output)
    if arguments.json:
        return json.dumps(manifest, indent=2, sort_keys=True)
    return (
        f"wrote {output}: {len(manifest['members'])} artifact member(s), "
        f"verdict {manifest['verdict']}"
    )


def _dispatch(store, arguments, stdin) -> str:
    command = arguments.command
    if command == "load":
        if arguments.source == "-":
            text = stdin.read()
        else:
            with open(arguments.source) as handle:
                text = handle.read()
        first_id = store.load_document(text)
        return f"loaded; first node id = {first_id}"
    if command == "read":
        from repro.xmltoken.parser import tokenize_fragment
        from repro.xmltoken.serializer import serialize

        text = store.read(arguments.node_id)
        if arguments.pretty and text:
            text = serialize(tokenize_fragment(text), indent="  ")
        return text
    if command == "xpath":
        results = store.xpath(arguments.expression)
        lines = [f"{len(results)} match(es)"]
        lines.extend(f"#{node.node_id}\t{node.xml()}" for node in results)
        return "\n".join(lines)
    if command == "insert-last":
        first_id = store.insert_into_last(arguments.node_id, arguments.xml)
        return f"inserted; first node id = {first_id}"
    if command == "insert-before":
        first_id = store.insert_before(arguments.node_id, arguments.xml)
        return f"inserted; first node id = {first_id}"
    if command == "delete":
        store.delete_node(arguments.node_id)
        return f"deleted node {arguments.node_id}"
    if command == "replace":
        first_id = store.replace_node(arguments.node_id, arguments.xml)
        return f"replaced; new node id = {first_id}"
    if command == "ranges":
        if arguments.json:
            from repro.obs.schema import stamp

            payload = stamp(
                {
                    "ranges": [
                        {
                            "range_id": range_id,
                            "block_id": block_id,
                            "start_id": start_id,
                            "end_id": end_id,
                        }
                        for range_id, block_id, start_id, end_id
                        in store.range_snapshot()
                    ]
                }
            )
            return json.dumps(payload, indent=2, sort_keys=True)
        lines = ["RangeId  BlockId  StartId  EndId"]
        for range_id, block_id, start_id, end_id in store.range_snapshot():
            lines.append(
                f"{range_id:>7}  {block_id:>7}  {str(start_id):>7}  {str(end_id):>5}"
            )
        return "\n".join(lines)
    if command == "stats":
        from repro.obs.bridge import metrics_snapshot, store_families
        from repro.obs.exporters import prometheus_text, render_top
        from repro.obs.schema import stamp

        if arguments.json:
            return json.dumps(
                stamp(metrics_snapshot(store).values), indent=2, sort_keys=True
            )
        if arguments.prometheus:
            families = store_families(store)
            if store.slo.enabled:
                # SLO budgets ride along in the exposition (both axes:
                # the scrape is already wall-clock territory)
                families = families + store.slo.families(
                    store, axes=("simulated", "wall")
                )
            return prometheus_text(families).rstrip("\n")
        if arguments.top:
            return render_top(store_families(store)).rstrip("\n")
        return store.stats.summary()
    if command == "trace":
        from repro.obs.exporters import events_jsonl

        events = store.telemetry.events()
        if arguments.limit is not None:
            events = events[-arguments.limit :]
        return _deliver(events_jsonl(events).rstrip("\n"), arguments.output)
    if command == "explain":
        from repro.obs.explain import explain_operation

        report = explain_operation(store, arguments.op, arguments.op_args)
        if arguments.json:
            text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        else:
            text = report.render()
        return _deliver(text, arguments.output)
    if command == "profile":
        from repro.obs.explain import run_operation
        from repro.obs.profile_export import (
            collapsed_stacks,
            render_profile_top,
            speedscope_json,
        )
        from repro.obs.profiler import profile_operation

        if arguments.sample:
            from repro.obs.sampler import StackSampler

            if arguments.format not in ("collapsed", "speedscope"):
                raise ReproError(
                    "--sample emits raw stacks; use --format collapsed "
                    "or speedscope"
                )
            with StackSampler(store.config.sampler_interval) as sampler:
                run_operation(store, arguments.op, arguments.op_args)
            if arguments.format == "collapsed":
                text = sampler.collapsed().rstrip("\n")
            else:
                text = sampler.speedscope_json(
                    name=f"{arguments.op} (sampled)"
                )
            return _deliver(text, arguments.output)
        profile = profile_operation(store, arguments.op, arguments.op_args)
        if arguments.format == "collapsed":
            text = collapsed_stacks(profile, axis=arguments.axis).rstrip("\n")
        elif arguments.format == "components":
            text = collapsed_stacks(
                profile, axis=arguments.axis, by="component"
            ).rstrip("\n")
        elif arguments.format == "speedscope":
            text = speedscope_json(
                profile, name=arguments.op, axis=arguments.axis
            )
        elif arguments.format == "json":
            text = json.dumps(profile.to_dict(), indent=2, sort_keys=True)
        else:
            text = render_profile_top(profile)
        return _deliver(text, arguments.output)
    if command == "heatmap":
        from repro.obs.heatmap import heatmap_json, render_heatmap

        if arguments.xpath is not None:
            for node in store.xpath(arguments.xpath):
                node.xml()  # serialize so per-node locates hit the heatmap
        if arguments.json:
            text = heatmap_json(store, top=arguments.top)
        else:
            text = render_heatmap(store, top=arguments.top).rstrip("\n")
        return _deliver(text, arguments.output)
    if command == "compact":
        report = store.compact()
        return (
            f"compacted: {report.ranges_before} -> {report.ranges_after} "
            f"ranges ({report.merges} merges)"
        )
    if command == "verify":
        from repro.core.integrity import integrity_report
        from repro.core.repair import read_sidecar

        report = integrity_report(store)
        sidecar = read_sidecar(arguments.store)
        if arguments.json:
            payload = report.to_dict()
            if sidecar is not None:
                payload["degraded_repair"] = sidecar
            text = json.dumps(payload, indent=2, sort_keys=True)
        else:
            text = report.render()
            if sidecar is not None:
                text += (
                    "\nDEGRADED: an earlier repair lost data "
                    f"(lost_ids={sidecar.get('lost_ids', '?')}); "
                    "see store.repair.json"
                )
        delivered = _deliver(text, arguments.output)
        if not report.ok:
            # the report was delivered (file written) before failing
            names = ", ".join(check.name for check in report.failed())
            raise StoreCorruptError(f"integrity check(s) failed: {names}")
        if sidecar is not None:
            raise StoreDegradedError(
                "store verifies but an earlier repair lost data "
                "(store.repair.json present)"
            )
        return delivered
    if command == "monitor":
        from repro.obs.fingerprint import drift_series, fingerprint_window
        from repro.obs.schema import stamp

        snapshots = store.history.snapshots()
        finger = fingerprint_window(snapshots)
        drift = drift_series(snapshots, window=arguments.window)
        if arguments.json:
            payload = stamp(
                {
                    "snapshots": [snap.to_dict() for snap in snapshots],
                    "fingerprint": finger.to_dict() if finger else None,
                    "drift": drift,
                }
            )
            text = json.dumps(payload, indent=2, sort_keys=True)
        else:
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
                    lines.append(
                        f"  up to #{point['seq']:<4} drift={point['drift']:.3f}"
                    )
            text = "\n".join(lines)
        return _deliver(text, arguments.output)
    if command == "advise":
        from repro.obs.advisor import advise as run_advisor

        report = run_advisor(store, window=arguments.window)
        if arguments.json:
            text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        else:
            text = report.render()
        return _deliver(text, arguments.output)
    if command == "alerts":
        from repro.obs.schema import stamp

        engine = store.alerts
        if engine.enabled:
            engine.evaluate_store(store, "cli")
        active = engine.active()
        if arguments.json:
            payload = stamp(
                {
                    "active": [event.to_dict() for event in active],
                    "log": [event.to_dict() for event in engine.events()],
                    "rules": [rule.name for rule in engine.rules],
                    "evaluations": engine.evaluations,
                }
            )
            text = json.dumps(payload, indent=2, sort_keys=True)
        else:
            lines = [
                f"alerts: {len(active)} firing "
                f"({len(engine.rules)} rule(s) evaluated)"
            ]
            for event in active:
                lines.append(f"  {event.render()}")
            recent = engine.events()[-5:]
            if recent:
                lines.append("recent transitions:")
                for event in recent:
                    lines.append(f"  #{event.seq} {event.render()}")
            text = "\n".join(lines)
        delivered = _deliver(text, arguments.output)
        worst = engine.worst_active_severity()
        if worst == "critical":
            # the report was delivered (file written) before failing
            raise StoreCorruptError(
                "critical alert(s) firing: "
                + ", ".join(e.rule for e in active if e.severity == "critical")
            )
        if worst == "warning":
            raise StoreDegradedError(
                "warning alert(s) firing: "
                + ", ".join(e.rule for e in active if e.severity == "warning")
            )
        return delivered
    if command == "health":
        from repro.obs.health import health_report

        report = health_report(store, store_path=arguments.store)
        return _deliver_health(report, arguments)
    raise AssertionError(f"unhandled command {command}")  # pragma: no cover


def _deliver_health(report, arguments) -> str:
    if arguments.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.render().rstrip("\n")
    delivered = _deliver(text, arguments.output)
    if report.verdict == "unhealthy":
        # the report was delivered (file written) before failing
        raise StoreCorruptError(
            "store is unhealthy: "
            + ", ".join(c.name for c in report.failed())
        )
    if report.verdict == "degraded":
        raise StoreDegradedError(
            "store is degraded: "
            + ", ".join(c.name for c in report.failed())
        )
    return delivered


def main() -> int:  # pragma: no cover - thin wrapper
    try:
        print(run())
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        # 1 = degraded-but-working, 2 = corrupt (ChecksumError,
        # StoreCorruptError); see the module docstring
        return getattr(error, "exit_code", 1)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
