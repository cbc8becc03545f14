"""Inputs, stores and the timed windows of one trial.

Everything the program sees is generated here from ``--seed``: the
document, the id populations, the op stream.  A trial is *set-up →
warm-up scan → mix window → scan window*, and the work of each window is
fixed by the arguments, so every trial of a run is a replica of the others:
the same ops on the same store, to the same simulated second.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import random
import shutil
import socket
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.filestore import close_directory, open_directory
from repro.core.store import XMLStore
from repro.errors import ReproError
from repro.server.netadapter import AsyncXMLServer
from repro.server.sessions import XMLServer
from repro.workloads import purchase_orders_document, words

from perfbench.catalog import Workload
from perfbench.tracer import Tracer

ITEMS_XPATH = "/purchase-orders/purchase-order/item"
ORDERS_XPATH = "/purchase-orders/purchase-order"

READ, WRITE = "read", "write"


@dataclass(frozen=True)
class Scale:
    """Document size; ``tiny`` exists for the self-test."""

    orders: int
    items_per_order: int
    #: how long each micro-loop of the traced run repeats
    micro_s: float


SCALES: Dict[str, Scale] = {
    "full": Scale(orders=300, items_per_order=5, micro_s=0.25),
    "tiny": Scale(orders=24, items_per_order=3, micro_s=0.01),
}

#: Replica trials per untraced run.
TRIALS = 3


@dataclass(frozen=True)
class Plan:
    """How ``--seconds`` is spent.  The work is fixed by the arguments, not
    by the clock: ``mix_ops`` ops then ``scan_passes`` whole-document reads
    per trial, sized so that this commit spends about ``--seconds`` in the
    timed windows of a run's ``TRIALS`` trials on a quiet host."""

    mix_ops: int
    scan_passes: int

    @classmethod
    def make(cls, spec: Workload, seconds: float) -> "Plan":
        return cls(
            mix_ops=max(40, int(spec.mix_ops_per_s * seconds)),
            scan_passes=max(2, int(spec.scan_passes_per_s * seconds)),
        )


def store_config(spec: Workload, obs: Optional[bool] = None) -> StoreConfig:
    """The store under test.  A ``served`` spec carries the defaults, so this
    is exactly the config ``repro serve`` opens its directory with (every
    telemetry facility on; the self-test compares the two); the embedded
    workloads keep checksums on and every obs facility off.  ``obs``
    overrides the flags alone (the traced run's obs on/off ratio)."""
    obs = spec.served if obs is None else obs
    return StoreConfig(
        policy=IndexingPolicy[spec.policy],
        buffer_pool_capacity=spec.pool_frames,
        max_range_tokens=spec.max_range_tokens,
        telemetry_enabled=obs,
        events_enabled=obs,
        heatmap_enabled=obs,
        profiling_enabled=obs,
        history_enabled=obs,
        alerts_enabled=obs,
        recorder_enabled=obs,
    )


# ---------------------------------------------------------------------------
# The seeded op stream
# ---------------------------------------------------------------------------

Op = Tuple[str, int, str]  # (READ | WRITE, target node id, xml payload)


def marker(index: int) -> str:
    """The attribute that identifies op ``index``'s inserted item in a
    serialised document (how a lost acknowledged write is found)."""
    return f'sku="pb-{index}"'


def spread(population: List[int], count: int) -> List[int]:
    """``count`` members evenly spaced through ``population`` in document
    order: the midpoints of that many equal strata (members repeat when
    ``count`` exceeds the population)."""
    size = len(population)
    return [population[(2 * i + 1) * size // (2 * count)] for i in range(count)]


def scattered(members: List[int]) -> List[int]:
    """``members`` in bit-reversal (van der Corput) order: every prefix of
    the result covers the original sequence evenly."""
    width = max(1, (len(members) - 1).bit_length())
    order = sorted(range(len(members)), key=lambda i: int(f"{i:0{width}b}"[::-1], 2))
    return [members[i] for i in order]


def evenly(count: int, share: float) -> List[bool]:
    """``count`` flags, ``round(count * share)`` of them set, spaced as evenly
    as whole numbers allow."""
    wanted = round(count * share)
    return [(i + 1) * wanted // count > i * wanted // count for i in range(count)]


def hot_members(population: List[int], hot_fraction: float) -> List[int]:
    """The hot set: ``hot_fraction`` of the population, evenly spaced."""
    return spread(population, max(1, int(len(population) * hot_fraction)))


def target_sequence(population: List[int], count: int, hot_fraction: float,
                    hot_probability: float, rng: random.Random) -> List[int]:
    """``count`` targets of one op kind.  A share ``hot_probability`` of the
    slots, evenly spaced, go to the hot set, which is visited in cycles, each
    cycle in a seeded order; the other slots go to cold members evenly spaced
    through the document, visited in an order whose every prefix is evenly
    spaced too (when a cold insert splits which range decides what every
    later lookup behind it costs)."""
    hot = hot_members(population, hot_fraction)
    chosen = set(hot)
    cold = [member for member in population if member not in chosen] or hot
    slots = evenly(count, hot_probability)
    cold_picks = scattered(spread(cold, slots.count(False)))
    cold_picks.reverse()
    hot_picks: List[int] = []
    while len(hot_picks) < slots.count(True):
        cycle = list(hot)
        rng.shuffle(cycle)
        hot_picks.extend(cycle)
    return [hot_picks.pop() if is_hot else cold_picks.pop() for is_hot in slots]


class OpStream:
    """The point reads and item inserts of one trial: ``warm_ops`` untimed
    warm-up ops, then the ``count`` ops of the mix window.

    What is done is a fixed design; the seed decides which member each slot
    gets, and all text.  A lookup costs what its node's offset in its range
    costs, the first insert into an order splits a range (and makes every
    later lookup behind it cheaper), and a hot set is a few dozen nodes.  With
    targets and interleaving drawn at random, every latency percentile — and
    the simulated seconds — differed from seed to seed by 30-70 % on a quiet
    host: more than any bound, and nothing a commit did.  So:

    * the hot set is the specified share of the population, evenly spaced
      through the document, and the specified share of the slots goes to it;
    * hot and cold slots, and reads and writes, alternate as evenly as whole
      numbers allow;
    * the seed orders the hot members within each cycle through them, and
      writes every payload and the document's text; cold members are visited
      in a fixed order whose every prefix covers the document evenly;
    * the warm-up touches every hot member once (an insert into each hot
      order, then a read of each hot item), so the window starts after the
      first-touch range splits, not in the middle of them.
    """

    def __init__(self, spec: Workload, seed: int, items: List[int], orders: List[int],
                 count: int) -> None:
        rng = random.Random(seed * 7919 + 1)
        is_read = evenly(count, spec.read_fraction)
        reads = is_read.count(True)
        read_targets = iter(target_sequence(
            items, reads, spec.hot_fraction, spec.hot_probability, rng))
        write_targets = iter(target_sequence(
            orders, count - reads, spec.hot_fraction, spec.hot_probability, rng))
        warm = [(WRITE, order) for order in hot_members(orders, spec.hot_fraction)]
        warm += [(READ, item) for item in hot_members(items, spec.hot_fraction)]
        self.warm_ops = len(warm)
        timed = [(READ, next(read_targets)) if flag else (WRITE, next(write_targets))
                 for flag in is_read]
        self._ops: List[Op] = []
        for index, (kind, target) in enumerate(warm + timed):
            if kind == READ:
                self._ops.append((READ, target, ""))
            else:
                price = f"{rng.randrange(1, 500)}.{rng.randrange(100):02d}"
                self._ops.append((
                    WRITE,
                    target,
                    f"<item {marker(index)}>"
                    f"<description>{words(rng, 3)}</description>"
                    f"<quantity>{rng.randrange(1, 20)}</quantity>"
                    f"<price>{price}</price></item>",
                ))

    def __len__(self) -> int:
        return len(self._ops)

    def op(self, index: int) -> Op:
        return self._ops[index]

    def timed_kinds(self) -> List[str]:
        return [kind for kind, _, _ in self._ops[self.warm_ops:]]

    def digest(self) -> str:
        sha = hashlib.sha256()
        for kind, node, xml in self._ops:
            sha.update(f"{kind}\x00{node}\x00{xml}\x01".encode("utf-8"))
        return sha.hexdigest()


# ---------------------------------------------------------------------------
# Targets: the program as the client sees it
# ---------------------------------------------------------------------------

class EmbeddedTarget:
    """An in-process store on the in-memory device; ``sync=True`` per op."""

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
        self.store = XMLStore.open(config)

    def read(self, node_id: Optional[int]) -> str:
        return self.store.read(node_id)

    def insert(self, order_id: int, xml: str) -> None:
        self.store.insert_into_last(order_id, xml)

    def close(self) -> None:
        """Nothing to release: device and WAL live in memory."""


class ServedTarget:
    """``repro serve`` in-process: a directory store behind ``XMLServer`` +
    ``AsyncXMLServer`` on one loop thread, one client connection over a real
    127.0.0.1 socket; one group-commit barrier (a real fsync) per request."""

    def __init__(self, config: StoreConfig, workdir: str,
                 tracer: Optional[Tracer] = None) -> None:
        self.config = config
        self.directory = os.path.join(workdir, "primary")
        self.store = open_directory(self.directory, self.config)
        self.server = XMLServer(self.store)
        self.adapter: Optional[AsyncXMLServer] = None
        self.bytes_moved = 0
        self.requests = 0
        self._tracer = tracer
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve_forever, daemon=True)
        self._sock: Optional[socket.socket] = None
        self._reader = None

    # The server starts after the document is loaded (set-up loads through
    # ``self.store`` directly, as ``repro load`` would before ``repro serve``).
    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server loop did not come up")
        assert self.adapter is not None
        self._sock = socket.create_connection(("127.0.0.1", self.adapter.port), timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def _serve_forever(self) -> None:
        async def serve() -> None:
            self.adapter = AsyncXMLServer(self.server)
            await self.adapter.start()
            self._ready.set()
            await self.adapter.serve_until_shutdown()

        asyncio.run(serve())

    def request(self, payload: dict) -> dict:
        line = (json.dumps(payload) + "\n").encode("utf-8")
        tracing = self._tracer.request() if self._tracer else contextlib.nullcontext()
        with tracing:
            self._sock.sendall(line)
            raw = self._reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        self.bytes_moved += len(line) + len(raw)
        self.requests += 1
        return json.loads(raw)

    def _session(self, read_only: bool, op: dict) -> dict:
        response = self.request({"cmd": "session", "read_only": read_only, "ops": [op]})
        if not response.get("ok"):
            raise ReproError(f"request refused or aborted: {response}")
        return response

    def read(self, node_id: Optional[int]) -> str:
        response = self._session(True, {"op": "read", "node_id": node_id})
        result = response["results"][0]
        if not isinstance(result, str):
            raise ReproError(f"read returned an error result: {result}")
        return result

    def insert(self, order_id: int, xml: str) -> None:
        self._session(False, {"op": "insert_into_last", "node_id": order_id, "xml": xml})

    def ping(self) -> None:
        self.request({"cmd": "ping"})

    def stop_serving(self) -> None:
        """Shut the loop thread down and wait for it (the store stays open)."""
        if self._sock is not None:
            if self._thread.is_alive():
                self.request({"cmd": "shutdown"})
            self._reader.close()
            self._sock.close()
            self._sock = None
        if self._thread.is_alive():
            self._thread.join(timeout=30)
            if self._thread.is_alive():
                raise RuntimeError("server loop did not stop")

    def close(self) -> None:
        self.stop_serving()
        if self.store is not None:
            close_directory(self.directory, self.store)
            self.store = None


# ---------------------------------------------------------------------------
# One trial
# ---------------------------------------------------------------------------

@dataclass
class ExactState:
    """What must repeat exactly for one (workload, seed, seconds)."""

    sim_s: float
    stored_bytes: int
    xml_bytes: int
    counters: Dict[str, float]

    @property
    def stored_bytes_per_xml_byte(self) -> float:
        return self.stored_bytes / self.xml_bytes


@dataclass
class Trial:
    document: str
    target: object
    stream: OpStream
    setup_s: float
    #: the counters when the timed windows began (set by ``warm_up``)
    baseline: Dict[str, float] = field(default_factory=dict)
    #: per executed op: the read result, True for an acknowledged write,
    #: or None when the op raised / was refused
    outcomes: List[object] = field(default_factory=list)
    #: per executed op: when the client issued it, and the single call's time
    issued_at: List[float] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    mix_end: float = 0.0
    failed_ops: int = 0
    pass_s: List[float] = field(default_factory=list)
    last_scan: str = ""

    @property
    def store(self) -> XMLStore:
        return self.target.store


def counters_of(store: XMLStore) -> Dict[str, float]:
    """Every deterministic counter the objects already expose, flat."""
    locator, pool, disk = store.locator.stats, store.pool.stats, store.device.stats
    counters: Dict[str, float] = {
        "sim_s": store.simulated_seconds,
        "locator.partial": locator.partial_resolutions,
        "locator.full": locator.full_resolutions,
        "locator.scan": locator.scan_resolutions,
        "locator.tokens_scanned": locator.tokens_scanned,
        "tokens_emitted": store.tokens_emitted,
        "buffer.hits": pool.hits,
        "buffer.misses": pool.misses,
        "buffer.evictions": pool.evictions,
        "buffer.dirty_writebacks": pool.dirty_writebacks,
        "disk.reads": disk.reads,
        "disk.writes": disk.writes,
        "index_entries_loaded": store.index_entries_loaded,
        "wal.appends": store.wal.appends,
        "wal.sync_barriers": store.wal.sync_barriers,
        "store.range_splits": store.operations.ranges_split,
        "obs.events": store.event_log.next_seq if store.event_log.enabled else 0,
    }
    if store.partial_index is not None:
        partial = store.partial_index.stats
        counters.update({
            "partial.hits": partial.hits,
            "partial.probes": partial.probes,
            "partial.evictions": partial.evictions,
        })
    return counters


@contextlib.contextmanager
def trial_workdir(root: str, label: str) -> Iterator[str]:
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(root, f"tmp-{os.getpid()}-{label}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(spec: Workload, scale: Scale, seed: int, plan: Plan, workdir: str,
           tracer: Optional[Tracer] = None, config: Optional[StoreConfig] = None) -> Trial:
    """Everything before the first timed op, timed as ``setup_s``."""
    start = perf_counter()
    config = config if config is not None else store_config(spec)
    document = purchase_orders_document(scale.orders, scale.items_per_order, seed)
    target = ServedTarget(config, workdir, tracer) if spec.served else EmbeddedTarget(config)
    try:
        store = target.store
        store.load_document(document)
        items = [node.node_id for node in store.xpath(ITEMS_XPATH)]
        orders = [node.node_id for node in store.xpath(ORDERS_XPATH)]
        if spec.served:
            target.start()
        setup_s = perf_counter() - start
    except BaseException:
        target.close()
        raise
    return Trial(document, target, OpStream(spec, seed, items, orders, plan.mix_ops), setup_s)


def exact_state(trial: Trial) -> ExactState:
    """Counter deltas since set-up ended, and the bytes behind the document."""
    store = trial.store
    delta = {
        name: value - trial.baseline.get(name, 0)
        for name, value in counters_of(store).items()
    }
    delta["store.ranges"] = len(store.ranges)
    inserted = sum(
        len(trial.stream.op(index)[2].encode("utf-8"))
        for index, outcome in enumerate(trial.outcomes)
        if outcome is True
    )
    return ExactState(
        sim_s=delta.pop("sim_s"),
        stored_bytes=store.device.num_blocks * store.config.page_size + store.wal.size_bytes,
        xml_bytes=len(trial.document.encode("utf-8")) + inserted,
        counters=delta,
    )


def run_op(trial: Trial, index: int) -> float:
    """Execute op ``index`` of the stream; returns when it was issued."""
    kind, node, xml = trial.stream.op(index)
    issued = perf_counter()
    try:
        if kind == READ:
            outcome = trial.target.read(node)
        else:
            trial.target.insert(node, xml)
            outcome = True
    except (ReproError, OSError):
        outcome = None
        trial.failed_ops += 1
    trial.latency_s.append(perf_counter() - issued)
    trial.outcomes.append(outcome)
    return issued


def warm_up(trial: Trial) -> str:
    """Untimed: one whole-document read (fills the pool, and is the first
    oracle check: the store must serialise what was loaded), then the
    stream's warm-up ops.  The exact counters count from here, so they cover
    the mix and scan windows."""
    document = trial.target.read(None)
    for index in range(trial.stream.warm_ops):
        run_op(trial, index)
    trial.latency_s.clear()
    trial.baseline = counters_of(trial.store)
    return document


def mix_window(trial: Trial, tracer: Optional[Tracer] = None) -> None:
    """The closed loop: one client, no think time, every timed op of the
    seeded stream, each single call timed on its own."""
    for index in range(trial.stream.warm_ops, len(trial.stream)):
        if tracer is not None:
            tracer.op_id = index
        trial.issued_at.append(run_op(trial, index))
    trial.mix_end = perf_counter()


def scan_window(trial: Trial, plan: Plan) -> None:
    """``plan.scan_passes`` whole-document reads, back to back."""
    for _ in range(plan.scan_passes):
        start = perf_counter()
        try:
            trial.last_scan = trial.target.read(None)
        except (ReproError, OSError):
            trial.failed_ops += 1
        trial.pass_s.append(perf_counter() - start)


def result_digest(trial: Trial) -> str:
    """Digest of every op outcome of the mix window (reads by content)."""
    sha = hashlib.sha256()
    for outcome in trial.outcomes:
        if outcome is None:
            sha.update(b"\x02")
        elif outcome is True:
            sha.update(b"\x01")
        else:
            sha.update(outcome.encode("utf-8"))
        sha.update(b"\x00")
    return sha.hexdigest()
