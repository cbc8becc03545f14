"""The untraced run: replica trials, per-op minima, checks.

``TRIALS`` identical trials run back to back on fresh stores built from the
same seed: each executes the same ops on the same store state.  The host
this runs on slows down by half for seconds at a time, so a window's wall
time says as much about the host as about the commit.  Because the trials
are replicas, op *i* has one timing per trial, and its cost is taken as
the **minimum across trials** — the reading least disturbed by the host.
Latency percentiles, throughput and scan rate are then computed over those
per-op minima.  The spread printed beside each value is that of the
leave-one-trial-out estimates.

Trial 0 is verified against the oracle and WAL recovery (and the replica and
a re-open on ``served_replicated``); later trials must reproduce its result
digest, counters and simulated seconds exactly.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import checks
from perfbench.catalog import END_TO_END, FAILED_OPS_RATIO, REPLICA_CATCHUP, Workload
from perfbench.tracer import Tracer
from perfbench.workload import (
    READ, TRIALS, ExactState, Plan, Scale, Trial, exact_state, mix_window, result_digest,
    scan_window, set_up, trial_workdir, warm_up,
)


def p95(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def replica_min(rows: Sequence[Sequence[float]]) -> List[float]:
    """Per position, the minimum across replica trials."""
    return [min(column) for column in zip(*rows)]


@dataclass
class Timing:
    """The clock readings of one trial (all that is kept of it)."""

    setup_s: float
    latency_s: List[float]
    interval_s: List[float]  # op-to-op: the call plus the client's loop
    pass_s: List[float]
    catchup_s: Optional[float] = None

    @classmethod
    def of(cls, trial: Trial) -> "Timing":
        issued = trial.issued_at
        return cls(
            trial.setup_s,
            trial.latency_s,
            [later - earlier for earlier, later in zip(issued, issued[1:] + [trial.mix_end])],
            trial.pass_s,
        )


@dataclass
class RunData:
    """What a run's replica trials produced."""

    kinds: List[str]
    tokens: int
    exact: ExactState
    digests: Dict[str, str]
    report: Dict[str, object]
    timings: List[Timing] = field(default_factory=list)
    applied: int = 0
    attempted: int = 0
    failed: int = 0


def timing_estimates(data: RunData, timings: Sequence[Timing]) -> Dict[str, float]:
    """The wall-clock metrics from a set of replica trials."""
    latency = replica_min([timing.latency_s for timing in timings])
    intervals = replica_min([timing.interval_s for timing in timings])
    passes = replica_min([timing.pass_s for timing in timings])
    reads = [value for kind, value in zip(data.kinds, latency) if kind == READ]
    writes = [value for kind, value in zip(data.kinds, latency) if kind != READ]
    estimates = {
        "setup_s": min(timing.setup_s for timing in timings),
        "ops_per_s": len(intervals) / sum(intervals),
        "read_p50_ms": statistics.median(reads) * 1e3,
        "read_p95_ms": p95(reads) * 1e3,
        "write_p50_ms": statistics.median(writes) * 1e3,
        "write_p95_ms": p95(writes) * 1e3,
        "scan_tokens_per_s": data.tokens * len(passes) / sum(passes),
    }
    if timings[0].catchup_s is not None:
        estimates[REPLICA_CATCHUP.name] = data.applied / min(t.catchup_s for t in timings)
    return estimates


def replica_signature(trial: Trial, exact: ExactState) -> Tuple:
    """What every replica trial must reproduce exactly."""
    return (
        result_digest(trial),
        exact.sim_s,
        exact.stored_bytes,
        exact.xml_bytes,
        tuple(sorted(exact.counters.items())),
    )


def verify(trial: Trial, warm: str) -> Dict[str, object]:
    """Oracle and WAL recovery on a finished trial.  ``failures`` and
    ``comparisons`` count into ``failed`` / ``attempted``."""
    ops = [trial.stream.op(index) for index in range(len(trial.outcomes))]
    oracle_failures, expected, acknowledged = checks.check_oracle(
        trial.document, warm, ops, trial.outcomes, trial.last_scan
    )
    recovery = checks.check_recovery(
        trial.store.wal.to_bytes(), trial.target.config, expected, acknowledged
    )
    return {
        "failures": oracle_failures + recovery.failures,
        "comparisons": len(ops) + 2,
        "oracle_failures": oracle_failures,
        "recovery_failures": recovery.failures,
        "acknowledged_writes": len(acknowledged),
        "wal.replay_ops_per_s": recovery.replay_ops_per_s,
        "expected": expected,
        "acknowledged": acknowledged,
    }


def verify_served(trial: Trial, report: Dict[str, object],
                  replica: checks.CatchUp) -> None:
    """``served_replicated`` only: the replica and a clean close / re-open
    of the primary must hold every acknowledged write too."""
    target = trial.target
    expected, acknowledged = report["expected"], report["acknowledged"]
    report["replica_failures"] = checks.missing_writes(
        replica.replica_document, expected, acknowledged)
    target.stop_serving()
    report["reopen_failures"] = checks.check_reopen(
        target.directory, target.store, target.config, expected, acknowledged)
    target.store = None  # check_reopen closed it
    report["failures"] += report["replica_failures"] + report["reopen_failures"]
    report["comparisons"] += 2 * len(acknowledged)


@dataclass
class Pass:
    """One set-up → warm-up → mix → scan (→ replica catch-up when served).
    The caller closes ``trial.target``."""

    trial: Trial
    warm: str
    #: counter deltas over the mix and scan windows, and what a replica
    #: trial must reproduce of them
    exact: ExactState
    signature: Tuple
    replica: Optional[checks.CatchUp]
    #: span counts after warm-up, mix, scan and catch-up (traced passes)
    marks: List[int]

    @property
    def mix_s(self) -> float:
        return self.trial.mix_end - self.trial.issued_at[0]


def run_pass(spec: Workload, scale: Scale, seed: int, plan: Plan, workdir: str,
             tracer: Optional[Tracer] = None) -> Pass:
    trial = set_up(spec, scale, seed, plan, workdir, tracer)
    spans = tracer.spans if tracer is not None else ()
    try:
        warm = warm_up(trial)
        marks = [len(spans)]
        mix_window(trial, tracer)
        marks.append(len(spans))
        scan_window(trial, plan)
        marks.append(len(spans))
        exact = exact_state(trial)
        replica = None
        if spec.served:
            replica = checks.replica_catch_up(
                trial.store, trial.target.config, os.path.join(workdir, "replica"))
        marks.append(len(spans))
    except BaseException:
        trial.target.close()
        raise
    return Pass(trial, warm, exact, replica_signature(trial, exact), replica, marks)


def run_trials(spec: Workload, scale: Scale, seed: int, plan: Plan,
               results_dir: str) -> RunData:
    """Run the replica trials, verifying the first and matching the rest."""
    data: Optional[RunData] = None
    reference: Optional[Tuple] = None
    for number in range(TRIALS):
        with trial_workdir(results_dir, f"{spec.name}-{number}") as workdir:
            done = run_pass(spec, scale, seed, plan, workdir)
            trial = done.trial
            try:
                if data is None:
                    reference = done.signature
                    data = RunData(
                        kinds=trial.stream.timed_kinds(),
                        tokens=trial.store.ranges.total_tokens,
                        exact=done.exact,
                        digests={"op_digest": trial.stream.digest(),
                                 "result_digest": done.signature[0]},
                        report=verify(trial, done.warm),
                    )
                elif done.signature != reference:
                    data.failed += 1
                timing = Timing.of(trial)
                if done.replica is not None:
                    timing.catchup_s = done.replica.wall_s
                    data.applied = done.replica.applied
                    data.failed += done.replica.failures
                    data.attempted += 1
                    if number == 0:
                        verify_served(trial, data.report, done.replica)
                data.attempted += len(trial.stream) + plan.scan_passes + 1
                data.failed += trial.failed_ops
                data.timings.append(timing)
            finally:
                trial.target.close()
    data.failed += data.report["failures"]
    data.attempted += data.report["comparisons"]
    del data.report["expected"], data.report["acknowledged"]
    return data


def run_end_to_end(
    spec: Workload, scale: Scale, seed: int, seconds: float, results_dir: str
) -> Dict[str, object]:
    plan = Plan.make(spec, seconds)
    data = run_trials(spec, scale, seed, plan, results_dir)
    timings = data.timings
    estimates = timing_estimates(data, timings)
    leave_one_out = [
        timing_estimates(data, timings[:skip] + timings[skip + 1:])
        for skip in range(len(timings))
    ]
    estimates.update({
        "sim_s": data.exact.sim_s,
        "stored_bytes_per_xml_byte": data.exact.stored_bytes_per_xml_byte,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        FAILED_OPS_RATIO.name: data.failed / data.attempted,
    })
    metrics: Dict[str, Dict[str, object]] = {}
    reported = END_TO_END + ((REPLICA_CATCHUP,) if spec.served else ()) + (FAILED_OPS_RATIO,)
    for metric in reported:
        value = estimates[metric.name]
        others = [row[metric.name] for row in leave_one_out if metric.name in row]
        metrics[metric.name] = {
            "value": value,
            "unit": metric.unit,
            "spread": (max(others) - min(others)) / value if others and value else 0.0,
            "leave_one_out": others,
        }
    reads = data.kinds.count(READ)
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "plan": {"trials": TRIALS, "mix_ops": plan.mix_ops, "reads": reads,
                 "writes": plan.mix_ops - reads, "scan_passes": plan.scan_passes},
        "window_s": {
            "mix": [sum(timing.interval_s) for timing in timings],
            "scan": [sum(timing.pass_s) for timing in timings],
        },
        "metrics": metrics,
        "exact": dict(data.exact.counters, **data.digests),
        "checks": data.report,
        "attempted": data.attempted,
        "failed": data.failed,
        "correct": data.failed == 0,
    }
