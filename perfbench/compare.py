"""``python3 -m perfbench compare A.json B.json``: judge change B against base A.

Per workload and end-to-end metric it prints both medians, the ratio with
its base, the bound, and a verdict:

``within``      B is no worse than A by more than the bound
``worse``       B is worse than A by more than the bound (exit status 1)
``better``      B is better than A by more than the bound
``unresolved``  the leave-one-trial-out estimates of either side spread wider
                than the bound, so a difference of that size cannot be told
                from noise — unless every estimate of B beats every one of A
                (then ``better``)

Metrics the catalogue marks exact (``sim_s``, ``stored_bytes_per_xml_byte``,
``failed_ops_ratio``) must be identical when both files used the same seed
and seconds: any difference is ``worse``/``better`` by direction, bound 0.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Tuple

from perfbench.catalog import END_TO_END, FAILED_OPS_RATIO, REPLICA_CATCHUP, Metric


def load_reports(path: str) -> Dict[str, Dict[str, object]]:
    """Reports by workload, from a ``run --out`` file of one or all."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    reports = payload["reports"] if "reports" in payload else [payload]
    return {report["workload"]: report for report in reports if not report["trace"]}


def worsening(metric: Metric, base: float, change: float) -> float:
    """Share of the base by which ``change`` is worse (negative: better)."""
    if base == 0:
        delta = 0.0 if change == 0 else math.copysign(math.inf, change)
    else:
        delta = (change - base) / abs(base)
    return delta if metric.better == "lower" else -delta


def verdict(metric: Metric, base: Dict[str, object], change: Dict[str, object],
            same_inputs: bool) -> str:
    worse_by = worsening(metric, base["value"], change["value"])
    if metric.exact and same_inputs:
        return "within" if worse_by == 0 else ("worse" if worse_by > 0 else "better")
    bound = metric.bound or 0.0
    noisy = max(base["spread"], change["spread"]) > bound
    if noisy:
        ours, theirs = change["leave_one_out"], base["leave_one_out"]
        if metric.better == "lower":
            dominates = max(ours) < min(theirs)
        else:
            dominates = min(ours) > max(theirs)
        return "better" if dominates else "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "within"


def compare_reports(
    base: Dict[str, Dict[str, object]], change: Dict[str, Dict[str, object]]
) -> List[Tuple[str, str, float, float, float, float, str]]:
    """Rows ``(workload, metric, base, change, ratio, bound, verdict)``."""
    rows = []
    for workload in base:
        if workload not in change:
            continue
        ours, theirs = change[workload], base[workload]
        same_inputs = (ours["seed"], ours["seconds"], ours["scale"]) == (
            theirs["seed"], theirs["seconds"], theirs["scale"])
        for metric in END_TO_END + (REPLICA_CATCHUP, FAILED_OPS_RATIO):
            if metric.name not in theirs["metrics"] or metric.name not in ours["metrics"]:
                continue  # the catch-up rate exists on one workload only
            a, b = theirs["metrics"][metric.name], ours["metrics"][metric.name]
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            rows.append((
                workload, metric.name, a["value"], b["value"], ratio,
                0.0 if metric.exact and same_inputs else metric.bound,
                verdict(metric, a, b, same_inputs),
            ))
    return rows


def compare_files(base_path: str, change_path: str) -> int:
    rows = compare_reports(load_reports(base_path), load_reports(change_path))
    print(f"{'workload':20s} {'metric':28s} {'base':>14s} {'change':>14s} "
          f"{'change/base':>12s} {'bound':>6s}  verdict")
    for workload, name, a, b, ratio, bound, outcome in rows:
        print(f"{workload:20s} {name:28s} {a:14.6g} {b:14.6g} {ratio:12.4f} "
              f"{bound:6.2f}  {outcome}")
    worse = [row for row in rows if row[-1] == "worse"]
    print(f"# {len(rows)} comparisons, {len(worse)} worse, "
          f"{sum(1 for row in rows if row[-1] == 'unresolved')} unresolved")
    return 1 if worse else 0
