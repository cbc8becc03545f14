"""``python3 -m perfbench run|compare`` — run from the root of a checkout.

``run --workload W --seed N --seconds S --trace 0|1`` measures one workload
in this process and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` it runs every workload, each in its own subprocess (so
``peak_rss_mb`` is that workload's alone), and ``--out`` collects the full
reports.  ``compare A.json B.json`` judges two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(HERE, "results")


def _bootstrap() -> None:
    """Make ``repro`` importable from this checkout's ``src/`` — and only
    from there, so the numbers are this commit's."""
    source = os.path.join(CHECKOUT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"perfbench: no program to measure: {source}/repro is missing")
    sys.path.insert(0, source)
    if CHECKOUT not in sys.path:
        sys.path.insert(0, CHECKOUT)


def _print_report(report: Dict[str, object]) -> None:
    host = report["host"]
    print(
        f"# perfbench {report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} trace={report['trace']} scale={report['scale']}"
    )
    print(
        f"# host: calib_loop_s={host['host.calib_loop_s']:.4f} nproc={host['nproc']} "
        f"python={host['python']} load_1min={host['load_1min']:.2f}"
    )
    if "plan" in report:
        windows = {name: [round(value, 2) for value in values]
                   for name, values in report["window_s"].items()}
        print(f"# plan: {report['plan']}  window seconds per trial: {windows}")
    for name, entry in report["metrics"].items():
        spread = entry.get("spread")
        tail = f"  spread={spread:.3f}" if spread is not None else ""
        print(f"{name:42s} {entry['value']:>16.6g} {entry['unit']:<10s}{tail}")
    for line in report.get("notes", []):
        print(f"# {line}")
    print(
        f"# attempted={report['attempted']} failed={report['failed']} "
        f"correct={report['correct']}"
    )


def _contract_line(report: Dict[str, object]) -> str:
    from perfbench.catalog import END_TO_END, PER_LAYER

    wanted = PER_LAYER if report["trace"] else END_TO_END
    metrics = {
        metric.name: {
            "value": report["metrics"][metric.name]["value"],
            "unit": metric.unit,
        }
        for metric in wanted
    }
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def run_one(workload: str, seed: int, seconds: float, trace: int, scale: str) -> Dict[str, object]:
    """Measure one workload in this process; returns the full report."""
    from perfbench import host
    from perfbench.catalog import WORKLOADS_BY_NAME
    from perfbench.workload import SCALES

    spec = WORKLOADS_BY_NAME[workload]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    header = host.header()
    if trace:
        from perfbench.layers import run_traced

        report = run_traced(spec, SCALES[scale], seed, seconds, RESULTS_DIR, header)
    else:
        from perfbench.measure import run_end_to_end

        report = run_end_to_end(spec, SCALES[scale], seed, seconds, RESULTS_DIR)
    report.update({"host": header, "trace": trace, "scale": scale})
    return report


def _run_all(arguments) -> int:
    """Every workload, one subprocess each; collects the reports."""
    from perfbench.catalog import WORKLOADS

    reports: List[Dict[str, object]] = []
    status = 0
    for spec in WORKLOADS:
        part = os.path.join(RESULTS_DIR, f"part-{os.getpid()}-{spec.name}.json")
        command = [
            sys.executable, "-m", "perfbench", "run",
            "--workload", spec.name, "--seed", str(arguments.seed),
            "--seconds", str(arguments.seconds), "--trace", str(arguments.trace),
            "--scale", arguments.scale, "--out", part,
        ]
        completed = subprocess.run(command, cwd=CHECKOUT)
        status = status or completed.returncode
        if os.path.exists(part):
            with open(part, "r", encoding="utf-8") as handle:
                reports.append(json.load(handle))
            os.remove(part)
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump({"schema": "perfbench/v1", "reports": reports}, handle, indent=1)
    print(json.dumps({
        "correct": all(report["correct"] for report in reports) and status == 0,
        "workloads": [report["workload"] for report in reports],
    }))
    return status


def _run(arguments) -> int:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if arguments.workload is None:
        return _run_all(arguments)
    report = run_one(
        arguments.workload, arguments.seed, arguments.seconds, arguments.trace,
        arguments.scale,
    )
    _print_report(report)
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print(_contract_line(report))
    return 0 if report["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    _bootstrap()
    from perfbench.catalog import WORKLOADS_BY_NAME
    from perfbench.compare import compare_files
    from perfbench.workload import SCALES

    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one workload, or all of them")
    run.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME))
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--seconds", type=float, default=15.0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--scale", choices=sorted(SCALES), default="full")
    run.add_argument("--out", help="write the full report(s) to this JSON file")
    compare = commands.add_parser("compare", help="judge B against base A")
    compare.add_argument("base")
    compare.add_argument("change")
    arguments = parser.parse_args(argv)
    if arguments.command == "compare":
        return compare_files(arguments.base, arguments.change)
    return _run(arguments)


if __name__ == "__main__":
    sys.exit(main())
