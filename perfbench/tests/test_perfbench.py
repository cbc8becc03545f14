"""Self-test of the benchmark (``--scale tiny``); run explicitly:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import collections
import json
import os
import re

import pytest

from perfbench import compare, host
from perfbench.__main__ import CHECKOUT, _contract_line
from perfbench.catalog import (
    END_TO_END, FAILED_OPS_RATIO, PER_LAYER, REPLICA_CATCHUP, WORKLOADS,
    WORKLOADS_BY_NAME,
)
from perfbench.layers import run_traced
from perfbench.measure import run_end_to_end, verify
from perfbench.tracer import Tracer
from perfbench.workload import (
    READ, SCALES, WRITE, OpStream, Plan, evenly, hot_members, mix_window, scan_window,
    scattered, set_up, spread, store_config, warm_up,
)
from repro.storage.wal import WriteAheadLog

TINY = SCALES["tiny"]
SECONDS = 1.0
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One untraced tiny run of every workload, seed 7."""
    results = str(tmp_path_factory.mktemp("results"))
    return {
        spec.name: run_end_to_end(spec, TINY, 7, SECONDS, results) for spec in WORKLOADS
    }


def test_benchmark_json_is_the_catalogue(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert benchmark_json["paths"] == ["perfbench"]
    assert benchmark_json["command"] == ["python3", "-m", "perfbench", "run"]
    assert [w["name"] for w in benchmark_json["workloads"]] == [w.name for w in WORKLOADS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in benchmark_json["workloads"])
    assert benchmark_json["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert benchmark_json["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    names += [w["name"] for w in benchmark_json["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])


def test_untraced_output_matches_benchmark_json(benchmark_json, reports):
    declared = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    for name, report in reports.items():
        report = dict(report, trace=0)
        line = json.loads(_contract_line(report))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        own = set(report["metrics"]) - set(declared)
        expected_own = {FAILED_OPS_RATIO.name}
        if WORKLOADS_BY_NAME[name].served:
            expected_own.add(REPLICA_CATCHUP.name)
        assert own == expected_own
        assert report["metrics"][FAILED_OPS_RATIO.name]["value"] == 0


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda spec: spec.name)
def test_traced_output_matches_benchmark_json(benchmark_json, tmp_path, spec):
    declared = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    header = {"host.calib_loop_s": host.calib_loop_s(1000)}
    report = run_traced(spec, TINY, 7, SECONDS, str(tmp_path), header)
    line = json.loads(_contract_line(dict(report, trace=1)))
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert line["correct"] is True
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["trace.coverage_ratio"] >= 0.9
    assert values["trace.overhead_ratio"] > 0
    assert values["store.read_self_s"] > 0 and values["buffer.fetches"] > 0
    assert values["xmltoken.decode_us_per_token"] > 0 and values["wal.replay_ops_per_s"] > 0
    # a layer reports where it runs, and 0 where it does not
    assert (values["server.request_self_s"] > 0) == spec.served
    assert (values["replication.records"] > 0) == spec.served
    assert (values["obs.events_emitted"] > 0) == spec.served
    assert (values["server.sched_ops_per_s"] > 0) == spec.served
    assert (values["partial.probes"] > 0) == (spec.policy == "RANGE_PLUS_PARTIAL")
    assert (values["full_index.update_self_s"] > 0) == (spec.policy == "FULL")
    assert os.path.exists(os.path.join(str(tmp_path), f"trace-{spec.name}-7.jsonl"))


def test_same_seed_same_work_other_seed_other_work(reports, tmp_path):
    spec = WORKLOADS_BY_NAME["lazy_partial_hot"]
    again = run_end_to_end(spec, TINY, 7, SECONDS, str(tmp_path))
    other = run_end_to_end(spec, TINY, 8, SECONDS, str(tmp_path))
    first = reports[spec.name]
    assert again["exact"] == first["exact"]
    for name in ("sim_s", "stored_bytes_per_xml_byte"):
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"]
    assert other["exact"]["op_digest"] != first["exact"]["op_digest"]
    assert other["correct"]


def test_the_design_is_the_specified_skew_evenly_spaced():
    population = list(range(100, 1600))
    assert spread(population, 30) == population[25::50]
    assert spread(list(range(24)), 1) == [12]
    assert hot_members(population, 0.02) == population[25::50]
    assert evenly(10, 0.8) == [False, True, True, True, True] * 2
    assert scattered(list(range(8))) == [0, 4, 2, 6, 1, 5, 3, 7]
    assert sorted(scattered(list(range(13)))) == list(range(13))
    spec = WORKLOADS_BY_NAME["coarse_scan_reads"]
    items, orders = list(range(1000, 2500)), list(range(10, 310))
    stream = OpStream(spec, 7, items, orders, 1000)
    hot_items, hot_orders = set(hot_members(items, 0.02)), set(hot_members(orders, 0.02))
    warm = [stream.op(i) for i in range(stream.warm_ops)]
    assert [op[:2] for op in warm] == (
        [(WRITE, order) for order in sorted(hot_orders)]
        + [(READ, item) for item in sorted(hot_items)])
    timed = [stream.op(i) for i in range(stream.warm_ops, len(stream))]
    reads = [node for kind, node, _ in timed if kind == READ]
    writes = [node for kind, node, _ in timed if kind == WRITE]
    assert (len(reads), len(writes)) == (800, 200)
    assert sum(1 for node in reads if node in hot_items) == 640
    assert sum(1 for node in writes if node in hot_orders) == 160
    assert all(reads.count(item) in (21, 22) for item in hot_items)
    assert len({node for node in reads if node not in hot_items}) == 160


def _finished_trial(tmp_path):
    spec = WORKLOADS_BY_NAME["lazy_partial_hot"]
    plan = Plan.make(spec, SECONDS)
    trial = set_up(spec, TINY, 7, plan, str(tmp_path))
    warm = warm_up(trial)
    mix_window(trial)
    scan_window(trial, plan)
    return trial, warm


def test_a_wrong_read_result_is_a_failed_op(tmp_path):
    trial, warm = _finished_trial(tmp_path)
    assert verify(trial, warm)["failures"] == 0
    victim = next(i for i, outcome in enumerate(trial.outcomes) if isinstance(outcome, str))
    trial.outcomes[victim] = trial.outcomes[victim].replace("<item", "<itme", 1)
    report = verify(trial, warm)
    assert report["oracle_failures"] == 1 and report["failures"] == 1


def test_a_dropped_wal_tail_is_a_failed_op(tmp_path):
    trial, warm = _finished_trial(tmp_path)
    image = trial.store.wal.to_bytes()
    trial.store.wal = WriteAheadLog.from_bytes(image[: len(image) - 40])
    report = verify(trial, warm)
    assert report["oracle_failures"] == 0
    assert report["recovery_failures"] >= 1


def test_span_self_times_sum_to_the_root_span():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("leaf"):
                sum(range(2000))
            with tracer.span("leaf"):
                sum(range(2000))
        with tracer.span("child"):
            sum(range(2000))
    window = tracer.window(0)
    root = tracer.spans[0]
    assert window.count == {"root": 1, "child": 2, "leaf": 2}
    assert window.root_s == pytest.approx(root.end - root.start)
    assert sum(window.self_s.values()) == pytest.approx(root.end - root.start)
    assert window.children_of(("child",), "leaf") == 2
    assert all(value >= 0 for value in window.self_s.values())


def test_tracer_restores_what_it_patched():
    from repro.core.store import XMLStore

    original = XMLStore.__dict__["read"]
    with Tracer().installed():
        assert XMLStore.__dict__["read"] is not original
    assert XMLStore.__dict__["read"] is original


def test_served_config_is_what_repro_serve_uses():
    cli = pytest.importorskip("repro.cli")
    if not hasattr(cli, "_cli_store_config"):
        pytest.skip("repro.cli no longer exposes its store config")
    assert store_config(WORKLOADS_BY_NAME["served_replicated"]) == cli._cli_store_config()


def test_op_stream_is_a_function_of_the_seed():
    spec = WORKLOADS_BY_NAME["coarse_scan_reads"]
    items, orders = list(range(1000, 2500)), list(range(10, 310))
    first, again, other = (OpStream(spec, seed, items, orders, 600) for seed in (7, 7, 8))
    assert first.digest() == again.digest() != other.digest()
    # another seed is another order and other text; the targets are the same
    # ones, visited as often (give or take the last, partial cycle)
    ours = collections.Counter(first.op(i)[:2] for i in range(len(first)))
    theirs = collections.Counter(other.op(i)[:2] for i in range(len(other)))
    assert set(ours) == set(theirs)
    assert all(abs(ours[target] - theirs[target]) <= 1 for target in ours)
    assert [first.op(i)[:2] for i in range(len(first))] != [
        other.op(i)[:2] for i in range(len(other))]


def _entry(value, spread=0.0, estimates=()):
    return {"value": value, "spread": spread, "leave_one_out": list(estimates)}


def test_compare_verdicts():
    latency = next(m for m in END_TO_END if m.name == "read_p50_ms")
    rate = next(m for m in END_TO_END if m.name == "ops_per_s")
    sim = next(m for m in END_TO_END if m.name == "sim_s")
    assert compare.verdict(latency, _entry(1.0), _entry(1.0 + latency.bound / 2), True) == "within"
    assert compare.verdict(latency, _entry(1.0), _entry(1.0 + latency.bound * 2), True) == "worse"
    assert compare.verdict(rate, _entry(100.0), _entry(100.0 * (1 + rate.bound * 2)), True) == "better"
    assert compare.verdict(rate, _entry(100.0), _entry(100.0 * (1 - rate.bound * 2)), True) == "worse"
    noisy = _entry(1.0, spread=0.5, estimates=(0.9, 1.0, 1.4))
    assert compare.verdict(latency, noisy, _entry(1.3, 0.0, (1.2, 1.3, 1.35)), True) == "unresolved"
    assert compare.verdict(latency, noisy, _entry(0.5, 0.0, (0.5, 0.5, 0.6)), True) == "better"
    assert compare.verdict(sim, _entry(2.0), _entry(2.0), True) == "within"
    assert compare.verdict(sim, _entry(2.0), _entry(2.0000001), True) == "worse"
    assert compare.verdict(sim, _entry(2.0), _entry(2.01), False) == "within"


def test_compare_files_exit_status(reports, tmp_path):
    base = tmp_path / "a.json"
    change = tmp_path / "b.json"
    rows = [dict(report, trace=0, scale="tiny") for report in reports.values()]
    base.write_text(json.dumps({"reports": rows}))
    slower = json.loads(json.dumps(rows))
    slower[0]["metrics"]["sim_s"]["value"] *= 1.5
    change.write_text(json.dumps({"reports": slower}))
    assert compare.compare_files(str(base), str(base)) == 0
    assert compare.compare_files(str(base), str(change)) == 1
