"""Shared fixtures for the benchmark suite.

Every benchmark measures wall time through pytest-benchmark *and* records
the simulated-clock throughput (the paper's metric) in ``extra_info`` and
in plain-text artifacts under ``bench_results/`` — those artifacts are the
regenerated tables/figures that EXPERIMENTS.md indexes.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "bench_results")


def pytest_addoption(parser):
    parser.addoption(
        "--profile",
        action="store_true",
        default=False,
        help=(
            "attach cost profiles (repro.obs.profiler) to every Table-5 "
            "phase row and write the profile artifact; the simulated "
            "numbers are byte-identical either way (the zero-cost "
            "contract pinned by tests/bench/test_obs_zero_cost.py)"
        ),
    )


@pytest.fixture(scope="session")
def results_dir():
    path = os.path.abspath(RESULTS_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def write_artifact(results_dir: str, name: str, content: str) -> str:
    path = os.path.join(results_dir, name)
    with open(path, "w") as handle:
        handle.write(content)
    return path
