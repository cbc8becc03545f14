"""The clock lint: src/repro must read wall time via repro.obs.clock."""

import os

from repro.obs.clock import check_clock_discipline, perf_seconds


def _src_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "..", "..", "src", "repro")


def test_repo_is_clean():
    assert check_clock_discipline(_src_root()) == []


def test_perf_seconds_is_monotonic():
    first = perf_seconds()
    second = perf_seconds()
    assert second >= first


def test_lint_catches_violations(tmp_path):
    bad = tmp_path / "offender.py"
    bad.write_text("import time\n\nnow = time.time()\n")
    nested = tmp_path / "sub"
    nested.mkdir()
    (nested / "sneaky.py").write_text("from time import sleep\n")
    clean = tmp_path / "fine.py"
    clean.write_text("from repro.obs.clock import perf_seconds\n")
    violations = check_clock_discipline(str(tmp_path))
    assert len(violations) == 2
    assert any("offender.py:1" in v for v in violations)
    assert any("sneaky.py:1" in v for v in violations)


def test_lint_allowlists_the_clock_module(tmp_path):
    obs = tmp_path / "obs"
    obs.mkdir()
    (obs / "clock.py").write_text("import time as _time\n")
    assert check_clock_discipline(str(tmp_path)) == []


def test_lint_rejects_time_in_any_other_obs_module(tmp_path):
    """obs/clock.py is the only module allowed to touch ``time``: a
    neighbour in obs/ that imports it fails like any other module."""
    obs = tmp_path / "obs"
    obs.mkdir()
    (obs / "clock.py").write_text("import time as _time\n")
    for name in ("sampler.py", "profiler.py", "timeline.py"):
        (obs / name).write_text("import time as _time\n")
    violations = check_clock_discipline(str(tmp_path))
    assert len(violations) == 3
    clock = os.path.join("obs", "clock.py")
    assert not any(v.startswith(clock) for v in violations)


def test_allowlist_matches_the_exact_path_only(tmp_path):
    obs = tmp_path / "obs"
    obs.mkdir()
    # same filename, wrong directory: not allowlisted
    (tmp_path / "clock.py").write_text("import time\n")
    # same directory, different filename: not allowlisted
    (obs / "clock2.py").write_text("import time\n")
    violations = check_clock_discipline(str(tmp_path))
    assert len(violations) == 2


def test_lint_catches_time_time_calls_mid_file(tmp_path):
    (tmp_path / "late.py").write_text(
        "x = 1\n\n\ndef stamp():\n    return time.time()\n"
    )
    violations = check_clock_discipline(str(tmp_path))
    assert len(violations) == 1
    assert "late.py:5" in violations[0]
