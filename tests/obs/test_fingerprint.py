"""Workload fingerprints and the drift score between windows."""

import pytest

from repro.obs import fingerprint as fp
from repro.obs.fingerprint import (
    WorkloadFingerprint,
    drift_score,
    drift_series,
    fingerprint_window,
    latest_drift,
)
from repro.obs.history import HistorySnapshot


def snap(seq, deltas, heatmap=None):
    return HistorySnapshot(
        seq=seq,
        label="test",
        operations=0,
        simulated_seconds=0.0,
        deltas=deltas,
        heatmap=heatmap,
    )


def read_heavy(seq, heatmap=None):
    """64 node reads resolved half by memo, half by 512-token scans."""
    return snap(
        seq,
        {
            fp.K_NODE_READS: 64.0,
            fp.K_PATH_PARTIAL: 32.0,
            fp.K_PATH_SCAN: 32.0,
            fp.K_TOKENS_SCANNED: 32.0 * 512.0,
            fp.K_BUFFER_HITS: 96.0,
            fp.K_BUFFER_MISSES: 32.0,
        },
        heatmap=heatmap,
    )


def write_heavy(seq):
    """64 inserts, WAL-bound, no lookups."""
    return snap(
        seq,
        {
            fp.K_INSERTS: 64.0,
            fp.K_WAL_APPENDS: 128.0,
            fp.K_BUFFER_MISSES: 64.0,
        },
    )


class TestFingerprintWindow:
    def test_empty_window_is_none(self):
        assert fingerprint_window([]) is None

    def test_idle_window_is_none(self):
        assert fingerprint_window([snap(0, {}), snap(1, {})]) is None

    def test_component_math(self):
        finger = fingerprint_window(
            [
                snap(
                    0,
                    {
                        fp.K_READS: 4.0,
                        fp.K_NODE_READS: 2.0,
                        fp.K_INSERTS: 2.0,
                        fp.K_PATH_PARTIAL: 1.0,
                        fp.K_PATH_FULL: 1.0,
                        fp.K_PATH_SCAN: 2.0,
                        fp.K_TOKENS_SCANNED: 512.0,
                        fp.K_BUFFER_HITS: 3.0,
                        fp.K_BUFFER_MISSES: 1.0,
                        fp.K_WAL_APPENDS: 8.0,
                    },
                )
            ]
        )
        assert finger.operations == 8.0
        assert finger.read_fraction == 0.75
        assert finger.path_partial == 0.25
        assert finger.path_full == 0.25
        assert finger.path_scan == 0.5
        # avg scan depth 256 tokens squashes to 256/(256+256)
        assert finger.scan_depth == pytest.approx(0.5)
        assert finger.locality == 0.75
        # 1 append/op squashes to 1/(1+2)
        assert finger.write_pressure == pytest.approx(1.0 / 3.0)
        assert finger.heat_concentration == 0.0

    def test_components_are_bounded(self):
        for fingerprint in (
            fingerprint_window([read_heavy(0)]),
            fingerprint_window([write_heavy(0)]),
        ):
            for name in WorkloadFingerprint.COMPONENTS:
                assert 0.0 <= getattr(fingerprint, name) <= 1.0, name

    def test_heat_comes_from_latest_summarized_snapshot(self):
        window = [
            read_heavy(0, heatmap={"top_decile_share": 0.9}),
            read_heavy(1, heatmap=None),  # heatmap off in the later row
        ]
        assert fingerprint_window(window).heat_concentration == 0.9

    def test_window_sums_across_snapshots(self):
        one = fingerprint_window([read_heavy(0)])
        two = fingerprint_window([read_heavy(0), read_heavy(1)])
        assert two.operations == 2 * one.operations
        assert two.read_fraction == one.read_fraction

    def test_to_dict_lists_every_component(self):
        payload = fingerprint_window([read_heavy(0)]).to_dict()
        assert set(payload) == {"operations", *WorkloadFingerprint.COMPONENTS}


class TestDriftScore:
    def test_identical_windows_do_not_drift(self):
        a = fingerprint_window([read_heavy(0)])
        b = fingerprint_window([read_heavy(1)])
        assert drift_score(a, b) == 0.0

    def test_missing_fingerprint_is_not_drift(self):
        finger = fingerprint_window([read_heavy(0)])
        assert drift_score(None, finger) == 0.0
        assert drift_score(finger, None) == 0.0
        assert drift_score(None, None) == 0.0

    def test_workload_flip_scores_high_and_bounded(self):
        reads = fingerprint_window([read_heavy(0)])
        writes = fingerprint_window([write_heavy(1)])
        score = drift_score(reads, writes)
        assert 0.3 < score <= 1.0
        assert score == drift_score(writes, reads)  # symmetric

    def test_deterministic(self):
        reads = fingerprint_window([read_heavy(0)])
        writes = fingerprint_window([write_heavy(1)])
        assert drift_score(reads, writes) == drift_score(
            fingerprint_window([read_heavy(0)]),
            fingerprint_window([write_heavy(1)]),
        )


class TestDriftSeries:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            drift_series([read_heavy(0)], window=0)

    def test_short_timeline_yields_no_points(self):
        assert drift_series([read_heavy(0)], window=4) == []

    def test_flip_shows_up_in_the_series(self):
        timeline = [read_heavy(i) for i in range(4)] + [
            write_heavy(i) for i in range(4, 8)
        ]
        points = drift_series(timeline, window=2)
        assert [p["seq"] for p in points] == [2, 3, 4, 5, 6, 7]
        steady = points[0]["drift"]  # read window vs. read window
        flipped = max(p["drift"] for p in points)
        assert steady == 0.0
        assert flipped > 0.3
        assert all(0.0 <= p["drift"] <= 1.0 for p in points)
        assert points[-1]["fingerprint"]["operations"] == 128.0


class TestLatestDrift:
    """``latest_drift`` fingerprints one window pair; it must read what
    the full series' last point reads, at every history length."""

    @staticmethod
    def _timeline(length):
        # reads, writes and idle rows in an aperiodic order, so the last
        # point's drift differs from length to length
        rows = []
        for seq in range(length):
            if seq % 5 == 3:
                rows.append(snap(seq, {}))
            elif (seq * seq) % 7 < 3:
                rows.append(write_heavy(seq))
            else:
                rows.append(read_heavy(seq, heatmap={"top_decile_share": seq / 20}))
        return rows

    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_equals_the_series_last_point(self, window):
        seen = set()
        for length in range(0, 3 * window + 1):
            timeline = self._timeline(length)
            series = drift_series(timeline, window=window)
            expected = series[-1]["drift"] if series else 0.0
            assert latest_drift(timeline, window=window) == expected, length
            seen.add(expected)
        assert len(seen) > 1  # not vacuous: the drift moved along the way

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            latest_drift([read_heavy(0)], window=0)

    def test_cost_does_not_grow_with_history(self, monkeypatch):
        calls = []
        original = fp.fingerprint_window
        monkeypatch.setattr(
            fp,
            "fingerprint_window",
            lambda rows: calls.append(len(rows)) or original(rows),
        )
        latest_drift(self._timeline(256), window=4)
        assert calls == [5, 4]  # one window pair, not 252 of them
