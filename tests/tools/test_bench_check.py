"""The perf-regression gate over benchmark trajectories.

``tools/bench_check.py`` is what turns the append-only
``BENCH_*.json`` files into a CI gate, so its comparison rules are
pinned here: score extraction by convention, newest-vs-best-prior
comparison per bench key, the 25% default threshold, and the clean
skips (single record, unscored telemetry, missing files).
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_check import check_trajectory, main, score_of  # noqa: E402


def write_trajectory(path, records):
    path.write_text(json.dumps(records, indent=2))
    return path


def record(bench, **payload):
    return {"bench": bench, "timestamp": "2026-01-01T00:00:00Z", **payload}


# -- score extraction -----------------------------------------------------


def test_score_prefers_deterministic_probe_ratio():
    # Probe ratios come from seeded workloads and are machine-
    # independent, so they gate ahead of wall-clock speedups.
    assert score_of(record("b", speedup=3.5, probe_ratio=9.0)) == 9.0


def test_score_falls_back_to_speedup_then_workloads():
    assert score_of(record("b", speedup=4.0)) == 4.0
    assert score_of(
        record("b", workloads={"x": {"speedup": 2.0}, "y": {"speedup": 4.0}})
    ) == 3.0


def test_score_ignores_booleans_and_telemetry():
    assert score_of(record("b", speedup=True)) is None
    assert score_of(record("b", mean_cone=164.9, size=2538)) is None


def test_score_accepts_serving_throughput():
    # The serving bench has no speedup (there is no baseline to beat);
    # its requests/sec headline is the gated score.
    assert score_of(record("serving", requests_per_sec=1234.5, lane_fill=0.8)) == 1234.5
    assert score_of(record("serving", speedup=2.0, requests_per_sec=9.0)) == 2.0


# -- gating ---------------------------------------------------------------


def test_single_entry_skips_cleanly(tmp_path):
    path = write_trajectory(tmp_path / "BENCH_t.json", [record("a", speedup=3.0)])
    failures, notes = check_trajectory(path, 0.25)
    assert failures == []
    assert any("SKIP" in note and "only 1 scored" in note for note in notes)


def test_within_threshold_passes(tmp_path):
    path = write_trajectory(
        tmp_path / "BENCH_t.json",
        [record("a", speedup=4.0), record("a", speedup=3.1)],  # -22.5%
    )
    failures, _ = check_trajectory(path, 0.25)
    assert failures == []


def test_regression_beyond_threshold_fails(tmp_path):
    path = write_trajectory(
        tmp_path / "BENCH_t.json",
        [record("a", speedup=4.0), record("a", speedup=2.9)],  # -27.5%
    )
    failures, _ = check_trajectory(path, 0.25)
    assert len(failures) == 1
    assert "FAIL" in failures[0] and "a" in failures[0]


def test_newest_compared_against_best_prior_not_latest(tmp_path):
    # A slow middle run must not lower the bar: 4.0 -> 2.0 -> 3.5 still
    # regresses only 12.5% against the best prior (4.0).
    path = write_trajectory(
        tmp_path / "BENCH_t.json",
        [record("a", speedup=4.0), record("a", speedup=2.0), record("a", speedup=3.5)],
    )
    failures, _ = check_trajectory(path, 0.25)
    assert failures == []
    # ... and 2.5 is a 37.5% drop from 4.0, so it fails even though it
    # beats the middle run.
    path = write_trajectory(
        tmp_path / "BENCH_t.json",
        [record("a", speedup=4.0), record("a", speedup=2.0), record("a", speedup=2.5)],
    )
    failures, _ = check_trajectory(path, 0.25)
    assert len(failures) == 1


def test_bench_keys_gate_independently(tmp_path):
    path = write_trajectory(
        tmp_path / "BENCH_t.json",
        [
            record("fast", speedup=10.0),
            record("slow", speedup=4.0),
            record("fast", speedup=9.9),
            record("slow", speedup=1.0),
        ],
    )
    failures, _ = check_trajectory(path, 0.25)
    assert len(failures) == 1
    assert "slow" in failures[0]


def test_smoke_and_full_records_gate_separately(tmp_path):
    # Smoke sweeps run different representative scales, so a lower
    # smoke score must not be compared against a full-mode baseline
    # (and vice versa): only the smoke-vs-smoke regression fails here.
    path = write_trajectory(
        tmp_path / "BENCH_t.json",
        [
            record("a", speedup=5.0),
            record("a", speedup=4.0, smoke=True),
            record("a", speedup=2.0, smoke=True),
        ],
    )
    failures, _ = check_trajectory(path, 0.25)
    assert len(failures) == 1
    assert "[smoke]" in failures[0]


def test_unscored_records_do_not_gate(tmp_path):
    path = write_trajectory(
        tmp_path / "BENCH_t.json",
        [record("telemetry", mean_cone=10.0), record("telemetry", mean_cone=99.0)],
    )
    failures, notes = check_trajectory(path, 0.25)
    assert failures == []
    assert any("unscored" in note for note in notes)


def test_bench_that_stops_emitting_its_score_fails(tmp_path):
    # A previously scored key whose newest record lost its metric is a
    # broken gate, not a pass.
    path = write_trajectory(
        tmp_path / "BENCH_t.json",
        [record("a", speedup=4.0), record("a", rows=[])],
    )
    failures, _ = check_trajectory(path, 0.25)
    assert len(failures) == 1
    assert "stopped emitting" in failures[0]


def test_lane_fill_gates_alongside_throughput(tmp_path):
    # Throughput held steady but the batcher degenerated to point
    # evaluation: that is a serving regression even though the primary
    # score passed.
    path = write_trajectory(
        tmp_path / "BENCH_serving.json",
        [
            record("serving", requests_per_sec=1000.0, lane_fill=0.8),
            record("serving", requests_per_sec=1000.0, lane_fill=0.1),
        ],
    )
    failures, _ = check_trajectory(path, 0.25)
    assert len(failures) == 1
    assert "lane_fill" in failures[0]


def test_lane_fill_within_threshold_passes(tmp_path):
    path = write_trajectory(
        tmp_path / "BENCH_serving.json",
        [
            record("serving", requests_per_sec=1000.0, lane_fill=0.80),
            record("serving", requests_per_sec=990.0, lane_fill=0.75),
        ],
    )
    failures, notes = check_trajectory(path, 0.25)
    assert failures == []
    assert any("lane_fill" in note for note in notes)


# -- CLI ------------------------------------------------------------------


def test_main_exit_codes(tmp_path):
    good = write_trajectory(
        tmp_path / "BENCH_good.json",
        [record("a", speedup=3.0), record("a", speedup=3.2)],
    )
    bad = write_trajectory(
        tmp_path / "BENCH_bad.json",
        [record("a", speedup=4.0), record("a", speedup=1.0)],
    )
    assert main([str(good)]) == 0
    assert main([str(good), str(bad)]) == 1
    assert main([str(good), str(bad), "--threshold", "0.8"]) == 0
    assert main([str(tmp_path / "BENCH_missing.json")]) == 0  # skip, not crash


def test_incremental_record_scores_on_speedup(tmp_path):
    # The shape bench_incremental.py appends: speedup is the gate
    # score, the per-event timings ride along as telemetry.
    shaped = record(
        "incremental/streaming_tc",
        smoke=False,
        speedup=7.5,
        maintained_ms=820.0,
        recompute_ms=6150.0,
        events=200,
    )
    assert score_of(shaped) == 7.5
    path = write_trajectory(
        tmp_path / "BENCH_incremental.json",
        [shaped, record("incremental/streaming_tc", speedup=2.0, events=200)],
    )
    failures, _ = check_trajectory(path, threshold=0.25)
    assert failures and "incremental/streaming_tc" in failures[0]
