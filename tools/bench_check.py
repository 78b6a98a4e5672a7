#!/usr/bin/env python3
"""Gate the benchmark trajectories against performance regressions.

The benchmarks append one record per run to the ``BENCH_*.json``
trajectory files (see ``tools/bench_record.py``), so the files hold
the perf history across PRs.  This tool turns that history into a CI
gate: for every bench key, the **newest** record's score must not
fall more than ``--threshold`` (default 25%) below the **best prior**
record for the same key.

A record's *score* is a single higher-is-better scalar extracted from
its payload, by convention:

* the top-level ``"probe_ratio"`` field when present (deterministic
  work counters beat wall-clock ratios for gating: the seeded
  workloads make them machine-independent), else
* the top-level ``"speedup"`` field (every head-to-head bench records
  one), else
* the top-level ``"requests_per_sec"`` field (the serving bench's
  throughput headline), else
* the mean of the per-workload ``"speedup"`` values under a
  ``"workloads"`` mapping.

Independently of the primary score, a record carrying a top-level
``"lane_fill"`` field (the serving bench's batching-efficiency ratio)
gates that metric the same way: the newest value must not fall more
than the threshold below the best prior for the same bench key.  A
throughput win bought by abandoning lane coalescing is still a
serving regression.

Records with none of these (pure telemetry, e.g. incremental-cone
statistics) are unscored: a key whose records are *all* unscored
never gates, but a key whose **newest** record is unscored while
earlier ones carried scores fails -- the bench stopped emitting its
gating metric, which is a broken gate, not a pass.  A bench key with
fewer than two scored records skips cleanly -- a brand-new bench
cannot regress against itself.  Smoke-mode records (``"smoke": true``,
shrunk sweeps) gate separately from full-mode records of the same
bench key: the two run different representative scales, so comparing
across modes would measure the sweep, not the code.

Usage::

    python tools/bench_check.py                 # all BENCH_*.json in repo root
    python tools/bench_check.py BENCH_x.json    # explicit files
    python tools/bench_check.py --threshold 0.4 # looser gate

Exit code 1 iff any bench key regressed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.bench_record import load_records  # noqa: E402

DEFAULT_THRESHOLD = 0.25


def score_of(record: dict) -> Optional[float]:
    """Higher-is-better scalar for *record*, or None if unscored."""
    for key in ("probe_ratio", "speedup", "requests_per_sec"):
        value = record.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    workloads = record.get("workloads")
    if isinstance(workloads, dict):
        speedups = [
            w["speedup"]
            for w in workloads.values()
            if isinstance(w, dict) and isinstance(w.get("speedup"), (int, float))
        ]
        if speedups:
            return sum(speedups) / len(speedups)
    return None


#: Secondary higher-is-better metrics gated alongside the primary score.
AUX_METRICS = ("lane_fill",)


def aux_scores(record: dict) -> Dict[str, float]:
    """The record's auxiliary gated metrics (may be empty)."""
    out: Dict[str, float] = {}
    for key in AUX_METRICS:
        value = record.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = float(value)
    return out


def check_trajectory(
    path: Path, threshold: float
) -> Tuple[List[str], List[str]]:
    """``(failures, notes)`` for one trajectory file.

    Records are grouped by their ``"bench"`` key and smoke/full mode
    in file order (the files are append-only, so order is chronology).
    """
    failures: List[str] = []
    notes: List[str] = []
    by_key: Dict[str, List[dict]] = {}
    for record in load_records(path):
        key = record.get("bench", "?")
        if record.get("smoke"):
            key += " [smoke]"
        by_key.setdefault(key, []).append(record)

    for key, records in sorted(by_key.items()):
        scored = [(r, score_of(r)) for r in records]
        unscored = sum(1 for _, s in scored if s is None)
        scores = [s for _, s in scored if s is not None]
        if unscored == len(records):
            notes.append(f"SKIP {path.name}:{key}: {len(records)} unscored record(s)")
            continue
        if scored[-1][1] is None:
            # A bench that used to emit a score and stopped is a broken
            # gate, not a pass: fail loudly instead of silently
            # comparing stale prior records against each other.
            failures.append(
                f"FAIL {path.name}:{key}: newest record is unscored but "
                f"{len(scores)} earlier record(s) carry scores -- the bench "
                "stopped emitting its gating metric"
            )
            continue
        if len(scores) < 2:
            notes.append(
                f"SKIP {path.name}:{key}: only {len(scores)} scored record(s), "
                "nothing to compare against"
            )
            continue
        newest = scores[-1]
        best_prior = max(scores[:-1])
        floor = best_prior * (1.0 - threshold)
        verdict = "FAIL" if newest < floor else "OK"
        line = (
            f"{verdict} {path.name}:{key}: newest {newest:.3f} vs best prior "
            f"{best_prior:.3f} (floor {floor:.3f}, threshold {threshold:.0%})"
        )
        if newest < floor:
            failures.append(line)
        else:
            notes.append(line)

        # Auxiliary metrics (e.g. lane_fill) gate independently of the
        # primary score for the same key.
        for metric in AUX_METRICS:
            history = [aux_scores(r).get(metric) for r in records]
            values = [v for v in history if v is not None]
            if len(values) < 2 or history[-1] is None:
                continue
            newest_aux = values[-1]
            best_aux = max(values[:-1])
            aux_floor = best_aux * (1.0 - threshold)
            aux_line = (
                f"{'FAIL' if newest_aux < aux_floor else 'OK'} {path.name}:{key} "
                f"[{metric}]: newest {newest_aux:.3f} vs best prior {best_aux:.3f} "
                f"(floor {aux_floor:.3f})"
            )
            if newest_aux < aux_floor:
                failures.append(aux_line)
            else:
                notes.append(aux_line)
    return failures, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "trajectories",
        nargs="*",
        type=Path,
        help="trajectory files (default: BENCH_*.json in the repo root)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional drop below the best prior score (default 0.25)",
    )
    args = parser.parse_args(argv)

    paths = args.trajectories or sorted(REPO.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json trajectories found; nothing to gate")
        return 0

    failures: List[str] = []
    for path in paths:
        if not path.exists():
            print(f"SKIP {path}: no such file")
            continue
        file_failures, notes = check_trajectory(path, args.threshold)
        for line in notes:
            print(line)
        for line in file_failures:
            print(line)
        failures.extend(file_failures)

    if failures:
        print(f"{len(failures)} benchmark regression(s) beyond the threshold")
        return 1
    print("bench trajectories OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
