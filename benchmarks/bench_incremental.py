"""Differential maintenance vs recompute-from-scratch on a fact stream.

The :class:`~repro.datalog.incremental.MaintainedFixpoint` (DESIGN.md
§11) keeps the columnar ground program and its fixpoint values live
across single-fact inserts, retracts and reweights: an insert pays a
delta-join regrounding plus a monotone ascent over the touched cone, a
retract or a worsening reweight pays a restricted recompute of the
changed fact's witness region (tropical is absorptive and selective),
on a Boolean liveness state first and then on the tracked semiring.
The baseline is what every prior PR did
on a database mutation -- throw the grounding and fixpoint away and
recompute from scratch with the default batch pipeline (the columnar
fast path).

Workload: the sliding-window streaming graph of
:func:`repro.workloads.sliding_window_stream` -- a pinned backbone
path ``0 → ... → n-1`` plus a FIFO window of 2n random edges with
integer tropical weights, churned by inserts/expiries/reweights.  The
query is shortest-path TC, read as ``T(0, n-1)`` after every event.

The ISSUE 7 acceptance bar: **≥ 5× wall-clock** over per-event
recompute at representative scale.  Every sweep point doubles as a
stream-vs-recompute equivalence test: the per-event output values must
match exactly (integer weights make tropical arithmetic exact), and at
end of stream the maintained ground-rule set and full value map must
equal a from-scratch grounding and solve of the final database.

Results append to ``BENCH_incremental.json`` via
``tools/bench_record.py``; ``tools/bench_check.py`` gates the recorded
``speedup`` trajectory.  Smoke mode (``BENCH_SMOKE=1``, set by CI)
keeps the representative scale and every assert but shortens the
stream.
"""

import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_record import append_record  # noqa: E402

from repro.datalog import (  # noqa: E402
    Fact,
    FixpointEngine,
    MaintainedFixpoint,
    columnar_grounding,
    transitive_closure,
)
from repro.semirings import TROPICAL  # noqa: E402
from repro.workloads import apply_event, sliding_window_stream  # noqa: E402

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

TC = transitive_closure()
ENGINE = FixpointEngine()

# Representative scale: recompute cost grows with the whole problem
# (every event pays a full ground + fixpoint over ~3n live edges)
# while maintenance pays only the touched cone, so the gap widens with
# n -- the bar is asserted where both costs are join/fixpoint
# dominated.  Smoke keeps the representative n and shortens the stream.
SWEEP = (96,) if SMOKE else (48, 96)
REPRESENTATIVE = 96
NUM_EVENTS = 60 if SMOKE else 200
SEED = 7

TRAJECTORY = REPO_ROOT / "BENCH_incremental.json"


def stream_workload(n):
    database, events = sliding_window_stream(n, window=2 * n, num_events=NUM_EVENTS, seed=SEED)
    return database, events, Fact("T", (0, n - 1))


def run_maintained(database, events, output):
    """Maintained pass: apply each event, read the output value O(1)."""
    db = database.copy()
    fixpoint = MaintainedFixpoint(TC, db, semirings=(TROPICAL,))
    values = []
    for event in events:
        apply_event(db, event)
        values.append(fixpoint.value(output, TROPICAL))
    return fixpoint, db, values


def run_recompute(database, events, output):
    """Baseline pass: apply each event, recompute the fixpoint from scratch."""
    db = database.copy()
    values = []
    for event in events:
        apply_event(db, event)
        values.append(ENGINE.evaluate(TC, db, TROPICAL).value(output))
    return db, values


def head_to_head(n):
    database, events, output = stream_workload(n)
    start = time.perf_counter()
    fixpoint, maintained_db, maintained = run_maintained(database, events, output)
    maintained_seconds = time.perf_counter() - start
    start = time.perf_counter()
    recompute_db, recomputed = run_recompute(database, events, output)
    recompute_seconds = time.perf_counter() - start

    # Stream-vs-recompute equivalence: every event's output value, then
    # the full end-of-stream state (ground-rule set and value map).
    assert maintained == recomputed, n
    final = ENGINE.evaluate(TC, recompute_db, TROPICAL)
    assert fixpoint.values(TROPICAL) == final.values, n
    assert fixpoint.rule_keys() == columnar_grounding(TC, recompute_db).rule_keys(), n

    return dict(
        n=n,
        events=len(events),
        seconds_maintained=maintained_seconds,
        seconds_recompute=recompute_seconds,
        event_ms_maintained=1e3 * maintained_seconds / len(events),
        event_ms_recompute=1e3 * recompute_seconds / len(events),
        speedup=recompute_seconds / max(maintained_seconds, 1e-9),
    )


def print_table(rows):
    print("\n== differential maintenance vs per-event recompute (tropical TC) ==")
    print(
        f"{'n':>6} {'events':>7} {'maint ms/ev':>12} {'recomp ms/ev':>13} {'speedup':>8}"
    )
    for row in rows:
        print(
            f"{row['n']:>6} {row['events']:>7} {row['event_ms_maintained']:>12.2f} "
            f"{row['event_ms_recompute']:>13.2f} {row['speedup']:>7.2f}x"
        )


def test_incremental_streaming_tc(benchmark):
    rows = [head_to_head(n) for n in SWEEP]
    print_table(rows)
    representative = next(row for row in rows if row["n"] == REPRESENTATIVE)
    # The acceptance bar: ≥ 5× over per-event recompute at scale.
    assert representative["speedup"] >= 5.0, representative
    record = append_record(
        TRAJECTORY,
        "incremental/streaming_tc",
        {
            "smoke": SMOKE,
            "speedup": representative["speedup"],
            "maintained_ms": 1e3 * representative["seconds_maintained"],
            "recompute_ms": 1e3 * representative["seconds_recompute"],
            "events": representative["events"],
            "rows": rows,
        },
    )
    print(f"recorded {record['bench']}: speedup {record['speedup']:.2f}x")

    database, events, output = stream_workload(REPRESENTATIVE)
    short = events[: min(20, len(events))]
    benchmark(run_maintained, database, short, output)
