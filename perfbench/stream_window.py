"""Workload ``stream_window``: writes to a live sliding-window graph.

``sliding_window_stream(64, window=64)`` runs through
``Session.stream(TROPICAL)`` with one ``StreamSession.serve(T(0,63))``
circuit attached.  Set-up replays the stream up to its first expiry, so
the window is full, and only then attaches the stream and the served
circuit.  From there on the generator emits expiry/insert pairs, and
the benchmark follows each pair with a reweight of a random live
windowed edge, so retracts (DRed), inserts and reweights are exactly a
third each.  A fixed mix keeps the latency percentiles from sliding
between the three kinds' very different costs.  The stream is a fixed
shape with its vertices renamed by the seed (``common.Relabel``).
After each event the benchmark reads the maintained value and the
served value of ``T(0,63)`` and checks that they agree; at the end the
maintained values must equal a fresh solve of the replayed database.

A pass replays the same block of 30 events on a fresh replica of the
full window (built untimed), so every event is timed once per pass.

Maintain does most of the work here and none elsewhere.  An insert that
adds a leaf the served circuit lacks rebuilds that circuit: construct
builds it, compile freezes it and evaluate seeds a new incremental
evaluator, whose kernel generation is the largest single share.

Unit operation: one event with both reads.  Pass: the 30-event block.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, Optional

from common import SHAPE_SEED, Measures, Relabel, Tally, percentile, read_program_text
from tracing import paused

import repro.datalog.parser as parser
from repro import api
from repro.api import ExecutionConfig
from repro.datalog.ast import Fact
from repro.semirings import TROPICAL
from repro.workloads.streaming import replay_events, sliding_window_stream

#: A served rebuild constructs, compiles and then seeds an incremental
#: evaluator, so an event touches all of these layers.
COVERAGE_LAYERS = ("maintain", "construct", "ground", "compile", "evaluate")

VERTICES = 64
WINDOW = 64
#: Measured events per pass: ten expiries, ten inserts, ten reweights.
BLOCK = 30
#: Generated stream length: the pre-fill plus enough expiry/insert pairs.
EVENTS = WINDOW + BLOCK


@dataclass
class State:
    program: object
    initial: object
    events: list
    prefill: int
    output: Fact
    expected: Dict[Fact, object]
    replica: Optional[tuple] = None
    rebuilds: int = 0
    degradations: int = 0
    #: Gates and depth of the served circuit after the block.
    shape: tuple = (0, 0)


def _with_reweights(events: list, prefill: int, seed: int) -> list:
    """The stream with a reweight of a live windowed edge after every
    insert that follows the pre-fill."""
    rng = random.Random(seed)
    live = [fact for kind, fact, _ in events[:prefill] if kind == "insert"]
    out = list(events[:prefill])
    for kind, fact, weight in events[prefill:]:
        out.append((kind, fact, weight))
        if kind == "retract":
            live.remove(fact)
        elif kind == "insert":
            live.append(fact)
            out.append(("weight", rng.choice(live), float(rng.randint(1, 9))))
    return out


def _replica(state: State) -> tuple:
    """A fresh stream over the full window, with the served circuit."""
    database = replay_events(state.initial, state.events[: state.prefill])
    stream = api.Session(state.program, database).stream(TROPICAL)
    return stream, stream.serve(state.output, TROPICAL)


def setup(seed: int) -> State:
    program = parser.parse_program(read_program_text("transitive_closure.dl"))
    rename = Relabel(VERTICES, seed)
    initial, raw = sliding_window_stream(VERTICES, WINDOW, EVENTS, seed=SHAPE_SEED, reweight_probability=0.0)
    prefill = next(i for i, (kind, _, _) in enumerate(raw) if kind == "retract")
    events = [
        (kind, rename.fact(fact), weight)
        for kind, fact, weight in _with_reweights(raw, prefill, SHAPE_SEED)[: prefill + BLOCK]
    ]
    initial = rename.database(initial)
    expected = api.solve(
        program,
        replay_events(initial, events),
        TROPICAL,
        config=ExecutionConfig(engine="columnar", strategy="columnar"),
    ).values
    output = Fact("T", (rename(0), rename(VERTICES - 1)))
    state = State(program, initial, events, prefill, output, dict(expected))
    state.replica = _replica(state)
    return state


def measure(state: State, seconds: float, tally: Tally, tracer=None) -> Measures:
    out = Measures()
    out.calibrate()
    deadline = time.perf_counter() + seconds
    while True:
        if state.replica is None:
            with paused(tracer):
                state.replica = _replica(state)
        stream, served = state.replica
        state.replica = None
        mix = {"insert": 0, "retract": 0, "weight": 0}
        for position in range(state.prefill, len(state.events)):
            kind, fact, weight = state.events[position]
            try:
                with out.timed(f"event{position - state.prefill:03d}", op=True):
                    if kind == "insert":
                        stream.insert(fact, weight=weight)
                    elif kind == "retract":
                        stream.retract(fact)
                    else:
                        stream.set_weight(fact, weight)
                    maintained = stream.value(state.output, TROPICAL)
                    live = served.value()
            except Exception as exc:  # a failed event is counted, not fatal
                tally.error(f"{kind} {fact}", exc)
                break
            out.calibrate()
            mix[kind] += 1
            tally.check(maintained == live, f"{kind} {fact}: maintained {maintained} != served {live}")
        tally.check(
            stream.values(TROPICAL) == state.expected,
            "maintained values differ from a fresh solve at the end of the stream",
        )
        state.rebuilds, state.degradations = served.rebuilds, stream.degradations
        circuit = served.evaluator.compiled.circuit
        state.shape = (circuit.num_gates, circuit.depth)
        out.notes["mix"] = mix
        out.passes += 1
        if time.perf_counter() >= deadline:
            return out


def close(state: State) -> None:
    pass


def layer_metrics(state: State, measures) -> dict:
    events = [seconds for values in measures.samples.values() for seconds, _ in values]
    return {
        "construct.gates": state.shape[0],
        "construct.depth": state.shape[1],
        "maintain.rebuilds": state.rebuilds,
        "maintain.degradations": state.degradations,
        "maintain.event_ms_p90": 1e3 * percentile(events, 90),
    }
