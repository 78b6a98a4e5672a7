"""Workload ``serve_http``: served traffic against ``CircuitServer``.

The server runs in its own process (``server_main.py``).  Set-up
registers transitive closure over ``random_digraph(96, 288)`` with
output ``T(0,95)``, the graph's vertices renamed by the seed
(``common.Relabel``).  The load generator is one asyncio process
holding 2 keep-alive connections.  The measured phase is first an open
loop at a fixed rate, then a closed loop over both connections.  The
mix is 85% ``/boolean`` point queries, each setting a random half of
the edges true, 10% ``/evaluate`` tropical valuations and 5% ``/facts``
reweights of known leaves.  Every query carries a full assignment, so
its answer does not depend on the order of writes, and every answer is
compared with in-process evaluation of the same compiled circuit.

This is the only workload where the serve layer does real work: with
two connections at most two point queries wait in a 64-query lane, so
the batcher's flush timer is a large share of a Boolean request.

Unit operation: one open-loop request, timed from when it was due.
The rate is about a fifth of the closed-loop maximum: at about half of
it, requests queued behind the one server process, so that every
slowdown of the host moved their latency several times as much.  The
open loop is cut into stretches of two seconds with a calibration
between them, and the median latency of the fastest stretch is
reported, unscaled (``common.Measures.op_seconds`` says why).  Pass: the same 64 requests of the mix
sent in a closed loop over both connections, repeated.
"""

from __future__ import annotations

import asyncio
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from common import SHAPE_SEED, Measures, Relabel, Tally, percentile, read_program_text

import repro.datalog.parser as parser
from repro import api
from repro.datalog.ast import Fact
from repro.semirings import TROPICAL
from repro.serving import CircuitClient, ServerError
from repro.workloads import random_digraph

COVERAGE_LAYERS = ("serve",)

#: Open-loop arrival rate (requests per second), about a fifth of the
#: closed-loop maximum measured on a 2-core machine.
RATE = 40.0
#: Seconds of the open loop whose requests form one stretch.
STRETCH = 2.0
VERTICES = 96
CONNECTIONS = 2
PASS_REQUESTS = 64
OPEN_SHARE = 2 / 3
MIX = (("boolean", 0.85), ("evaluate", 0.10), ("facts", 0.05))
POOL_BOOLEAN = 512
POOL_EVALUATE = 64
POOL_FACTS = 64
SCHEDULE = 8192

SERVER_MAIN = Path(__file__).resolve().parent / "server_main.py"


@dataclass
class State:
    process: subprocess.Popen
    host: str
    port: int
    key: str = ""
    register_ms: float = 0.0
    schedule: List[tuple] = field(default_factory=list)
    position: int = PASS_REQUESTS
    boolean: List[list] = field(default_factory=list)
    boolean_expected: List[bool] = field(default_factory=list)
    evaluate: List[dict] = field(default_factory=list)
    evaluate_expected: List[float] = field(default_factory=list)
    facts: List[dict] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)


def _spawn() -> State:
    process = subprocess.Popen(
        [sys.executable, str(SERVER_MAIN)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline().split()
    if len(line) != 2:
        _stop(process)
        raise RuntimeError("the server process did not report its address")
    return State(process, line[0], int(line[1]))


def _stop(process: subprocess.Popen) -> None:
    try:
        process.stdin.close()
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    finally:
        process.stdout.close()


def setup(seed: int) -> State:
    rng = random.Random(SHAPE_SEED)
    rename = Relabel(VERTICES, seed)
    program_text = read_program_text("transitive_closure.dl")
    shape = random_digraph(VERTICES, 3 * VERTICES, seed=SHAPE_SEED)
    # Renamed in the shape's order, so that the pools drawn below are
    # the same for every seed up to the names.
    facts = [rename.fact(f) for f in sorted(shape.facts(), key=repr)]
    output = Fact("T", (rename(0), rename(VERTICES - 1)))
    compiled = api.Session(parser.parse_program(program_text), rename.database(shape)).compiled(output)
    labels = set(compiled.var_labels)
    leaves = [f for f in facts if f in labels]

    boolean = [[f for f in facts if rng.random() < 0.5] for _ in range(POOL_BOOLEAN)]
    evaluate = [{f: float(rng.randint(1, 9)) for f in facts} for _ in range(POOL_EVALUATE)]
    reweights = [{rng.choice(leaves): float(rng.randint(1, 9))} for _ in range(POOL_FACTS)]
    kinds, weights = zip(*MIX)
    pools = {"boolean": POOL_BOOLEAN, "evaluate": POOL_EVALUATE, "facts": POOL_FACTS}
    schedule = []
    for kind in rng.choices(kinds, weights, k=SCHEDULE):
        schedule.append((kind, rng.randrange(pools[kind])))

    state = _spawn()
    try:
        state.boolean = [[repr(f) for f in query] for query in boolean]
        state.boolean_expected = compiled.evaluate_boolean_batch([frozenset(q) for q in boolean])
        state.evaluate = [{repr(f): w for f, w in v.items()} for v in evaluate]
        state.evaluate_expected = compiled.evaluate_batch(TROPICAL, evaluate)
        state.facts = [{repr(f): w for f, w in v.items()} for v in reweights]
        state.schedule = schedule
        asyncio.run(_register(state, program_text, facts, output))
    except BaseException:
        _stop(state.process)
        raise
    return state


async def _register(state: State, program_text: str, facts, output) -> None:
    async with CircuitClient(state.host, state.port, retry=None) as client:
        start = time.perf_counter()
        report = await client.register(program_text, facts, output)
        state.register_ms = 1e3 * (time.perf_counter() - start)
        state.key = report["key"]
        # Warm the paths a first request would otherwise pay for: the
        # kernels of both semirings and the stream the first write attaches.
        await client.boolean(state.key, state.boolean[0])
        await client.evaluate(state.key, "tropical", state.evaluate[0])
        await client.facts(state.key, weights=state.facts[0])


async def _send(state: State, client: CircuitClient, kind: str, index: int, tally: Tally) -> bool:
    """One request of the mix, its answer checked; True if it succeeded."""
    key = state.key
    try:
        if kind == "boolean":
            value = await client.boolean(key, state.boolean[index])
            expected = state.boolean_expected[index]
        elif kind == "evaluate":
            value = await client.evaluate(key, "tropical", state.evaluate[index])
            expected = state.evaluate_expected[index]
        else:
            report = await client.facts(key, weights=state.facts[index])
            value = (report["reweighted"], report["recompiled"], report["degraded"])
            expected = (1, False, False)
    except (ServerError, ConnectionError, asyncio.IncompleteReadError) as exc:
        tally.error(f"/{kind}", exc)
        return False
    return tally.check(value == expected, f"/{kind} #{index}: served {value}, expected {expected}")


def _next(state: State) -> tuple:
    kind, index = state.schedule[state.position]
    state.position = max(PASS_REQUESTS, (state.position + 1) % len(state.schedule))
    return kind, index


async def _open_loop(state, clients, seconds, tally, out, tracer) -> None:
    queue: asyncio.Queue = asyncio.Queue()
    lags: List[float] = []
    count = int(seconds * RATE)
    per_stretch = int(STRETCH * RATE)

    async def produce():
        start = time.perf_counter()
        for i in range(count):
            if i % per_stretch == 0:
                # Blocks the loop for about 12 ms: the requests due
                # meanwhile wait, a small share of a stretch.
                out.calibrate()
                out.windows.append(([], len(out.calibrations)))
            due = start + i / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            queue.put_nowait((i, due, _next(state)))
        for _ in clients:
            queue.put_nowait(None)

    async def consume(client):
        while True:
            item = await queue.get()
            if item is None:
                return
            i, due, (kind, index) = item
            sent = time.perf_counter()
            ok = await _send(state, client, kind, index, tally)
            done = time.perf_counter()
            if ok:
                out.windows[i // per_stretch][0].append(done - due)
            if tracer is not None:
                tracer.record(f"serve.{kind}", "serve", sent, done)

    tasks = [asyncio.create_task(consume(c)) for c in clients]
    await produce()
    await asyncio.gather(*tasks)
    out.calibrate()
    out.covered = sum(out.latencies)
    out.notes["gen_lag_ms"] = 1e3 * sum(lags) / len(lags) if lags else 0.0


async def _closed_loop(state, clients, seconds, tally, out) -> None:
    """The first PASS_REQUESTS requests of the schedule, over and over."""
    deadline = time.perf_counter() + seconds
    burst = state.schedule[:PASS_REQUESTS]

    async def drive(requests, client):
        for kind, index in requests:
            await _send(state, client, kind, index, tally)

    while True:
        start = time.perf_counter()
        await asyncio.gather(
            *(drive(burst[i :: len(clients)], c) for i, c in enumerate(clients))
        )
        out.add("burst", time.perf_counter() - start)
        out.calibrate()
        out.passes += 1
        if time.perf_counter() >= deadline:
            return


def _lane_stats(stats: dict) -> tuple:
    lanes = stats["per_circuit"][next(iter(stats["per_circuit"]))]["boolean_lanes"]
    resilience = stats["resilience"]
    shed = resilience.get("shed_requests", 0) + resilience.get("shed_connections", 0)
    return lanes["batches"], lanes["items"], lanes["timer_flushes"], shed


async def _measure(state, seconds, tally, tracer) -> Measures:
    out = Measures()
    clients = [CircuitClient(state.host, state.port, retry=None) for _ in range(CONNECTIONS)]
    try:
        for client in clients:
            await client.connect()
        before = _lane_stats(await clients[0].stats())
        await _open_loop(state, clients, seconds * OPEN_SHARE, tally, out, tracer)
        await _closed_loop(state, clients, seconds * (1 - OPEN_SHARE), tally, out)
        after = _lane_stats(await clients[0].stats())
    finally:
        for client in clients:
            await client.close()
    batches, items, timer_flushes, shed = (a - b for a, b in zip(after, before))
    out.notes.update(
        lane_fill=items / (batches * 64) if batches else 0.0,
        timer_flush_share=timer_flushes / batches if batches else 0.0,
        shed=shed,
    )
    return out


def measure(state: State, seconds: float, tally: Tally, tracer=None) -> Measures:
    out = asyncio.run(_measure(state, seconds, tally, tracer))
    state.stats = dict(out.notes)
    return out


def close(state: State) -> None:
    _stop(state.process)


def layer_metrics(state: State, measures) -> dict:
    return {
        "serve.register_ms": state.register_ms,
        "serve.lane_fill": state.stats.get("lane_fill", 0.0),
        "serve.timer_flush_share": state.stats.get("timer_flush_share", 0.0),
        "serve.shed": state.stats.get("shed", 0),
        "serve.gen_lag_ms": state.stats.get("gen_lag_ms", 0.0),
        "serve.req_ms_p99": 1e3 * percentile(measures.latencies, 99),
    }
