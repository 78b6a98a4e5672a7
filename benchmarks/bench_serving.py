"""Load test for the CircuitServer serving layer (DESIGN.md §10).

An in-process :class:`repro.serving.CircuitServer` is saturated by a
fleet of persistent-connection clients firing Boolean point queries at
one registered transitive-closure circuit.  The bench records the
serving headlines into ``BENCH_serving.json``:

* ``requests_per_sec`` -- end-to-end throughput through the full
  stack (HTTP framing, routing, lane coalescing, bitset kernel), the
  trajectory's gated score;
* ``p50_ms`` / ``p99_ms`` -- per-request latency quantiles, including
  the micro-batching wait;
* ``lane_fill`` -- the fraction of 64-wide bitset lane slots actually
  carrying queries; the acceptance bar requires > 0.5 at saturation
  (the whole point of coalescing), and ``tools/bench_check.py`` gates
  it alongside throughput;
* ``lane_timer_flushes`` / ``lane_tick_flushes`` -- how many partial
  lanes waited out the batcher's full window and how many flushed on
  the next loop tick after a lone batch: a saturated burst should keep
  the full window (telemetry, not gated).

Every server answer is cross-checked against direct in-process
``evaluate_boolean_batch``/``evaluate`` calls on the same compiled
circuit, so the bench doubles as an end-to-end equivalence test under
concurrency.  Smoke mode (``BENCH_SMOKE=1``, set by CI) shrinks the
fleet and the per-worker query count but keeps saturation (more
workers than lane width) and every assert.

A second, smaller pass (``test_serving_resilience_under_faults``)
re-runs the load with a seeded :class:`repro.testing.FaultInjector`
armed and a deliberately tight admission limit, recording shed-rate
and p99-under-fault into the same trajectory as a telemetry-only
record (``serving/boolean_tc_faulted``): it carries none of the gated
score keys, so ``tools/bench_check.py`` skips it while the clean-run
``serving/boolean_tc`` scores stay gated.
"""

import asyncio
import os
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_record import append_record  # noqa: E402

from repro.api import Session  # noqa: E402
from repro.datalog import transitive_closure  # noqa: E402
from repro.semirings import TROPICAL  # noqa: E402
from repro.serving import (  # noqa: E402
    CircuitClient,
    CircuitServer,
    ResilienceConfig,
    RetryPolicy,
    ServerError,
)
from repro.testing import (  # noqa: E402
    FLUSH_RAISE,
    PARTIAL_WRITE,
    SOCKET_RESET,
    FaultInjector,
)
from repro.workloads import random_digraph  # noqa: E402

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: Fleet sizing: saturation means decisively more concurrent workers
#: than the 64-slot lane, so full-lane flushes dominate timer flushes.
WORKERS = 80 if SMOKE else 96
QUERIES_PER_WORKER = 15 if SMOKE else 40

GRAPH_N = 48
GRAPH_SEED = 7

#: The faulted pass runs a smaller fleet -- it measures resilience
#: telemetry (shed-rate, tail latency under faults), not throughput.
FAULT_WORKERS = 16 if SMOKE else 24
FAULT_QUERIES_PER_WORKER = 6 if SMOKE else 12
FAULT_SEED = int(os.environ.get("BENCH_FAULT_SEED", "7"))

TRAJECTORY = REPO_ROOT / "BENCH_serving.json"

TC = transitive_closure()


def build_workload():
    """The served instance: TC reachability on a random digraph."""
    database = random_digraph(GRAPH_N, 3 * GRAPH_N, seed=GRAPH_SEED)
    edges = sorted(database.facts(), key=repr)
    rng = random.Random(GRAPH_SEED)
    # An output pair that is reachable under the full edge set, so
    # random sub-assignments split both ways.
    session = Session(TC, database)
    reachable = sorted(session.solve().values, key=repr)
    output = reachable[len(reachable) // 2]
    # Pre-generated query mix: each query asserts a random ~half of the
    # edge set true.  Deterministic, so the direct crosscheck replays it.
    queries = [
        frozenset(fact for fact in edges if rng.random() < 0.5)
        for _ in range(WORKERS * QUERIES_PER_WORKER)
    ]
    return database, edges, output, queries


async def run_load(database, output, queries):
    """Saturate one server; returns (metrics, answers-in-query-order)."""
    program_text = "\n".join(repr(rule) + "." for rule in TC.rules)
    per_worker = [
        queries[w * QUERIES_PER_WORKER : (w + 1) * QUERIES_PER_WORKER]
        for w in range(WORKERS)
    ]
    answers = [[None] * QUERIES_PER_WORKER for _ in range(WORKERS)]
    latencies = []

    async with CircuitServer() as (host, port):
        setup = CircuitClient(host, port)
        reg = await setup.register(
            program_text, sorted(database.facts(), key=repr), output, target=TC.target
        )
        assert reg["cached"] is False
        key = reg["key"]

        workers = [CircuitClient(host, port) for _ in range(WORKERS)]
        for worker in workers:
            await worker.connect()

        async def drive(index, client):
            for q, true_facts in enumerate(per_worker[index]):
                start = time.perf_counter()
                answers[index][q] = await client.boolean(key, true_facts)
                latencies.append(time.perf_counter() - start)

        wall_start = time.perf_counter()
        await asyncio.gather(*[drive(i, w) for i, w in enumerate(workers)])
        wall = time.perf_counter() - wall_start

        stats = await setup.stats()
        for client in workers + [setup]:
            await client.close()

    total = WORKERS * QUERIES_PER_WORKER
    latencies.sort()
    lanes = stats["boolean_lanes"]
    circuit_lanes = stats["per_circuit"][key]["boolean_lanes"]
    metrics = {
        "requests": total,
        "workers": WORKERS,
        "wall_seconds": wall,
        "requests_per_sec": total / wall,
        "p50_ms": 1e3 * latencies[len(latencies) // 2],
        "p99_ms": 1e3 * latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))],
        "lane_fill": lanes["fill_ratio"],
        "lane_batches": lanes["batches"],
        "lane_timer_flushes": circuit_lanes["timer_flushes"],
        "lane_tick_flushes": circuit_lanes["tick_flushes"],
        "lane_width": lanes["lane_width"],
        "cache": stats["cache"],
    }
    flat_answers = [value for worker in answers for value in worker]
    return metrics, flat_answers


def crosscheck(database, output, queries, served_answers):
    """Server answers must equal direct evaluation, query for query."""
    session = Session(TC, database)
    compiled = session.compiled(output)
    direct = compiled.evaluate_boolean_batch(queries)
    assert served_answers == direct, "served Boolean answers diverge from evaluate()"
    # And the numeric route: spot-check tropical point valuations.
    weights = {fact: 1.0 for fact in database.facts()}
    expected = compiled.evaluate(TROPICAL, weights)

    async def numeric_probe():
        async with CircuitServer() as (host, port):
            async with CircuitClient(host, port) as client:
                program_text = "\n".join(repr(rule) + "." for rule in TC.rules)
                reg = await client.register(
                    program_text,
                    sorted(database.facts(), key=repr),
                    output,
                    target=TC.target,
                )
                return await client.evaluate(reg["key"], "tropical", weights)

    assert asyncio.run(numeric_probe()) == expected


def test_serving_boolean_throughput(benchmark):
    database, edges, output, queries = build_workload()
    metrics, served_answers = asyncio.run(run_load(database, output, queries))
    crosscheck(database, output, queries, served_answers)

    print(
        f"\n== CircuitServer load ({metrics['workers']} workers, "
        f"{metrics['requests']} requests) ==\n"
        f"throughput {metrics['requests_per_sec']:>10.0f} req/s\n"
        f"p50        {metrics['p50_ms']:>10.2f} ms\n"
        f"p99        {metrics['p99_ms']:>10.2f} ms\n"
        f"lane fill  {metrics['lane_fill']:>10.1%} over {metrics['lane_batches']} batches\n"
        f"flushes    {metrics['lane_timer_flushes']:>10d} timer, "
        f"{metrics['lane_tick_flushes']} tick"
    )

    # The acceptance bar: coalescing must actually fill lanes at
    # saturation -- more than half the slots of every paid bitset pass.
    assert metrics["lane_fill"] > 0.5, metrics

    record = append_record(
        TRAJECTORY,
        "serving/boolean_tc",
        {"smoke": SMOKE, **metrics},
    )
    print(
        f"recorded {record['bench']}: {record['requests_per_sec']:.0f} req/s, "
        f"lane fill {record['lane_fill']:.1%}, p99 {record['p99_ms']:.2f} ms"
    )

    # pytest-benchmark rider: the kernel-side cost of one full lane,
    # the unit the server amortizes per 64 coalesced requests.
    session = Session(TC, database)
    compiled = session.compiled(output)
    benchmark(compiled.evaluate_boolean_batch, queries[:64])


async def run_faulted_load(database, output, queries):
    """The smaller fleet under wire faults and admission pressure.

    Returns resilience telemetry.  The contract mirrors the chaos
    suite: every answer a worker keeps is exactly correct, every
    failure is an explicit error -- and here we additionally measure
    what the faults cost (shed-rate, retries, tail latency).
    """
    program_text = "\n".join(repr(rule) + "." for rule in TC.rules)
    per_worker = [
        queries[w * FAULT_QUERIES_PER_WORKER : (w + 1) * FAULT_QUERIES_PER_WORKER]
        for w in range(FAULT_WORKERS)
    ]
    answers = [[None] * FAULT_QUERIES_PER_WORKER for _ in range(FAULT_WORKERS)]
    latencies = []
    ok = failed = 0

    injector = FaultInjector(
        seed=FAULT_SEED,
        rates={SOCKET_RESET: 0.0, PARTIAL_WRITE: 0.0, FLUSH_RAISE: 0.0},
    )
    # max_inflight far below the fleet size forces admission shedding;
    # retry_after is tightened so shed retries don't dominate the wall.
    resilience = ResilienceConfig(max_inflight=4, retry_after=0.005)

    async with CircuitServer(
        resilience=resilience, fault_injector=injector
    ) as (host, port):
        setup = CircuitClient(host, port)
        reg = await setup.register(
            program_text, sorted(database.facts(), key=repr), output, target=TC.target
        )
        key = reg["key"]
        # Arm the faults only after clean registration: the measured
        # window is pure query traffic.
        injector.rates[SOCKET_RESET] = 0.08
        injector.rates[PARTIAL_WRITE] = 0.08
        injector.rates[FLUSH_RAISE] = 0.03

        workers = [
            CircuitClient(
                host,
                port,
                retry=RetryPolicy(max_attempts=6, base_delay=0.005, budget=64.0),
                retry_seed=FAULT_SEED * 1000 + w,
            )
            for w in range(FAULT_WORKERS)
        ]

        async def drive(index, client):
            nonlocal ok, failed
            try:
                for q, true_facts in enumerate(per_worker[index]):
                    start = time.perf_counter()
                    try:
                        answers[index][q] = await client.boolean(key, true_facts)
                    except ServerError:
                        failed += 1  # explicit, well-formed failure
                        continue
                    except (ConnectionError, asyncio.IncompleteReadError):
                        failed += 1  # retries exhausted, surfaced loudly
                        continue
                    latencies.append(time.perf_counter() - start)
                    ok += 1
            finally:
                await client.close()

        wall_start = time.perf_counter()
        await asyncio.gather(*[drive(i, w) for i, w in enumerate(workers)])
        wall = time.perf_counter() - wall_start

        retries = sum(w.retries for w in workers)
        # Disarm before the stats fetch so telemetry collection itself
        # cannot be torn by a late fault.
        injector.rates = {site: 0.0 for site in injector.rates}
        stats = await setup.stats()
        await setup.close()

    resilience_stats = stats["resilience"]
    sheds = resilience_stats["shed_requests"] + resilience_stats["shed_connections"]
    attempts = ok + failed + sheds
    latencies.sort()
    telemetry = {
        "fault_seed": FAULT_SEED,
        "fault_workers": FAULT_WORKERS,
        "fault_requests_ok": ok,
        "fault_requests_failed": failed,
        "fault_wall_seconds": wall,
        "fault_requests_per_sec": ok / wall,
        "p50_under_fault_ms": 1e3 * latencies[len(latencies) // 2],
        "p99_under_fault_ms": 1e3
        * latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))],
        "shed_rate": sheds / attempts,
        "sheds": sheds,
        "client_retries": retries,
        "faults_fired": dict(injector.fired),
        "server_internal_errors": resilience_stats["internal_errors"],
        "server_disconnects": resilience_stats["disconnects"],
    }
    flat_answers = [value for worker in answers for value in worker]
    return telemetry, flat_answers


def test_serving_resilience_under_faults():
    database, edges, output, queries = build_workload()
    fault_queries = queries[: FAULT_WORKERS * FAULT_QUERIES_PER_WORKER]
    telemetry, served = asyncio.run(run_faulted_load(database, output, fault_queries))

    # Exactness under chaos: every answer a worker kept matches direct
    # evaluation of the same query (failed slots stay None).
    session = Session(TC, database)
    compiled = session.compiled(output)
    direct = compiled.evaluate_boolean_batch(fault_queries)
    for got, want in zip(served, direct):
        assert got is None or got == want, "wrong answer served under faults"

    # The run was real: faults fired, the admission gate shed load, and
    # retries carried most of the traffic through anyway.
    assert sum(telemetry["faults_fired"].values()) > 0
    assert telemetry["sheds"] > 0
    assert telemetry["fault_requests_ok"] > len(fault_queries) // 2

    print(
        f"\n== CircuitServer faulted load ({telemetry['fault_workers']} workers, "
        f"seed {telemetry['fault_seed']}) ==\n"
        f"ok/failed  {telemetry['fault_requests_ok']}/{telemetry['fault_requests_failed']}\n"
        f"shed rate  {telemetry['shed_rate']:>10.1%} ({telemetry['sheds']} sheds)\n"
        f"retries    {telemetry['client_retries']:>10d}\n"
        f"p99        {telemetry['p99_under_fault_ms']:>10.2f} ms under fault"
    )

    # Telemetry-only record: no probe_ratio/speedup/requests_per_sec/
    # lane_fill keys, so tools/bench_check.py skips this bench key and
    # the clean-run serving scores stay gated.
    record = append_record(
        TRAJECTORY,
        "serving/boolean_tc_faulted",
        {"smoke": SMOKE, **telemetry},
    )
    print(
        f"recorded {record['bench']}: shed rate {record['shed_rate']:.1%}, "
        f"p99 under fault {record['p99_under_fault_ms']:.2f} ms"
    )
