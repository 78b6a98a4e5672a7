"""Seeded chaos suite for the serving stack (DESIGN.md §12).

The resilience contract under deterministic fault injection: every
response a client observes is either **exactly correct** (crosschecked
against direct in-process evaluation of the same circuit) or an
**explicit, well-formed 4xx/5xx** -- never a hang (every scenario runs
under an outer ``asyncio.wait_for`` bound), never a silently wrong
answer, never a fabricated response parsed out of a torn frame.

Faults are drawn from :class:`repro.testing.FaultInjector` streams
seeded by ``CHAOS_SEED`` (env; default 0), so a CI matrix varies the
seed and any failure reproduces from its seed number.  Each scenario
asserts its plan actually fired -- a chaos test that injected nothing
proves nothing.
"""

import asyncio
import os
import random

from repro.api import Session
from repro.datalog import Database, Fact, parse_program
from repro.serving import CircuitClient, CircuitServer, RetryPolicy, ServerError
from repro.testing import (
    FLUSH_RAISE,
    FLUSH_SLOW,
    PARTIAL_WRITE,
    SOCKET_RESET,
    FaultInjector,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
SCENARIO_TIMEOUT = 120.0  # the "never a hang" bound

TC = "T(X,Y) :- E(X,Y).\nT(X,Z) :- T(X,Y), E(Y,Z)."
VERTICES = 6
EDGE_UNIVERSE = [f"E({u},{v})" for u in range(VERTICES) for v in range(u + 1, VERTICES)]
EDGES = ["E(0,1)", "E(1,2)", "E(2,3)", "E(3,4)", "E(0,2)"]

#: Statuses the server is allowed to answer with under faults.  Wrong
#: *values* are forbidden; these explicit failures are the contract.
ALLOWED_ERROR_STATUSES = {400, 404, 408, 413, 422, 500, 503, 504}


def run_bounded(coro):
    return asyncio.run(asyncio.wait_for(coro, SCENARIO_TIMEOUT))


def oracle(edges, output):
    """Direct in-process evaluation: the ground truth for crosschecks."""
    program = parse_program(TC, target="T")
    database = Database()
    for edge in edges:
        u, v = edge[2:-1].split(",")
        database.add_fact(Fact("E", (int(u), int(v))))
    return Session(program, database)


def expected_boolean(session, output, true_facts):
    compiled = session.compiled(output)
    subset = frozenset(
        Fact("E", tuple(int(x) for x in f[2:-1].split(","))) for f in true_facts
    )
    return compiled.evaluate_boolean_batch([subset])[0]


# -- wire chaos: resets, torn frames, flush failures -----------------------


def test_boolean_queries_survive_wire_and_kernel_chaos():
    seed = CHAOS_SEED
    injector = FaultInjector(
        seed=seed,
        rates={
            SOCKET_RESET: 0.10,
            PARTIAL_WRITE: 0.10,
            FLUSH_RAISE: 0.05,
            FLUSH_SLOW: 0.05,
        },
        delays={FLUSH_SLOW: 0.005},
    )
    plan_rng = random.Random(f"chaos-plan:{seed}")
    output = "T(0,4)"
    session = oracle(EDGES, output)
    output_fact = Fact("T", (0, 4))
    # Pre-plan every worker's queries so the traffic is a pure
    # function of the seed.
    workers, per_worker = 8, 12
    plans = [
        [
            [f for f in EDGES if plan_rng.random() < 0.7]
            for _ in range(per_worker)
        ]
        for _ in range(workers)
    ]
    expectations = [
        [expected_boolean(session, output_fact, subset) for subset in plan]
        for plan in plans
    ]

    async def scenario():
        server = CircuitServer(fault_injector=injector)
        host, port = await server.start()
        register_client = CircuitClient(host, port)
        reg = await register_client.register(TC, EDGES, output, target="T")
        key = reg["key"]
        wrong, ok, failed = [], 0, 0

        async def worker(worker_id):
            nonlocal ok, failed
            client = CircuitClient(
                host,
                port,
                retry=RetryPolicy(max_attempts=6, base_delay=0.005, budget=64.0),
                retry_seed=seed * 1000 + worker_id,
            )
            try:
                for subset, want in zip(plans[worker_id], expectations[worker_id]):
                    try:
                        got = await client.boolean(key, subset)
                    except ServerError as exc:
                        assert exc.status in ALLOWED_ERROR_STATUSES
                        failed += 1
                        continue
                    except (ConnectionError, asyncio.IncompleteReadError):
                        failed += 1  # explicit failure: retries exhausted
                        continue
                    if got is not want:
                        wrong.append((worker_id, subset, want, got))
                    else:
                        ok += 1
            finally:
                await client.close()

        await asyncio.gather(*[worker(i) for i in range(workers)])
        # The contract: zero silently wrong answers, ever.
        assert wrong == []
        # The run was real: most queries succeeded AND faults fired.
        assert ok > workers * per_worker // 2
        assert sum(injector.fired.values()) > 0
        # The server survived the whole storm.
        assert (await register_client.healthz())["status"] == "ok"
        stats = await register_client.stats()
        assert stats["resilience"]["internal_errors"] >= injector.fired[FLUSH_RAISE]
        await register_client.close()
        await server.close()

    run_bounded(scenario())


def test_mixed_chaos_full_stack():
    """Everything at once, at lower rates: wire faults over a mutating
    circuit, queries crosschecked between deltas."""
    seed = CHAOS_SEED
    injector = FaultInjector(
        seed=seed,
        rates={
            SOCKET_RESET: 0.06,
            PARTIAL_WRITE: 0.06,
            FLUSH_RAISE: 0.04,
        },
    )
    plan_rng = random.Random(f"chaos-mixed:{seed}")
    output = "T(0,4)"
    output_fact = Fact("T", (0, 4))

    async def scenario():
        server = CircuitServer(fault_injector=injector)
        host, port = await server.start()
        client = CircuitClient(
            host,
            port,
            retry=RetryPolicy(max_attempts=6, base_delay=0.005, budget=64.0),
            retry_seed=seed,
        )
        reg = await client.register(TC, EDGES, output, target="T")
        key = reg["key"]
        live = list(EDGES)
        ok = failed = 0
        for step in range(30):
            roll = plan_rng.random()
            try:
                if roll < 0.35:
                    candidates = [e for e in EDGE_UNIVERSE if e not in live]
                    if candidates:
                        edge = candidates[plan_rng.randrange(len(candidates))]
                        await client.facts(key, insert=[edge])
                        live.append(edge)
                elif roll < 0.5 and len(live) > 1:
                    edge = live[plan_rng.randrange(len(live))]
                    await client.facts(key, retract=[edge])
                    live.remove(edge)
                else:
                    want = expected_boolean(oracle(live, output), output_fact, live)
                    got = await client.boolean(key, live)
                    assert got is want, (step, live)
                    ok += 1
            except ServerError as exc:
                assert exc.status in ALLOWED_ERROR_STATUSES
                failed += 1
            except (ConnectionError, asyncio.IncompleteReadError):
                failed += 1
        assert ok > 0
        assert sum(injector.fired.values()) > 0
        # Liveness to the end: disarm the injector, then a fresh client
        # must get the exact answer on the first clean attempt.
        injector.rates = {site: 0.0 for site in injector.rates}
        finale = CircuitClient(host, port)
        want = expected_boolean(oracle(live, output), output_fact, live)
        assert await finale.boolean(key, live) is want
        await finale.close()
        await client.close()
        await server.close()

    run_bounded(scenario())
