"""End-to-end tests for the ``/circuits/<key>/facts`` streaming route.

The route's contract (DESIGN.md §10): a registered circuit stays
servable while the underlying database churns.  Fact deltas are
written straight to the entry's database and the compiled circuit is
re-evaluated under the new valuation -- retracted leaves are
completed to semiring ``0`` in every later assignment, and only an
insert introducing a leaf the compiled circuit has never seen forces
a recompile.  After *every* delta the Boolean lanes, the numeric
valuation route and the incremental update route must agree exactly
with direct in-process evaluation of the replayed database.

pytest-asyncio is not a dependency, so every test drives its own
event loop through ``asyncio.run``.
"""

import asyncio

import repro.api
from repro.api import solve
from repro.datalog import Database, Fact, parse_program
from repro.semirings import BOOLEAN, TROPICAL
from repro.serving import CircuitClient, CircuitServer, ServerError

TC = "T(X,Y) :- E(X,Y).\nT(X,Z) :- T(X,Y), E(Y,Z)."
PROGRAM = parse_program(TC, target="T")
OUT = Fact("T", (0, 3))

START = {
    Fact("E", (0, 1)): 1.0,
    Fact("E", (1, 2)): 2.0,
    Fact("E", (2, 3)): 3.0,
}

# (insert {fact: weight}, retract [facts]) steps; mirrors a sliding
# window: a shortcut arrives, gets reweighted, expires, then returns.
STEPS = [
    ({Fact("E", (0, 2)): 1.5}, []),
    ({}, [Fact("E", (1, 2))]),
    ({Fact("E", (1, 3)): 0.25}, [Fact("E", (0, 2))]),
    ({Fact("E", (1, 2)): 4.0}, []),
    ({}, [Fact("E", (1, 3))]),
]


def run(coro):
    return asyncio.run(coro)


async def with_server(scenario, **server_kwargs):
    async with CircuitServer(**server_kwargs) as (host, port):
        async with CircuitClient(host, port) as client:
            return await scenario(host, port, client)


def replay(weights):
    database = Database()
    for fact, weight in weights.items():
        database.add_fact(fact, weight=weight)
    return database


async def register(client):
    report = await client.register(
        TC, list(START), OUT, target="T", weights=START
    )
    return report["key"]


def test_facts_stream_matches_direct_replay():
    """The headline interleaving: after every delta, Boolean lanes,
    numeric valuations and a fresh solve of the replayed database all
    agree."""

    async def scenario(host, port, client):
        key = await register(client)
        live = dict(START)
        for insert, retract in STEPS:
            report = await client.facts(
                key,
                insert=[(fact, weight) for fact, weight in insert.items() if fact not in live],
                retract=retract,
                weights={f: w for f, w in insert.items() if f in live},
            )
            for fact in retract:
                live.pop(fact)
            live.update(insert)

            expected = solve(PROGRAM, replay(live), TROPICAL)
            expected_bool = solve(PROGRAM, replay(live), BOOLEAN)
            assert report["database_fingerprint"]

            # Numeric valuation from the updated base assignment.
            value = await client.evaluate(key, "tropical")
            assert value == expected.value(OUT)

            # Boolean point queries coalesce into lanes: fire several
            # concurrently so the batcher actually packs them.
            queries = [list(live), list(live)[:1], []]
            got = await asyncio.gather(
                *(client.boolean(key, q) for q in queries)
            )
            assert got[0] is bool(expected_bool.value(OUT))
            assert got[1] is False  # one edge cannot span 0 → 3
            assert got[2] is False

    run(with_server(scenario))


def test_facts_recompiles_only_for_unseen_leaves():
    async def scenario(host, port, client):
        key = await register(client)
        # Reweight and retract: the compiled circuit already knows
        # every touched leaf, so no recompile.
        reports = []
        report = await client.facts(key, weights={Fact("E", (1, 2)): 0.5})
        reports.append(report)
        assert report["recompiled"] is False and report["reweighted"] == 1
        report = await client.facts(key, retract=[Fact("E", (2, 3))])
        reports.append(report)
        assert report["recompiled"] is False and report["retracted"] == 1
        # Re-inserting a retracted edge: the circuit still has that
        # leaf, so a plain value push suffices.
        report = await client.facts(key, insert=[(Fact("E", (2, 3)), 1.0)])
        reports.append(report)
        assert report["recompiled"] is False and report["inserted"] == 1
        assert (await client.evaluate(key, "tropical")) == 2.5
        # A brand-new edge is an unseen input gate: recompile.
        report = await client.facts(key, insert=[(Fact("E", (0, 3)), 9.0)])
        reports.append(report)
        assert report["recompiled"] is True and report["inserted"] == 1
        assert (await client.evaluate(key, "tropical")) == 2.5
        # The wire contract keeps the key; no delta ever degrades.
        assert all(report["degraded"] is False for report in reports)

    run(with_server(scenario))


def test_facts_interleaves_with_update_sessions():
    """The sparse-delta /update route keeps working across fact
    deltas; its what-if baseline tracks the streamed database."""

    async def scenario(host, port, client):
        key = await register(client)
        before = await client.update(key, "tropical", {Fact("E", (0, 1)): 0.5})
        assert before["outputs"] == [5.5]
        await client.facts(key, weights={Fact("E", (2, 3)): 1.0})
        after = await client.update(key, "tropical", {Fact("E", (0, 1)): 0.5})
        assert after["outputs"] == [3.5]

    run(with_server(scenario))


def test_update_after_facts_serves_the_compiled_circuit(monkeypatch):
    """/update seeds from the entry's compiled circuit: a delta that
    adds no unseen leaf never re-runs the construction, and a leaf
    retracted without a recompile still takes point updates."""
    constructions = []
    build = repro.api.provenance_circuit

    def counting_build(*args, **kwargs):
        constructions.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(repro.api, "provenance_circuit", counting_build)

    async def scenario(host, port, client):
        key = await register(client)
        assert len(constructions) == 1
        await client.facts(key, weights={Fact("E", (2, 3)): 1.0})
        after = await client.update(key, "tropical", {Fact("E", (0, 1)): 0.5})
        assert after["outputs"] == [3.5]
        assert len(constructions) == 1

        report = await client.facts(key, retract=[Fact("E", (1, 2))])
        assert report["recompiled"] is False
        assert (await client.evaluate(key, "tropical")) == float("inf")
        probe = {Fact("E", (1, 2)): 0.5}
        update = await client.update(key, "tropical", probe)
        assert update["outputs"] == [2.5]
        assert update["outputs"] == [await client.evaluate(key, "tropical", probe)]
        assert len(constructions) == 1

    run(with_server(scenario))


def test_facts_validation_is_atomic():
    async def scenario(host, port, client):
        key = await register(client)
        baseline = await client.evaluate(key, "tropical")

        # One bad item anywhere rejects the whole delta untouched.
        try:
            await client.facts(
                key,
                insert=[Fact("E", (7, 8))],
                retract=[Fact("E", (9, 9))],
            )
        except ServerError as exc:
            assert exc.status == 400
        else:  # pragma: no cover
            raise AssertionError("expected HTTP 400")

        for bad in (
            dict(insert=[Fact("T", (0, 1))]),  # IDB facts never stream
            dict(),  # empty delta
        ):
            try:
                await client.facts(key, **bad)
            except ServerError as exc:
                assert exc.status == 400
            else:  # pragma: no cover
                raise AssertionError("expected HTTP 400")

        assert (await client.evaluate(key, "tropical")) == baseline

        # Bodies whose items each pass a check on their own but which
        # cannot all be written: none of their items may land.  A valid
        # unrelated write afterwards refreshes the served valuation, so
        # a half-applied body would show in the next answer.
        noop = {Fact("E", (2, 3)): START[Fact("E", (2, 3))]}
        fingerprint = (await client.facts(key, weights=noop))["database_fingerprint"]
        edge = Fact("E", (0, 1))
        for bad in (
            dict(retract=[edge, edge]),
            dict(retract=[edge], weights={edge: 5.0}),
            dict(weights={edge: 5.0, Fact("E", (9, 9)): 1.0}),
        ):
            try:
                await client.facts(key, **bad)
            except ServerError as exc:
                assert exc.status == 400
            else:  # pragma: no cover
                raise AssertionError(f"expected HTTP 400 for {bad}")
            report = await client.facts(key, weights=noop)
            assert report["database_fingerprint"] == fingerprint
            assert (await client.evaluate(key, "tropical")) == baseline
            assert (await client.boolean(key, list(START))) is True

    run(with_server(scenario))


def test_null_reweight_evaluates_as_semiring_one():
    """A ``null`` weight means "unannotated", i.e. the semiring's
    ``1``: the next valuation must read it as TROPICAL ``0.0``, not
    feed ``None`` into ``⊗``."""

    async def scenario(host, port, client):
        key = await register(client)
        assert (await client.evaluate(key, "tropical")) == 6.0  # caches the valuation
        await client.facts(key, weights={Fact("E", (0, 1)): None})
        live = dict(START)
        live[Fact("E", (0, 1))] = None
        value = await client.evaluate(key, "tropical")
        assert value == solve(PROGRAM, replay(live), TROPICAL).value(OUT) == 5.0

    run(with_server(scenario))
