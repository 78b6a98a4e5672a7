"""End-to-end suite for the :class:`CircuitServer` HTTP serving layer.

The server's contract (DESIGN.md §10): registration grounds, builds
and compiles once per ``(program fingerprint, db fingerprint,
construction)`` key with LRU eviction; Boolean point queries coalesce
into 64-wide bitset lanes; numeric and incremental routes agree
*exactly* with direct in-process evaluation of the same circuit; and
malformed input maps to 4xx responses, never a dropped connection.

pytest-asyncio is not a dependency, so every test drives its own
event loop through ``asyncio.run``.
"""

import asyncio
import json

from repro.constructions import provenance_circuit
from repro.datalog import Database, Fact, parse_atom, parse_program
from repro.semirings import TROPICAL
from repro.serving import CircuitClient, CircuitServer, ServerError
from repro.serving import server as server_module

TC = "T(X,Y) :- E(X,Y).\nT(X,Z) :- T(X,Y), E(Y,Z)."
EDGES = ["E(0,1)", "E(1,2)", "E(2,3)", "E(0,2)"]
NAN = float("nan")


def run(coro):
    return asyncio.run(coro)


async def with_server(scenario, **server_kwargs):
    async with CircuitServer(**server_kwargs) as (host, port):
        async with CircuitClient(host, port) as client:
            return await scenario(host, port, client)


# -- lifecycle and registration -------------------------------------------


def test_healthz_and_empty_stats():
    async def scenario(host, port, client):
        health = await client.healthz()
        assert health["status"] == "ok"
        assert health["draining"] is False
        ready = await client.readyz()
        assert ready["ready"] is True
        stats = await client.stats()
        assert stats["circuits"] == 0
        assert stats["cache"] == {"hits": 0, "misses": 0, "evictions": 0}

    run(with_server(scenario))


def test_register_compiles_once_and_hits_cache():
    async def scenario(host, port, client):
        first = await client.register(TC, EDGES, "T(0,3)", target="T")
        assert first["cached"] is False
        assert first["size"] > 0
        # magic-generic records its stages, so early exit applies
        assert first["construction"] == "magic-generic"
        assert first["stages"] > 0
        again = await client.register(TC, EDGES, "T(0,3)", target="T")
        assert again["cached"] is True
        assert again["key"] == first["key"]
        stats = await client.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1

    run(with_server(scenario))


def test_cache_key_separates_databases_and_constructions():
    async def scenario(host, port, client):
        base = await client.register(TC, EDGES, "T(0,3)", target="T")
        other_db = await client.register(TC, EDGES + ["E(3,4)"], "T(0,3)", target="T")
        pinned = await client.register(
            TC, EDGES, "T(0,3)", target="T", construction="generic"
        )
        keys = {base["key"], other_db["key"], pinned["key"]}
        assert len(keys) == 3
        assert pinned["construction"] == "generic"

    run(with_server(scenario))


def test_lru_eviction_forgets_the_oldest_circuit():
    async def scenario(host, port, client):
        first = await client.register(TC, EDGES, "T(0,3)", target="T")
        await client.register(TC, EDGES + ["E(3,4)"], "T(0,4)", target="T")
        stats = await client.stats()
        assert stats["circuits"] == 1
        assert stats["cache"]["evictions"] == 1
        try:
            await client.boolean(first["key"], EDGES)
        except ServerError as exc:
            assert exc.status == 404
        else:
            raise AssertionError("evicted key should 404")

    run(with_server(scenario, max_circuits=1))


# -- Boolean serving -------------------------------------------------------


def test_boolean_answers_match_direct_evaluation():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        key = reg["key"]
        # Direct in-process ground truth on the same inputs.
        program = parse_program(TC, target="T")
        database = Database.from_edges([(0, 1), (1, 2), (2, 3), (0, 2)])
        compiled = provenance_circuit(program, database, Fact("T", (0, 3))).compiled()
        cases = [
            ["E(0,1)", "E(1,2)", "E(2,3)"],
            ["E(0,2)", "E(2,3)"],
            ["E(0,1)", "E(2,3)"],  # gap at 1→2: unreachable
            [],
            EDGES,
        ]
        server_answers = [await client.boolean(key, case) for case in cases]
        direct = compiled.evaluate_boolean_batch(
            [frozenset(parse_atom(c).to_fact() for c in case) for case in cases]
        )
        assert server_answers == direct == [True, True, False, False, True]

    run(with_server(scenario))


def test_concurrent_point_queries_coalesce_into_lanes():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        key = reg["key"]
        workers = [CircuitClient(host, port) for _ in range(32)]
        for worker in workers:
            await worker.connect()
        try:
            answers = await asyncio.gather(
                *[worker.boolean(key, EDGES) for worker in workers]
            )
        finally:
            for worker in workers:
                await worker.close()
        assert answers == [True] * 32
        lanes = (await client.stats())["boolean_lanes"]
        # 32 queries must not have cost 32 single-item bitset passes.
        assert lanes["items"] == 32
        assert lanes["batches"] < 32
        assert lanes["fill_ratio"] > 1 / 64

    run(with_server(scenario))


def test_prebuilt_batches_bypass_the_coalescer():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        values = await client.boolean_batch(
            reg["key"], [["E(0,1)", "E(1,2)", "E(2,3)"], ["E(0,1)"]]
        )
        assert values == [True, False]
        lanes = (await client.stats())["boolean_lanes"]
        assert lanes["items"] == 0  # the coalescing queue never saw them

    run(with_server(scenario))


# -- numeric serving -------------------------------------------------------


def test_numeric_evaluate_matches_direct_circuit_evaluation():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        weights = {"E(0,1)": 1.0, "E(1,2)": 1.0, "E(2,3)": 1.0, "E(0,2)": 5.0}
        served = await client.evaluate(reg["key"], "tropical", weights)
        program = parse_program(TC, target="T")
        database = Database.from_edges([(0, 1), (1, 2), (2, 3), (0, 2)])
        choice = provenance_circuit(program, database, Fact("T", (0, 3)))
        direct = choice.compiled().evaluate(
            TROPICAL, {Fact("E", (u, v)): w for (u, v), w in
                       [((0, 1), 1.0), ((1, 2), 1.0), ((2, 3), 1.0), ((0, 2), 5.0)]}
        )
        assert served == direct == 3.0

    run(with_server(scenario))


def test_numeric_batch_and_partial_weights_default_to_stored_valuation():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        values = await client.evaluate_batch(
            reg["key"],
            "counting",
            [{}, {"E(0,2)": 0}],  # all-ones, then cut the shortcut edge
        )
        # Proof trees of T(0,3): 0→1→2→3 and 0→2→3.
        assert values == [2, 1]

    run(with_server(scenario))


def test_update_sessions_persist_and_report_cone_sizes():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        key = reg["key"]
        first = await client.update(key, "counting", {"E(0,2)": 0})
        assert first["outputs"] == [1]
        assert 0 < first["cone_size"] <= reg["size"]
        # Same session, incremental from the previous state.
        second = await client.update(key, "counting", {"E(0,2)": 1})
        assert second["outputs"] == [2]
        third = await client.update(key, "counting", {"E(0,1)": 0, "E(0,2)": 0})
        assert third["outputs"] == [0]

    run(with_server(scenario))


# -- one-shot solve --------------------------------------------------------


def test_solve_route_matches_fixpoint_semantics():
    async def scenario(host, port, client):
        result = await client.solve(TC, ["E(0,1)", "E(1,2)"], "counting", target="T")
        assert result["values"] == {"T(0,1)": 1, "T(1,2)": 1, "T(0,2)": 1}
        assert result["iterations"] >= 2

    run(with_server(scenario))


def test_solve_reports_divergence_as_422():
    async def scenario(host, port, client):
        status, payload = await client.request(
            "POST",
            "/solve",
            {
                "program": TC,
                "target": "T",
                "facts": ["E(0,1)", "E(1,0)"],
                "semiring": "counting",
                "max_iterations": 5,
            },
        )
        assert status == 422
        assert "diverged" in payload["error"]

    run(with_server(scenario))


# -- the request's ExecutionConfig ----------------------------------------


DEAD_S = TC + "\nS(X) :- A(X), S(X)."


def test_register_threads_prune_into_the_config():
    async def scenario():
        server = CircuitServer()
        async with server as (host, port):
            async with CircuitClient(host, port) as client:
                status, reg = await client.request(
                    "POST",
                    "/circuits",
                    {
                        "program": DEAD_S,
                        "target": "T",
                        "facts": EDGES,
                        "output": "T(0,3)",
                        "weights": {"E(0,1)": 1.0, "E(1,2)": 1.0, "E(2,3)": 1.0, "E(0,2)": 5.0},
                        "prune": True,
                    },
                )
                assert status == 200
                config = server._circuits[reg["key"]].session.config
                assert config.prune is True
                assert await client.evaluate(reg["key"], "tropical") == 3.0

    run(scenario())


def test_solve_honours_prune_from_the_body():
    async def scenario(host, port, client):
        body = {"program": DEAD_S, "target": "T", "facts": EDGES + ["A(0)"], "semiring": "boolean"}
        status, full = await client.request("POST", "/solve", body)
        assert status == 200 and "S(0)" not in full["values"]
        status, lean = await client.request("POST", "/solve", dict(body, prune=True))
        assert status == 200
        assert lean["values"] == {k: v for k, v in full["values"].items() if k.startswith("T(")}

    run(with_server(scenario))


def test_bad_config_values_map_to_400_naming_the_vocabulary():
    async def scenario(host, port, client):
        body = {"program": TC, "target": "T", "facts": EDGES, "output": "T(0,3)"}
        status, payload = await client.request("POST", "/circuits", dict(body, engine="indexed"))
        assert status == 400
        assert "unknown engine 'indexed'" in payload["error"]
        assert "('columnar', 'naive')" in payload["error"]
        status, payload = await client.request("POST", "/circuits", dict(body, prune="yes"))
        assert status == 400 and "prune must be a bool" in payload["error"]

    run(with_server(scenario))


# -- error handling --------------------------------------------------------


def test_unknown_routes_keys_and_semirings():
    async def scenario(host, port, client):
        assert (await client.request("GET", "/bogus"))[0] == 404
        status, payload = await client.request(
            "POST", "/circuits/feedfacefeedface/boolean", {"true_facts": []}
        )
        assert status == 404 and "unknown circuit key" in payload["error"]
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        status, payload = await client.request(
            "POST", f"/circuits/{reg['key']}/evaluate", {"semiring": "quantum"}
        )
        assert status == 400 and "unknown semiring" in payload["error"]

    run(with_server(scenario))


def test_malformed_requests_return_400_not_a_dropped_connection():
    async def scenario(host, port, client):
        # Registration without an output fact.
        status, payload = await client.request("POST", "/circuits", {"program": TC, "target": "T"})
        assert status == 400 and "output" in payload["error"]
        # Unparseable fact spelling.
        status, payload = await client.request(
            "POST",
            "/circuits",
            {"program": TC, "target": "T", "facts": ["E(0,1)"], "output": "not a fact ("},
        )
        assert status == 400
        # Raw invalid JSON body straight down the socket.
        reader, writer = await asyncio.open_connection(host, port)
        body = b"{not json"
        writer.write(
            b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        await writer.drain()
        status_line = await reader.readline()
        assert b"400" in status_line
        writer.close()
        # The keep-alive client connection is still healthy afterwards.
        assert (await client.healthz())["status"] == "ok"

    run(with_server(scenario))


def test_nan_weights_are_rejected_with_400():
    # json.loads accepts NaN, but NaN is no semiring value.
    async def scenario(host, port, client):
        body = {"program": TC, "target": "T", "facts": EDGES, "output": "T(0,3)"}
        status, payload = await client.request("POST", "/circuits", dict(body, weights={"E(0,1)": NAN}))
        assert status == 400 and "NaN" in payload["error"]
        weights = {"E(0,1)": 1.0, "E(1,2)": 1.0, "E(2,3)": 1.0, "E(0,2)": 5.0}
        reg = await client.register(TC, EDGES, "T(0,3)", target="T", weights=weights)
        path = f"/circuits/{reg['key']}/facts"
        for delta in ({"weights": {"E(0,1)": NAN}}, {"insert": [{"fact": "E(3,4)", "weight": NAN}]}):
            status, payload = await client.request("POST", path, delta)
            assert status == 400 and "NaN" in payload["error"]
        # Nothing of the rejected deltas landed.
        assert await client.evaluate(reg["key"], "tropical") == 3.0
        # Query and update weights are checked the same way.
        key = reg["key"]
        for route, delta in (
            ("evaluate", {"semiring": "tropical", "weights": {"E(0,2)": NAN}}),
            ("evaluate", {"semiring": "tropical", "assignments": [{"E(0,2)": NAN}]}),
            ("update", {"semiring": "tropical", "delta": {"E(0,2)": NAN}}),
        ):
            status, payload = await client.request("POST", f"/circuits/{key}/{route}", delta)
            assert status == 400 and "NaN" in payload["error"]
        # The persistent update session never saw the NaN.
        assert (await client.update(key, "tropical", {"E(2,3)": 2.0}))["outputs"] == [4.0]

    run(with_server(scenario))


def test_update_with_unknown_fact_is_a_client_error():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        status, payload = await client.request(
            "POST",
            f"/circuits/{reg['key']}/update",
            {"semiring": "counting", "delta": {"E(9,9)": 0}},
        )
        assert status == 400 and "no input gate" in payload["error"]

    run(with_server(scenario))


def test_wire_accepts_list_form_facts():
    async def scenario(host, port, client):
        reg = await client.register(
            TC, [["E", [0, 1]], ["E", [1, 2]]], ["T", [0, 2]], target="T"
        )
        assert await client.boolean(reg["key"], [["E", [0, 1]], ["E", [1, 2]]]) is True
        assert await client.boolean(reg["key"], [["E", [0, 1]]]) is False

    run(with_server(scenario))


# -- wire decoding through the entry's leaf map -----------------------------


WEIGHTS = {"E(0,1)": 1.0, "E(1,2)": 1.0, "E(2,3)": 1.0, "E(0,2)": 5.0}


async def with_entry(scenario):
    """Run ``scenario(client, server, key)`` on a registered TC circuit."""
    server = CircuitServer()
    async with server as (host, port):
        async with CircuitClient(host, port) as client:
            reg = await client.register(TC, EDGES, "T(0,3)", target="T", weights=WEIGHTS)
            return await scenario(client, server, reg["key"])


def spaced(wire):
    return wire.replace(",", ", ")


def listed(wire):
    fact = parse_atom(wire).to_fact()
    return [fact.predicate, list(fact.args)]


def test_wire_spellings_and_the_parser_path_agree(monkeypatch):
    parsed_strings = []

    def counting_parse_atom(text):
        parsed_strings.append(text)
        return parse_atom(text)

    monkeypatch.setattr(server_module, "parse_atom", counting_parse_atom)
    cases = [
        ["E(0,1)", "E(1,2)", "E(2,3)"],
        ["E(0,2)", "E(2,3)"],
        ["E(0,1)", "E(2,3)"],
        [],
        EDGES,
    ]
    assignments = [WEIGHTS, {"E(0,2)": 0.5}, {"E(0,1)": 4.0, "E(2,3)": 2.0}]

    async def answers(client, key, spell):
        boolean = [await client.boolean(key, [spell(f) for f in case]) for case in cases]
        batch = await client.boolean_batch(key, [[spell(f) for f in case] for case in cases])
        weights = [{spell(f): w for f, w in a.items()} for a in assignments]
        numeric = [await client.evaluate(key, "tropical", w) for w in weights]
        numeric_batch = await client.evaluate_batch(key, "tropical", weights)
        return boolean, batch, numeric, numeric_batch

    async def scenario(client, server, key):
        entry = server._circuits[key]
        assert entry.wire_facts == {}
        # First pass: every string misses the map and is parsed.
        parsed = await answers(client, key, str)
        assert set(entry.wire_facts) == set(EDGES)
        # Second pass: the same strings, now all map hits.
        parsed_strings.clear()
        mapped = await answers(client, key, str)
        assert mapped == parsed
        assert parsed_strings == []
        assert await answers(client, key, spaced) == parsed
        assert set(entry.wire_facts) == set(EDGES)
        # The list form is decoded literally and never enters the map.
        boolean, batch, _, _ = parsed
        listed_boolean = [await client.boolean(key, [listed(f) for f in case]) for case in cases]
        assert listed_boolean == boolean
        assert await client.boolean_batch(key, [[listed(f) for f in c] for c in cases]) == batch
        assert set(entry.wire_facts) == set(EDGES)

        compiled = entry.compiled
        direct = compiled.evaluate_boolean_batch(
            [frozenset(parse_atom(f).to_fact() for f in case) for case in cases]
        )
        assert boolean == batch == direct == [True, True, False, False, True]

        def valuation(weights):
            full = {parse_atom(f).to_fact(): w for f, w in WEIGHTS.items()}
            full.update({parse_atom(f).to_fact(): w for f, w in weights.items()})
            return full

        expected = compiled.evaluate_batch(TROPICAL, [valuation(a) for a in assignments])
        assert parsed[2] == parsed[3] == expected == [3.0, 1.5, 7.0]

        # /update deltas and /facts reweights decode the same way.
        canonical = await client.update(key, "counting", {"E(0,2)": 0})
        respelled = await client.update(key, "counting", {"E(0, 2)": 0})
        assert canonical["outputs"] == respelled["outputs"] == [1]
        await client.facts(key, weights={"E(0, 1)": 2.0})
        assert await client.evaluate(key, "tropical") == 4.0
        await client.facts(key, weights={"E(0,1)": 1.0})
        assert await client.evaluate(key, "tropical") == 3.0

    run(with_entry(scenario))


def test_wire_map_keeps_the_parsers_rejections():
    # repr(Fact("E", ("A", 1))) is "E(A,1)", which the parser reads as
    # a non-ground atom: a leaf with that repr must not make it valid.
    bad_strings = {
        "E(A,1)": "bad fact 'E(A,1)': atom E(A, 1) is not ground",
        "E(0,1": "bad fact 'E(0,1': expected RPAREN, found EOF '' (line 1, column 6)",
        "not a fact (": "bad fact 'not a fact (': expected LPAREN, found IDENT 'a' (line 1, column 5)",
    }

    async def scenario():
        server = CircuitServer()
        async with server as (host, port):
            async with CircuitClient(host, port) as client:
                reg = await client.register(TC, [["E", ["A", 1]], ["E", [1, 2]]], ["T", ["A", 2]], target="T")
                key = reg["key"]
                entry = server._circuits[key]
                assert Fact("E", ("A", 1)) in entry.compiled.var_slots
                assert await client.boolean(key, [["E", ["A", 1]], "E(1,2)"]) is True
                for wire, message in bad_strings.items():
                    for route, body in (
                        ("boolean", {"true_facts": [wire]}),
                        ("boolean", {"batches": [["E(1,2)", wire]]}),
                        ("evaluate", {"semiring": "tropical", "weights": {wire: 1.0}}),
                        ("evaluate", {"semiring": "tropical", "assignments": [{wire: 1.0}]}),
                        ("update", {"semiring": "tropical", "delta": {wire: 1.0}}),
                        ("facts", {"insert": [wire]}),
                        ("facts", {"retract": [wire]}),
                        ("facts", {"weights": {wire: 1.0}}),
                    ):
                        status, payload = await client.request("POST", f"/circuits/{key}/{route}", body)
                        assert (status, payload) == (400, {"error": message}), (route, body)
                assert set(entry.wire_facts) == {"E(1,2)"}

    run(scenario())


def test_wire_map_is_bounded_by_the_circuit_leaves():
    respellings = [
        "E(0,1)",
        "E(0, 1)",
        "E( 0,1)",
        "E(0 ,1 )",
        "E(00,1)",
        "E(-0,1)",
        "E(0,01)",
        "E(0,1) ",
        " E(0,1)",
        "E(5,6)",  # in the language, not a leaf
        "E(1,0)",
    ]

    async def scenario(client, server, key):
        entry = server._circuits[key]
        leaves = entry.compiled.var_labels
        for _ in range(3):
            for wire in respellings + EDGES:
                await client.boolean(key, [wire])
                await client.evaluate(key, "tropical", {wire: 2.0})
                assert len(entry.wire_facts) <= len(leaves)
        assert set(entry.wire_facts) == set(EDGES)
        assert all(repr(fact) == wire for wire, fact in entry.wire_facts.items())
        assert set(entry.wire_facts.values()) <= set(leaves)

    run(with_entry(scenario))


def test_wire_map_follows_a_recompiling_insert():
    async def scenario(client, server, key):
        entry = server._circuits[key]
        assert await client.boolean(key, EDGES) is True
        assert set(entry.wire_facts) == set(EDGES)
        report = await client.facts(key, insert=[{"fact": "E(1,3)", "weight": 0.5}], retract=["E(0,2)"])
        assert report["recompiled"] is True
        assert Fact("E", (1, 3)) in entry.compiled.var_slots
        # The rebuilt circuit has no E(0,2) leaf, so its string left the map.
        assert Fact("E", (0, 2)) not in entry.compiled.var_slots
        assert "E(0,2)" not in entry.wire_facts
        assert await client.boolean(key, ["E(0,2)", "E(2,3)"]) is False
        assert "E(0,2)" not in entry.wire_facts
        # The new leaf decodes and answers through the rebuilt circuit.
        assert await client.boolean(key, ["E(0,1)", "E(1,3)"]) is True
        assert await client.boolean(key, ["E(0,1)", "E(1,3)"]) is True
        assert "E(1,3)" in entry.wire_facts
        assert await client.evaluate(key, "tropical") == 1.5
        assert await client.evaluate(key, "tropical", {"E(1,3)": 9.0}) == 3.0
        assert len(entry.wire_facts) <= len(entry.compiled.var_labels)
        assert set(entry.wire_facts.values()) <= set(entry.compiled.var_labels)

    run(with_entry(scenario))


def test_stats_payload_is_json_round_trippable():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        await client.boolean(reg["key"], EDGES)
        await client.evaluate(reg["key"], "tropical", {})
        stats = await client.stats()
        assert json.loads(json.dumps(stats)) == stats
        entry = stats["per_circuit"][reg["key"]]
        assert entry["stages"] == reg["stages"]
        assert entry["queries"] >= 2
        assert entry["boolean_lanes"]["items"] == 1
        assert "tropical" in entry["numeric_lanes"]

    run(with_server(scenario))


# -- static analysis: /lint and structured validation errors ---------------


def test_lint_route_clean_program():
    async def scenario(host, port, client):
        report = await client.lint(TC, EDGES, target="T")
        assert report["ok"] is True
        assert report["dependencies"]["recursion"] == "linear"
        codes = {d["code"] for d in report["diagnostics"]}
        assert "DL005" in codes  # the SCC report rides along as info

    run(with_server(scenario))


def test_lint_route_reports_dl_codes_not_http_errors():
    async def scenario(host, port, client):
        # Unsafe rule + arity clash: still HTTP 200, diagnostics in body.
        report = await client.lint(
            ["T(X, Y) :- E(X, X).", "U(X) :- T(X)."], target="T"
        )
        assert report["ok"] is False
        codes = {d["code"] for d in report["diagnostics"]}
        assert {"DL001", "DL002"} <= codes
        # Errors come first in the ordered diagnostics list.
        severities = [d["severity"] for d in report["diagnostics"]]
        assert severities.index("error") == 0

    run(with_server(scenario))


def test_lint_route_predicts_divergence_with_semiring_and_facts():
    async def scenario(host, port, client):
        report = await client.lint(
            TC, ["E(0,1)", "E(1,0)"], target="T", semiring="counting"
        )
        assert report["ok"] is False  # DL006 error: predicted divergence
        assert report["divergence"]["verdict"] == "diverges"
        assert "witness" in report["divergence"]
        # Same data over an absorptive semiring is clean.
        clean = await client.lint(
            TC, ["E(0,1)", "E(1,0)"], target="T", semiring="boolean"
        )
        assert clean["ok"] is True
        assert clean["divergence"]["verdict"] == "converges"

    run(with_server(scenario))


def test_lint_route_answers_parse_errors_inline():
    async def scenario(host, port, client):
        report = await client.lint("T(X, Y) :- E(X, Y", target="T")
        assert report["ok"] is False
        error = report["parse_error"]
        assert error["line"] == 1 and error["column"] >= 1
        assert error["source_line"] == "T(X, Y) :- E(X, Y"
        status, _ = await client.request("POST", "/lint", {})
        assert status == 400  # missing 'program' is still a client error

    run(with_server(scenario))


def test_register_rejects_invalid_program_with_structured_400():
    async def scenario(host, port, client):
        status, payload = await client.request(
            "POST",
            "/circuits",
            {
                "program": "T(X, Y) :- E(X, X).",
                "facts": ["E(0,0)"],
                "outputs": ["T(0,0)"],
                "target": "T",
            },
        )
        assert status == 400
        assert "DL001" in payload["error"]
        assert payload["diagnostics"][0]["code"] == "DL001"
        assert payload["diagnostics"][0]["severity"] == "error"

    run(with_server(scenario))


def test_register_reports_parse_position_on_400():
    async def scenario(host, port, client):
        status, payload = await client.request(
            "POST",
            "/circuits",
            {
                "program": "T(X, Y) :- E(X, Y).\nT(X, Y) :- T(X, Z) E(Z, Y).",
                "facts": ["E(0,1)"],
                "outputs": ["T(0,1)"],
                "target": "T",
            },
        )
        assert status == 400
        assert payload["line"] == 2
        assert payload["source_line"].startswith("T(X, Y) :- T(X, Z)")

    run(with_server(scenario))
