"""The serving failure model (DESIGN.md §12), piece by piece.

Covers the resilience primitives in isolation (deadlines, the
idempotency cache, the retry policy's backoff curve) and each server
behavior end-to-end over real sockets: malformed framing maps to 400
(the Content-Length regression), oversized bodies to 413, slow-loris
headers to 408, admission control to 503 + Retry-After, handler
deadline expiry to 504, graceful drain completes parked lane queries,
and idempotency tokens make ``/facts`` replay-safe.
"""

import asyncio
import random

import pytest

from repro.serving import (
    CircuitClient,
    CircuitServer,
    Deadline,
    IdempotencyCache,
    ResilienceConfig,
    RetryPolicy,
    ServerError,
    batcher as batcher_module,
)
from repro.testing import FaultInjector, HANDLER_STALL, SOCKET_RESET

TC = "T(X,Y) :- E(X,Y).\nT(X,Z) :- T(X,Y), E(Y,Z)."
EDGES = ["E(0,1)", "E(1,2)", "E(2,3)", "E(0,2)"]


def run(coro):
    return asyncio.run(coro)


async def with_server(scenario, **server_kwargs):
    async with CircuitServer(**server_kwargs) as (host, port):
        async with CircuitClient(host, port) as client:
            return await scenario(host, port, client)


async def raw_roundtrip(host, port, blob, read_all=True):
    """Send raw bytes, return everything the server sends back."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(blob)
    await writer.drain()
    data = await reader.read(-1) if read_all else await reader.readline()
    writer.close()
    return data


def http(method, path, body=b"", extra_headers=""):
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra_headers}"
        "\r\n"
    ).encode() + body


# -- primitives ------------------------------------------------------------


def test_deadline_counts_down_and_expires():
    deadline = Deadline("header", 0.01)
    assert 0 < deadline.remaining() <= 0.01
    import time

    time.sleep(0.02)
    assert deadline.remaining() <= 0


def test_resilience_config_deadline_factory():
    config = ResilienceConfig(header_timeout=None, handler_timeout=1.0)
    assert config.deadline("header") is None
    deadline = config.deadline("handler")
    assert deadline is not None and deadline.phase == "handler"


def test_idempotency_cache_replays_and_evicts():
    cache = IdempotencyCache(capacity=2)
    assert cache.get("c1", "t1") is None
    cache.put("c1", "t1", 200, {"inserted": 1})
    status, payload = cache.get("c1", "t1")
    assert status == 200
    assert payload == {"inserted": 1, "replayed": True}
    # The stored payload itself is not mutated by replay.
    cache.put("c2", "t1", 200, {"inserted": 2})  # distinct scope, same token
    assert cache.get("c1", "t1")[1]["inserted"] == 1
    cache.put("c1", "t2", 200, {"inserted": 3})  # capacity 2: evicts LRU (c2, t1)
    assert cache.get("c2", "t1") is None
    assert cache.snapshot()["entries"] == 2
    with pytest.raises(ValueError):
        IdempotencyCache(capacity=0)


def test_retry_policy_backoff_is_bounded_and_jittered():
    policy = RetryPolicy(base_delay=0.01, max_delay=0.1, multiplier=2.0, jitter=0.5)
    rng = random.Random(7)
    delays = [policy.backoff(attempt, rng) for attempt in range(10)]
    assert all(0 < d <= 0.1 for d in delays)
    # The curve grows before the cap: attempt 0 < cap.
    assert delays[0] <= 0.01
    flat = RetryPolicy(base_delay=0.01, jitter=0.0)
    assert flat.backoff(0, rng) == 0.01
    assert flat.backoff(1, rng) == 0.02


# -- framing errors (the Content-Length regression) ------------------------


def test_malformed_content_length_maps_to_400():
    async def scenario(host, port, client):
        blob = b"POST /solve HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
        data = await raw_roundtrip(host, port, blob)
        assert b"400 Bad Request" in data
        assert b"malformed Content-Length" in data
        stats = await client.stats()
        assert stats["resilience"]["bad_requests"] == 1

    run(with_server(scenario))


def test_negative_content_length_maps_to_400():
    async def scenario(host, port, client):
        blob = b"POST /solve HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        data = await raw_roundtrip(host, port, blob)
        assert b"400 Bad Request" in data
        assert b"negative Content-Length" in data

    run(with_server(scenario))


def test_oversized_body_is_rejected_with_413_without_reading_it():
    async def scenario(host, port, client):
        blob = b"POST /solve HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        data = await raw_roundtrip(host, port, blob)
        assert b"413 Payload Too Large" in data
        stats = await client.stats()
        assert stats["resilience"]["oversize_rejections"] == 1

    run(with_server(scenario, resilience=ResilienceConfig(max_body_bytes=1024)))


# -- deadlines -------------------------------------------------------------


def test_slow_loris_headers_get_408_and_a_closed_connection():
    async def scenario(host, port, client):
        reader, writer = await asyncio.open_connection(host, port)
        # Request line arrives, then the headers dribble forever.
        writer.write(b"GET /healthz HTTP/1.1\r\nX-Slow:")
        await writer.drain()
        data = await asyncio.wait_for(reader.read(-1), timeout=5.0)
        writer.close()
        assert b"408 Request Timeout" in data
        stats = await client.stats()
        assert stats["resilience"]["header_timeouts"] >= 1

    run(with_server(scenario, resilience=ResilienceConfig(header_timeout=0.05)))


def test_stalled_body_gets_408():
    async def scenario(host, port, client):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"par")
        await writer.drain()
        data = await asyncio.wait_for(reader.read(-1), timeout=5.0)
        writer.close()
        assert b"408 Request Timeout" in data
        stats = await client.stats()
        assert stats["resilience"]["body_timeouts"] == 1

    run(with_server(scenario, resilience=ResilienceConfig(body_timeout=0.05)))


def test_idle_keep_alive_connection_is_closed_silently():
    async def scenario(host, port, client):
        reader, writer = await asyncio.open_connection(host, port)
        # No request at all: the header deadline reaps the connection
        # without writing a response onto it.
        data = await asyncio.wait_for(reader.read(-1), timeout=5.0)
        writer.close()
        assert data == b""

    run(with_server(scenario, resilience=ResilienceConfig(header_timeout=0.05)))


def test_handler_deadline_maps_to_504():
    injector = FaultInjector(seed=3, rates={HANDLER_STALL: 1.0}, delays={HANDLER_STALL: 5.0})

    async def scenario(host, port, client):
        status, payload = await client.request("GET", "/healthz")
        assert status == 504
        assert "budget" in payload["error"]
        # The connection survives a 504 (the handler was cancelled,
        # the framing is intact) -- turn off the stall and go again.
        injector.rates[HANDLER_STALL] = 0.0
        assert (await client.healthz())["status"] == "ok"
        stats = await client.stats()
        assert stats["resilience"]["handler_timeouts"] == 1

    run(
        with_server(
            scenario,
            resilience=ResilienceConfig(handler_timeout=0.05),
            fault_injector=injector,
        )
    )


# -- admission control -----------------------------------------------------


def test_connection_shed_sends_503_with_retry_after():
    async def scenario(host, port, client):
        await client.healthz()  # client's keep-alive connection is the one slot
        data = await raw_roundtrip(host, port, b"")
        assert b"503 Service Unavailable" in data
        assert b"Retry-After:" in data
        stats = await client.stats()
        assert stats["resilience"]["shed_connections"] >= 1

    run(with_server(scenario, resilience=ResilienceConfig(max_connections=1)))


def test_inflight_shed_sends_503_and_keeps_the_connection():
    async def scenario(host, port, client):
        status, payload = await client.request("GET", "/healthz")
        assert status == 503
        assert "retry_after" in payload
        # Shedding is per-request: the connection stays usable.
        status, _ = await client.request("GET", "/healthz")
        assert status == 503
        stats_client = CircuitClient(host, port, retry=None)
        try:
            with pytest.raises(ServerError) as err:
                await stats_client.stats()
            assert err.value.status == 503
        finally:
            await stats_client.close()

    run(
        with_server(
            scenario,
            resilience=ResilienceConfig(max_inflight=0),
        )
    )


# -- graceful shutdown -----------------------------------------------------


def test_close_drains_parked_lane_queries(monkeypatch):
    # A huge lane delay: queries park until *something* flushes.
    monkeypatch.setattr(batcher_module, "MAX_DELAY", 60.0)

    async def scenario():
        server = CircuitServer()
        host, port = await server.start()
        client = CircuitClient(host, port)
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        key = reg["key"]
        # One client per query: a single client serializes requests,
        # and we want both parked server-side simultaneously.
        clients = [CircuitClient(host, port), CircuitClient(host, port)]
        queries = [
            asyncio.ensure_future(clients[0].boolean(key, EDGES)),
            asyncio.ensure_future(clients[1].boolean(key, EDGES[:2])),
        ]
        await asyncio.sleep(0.05)  # both are parked on the lane timer
        assert not any(q.done() for q in queries)
        await server.close()
        # The drain flushed the lane: both queries complete, correctly.
        assert await asyncio.wait_for(queries[0], 5.0) is True
        assert await asyncio.wait_for(queries[1], 5.0) is False
        assert server.res_stats.drained_futures == 2
        for c in [client, *clients]:
            await c.close()

    run(scenario())


def test_readyz_reports_draining():
    async def scenario(host, port, client):
        assert (await client.readyz())["ready"] is True
        server_stats = await client.stats()
        assert server_stats["draining"] is False

    run(with_server(scenario))

    # Unit-level: once draining, readiness flips while liveness holds.
    async def drained():
        server = CircuitServer()
        await server.start()
        server._draining = True
        status, payload = await server._dispatch("GET", "/readyz", None)
        assert (status, payload["ready"]) == (503, False)
        status, payload = await server._dispatch("GET", "/healthz", None)
        assert (status, payload["status"]) == (200, "ok")
        server._draining = False
        await server.close()

    run(drained())


# -- idempotent mutation replay --------------------------------------------


def test_facts_idempotency_token_deduplicates():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,4)", target="T")
        key = reg["key"]
        first = await client.facts(key, insert=["E(3,4)"], idempotency_key="delta-1")
        assert first["inserted"] == 1
        assert "replayed" not in first
        replay = await client.facts(key, insert=["E(3,4)"], idempotency_key="delta-1")
        assert replay["replayed"] is True
        assert replay["inserted"] == 1
        assert replay["database_fingerprint"] == first["database_fingerprint"]
        stats = await client.stats()
        assert stats["resilience"]["idempotent_replays"] == 1
        assert stats["idempotency"]["hits"] == 1
        assert await client.boolean(key, EDGES + ["E(3,4)"]) is True

    run(with_server(scenario))


def test_facts_rejects_bad_idempotency_key():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        status, payload = await client.request(
            "POST", f"/circuits/{reg['key']}/facts", {"insert": ["E(7,8)"], "idempotency_key": 7}
        )
        assert status == 400
        assert "idempotency_key" in payload["error"]

    run(with_server(scenario))


# -- client retries --------------------------------------------------------


def test_client_retries_idempotent_route_through_injected_reset():
    injector = FaultInjector(seed=11, rates={SOCKET_RESET: 1.0}, max_per_site=1)

    async def scenario(host, port, client):
        # The first response write is aborted; healthz is idempotent,
        # so the client reconnects and retries within its budget.
        assert (await client.healthz())["status"] == "ok"
        assert client.retries == 1
        assert injector.fired[SOCKET_RESET] == 1

    run(with_server(scenario, fault_injector=injector))


def test_client_facts_retry_replays_via_idempotency_token():
    injector = FaultInjector(seed=13, rates={SOCKET_RESET: 0.0}, max_per_site=1)

    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,4)", target="T")
        key = reg["key"]
        # Arm the reset *after* registration so it hits the /facts
        # response specifically: the delta applies server-side, the
        # response is torn, the retry replays via the auto-token.
        injector.rates[SOCKET_RESET] = 1.0
        payload = await client.facts(key, insert=["E(3,4)"])
        assert payload["inserted"] == 1
        assert payload["replayed"] is True
        assert client.retries == 1
        stats = await client.stats()
        assert stats["resilience"]["idempotent_replays"] == 1
        assert await client.boolean(key, EDGES + ["E(3,4)"]) is True

    run(with_server(scenario, fault_injector=injector))


def test_client_without_policy_surfaces_the_failure():
    injector = FaultInjector(seed=17, rates={SOCKET_RESET: 1.0}, max_per_site=1)

    async def scenario(host, port, _client):
        bare = CircuitClient(host, port, retry=None)
        try:
            with pytest.raises(ConnectionError):
                await bare.healthz()
            assert bare.retries == 0
        finally:
            await bare.close()

    run(with_server(scenario, fault_injector=injector))


def test_retry_budget_limits_spend():
    async def scenario():
        client = CircuitClient("127.0.0.1", 1, retry=RetryPolicy(budget=2.0, refill=0.0))
        assert client._spend_retry_token() is True
        assert client._spend_retry_token() is True
        assert client._spend_retry_token() is False  # bucket empty
        assert client.retry_snapshot() == {"retries": 2, "give_ups": 1, "tokens": 0.0}

    run(scenario())


def test_bad_json_body_maps_to_400():
    async def scenario(host, port, client):
        # Connection: close makes the server end the exchange after the
        # 400 instead of holding the keep-alive open until its idle
        # timeout, so reading to EOF returns at once.
        blob = http("POST", "/solve", b"{not json", extra_headers="Connection: close\r\n")
        data = await raw_roundtrip(host, port, blob)
        assert b"400 Bad Request" in data
        assert b"not valid JSON" in data

    run(with_server(scenario))
