"""The micro-batching queue that fills the 64-wide evaluation lanes.

:class:`repro.serving.batcher.LaneBatcher` is the piece that turns
independent awaited point queries into the batches
``evaluate_boolean_batch`` wants, so its flush policy is pinned here:
immediate flush on a full lane, timer flush for stragglers, FIFO
result order, exception fan-out, and honest fill-ratio accounting.
Lanes are one bitset word wide; tests that must not depend on the
timer stretch :data:`repro.serving.batcher.MAX_DELAY` to a minute.
"""

import asyncio

import pytest

from repro.circuits.runtime import WORD_SIZE
from repro.serving import LaneBatcher, batcher as batcher_module


def run(coro):
    return asyncio.run(coro)


def echo_flush(items):
    return [("seen", item) for item in items]


@pytest.fixture
def slow_timer(monkeypatch):
    """A timer that would dominate any test that waited for it."""
    monkeypatch.setattr(batcher_module, "MAX_DELAY", 60.0)


def test_single_submit_resolves_via_timer():
    async def scenario():
        batcher = LaneBatcher(echo_flush)
        result = await batcher.submit("q")
        assert result == ("seen", "q")
        stats = batcher.stats
        assert stats.batches == 1
        assert stats.items == 1
        assert stats.timer_flushes == 1
        assert stats.full_flushes == 0

    run(scenario())


def test_full_lane_flushes_immediately_without_timer_wait(slow_timer):
    async def scenario():
        batcher = LaneBatcher(echo_flush)
        results = await asyncio.gather(*[batcher.submit(i) for i in range(WORD_SIZE)])
        assert results == [("seen", i) for i in range(WORD_SIZE)]
        assert batcher.stats.full_flushes == 1
        assert batcher.stats.timer_flushes == 0
        assert batcher.stats.fill_ratio == 1.0

    run(scenario())


def test_results_keep_submission_order_within_a_batch():
    async def scenario():
        batcher = LaneBatcher(lambda items: [i * 10 for i in items])
        results = await asyncio.gather(*[batcher.submit(i) for i in range(WORD_SIZE)])
        assert results == [i * 10 for i in range(WORD_SIZE)]

    run(scenario())


def test_overflow_splits_into_full_then_timer_batches():
    async def scenario():
        batcher = LaneBatcher(echo_flush)
        count = WORD_SIZE + 2
        results = await asyncio.gather(*[batcher.submit(i) for i in range(count)])
        assert results == [("seen", i) for i in range(count)]
        stats = batcher.stats
        assert stats.batches == 2
        assert stats.items == count
        assert stats.full_flushes == 1
        assert stats.timer_flushes == 1
        assert stats.fill_ratio == count / (2 * WORD_SIZE)

    run(scenario())


def test_flush_exception_fans_out_to_every_waiter():
    async def scenario():
        def broken(items):
            raise RuntimeError("kernel exploded")

        batcher = LaneBatcher(broken)
        results = await asyncio.gather(
            *[batcher.submit(i) for i in range(WORD_SIZE)], return_exceptions=True
        )
        assert all(isinstance(r, RuntimeError) for r in results)
        assert batcher.stats.errors == 1
        # The queue recovers: the next batch is independent.
        good = LaneBatcher(echo_flush)
        assert await good.submit("x") == ("seen", "x")

    run(scenario())


def test_flush_now_drains_pending_items(slow_timer):
    async def scenario():
        batcher = LaneBatcher(echo_flush)
        task = asyncio.ensure_future(batcher.submit("late"))
        await asyncio.sleep(0)  # let submit enqueue
        assert batcher.pending == 1
        batcher.flush_now()
        assert await task == ("seen", "late")
        assert batcher.pending == 0

    run(scenario())


def test_empty_stats_report_zero_fill():
    batcher = LaneBatcher(echo_flush)
    snap = batcher.stats.snapshot()
    assert snap["fill_ratio"] == 0.0
    assert snap["batches"] == 0
    assert snap["lane_width"] == WORD_SIZE


# -- lifecycle: timer hygiene and close (DESIGN.md §12) --------------------


def test_full_lane_flush_disarms_the_timer(slow_timer):
    async def scenario():
        batcher = LaneBatcher(echo_flush)
        submits = [asyncio.ensure_future(batcher.submit(i)) for i in range(WORD_SIZE - 1)]
        await asyncio.sleep(0)
        assert batcher.timer_armed  # straggler timer covers the partial lane
        submits.append(asyncio.ensure_future(batcher.submit(WORD_SIZE - 1)))
        await asyncio.gather(*submits)
        # The lane-full flush must cancel the armed timer: no stale
        # call_later handle may fire into the *next* batch.
        assert not batcher.timer_armed

    run(scenario())


def test_flush_now_disarms_the_timer(slow_timer):
    async def scenario():
        batcher = LaneBatcher(echo_flush)
        future = asyncio.ensure_future(batcher.submit("q"))
        await asyncio.sleep(0)
        assert batcher.timer_armed
        batcher.flush_now()
        assert not batcher.timer_armed
        assert await future == ("seen", "q")

    run(scenario())


def test_close_fails_parked_futures_with_clear_error(slow_timer):
    from repro.serving import BatcherClosed

    async def scenario():
        batcher = LaneBatcher(echo_flush)
        parked = [asyncio.ensure_future(batcher.submit(i)) for i in range(3)]
        await asyncio.sleep(0)
        batcher.close()
        assert not batcher.timer_armed
        for future in parked:
            with pytest.raises(BatcherClosed):
                await future
        # After close, submissions fail fast instead of parking forever.
        with pytest.raises(BatcherClosed):
            await batcher.submit("late")

    run(scenario())


def test_close_propagates_custom_exception(slow_timer):
    from repro.serving import BatcherClosed

    async def scenario():
        batcher = LaneBatcher(echo_flush)
        parked = asyncio.ensure_future(batcher.submit("q"))
        await asyncio.sleep(0)
        batcher.close(BatcherClosed("server shut down"))
        with pytest.raises(BatcherClosed, match="server shut down"):
            await parked

    run(scenario())
