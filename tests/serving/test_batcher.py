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


# -- the adaptive window ---------------------------------------------------
#
# These tests run on a loop whose clock moves only when a test moves it,
# so the 60 s window closes exactly when a test says so and never on the
# wall clock.  A test must not await a parked future without first
# moving the clock past its window: the loop would then sleep for real.


class FakeClockLoop(asyncio.SelectorEventLoop):
    def __init__(self):
        super().__init__()
        self.now = 0.0

    def time(self):
        return self.now


def run_on_fake_clock(scenario):
    loop = FakeClockLoop()
    try:
        return loop.run_until_complete(scenario(loop))
    finally:
        loop.close()


async def spin(turns=4):
    """Give the loop a few iterations, with the clock standing still."""
    for _ in range(turns):
        await asyncio.sleep(0)


class RecordingFlush:
    """An echo flush that keeps every batch it was handed."""

    def __init__(self):
        self.batches = []

    def __call__(self, items):
        self.batches.append(list(items))
        return echo_flush(items)


async def after_a_lone_flush(flush=echo_flush):
    """A batcher whose last batch held one item."""
    batcher = LaneBatcher(flush)
    first = asyncio.ensure_future(batcher.submit("first"))
    await spin()
    batcher.flush_now()
    assert await first == ("seen", "first")
    return batcher


def test_a_fresh_batcher_parks_its_first_lone_item(slow_timer):
    async def scenario(loop):
        batcher = LaneBatcher(echo_flush)
        parked = asyncio.ensure_future(batcher.submit("q"))
        await spin(8)
        assert not parked.done()
        assert batcher.pending == 1 and batcher.timer_armed
        loop.now += 60.0
        assert await parked == ("seen", "q")
        assert batcher.stats.timer_flushes == 1
        assert batcher.stats.tick_flushes == 0

    run_on_fake_clock(scenario)


def test_after_a_lone_flush_the_next_lone_item_flushes_on_the_next_tick(slow_timer):
    async def scenario(loop):
        batcher = await after_a_lone_flush()
        follower = asyncio.ensure_future(batcher.submit("next"))
        await spin()
        assert follower.done()  # the clock never moved
        assert follower.result() == ("seen", "next")
        assert not batcher.timer_armed
        assert batcher.stats.tick_flushes == 1
        assert batcher.stats.timer_flushes == 0
        # Still alone, so the one after that does not wait either.
        again = asyncio.ensure_future(batcher.submit("again"))
        await spin()
        assert again.done() and batcher.stats.tick_flushes == 2

    run_on_fake_clock(scenario)


def test_items_submitted_in_the_same_tick_share_its_batch(slow_timer):
    async def scenario(loop):
        flush = RecordingFlush()
        batcher = await after_a_lone_flush(flush)
        together = [asyncio.ensure_future(batcher.submit(i)) for i in range(3)]
        await spin()
        assert all(task.done() for task in together)
        assert [task.result() for task in together] == [("seen", i) for i in range(3)]
        assert flush.batches == [["first"], [0, 1, 2]]
        assert batcher.stats.tick_flushes == 1

    run_on_fake_clock(scenario)


def test_a_window_that_catches_company_restores_the_full_wait(slow_timer):
    """Burst, idle, burst: the first burst fills one 60 s window; the
    idle stretch falls back to next-tick flushes after one lone
    window; the second burst, caught by a tick, brings the window back."""

    async def scenario(loop):
        flush = RecordingFlush()
        batcher = LaneBatcher(flush)
        burst = [asyncio.ensure_future(batcher.submit(i)) for i in range(5)]
        await spin()
        assert batcher.pending == 5
        loop.now += 60.0
        await asyncio.gather(*burst)
        # Idle: the lone item after a burst still waits out the window ...
        lone = asyncio.ensure_future(batcher.submit("idle-1"))
        await spin(8)
        assert not lone.done()
        loop.now += 60.0
        await lone
        # ... and the next lone item does not.
        lone = asyncio.ensure_future(batcher.submit("idle-2"))
        await spin()
        assert lone.done()
        # The second burst lands in one tick, which catches company.
        burst = [asyncio.ensure_future(batcher.submit(i)) for i in range(5, 7)]
        await spin()
        assert all(task.done() for task in burst)
        lone = asyncio.ensure_future(batcher.submit("idle-3"))
        await spin(8)
        assert not lone.done() and batcher.timer_armed
        loop.now += 60.0
        await lone
        assert flush.batches == [
            [0, 1, 2, 3, 4], ["idle-1"], ["idle-2"], [5, 6], ["idle-3"]
        ]
        stats = batcher.stats
        assert (stats.timer_flushes, stats.tick_flushes) == (3, 2)

    run_on_fake_clock(scenario)


@pytest.mark.parametrize("stop", ["flush_now", "close"])
def test_a_zero_delay_timer_is_cancelled_by_flush_now_and_close(slow_timer, stop):
    from repro.serving import BatcherClosed

    async def scenario(loop):
        flush = RecordingFlush()
        batcher = await after_a_lone_flush(flush)
        parked = asyncio.ensure_future(batcher.submit("q"))
        await asyncio.sleep(0)  # submit runs; its zero-delay timer is armed, not yet run
        assert batcher.pending == 1 and batcher.timer_armed
        getattr(batcher, stop)()
        assert not batcher.timer_armed
        await spin(8)
        if stop == "flush_now":
            assert parked.result() == ("seen", "q")
            assert flush.batches == [["first"], ["q"]]
        else:
            with pytest.raises(BatcherClosed):
                parked.result()
            assert flush.batches == [["first"]]
        assert batcher.stats.tick_flushes == 0
        assert batcher.stats.batches == len(flush.batches)

    run_on_fake_clock(scenario)


def test_flush_triggers_add_up_to_batches(slow_timer):
    async def scenario(loop):
        batcher = LaneBatcher(echo_flush)
        count = WORD_SIZE + 1
        # A full lane and one straggler, which waits out the window ...
        tasks = [asyncio.ensure_future(batcher.submit(i)) for i in range(count)]
        await spin()
        loop.now += 60.0
        await asyncio.gather(*tasks)
        # ... then lone items, which flush on the next tick.
        for item in range(3):
            task = asyncio.ensure_future(batcher.submit(item))
            await spin()
            assert task.done()
        stats = batcher.stats
        assert (stats.full_flushes, stats.timer_flushes, stats.tick_flushes) == (1, 1, 3)
        assert stats.full_flushes + stats.timer_flushes + stats.tick_flushes == stats.batches
        snapshot = stats.snapshot()
        assert snapshot["tick_flushes"] == 3
        assert snapshot["items"] == count + 3

    run_on_fake_clock(scenario)
