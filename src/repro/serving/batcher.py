"""Micro-batching queue: coalesce point queries into evaluation lanes.

``CompiledCircuit.evaluate_boolean_batch`` packs up to 64 Boolean
assignments into one integer bitmask per gate and evaluates them in a
single ``|``/``&`` pass -- but only if someone hands it 64 assignments
at once.  A serving workload arrives as independent point queries, so
the :class:`LaneBatcher` sits between the two: concurrent ``submit``
calls park on futures while their payloads accumulate, and the batch
is flushed through the (synchronous) kernel when a full lane is
assembled or when the batch's window closes.  The window adapts, as in
Clipper's adaptive batching (Crankshaw et al., NSDI 2017): it stays
open :data:`MAX_DELAY` seconds only while the previous batch caught
company.  After a lone flush, the next batch closes on the next loop
tick, taking whatever arrived in the same pass; a tick that catches a
second item restores the full window.  The same queue fronts
``evaluate_batch`` for numeric semirings, where batching amortizes the
kernel lookup and bind loop rather than bit-level parallelism.

The flush callable runs on the event loop thread: circuit kernels are
pure compute with no awaits, and a 64-wide Boolean pass is far cheaper
than the socket round-trips it serves, so handing it to an executor
would cost more in handoff than it saves.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..circuits.runtime import WORD_SIZE

__all__ = ["BatcherClosed", "BatcherStats", "LaneBatcher"]

#: The micro-batching window, in seconds: how long the first item of
#: a batch waits for company while the previous batch had some.  A
#: batcher that always flushed on the next loop tick left
#: ``bench_serving``'s smoke lanes 43% full (44 batches) against 63%
#: (30 batches) with this window; the adaptive window falls back to
#: the next tick only after a lone flush, so a saturated burst keeps it.
MAX_DELAY = 0.002


class BatcherClosed(RuntimeError):
    """Raised into futures still parked when the batcher closes."""


class BatcherStats:
    """Counters for one batcher: how full were the lanes we paid for?

    ``fill_ratio`` is the serving-efficiency headline: items divided by
    lane slots across all flushed batches.  1.0 means every bitset pass
    carried 64 queries; 1/64 ≈ 0.016 means the batcher degenerated to
    point evaluation.
    """

    __slots__ = ("batches", "items", "full_flushes", "timer_flushes", "tick_flushes", "errors")

    def __init__(self):
        self.batches = 0
        self.items = 0
        self.full_flushes = 0
        self.timer_flushes = 0
        self.tick_flushes = 0
        self.errors = 0

    @property
    def fill_ratio(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.items / (self.batches * WORD_SIZE)

    def record(self, width: int, trigger: str) -> None:
        self.batches += 1
        self.items += width
        if trigger == "full":
            self.full_flushes += 1
        elif trigger == "timer":
            self.timer_flushes += 1
        elif trigger == "tick":
            self.tick_flushes += 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "lane_width": WORD_SIZE,
            "batches": self.batches,
            "items": self.items,
            "full_flushes": self.full_flushes,
            "timer_flushes": self.timer_flushes,
            "tick_flushes": self.tick_flushes,
            "errors": self.errors,
            "fill_ratio": round(self.fill_ratio, 4),
        }


class LaneBatcher:
    """Coalesce awaited point submissions into ``WORD_SIZE``-wide batches.

    *flush* is a synchronous callable ``items -> results`` (same
    length, same order).  ``submit`` enqueues one item and resolves to
    its result once the batch containing it runs.  Flush policy:

    * **lane-full** -- the moment ``WORD_SIZE`` items are queued, the
      batch runs immediately (no timer wait);
    * **timer** -- otherwise, if the last flushed batch held more than
      one item, a flush fires :data:`MAX_DELAY` seconds after the first
      item of the batch arrived, so a lone query never waits longer
      than the micro-batching window;
    * **tick** -- if the last flushed batch held one item, the timer is
      armed at zero instead: the batch flushes on the next loop
      iteration with whatever arrived in the same pass.

    A fresh batcher starts as if its last batch had company, so its
    first item waits out the full window.

    A flush exception is fanned out to every future in that batch;
    later batches are unaffected.

    Lifecycle: every flush path -- lane-full, timer, tick,
    :meth:`flush_now` and :meth:`close` -- cancels the armed timer,
    zero-delay or not, before running, so a batch is never flushed
    twice and no stale ``call_later`` handle outlives its batch.  :meth:`close` additionally *fails* whatever
    is still parked with :class:`BatcherClosed` instead of leaving the
    futures pending forever: the server's graceful shutdown drains
    what it can first, then closes.
    """

    def __init__(self, flush: Callable[[List[Any]], Sequence[Any]]):
        self._flush_fn = flush
        self._pending: List[tuple] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        # Whether the last flushed batch held more than one item.
        self._company = True
        self._closed = False
        self.stats = BatcherStats()

    async def submit(self, item: Any) -> Any:
        if self._closed:
            raise BatcherClosed("batcher is closed; the server is shutting down")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((item, future))
        if len(self._pending) >= WORD_SIZE:
            self._flush("full")
        elif self._timer is None:
            delay, trigger = (MAX_DELAY, "timer") if self._company else (0, "tick")
            self._timer = loop.call_later(delay, self._flush, trigger)
        return await future

    def flush_now(self) -> None:
        """Run whatever is queued immediately (shutdown/drain path)."""
        self._flush("drain")

    def close(self, exc: Optional[BaseException] = None) -> None:
        """Cancel the armed timer and fail every parked future.

        After close, :meth:`submit` raises immediately.  *exc* defaults
        to :class:`BatcherClosed`; the server's shutdown passes its own
        message so a waiter sees *why* its query died.
        """
        self._closed = True
        self._cancel_timer()
        pending, self._pending = self._pending, []
        error = exc if exc is not None else BatcherClosed("batcher closed with queries parked")
        for _, future in pending:
            if not future.done():
                future.set_exception(error)

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def timer_armed(self) -> bool:
        """True iff a ``call_later`` flush timer (timer or tick) is live."""
        return self._timer is not None

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _flush(self, trigger: str) -> None:
        self._cancel_timer()
        pending, self._pending = self._pending, []
        if not pending:
            return
        self._company = len(pending) > 1
        self.stats.record(len(pending), trigger)
        try:
            results = self._flush_fn([item for item, _ in pending])
        except Exception as exc:  # fan the failure out to every waiter
            self.stats.errors += 1
            for _, future in pending:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(pending, results):
            if not future.done():
                future.set_result(result)
