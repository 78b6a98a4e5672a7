"""Serving layer: long-lived circuit evaluation over asyncio (DESIGN.md §10).

The paper's compile-once/evaluate-many contract becomes a network
service here:

* :class:`~repro.serving.batcher.LaneBatcher` -- the micro-batching
  queue that coalesces concurrent point queries into the 64-wide
  bitset lanes of ``evaluate_boolean_batch`` (flush on lane-full or a
  small timer);
* :class:`~repro.serving.server.CircuitServer` -- the asyncio HTTP
  server holding an LRU cache of compiled circuits keyed by
  ``(program fingerprint, database fingerprint, construction)``;
* :class:`~repro.serving.client.CircuitClient` -- a stdlib asyncio
  client speaking the same wire format, used by the tests and
  ``benchmarks/bench_serving.py``;
* :mod:`~repro.serving.resilience` -- the failure model (DESIGN.md
  §12): request deadlines, load shedding, idempotent mutation replay
  and the shed/timeout counters, configured by
  :class:`~repro.serving.resilience.ResilienceConfig` and paired on
  the client side by :class:`~repro.serving.client.RetryPolicy`.

Everything is standard library only: the HTTP/1.1 framing is
hand-rolled over ``asyncio`` streams, so the server runs wherever the
engine does.
"""

from .batcher import BatcherClosed, BatcherStats, LaneBatcher
from .client import CircuitClient, RetryPolicy, ServerError
from .resilience import (
    Deadline,
    IdempotencyCache,
    ResilienceConfig,
    ResilienceStats,
)
from .server import CircuitServer, ServingError

__all__ = [
    "BatcherClosed",
    "BatcherStats",
    "LaneBatcher",
    "CircuitClient",
    "CircuitServer",
    "Deadline",
    "IdempotencyCache",
    "ResilienceConfig",
    "ResilienceStats",
    "RetryPolicy",
    "ServerError",
    "ServingError",
]
