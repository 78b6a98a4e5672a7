"""Resilience primitives for the serving layer (DESIGN.md §12).

The server's failure model is built from four small, composable
pieces, all stdlib-only:

* :class:`ResilienceConfig` -- the knob bundle: per-phase request
  deadlines (header read, body read, handler), the body-size cap,
  admission-control limits and the drain budget.  One frozen config
  is shared by every connection of a :class:`~repro.serving.server.
  CircuitServer`.
* :class:`Deadline` -- a wall-clock budget carried through one
  request.  Each await is wrapped in ``asyncio.wait_for(...,
  deadline.remaining())`` so a slow peer (slow-loris headers, a
  dribbled body) or a slow handler is *cancelled*, never parked
  forever.
* :class:`ResilienceStats` -- the shed/timeout/error counters the
  ``/stats`` route surfaces; operators alert on these, the chaos
  suite asserts on them.
* :class:`IdempotencyCache` -- an LRU of completed mutation responses
  keyed by client-supplied token, so a retry of a ``/facts`` delta
  whose response was lost on the wire replays the recorded response
  instead of double-applying the delta.

Nothing here imports the server; the pieces are unit-testable and
reused by the fault-injection suite (``repro.testing.faults``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "Deadline",
    "ResilienceConfig",
    "ResilienceStats",
    "IdempotencyCache",
]


class Deadline:
    """A monotonic wall-clock budget for one request phase.

    ``remaining()`` is what every ``asyncio.wait_for`` in the phase
    gets: the budget shrinks as the phase progresses, so ten slow
    header lines cannot each spend the full header budget.
    """

    __slots__ = ("phase", "budget", "_expires")

    def __init__(self, phase: str, budget: float):
        self.phase = phase
        self.budget = budget
        self._expires = time.monotonic() + budget

    def remaining(self) -> float:
        return self._expires - time.monotonic()


@dataclass(frozen=True)
class ResilienceConfig:
    """The server's failure-model knobs (see README "Operating the server").

    Defaults are sized for tests and small deployments; production
    operators tune them per workload.  ``None`` disables an individual
    deadline (the phase may then block indefinitely -- only sensible
    behind an external proxy that enforces its own).
    """

    #: Budget to read the request line + headers.  An idle keep-alive
    #: connection timing out *before any byte* of the next request is
    #: closed silently; a peer that started a request and stalled
    #: (slow-loris) gets 408 and the connection is closed.
    header_timeout: Optional[float] = 10.0
    #: Budget to read the declared body once headers are in.
    body_timeout: Optional[float] = 10.0
    #: Budget for the route handler itself (grounding, compilation,
    #: lane waits).  Expiry cancels the handler and maps
    #: to 504 with a structured error body.
    handler_timeout: Optional[float] = 30.0
    #: Bodies larger than this are rejected with 413 without reading
    #: them (the declared Content-Length is checked first).
    max_body_bytes: int = 4 * 1024 * 1024
    #: Admission control: connections accepted beyond this are shed
    #: immediately with 503 + Retry-After, bounding event-loop fanout.
    max_connections: int = 256
    #: Admission control: requests dispatched concurrently beyond this
    #: are shed with 503 + Retry-After instead of queueing unboundedly.
    max_inflight: int = 128
    #: The Retry-After hint (seconds) sent with every 503 shed.
    retry_after: float = 0.05
    #: Graceful-shutdown budget: how long ``close()`` waits for
    #: in-flight requests to finish before failing what remains.
    shutdown_grace: float = 5.0
    #: Completed mutation responses remembered for idempotent replay.
    idempotency_cache_size: int = 1024

    def deadline(self, phase: str) -> Optional[Deadline]:
        budget = getattr(self, f"{phase}_timeout")
        return None if budget is None else Deadline(phase, budget)


class ResilienceStats:
    """Shed/timeout/error counters, surfaced under ``/stats``.

    Every counter is monotone; the chaos suite and operators read the
    snapshot, so names are part of the wire contract.
    """

    __slots__ = (
        "shed_connections",
        "shed_requests",
        "header_timeouts",
        "body_timeouts",
        "handler_timeouts",
        "oversize_rejections",
        "bad_requests",
        "disconnects",
        "internal_errors",
        "idempotent_replays",
        "drained_futures",
        "failed_futures",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class IdempotencyCache:
    """LRU of completed mutation responses keyed by client token.

    The contract (DESIGN.md §12): a mutation request carrying
    ``"idempotency_key"`` is applied at most once per ``(circuit key,
    token)``; a repeat returns the recorded ``(status, payload)`` with
    ``"replayed": true`` merged in, so a client whose response was
    lost on the wire can retry the POST safely.  Only *completed*
    responses are recorded -- a request that failed before the delta
    applied records nothing, and the retry re-executes.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str], Tuple[int, dict]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, scope: str, token: str) -> Optional[Tuple[int, dict]]:
        entry = self._entries.get((scope, token))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end((scope, token))
        status, payload = entry
        return status, {**payload, "replayed": True}

    def put(self, scope: str, token: str, status: int, payload: dict) -> None:
        self._entries[(scope, token)] = (status, payload)
        self._entries.move_to_end((scope, token))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}
