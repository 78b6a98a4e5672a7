"""Seeded fault injection for the serving stack (DESIGN.md §12).

The resilience layer's contract -- every answer under faults is
either exactly correct or an explicit 4xx/5xx, never a hang, never a
silently wrong value -- is only testable if faults are *reproducible*.
This module is that reproducibility: a :class:`FaultInjector` holds
one seeded ``random.Random`` stream per site, so a chaos run is a pure
function of ``(seed, request schedule)`` and a failure shrinks to a
seed number in a CI matrix.

Injection sites (the names are the wire between this module and the
code under test):

========================  =================================================
``socket.reset``          abort the connection instead of writing the
                          response (client sees a dropped connection)
``socket.partial_write``  write a response prefix, then abort (torn frame)
``flush.raise``           a lane-batcher flush kernel raises
``flush.slow``            a lane-batcher flush kernel stalls (blocking)
``handler.stall``         the route handler stalls cooperatively
                          (exercises the handler deadline -> 504)
========================  =================================================

The server consults the injector *only* when one is passed to its
constructor; production paths carry a ``None`` check and nothing else.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, Mapping, Optional

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "InjectedFault",
    "SOCKET_RESET",
    "PARTIAL_WRITE",
    "FLUSH_RAISE",
    "FLUSH_SLOW",
    "HANDLER_STALL",
]

SOCKET_RESET = "socket.reset"
PARTIAL_WRITE = "socket.partial_write"
FLUSH_RAISE = "flush.raise"
FLUSH_SLOW = "flush.slow"
HANDLER_STALL = "handler.stall"

FAULT_SITES = (
    SOCKET_RESET,
    PARTIAL_WRITE,
    FLUSH_RAISE,
    FLUSH_SLOW,
    HANDLER_STALL,
)


class InjectedFault(Exception):
    """A deliberately injected failure (never raised in production)."""

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site}")
        self.site = site


class FaultInjector:
    """A deterministic, seeded plan of failures across named sites.

    *rates* maps a site name to its per-probe firing probability;
    *delays* maps the slow sites (``flush.slow``, ``handler.stall``)
    to the stall duration in seconds when they fire.  Each site draws
    from its own ``random.Random(f"{seed}:{site}")`` stream, so adding a
    probe at one site never perturbs another site's schedule --
    shrinking a chaos failure stays local.

    ``max_per_site`` caps firings per site (default unbounded), which
    keeps high-rate plans from starving a run of any successful
    traffic.  ``fired`` counts actual injections per site; the chaos
    suite asserts the plan actually exercised what it claims to.
    """

    def __init__(
        self,
        seed: int,
        rates: Mapping[str, float],
        delays: Optional[Mapping[str, float]] = None,
        max_per_site: Optional[int] = None,
    ):
        unknown = set(rates) - set(FAULT_SITES)
        if unknown:
            raise ValueError(f"unknown fault site(s): {sorted(unknown)}")
        self.seed = seed
        self.rates = dict(rates)
        self.delays = dict(delays or {})
        self.max_per_site = max_per_site
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(f"{seed}:{site}") for site in FAULT_SITES
        }
        self.probes: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self.fired: Dict[str, int] = {site: 0 for site in FAULT_SITES}

    # -- probing -------------------------------------------------------

    def fires(self, site: str) -> bool:
        """One seeded Bernoulli draw at *site* (records the outcome)."""
        self.probes[site] += 1
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if self.max_per_site is not None and self.fired[site] >= self.max_per_site:
            return False
        if self._rngs[site].random() >= rate:
            return False
        self.fired[site] += 1
        return True

    def check(self, site: str) -> None:
        """Raise :class:`InjectedFault` when the site fires."""
        if self.fires(site):
            raise InjectedFault(site)

    def stall_sync(self, site: str) -> None:
        """Blocking stall (models a slow synchronous kernel)."""
        if self.fires(site):
            time.sleep(self.delays.get(site, 0.01))

    async def stall_async(self, site: str) -> None:
        """Cooperative stall (cancellable -- exercises deadlines)."""
        if self.fires(site):
            await asyncio.sleep(self.delays.get(site, 0.01))

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {
            "fired": {k: v for k, v in self.fired.items() if v},
            "probes": {k: v for k, v in self.probes.items() if v},
        }

    def __repr__(self) -> str:
        live = {site: rate for site, rate in self.rates.items() if rate > 0}
        return f"FaultInjector(seed={self.seed}, rates={live})"
