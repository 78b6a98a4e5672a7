"""Deterministic testing harnesses shipped with the engine.

Currently one member: :mod:`repro.testing.faults`, the seeded
fault-injection plan the chaos suite and the faulted serving bench
drive the resilience layer with (DESIGN.md §12).
"""

from .faults import (
    FAULT_SITES,
    FaultInjector,
    InjectedFault,
    FLUSH_RAISE,
    FLUSH_SLOW,
    HANDLER_STALL,
    PARTIAL_WRITE,
    SOCKET_RESET,
)

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "InjectedFault",
    "FLUSH_RAISE",
    "FLUSH_SLOW",
    "HANDLER_STALL",
    "PARTIAL_WRITE",
    "SOCKET_RESET",
]
