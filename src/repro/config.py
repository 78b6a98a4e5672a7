"""The execution knobs, unified: one :class:`ExecutionConfig` for every layer.

This module is the single source of truth every layer shares
(DESIGN.md §10):

* the knob vocabularies (:data:`GROUNDING_ENGINES`,
  :data:`FIXPOINT_STRATEGIES`, :data:`CONSTRUCTIONS`) and their
  defaults, which every layer imports from here;
* :class:`ExecutionConfig`, the one value every layer accepts via a
  ``config=`` keyword -- grounding, fixpoint, circuit construction,
  the :mod:`repro.api` facade and the serving stack
  (:mod:`repro.serving`) all thread the same frozen object.  Its five
  knobs are ``engine``, ``strategy``, ``construction``,
  ``optimize_depth`` and ``prune``.

Grounding and fixpoint each have exactly one fast path (``columnar``,
the default) and one paper-literal reference oracle (``naive``); the
equivalence tests compare every fast path against the oracle.

It deliberately imports nothing from the rest of the package so every
layer -- including :mod:`repro.datalog.grounding` at the bottom of the
stack -- can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional, Tuple, Union

__all__ = [
    "GROUNDING_ENGINES",
    "DEFAULT_GROUNDING_ENGINE",
    "FIXPOINT_STRATEGIES",
    "DEFAULT_FIXPOINT_STRATEGY",
    "CONSTRUCTIONS",
    "DEFAULT_CONSTRUCTION",
    "ExecutionConfig",
    "DEFAULT_CONFIG",
    "coerce_config",
]

#: Join engines for grounding (DESIGN.md §8): ``columnar`` runs the
#: fused delta-driven pass in interned id space, ``naive`` is the
#: reference fixpoint-then-re-join oracle.
GROUNDING_ENGINES: Tuple[str, ...] = ("columnar", "naive")
DEFAULT_GROUNDING_ENGINE = "columnar"

#: Fixpoint strategies (DESIGN.md §9): ``columnar`` re-evaluates only
#: dirty rules on dense id-indexed arrays, ``naive`` is the paper's
#: literal Section 2.3 loop.
FIXPOINT_STRATEGIES: Tuple[str, ...] = ("columnar", "naive")
DEFAULT_FIXPOINT_STRATEGY = "columnar"

#: Circuit constructions (Sections 3-6): ``auto`` runs the paper's
#: decision tree (:func:`repro.constructions.auto.provenance_circuit`),
#: ``generic`` pins Theorem 3.1, ``fringe`` pins Theorem 6.2.
CONSTRUCTIONS: Tuple[str, ...] = ("auto", "generic", "fringe")
DEFAULT_CONSTRUCTION = "auto"

_VOCABULARIES = {
    "engine": GROUNDING_ENGINES,
    "strategy": FIXPOINT_STRATEGIES,
    "construction": CONSTRUCTIONS,
}


@dataclass(frozen=True)
class ExecutionConfig:
    """One immutable bundle of execution knobs, accepted everywhere.

    ``None`` fields mean "use the repo default", so a partially
    specified config composes cleanly across layers: the fixpoint
    engine reads ``strategy``, the grounding layer reads ``engine``,
    the construction layer reads ``construction``/``optimize_depth``,
    and each ignores the fields it does not own.  The ``resolved_*``
    properties apply the defaults.

    Configs are hashable and cheap; build them once and thread them
    (:class:`repro.api.Session` and :class:`repro.serving.CircuitServer`
    both key caches on them).
    """

    engine: Optional[str] = None
    strategy: Optional[str] = None
    construction: Optional[str] = None
    optimize_depth: bool = False
    #: Drop rules unreachable from the target before grounding
    #: (:func:`repro.datalog.analysis.prune_unreachable`).  Off by
    #: default: pruning is exact for the target cone but removes
    #: unreachable IDB predicates from the result set entirely.
    prune: bool = False

    def __post_init__(self) -> None:
        for field in ("engine", "strategy", "construction"):
            value = getattr(self, field)
            allowed = _VOCABULARIES[field]
            if value is not None and value not in allowed:
                raise ValueError(
                    f"unknown {field} {value!r}; expected one of {allowed} (or None for the default)"
                )
        for field in ("optimize_depth", "prune"):
            if not isinstance(getattr(self, field), bool):
                raise TypeError(f"{field} must be a bool, got {getattr(self, field)!r}")

    @property
    def resolved_engine(self) -> str:
        return self.engine or DEFAULT_GROUNDING_ENGINE

    @property
    def resolved_strategy(self) -> str:
        return self.strategy or DEFAULT_FIXPOINT_STRATEGY

    @property
    def resolved_construction(self) -> str:
        return self.construction or DEFAULT_CONSTRUCTION

    def evolve(self, **changes) -> "ExecutionConfig":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    def key(self) -> Tuple:
        """A stable, hashable identity (used in cache keys)."""
        return tuple(getattr(self, f.name) for f in fields(self))


#: The all-defaults config; what ``config=None`` coerces to.
DEFAULT_CONFIG = ExecutionConfig()

ConfigLike = Union[None, ExecutionConfig, Mapping[str, object]]


def coerce_config(config: ConfigLike) -> ExecutionConfig:
    """Normalize ``None`` | mapping | :class:`ExecutionConfig` to a config.

    Mappings (e.g. a JSON body field in the serving layer) are passed
    to the constructor, so unknown keys and values fail loudly.
    """
    if config is None:
        return DEFAULT_CONFIG
    if isinstance(config, ExecutionConfig):
        return config
    if isinstance(config, Mapping):
        return ExecutionConfig(**config)
    raise TypeError(
        f"config must be an ExecutionConfig, a mapping of its fields, or None; got {type(config).__name__}"
    )
