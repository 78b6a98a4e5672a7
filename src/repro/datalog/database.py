"""Annotated input databases (the EDB instance ``I``).

Each EDB fact carries an optional *weight* (semiring annotation) and
is itself the provenance *tag* -- the ``x_α`` variable of Section 2.4
that circuits use as input-gate labels.  :meth:`Database.valuation`
turns the stored weights into a circuit-evaluation assignment.

The class is the user-facing façade over two physical layouts: the
historical per-predicate Python sets (direct membership tests, cheap
single-fact writes) and a lazily materialized interned
:class:`~repro.datalog.store.ColumnarStore` (DESIGN.md §8) that the
``engine="columnar"`` grounding backend consumes.  Derived views that
used to rescan every fact on each call -- the sorted fact list, the
active domain, per-semiring valuations and the columnar store -- are
cached and dropped on mutation, so hot paths (grounding, repeated
evaluation, circuit construction) pay the scan once per database
state, not once per call.  There is one policy: an insert or retract
drops every view, a reweight drops the valuations.

*Observers* (a :class:`~repro.datalog.incremental.MaintainedFixpoint`,
a :class:`repro.api.StreamSession`) attach to follow single-fact
writes (DESIGN.md §11).  Before a write mutates anything, each
observer's ``_guard_edb`` may reject it; after the write has landed
and the views are dropped, each observer's ``_apply_insert`` /
``_apply_retract`` / ``_apply_weight`` hook runs, in attach order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

from ..semirings.base import Semiring
from .ast import Fact
from .store import ColumnarStore, SymbolTable

__all__ = ["Database", "check_weight"]


def check_weight(weight: object) -> None:
    """Raise ``ValueError`` if *weight* is a float NaN.

    NaN is outside the domain of every built-in semiring: ``min``/``max``
    folds over it depend on operand order, so the fixpoint strategies
    would stop agreeing with each other.  Every weight a database
    stores and every ``weights=`` override of a fixpoint passes here.
    """
    if isinstance(weight, float) and weight != weight:
        raise ValueError("NaN is not a semiring value")


class Database:
    """A set of EDB facts with optional semiring annotations."""

    #: Distinct semirings cached per database state (FIFO eviction).
    _VALUATION_CACHE_SIZE = 8

    def __init__(self, facts: Iterable[Fact] = (), weights: Optional[Mapping[Fact, object]] = None):
        self._relations: Dict[str, set[Tuple[Hashable, ...]]] = {}
        self._weights: Dict[Fact, object] = {}
        # Derived-view caches, all dropped by _invalidate().  The
        # valuation cache is keyed by id(semiring) with the semiring
        # kept in the value so the id stays pinned.
        self._facts_cache: Optional[Tuple[Fact, ...]] = None
        self._domain_cache: Optional[FrozenSet[Hashable]] = None
        self._valuation_cache: Dict[int, Tuple[Semiring, Dict[Fact, object]]] = {}
        self._columnar_cache: Optional[ColumnarStore] = None
        # Interning scope for columnar materialization: None = the
        # process-wide GLOBAL_SYMBOLS; set by columnar_store(symbols=...)
        # and sticky across cache invalidations.
        self._columnar_symbols: Optional[SymbolTable] = None
        # Attached observers, notified in attach order (DESIGN.md §11).
        self._observers: list = []
        #: Bumped by every structural write (an insert or a retract):
        #: a consumer that caches what the facts ground to compares it
        #: with the count it saw when it filled the cache.
        self.structural_writes = 0
        for fact in facts:
            self.add_fact(fact)
        if weights:
            for fact, weight in weights.items():
                self.add_fact(fact, weight)

    # -- construction ----------------------------------------------------

    def add(self, predicate: str, *args: Hashable, weight: object = None) -> Fact:
        """Insert ``predicate(*args)``; returns the created :class:`Fact`."""
        fact = Fact(predicate, args)
        return self.add_fact(fact, weight)

    def add_fact(self, fact: Fact, weight: object = None) -> Fact:
        check_weight(weight)
        self._guard(fact)
        relation = self._relations.setdefault(fact.predicate, set())
        if fact.args in relation:
            if weight is not None:
                self._set(fact, weight)
            return fact
        relation.add(fact.args)
        if weight is not None:
            self._weights[fact] = weight
        self._invalidate()
        for observer in tuple(self._observers):
            observer._apply_insert(fact, weight)
        return fact

    def retract(self, predicate: str, *args: Hashable) -> Fact:
        """Remove ``predicate(*args)``; returns the removed :class:`Fact`.

        Raises :class:`KeyError` when the fact is not present -- a
        silent no-op would let a streaming client believe an expiry
        landed when it targeted the wrong fact.
        """
        return self.retract_fact(Fact(predicate, args))

    def retract_fact(self, fact: Fact) -> Fact:
        self._guard(fact)
        relation = self._relations.get(fact.predicate)
        if relation is None or fact.args not in relation:
            raise KeyError(f"{fact} not in database")
        relation.remove(fact.args)
        self._weights.pop(fact, None)
        self._invalidate()
        for observer in tuple(self._observers):
            observer._apply_retract(fact)
        return fact

    def _invalidate(self, structural: bool = True) -> None:
        """Drop the derived views a write can change: the valuations
        always, and for an insert or retract (*structural*) also the
        fact tuple, the active domain and the columnar snapshot."""
        self._valuation_cache.clear()
        if structural:
            self.structural_writes += 1
            self._facts_cache = None
            self._domain_cache = None
            self._columnar_cache = None

    # -- observers -------------------------------------------------------

    def _guard(self, fact: Fact) -> None:
        """Let every observer reject a write before anything mutates."""
        for observer in self._observers:
            observer._guard_edb(fact)

    def _attach_observer(self, observer) -> None:
        if observer not in self._observers:
            self._observers.append(observer)

    def _detach_observer(self, observer) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable]],
        predicate: str = "E",
        weights: Optional[Mapping[Tuple[Hashable, Hashable], object]] = None,
    ) -> "Database":
        """Binary-relation shortcut: a digraph as the EDB ``E``."""
        db = cls()
        weights = weights or {}
        for u, v in edges:
            db.add(predicate, u, v, weight=weights.get((u, v)))
        return db

    @classmethod
    def from_labeled_edges(
        cls,
        edges: Iterable[Tuple[Hashable, str, Hashable]],
        weights: Optional[Mapping[Tuple[Hashable, str, Hashable], object]] = None,
    ) -> "Database":
        """Edge-labeled digraph: label ``a`` becomes binary EDB ``a``."""
        db = cls()
        weights = weights or {}
        for u, label, v in edges:
            db.add(label, u, v, weight=weights.get((u, label, v)))
        return db

    # -- access ------------------------------------------------------------

    def predicates(self) -> FrozenSet[str]:
        return frozenset(self._relations)

    def tuples(self, predicate: str) -> FrozenSet[Tuple[Hashable, ...]]:
        return frozenset(self._relations.get(predicate, ()))

    def facts(self, predicate: Optional[str] = None) -> Iterator[Fact]:
        if predicate is None:
            if self._facts_cache is None:
                self._facts_cache = tuple(
                    Fact(pred, args)
                    for pred in sorted(self._relations)
                    for args in sorted(self._relations.get(pred, ()), key=repr)
                )
            yield from self._facts_cache
            return
        for args in sorted(self._relations.get(predicate, ()), key=repr):
            yield Fact(predicate, args)

    def __contains__(self, fact: Fact) -> bool:
        return fact.args in self._relations.get(fact.predicate, ())

    def __len__(self) -> int:
        """Input size ``m``: total number of EDB facts."""
        return sum(len(tuples) for tuples in self._relations.values())

    @property
    def size(self) -> int:
        return len(self)

    def active_domain(self) -> FrozenSet[Hashable]:
        """``Dom(I)``: all constants occurring in the input.

        Cached per database state -- callers like full grounding and
        the columnar grounder may ask repeatedly between mutations.
        """
        if self._domain_cache is None:
            domain: set[Hashable] = set()
            for tuples in self._relations.values():
                for args in tuples:
                    domain.update(args)
            self._domain_cache = frozenset(domain)
        return self._domain_cache

    # -- columnar materialization ------------------------------------------

    def columnar_store(self, symbols: Optional["SymbolTable"] = None) -> ColumnarStore:
        """The interned columnar snapshot of this database (DESIGN.md §8).

        Materialized lazily on first use against the process-wide
        symbol table and cached until the next mutation.  The returned
        store is shared: consumers that append derived facts (the
        ``engine="columnar"`` grounder) must take a
        :meth:`~repro.datalog.store.ColumnarStore.copy` first;
        read-only consumers (pattern lookups, scans) may use it
        directly, and any indexes they build stay cached here.

        Pass a private *symbols* table to keep this database's
        constants out of the process-wide table (the global table is
        never pruned, so long-lived processes churning through many
        short-lived databases with unique constants should scope
        interning to the database's lifetime).  The table *sticks*:
        it replaces the cache and every later materialization of this
        database -- including the ones ``engine="columnar"`` grounding
        runs trigger internally -- interns into it, so the escape
        hatch is one call, not a parameter on every entry point.
        Scope **before** the first columnar use: constants a prior
        no-arg materialization already interned into the global table
        cannot be un-interned.
        """
        if symbols is not None and symbols is not self._columnar_symbols:
            self._columnar_symbols = symbols
            self._columnar_cache = None
        if self._columnar_cache is None:
            self._columnar_cache = ColumnarStore.from_facts(
                self.facts(), self._columnar_symbols
            )
        return self._columnar_cache

    # -- annotations ---------------------------------------------------------

    def weight(self, fact: Fact, default: object = None) -> object:
        return self._weights.get(fact, default)

    def set_weight(self, fact: Fact, weight: object) -> None:
        self._guard(fact)
        if fact not in self:
            raise KeyError(f"{fact} not in database")
        check_weight(weight)
        self._set(fact, weight)

    def _set(self, fact: Fact, weight: object) -> None:
        """Reweight a stored fact and tell the observers."""
        self._weights[fact] = weight
        self._invalidate(structural=False)
        for observer in tuple(self._observers):
            observer._apply_weight(fact, weight)

    def valuation(self, semiring: Semiring) -> Dict[Fact, object]:
        """Fact → semiring value; unannotated facts default to ``1``.

        This is the assignment ``x_α ↦ value`` used both by naive
        Datalog evaluation and by circuit evaluation, so the two can
        be cross-checked gate-for-gate.  Computed once per
        ``(database state, semiring)`` and cached; a fresh dict copy
        is returned each call so callers may mutate their view.
        """
        cached = self._valuation_cache.get(id(semiring))
        if cached is None:
            out: Dict[Fact, object] = {}
            one = semiring.one
            weights = self._weights
            for fact in self.facts():
                weight = weights.get(fact)
                out[fact] = one if weight is None else weight
            # Bounded FIFO: callers constructing fresh semiring objects
            # per query must not pin one full valuation (plus the
            # semiring) per call for the life of the database.
            while len(self._valuation_cache) >= self._VALUATION_CACHE_SIZE:
                self._valuation_cache.pop(next(iter(self._valuation_cache)))
            self._valuation_cache[id(semiring)] = (semiring, out)
            return dict(out)
        return dict(cached[1])

    def copy(self) -> "Database":
        clone = Database()
        for pred, tuples in self._relations.items():
            for args in tuples:
                clone.add(pred, *args)
        clone._weights.update(self._weights)
        # The interning scope travels with the data: a clone of a
        # privately-scoped database must not leak its constants into
        # the process-wide table on its first columnar use.
        clone._columnar_symbols = self._columnar_symbols
        return clone

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{pred}:{len(tuples)}" for pred, tuples in sorted(self._relations.items())
        )
        return f"Database({parts or 'empty'})"
