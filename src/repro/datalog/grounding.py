"""Grounding of Datalog programs (Section 2.1).

A *grounding* of a rule instantiates its variables with active-domain
constants.  Two strategies are provided:

* :func:`full_grounding` -- all ``|Dom(I)|^{#vars}`` instantiations
  whose EDB body atoms hold in the input.  This is the paper's
  definition; exponential in rule width, usable only on tiny inputs.

* :func:`relevant_grounding` -- only ground rules all of whose body
  facts are actually derivable.  Omitted ground rules would contribute
  ``0`` to every ICO sum, so provenance polynomials (and therefore all
  circuits built from the grounding) are unchanged; this is what makes
  the Theorem 3.1/6.2 constructions practical (DESIGN.md §2, ablated
  in DESIGN.md §6).

:func:`relevant_grounding` is served by one of two join *engines*,
selected with ``config=ExecutionConfig(engine=...)`` (DESIGN.md §8):

* ``"columnar"`` (the default, the fast path) -- a fused,
  delta-driven pass run entirely in *id space* on the interned
  columnar store of :mod:`repro.datalog.store`: constants are
  interned once into integer ids, relations are parallel
  ``array('q')`` columns, rules are slot-compiled into precomputed
  join plans over sorted-id index ranges, and semi-naive rounds
  consume the store's :class:`~repro.datalog.store.DeltaView`
  windows (:func:`columnar_grounding`).

* ``"naive"`` -- the reference oracle: a Boolean semi-naive fixpoint
  (:func:`derivable_facts`) followed by a backtracking nested-loop
  re-join of every rule, with only single-argument-position indexing
  (narrowest index wins, every candidate row is scanned).  The
  equivalence tests compare the fast path against it.

:class:`ColumnarGroundProgram` is the one ground-program type: ground
rules as parallel int arrays over interned fact ids, the form the
fixpoints, the proof-tree enumerators, the analyzer and the circuit
constructions all consume (DESIGN.md §9).  Every producer emits it --
the naive engine and :func:`full_grounding` intern into a private
:class:`~repro.datalog.store.SymbolTable` so they never grow the
shared one -- and :class:`Fact`/:class:`GroundRule` objects are
decoded from it only on demand (:meth:`ColumnarGroundProgram.rule`,
:meth:`ColumnarGroundProgram.rules_for`).

Both engines produce the *same* set of ground rules; only the number
of join probes differs.  Probes are counted in the context-local
:class:`GroundingStats` capture (:func:`count_join_probes`), the
instrumented counter the benchmarks
(``benchmarks/bench_ablation_grounding.py``) and the regression tests
read.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from array import array

from ..config import (
    DEFAULT_GROUNDING_ENGINE,
    GROUNDING_ENGINES,
    ConfigLike,
    coerce_config,
)
from .ast import Atom, Constant, DatalogError, Fact, Program, Variable
from .database import Database
from .store import SymbolTable

__all__ = [
    "GroundRule",
    "ColumnarGroundProgram",
    "GroundingStats",
    "GROUNDING_STATS",
    "GROUNDING_ENGINES",
    "DEFAULT_GROUNDING_ENGINE",
    "count_join_probes",
    "full_grounding",
    "relevant_grounding",
    "columnar_grounding",
    "derivable_facts",
]

# The engine vocabulary and its default live in repro.config (the
# shared knob module, DESIGN.md §10); the historical names are
# re-exported here because this layer defined them first.


@dataclass
class GroundingStats:
    """Instrumentation for the join engines.

    * ``probes`` -- candidate rows handed to the matcher: the unit of
      join work both engines share, and the metric on which they
      differ (the columnar engine's index ranges return only rows
      that already agree on every bound position, so far fewer rows
      are ever probed).
    * ``matches`` -- probes that extended the substitution.
    * ``ground_rules`` -- ground-rule instances emitted.

    Engines write to the *context-local* stats object
    (:func:`count_join_probes` installs a private capture around the
    region it measures, so concurrent or interleaved measurements
    cannot pollute each other's counts).  Outside any capture they
    fall back to the module-level :data:`GROUNDING_STATS`, which
    accumulates across calls; direct use of the global remains
    supported::

        GROUNDING_STATS.reset()
        relevant_grounding(program, db, config=ExecutionConfig(engine="naive"))
        naive_probes = GROUNDING_STATS.probes
    """

    probes: int = 0
    matches: int = 0
    ground_rules: int = 0

    def reset(self) -> None:
        self.probes = 0
        self.matches = 0
        self.ground_rules = 0


#: Module-level join instrumentation (see :class:`GroundingStats`):
#: the default capture target when no :func:`count_join_probes` scope
#: is active.
GROUNDING_STATS = GroundingStats()

#: The context-local capture target.  ``contextvars`` gives every
#: thread / async task its own binding, so interleaved
#: :func:`count_join_probes` regions are isolated from each other and
#: from the global accumulator.
_GROUNDING_STATS_VAR: ContextVar[GroundingStats] = ContextVar(
    "repro_grounding_stats", default=GROUNDING_STATS
)


def _stats() -> GroundingStats:
    """The stats object engines must write to in the current context."""
    return _GROUNDING_STATS_VAR.get()


def count_join_probes(run):
    """Run ``run()`` against a private stats capture; return
    ``(probes, result)``.

    The one measurement protocol shared by the benchmarks and the
    probe-regression tests, so they cannot drift apart.  The capture
    is context-local: neither a concurrent measurement nor the
    module-level :data:`GROUNDING_STATS` accumulator sees this run's
    counts, and captures nest (an inner capture's counts stay out of
    the outer one).
    """
    capture = GroundingStats()
    token = _GROUNDING_STATS_VAR.set(capture)
    try:
        result = run()
    finally:
        _GROUNDING_STATS_VAR.reset(token)
    return capture.probes, result


@dataclass(frozen=True)
class GroundRule:
    """A grounded rule, body split into IDB and EDB facts.

    The grounded head is derived from ``idb_body ∪ edb_body`` by the
    originating rule; ``rule_index`` back-references the program rule.
    Body tuples preserve the original rule's body-atom order even when
    the join that discovered the instance ran in a different
    (selectivity-chosen) order.
    """

    head: Fact
    idb_body: Tuple[Fact, ...]
    edb_body: Tuple[Fact, ...]
    rule_index: int = -1

    @property
    def body(self) -> Tuple[Fact, ...]:
        return self.idb_body + self.edb_body

    def __repr__(self) -> str:
        body = " ∧ ".join(map(repr, self.body))
        return f"{self.head} :- {body}"


class ColumnarGroundProgram:
    """The grounded program in id space: rules as parallel int arrays
    (DESIGN.md §9).

    The one ground-program type: :func:`columnar_grounding` produces
    it without ever decoding a constant, and the naive engine and
    :func:`full_grounding` emit into it as well.  Every distinct
    ground fact is interned once into a dense *fact id* -- an index
    into the parallel ``fact_preds`` / ``fact_rows`` tables -- and the
    ground rules are parallel ``array('q')`` runs:

    * ``rule_head[r]`` -- the head's fact id;
    * ``rule_no[r]`` -- the originating program-rule index;
    * ``idb_indptr`` / ``idb_flat`` -- CSR rows of IDB body fact ids,
      in original body-atom order;
    * ``edb_indptr`` / ``edb_flat`` -- the same for the EDB body.

    The two adjacency indexes the delta-driven fixpoint consumes --
    fact → rules with it in the IDB body, and head fact → rules
    deriving it -- are CSR arrays over fact ids (:meth:`by_body_csr`,
    :meth:`by_head_csr`): one contiguous ``(indptr, data)`` pair
    each, built in two counting passes and probed by plain integer
    indexing -- no :class:`Fact` hashing anywhere on the fixpoint's
    hot path.

    Decoding back to :class:`Fact` / :class:`GroundRule` objects
    happens only at the boundary (:meth:`decode_fact`,
    :meth:`idb_facts`, :meth:`rule`, :meth:`rules_for`,
    :meth:`rule_keys`), once per distinct fact.
    """

    __slots__ = (
        "program",
        "symbols",
        "iterations",
        "fact_preds",
        "fact_rows",
        "rule_head",
        "rule_no",
        "idb_indptr",
        "idb_flat",
        "edb_indptr",
        "edb_flat",
        "_fact_ids",
        "_decoded",
        "_by_head",
        "_by_body",
        "_idb_fids",
        "_edb_fids",
    )

    def __init__(self, program: Program, symbols: SymbolTable):
        self.program = program
        self.symbols = symbols
        #: Boolean-fixpoint rounds of the grounding pass (set by
        #: :func:`columnar_grounding`; mirrors ``derivable_facts``).
        self.iterations: Optional[int] = None
        self.fact_preds: List[str] = []
        self.fact_rows: List[Tuple[int, ...]] = []
        self.rule_head = array("q")
        self.rule_no = array("q")
        self.idb_indptr = array("q", (0,))
        self.idb_flat = array("q")
        self.edb_indptr = array("q", (0,))
        self.edb_flat = array("q")
        self._fact_ids: Dict[str, Dict[Tuple[int, ...], int]] = {}
        self._decoded: Dict[int, Fact] = {}
        self._by_head: Optional[Tuple[array, array]] = None
        self._by_body: Optional[Tuple[array, array]] = None
        self._idb_fids: Optional[array] = None
        self._edb_fids: Optional[array] = None

    # -- writers (grounding-time) ----------------------------------------

    def interner(self, predicate: str):
        """A ``row ids -> fact id`` interning closure for one predicate.

        The emission hot path calls one of these per body atom per
        ground rule; binding the per-predicate row dict and the fact
        tables up front keeps that to a single small-tuple dict probe
        (no ``(predicate, ids)`` key allocation, no string hashing).
        """
        table = self._fact_ids.setdefault(predicate, {})
        fact_preds, fact_rows = self.fact_preds, self.fact_rows

        def fact_id_for(ids: Tuple[int, ...]) -> int:
            fid = table.get(ids)
            if fid is None:
                fid = len(fact_preds)
                table[ids] = fid
                fact_preds.append(predicate)
                fact_rows.append(ids)
            return fid

        return fact_id_for

    def fact_id(self, predicate: str, ids: Tuple[int, ...]) -> int:
        """The dense fact id of ``predicate(ids)``, interning on first use."""
        return self.interner(predicate)(ids)

    def append_rule(
        self,
        rule_no: int,
        head_fid: int,
        idb_fids: Sequence[int],
        edb_fids: Sequence[int],
    ) -> None:
        self.rule_head.append(head_fid)
        self.rule_no.append(rule_no)
        self.idb_flat.extend(idb_fids)
        self.idb_indptr.append(len(self.idb_flat))
        self.edb_flat.extend(edb_fids)
        self.edb_indptr.append(len(self.edb_flat))
        self._by_head = self._by_body = None
        self._idb_fids = self._edb_fids = None

    # -- shape -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rule_head)

    @property
    def fact_count(self) -> int:
        return len(self.fact_preds)

    @property
    def size(self) -> int:
        """``M`` of Theorem 4.3: total atoms over all ground rules."""
        return len(self.rule_head) + len(self.idb_flat) + len(self.edb_flat)

    def max_body_idbs(self) -> int:
        indptr = self.idb_indptr
        return max(
            (indptr[r + 1] - indptr[r] for r in range(len(self))), default=0
        )

    def idb_fact_ids(self) -> array:
        """Distinct head fact ids, ascending (the IDB facts)."""
        if self._idb_fids is None:
            mark = bytearray(self.fact_count)
            for fid in self.rule_head:
                mark[fid] = 1
            self._idb_fids = array("q", (i for i, m in enumerate(mark) if m))
        return self._idb_fids

    def edb_fact_ids(self) -> array:
        """Distinct EDB body fact ids, ascending."""
        if self._edb_fids is None:
            mark = bytearray(self.fact_count)
            for fid in self.edb_flat:
                mark[fid] = 1
            self._edb_fids = array("q", (i for i, m in enumerate(mark) if m))
        return self._edb_fids

    def target_fact_ids(self) -> List[int]:
        """Head fact ids of the program's target predicate."""
        target = self.program.target
        preds = self.fact_preds
        return [fid for fid in self.idb_fact_ids() if preds[fid] == target]

    # -- CSR adjacency ---------------------------------------------------

    @staticmethod
    def _csr(
        keys: Sequence[int], payload: Sequence[int], buckets: int
    ) -> Tuple[array, array]:
        """Bucket *payload* by *keys*: ``(indptr, data)`` with bucket
        ``b``'s payload at ``data[indptr[b]:indptr[b + 1]]``, append
        order preserved within a bucket (two counting passes)."""
        indptr = [0] * (buckets + 1)
        for key in keys:
            indptr[key + 1] += 1
        for bucket in range(buckets):
            indptr[bucket + 1] += indptr[bucket]
        data = array("q", bytes(8 * len(payload)))
        fill = indptr[:-1]
        for key, value in zip(keys, payload):
            data[fill[key]] = value
            fill[key] += 1
        return array("q", indptr), data

    def by_head_csr(self) -> Tuple[array, array]:
        """Fact id → positions of the ground rules deriving it (CSR).

        ``data[indptr[fid]:indptr[fid + 1]]`` lists rule positions in
        ascending order; non-head fact ids have empty ranges.
        """
        if self._by_head is None:
            self._by_head = self._csr(
                self.rule_head, range(len(self.rule_head)), self.fact_count
            )
        return self._by_head

    def by_body_csr(self) -> Tuple[array, array]:
        """Fact id → positions of the ground rules with that fact in
        their IDB body (CSR; deduplicated per rule).  When a fact's value changes, exactly these rules can
        produce a different ⊗-term."""
        if self._by_body is None:
            keys = array("q")
            payload = array("q")
            indptr, flat = self.idb_indptr, self.idb_flat
            for position in range(len(self)):
                start, stop = indptr[position], indptr[position + 1]
                if stop - start == 1:
                    keys.append(flat[start])
                    payload.append(position)
                elif stop > start:
                    row = flat[start:stop]
                    seen = set()
                    for fid in row:
                        if fid not in seen:
                            seen.add(fid)
                            keys.append(fid)
                            payload.append(position)
            self._by_body = self._csr(keys, payload, self.fact_count)
        return self._by_body

    # -- boundary decoding -----------------------------------------------

    def decode_fact(self, fid: int) -> Fact:
        """The :class:`Fact` behind a fact id, decoded once and cached."""
        fact = self._decoded.get(fid)
        if fact is None:
            fact = Fact(self.fact_preds[fid], self.symbols.decode_row(self.fact_rows[fid]))
            self._decoded[fid] = fact
        return fact

    def find_fact_id(self, fact: Fact) -> Optional[int]:
        """The fact id of *fact*, or ``None`` when it never occurs in
        the grounding (unknown constants short-circuit)."""
        ids = self.symbols.get_row(fact.args)
        if ids is None:
            return None
        return self._fact_ids.get(fact.predicate, {}).get(ids)

    @property
    def idb_facts(self) -> FrozenSet[Fact]:
        return frozenset(self.decode_fact(fid) for fid in self.idb_fact_ids())

    def rule(self, position: int) -> GroundRule:
        """The ground rule at *position*, decoded into :class:`Fact` space."""
        decode = self.decode_fact
        idb = tuple(
            decode(fid)
            for fid in self.idb_flat[
                self.idb_indptr[position] : self.idb_indptr[position + 1]
            ]
        )
        edb = tuple(
            decode(fid)
            for fid in self.edb_flat[
                self.edb_indptr[position] : self.edb_indptr[position + 1]
            ]
        )
        return GroundRule(decode(self.rule_head[position]), idb, edb, self.rule_no[position])

    def rules_for(self, fact: Fact) -> List[GroundRule]:
        """The ground rules deriving *fact*, in rule order (empty when
        no rule does)."""
        fid = self.find_fact_id(fact)
        if fid is None:
            return []
        indptr, positions = self.by_head_csr()
        return [self.rule(positions[at]) for at in range(indptr[fid], indptr[fid + 1])]

    def rule_keys(self) -> FrozenSet[Tuple]:
        """The grounding as a set of order-independent rule identities
        ``(rule_index, head, idb_body, edb_body)``.

        Engines emit the same ground rules in different orders and
        over different symbol tables, so this is the identity the
        engine-equivalence tests and the head-to-head benchmarks
        compare on.
        """
        return frozenset(
            (rule.rule_index, rule.head, rule.idb_body, rule.edb_body)
            for rule in map(self.rule, range(len(self)))
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarGroundProgram(rules={len(self)}, facts={self.fact_count}, "
            f"size={self.size})"
        )


Row = Tuple[Hashable, ...]


class _FactIndex:
    """Per-predicate fact store of the naive reference engine.

    :meth:`candidates` is the historical heuristic: pick the narrowest
    *single*-position hash index among the bound positions, or scan
    the whole relation when nothing is bound.  Rows still need a full
    :func:`_match` because only one position was used for filtering.
    Position indexes are built lazily and maintained incrementally by
    :meth:`insert`, so they stay correct as derived IDB facts stream
    in during the Boolean fixpoint.
    """

    def __init__(self) -> None:
        self._tuples: Dict[str, List[Row]] = {}
        self._seen: Dict[str, Set[Row]] = {}
        # (predicate, bound-position tuple) → {pattern key → rows}
        self._patterns: Dict[Tuple[str, Tuple[int, ...]], Dict[Tuple, List[Row]]] = {}
        # predicate → position tuples with a built pattern index
        self._built: Dict[str, List[Tuple[int, ...]]] = {}

    def insert(self, fact: Fact) -> bool:
        seen = self._seen.setdefault(fact.predicate, set())
        if fact.args in seen:
            return False
        seen.add(fact.args)
        self._tuples.setdefault(fact.predicate, []).append(fact.args)
        for positions in self._built.get(fact.predicate, ()):
            if len(fact.args) <= max(positions):
                continue  # too short for this pattern (mixed-arity input)
            key = tuple(fact.args[i] for i in positions)
            self._patterns[(fact.predicate, positions)].setdefault(key, []).append(fact.args)
        return True

    def _pattern(self, predicate: str, positions: Tuple[int, ...]) -> Dict[Tuple, List[Row]]:
        key = (predicate, positions)
        table = self._patterns.get(key)
        if table is None:
            table = {}
            width = max(positions) + 1
            for row in self._tuples.get(predicate, ()):
                # Rows too short for the pattern (mixed-arity inputs)
                # cannot match any atom presenting these positions.
                if len(row) >= width:
                    table.setdefault(tuple(row[i] for i in positions), []).append(row)
            self._patterns[key] = table
            self._built.setdefault(predicate, []).append(positions)
        return table

    def candidates(self, atom: Atom, theta: Mapping[Variable, Constant]) -> Sequence[Row]:
        """Naive-engine candidates: narrowest single-position index, else scan."""
        best: Optional[Sequence[Row]] = None
        for position, term in enumerate(atom.terms):
            value: Optional[Hashable] = None
            if isinstance(term, Constant):
                value = term.value
            elif term in theta:
                value = theta[term].value
            if value is not None:
                rows = self._pattern(atom.predicate, (position,)).get((value,), ())
                if best is None or len(rows) < len(best):
                    best = rows
        if best is None:
            best = self._tuples.get(atom.predicate, ())
        return best


def _match(
    atom: Atom, row: Row, theta: Dict[Variable, Constant]
) -> Optional[Dict[Variable, Constant]]:
    """Try to extend *theta* so that atom θ = row; None on clash.

    A row of the wrong arity can never match: inputs may hold one
    predicate at several arities even though programs cannot, and
    without this check ``zip`` would silently truncate (a 3-tuple
    "matching" a binary atom, or a short row leaving variables
    unbound).
    """
    if len(row) != atom.arity:
        return None
    extension = dict(theta)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            bound = extension.get(term)
            if bound is None:
                extension[term] = Constant(value)
            elif bound.value != value:
                return None
    return extension


# ---------------------------------------------------------------------------
# Naive reference engine: single-position candidates, no reordering.
# ---------------------------------------------------------------------------


def _join(
    body: Sequence[Atom], index: _FactIndex, theta: Dict[Variable, Constant]
) -> Iterator[Dict[Variable, Constant]]:
    """All substitutions grounding *body* against *index* (backtracking).

    Atoms are joined in the order given; each candidate row scanned
    counts one probe in :data:`GROUNDING_STATS`.
    """
    if not body:
        yield theta
        return
    stats = _stats()
    first, rest = body[0], body[1:]
    for row in index.candidates(first, theta):
        stats.probes += 1
        extended = _match(first, row, theta)
        if extended is not None:
            stats.matches += 1
            yield from _join(rest, index, extended)


# ---------------------------------------------------------------------------
# Columnar engine: slot-compiled id-space joins over the array-backed store.
# ---------------------------------------------------------------------------


class _SlotAtom:
    """An atom lowered to id space with *rule-local variable slots*.

    The slot representation is what lets the fused
    :class:`_ColumnarProgramGrounder` join without substitution
    dicts: a rule's variables are numbered ``0..k-1`` (sorted by name,
    so the slot vector doubles as the per-round dedup key), and an
    atom's ``terms`` encode constants as their non-negative interned
    id and variable slot ``s`` as ``-(s + 1)`` -- one int tuple per
    atom, instantiated against a flat ``theta`` list by sign check.

    ``const_items``/``var_items`` pre-split the positions so the plan
    compiler and the delta seeding never re-inspect term types.

    *intern* must be True only for atoms that are **instantiated**
    (rule heads): their constants become store rows, so they need real
    ids.  Lookup-side atoms (rule bodies, EDB joins) use the
    non-inserting :meth:`~repro.datalog.store.SymbolTable.get` -- a
    constant the table has never seen can match no row, now or in any
    later round (every id a derived fact can carry was interned from
    the EDB or from a head, and :func:`_compile_rules` compiles every
    head before any body), so the atom is marked :attr:`impossible`
    instead of growing the shared table.
    """

    __slots__ = ("predicate", "arity", "terms", "const_items", "var_items", "slots", "impossible")

    def __init__(self, atom: Atom, symbols, slot_of: Dict[Variable, int], intern: bool = False):
        self.predicate = atom.predicate
        self.arity = atom.arity
        self.impossible = False
        entries: List[int] = []
        const_items: List[Tuple[int, int]] = []
        var_items: List[Tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                sid = symbols.intern(term.value) if intern else symbols.get(term.value)
                if sid is None:
                    self.impossible = True
                    sid = 0  # placeholder; the atom can never match
                entries.append(sid)
                const_items.append((position, sid))
            else:
                slot = slot_of[term]
                entries.append(-(slot + 1))
                var_items.append((position, slot))
        self.terms = tuple(entries)
        self.const_items = tuple(const_items)
        self.var_items = tuple(var_items)
        self.slots = tuple(dict.fromkeys(slot for _, slot in var_items))


def _row_builder(terms: Tuple[int, ...]):
    """A ``theta -> id row`` callable for one slot-encoded atom.

    The all-variable case (every ground atom of a constant-free rule)
    compiles to :func:`operator.itemgetter` -- one C call per emitted
    atom instead of a Python-level loop; atoms mentioning constants
    take the generic sign-check path, and nullary (propositional)
    atoms have the one constant row.
    """
    if not terms:
        return lambda theta: ()
    if all(t < 0 for t in terms):
        slots = tuple(-1 - t for t in terms)
        if len(slots) == 1:
            only = slots[0]
            return lambda theta: (theta[only],)
        return itemgetter(*slots)

    def build(theta, terms=terms):
        return tuple([t if t >= 0 else theta[-1 - t] for t in terms])

    return build


def _order_slot_atoms(
    atoms: Sequence[_SlotAtom], store, bound: Set[int]
) -> List[_SlotAtom]:
    """Greedy selectivity order over slot atoms: most bound term
    positions first, smallest relation breaks ties (DESIGN.md §8).

    *bound* seeds the already-bound slots (e.g. the slots of a delta
    atom joined first); after picking an atom its slots count as bound
    for the rest of the body.  ``O(k²)`` in the body length ``k`` --
    negligible next to the join itself."""
    remaining = list(atoms)
    ordered: List[_SlotAtom] = []
    bound = set(bound)
    while remaining:
        best_at = 0
        best_key: Optional[Tuple[int, int]] = None
        for at, atom in enumerate(remaining):
            bound_terms = len(atom.const_items) + sum(
                1 for _, slot in atom.var_items if slot in bound
            )
            key = (-bound_terms, store.size(atom.predicate, atom.arity))
            if best_key is None or key < best_key:
                best_at, best_key = at, key
        atom = remaining.pop(best_at)
        ordered.append(atom)
        bound.update(atom.slots)
    return ordered


def _compile_slot_plan(
    ordered: Sequence[_SlotAtom], bound: Set[int]
) -> Tuple[Tuple, ...]:
    """Freeze an ordered body into per-atom join steps.

    Which slots are bound when each atom's turn comes is fully
    determined by the order, so the bound-pattern computation that the
    naive join redoes per candidate binding happens **once** here:
    each step carries its lookup position tuple, a key template
    (constant id, or slot to read from ``theta``), and the runtime
    bind-or-check items for still-unbound slots.  Compiled plans are
    cached per ``(rule, delta position)`` across rounds.
    """
    plan: List[Tuple] = []
    bound = set(bound)
    for atom in ordered:
        items: List[Tuple[int, bool, int]] = [
            (position, False, sid) for position, sid in atom.const_items
        ]
        runtime: List[Tuple[int, int]] = []
        for position, slot in atom.var_items:
            if slot in bound:
                items.append((position, True, slot))
            else:
                runtime.append((position, slot))
        items.sort()
        plan.append(
            (
                atom.predicate,
                atom.arity,
                tuple(position for position, _, _ in items),
                tuple(is_slot for _, is_slot, _ in items),
                tuple(value for _, _, value in items),
                tuple(runtime),
                atom.impossible,
            )
        )
        bound.update(atom.slots)
    return tuple(plan)


def _enum_slot_plan(
    plan: Sequence[Tuple], at: int, store, theta: List[int], stats: GroundingStats
) -> Iterator[None]:
    """Backtracking join over a compiled slot plan.

    Yields once per complete binding; *theta* is mutated in place
    (read it at the yield point) and restored via an undo trail on
    backtrack -- no per-match dict copies.  Candidate cells are read
    straight out of the relation's columns, so no row tuple is built
    per probe either.  Probe/match accounting matches the naive join:
    one probe per candidate row, one match per row that extends the
    binding.
    """
    if at == len(plan):
        yield None
        return
    predicate, arity, positions, key_is_slot, key_vals, runtime, impossible = plan[at]
    if impossible:
        return
    relation = store.relation(predicate, arity)
    if relation is None:
        return
    if positions:
        if len(key_vals) == 1:
            key = theta[key_vals[0]] if key_is_slot[0] else key_vals[0]
        else:
            key = tuple(
                theta[value] if is_slot else value
                for is_slot, value in zip(key_is_slot, key_vals)
            )
        rows = relation.index_for(positions).lookup(key)
    else:
        rows = range(len(relation))
    columns = relation.columns
    rest = at + 1
    for row_index in rows:
        stats.probes += 1
        ok = True
        trail: List[int] = []
        for position, slot in runtime:
            sid = columns[position][row_index]
            bound_sid = theta[slot]
            if bound_sid < 0:
                theta[slot] = sid
                trail.append(slot)
            elif bound_sid != sid:
                ok = False
                break
        if ok:
            stats.matches += 1
            yield from _enum_slot_plan(plan, rest, store, theta, stats)
        for slot in trail:
            theta[slot] = -1


def _compile_rules(
    program: Program, symbols, cground: ColumnarGroundProgram, intern_bodies: bool
) -> Tuple[List[int], List[Tuple[_SlotAtom, ...]], List[Tuple]]:
    """Slot-compile every rule: ``(slot_counts, bodies, emit_plans)``.

    Every head is compiled (interning its constants) before any body,
    so a body constant that only a later rule's head produces is not
    taken for one no row can carry.  Bodies intern only with
    *intern_bodies*: a maintainer's store receives later inserts, so
    it must not freeze the :attr:`_SlotAtom.impossible` shortcut in.
    An emit plan is ``(head predicate, head row builder, head
    interner, ((row builder, is IDB, interner) per body atom))``.
    """
    idbs = program.idb_predicates
    slot_ofs = [
        {var: slot for slot, var in enumerate(sorted(rule.variables, key=lambda v: v.name))}
        for rule in program.rules
    ]
    heads = [_SlotAtom(r.head, symbols, slot_of, intern=True) for r, slot_of in zip(program.rules, slot_ofs)]
    bodies: List[Tuple[_SlotAtom, ...]] = []
    emit_plans: List[Tuple] = []
    for rule, slot_of, head in zip(program.rules, slot_ofs, heads):
        body = tuple(_SlotAtom(atom, symbols, slot_of, intern=intern_bodies) for atom in rule.body)
        bodies.append(body)
        body_plan = tuple(
            (_row_builder(atom.terms), atom.predicate in idbs, cground.interner(atom.predicate))
            for atom in body
        )
        emit_plans.append(
            (head.predicate, _row_builder(head.terms), cground.interner(head.predicate), body_plan)
        )
    return [len(slot_of) for slot_of in slot_ofs], bodies, emit_plans


def _delta_round(
    bodies: Sequence[Tuple[_SlotAtom, ...]],
    slot_counts: Sequence[int],
    store,
    deltas: Mapping,
    plans: Dict[Tuple[int, int], Tuple],
    stats: GroundingStats,
    emit: Callable[[int, List[int]], Optional[Tuple[str, Tuple[int, ...]]]],
    derived: Set[Tuple[str, Tuple[int, ...]]],
) -> Set[Tuple[str, Tuple[int, ...]]]:
    """One semi-naive round: join each rule once per body atom over a
    *deltas* predicate, seeded by that atom's delta rows.

    ``emit(rule_index, theta)`` runs once per complete binding (read
    *theta* during the call) and returns the head row or ``None``; the
    round returns the heads not yet in *derived*.  Join plans are
    compiled on first need into *plans*, keyed ``(rule, position)``:
    the bound-slot set depends only on that key, and freezing the atom
    order keeps later rounds free of the ``O(k²)`` ordering pass.
    """
    fresh: Set[Tuple[str, Tuple[int, ...]]] = set()
    for rule_index, body in enumerate(bodies):
        nslots = slot_counts[rule_index]
        for position, atom in enumerate(body):
            view = deltas.get((atom.predicate, atom.arity))
            if view is None or atom.impossible:
                continue
            plan = plans.get((rule_index, position))
            if plan is None:
                rest = [a for at, a in enumerate(body) if at != position]
                bound = set(atom.slots)
                plan = _compile_slot_plan(_order_slot_atoms(rest, store, bound), bound)
                plans[(rule_index, position)] = plan
            const_items = atom.const_items
            var_items = atom.var_items
            for row in view.id_rows():
                stats.probes += 1
                ok = True
                for pos, sid in const_items:
                    if row[pos] != sid:
                        ok = False
                        break
                if not ok:
                    continue
                theta = [-1] * nslots
                for pos, slot in var_items:
                    sid = row[pos]
                    bound_sid = theta[slot]
                    if bound_sid < 0:
                        theta[slot] = sid
                    elif bound_sid != sid:
                        ok = False
                        break
                if not ok:
                    continue
                stats.matches += 1
                for _ in _enum_slot_plan(plan, 0, store, theta, stats):
                    head = emit(rule_index, theta)
                    if head is not None and head not in derived:
                        fresh.add(head)
    return fresh


class _ColumnarProgramGrounder:
    """The fused semi-naive pass emitting a
    :class:`ColumnarGroundProgram` -- id space end to end.

    The fast path behind :func:`columnar_grounding`.  Boolean fixpoint
    and ground-rule emission run in one delta-driven sweep: the
    database's lazily materialized store is :meth:`copied
    <repro.datalog.store.ColumnarStore.copy>` so derived facts can be
    appended without mutating the shared EDB snapshot; round 0 joins
    every rule in full, and round ``t ≥ 1`` (:func:`_delta_round`)
    re-joins only rules with a body atom over a delta predicate,
    seeding the join with each :class:`~repro.datalog.store.DeltaView`
    row between two store watermarks.  Only facts *new to the store*
    seed joins (a derived head already resident as an input fact seeds
    nothing), so a ground instance is discovered exactly in the round
    after its last body fact arrived and never in two rounds; a
    per-round key over the slot vector removes the within-round
    duplicates that arise when two body facts are both in the delta.
    On top of that,

    * rules are slot-compiled once (:func:`_compile_rules`):
      substitutions are flat int lists indexed by slot,
      extended/rolled back through an undo trail instead of being
      copied dicts;
    * join steps are precompiled (:func:`_compile_slot_plan`), cached
      per ``(rule, delta position)`` across rounds, and read candidate
      cells directly from the store's columns;
    * emission appends plain ints to the ground program's parallel
      arrays through per-predicate interning closures -- no
      :class:`Fact` object, no constant decoding, anywhere.

    :class:`~repro.datalog.incremental.MaintainedFixpoint` regrounds
    inserts through the same two helpers, with its own emit callback.
    """

    def __init__(self, program: Program, database: Database):
        self.program = program
        self.store = database.columnar_store().copy()
        self.cground = ColumnarGroundProgram(program, self.store.symbols)
        self.slot_counts, self.bodies, self.emit_plans = _compile_rules(
            program, self.store.symbols, self.cground, intern_bodies=False
        )
        self.derived: Set[Tuple[str, Tuple[int, ...]]] = set()
        self.iterations = 0
        self.stats = _stats()
        self._round_seen: Set[Tuple] = set()
        # Emission writes the ground program's parallel arrays through
        # bound methods: ColumnarGroundProgram.append_rule's per-call
        # cache invalidation is pointless mid-build (the lazy CSR /
        # id-set caches are first read after the run), and the bound
        # appends shave a call per rule off the hottest emit path.
        cground = self.cground
        self._idb_flat = cground.idb_flat
        self._edb_flat = cground.edb_flat
        self._append_head = cground.rule_head.append
        self._append_no = cground.rule_no.append
        self._append_idb_ptr = cground.idb_indptr.append
        self._append_edb_ptr = cground.edb_indptr.append

    def _emit(
        self, rule_index: int, theta: List[int]
    ) -> Optional[Tuple[str, Tuple[int, ...]]]:
        key = (rule_index, *theta)
        round_seen = self._round_seen
        if key in round_seen:
            return None
        round_seen.add(key)
        head_pred, head_build, head_intern, body_plan = self.emit_plans[rule_index]
        head_ids = head_build(theta)
        idb_flat, edb_flat = self._idb_flat, self._edb_flat
        for build, is_idb, intern in body_plan:
            fid = intern(build(theta))
            (idb_flat if is_idb else edb_flat).append(fid)
        self._append_head(head_intern(head_ids))
        self._append_no(rule_index)
        self._append_idb_ptr(len(idb_flat))
        self._append_edb_ptr(len(edb_flat))
        return (head_pred, head_ids)

    def run(self) -> "_ColumnarProgramGrounder":
        store = self.store
        stats = self.stats
        derived = self.derived
        emit = self._emit
        fresh: Set[Tuple[str, Tuple[int, ...]]] = set()

        # Round 0: full join of every rule, selectivity-ordered.
        for rule_index, body in enumerate(self.bodies):
            plan = _compile_slot_plan(_order_slot_atoms(body, store, set()), set())
            theta = [-1] * self.slot_counts[rule_index]
            for _ in _enum_slot_plan(plan, 0, store, theta, stats):
                head = emit(rule_index, theta)
                if head is not None and head not in derived:
                    fresh.add(head)
        self.iterations = 1

        delta_plans: Dict[Tuple[int, int], Tuple] = {}
        while fresh:
            self.iterations += 1
            mark = store.watermark()
            for predicate, ids in sorted(fresh):
                derived.add((predicate, ids))
                store.insert_ids(predicate, ids)
            self._round_seen.clear()
            deltas = store.deltas_since(mark)
            fresh = _delta_round(self.bodies, self.slot_counts, store, deltas, delta_plans, stats, emit, derived)
        stats.ground_rules += len(self.cground)
        return self


def columnar_grounding(program: Program, database: Database) -> ColumnarGroundProgram:
    """Relevant grounding straight into id space: the fast path
    (DESIGN.md §9).

    Runs the fused delta-driven pass of
    :class:`_ColumnarProgramGrounder` and returns a
    :class:`ColumnarGroundProgram` -- ground rules as parallel int
    arrays over interned fact ids -- without decoding a single ground
    rule into :class:`Fact` tuples.  The result's ``iterations``
    records the Boolean fixpoint rounds of the pass (the
    :func:`derivable_facts` count).
    """
    grounder = _ColumnarProgramGrounder(program, database).run()
    cground = grounder.cground
    cground.iterations = grounder.iterations
    return cground


def relevant_grounding(
    program: Program, database: Database, config: ConfigLike = None
) -> ColumnarGroundProgram:
    """Ground rules whose body facts are all derivable (see module doc).

    ``config.engine`` selects the join engine: ``"columnar"`` (the
    default) is :func:`columnar_grounding`; ``"naive"`` is the
    reference Boolean fixpoint followed by a from-scratch re-join of
    every rule, ``O(rounds × Σ candidate rows scanned)``.  Both return
    the same set of ground rules and the same ``iterations`` (the
    equivalence is property-tested); only probe counts, rule order and
    the symbol table differ.
    """
    if coerce_config(config).resolved_engine == "naive":
        return _relevant_grounding_naive(program, database)
    return columnar_grounding(program, database)


def derivable_facts(
    program: Program,
    database: Database,
    ground: Optional[ColumnarGroundProgram] = None,
    config: ConfigLike = None,
) -> Tuple[FrozenSet[Fact], int]:
    """Boolean fixpoint: ``(derivable IDB facts, iterations)``.

    The iteration count is the number of rounds until no new fact
    appears -- the Boolean fixpoint iteration of Definition 4.1 used
    by the empirical boundedness probe; it is identical under both
    engines.  The columnar engine reads both answers off
    :func:`columnar_grounding` (the head facts and the pass's round
    count); the naive engine is the historical loop re-joining every
    rule each round.

    A precomputed :func:`relevant_grounding` already carries both
    answers; pass it as *ground* to skip the closure entirely.  A
    grounding with no recorded round count (a :func:`full_grounding`)
    is rejected rather than silently recomputed against the live
    database.
    """
    if ground is None:
        if coerce_config(config).resolved_engine == "naive":
            return _derivable_facts_naive(program, database)
        ground = columnar_grounding(program, database)
    elif ground.iterations is None:
        raise ValueError(
            "ground carries no Boolean round count (only "
            "relevant_grounding results do); drop the argument to "
            "recompute the closure from the database"
        )
    return ground.idb_facts, ground.iterations


def _derivable_facts_naive(
    program: Program, database: Database
) -> Tuple[FrozenSet[Fact], int]:
    """Reference Boolean fixpoint: full re-join each round (naive engine)."""
    idbs = program.idb_predicates
    index = _FactIndex()
    for fact in database.facts():
        index.insert(fact)

    derived: Set[Fact] = set()
    delta: Set[Fact] = set()
    iterations = 0
    # Round 0: fire every rule against EDB-only bindings (plus any IDBs
    # derived so far); iterate to fixpoint with delta-driven rounds.
    while True:
        fresh: Set[Fact] = set()
        for rule in program.rules:
            requires_delta = iterations > 0
            idb_atoms = rule.idb_atoms(idbs)
            if requires_delta and idb_atoms:
                # Only re-derive when at least one IDB atom can bind a delta
                # fact; cheap filter on predicates.
                if not any(a.predicate in {f.predicate for f in delta} for a in idb_atoms):
                    continue
            for theta in _join(rule.body, index, {}):
                head = rule.head.substitute(theta).to_fact()
                if head not in derived and head not in fresh:
                    # Semi-naive soundness check: after round 0, require a
                    # delta fact in the body to avoid re-deriving.
                    if requires_delta and idb_atoms:
                        body_facts = {a.substitute(theta).to_fact() for a in idb_atoms}
                        if not body_facts & delta:
                            continue
                    fresh.add(head)
        iterations += 1
        if not fresh:
            break
        for fact in fresh:
            derived.add(fact)
            index.insert(fact)
        delta = fresh
    return frozenset(derived), iterations


def _naive_emitter(
    program: Program,
) -> Tuple[ColumnarGroundProgram, Callable[[GroundRule], None]]:
    """An empty grounding over a private :class:`SymbolTable` and the
    deduplicating emitter the naive engines append through.

    The reference joins stay in :class:`Fact` space; each new ground
    rule is interned into the grounding as it is found.  The private
    table keeps the shared default one from growing.
    """
    cground = ColumnarGroundProgram(program, SymbolTable())
    intern_row, fact_id = cground.symbols.intern_row, cground.fact_id
    seen: Set[GroundRule] = set()
    stats = _stats()

    def fid(fact: Fact) -> int:
        return fact_id(fact.predicate, intern_row(fact.args))

    def emit(rule: GroundRule) -> None:
        if rule in seen:
            return
        seen.add(rule)
        cground.append_rule(
            rule.rule_index,
            fid(rule.head),
            [fid(fact) for fact in rule.idb_body],
            [fid(fact) for fact in rule.edb_body],
        )
        stats.ground_rules += 1

    return cground, emit


def _relevant_grounding_naive(program: Program, database: Database) -> ColumnarGroundProgram:
    """Reference implementation: fixpoint, then re-join every rule."""
    derived, iterations = _derivable_facts_naive(program, database)
    idbs = program.idb_predicates
    index = _FactIndex()
    for fact in database.facts():
        index.insert(fact)
    for fact in derived:
        index.insert(fact)

    cground, emit = _naive_emitter(program)
    cground.iterations = iterations
    for rule_index, rule in enumerate(program.rules):
        for theta in _join(rule.body, index, {}):
            emit(_ground_rule(rule_index, rule, theta, idbs))
    return cground


def _ground_rule(rule_index: int, rule, theta, idbs) -> GroundRule:
    """The :class:`GroundRule` instance of *rule* under *theta*, body
    split into IDB and EDB facts in original atom order."""
    idb_body = tuple(a.substitute(theta).to_fact() for a in rule.body if a.predicate in idbs)
    edb_body = tuple(a.substitute(theta).to_fact() for a in rule.body if a.predicate not in idbs)
    return GroundRule(rule.head.substitute(theta).to_fact(), idb_body, edb_body, rule_index)


def full_grounding(
    program: Program,
    database: Database,
    max_instantiations: int = 2_000_000,
) -> ColumnarGroundProgram:
    """All groundings over the active domain with EDB body atoms present.

    Ground rules whose EDB atoms are absent from the input are dropped
    (their value is identically ``0``); IDB body facts are kept
    unconstrained, exactly as in the paper's grounded program.  The
    whole ``|Dom(I)|^{#vars}`` cross product of each rule is
    enumerated, so a rule whose cross product exceeds
    *max_instantiations* raises :class:`DatalogError` up front.

    The result's ``iterations`` is ``None``: its heads include facts
    no rule derives, so it answers no Boolean-closure question.
    """
    domain = sorted(database.active_domain(), key=repr)
    idbs = program.idb_predicates
    cground, emit = _naive_emitter(program)
    stats = _stats()
    for rule_index, rule in enumerate(program.rules):
        rule_vars = sorted(rule.variables, key=lambda v: v.name)
        total = len(domain) ** len(rule_vars)
        if total > max_instantiations:
            raise DatalogError(
                f"full grounding would create {total} instantiations; "
                "use relevant_grounding instead"
            )
        assignments: List[Dict[Variable, Constant]] = [{}]
        for var in rule_vars:
            assignments = [
                {**theta, var: Constant(value)} for theta in assignments for value in domain
            ]
        for theta in assignments:
            stats.probes += 1
            ground_rule = _ground_rule(rule_index, rule, theta, idbs)
            if all(fact in database for fact in ground_rule.edb_body):
                emit(ground_rule)
    return cground
