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
  interned once into integer ids and relations are parallel
  ``array('q')`` columns.  Every join -- one per ``(rule, seed
  atom)``, the seed being a :class:`~repro.datalog.store.DeltaView`
  window, or none for round 0 -- runs as a generated kernel: straight
  nested loops over the seed rows and hash-index runs, with the
  bound-slot checks, the fact-id interning and the appends to the
  ground program inline (:func:`columnar_grounding`).  A kernel's
  source holds only integer literals and fixed identifiers, and the
  compiled kernels sit in a cache bounded by size and keyed by source.
  :class:`~repro.datalog.incremental.MaintainedFixpoint` regrounds
  inserts with the same kernels.

* ``"naive"`` -- the reference oracle: a Boolean semi-naive fixpoint
  (:func:`derivable_facts`) followed by a backtracking nested-loop
  re-join of every rule, with only single-argument-position indexing
  (narrowest index wins, every candidate row is scanned).  The
  equivalence tests compare the fast path against it.

:class:`ColumnarGroundProgram` is the one ground-program type: ground
rules as parallel columns over interned fact ids, the form the
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

from bisect import bisect_left
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from array import array

from ..config import ConfigLike, coerce_config
from .ast import Atom, Constant, DatalogError, Fact, Program, Variable
from .database import Database
from .store import SymbolTable

__all__ = [
    "GroundRule",
    "ColumnarGroundProgram",
    "GroundingStats",
    "GROUNDING_STATS",
    "count_join_probes",
    "full_grounding",
    "relevant_grounding",
    "columnar_grounding",
    "derivable_facts",
]


@dataclass
class GroundingStats:
    """Instrumentation for the join engines.

    * ``probes`` -- candidate rows handed to the matcher: the unit of
      join work both engines share, and the metric on which they
      differ (the columnar engine's index runs hold only rows
      that already agree on every bound position, so far fewer rows
      are ever probed).
    * ``matches`` -- probes that extended the substitution.  A row a
      semi-naive join cuts by its delta window (an atom before the
      seed reads old rows only) is a probe, not a match.
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
    """The grounded program in id space: rules as parallel columns
    over interned fact ids (DESIGN.md §9).

    The one ground-program type: :func:`columnar_grounding` produces
    it without ever decoding a constant, and the naive engine and
    :func:`full_grounding` emit into it as well.  Every distinct
    ground fact is interned once into a dense *fact id* -- an index
    into the parallel ``fact_preds`` / ``fact_rows`` tables -- and
    ground rule ``r`` is position ``r`` of four parallel columns:

    * ``rule_head[r]`` -- the head's fact id (``array('q')``);
    * ``rule_no[r]`` -- the originating program-rule index
      (``array('q')``);
    * ``idb_rows[r]`` -- the IDB body fact ids as a tuple, in original
      body-atom order (``()`` when the body has no IDB atom);
    * ``edb_rows[r]`` -- the same for the EDB body.

    The join kernels share one ``unit_rows[fid] == (fid,)`` tuple per
    fact between every side that holds only that fact, so a linear
    program's rows cost a tuple per fact, not two per rule.

    The body rows are stored in the form every reader iterates: the
    fixpoint kernel, the circuit constructions and the maintainer
    loop over ``idb_rows[r]`` directly, with no range arithmetic.

    The two adjacency indexes the delta-driven fixpoint consumes --
    fact → rules with it in the IDB body, and head fact → rules
    deriving it -- are per-fact lists of ascending rule positions
    (:meth:`by_body`, :meth:`by_head`), probed by plain integer
    indexing -- no :class:`Fact` hashing anywhere on the fixpoint's
    hot path.  Each is built on its own first read by the same
    extension that, once it exists, every append runs over the
    positions it added, so a reader that needs only one list (a
    ⊕-idempotent solve reads only :meth:`by_body`) never pays for the
    other; a fact with no entry holds the shared ``()``, so only facts
    with rules cost a list.  The maintainer edits them in place
    (DESIGN.md §11).

    Decoding back to :class:`Fact` / :class:`GroundRule` objects
    happens only at the boundary (:meth:`decode_fact`,
    :meth:`decode_facts`, :meth:`idb_facts`, :meth:`rule`,
    :meth:`rules_for`, :meth:`rule_keys`), once per distinct fact.
    """

    __slots__ = (
        "program",
        "symbols",
        "iterations",
        "fact_preds",
        "fact_rows",
        "unit_rows",
        "rule_head",
        "rule_no",
        "idb_rows",
        "edb_rows",
        "_fact_ids",
        "_decoded",
        "_by_head",
        "_by_body",
        "_head_indexed",
        "_body_indexed",
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
        #: ``unit_rows[fid] == (fid,)``: the body row of a side that
        #: holds only that fact, one shared tuple per fact.
        self.unit_rows: List[Tuple[int]] = []
        self.rule_head = array("q")
        self.rule_no = array("q")
        self.idb_rows: List[Tuple[int, ...]] = []
        self.edb_rows: List[Tuple[int, ...]] = []
        self._fact_ids: Dict[str, Dict[Tuple[int, ...], int]] = {}
        self._decoded: Dict[int, Fact] = {}
        self._by_head: Optional[List[Sequence[int]]] = None
        self._by_body: Optional[List[Sequence[int]]] = None
        #: Rule positions each adjacency list covers: ``[0, _head_indexed)``
        #: and ``[0, _body_indexed)``.
        self._head_indexed = 0
        self._body_indexed = 0
        self._idb_fids: Optional[array] = None
        self._edb_fids: Optional[array] = None

    # -- writers (grounding-time) ----------------------------------------

    def fact_table(self, predicate: str) -> Dict[Tuple[int, ...], int]:
        """The ``row ids -> fact id`` dict of one predicate; the join
        kernels intern through it inline."""
        return self._fact_ids.setdefault(predicate, {})

    def fact_id(self, predicate: str, ids: Tuple[int, ...]) -> int:
        """The dense fact id of ``predicate(ids)``, interning on first use."""
        table = self.fact_table(predicate)
        fid = table.get(ids)
        if fid is None:
            fid = table[ids] = len(self.fact_preds)
            self.fact_preds.append(predicate)
            self.fact_rows.append(ids)
            self.unit_rows.append((fid,))
        return fid

    def append_rule(
        self,
        rule_no: int,
        head_fid: int,
        idb_fids: Sequence[int],
        edb_fids: Sequence[int],
    ) -> None:
        self.rule_head.append(head_fid)
        self.rule_no.append(rule_no)
        self.idb_rows.append(tuple(idb_fids))
        self.edb_rows.append(tuple(edb_fids))
        self._appended()

    def _appended(self) -> None:
        """Rules or facts were appended: drop the id-set caches and
        extend each built adjacency list over the new positions."""
        self._idb_fids = self._edb_fids = None
        if self._by_head is not None:
            self._extend_by_head()
        if self._by_body is not None:
            self._extend_by_body()

    def _invalidate(self) -> None:
        """Rule positions moved (compaction): drop every cache; the
        adjacency lists are rebuilt from position 0 on their next read."""
        self._by_head = self._by_body = self._idb_fids = self._edb_fids = None

    # -- shape -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rule_head)

    @property
    def fact_count(self) -> int:
        return len(self.fact_preds)

    @property
    def size(self) -> int:
        """``M`` of Theorem 4.3: total atoms over all ground rules."""
        return (
            len(self.rule_head)
            + sum(map(len, self.idb_rows))
            + sum(map(len, self.edb_rows))
        )

    def max_body_idbs(self) -> int:
        return max(map(len, self.idb_rows), default=0)

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
            for row in self.edb_rows:
                for fid in row:
                    mark[fid] = 1
            self._edb_fids = array("q", (i for i, m in enumerate(mark) if m))
        return self._edb_fids

    def target_fact_ids(self) -> List[int]:
        """Head fact ids of the program's target predicate."""
        target = self.program.target
        preds = self.fact_preds
        return [fid for fid in self.idb_fact_ids() if preds[fid] == target]

    # -- adjacency -------------------------------------------------------

    def by_head(self) -> List[Sequence[int]]:
        """Fact id → ascending positions of the ground rules deriving
        it (``()`` for a fact no rule derives)."""
        if self._by_head is None:
            self._by_head, self._head_indexed = [], 0
            self._extend_by_head()
        return self._by_head

    def by_body(self) -> List[Sequence[int]]:
        """Fact id → ascending positions of the ground rules with that
        fact in their IDB body, each rule listed once.  When a fact's
        value changes, exactly these rules can produce a different
        ⊗-term."""
        if self._by_body is None:
            self._by_body, self._body_indexed = [], 0
            self._extend_by_body()
        return self._by_body

    def _extend_by_head(self) -> None:
        """Extend :meth:`by_head` over the facts and rule positions
        added since it last covered the columns."""
        by_head, first = self._by_head, self._head_indexed
        by_head.extend([()] * (self.fact_count - len(by_head)))
        for position, head in enumerate(self.rule_head[first:], first):
            bucket = by_head[head]
            if not bucket:
                # Grown by append, as a list starting empty would be:
                # ``[position]`` over-allocates on its second append.
                bucket = by_head[head] = []
            bucket.append(position)
        self._head_indexed = len(self.rule_head)

    def _extend_by_body(self) -> None:
        """Extend :meth:`by_body` likewise."""
        _extend_readers(self._by_body, self.idb_rows, self._body_indexed, self.fact_count)
        self._body_indexed = len(self.rule_head)

    # -- boundary decoding -----------------------------------------------

    def decode_fact(self, fid: int) -> Fact:
        """The :class:`Fact` behind a fact id, decoded once and cached."""
        fact = self._decoded.get(fid)
        if fact is None:
            fact = Fact(self.fact_preds[fid], self.symbols.decode_row(self.fact_rows[fid]))
            self._decoded[fid] = fact
        return fact

    def decode_facts(self, fids: Iterable[int]) -> List[Fact]:
        """The :class:`Fact` behind each of *fids*, in order: one
        batch pass sharing :meth:`decode_fact`'s cache."""
        decoded, preds, rows = self._decoded, self.fact_preds, self.fact_rows
        decode_row = self.symbols.decode_row
        out: List[Fact] = []
        append = out.append
        for fid in fids:
            fact = decoded.get(fid)
            if fact is None:
                fact = decoded[fid] = Fact(preds[fid], decode_row(rows[fid]))
            append(fact)
        return out

    def find_fact_id(self, fact: Fact) -> Optional[int]:
        """The fact id of *fact*, or ``None`` when it never occurs in
        the grounding (unknown constants short-circuit)."""
        ids = self.symbols.get_row(fact.args)
        if ids is None:
            return None
        return self._fact_ids.get(fact.predicate, {}).get(ids)

    @property
    def idb_facts(self) -> FrozenSet[Fact]:
        return frozenset(self.decode_facts(self.idb_fact_ids()))

    def rule(self, position: int) -> GroundRule:
        """The ground rule at *position*, decoded into :class:`Fact` space."""
        decode = self.decode_fact
        return GroundRule(
            decode(self.rule_head[position]),
            tuple(map(decode, self.idb_rows[position])),
            tuple(map(decode, self.edb_rows[position])),
            self.rule_no[position],
        )

    def rules_for(self, fact: Fact) -> List[GroundRule]:
        """The ground rules deriving *fact*, in rule order (empty when
        no rule does)."""
        fid = self.find_fact_id(fact)
        if fid is None:
            return []
        return [self.rule(position) for position in self.by_head()[fid]]

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


def _extend_readers(readers: List[Sequence[int]], rows: Sequence[Tuple[int, ...]], first: int, nfacts: int) -> None:
    """Extend *readers* (fact id → ascending positions of the rows
    holding it, ``()`` for none) to *nfacts* facts and over
    ``rows[first:]``, each position once per fact: positions ascend, so
    a fact repeated in one row finds this very position last."""
    readers.extend([()] * (nfacts - len(readers)))
    for position, row in enumerate(islice(rows, first, None), first):
        for fid in row:
            bucket = readers[fid]
            if not bucket:
                bucket = readers[fid] = []
            elif bucket[-1] == position:
                continue
            bucket.append(position)


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
# Columnar engine: slot-compiled id-space joins run as generated kernels.
# ---------------------------------------------------------------------------


class _SlotAtom:
    """An atom lowered to id space with *rule-local variable slots*.

    The slot representation is what lets the join kernels of
    :class:`_ColumnarProgramGrounder` bind without substitution dicts:
    a rule's variables are numbered ``0..k-1`` (sorted by name), and an
    atom's ``terms`` encode constants as their non-negative interned id
    and variable slot ``s`` as ``-(s + 1)`` -- one int tuple per atom.

    ``const_items``/``var_items`` pre-split the positions so the
    ordering pass and the kernel writer never re-inspect term types.

    *intern* must be True only for atoms that are **instantiated**
    (rule heads): their constants become store rows, so they need real
    ids.  Lookup-side atoms (rule bodies, EDB joins) use the
    non-inserting :meth:`~repro.datalog.store.SymbolTable.get` -- a
    constant the table has never seen can match no row, now or in any
    later round (every id a derived fact can carry was interned from
    the EDB or from a head, and the grounder compiles every head before
    any body), so the atom is marked :attr:`impossible` instead of
    growing the shared table.
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
) -> Tuple[Tuple[_SlotAtom, Tuple[int, ...]], ...]:
    """Freeze an ordered body into join steps ``(atom, positions)``.

    Which slots are bound when each atom's turn comes is fully
    determined by the order, so each step's lookup positions -- those
    holding a constant or an already-bound slot -- are fixed here
    once; the kernel writer turns the rest into bind-or-check code."""
    plan = []
    bound = set(bound)
    for atom in ordered:
        positions = tuple(p for p, term in enumerate(atom.terms) if term >= 0 or -1 - term in bound)
        plan.append((atom, positions))
        bound.update(atom.slots)
    return tuple(plan)


#: Join loops per run of nested loops: CPython refuses more than 20
#: statically nested blocks, so a longer plan materializes its
#: bindings after this many levels and continues from that list.
_LOOPS_PER_PART = 16

#: The kernel's parameters (``rule``: a one-element ``array('q')``
#: holding the rule number; ``bounds``: per plan step, the first row of
#: its relation's delta window, or the relation's length without one).
_KERNEL_ARGS = "seed, steps, consts, tables, preds, rule, out, bounds, derived, fresh"

#: Locals every kernel binds once per call, before its loops.
_KERNEL_PRELUDE = (
    "probes = matches = 0",
    "fact_preds, fact_rows, unit_rows, rule_head, rule_no, idb_rows, edb_rows = out",
    "preds_append, rows_append, units_append = fact_preds.append, fact_rows.append, unit_rows.append",
    "head_append, idb_append, edb_append = rule_head.append, idb_rows.append, edb_rows.append",
    "fresh_add = fresh.add",
    "emitted = len(rule_head)",
)


def _kernel_source(
    seed: Optional[_SlotAtom],
    plan: Sequence[Tuple[_SlotAtom, Tuple[int, ...]]],
    body: Sequence[_SlotAtom],
    idb_flags: Sequence[bool],
    head: _SlotAtom,
    windows: Sequence[bool],
) -> Tuple[str, Tuple[int, ...]]:
    """The source of one join kernel and the constant ids it reads.

    Straight nested loops, one per join level: the *seed* atom's delta
    rows (``None``: round 0's full join), then each *plan* step's
    pattern-index run (one dict probe) or full scan.  A step flagged
    in *windows* reads only its relation's rows below its ``bounds``
    entry (a key's index run ascends, so one ``bisect_left`` cuts it
    after its probes are counted).  Bound-slot checks, probe and
    match counts, the fact-id lookups and the appends to the ground
    program's columns are all inline.  Each atom's row tuple and
    fact-table read sit at the shallowest level that binds all its
    slots (within the last part
    of a plan longer than ``_LOOPS_PER_PART``, whose boundary carries
    slots only).  The read never inserts: facts are interned at
    emission only, in body order, then the head, and an atom whose
    hoisted read missed reads again there first, since an atom
    earlier in body order may have interned the same row.  So fact
    ids are those of reading every atom at emission.
    Each emitted rule appends its head and one tuple of fact ids per
    non-empty body side (a one-fact side's shared unit row);
    ``rule_no`` and an empty side's ``()`` rows follow from the
    emitted count.

    The source holds only integer literals (slots, positions, atom
    counts) and fixed identifiers: constant ids, predicates, fact
    tables, relations and the rule number arrive as arguments, so one
    source serves every rule of the same shape and no program text
    ever reaches ``exec``.
    """
    consts: List[int] = []

    def term(code: int) -> str:
        if code < 0:
            return f"s{-1 - code}"
        consts.append(code)
        return f"k{len(consts) - 1}"

    prelude = list(_KERNEL_PRELUDE)
    code: List[str] = []
    depth = 1

    def put(*lines: str) -> None:
        code.extend("    " * depth + line for line in lines)

    levels = ([(seed, None)] if seed is not None else []) + list(plan)
    atoms = (*body, head)
    for j, atom in enumerate(atoms):
        prelude += [f"t{j} = tables[{j}]", f"p{j} = preds[{j}]"]

    def lookup(j: int) -> Tuple[str, str]:
        return f"row{j} = ({''.join(term(c) + ', ' for c in atoms[j].terms)})", f"f{j} = t{j}.get(row{j})"

    # Each atom's fact-table read sits just inside the loop that binds
    # its last slot, but no higher than the last part's first level: a
    # part boundary carries only the slots.  An atom bound only by the
    # innermost level is read at emission.
    bound_by: Dict[int, int] = {}
    for level, (atom, _) in enumerate(levels):
        for slot in atom.slots:
            bound_by.setdefault(slot, level)
    last = len(levels) - 1
    last_part = last - last % _LOOPS_PER_PART
    # Level -> the atoms read just before that level's loop.
    reads: Dict[int, List[int]] = {}
    for j, atom in enumerate(atoms):
        ready = max((bound_by[slot] for slot in atom.slots), default=-1)
        if ready < last:
            reads.setdefault(max(ready + 1, last_part), []).append(j)
    hoisted = {j for js in reads.values() for j in js}

    bound: Set[int] = set()
    for level, (atom, positions) in enumerate(levels):
        if level and level % _LOOPS_PER_PART == 0:
            names = "".join(f"s{slot}, " for slot in sorted(bound))
            prelude.append(f"part{level} = []")
            put(f"part{level}.append(({names}))")
            depth = 1
            put(f"for ({names}) in part{level}:")
            depth = 2
        for j in reads.get(level, ()):
            put(*lookup(j))
        if positions is None:
            prelude.append(f"start, stop, cols{level} = seed")
            count, loop, checked = "stop - start", "range(start, stop)", range(atom.arity)
            window = False
        else:
            step = level - (seed is not None)
            prelude.append(f"n{level}, runs{level}, cols{level} = steps[{step}]")
            checked = [p for p in range(atom.arity) if p not in positions]
            count, loop = f"n{level}", f"range(n{level})"
            window = windows[step]
            if positions:
                key = term(atom.terms[positions[0]])
                if len(positions) > 1:
                    put(f"key = ({', '.join(term(atom.terms[p]) for p in positions)})")
                    key = "key"
                put(f"r{level} = runs{level}.get({key}, ())")
                count, loop = f"len(r{level})", f"r{level}"
        binds: List[str] = []
        checks: List[str] = []
        for p in checked:
            prelude.append(f"c{level}_{p} = cols{level}[{p}]")
            cell, slot = f"c{level}_{p}[x{level}]", -1 - atom.terms[p]
            if slot < 0 or slot in bound:
                checks.append(f"if {cell} != {term(atom.terms[p])}:")
            else:
                bound.add(slot)
                binds.append(f"s{slot} = {cell}")
        put(f"probes += {count}")
        if window:
            prelude.append(f"b{level} = bounds[{step}]")
            if positions:
                put(f"r{level} = r{level}[:bisect_left(r{level}, b{level})]")
            else:
                count, loop = f"b{level}", f"range(b{level})"
        if not checks:
            put(f"matches += {count}")
        put(f"for x{level} in {loop}:")
        depth += 1
        put(*binds)
        for check in checks:
            put(check, "    continue")
        if checks:
            put("matches += 1")

    # One ground rule per complete binding.  Facts are interned here
    # only, in body order, then the head; a hoisted read that missed
    # reads again first, since an atom earlier in body order may have
    # interned the same row since.
    for j in range(len(atoms)):
        insert = (
            f"if f{j} is None:",
            f"    f{j} = t{j}[row{j}] = len(fact_rows)",
            f"    preds_append(p{j})",
            f"    rows_append(row{j})",
            f"    units_append((f{j},))",
        )
        if j in hoisted:
            put(f"if f{j} is None:", f"    f{j} = t{j}.get(row{j})", *("    " + line for line in insert))
        else:
            put(*lookup(j), *insert)
    put(f"head_append(f{len(body)})")
    # One tuple per body side and rule: a one-fact side shares its
    # fact's unit row, and an empty side's ``()`` rows are added in
    # bulk after the loops.
    bulk: List[str] = []
    for side, flag in (("idb", True), ("edb", False)):
        fids = [f"f{j}" for j in range(len(body)) if idb_flags[j] == flag]
        if len(fids) == 1:
            put(f"{side}_append(unit_rows[{fids[0]}])")
        elif fids:
            put(f"{side}_append(({''.join(fid + ', ' for fid in fids)}))")
        else:
            bulk.append(f"    {side}_rows.extend([()] * emitted)")
    put(f"if f{len(body)} not in derived:", f"    fresh_add(f{len(body)})")
    lines = [
        f"def _join({_KERNEL_ARGS}):",
        *("    " + line for line in prelude),
        *(f"    k{n} = consts[{n}]" for n in range(len(consts))),
        *code,
        "    emitted = len(rule_head) - emitted",
        "    rule_no.extend(rule * emitted)",
        *bulk,
        "    return probes, matches",
    ]
    return "\n".join(lines) + "\n", tuple(consts)


#: Generated kernels, keyed by source and bounded: sources are shapes,
#: so a long-lived process grounding client programs keeps at most
#: this many compiled functions however many programs it sees.
_KERNEL_CACHE_SIZE = 256


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _compile_kernel(source: str):
    """The ``_join`` function of one generated kernel source."""
    namespace: Dict[str, object] = {"bisect_left": bisect_left}
    exec(source, namespace)  # noqa: S102 - join compiler, ints and fixed names only
    return namespace["_join"]


def _step_args(store, atom: _SlotAtom, positions: Tuple[int, ...]) -> Tuple:
    """One join step's kernel arguments ``(rows, index runs,
    columns)``, read at call time: an impossible atom or a relation
    with no rows yet joins nothing.  The runs are the index's own
    arrays, read in place: the store takes rows only between kernel
    calls."""
    relation = None if atom.impossible else store.relation(atom.predicate, atom.arity)
    if relation is None:
        return 0, {}, ((),) * atom.arity
    runs = relation.index_for(positions).runs if positions else None
    return len(relation), runs, relation.columns


class _ColumnarProgramGrounder:
    """The fused semi-naive pass emitting a
    :class:`ColumnarGroundProgram` -- id space end to end.

    The fast path behind :func:`columnar_grounding`; a
    :class:`~repro.datalog.incremental.MaintainedFixpoint` keeps the one
    it was built with and reruns it on every insert.  Boolean fixpoint
    and ground-rule emission run in one delta-driven sweep over the
    grounder's own copy of the database's *store*: round 0 joins every
    rule in full, and round ``t ≥ 1`` re-joins only rules with a body
    atom over a delta relation, seeding the join with that atom's
    :class:`~repro.datalog.store.DeltaView` rows.  Only facts *new to
    the store* seed joins (a derived head already resident as an input
    fact seeds nothing), so a ground instance is discovered exactly in
    the round after its last body fact arrived and never in two rounds.
    Within a round, a join seeded at body atom *i* reads the atoms
    before *i* below their delta windows and the atoms after *i* in
    full, so an instance with several body facts in the delta is found
    once, at its first delta atom in body order.

    Each join is one generated kernel per ``(rule, seed atom)``
    (:func:`_kernel_source`): rules are slot-compiled once (every head
    before any body), the body is selectivity-ordered the first time
    the kernel is needed, and the plan is frozen into straight nested
    loops that read the store's columns and pattern-index runs, read
    each atom's fact id once per binding of its slots, and append
    plain ints to the ground program's columns -- no :class:`Fact`
    object, no substitution dict, no call per binding.  Each round's
    fresh heads enter the store with one
    :meth:`~repro.datalog.store.ColumnarRelation.extend` batch per
    predicate.
    Bodies intern their constants only with *intern_bodies*: a
    maintainer's store receives later inserts, so it must not freeze
    the :attr:`_SlotAtom.impossible` shortcut in, and any of its
    relations can have a delta, where only derived ones can otherwise.
    """

    def __init__(self, program: Program, database: Database, intern_bodies: bool = False):
        self.store = store = database.columnar_store().copy()
        self.cground = cground = ColumnarGroundProgram(program, store.symbols)
        symbols, idbs = store.symbols, program.idb_predicates
        slot_ofs = [
            {var: slot for slot, var in enumerate(sorted(rule.variables, key=lambda v: v.name))}
            for rule in program.rules
        ]
        heads = [_SlotAtom(r.head, symbols, slot_of, intern=True) for r, slot_of in zip(program.rules, slot_ofs)]
        #: Per rule: ``(head, body, IDB flag per body atom, fact tables
        #: and predicates of the body atoms then the head)``.
        self.rules: List[Tuple] = []
        for rule, slot_of, head in zip(program.rules, slot_ofs, heads):
            body = tuple(_SlotAtom(atom, symbols, slot_of, intern=intern_bodies) for atom in rule.body)
            atoms = (*body, head)
            self.rules.append((
                head,
                body,
                tuple(atom.predicate in idbs for atom in body),
                tuple(cground.fact_table(atom.predicate) for atom in atoms),
                tuple(atom.predicate for atom in atoms),
            ))
        #: Whether every relation, not only the derived ones, can have
        #: a delta.
        self.inserts = intern_bodies
        #: Fact ids of the derived IDB facts in the store.
        self.derived: Set[int] = set()
        self._kernels: Dict[Tuple[int, Optional[int]], Tuple] = {}

    def run(self) -> int:
        """Round 0, then delta rounds to closure, its rules counted in
        :data:`GROUNDING_STATS`; the Boolean round count."""
        rounds = 1 + self.saturate(self.round(None))
        _stats().ground_rules += len(self.cground)
        return rounds

    def saturate(self, fresh: Dict[str, Set[int]]) -> int:
        """Admit the *fresh* heads (per predicate, rows ascending) and
        run delta rounds until none is fresh; the number of rounds."""
        store, rows = self.store, self.cground.fact_rows
        rounds = 0
        while fresh:
            rounds += 1
            mark = store.watermark()
            for predicate in sorted(fresh):
                self.derived.update(fresh[predicate])
                batch = sorted(map(rows.__getitem__, fresh[predicate]))
                store.extend_ids(predicate, len(batch[0]), batch)
            fresh = self.round(store.deltas_since(mark))
        return rounds

    def round(self, deltas: Optional[Mapping]) -> Dict[str, Set[int]]:
        """One round: every rule joined in full (*deltas* ``None``) or
        once per body atom over a delta relation, seeded by its delta
        rows, the atoms before it old rows only.  Returns the head fact
        ids not yet derived, per predicate."""
        store, cground = self.store, self.cground
        out = (
            cground.fact_preds, cground.fact_rows, cground.unit_rows, cground.rule_head,
            cground.rule_no, cground.idb_rows, cground.edb_rows,
        )
        old = {key: view.start for key, view in (deltas or {}).items()}
        fresh: Dict[str, Set[int]] = {}
        probes = matches = 0
        for rule_index, (head, body, _, tables, preds) in enumerate(self.rules):
            if deltas is None:
                seeds: Sequence[Optional[int]] = (None,)
            else:
                seeds = [
                    at for at, atom in enumerate(body)
                    if not atom.impossible and (atom.predicate, atom.arity) in deltas
                ]
            heads = fresh.setdefault(head.predicate, set())
            rule_no = array("q", (rule_index,))
            for at in seeds:
                plan, kernel, consts = self._kernel(rule_index, at)
                seed = None
                if at is not None:
                    view = deltas[(body[at].predicate, body[at].arity)]
                    seed = (view.start, view.stop, view.relation.columns)
                steps = tuple(_step_args(store, atom, positions) for atom, positions in plan)
                bounds = tuple(old.get((atom.predicate, atom.arity), step[0]) for (atom, _), step in zip(plan, steps))
                counts = kernel(seed, steps, consts, tables, preds, rule_no, out, bounds, self.derived, heads)
                probes += counts[0]
                matches += counts[1]
        stats = _stats()
        stats.probes += probes
        stats.matches += matches
        cground._appended()
        return {predicate: fids for predicate, fids in fresh.items() if fids}

    def _kernel(self, rule_index: int, at: Optional[int]) -> Tuple:
        """``(plan, kernel, constant ids)`` for one rule seeded at body
        atom *at*, compiled on first need.  The plan is ordered then
        and frozen: the bound-slot set depends only on ``(rule, at)``,
        and later rounds skip the ``O(k²)`` ordering pass.  The body
        atoms before *at* that can have a delta are windowed."""
        key = (rule_index, at)
        entry = self._kernels.get(key)
        if entry is None:
            head, body, idb_flags, _, _ = self.rules[rule_index]
            seed = None if at is None else body[at]
            bound = set() if seed is None else set(seed.slots)
            rest = [atom for position, atom in enumerate(body) if position != at]
            plan = _compile_slot_plan(_order_slot_atoms(rest, self.store, bound), bound)
            before = body[:at] if at is not None else ()
            windowed = {id(atom) for atom, idb in zip(before, idb_flags) if idb or self.inserts}
            windows = tuple(id(atom) in windowed for atom, _ in plan)
            source, consts = _kernel_source(seed, plan, body, idb_flags, head, windows)
            entry = self._kernels[key] = (plan, _compile_kernel(source), consts)
        return entry


def columnar_grounding(program: Program, database: Database) -> ColumnarGroundProgram:
    """Relevant grounding straight into id space: the fast path
    (DESIGN.md §9).

    Runs the fused delta-driven pass of
    :class:`_ColumnarProgramGrounder` over a copy of the database's
    store and returns a :class:`ColumnarGroundProgram` -- ground rules
    as parallel columns over interned fact ids -- without decoding
    a single ground rule into :class:`Fact` tuples.  The result's
    ``iterations`` records the Boolean fixpoint rounds of the pass
    (the :func:`derivable_facts` count).
    """
    grounder = _ColumnarProgramGrounder(program, database)
    grounder.cground.iterations = grounder.run()
    return grounder.cground


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

    Like the grounder, it treats an IDB fact stored in *database* as
    present, so facts derived through it are listed.  ``solve()``
    gives a stored IDB fact no rule derives the value 0 (DESIGN.md §9):
    on ``E(5,1), T(0,5)`` under transitive closure this lists
    ``T(0,1)``, which a BOOLEAN ``solve()`` calls ``False``.

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
