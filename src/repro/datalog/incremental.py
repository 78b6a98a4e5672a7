"""Differential maintenance of the columnar fixpoint (DESIGN.md §11).

The batch pipeline is ground → fixpoint → (optionally) circuit; any
:class:`~repro.datalog.database.Database` mutation used to invalidate
all of it.  :class:`MaintainedFixpoint` keeps the id-space artifacts
of one program/database pair alive across single-fact deltas:

* the :class:`~repro.datalog.grounding.ColumnarGroundProgram` is
  *regrounded incrementally* by the batch grounder whose one pass
  built it (:class:`~repro.datalog.grounding._ColumnarProgramGrounder`,
  body constants interned), kept with its store -- the one copy, EDB
  plus every derived fact -- and no round count: an inserted EDB fact
  seeds its semi-naive rounds and join kernels, so only ground-rule
  instances that mention the delta are enumerated, and each round
  extends the grounding's own ``by_head``/``by_body`` lists over the
  positions it appended;
* per-semiring dense value arrays (the fixpoint state) are seeded,
  repaired and refreshed by the batch fixpoint kernel
  (:func:`~repro.datalog.seminaive._run_fixpoint`), run on the
  maintained arrays.  The seed and the refresh are solves from zero
  with every rule dirty.  An insert, or a reweight that makes the fact
  better, ascends from the old fixpoint with only the changed fact's
  readers dirty.  A retract, or a reweight that makes the fact worse,
  zeroes a *region* and recomputes it with a head mask holding
  everything outside fixed.  On a semiring that is absorptive and
  selective every fact keeps one acyclic *witness* rule, picked inside
  the kernel, and the region is the set of facts whose witness chain
  reads the changed fact; any other semiring falls back to the whole
  downstream cone;
* structure is the same repair run on a private Boolean *liveness*
  state: the facts a retract's region leaves ``False`` are dead, and
  the ground rules that read them become tombstones.  Tombstones
  leave the adjacency lists at once; the rule columns are compacted
  only when dead positions pass half the program, or when the
  grounding is read through :attr:`MaintainedFixpoint.cground`.

Exactness is testable, not aspirational: :meth:`MaintainedFixpoint.
result` reruns the exec-generated kernel over the *maintained*
grounding, and the Jacobi round structure depends only on the ground
rule **set**, so values, ``iterations``, ``converged`` and
``rule_evaluations`` coincide with a recompute-from-scratch -- the
invariant the stateful stream suite in
``tests/datalog/test_incremental.py`` drives.

A maintainer attaches to its database as an observer: the database
asks its ``_guard_edb`` before a write mutates anything, so an IDB
write is rejected with the database unchanged, and routes every plain
``db.add_fact`` / ``db.retract_fact`` / ``db.set_weight`` here once
the write has landed.  Seeds and refreshes read EDB values from
:meth:`Database.valuation`.  A :class:`repro.api.StreamSession` is an
observer too, attached before its maintainer.  The serving layer
keeps no maintainer: its ``/circuits/<key>/facts`` route writes the
database directly and re-evaluates the compiled circuit.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..semirings.base import Semiring
from ..semirings.numeric import BooleanSemiring
from .ast import DatalogError, Fact, Program
from .database import Database
from .evaluation import EvaluationResult
from .grounding import ColumnarGroundProgram, _ColumnarProgramGrounder, _extend_readers
# Not called here: perfbench/tracing.py's ``SITES`` wraps this name.
from .grounding import columnar_grounding  # noqa: F401
from .seminaive import FixpointEngine, _run_fixpoint

__all__ = ["MaintainedFixpoint"]


def _coerce_fact(fact, args: Tuple) -> Fact:
    """A :class:`Fact`, or one built from ``predicate, *args``;
    ``TypeError`` for a :class:`Fact` with extra arguments."""
    if isinstance(fact, Fact):
        if args:
            raise TypeError("pass either a Fact or predicate + args, not both")
        return fact
    return Fact(fact, tuple(args))


class _Tracked:
    """Maintained fixpoint state for one semiring: the dense value
    array (indexed by fact id, exactly :func:`_columnar_fixpoint`'s
    layout), the per-rule cached ⊗-terms the kernel refolds heads
    from, and -- on an absorptive, selective semiring -- each fact's
    witness rule position."""

    __slots__ = ("semiring", "value", "rule_term", "converged", "witness")

    def __init__(self, semiring: Semiring):
        self.semiring = semiring
        self.value: List[object] = []
        self.rule_term: List[object] = []
        self.converged = True
        #: Per fact id, a live rule position whose cached term equals
        #: the fact's value (``-1``: none, the value is ``0`` or the
        #: fact is a stored base fact).  ``None`` when the semiring
        #: keeps no witnesses; its repair region is then the cone.
        self.witness: Optional[array] = None


class MaintainedFixpoint:
    """Live ground program + fixpoint state under fact insert/retract.

    Construct once over a program/database pair; the instance attaches
    itself to the database and from then on absorbs single-fact
    mutations differentially::

        m = MaintainedFixpoint(program, db, semirings=(TROPICAL,))
        m.insert("E", 2, 7, weight=1.5)   # delta-joins new ground rules
        m.value(Fact("T", (0, 7)), TROPICAL)
        m.retract("E", 2, 7)              # witness-region repair

    ``insert``/``retract`` here are conveniences that route through
    ``db.add_fact`` / ``db.retract_fact``; mutating the database
    directly is equivalent.  Mutating the program's *IDB* predicates
    is rejected -- derived relations are maintained, not stored.

    A retract or a worsening reweight zeroes and re-solves only the
    changed fact's *region*: the facts whose witness chain reads it
    on an absorptive, selective semiring, the downstream cone on any
    other.  The same repair on a private Boolean liveness state finds
    the facts a retract kills; their ground rules become tombstones,
    compacted away in bulk (see :attr:`cground`).

    Fast reads (:meth:`value`, :meth:`values`) come straight from the
    maintained arrays; :meth:`result` reruns the batch kernel over the
    maintained grounding and reproduces a from-scratch
    :class:`~repro.datalog.evaluation.EvaluationResult` bit for bit
    (same values, iterations, converged flag and rule-evaluation
    count).  If a repair ever hits the iteration cap (a non-stable
    semiring diverging inside the region), the maintainer falls back
    to one kernel run from zero for that semiring, so its state still
    matches the batch engine's capped state exactly.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        semirings: Iterable[Semiring] = (),
    ):
        self.program = program
        self.database = database
        self._idbs = program.idb_predicates
        # One grounding pass, whose grounder every insert reuses.  Body
        # constants are interned: one unseen today may arrive later.
        self._grounder = _ColumnarProgramGrounder(program, database, intern_bodies=True)
        self._grounder.run()
        #: The id-space grounding, appended to in place; dead rules
        #: stay in its arrays as tombstones until :meth:`_compact`.  It
        #: records no Boolean round count: edits would leave one stale,
        #: and a solve over it must run the kernel, not read it off.
        self._cground: ColumnarGroundProgram = self._grounder.cground
        # The grounder's working store: EDB snapshot plus every
        # derived IDB fact, the join input for delta rounds.
        self.store = self._grounder.store
        self._derived = self._grounder.derived
        # IDB facts stored in the database: a fresh grounding takes
        # them as given, so they stay alive whatever their rules do.
        self._stored: Set[Tuple[str, Tuple[int, ...]]] = {
            (fact.predicate, self.store.symbols.intern_row(fact.args))
            for predicate in self._idbs
            for fact in database.facts(predicate)
        }
        #: Tombstoned rule positions awaiting compaction.
        self._dead: Set[int] = set()
        #: EDB fact id → ascending positions of the live rules reading it.
        self._edb_readers: List[Sequence[int]] = []
        _extend_readers(self._edb_readers, self._cground.edb_rows, 0, self._cground.fact_count)
        #: Facts with at least one live rule (the round cap's IDB count).
        self._heads = len(self._cground.idb_fact_ids())
        self._live = self._seed_liveness()
        self._tracked: Dict[int, _Tracked] = {}
        self._results: Dict[int, Tuple[Semiring, EvaluationResult]] = {}
        for semiring in semirings:
            self.track(semiring)
        database._attach_observer(self)

    # -- public API ------------------------------------------------------

    @property
    def cground(self) -> ColumnarGroundProgram:
        """The live ground program, exactly the rules a fresh grounding
        of the current database holds, but with no recorded Boolean
        round count (``iterations`` is ``None``, so
        :func:`~repro.datalog.grounding.derivable_facts` rejects it).
        Reading it compacts the tombstones of dead rules away first."""
        self._compact()
        return self._cground

    def insert(self, fact, *args, weight: object = None) -> bool:
        """Insert an EDB fact (and maintain); True iff it was new."""
        fact = _coerce_fact(fact, args)
        new = fact not in self.database
        self.database.add_fact(fact, weight)
        return new

    def retract(self, fact, *args) -> Fact:
        """Retract an EDB fact (and maintain); KeyError if absent."""
        fact = _coerce_fact(fact, args)
        return self.database.retract_fact(fact)

    def track(self, semiring: Semiring) -> None:
        """Start maintaining dense fixpoint state for *semiring*."""
        key = id(semiring)
        if key not in self._tracked:
            tracked = _Tracked(semiring)
            self._solve(tracked, semiring.absorptive and semiring.selective)
            self._tracked[key] = tracked

    def value(self, fact: Fact, semiring: Semiring):
        """Maintained least-fixpoint value of one IDB fact (O(1))."""
        tracked = self._tracked_for(semiring)
        fid = self._cground.find_fact_id(fact)
        if fid is None or not self._cground.by_head()[fid]:
            return semiring.zero
        return tracked.value[fid]

    def values(self, semiring: Semiring) -> Dict[Fact, object]:
        """Maintained values of every derivable IDB fact."""
        value = self._tracked_for(semiring).value
        heads = [fid for fid, rules in enumerate(self._cground.by_head()) if rules]
        return dict(zip(self._cground.decode_facts(heads), map(value.__getitem__, heads)))

    def result(
        self,
        semiring: Semiring,
        max_iterations: Optional[int] = None,
        raise_on_divergence: bool = False,
    ) -> EvaluationResult:
        """A from-scratch-equivalent :class:`EvaluationResult`.

        Runs :meth:`FixpointEngine.evaluate
        <repro.datalog.seminaive.FixpointEngine.evaluate>` over the
        *maintained* ground program.  The Jacobi rounds depend only on the ground-rule
        set, which incremental regrounding + tombstoning keep equal
        to a fresh grounding's, so every field of the result -- not
        just the values -- matches recompute-from-scratch.  The
        maintained grounding records no round count, so this always
        runs the kernel: ``rule_evaluations`` is a kernel run's, where
        a default solve of an all-``one`` ⊕-idempotent database reads
        its answer off a fresh grounding and reports 0.  Cached until
        the next mutation.
        """
        key = id(semiring)
        if max_iterations is None:
            cached = self._results.get(key)
            if cached is not None and cached[0] is semiring:
                return cached[1]
        result = FixpointEngine().evaluate(
            self.program,
            self.database,
            semiring,
            ground=self.cground,
            max_iterations=max_iterations,
            raise_on_divergence=raise_on_divergence,
            validate=False,
        )
        if max_iterations is None:
            self._results[key] = (semiring, result)
        return result

    def support_count(self, fact: Fact) -> int:
        """Number of live ground rules deriving *fact* (its support)."""
        fid = self._cground.find_fact_id(fact)
        return 0 if fid is None else len(self._cground.by_head()[fid])

    def rule_keys(self):
        """Order-independent identity of the live ground rules."""
        return self.cground.rule_keys()

    def is_converged(self, semiring: Semiring) -> bool:
        return self._tracked_for(semiring).converged

    def detach(self) -> None:
        """Stop observing the database (state freezes as-is)."""
        self.database._detach_observer(self)

    def __repr__(self) -> str:
        return (
            f"MaintainedFixpoint(rules={len(self._cground) - len(self._dead)}, "
            f"idb={self._heads}, semirings={len(self._tracked)})"
        )

    # -- database observer hooks -----------------------------------------

    def _guard_edb(self, fact: Fact) -> None:
        if fact.predicate in self._idbs:
            raise DatalogError(
                f"cannot mutate {fact}: {fact.predicate!r} is an IDB predicate "
                f"of the maintained program (derived relations are maintained, "
                f"not stored)"
            )

    def _apply_insert(self, fact: Fact, weight: object) -> None:
        self._results.clear()
        store = self.store
        mark = store.watermark()
        ids = store.symbols.intern_row(fact.args)
        if not store.insert_ids(fact.predicate, ids):
            # Already resident here (duplicate notification): at most
            # the annotation changed.
            if weight is not None:
                self._apply_weight(fact, weight)
            return
        first_new = len(self._cground)
        self._reground(mark)
        # The new rules are the last *added* positions; a divergence
        # refresh below may compact, which keeps them last.
        added = len(self._cground) - first_new
        fid = self._cground.find_fact_id(fact)
        for tracked in self._states():
            self._grow(tracked, fid)
        self._revive(added)
        for tracked in self._tracked.values():
            if not tracked.converged:
                # The stored state is the batch engine's *capped*
                # state, not a fixpoint: ascent from it is unsound.
                self._solve(tracked, False)
                continue
            end = len(self._cground)
            self._run(tracked, range(end - added, end))

    def _apply_retract(self, fact: Fact) -> None:
        self._results.clear()
        self.store.remove_fact(fact)
        fid = self._cground.find_fact_id(fact)
        readers = self._edb_readers[fid] if fid is not None else ()
        if not readers:
            # Read by no live rule: no IDB fact can change.  The slot
            # (if any) records the absence for a later re-insert.
            if fid is not None:
                for tracked in self._states():
                    if fid < len(tracked.value):
                        tracked.value[fid] = tracked.semiring.zero
            return
        # Regions come from the witnesses and adjacency as they stand
        # before any rule dies.
        regions = {
            key: self._region(tracked, fid)
            for key, tracked in self._tracked.items()
            if tracked.converged
        }
        live = self._live
        live_region = self._region(live, fid)
        live.value[fid] = False
        self._repair(live, live_region, readers)
        dead_facts = [dfid for dfid in live_region if not live.value[dfid]]
        dead_rules: Set[int] = set(readers)
        cground = self._cground
        preds, rows, by_body = cground.fact_preds, cground.fact_rows, cground.by_body()
        for dfid in dead_facts:
            dead_rules.update(by_body[dfid])
            self._derived.discard(dfid)
            self.store.remove_ids(preds[dfid], rows[dfid])
        self._kill(dead_rules)
        for key, tracked in self._tracked.items():
            if not tracked.converged:
                self._solve(tracked, False)
                continue
            tracked.value[fid] = tracked.semiring.zero
            self._repair(tracked, regions[key], ())

    def _apply_weight(self, fact: Fact, weight: object) -> None:
        self._results.clear()
        fid = self._cground.find_fact_id(fact)
        for tracked in self._tracked.values():
            # Read per semiring: a refresh compacts and moves positions.
            readers = self._edb_readers[fid] if fid is not None else ()
            semiring = tracked.semiring
            new = semiring.one if weight is None else weight
            if not readers:
                # Read by no live rule: only the slot changes, and it
                # must, for the insert that next creates a reader.
                if fid is not None and fid < len(tracked.value):
                    tracked.value[fid] = new
                continue
            if not tracked.converged:
                self._solve(tracked, False)
                continue
            old = tracked.value[fid]
            tracked.value[fid] = new
            if tracked.witness is not None and semiring.eq(semiring.add(new, old), new):
                # Better (or equal): ascend from the old fixpoint, as
                # an insert does.
                self._run(tracked, readers)
            else:
                self._repair(tracked, self._region(tracked, fid), readers)

    # -- incremental regrounding -----------------------------------------

    def _reground(self, mark: Dict) -> None:
        """The batch grounder's delta rounds, seeded by rows appended
        to the working store after *mark* and run until no fresh IDB
        fact appears; each round extends the adjacency lists over the
        rules it appends.

        Every appended rule is new: a seed row is new to the store,
        and a live rule reads only resident facts, so no live rule
        holds it; and a round finds each rule once, at its first delta
        atom in body order.  Rows are removed only between passes, so
        ``[0, start)`` of a delta window is the old part throughout."""
        grounder, cground = self._grounder, self._cground
        first = len(cground)
        grounder.saturate(grounder.round(self.store.deltas_since(mark)))
        _extend_readers(self._edb_readers, cground.edb_rows, first, cground.fact_count)
        # A head whose first live rule is new had none before.
        by_head = cground.by_head()
        self._heads += sum(1 for head in set(cground.rule_head[first:]) if by_head[head][0] >= first)

    # -- value maintenance -----------------------------------------------

    def _seed_liveness(self) -> _Tracked:
        """The private Boolean existence state, seeded without a kernel
        run: every fact of a fresh grounding exists, and a derived
        fact's witness is its first emitted rule.  Semi-naive emission
        puts the first rule of each body fact earlier, so the witness
        graph starts acyclic.  A stored IDB fact is a base fact: it
        has no witness, so no region ever contains it."""
        live = _Tracked(BooleanSemiring())
        cground = self._cground
        live.value = [True] * cground.fact_count
        live.rule_term = [True] * len(cground)
        witness = array("q", [-1]) * cground.fact_count
        for head, positions in enumerate(cground.by_head()):
            if positions and not self._is_stored(head):
                witness[head] = positions[0]
        live.witness = witness
        return live

    def _solve(self, tracked: _Tracked, witnesses: bool) -> None:
        """Fill one semiring's state by the kernel from zero, every rule
        dirty, over the compacted grounding: the initial seed, and the
        refresh of a state that is not a fixpoint.  With *witnesses*
        (an absorptive, selective semiring) the kernel also sets every
        fact's witness.  A run that hits the round cap leaves the batch
        engine's capped state exactly, and no witnesses."""
        semiring = tracked.semiring
        cground = self.cground
        tracked.value = [semiring.zero] * cground.fact_count
        self._fill_edb(tracked.value, semiring)
        tracked.rule_term = [semiring.zero] * len(cground)
        tracked.witness = array("q", [-1]) * cground.fact_count if witnesses else None
        tracked.converged = self._run(tracked, None)
        if not tracked.converged:
            tracked.witness = None

    def _grow(self, tracked: _Tracked, fid: Optional[int]) -> None:
        """Extend one state over the fact ids and rule positions a
        regrounding appended, and load the inserted fact *fid*'s value
        (its slot may predate the delta, zeroed by a retract)."""
        cground = self._cground
        value, rule_term, witness = tracked.value, tracked.rule_term, tracked.witness
        zero = tracked.semiring.zero
        preds, idbs = cground.fact_preds, self._idbs
        live = tracked is self._live
        for new_fid in range(len(value), cground.fact_count):
            if preds[new_fid] not in idbs:
                value.append(self._leaf_value(tracked, new_fid))
            elif live:
                # False until :meth:`_revive` (a stored fact is a base fact).
                value.append(self._is_stored(new_fid))
            else:
                value.append(zero)
        if fid is not None:
            value[fid] = self._leaf_value(tracked, fid)
        if witness is not None:
            witness.extend(array("q", [-1]) * (cground.fact_count - len(witness)))
        # A new rule reads only live facts; its semiring terms start at
        # 0 and the ascent computes them.
        rule_term.extend([True if live else zero] * (len(cground) - len(rule_term)))

    def _revive(self, added: int) -> None:
        """Liveness after an insert: every head of a new rule exists.
        A head that did not has the first new rule deriving it as its
        witness; its body facts were all live before that rule was
        emitted, so the witness graph stays acyclic."""
        live = self._live
        value, witness = live.value, live.witness
        rule_head = self._cground.rule_head
        end = len(rule_head)
        for position in range(end - added, end):
            head = rule_head[position]
            if not value[head]:
                value[head] = True
                witness[head] = position

    def _region(self, tracked: _Tracked, fid: int) -> Set[int]:
        """The IDB facts that can lose value when *fid* does: those
        whose witness chain reads it or, with no witnesses, its whole
        downstream cone."""
        witness = tracked.witness
        rule_head, by_body = self._cground.rule_head, self._cground.by_body()
        edb_readers = self._edb_readers
        region: Set[int] = set()
        frontier = [fid]
        while frontier:
            fact = frontier.pop()
            for rules in (edb_readers[fact], by_body[fact]):
                for position in rules:
                    head = rule_head[position]
                    if head not in region and (witness is None or witness[head] == position):
                        region.add(head)
                        frontier.append(head)
        return region

    def _repair(self, tracked: _Tracked, region: Set[int], dirty_positions) -> None:
        """Zero *region* and recompute it with every other fact held
        fixed, *dirty_positions* (the changed leaf's readers) included.

        Exact because no fact outside the region can lose value: its
        witness tree avoids the change (for the cone: it does not read
        the change at all), so the zeroed state lies below the new
        least fixpoint and ascends to it.  The body rules of region
        facts are dirtied too, so that cached terms outside the region
        stay fresh."""
        zero = tracked.semiring.zero
        value, witness = tracked.value, tracked.witness
        cground = self._cground
        by_head, by_body = cground.by_head(), cground.by_body()
        dirty = set(dirty_positions)
        outside = bytearray(b"\x01") * cground.fact_count
        for fid in region:
            value[fid] = zero
            if witness is not None:
                witness[fid] = -1
            outside[fid] = 0
            dirty.update(by_head[fid])
            dirty.update(by_body[fid])
        self._run(tracked, sorted(dirty), outside)

    def _run(self, tracked: _Tracked, dirty_rules, outside: Optional[bytearray] = None) -> bool:
        """Run the batch fixpoint kernel on *tracked*'s arrays; whether
        it converged.  ``None`` dirty rules is a solve from zero (see
        :meth:`_solve`).  Otherwise it ascends from below the new least
        fixpoint -- from the old fixpoint for an insert or an improving
        reweight, from a zeroed region (see :meth:`_repair`) otherwise
        -- with *dirty_rules* recomputed first and the facts *outside*
        marks never refolded; exact on convergence.  An ascent that
        hits the round cap means the semiring diverges on this program:
        it falls back to a solve from zero, so the maintained state
        equals the batch engine's capped state."""
        _, converged, _ = _run_fixpoint(
            self._cground,
            tracked.semiring,
            tracked.value,
            tracked.rule_term,
            dirty_rules,
            self._round_cap(),
            outside,
            tracked.witness,
        )
        if not converged and dirty_rules is not None:
            self._solve(tracked, False)
        return converged

    def _fill_edb(self, value: List[object], semiring: Semiring) -> None:
        """Write every EDB fact's current annotation (``0`` once
        retracted) into *value*, whether a live rule reads it or not:
        an unread fact's slot must be right for the insert that next
        creates a reader."""
        cground = self._cground
        preds, decode, idbs = cground.fact_preds, cground.decode_fact, self._idbs
        valuation, zero = self.database.valuation(semiring), semiring.zero
        for fid in range(cground.fact_count):
            if preds[fid] not in idbs:
                value[fid] = valuation.get(decode(fid), zero)

    # -- structural bookkeeping ------------------------------------------

    def _kill(self, dead: Set[int]) -> None:
        """Tombstone the rule positions in *dead*: out of the adjacency
        lists at once, out of the rule columns at the next
        :meth:`_compact`, which runs once tombstones pass half the
        program."""
        cground = self._cground
        by_head, by_body = cground.by_head(), cground.by_body()
        heads: Set[int] = set()
        bodies: Set[int] = set()
        edbs: Set[int] = set()
        for position in dead:
            heads.add(cground.rule_head[position])
            bodies.update(cground.idb_rows[position])
            edbs.update(cground.edb_rows[position])
        for adjacency, touched in (
            (by_head, heads),
            (by_body, bodies),
            (self._edb_readers, edbs),
        ):
            for fid in touched:
                adjacency[fid] = [position for position in adjacency[fid] if position not in dead] or ()
        self._heads -= sum(1 for head in heads if not by_head[head])
        self._dead.update(dead)
        if 2 * len(self._dead) > len(cground):
            self._compact()

    def _compact(self) -> None:
        """Drop the tombstones from the ground program's parallel
        columns.  Live rules keep their relative order; every state's
        cached terms and witnesses move in lockstep, and the adjacency
        lists are rebuilt over the new positions.  Fact ids are stable
        -- only rule positions move."""
        dead = self._dead
        if not dead:
            return
        cground = self._cground
        keep = [p for p in range(len(cground)) if p not in dead]
        moved = array("q", [-1]) * len(cground)
        for at, position in enumerate(keep):
            moved[position] = at
        cground.rule_head = array("q", map(cground.rule_head.__getitem__, keep))
        cground.rule_no = array("q", map(cground.rule_no.__getitem__, keep))
        cground.idb_rows = list(map(cground.idb_rows.__getitem__, keep))
        cground.edb_rows = list(map(cground.edb_rows.__getitem__, keep))
        cground._invalidate()
        for tracked in self._states():
            tracked.rule_term = [tracked.rule_term[position] for position in keep]
            witness = tracked.witness
            if witness is not None:
                for fid, position in enumerate(witness):
                    if position >= 0:
                        witness[fid] = moved[position]
        dead.clear()
        self._edb_readers = []
        _extend_readers(self._edb_readers, cground.edb_rows, 0, cground.fact_count)

    # -- small helpers ---------------------------------------------------

    def _tracked_for(self, semiring: Semiring) -> _Tracked:
        self.track(semiring)
        return self._tracked[id(semiring)]

    def _states(self) -> Tuple[_Tracked, ...]:
        """The liveness state first, then every tracked semiring."""
        return (self._live, *self._tracked.values())

    def _is_stored(self, fid: int) -> bool:
        if not self._stored:
            return False
        cground = self._cground
        return (cground.fact_preds[fid], cground.fact_rows[fid]) in self._stored

    def _leaf_value(self, tracked: _Tracked, fid: int):
        """A present EDB fact's value: ``True`` for liveness, else its
        annotation (``1`` when unannotated)."""
        if tracked is self._live:
            return True
        weight = self.database.weight(self._cground.decode_fact(fid))
        return tracked.semiring.one if weight is None else weight

    def _round_cap(self) -> int:
        """The engines' default divergence guard over the live IDB."""
        return max(self._heads, 1) + 2
