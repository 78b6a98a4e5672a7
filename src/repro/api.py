"""The ``repro.api`` facade: one front door for the whole pipeline.

Each layer exposes one entry point per job (``relevant_grounding``,
``FixpointEngine.evaluate``, ``magic_grounding``, ``generic_circuit``,
``provenance_circuit``, ``compile_circuit``), and every one that
takes knobs takes the same ``config=`` keyword.  This module is the
public API on top of them, and the door every caller outside those
layers uses (DESIGN.md §10):

* :class:`~repro.config.ExecutionConfig` -- one frozen bundle of the
  engine × strategy × construction × optimize_depth × prune knobs,
  accepted by every layer;
* :func:`solve` -- the one-shot "evaluate this program on this
  database over this semiring" call;
* :class:`Session` -- the compile-once handle: it caches the
  grounding (a :class:`~repro.datalog.grounding.ColumnarGroundProgram`,
  which the fixpoint, the analyzer and the proof-tree enumerators all
  read), the per-output-fact circuit constructions and their
  compiled forms, so many queries against one (program, database)
  pair pay interning/grounding/compilation once.  The serving stack
  (:mod:`repro.serving`) holds one ``Session`` per cache entry;
* :func:`program_fingerprint` / :func:`database_fingerprint` -- the
  stable content identities the compiled-circuit cache is keyed on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Optional, Tuple

from .circuits.runtime import CompiledCircuit, IncrementalEvaluator
from .config import ConfigLike, ExecutionConfig, coerce_config
from .constructions.auto import ConstructionChoice, provenance_circuit
from .constructions.fringe import fringe_circuit
from .constructions.generic import generic_circuit
from .datalog.analysis import (
    AnalysisReport,
    ProgramValidationError,
    analyze_program,
    prune_unreachable,
    require_valid,
    validation_diagnostics,
)
from .datalog.ast import DatalogError, Fact, Program
from .datalog.database import Database, check_weight
from .datalog.evaluation import EvaluationResult
from .datalog.grounding import ColumnarGroundProgram
from .datalog.incremental import MaintainedFixpoint, _coerce_fact
from .datalog.seminaive import FixpointEngine
from .semirings import BOOLEAN
from .semirings.base import Semiring

__all__ = [
    "ExecutionConfig",
    "ProgramValidationError",
    "Session",
    "StreamSession",
    "analyze_program",
    "solve",
    "program_fingerprint",
    "database_fingerprint",
]


def program_fingerprint(program: Program) -> str:
    """A stable content identity for *program* (rules + target).

    Rule ``repr`` is the canonical surface syntax (it round-trips
    through the parser), so two structurally equal programs agree and
    any rule or target change moves the fingerprint.
    """
    digest = hashlib.sha256()
    digest.update(repr(program.target).encode())
    for rule in program.rules:
        digest.update(b"\x00")
        digest.update(repr(rule).encode())
    return digest.hexdigest()[:16]


def database_fingerprint(database: Database) -> str:
    """A stable content identity for *database* (facts + weights).

    Facts are folded in sorted-``repr`` order so insertion order does
    not matter; stored weights participate so a ``set_weight`` call
    moves the fingerprint (a compiled circuit's *structure* only
    depends on the facts, but the server's cached base valuations --
    and therefore correct serving -- depend on the weights too).
    """
    digest = hashlib.sha256()
    for fact in sorted(database.facts(), key=repr):
        digest.update(b"\x00")
        digest.update(repr(fact).encode())
        weight = database.weight(fact)
        if weight is not None:
            digest.update(b"\x01")
            digest.update(repr(weight).encode())
    return digest.hexdigest()[:16]


class Session:
    """A compile-once handle on one (program, database, config) triple.

    The paper's usage pattern is "build once, query many times"; the
    session is that pattern as an object.  Everything expensive is
    computed lazily and cached:

    * :meth:`ground` -- the relevant grounding, joined by the
      configured engine;
    * :meth:`circuit` -- one :class:`ConstructionChoice` per output
      fact, built by the configured construction (``auto`` runs the
      paper's decision tree); the choice caches its
      :class:`CompiledCircuit`;
    * :meth:`solve` -- the fixpoint over any semiring, reusing the
      cached grounding.

    The session never mutates its database.  An insert or retract
    written to the database afterwards drops the cached grounding and
    circuit choices (the database counts its structural writes), so
    later calls answer for the new database.

    ``strict=True`` runs the full static analyzer
    (:func:`repro.datalog.analysis.analyze_program`) at construction
    and raises :class:`~repro.datalog.analysis.ProgramValidationError`
    on any error-severity diagnostic; :meth:`analyze` returns the full
    report (optionally semiring-aware) on demand.  With
    ``config.prune`` set, rules unreachable from the target are
    dropped before grounding (:meth:`plan_program`); reachable facts
    keep exactly their unpruned values.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        config: ConfigLike = None,
        strict: bool = False,
    ):
        self.program = program
        self.database = database
        self.config = coerce_config(config)
        if strict:
            report = analyze_program(program, database)
            if not report.ok:
                raise ProgramValidationError(report.errors())
        self._engine = FixpointEngine(config=self.config.evolve(construction=None))
        self._ground: Optional[ColumnarGroundProgram] = None
        self._plan: Optional[Program] = None
        self._choices: Dict[Fact, ConstructionChoice] = {}
        self._writes = database.structural_writes
        self._stream: Optional["StreamSession"] = None

    def _check_writes(self) -> None:
        """Drop the caches filled before a structural database write."""
        writes = self.database.structural_writes
        if writes != self._writes:
            self._writes = writes
            self._choices.clear()
            self._ground = None

    # -- identity ------------------------------------------------------

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """``(program, database, construction)`` content identity,
        hashed on each access: weights move no structural-write count."""
        return (
            program_fingerprint(self.program),
            database_fingerprint(self.database),
            self.config.resolved_construction,
        )

    # -- fixpoint evaluation -------------------------------------------

    @property
    def plan_program(self) -> Program:
        """The program the fixpoint plan runs: dead-rule-pruned when
        ``config.prune`` is set, the full program otherwise."""
        if self._plan is None:
            self._plan = (
                prune_unreachable(self.program) if self.config.prune else self.program
            )
        return self._plan

    def analyze(self, semiring: Optional[Semiring] = None) -> AnalysisReport:
        """The static analyzer's full report for this session's pair.

        Passing a *semiring* arms divergence prediction (DL006) over
        :meth:`ground`, the grounding solves run (pruned under
        ``config.prune``); a program with validation errors is never grounded.
        """
        valid = not any(d.severity == "error" for d in validation_diagnostics(self.program, self.database))
        ground = self.ground() if semiring is not None and valid else None
        return analyze_program(
            self.program,
            database=self.database,
            semiring=semiring,
            ground=ground,
            config=self.config,
        )

    def ground(self) -> ColumnarGroundProgram:
        """The cached relevant grounding."""
        ground = self._cached_ground()
        if ground is None:
            ground = self._ground = self._engine.ground(self.plan_program, self.database)
        return ground

    def _cached_ground(self) -> Optional[ColumnarGroundProgram]:
        """The live stream maintainer's ground program while one is
        attached, else the grounding cached here (if any)."""
        self._check_writes()
        stream = self._stream
        if stream is not None and stream.fixpoint is not None:
            return stream.fixpoint.cground
        return self._ground

    def solve(
        self,
        semiring: Semiring = BOOLEAN,
        weights: Optional[Mapping[Fact, object]] = None,
        max_iterations: Optional[int] = None,
        raise_on_divergence: bool = False,
    ) -> EvaluationResult:
        """Least-fixpoint evaluation over *semiring* (cached grounding)."""
        return self._engine.evaluate(
            self.plan_program,
            self.database,
            semiring,
            weights=weights,
            ground=self.ground(),
            max_iterations=max_iterations,
            raise_on_divergence=raise_on_divergence,
        )

    def value(self, fact: Fact, semiring: Semiring = BOOLEAN, **kwargs):
        """Least-fixpoint value of one *fact* (``0`` if underivable)."""
        return self.solve(semiring, **kwargs).value(fact)

    # -- circuits ------------------------------------------------------

    def circuit(self, fact: Fact) -> ConstructionChoice:
        """The cached :class:`ConstructionChoice` for output *fact*.

        ``config.construction`` picks the builder: ``auto`` (default)
        runs the decision tree of
        :func:`~repro.constructions.auto.provenance_circuit`;
        ``generic``/``fringe`` pin Theorem 3.1 / Theorem 6.2.
        """
        self._check_writes()
        choice = self._choices.get(fact)
        if choice is None:
            construction = self.config.resolved_construction
            if construction == "auto":
                choice = provenance_circuit(self.program, self.database, fact, config=self.config)
            elif construction == "generic":
                choice = ConstructionChoice(
                    generic_circuit(self.program, self.database, fact, config=self.config),
                    construction="generic",
                    theorem="Theorem 3.1",
                    reason="pinned by ExecutionConfig(construction='generic')",
                )
            else:  # "fringe" (the vocabulary is validated by ExecutionConfig)
                choice = ConstructionChoice(
                    fringe_circuit(self.program, self.database, fact, config=self.config),
                    construction="fringe",
                    theorem="Theorem 6.2",
                    reason="pinned by ExecutionConfig(construction='fringe')",
                )
            self._choices[fact] = choice
        return choice

    def compiled(self, fact: Fact) -> CompiledCircuit:
        """The compiled circuit for output *fact* (cached end to end)."""
        return self.circuit(fact).compiled()

    def serve(
        self,
        fact: Fact,
        semiring: Semiring = BOOLEAN,
        assignment: Optional[Mapping[Fact, object]] = None,
    ) -> IncrementalEvaluator:
        """An incremental point-update session on *fact*'s circuit.

        *assignment* defaults to the database's stored valuation over
        *semiring* -- the live-serving seed.
        """
        if assignment is None:
            assignment = self.database.valuation(semiring)
        return self.circuit(fact).serve(semiring, assignment)

    # -- streaming -----------------------------------------------------

    def stream(self, *semirings: Semiring) -> "StreamSession":
        """The session's live write handle (lazily created, cached).

        Attaches a :class:`~repro.datalog.incremental.MaintainedFixpoint`
        to the database, after which fact inserts/retracts/reweights
        are absorbed differentially: :meth:`ground` reads the
        maintained ground program, and circuits served through
        :meth:`StreamSession.serve` receive leaf-level pushes.  Pass
        the semirings to maintain dense value state for (more can be
        tracked later).

        If maintenance ever fails, the stream degrades to full
        recompute instead of surfacing the error (DESIGN.md §12).
        """
        if self._stream is None:
            self._stream = StreamSession(self, semirings)
        else:
            for semiring in semirings:
                self._stream.track(semiring)
        return self._stream


class ServedStream:
    """A live circuit evaluator pinned to one output fact of a stream.

    Wraps an :class:`~repro.circuits.runtime.IncrementalEvaluator` and
    keeps it consistent across stream mutations:

    * retracting a leaf the circuit references pushes semiring ``0``
      into its gate (a provenance polynomial at ``x = 0`` -- exactly
      what "the fact is gone" means for an already-built circuit);
    * reweighting (or re-inserting) a known leaf pushes the new value;
    * inserting a fact the circuit has *no* gate for is structural:
      new derivations may exist, so the circuit is rebuilt from the
      current database.

    Deltas that touch facts outside the circuit's leaf set are
    ignored -- they cannot change this output.
    """

    def __init__(self, stream: "StreamSession", output: Fact, semiring: Semiring):
        self._stream = stream
        self.output = output
        self.semiring = semiring
        self.rebuilds = 0
        self._build()

    def _build(self) -> None:
        # An insert drops the session's circuit choices, so this circuit
        # matches the current database, whose valuation covers all of
        # its leaves.
        self.evaluator = self._stream.session.serve(self.output, self.semiring)

    def _apply(self, kind: str, fact: Fact, weight: object) -> None:
        known = fact in self.evaluator.compiled.var_slots
        if kind == "insert" and not known:
            self.rebuilds += 1
            self._build()
            return
        if not known:
            return
        semiring = self.semiring
        if kind == "retract":
            value = semiring.zero
        else:
            value = semiring.one if weight is None else weight
        self.evaluator.update({fact: value})

    def value(self):
        """The output fact's current circuit value."""
        return self.evaluator.value()

    @property
    def last_cone_size(self) -> int:
        return self.evaluator.last_cone_size


class StreamSession:
    """Differential writes against a :class:`Session` (DESIGN.md §11).

    Obtained from :meth:`Session.stream`.  The stream observes the
    session's database, attached before its
    :class:`~repro.datalog.incremental.MaintainedFixpoint`, so every
    write -- through the stream or a direct ``db.add_fact`` /
    ``db.retract_fact`` / ``db.set_weight``, maintained or degraded --
    reaches the circuits served via :meth:`serve` as a leaf push (a
    rebuild for an insert the circuit has no gate for).  The session
    itself follows the database: :meth:`Session.ground` reads the
    maintainer's live ground program while one is attached, and an
    insert or retract drops the session's circuit choices.

    **Degrade-to-recompute** (DESIGN.md §12): if maintenance ever
    fails -- the maintainer raises anything while absorbing a write
    or tracking a semiring -- the stream *detaches* the broken
    maintainer and degrades: reads fall back to full recompute through
    :meth:`Session.solve`.  Answers stay exactly correct, only slower.
    The next write through the stream attempts one clean rebuild of
    the maintainer from current database state and re-attaches on
    success.  Degradations are counted
    (``degradations``/``degraded``/``last_degrade_reason``).
    """

    def __init__(
        self,
        session: Session,
        semirings: Tuple[Semiring, ...] = (),
    ):
        self.session = session
        self._semirings: list[Semiring] = list(semirings)
        self._served: list[ServedStream] = []
        self.fixpoint: Optional[MaintainedFixpoint] = None
        self.degraded = False
        self.degradations = 0
        self.last_degrade_reason: Optional[str] = None
        session.database._attach_observer(self)
        try:
            self._attach()
        except Exception as exc:
            # Even the initial build degrades instead of failing the
            # stream: reads recompute, the next write retries attach.
            self._degrade(exc)

    # -- maintainer lifecycle ------------------------------------------

    def _attach(self) -> None:
        """One clean build: fresh maintainer over current database state."""
        session = self.session
        self.fixpoint = MaintainedFixpoint(
            session.program,
            session.database,
            semirings=tuple(self._semirings),
        )
        self.degraded = False

    def _degrade(self, exc: BaseException) -> None:
        """Detach the (possibly inconsistent) maintainer and fall back
        to recompute.  The database is never suspect: a write lands,
        and its views drop, before any observer runs."""
        if self.fixpoint is not None:
            self.fixpoint.detach()
        self.fixpoint = None
        self.degraded = True
        self.degradations += 1
        self.last_degrade_reason = f"{type(exc).__name__}: {exc}"

    # -- writes --------------------------------------------------------

    def _write(self, apply, applied):
        """Run one database write and return *applied*.  A degraded
        stream first tries one clean re-attach.  A fault while the
        observers absorb the write degrades the stream instead of
        surfacing: the database applied the write before any observer
        ran, so it is durable.  ``KeyError`` (an absent fact) is the
        caller's."""
        if self.fixpoint is None:
            try:
                self._attach()
            except Exception as exc:
                self._degrade(exc)
        try:
            apply()
        except KeyError:
            raise
        except Exception as exc:
            self._degrade(exc)
        return applied

    def insert(self, fact, *args, weight: object = None) -> bool:
        """Insert an EDB fact; True iff it was new."""
        fact = _coerce_fact(fact, args)
        self._guard_edb(fact)
        check_weight(weight)
        database = self.session.database
        return self._write(lambda: database.add_fact(fact, weight), fact not in database)

    def retract(self, fact, *args) -> Fact:
        """Retract an EDB fact; KeyError if absent."""
        fact = _coerce_fact(fact, args)
        self._guard_edb(fact)
        database = self.session.database
        return self._write(lambda: database.retract_fact(fact), fact)

    def set_weight(self, fact: Fact, weight: object) -> None:
        """Change one EDB fact's annotation."""
        self._guard_edb(fact)
        check_weight(weight)
        database = self.session.database
        return self._write(lambda: database.set_weight(fact, weight), None)

    def track(self, semiring: Semiring) -> None:
        """Maintain dense value state for one more semiring."""
        if semiring not in self._semirings:
            self._semirings.append(semiring)
        if self.fixpoint is not None:
            try:
                self.fixpoint.track(semiring)
            except Exception as exc:
                self._degrade(exc)

    # -- reads ---------------------------------------------------------

    def value(self, fact: Fact, semiring: Semiring = BOOLEAN):
        """Maintained value of one IDB fact (O(1) array read when
        maintained; a cached full recompute when degraded)."""
        if self.fixpoint is None:
            return self.session.solve(semiring).value(fact)
        return self.fixpoint.value(fact, semiring)

    def values(self, semiring: Semiring = BOOLEAN) -> Dict[Fact, object]:
        if self.fixpoint is None:
            return dict(self.session.solve(semiring).values)
        return self.fixpoint.values(semiring)

    def result(self, semiring: Semiring = BOOLEAN, **kwargs) -> EvaluationResult:
        """Batch-equivalent :class:`EvaluationResult` (see
        :meth:`MaintainedFixpoint.result`)."""
        if self.fixpoint is None:
            return self.session.solve(semiring, **kwargs)
        return self.fixpoint.result(semiring, **kwargs)

    def serve(self, fact: Fact, semiring: Semiring = BOOLEAN) -> ServedStream:
        """A continuously-maintained circuit evaluator on *fact*."""
        served = ServedStream(self, fact, semiring)
        self._served.append(served)
        return served

    # -- database observer hooks ---------------------------------------

    def _guard_edb(self, fact: Fact) -> None:
        """IDB writes are a caller error, never a degrade trigger."""
        if fact.predicate in self.session.program.idb_predicates:
            raise DatalogError(
                f"cannot mutate {fact}: {fact.predicate!r} is an IDB predicate "
                f"of the streamed program (derived relations are maintained, "
                f"not stored)"
            )

    def _apply_insert(self, fact: Fact, weight: object) -> None:
        self._push("insert", fact, weight)

    def _apply_retract(self, fact: Fact) -> None:
        self._push("retract", fact, None)

    def _apply_weight(self, fact: Fact, weight: object) -> None:
        self._push("weight", fact, weight)

    def _push(self, kind: str, fact: Fact, weight: object) -> None:
        for served in tuple(self._served):
            served._apply(kind, fact, weight)


def solve(
    program: Program,
    database: Database,
    semiring: Semiring = BOOLEAN,
    *,
    config: ConfigLike = None,
    weights: Optional[Mapping[Fact, object]] = None,
    ground: Optional[ColumnarGroundProgram] = None,
    max_iterations: Optional[int] = None,
    raise_on_divergence: bool = False,
    strict: bool = False,
) -> EvaluationResult:
    """One-shot fixpoint evaluation through the unified facade.

    Runs ``FixpointEngine(config=...).evaluate``, with the knobs
    carried by one :class:`ExecutionConfig`; the default is the
    columnar fast path, and the naive oracle is one field away::

        from repro.api import ExecutionConfig, solve
        result = solve(program, db, TROPICAL,
                       config=ExecutionConfig(engine="naive", strategy="naive"))

    ``strict=True`` runs the full semiring-aware static analyzer
    first and raises
    :class:`~repro.datalog.analysis.ProgramValidationError` on any
    error diagnostic -- including a predicted divergence (DL006), so a
    COUNTING fixpoint over cyclic data fails before a single round
    runs instead of burning the iteration budget.  The program is
    grounded once (pruned first under ``config.prune``): DL006 judges
    exactly the grounding the fixpoint then runs.

    For repeated queries against the same pair, build a
    :class:`Session` instead.
    """
    engine = FixpointEngine(config=coerce_config(config).evolve(construction=None))
    if strict:
        require_valid(program, database)
        if ground is None:
            plan = prune_unreachable(program) if engine.config.prune else program
            ground = engine.ground(plan, database)
        report = analyze_program(
            program, database=database, semiring=semiring, ground=ground, config=config
        )
        if not report.ok:
            raise ProgramValidationError(report.errors())
    return engine.evaluate(
        program,
        database,
        semiring,
        weights=weights,
        ground=ground,
        max_iterations=max_iterations,
        raise_on_divergence=raise_on_divergence,
    )

