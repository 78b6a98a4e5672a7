"""The delta-driven columnar fixpoint, and the FixpointEngine API.

:func:`repro.datalog.evaluation._naive_fixpoint` implements the
paper's Section 2.3 fixpoint literally: every round re-multiplies every
ground rule and re-folds every head, so a run costs
``O(iterations × |ground rules|)`` rule evaluations even when almost
nothing changed between rounds.  It is the reference oracle.  This
module provides the fast path -- semi-naive rounds on the id-space
grounding (:func:`_columnar_fixpoint`, DESIGN.md §9) -- and the common
:class:`FixpointEngine` front-end through which both are selected.
Both strategies read the same
:class:`~repro.datalog.grounding.ColumnarGroundProgram`, whichever join
engine produced it.

Delta-driven evaluation (round ``t``):

1. **Delta set** -- the IDB facts whose value changed in round
   ``t − 1``.
2. **Dirty rules** -- via the grounding's fact → rules-with-it-in-the-
   body lists, exactly the ground rules with a delta fact in their
   body; only their ``⊗``-terms are recomputed from the stored body
   rows (every other rule's term is still current because none of its
   body values moved).
3. **Dirty heads** -- each head of a dirty rule gets a new total, in
   one of two fold forms.  The *refold* caches every rule's term and
   re-folds the head with ``semiring.add`` over the cached terms of
   all its rules (head → rules lists).  The *accumulation*, run by a
   from-zero solve over a ⊕-idempotent semiring, ⊕-folds each dirty
   rule's fresh term into its head's running total: from ``0`` every
   term only rises in the natural order, so with ``x ⊕ x = x`` the
   old total ⊕ the fresh terms equals the refold, and no head list
   or per-rule term is kept.  A head whose new total differs from its
   stored value (``semiring.eq``) enters the next delta set.
4. **Convergence** is certified by an empty delta set -- no full
   ``eq`` sweep over all facts is ever needed.

Rounds are Jacobi-style (all round-``t`` terms read round-``t − 1``
values), so the per-round value maps -- and therefore the fixpoint,
the iteration count, the ``converged`` flag and the divergence
behaviour on non-stable semirings -- coincide *exactly* with naive
evaluation; only the number of rule evaluations shrinks.  The
oracle-vs-fast tests in ``tests/datalog/test_seminaive.py`` and
``tests/datalog/test_columnar_fixpoint.py`` pin this.

**The read-off.**  Some solves need no round at all.  Over a
⊕-idempotent semiring whose every EDB slot holds the ``one`` object,
on a database storing no fact of an IDB predicate, each Jacobi value
is ``0`` or ``1`` and a fact becomes ``1`` exactly one round after its
body facts do -- the grounder's Boolean rounds.  The relevant
grounding already holds the derivable facts and records that round
count (``cground.iterations``), so :func:`_columnar_fixpoint` returns
``one`` for every head and that count without running the kernel,
when the count is recorded and within ``max_iterations``.  Every other
case -- a weight that is not ``one``, a non-idempotent semiring, a
stored IDB fact (which the grounder takes as present but the fixpoint
reads as ``0`` unless derived), a grounding with no round count, a
round cap below the count -- runs the kernel.  ``rule_evaluations``
counts the rules actually evaluated, so a read-off reports ``0``.

The same generated kernel (:data:`_KERNEL_SOURCE`) is the only
fixpoint loop of :class:`~repro.datalog.incremental.MaintainedFixpoint`
too (DESIGN.md §11); a batch solve is its special case from zero with
every rule dirty.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import ExecutionConfig, coerce_config
from ..semirings.base import Semiring
from .analysis import prune_unreachable, require_valid
from .ast import Fact, Program
from .database import Database, check_weight
from .evaluation import DivergenceError, EvaluationResult, _naive_fixpoint
from .grounding import ColumnarGroundProgram, columnar_grounding, relevant_grounding

__all__ = ["FixpointEngine"]


@dataclass(frozen=True)
class FixpointEngine:
    """Datalog fixpoint computation, configured by one
    :class:`~repro.config.ExecutionConfig`.

    ``config.strategy`` picks the fixpoint (``"columnar"``, the
    default fast path, or ``"naive"``, the literal Section 2.3 loop the
    equivalence tests compare against); ``config.engine`` independently
    picks the join engine used when the engine has to ground the
    program itself (``"columnar"`` or ``"naive"``, see
    :func:`~repro.datalog.grounding.relevant_grounding`).  The two
    knobs compose freely, and all four pairs compute identical values,
    iteration counts and ``converged`` flags.

    The engine is stateless and cheap to construct; all per-run state
    (grounding, caches, deltas) lives inside :meth:`evaluate`.
    """

    config: Optional[ExecutionConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", coerce_config(self.config))

    @property
    def strategy(self) -> str:
        """The resolved fixpoint strategy."""
        return self.config.resolved_strategy

    def ground(self, program: Program, database: Database) -> ColumnarGroundProgram:
        """The relevant grounding, joined by the configured engine."""
        if self.config.resolved_engine == "naive":
            return relevant_grounding(program, database, config=self.config)
        return columnar_grounding(program, database)

    def evaluate(
        self,
        program: Program,
        database: Database,
        semiring: Semiring,
        weights: Optional[Mapping[Fact, object]] = None,
        ground: Optional[ColumnarGroundProgram] = None,
        max_iterations: Optional[int] = None,
        raise_on_divergence: bool = False,
        validate: bool = True,
    ) -> EvaluationResult:
        """Least fixpoint of *program* on *database* over *semiring*.

        *weights* overrides stored annotations, *ground* reuses a
        precomputed grounding from either engine, ``max_iterations``
        defaults to ``max(#IDB facts, 1) + 2`` and guards non-stable
        semirings.

        ``validate=True`` (the default) re-runs the DL001/DL002 checks
        of :func:`repro.datalog.analysis.require_valid` before any
        grounding, so an unsafe or arity-inconsistent program --
        constructed with ``validate=False`` or mutated after the fact
        -- fails with a :class:`~repro.datalog.analysis
        .ProgramValidationError` instead of a late KeyError or a
        silently wrong answer; ``validate=False`` is the escape hatch.
        With ``config.prune`` set and no precomputed *ground*, rules
        unreachable from the target are dropped
        (:func:`repro.datalog.analysis.prune_unreachable`) before
        grounding; values of reachable facts are preserved exactly.

        The columnar strategy reads an all-``one`` ⊕-idempotent solve
        off the grounding instead of running the kernel (the module
        docstring's *read-off*): when ``semiring.idempotent_add`` is
        set, every EDB value *is* ``semiring.one`` (a weight merely
        ``==`` to it falls back), *database* stores no fact of an IDB
        predicate, and the grounding records a round count
        (``ground.iterations``, ``None`` for a :func:`~repro.datalog
        .grounding.full_grounding` or a maintainer's grounding) of at
        most ``max_iterations``.  Values, iterations and ``converged``
        are the kernel's; ``rule_evaluations`` counts the rules
        actually evaluated, which is 0 for a read-off.
        """
        if validate:
            require_valid(program)
        if self.config.prune and ground is None:
            program = prune_unreachable(program)
        if ground is None:
            ground = self.ground(program, database)
        edb_value = database.valuation(semiring)  # already a fresh copy
        if weights:
            for weight in weights.values():
                check_weight(weight)
            edb_value.update(weights)
        if self.strategy == "naive":
            idb_facts = sorted(ground.idb_facts, key=repr)
            if max_iterations is None:
                max_iterations = max(len(idb_facts), 1) + 2
            values, iterations, converged, rule_evaluations = _naive_fixpoint(
                ground, semiring, edb_value, idb_facts, max_iterations
            )
        else:
            head_fids = ground.idb_fact_ids()
            if max_iterations is None:
                max_iterations = max(len(head_fids), 1) + 2
            stored_idb = any(map(database.tuples, ground.program.idb_predicates))
            value, iterations, converged, rule_evaluations = _columnar_fixpoint(
                ground, semiring, edb_value, max_iterations, stored_idb
            )
            values = dict(zip(ground.decode_facts(head_fids), map(value.__getitem__, head_fids)))
        if not converged and raise_on_divergence:
            raise DivergenceError(
                f"{self.strategy} evaluation over {semiring.name} did not "
                f"converge in {max_iterations} iterations"
            )
        return EvaluationResult(
            semiring,
            values,
            iterations,
            converged,
            strategy=self.strategy,
            rule_evaluations=rule_evaluations,
        )


#: The ⊗/⊕ templates for semirings that declare no expressions.
_CALL_TEMPLATES = ("add({a}, {b})", "mul({a}, {b})")

#: The delta loop (module docstring) with the two semiring operations
#: spliced in as expressions (no method call per ⊗/⊕) -- the same
#: closure-compiler technique as the circuit runtime's kernels
#: (DESIGN.md §7).  ``eq`` stays a bound-method call: the expression
#: templates only promise ``add``/``mul`` equivalence, and a semiring
#: may override equality independently.  ``add``/``mul`` are the bound
#: methods, which :data:`_CALL_TEMPLATES` call.
#:
#: The caller owns ``value`` and names the first round's dirty rules.
#: The rule's EDB factor is spliced in as ``{edb_term}``: a from-zero
#: solve hoists one product per rule (``{edb_setup}``), a repair folds
#: the few rows it touches inline.  How a dirty head's new total is
#: formed is spliced in as ``{rule_fold}``/``{head_fold}`` (see
#: :data:`_REFOLD` and :data:`_ACCUMULATE`); either way the new
#: totals land in ``value`` only after every dirty head is folded, so
#: rounds stay Jacobi.  A head whose ``head_mark`` byte is pre-set is
#: never folded, which confines a repair to its region.  With a
#: ``witness`` array, a head that strictly changes records the first
#: rule deriving it whose term ``eq``s the new total.
_KERNEL_SOURCE = """\
def _kernel(value, rule_term, dirty_rules, head_mark, witness, idb_rows, edb_rows,
            rule_head, by_head, by_body, max_iterations, zero, one, eq, add, mul):
{edb_setup}
{fold_setup}
    iterations = 0
    converged = False
    rule_evaluations = 0
    while iterations < max_iterations:
        dirty_heads = []
        for position in dirty_rules:
{edb_term}
            for fid in idb_rows[position]:
                other = value[fid]
                term = {mul_expr}
            head = rule_head[position]
{rule_fold}
            if not head_mark[head]:
                head_mark[head] = 1
                dirty_heads.append(head)
        rule_evaluations += len(dirty_rules)
        delta_fids = []
        delta_values = []
        for head in dirty_heads:
            head_mark[head] = 0
{head_fold}
            if not eq(total, value[head]):
                delta_fids.append(head)
                delta_values.append(total)
                if witness is not None:
                    for position in by_head[head]:
                        if eq(rule_term[position], total):
                            witness[head] = position
                            break
        iterations += 1
        if not delta_fids:
            converged = True
            break
        for at in range(len(delta_fids)):
            value[delta_fids[at]] = delta_values[at]
        rule_mark = bytearray(len(rule_head))
        next_dirty = []
        for head in delta_fids:
            for position in by_body[head]:
                if not rule_mark[position]:
                    rule_mark[position] = 1
                    next_dirty.append(position)
        next_dirty.sort()
        dirty_rules = next_dirty
    return iterations, converged, rule_evaluations
"""

#: Every rule dirty, the EDB products hoisted: the from-zero solve.
_HOISTED_EDB = ("""\
    edb_product = []
    append_product = edb_product.append
    for row in edb_rows:
        term = one
        for fid in row:
            other = value[fid]
            term = {mul_expr}
        append_product(term)
    dirty_rules = range(len(rule_head))""", """\
            term = edb_product[position]""")

#: The EDB product folded per dirty rule: a repair.
_INLINE_EDB = ("", """\
            term = one
            for fid in edb_rows[position]:
                other = value[fid]
                term = {mul_expr}""")

#: The refold: a dirty rule caches its term in ``rule_term``, and a
#: dirty head re-folds the cached terms of all its rules (``by_head``).
#: Exact over any semiring, and the form a repair needs.
_REFOLD = ("", """\
            rule_term[position] = term""", """\
            total = zero
            for position in by_head[head]:
                other = rule_term[position]
                total = {add_expr}""")

#: The accumulation, for a from-zero solve over a ⊕-idempotent
#: semiring: a dirty rule ⊕-folds its term into its head's running
#: total, and a dirty head reads that total.  From 0 every stored value,
#: and so every rule's term, only rises in the natural order, so with
#: ``x ⊕ x = x`` the old total ⊕ the new dirty terms is the refold of
#: all current terms.  The running total is kept apart from ``value``:
#: a tolerance ``eq`` (VITERBI, LUKASIEWICZ) can keep an old stored
#: value below the last computed total, and the refold this must equal
#: folds the risen terms, not the stored value.
_ACCUMULATE = ("""\
    head_total = [zero] * len(value)""", """\
            total = head_total[head]
            head_total[head] = {accumulate_expr}""", """\
            total = head_total[head]""")


@lru_cache(maxsize=None)
def _fixpoint_kernel(add_template: str, mul_template: str, hoisted: bool, accumulate: bool):
    """The compiled delta-loop kernel for one pair of operation
    templates, one EDB-factor form and one fold form, generated once
    and shared across semiring instances with equal templates."""
    mul_expr = mul_template.format(a="term", b="other")
    setup, term = _HOISTED_EDB if hoisted else _INLINE_EDB
    fold_setup, rule_fold, head_fold = _ACCUMULATE if accumulate else _REFOLD
    source = _KERNEL_SOURCE.format(
        edb_setup=setup.format(mul_expr=mul_expr),
        edb_term=term.format(mul_expr=mul_expr),
        fold_setup=fold_setup,
        rule_fold=rule_fold.format(accumulate_expr=add_template.format(a="total", b="term")),
        head_fold=head_fold.format(add_expr=add_template.format(a="total", b="other")),
        mul_expr=mul_expr,
    )
    namespace: Dict[str, object] = {}
    exec(source, namespace)  # noqa: S102 - closure compiler, pure templates
    return namespace["_kernel"]


def _run_fixpoint(
    cground: ColumnarGroundProgram,
    semiring: Semiring,
    value: List[object],
    rule_term: Optional[List[object]],
    dirty_rules: Optional[Sequence[int]],
    max_iterations: int,
    head_mark: Optional[bytearray] = None,
    witness: Optional[array] = None,
) -> Tuple[int, bool, int]:
    """Run the generated kernel on caller-owned *value* (by fact id)
    and *rule_term* (by rule position), updated in place, from
    *dirty_rules* -- ``None``: every rule, EDB products hoisted -- with
    the optional *head_mark* and *witness* of :data:`_KERNEL_SOURCE`.
    ``rule_term=None`` runs the :data:`_ACCUMULATE` form instead of the
    :data:`_REFOLD`: only from zero with every rule dirty, over a
    ⊕-idempotent *semiring*, and with no witnesses.
    Returns ``(iterations, converged, rule_evaluations)``."""
    accumulate = rule_term is None
    # Semirings that declare closure-compiler templates (DESIGN.md §7)
    # get ⊗/⊕ inlined as expressions; everything else runs the same
    # kernel with calls to the bound methods.
    templates = (semiring.compiled_add_expr, semiring.compiled_mul_expr)
    if not all(templates):
        templates = _CALL_TEMPLATES
    kernel = _fixpoint_kernel(*templates, dirty_rules is None, accumulate)
    if head_mark is None:
        head_mark = bytearray(cground.fact_count)
    return kernel(
        value, rule_term, dirty_rules, head_mark, witness,
        cground.idb_rows, cground.edb_rows, cground.rule_head,
        None if accumulate else cground.by_head(), cground.by_body(),
        max_iterations, semiring.zero, semiring.one, semiring.eq, semiring.add, semiring.mul,
    )


def _columnar_fixpoint(
    cground: ColumnarGroundProgram,
    semiring: Semiring,
    edb_value: Mapping[Fact, object],
    max_iterations: int,
    stored_idb: bool,
) -> Tuple[List[object], int, bool, int]:
    """The delta-driven loop (see the module docstring), run from zero
    on the id-space grounding (DESIGN.md §9), or its answer read off
    the grounding (the module docstring's *read-off*) when *stored_idb*
    is false -- the database stores no fact of an IDB predicate -- and
    the other conditions hold.  A true *stored_idb* always runs the
    kernel.

    Jacobi round structure (every round-``t`` ⊗-term reads
    round-``t − 1`` values, updates land after all dirty heads are
    folded), so values, iteration counts, the ``converged`` flag and
    divergence behaviour coincide with the naive oracle.  Values live
    in one dense list indexed by fact id (EDB slots filled once from
    *edb_value*, IDB slots starting at ``0``), and the dirty sets are
    flat int lists deduplicated through ``bytearray`` marks over the
    per-fact
    :meth:`~repro.datalog.grounding.ColumnarGroundProgram.by_body`
    lists.  A ⊕-idempotent semiring accumulates each head's running
    total (:data:`_ACCUMULATE`), so the solve never reads
    :meth:`~repro.datalog.grounding.ColumnarGroundProgram.by_head`;
    any other keeps per-rule cached ⊗-terms in a parallel list and
    re-folds each dirty head over them (:data:`_REFOLD`).  The kernel
    reads the grounding's stored body rows as they are -- no
    :class:`Fact` is hashed or decoded anywhere in the loop.  Semiring
    ``⊗``/``⊕`` folds stay object-space calls on the dense arrays, so
    every existing semiring works unchanged (the hybrid mode).

    Returns ``(value, iterations, converged, rule_evaluations)`` with
    *value* indexed by fact id; the caller decodes the IDB slots.
    """
    # Dense valuation: EDB slots are decoded in one batch, once per
    # distinct EDB fact; IDB slots start at 0 exactly like the naive
    # oracle.  The same pass checks whether every slot is ``one``
    # itself, which the read-off needs (``eq`` or ``==`` is not enough).
    one = semiring.one
    value: List[object] = [semiring.zero] * cground.fact_count
    edb_fids = cground.edb_fact_ids()
    all_one = True
    for fid, fact in zip(edb_fids, cground.decode_facts(edb_fids)):
        weight = value[fid] = edb_value[fact]
        if weight is not one:
            all_one = False
    rounds = cground.iterations
    if (
        all_one
        and semiring.idempotent_add
        and not stored_idb
        and rounds is not None
        and rounds <= max_iterations
    ):
        for fid in cground.idb_fact_ids():
            value[fid] = one
        return value, rounds, True, 0
    rule_term = None if semiring.idempotent_add else [semiring.zero] * len(cground)
    iterations, converged, rule_evaluations = _run_fixpoint(
        cground, semiring, value, rule_term, None, max_iterations
    )
    return value, iterations, converged, rule_evaluations
