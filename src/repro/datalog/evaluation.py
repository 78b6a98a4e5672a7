"""Datalog semantics over semirings: the ICO, its result and the oracle.

Section 2.3: the immediate consequence operator (ICO) maps each IDB
fact ``α`` to the ``⊕``-sum over all grounded rules with head ``α`` of
the ``⊗``-product of the rule's body facts.  Naive evaluation starts
from all-``0`` and applies the ICO until a fixpoint.

Two strategies compute that fixpoint (see
:mod:`repro.datalog.seminaive` for the :class:`FixpointEngine` API):

* ``columnar`` -- the default fast path: per-fact deltas re-evaluate
  only rules whose body actually changed, run in id space on a
  :class:`~repro.datalog.grounding.ColumnarGroundProgram` (dense
  value arrays indexed by fact id, per-fact adjacency lists,
  object-space ⊗/⊕; DESIGN.md §9), round-for-round equivalent to naive.
* ``naive`` -- the paper's loop, kept verbatim in
  :func:`_naive_fixpoint` as the reference oracle: every round
  re-evaluates every ground rule, ``O(iterations × |ground rules|)``.
  It reads the same grounding, decoded once into :class:`Fact`-space
  ground rules, and keeps its values in a dict keyed by fact.

This module holds what both strategies share -- the
:class:`EvaluationResult` and the :class:`DivergenceError` -- and the
oracle loop.  The one entry point that runs either is
:meth:`FixpointEngine.evaluate <repro.datalog.seminaive.FixpointEngine.evaluate>`
(columnar unless ``config=ExecutionConfig(strategy="naive")``); callers
outside the Datalog layer go through :func:`repro.api.solve` or a
:class:`repro.api.Session`.  One fact's value is ``result.value(fact)``,
and the Boolean round count of Definition 4.1 is
``derivable_facts(program, database)[1]``
(:func:`repro.datalog.grounding.derivable_facts`).

Convergence is guaranteed for absorptive (0-stable) semirings -- in at
most ``N`` rounds, where ``N`` is the number of derivable IDB facts,
because a tight proof tree repeats no IDB fact on a root-to-leaf path
and so has height at most ``N``.  Over non-stable semirings (e.g. the
counting semiring on cyclic inputs) evaluation may diverge; the
``max_iterations`` guard reports that instead of spinning, identically
under both strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..semirings.base import Semiring
from .ast import Fact, Program
from .grounding import ColumnarGroundProgram

__all__ = [
    "EvaluationResult",
    "DivergenceError",
]


class DivergenceError(RuntimeError):
    """Fixpoint evaluation hit the iteration cap without converging."""


@dataclass
class EvaluationResult:
    """Outcome of a fixpoint evaluation.

    ``values`` holds the least-fixpoint annotation of every derivable
    IDB fact; ``iterations`` is the number of ICO applications until
    the fixpoint was certified (the quantity bounded by Definition
    4.1's ``k`` for bounded programs) and is identical across
    strategies.  ``strategy`` records which backend produced the
    result; ``rule_evaluations`` counts ``⊗``-term recomputations, the
    cost metric on which the strategies differ.
    """

    semiring: Semiring
    values: Dict[Fact, object]
    iterations: int
    converged: bool
    strategy: str = "naive"
    rule_evaluations: int = 0

    def value(self, fact: Fact):
        return self.values.get(fact, self.semiring.zero)

    def target_values(self, program: Program) -> Dict[Fact, object]:
        return {
            fact: value
            for fact, value in self.values.items()
            if fact.predicate == program.target
        }


def _naive_fixpoint(
    ground: ColumnarGroundProgram,
    semiring: Semiring,
    edb_value: Mapping[Fact, object],
    idb_facts: List[Fact],
    max_iterations: int,
) -> Tuple[Dict[Fact, object], int, bool, int]:
    """The literal Section 2.3 loop: re-evaluate everything each round.

    A fact whose fresh total ``eq``s its stored value keeps the stored
    value, as the columnar kernel does, so under a tolerance ``eq`` both
    strategies answer the same values under ``==``.

    Returns ``(values, iterations, converged, rule_evaluations)``; the
    reference the columnar strategy is tested against.
    """
    rules = [ground.rule(position) for position in range(len(ground))]
    # Precompute each ground rule's EDB product once.
    rule_edb_product = [
        semiring.mul_all(edb_value[fact] for fact in rule.edb_body) for rule in rules
    ]

    values: Dict[Fact, object] = {fact: semiring.zero for fact in idb_facts}
    iterations = 0
    converged = False
    rule_evaluations = 0
    zero = semiring.zero
    for _ in range(max_iterations):
        fresh: Dict[Fact, object] = {fact: semiring.zero for fact in idb_facts}
        for rule, edb_product in zip(rules, rule_edb_product):
            term = edb_product
            for body_fact in rule.idb_body:
                # A stored IDB fact no rule derives is read as 0, like
                # the columnar kernel's IDB slots.
                term = semiring.mul(term, values.get(body_fact, zero))
            fresh[rule.head] = semiring.add(fresh[rule.head], term)
            rule_evaluations += 1
        iterations += 1
        changed = False
        for fact in idb_facts:
            if semiring.eq(fresh[fact], values[fact]):
                fresh[fact] = values[fact]
            else:
                changed = True
        values = fresh
        if not changed:
            converged = True
            break
    return values, iterations, converged, rule_evaluations
