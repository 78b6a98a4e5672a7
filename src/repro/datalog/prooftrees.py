"""Proof trees and tree-based provenance (Definitions 2.2, Prop 2.4).

A proof tree of an IDB fact records one derivation: internal nodes are
grounded-rule applications, leaves are EDB facts.  A tree is *tight*
when no root-to-leaf path repeats an IDB fact; Proposition 2.4 shows
that over absorptive semirings the provenance polynomial may be summed
over tight trees only (non-tight monomials are absorbed).

Enumeration is exponential in general; these functions are reference
implementations used to validate the circuit constructions on small
inputs, plus probes for the polynomial fringe property (Definition
6.1).  They take any grounding and decode the ground rules of each
goal on demand (:meth:`~repro.datalog.grounding.ColumnarGroundProgram
.rules_for`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

from ..semirings.polynomial import Monomial, Polynomial
from .ast import Fact, Program
from .database import Database
from .grounding import ColumnarGroundProgram, GroundRule, relevant_grounding

__all__ = [
    "ProofTree",
    "enumerate_tight_proof_trees",
    "enumerate_proof_trees",
    "provenance_by_proof_trees",
    "count_tight_proof_trees",
    "max_tight_fringe",
]


@dataclass(frozen=True)
class ProofTree:
    """A proof tree: *fact* derived by *rule* from IDB subtrees.

    ``rule is None`` marks an EDB leaf.  The EDB facts of an internal
    node's rule are its leaf children; IDB subgoals are full subtrees.
    """

    fact: Fact
    rule: Optional[GroundRule]
    children: Tuple["ProofTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.rule is None

    def leaves(self) -> List[Fact]:
        """The fringe: EDB facts at the leaves, with multiplicity."""
        if self.is_leaf:
            return [self.fact]
        out: List[Fact] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    @property
    def fringe_size(self) -> int:
        return len(self.leaves())

    def height(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max((child.height() for child in self.children), default=0)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def monomial(self) -> Monomial:
        """``⊗`` of the leaf variables (Section 2.4)."""
        exponents: dict = {}
        for leaf in self.leaves():
            exponents[leaf] = exponents.get(leaf, 0) + 1
        return Monomial(exponents)

    def is_tight(self) -> bool:
        """No repeated IDB fact on any root-to-leaf path (Section 2.1)."""

        def walk(node: "ProofTree", path: FrozenSet[Fact]) -> bool:
            if node.is_leaf:
                return True
            if node.fact in path:
                return False
            extended = path | {node.fact}
            return all(walk(child, extended) for child in node.children)

        return walk(self, frozenset())

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.is_leaf:
            return f"{pad}{self.fact}  [EDB]"
        lines = [f"{pad}{self.fact}"]
        for leaf in self.rule.edb_body:
            lines.append(f"{pad}  {leaf}  [EDB]")
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ProofTree({self.fact}, height={self.height()}, fringe={self.fringe_size})"


def enumerate_tight_proof_trees(
    ground: ColumnarGroundProgram,
    fact: Fact,
    limit: Optional[int] = None,
) -> Iterator[ProofTree]:
    """Yield every tight proof tree of *fact* (finitely many).

    Tightness is enforced during the search: an IDB fact already on
    the current root-to-node path is never re-derived below itself.
    *limit* caps the number of yielded trees.
    """
    budget = [limit if limit is not None else -1]

    def derive(goal: Fact, path: FrozenSet[Fact]) -> Iterator[ProofTree]:
        if goal in path:
            return
        extended = path | {goal}
        for rule in ground.rules_for(goal):
            yield from expand(rule, 0, extended, ())

    def expand(
        rule: GroundRule,
        position: int,
        path: FrozenSet[Fact],
        chosen: Tuple[ProofTree, ...],
    ) -> Iterator[ProofTree]:
        if position == len(rule.idb_body):
            leaf_children = tuple(ProofTree(f, None) for f in rule.edb_body)
            yield ProofTree(rule.head, rule, chosen + leaf_children)
            return
        subgoal = rule.idb_body[position]
        for subtree in derive(subgoal, path):
            yield from expand(rule, position + 1, path, chosen + (subtree,))

    for tree in derive(fact, frozenset()):
        if budget[0] == 0:
            return
        if budget[0] > 0:
            budget[0] -= 1
        yield tree


def enumerate_proof_trees(
    ground: ColumnarGroundProgram,
    fact: Fact,
    max_height: int,
    limit: Optional[int] = None,
) -> Iterator[ProofTree]:
    """Yield all (not necessarily tight) proof trees up to *max_height*."""
    count = [0]

    def derive(goal: Fact, height_budget: int) -> Iterator[ProofTree]:
        if height_budget <= 0:
            return
        for rule in ground.rules_for(goal):
            yield from expand(rule, 0, height_budget, ())

    def expand(
        rule: GroundRule,
        position: int,
        height_budget: int,
        chosen: Tuple[ProofTree, ...],
    ) -> Iterator[ProofTree]:
        if position == len(rule.idb_body):
            leaf_children = tuple(ProofTree(f, None) for f in rule.edb_body)
            yield ProofTree(rule.head, rule, chosen + leaf_children)
            return
        for subtree in derive(rule.idb_body[position], height_budget - 1):
            yield from expand(rule, position + 1, height_budget, chosen + (subtree,))

    for tree in derive(fact, max_height):
        if limit is not None and count[0] >= limit:
            return
        count[0] += 1
        yield tree


def provenance_by_proof_trees(
    program: Program,
    database: Database,
    fact: Fact,
    idempotent_mul: bool = False,
    ground: Optional[ColumnarGroundProgram] = None,
    limit: Optional[int] = None,
) -> Polynomial:
    """``p_Π^I(α)``: the provenance polynomial via tight-tree enumeration.

    The reference implementation of Section 2.4 -- exact but
    exponential; circuits must agree with it on small inputs.
    """
    if ground is None:
        ground = relevant_grounding(program, database)
    monomials = (
        tree.monomial() for tree in enumerate_tight_proof_trees(ground, fact, limit)
    )
    return Polynomial(monomials, idempotent_mul=idempotent_mul)


def count_tight_proof_trees(ground: ColumnarGroundProgram, fact: Fact, limit: int = 1_000_000) -> int:
    """Number of tight proof trees of *fact* (capped by *limit*)."""
    count = 0
    for _ in enumerate_tight_proof_trees(ground, fact, limit=limit):
        count += 1
    return count


def max_tight_fringe(ground: ColumnarGroundProgram, fact: Fact, limit: Optional[int] = 10_000) -> int:
    """Largest fringe over tight proof trees of *fact* (Definition 6.1
    probe: a program has the polynomial fringe property when this stays
    polynomial in the input size)."""
    best = 0
    for tree in enumerate_tight_proof_trees(ground, fact, limit=limit):
        best = max(best, tree.fringe_size)
    return best
