"""Context-free reachability over semirings (Definition 5.1).

Given an edge-labeled graph and a CFG ``L``, CFL-reachability asks for
all pairs ``(s, t)`` connected by a path whose label word lies in
``L``.  Over a semiring it returns, per pair, the provenance value --
the ``⊕``-sum over such paths of the ``⊗``-product of edge tags.

The solver reuses the Datalog engine: the (binarized) grammar becomes
a chain program (Proposition 5.2) which is handed to the
:class:`~repro.datalog.seminaive.FixpointEngine` (the columnar fast
path by default; pass ``config=ExecutionConfig(strategy="naive")`` to
force the reference loop).  This
keeps a single trusted fixpoint engine for Datalog, RPQs and
CFL-reachability alike.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

from ..config import ConfigLike
from ..datalog.ast import Fact, Program
from ..datalog.database import Database
from ..datalog.seminaive import FixpointEngine
from ..semirings.base import Semiring
from .cfg import CFG
from .chain import cfg_to_chain_program

__all__ = ["cfl_reachability", "cfl_reachable_pairs", "chain_program_for"]

Vertex = Hashable
Edge = Tuple[Vertex, str, Vertex]


def chain_program_for(grammar: CFG) -> Program:
    """The chain Datalog program of the binarized grammar."""
    return cfg_to_chain_program(grammar.binarized())


def cfl_reachability(
    grammar: CFG,
    edges: Iterable[Edge] | Database,
    semiring: Semiring,
    weights: Optional[Mapping[Fact, object]] = None,
    max_iterations: Optional[int] = None,
    config: ConfigLike = None,
) -> Dict[Tuple[Vertex, Vertex], object]:
    """Solve weighted CFL-reachability.

    *edges* is an iterable of ``(u, label, v)`` triples (labels must
    be the grammar's terminals) or a pre-built labeled
    :class:`Database`.  Returns ``(s, t) → value`` for every pair
    whose value is nonzero, where the value is the semiring provenance
    of the start nonterminal.

    ε ∈ L(grammar) would demand ``(v, v)`` pairs with value ``1`` for
    every vertex; the chain encoding cannot express it, so it is
    reported by raising ``ValueError`` (callers of the paper's
    constructions never need ε).
    """
    if () in {p.rhs for p in grammar.productions} and grammar.start in grammar.nullable_nonterminals():
        raise ValueError("ε ∈ L(grammar); CFL-reachability over chain rules excludes ε")
    database = edges if isinstance(edges, Database) else Database.from_labeled_edges(edges)
    program = chain_program_for(grammar)
    result = FixpointEngine(config=config).evaluate(
        program,
        database,
        semiring,
        weights=weights,
        max_iterations=max_iterations,
    )
    output: Dict[Tuple[Vertex, Vertex], object] = {}
    for fact, value in result.values.items():
        if fact.predicate == program.target and not semiring.is_zero(value):
            output[(fact.args[0], fact.args[1])] = value
    return output


def cfl_reachable_pairs(
    grammar: CFG, edges: Iterable[Edge] | Database
) -> frozenset:
    """Boolean CFL-reachability: the set of connected pairs."""
    from ..semirings.numeric import BOOLEAN

    return frozenset(cfl_reachability(grammar, edges, BOOLEAN))
