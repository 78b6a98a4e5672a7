"""Magic-set specialization (the Theorem 5.8 rewriting)."""

import pytest

from repro.circuits import canonical_polynomial
from repro.constructions import generic_circuit
from repro.datalog import (
    Atom,
    DatalogError,
    Fact,
    FixpointEngine,
    Program,
    Rule,
    Variable,
    dyck1,
    magic_specialize,
    magic_specialize_sink,
    provenance_by_proof_trees,
    relevant_grounding,
    specialized_fact,
    transitive_closure,
)
from repro.semirings import BOOLEAN, TROPICAL
from repro.workloads import random_digraph, random_weights

TC = transitive_closure()
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def right_linear_tc() -> Program:
    return Program(
        [
            Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
            Rule(Atom("T", (X, Y)), [Atom("E", (X, Z)), Atom("T", (Z, Y))]),
        ]
    )


def test_specialized_program_is_monadic():
    specialized = magic_specialize(TC, 0)
    assert specialized.is_monadic()
    assert specialized.is_linear()
    assert specialized.target == "T@0"


def test_specialization_preserves_boolean_answers():
    db = random_digraph(7, 14, seed=6)
    specialized = magic_specialize(TC, 0)
    original = FixpointEngine().evaluate(TC, db, BOOLEAN)
    magic = FixpointEngine().evaluate(specialized, db, BOOLEAN)
    for fact, value in original.values.items():
        if fact.args[0] == 0:
            assert magic.value(Fact("T@0", (fact.args[1],))) == value


def test_specialization_preserves_provenance():
    db = random_digraph(6, 11, seed=9)
    specialized = magic_specialize(TC, 0)
    target = specialized_fact(TC, 0, 5)
    assert provenance_by_proof_trees(specialized, db, target) == (
        provenance_by_proof_trees(TC, db, Fact("T", (0, 5)))
    )


def test_specialization_preserves_tropical_values():
    db = random_digraph(7, 15, seed=2)
    weights = random_weights(db, seed=2)
    specialized = magic_specialize(TC, 0)
    original = FixpointEngine().evaluate(TC, db, TROPICAL, weights=weights)
    magic = FixpointEngine().evaluate(specialized, db, TROPICAL, weights=weights)
    for fact, value in original.values.items():
        if fact.args[0] == 0:
            assert magic.value(Fact("T@0", (fact.args[1],))) == value


def test_grounding_shrinks_from_quadratic_to_linear():
    # The point of the rewriting: O(n²) IDB facts become O(n).
    db = random_digraph(10, 25, seed=4)
    full = relevant_grounding(TC, db)
    magic = relevant_grounding(magic_specialize(TC, 0), db)
    assert len(magic.idb_facts) < len(full.idb_facts)
    assert len(magic) < len(full)


def test_specialized_circuit_matches_reference():
    db = random_digraph(6, 12, seed=0)
    specialized = magic_specialize(TC, 0)
    circuit = generic_circuit(specialized, db, specialized_fact(TC, 0, 5))
    assert canonical_polynomial(circuit) == provenance_by_proof_trees(
        TC, db, Fact("T", (0, 5))
    )


def test_sink_specialization_for_right_linear():
    program = right_linear_tc()
    db = random_digraph(6, 12, seed=3)
    specialized = magic_specialize_sink(program, 5)
    assert specialized.is_monadic()
    original = FixpointEngine().evaluate(program, db, BOOLEAN)
    magic = FixpointEngine().evaluate(specialized, db, BOOLEAN)
    for fact, value in original.values.items():
        if fact.args[1] == 5:
            assert magic.value(Fact("T@5", (fact.args[0],))) == value


def test_left_linearity_required():
    with pytest.raises(DatalogError):
        magic_specialize(right_linear_tc(), 0)
    with pytest.raises(DatalogError):
        magic_specialize(dyck1(), 0)
    with pytest.raises(DatalogError):
        magic_specialize_sink(TC, 0)
