"""The automatic construction dispatcher (the paper's decision tree)."""

from repro.circuits import canonical_polynomial
from repro.config import ExecutionConfig
from repro.constructions import provenance_circuit
from repro.datalog import (
    Database,
    Fact,
    bounded_example,
    dyck1,
    provenance_by_proof_trees,
    same_generation,
    transitive_closure,
)
from repro.workloads import random_digraph


def test_bounded_program_routes_to_theorem_43():
    db = Database.from_edges([(0, 1), (1, 2), (2, 3)])
    db.add("A", 0)
    choice = provenance_circuit(bounded_example(), db, Fact("T", (0, 2)))
    assert choice.construction == "bounded"
    assert "4.3" in choice.theorem
    assert canonical_polynomial(choice.circuit) == provenance_by_proof_trees(
        bounded_example(), db, Fact("T", (0, 2))
    )


def test_tc_routes_to_magic_specialization():
    db = random_digraph(6, 12, seed=1)
    fact = Fact("T", (0, 5))
    choice = provenance_circuit(transitive_closure(), db, fact)
    assert choice.construction == "magic-generic"
    assert "5.8" in choice.theorem
    assert canonical_polynomial(choice.circuit) == provenance_by_proof_trees(
        transitive_closure(), db, fact
    )


def test_depth_optimized_routes_to_uvg():
    edges = [(0, "L", 1), (1, "R", 2)]
    db = Database.from_labeled_edges(edges)
    fact = Fact("S", (0, 2))
    choice = provenance_circuit(dyck1(), db, fact, config=ExecutionConfig(optimize_depth=True))
    assert choice.construction == "ullman-van-gelder"
    assert canonical_polynomial(choice.circuit) == provenance_by_proof_trees(
        dyck1(), db, fact
    )


def test_general_program_falls_back_to_generic():
    edges = [(0, "L", 1), (1, "R", 2)]
    db = Database.from_labeled_edges(edges)
    choice = provenance_circuit(dyck1(), db, Fact("S", (0, 2)))
    assert choice.construction == "generic"
    assert "3.1" in choice.theorem


def test_same_generation_depth_optimized():
    db = Database()
    db.add("Flat", "a", "b")
    db.add("Up", "x", "a")
    db.add("Down", "b", "y")
    fact = Fact("SG", ("x", "y"))
    choice = provenance_circuit(same_generation(), db, fact, config=ExecutionConfig(optimize_depth=True))
    assert choice.construction == "ullman-van-gelder"
    assert canonical_polynomial(choice.circuit) == provenance_by_proof_trees(
        same_generation(), db, fact
    )


def test_fact_retargets_program():
    # asking for a non-target IDB fact retargets transparently
    db = random_digraph(5, 8, seed=0)
    program = transitive_closure().with_target("T")
    choice = provenance_circuit(program, db, Fact("T", (0, 4)))
    assert choice.circuit.outputs


def test_choice_repr_mentions_theorem():
    db = Database.from_edges([(0, 1)])
    choice = provenance_circuit(transitive_closure(), db, Fact("T", (0, 1)))
    assert "Theorem" in repr(choice)


def test_construction_choice_serving_api():
    """The choice exposes the compiled runtime: batch, bitset and
    incremental evaluation all share one CompiledCircuit."""
    from repro.circuits import reference_evaluate_all, reference_evaluate_boolean
    from repro.semirings import TROPICAL

    db = random_digraph(6, 12, seed=1)
    fact = Fact("T", (0, 5))
    choice = provenance_circuit(transitive_closure(), db, fact)
    circuit = choice.circuit
    assert choice.compiled() is choice.compiled()  # cached

    weights = {f: 1.0 for f in db.facts()}
    out = circuit.outputs[0]
    expected = reference_evaluate_all(circuit, TROPICAL, weights)[out]
    compiled = choice.compiled()
    assert compiled.evaluate(TROPICAL, weights) == expected
    assert compiled.evaluate_batch(TROPICAL, [weights, weights]) == [expected, expected]

    batches = [[f for i, f in enumerate(sorted(db.facts(), key=repr)) if i % 2 == parity]
               for parity in (0, 1)]
    assert compiled.evaluate_boolean_batch(batches) == [
        reference_evaluate_boolean(circuit, trues) for trues in batches
    ]

    served = choice.serve(TROPICAL, weights)
    assert served.value() == expected
    some_fact = sorted(db.facts(), key=repr)[0]
    updated = dict(weights)
    updated[some_fact] = 7.0
    assert served.update({some_fact: 7.0}) == [
        reference_evaluate_all(circuit, TROPICAL, updated)[out]
    ]
