"""Theorem 3.1: the generic provenance circuit."""


from repro.circuits import canonical_polynomial, evaluate
from repro.constructions import generic_circuit
from repro.datalog import (
    Database,
    Fact,
    dyck1,
    provenance_by_proof_trees,
    reachability,
    same_generation,
    transitive_closure,
    transitive_closure_nonlinear,
)
from repro.semirings import TROPICAL


def check_against_trees(program, db, fact):
    circuit = generic_circuit(program, db, fact)
    assert canonical_polynomial(circuit) == provenance_by_proof_trees(program, db, fact)
    return circuit


def test_tc_on_figure1(figure1_db, figure1_fact, tc_program):
    check_against_trees(tc_program, figure1_db, figure1_fact)


def test_tc_on_cycle():
    db = Database.from_edges([(0, 1), (1, 2), (2, 0), (0, 3)])
    check_against_trees(transitive_closure(), db, Fact("T", (1, 3)))


def test_nonlinear_tc():
    db = Database.from_edges([(0, 1), (1, 2), (2, 3)])
    circuit = check_against_trees(transitive_closure_nonlinear(), db, Fact("D", (0, 3)))
    assert circuit.num_inputs == 3


def test_dyck_provenance():
    edges = [(0, "L", 1), (1, "L", 2), (2, "R", 3), (3, "R", 4), (4, "L", 5), (5, "R", 6)]
    db = Database.from_labeled_edges(edges)
    check_against_trees(dyck1(), db, Fact("S", (0, 6)))


def test_same_generation():
    db = Database()
    for pair in [("a", "b")]:
        db.add("Flat", *pair)
    db.add("Up", "x", "a")
    db.add("Down", "b", "y")
    check_against_trees(same_generation(), db, Fact("SG", ("x", "y")))


def test_monadic_reachability():
    db = Database.from_edges([(0, 1), (1, 2)])
    db.add("A", 2)
    check_against_trees(reachability(), db, Fact("U", (0,)))


def test_underivable_fact_gives_zero_circuit():
    db = Database.from_edges([(0, 1)])
    circuit = generic_circuit(transitive_closure(), db, Fact("T", (1, 0)))
    assert canonical_polynomial(circuit).is_zero()


def test_all_target_facts_as_outputs():
    db = Database.from_edges([(0, 1), (1, 2)])
    circuit = generic_circuit(transitive_closure(), db)
    assert len(circuit.outputs) == 3  # T(0,1), T(0,2), T(1,2)


def test_insufficient_stages_underapproximate():
    db = Database.from_edges([(i, i + 1) for i in range(5)])
    full = generic_circuit(transitive_closure(), db, Fact("T", (0, 5)))
    partial = generic_circuit(transitive_closure(), db, Fact("T", (0, 5)), stages=2)
    assert not canonical_polynomial(full).is_zero()
    assert canonical_polynomial(partial).is_zero()  # needs 5 stages


def test_early_exit_on_acyclic_input():
    # On a short path the symbolic fixpoint is reached long before N
    # stages, so the circuit stays small despite the default stage count.
    db = Database.from_edges([(0, 1), (1, 2)])
    circuit = generic_circuit(transitive_closure(), db, Fact("T", (0, 2)))
    assert circuit.size < 40


def test_tropical_value_matches_the_fixpoint():
    from repro.api import solve
    from repro.workloads import random_digraph, random_weights

    db = random_digraph(8, 16, seed=11)
    weights = random_weights(db, seed=11)
    fact = Fact("T", (0, 7))
    circuit = generic_circuit(transitive_closure(), db, fact)
    direct = solve(transitive_closure(), db, TROPICAL, weights=weights).value(fact)
    assert evaluate(circuit, TROPICAL, weights) == direct


def test_size_polynomial_in_grounding():
    from repro.datalog import relevant_grounding
    from repro.workloads import random_digraph

    db = random_digraph(8, 16, seed=2)
    ground = relevant_grounding(transitive_closure(), db)
    circuit = generic_circuit(transitive_closure(), db, ground=ground)
    n_facts = len(ground.idb_facts)
    assert circuit.size <= 4 * ground.size * n_facts  # O(N · M)
