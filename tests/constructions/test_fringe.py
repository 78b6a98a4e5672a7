"""Theorem 6.2: the Ullman–Van Gelder polynomial-fringe circuit."""

import math

import pytest

from repro.circuits import canonical_polynomial, evaluate
from repro.constructions import default_stage_count, fringe_circuit
from repro.datalog import (
    Database,
    Fact,
    dyck1,
    provenance_by_proof_trees,
    reachability,
    relevant_grounding,
    same_generation,
    transitive_closure,
)
from repro.semirings import TROPICAL
from repro.workloads import dyck_nested_path, random_digraph, random_weights

TC = transitive_closure()


def test_tc_on_figure1(figure1_db, figure1_fact):
    circuit = fringe_circuit(TC, figure1_db, figure1_fact)
    assert canonical_polynomial(circuit) == provenance_by_proof_trees(
        TC, figure1_db, figure1_fact
    )


@pytest.mark.parametrize("seed", range(3))
def test_tc_random_graphs(seed):
    db = random_digraph(5, 9, seed=seed)
    fact = Fact("T", (0, 4))
    circuit = fringe_circuit(TC, db, fact)
    assert canonical_polynomial(circuit) == provenance_by_proof_trees(TC, db, fact)


def test_tc_with_cycles():
    db = Database.from_edges([(0, 1), (1, 0), (1, 2)])
    fact = Fact("T", (0, 2))
    circuit = fringe_circuit(TC, db, fact)
    assert canonical_polynomial(circuit) == provenance_by_proof_trees(TC, db, fact)


def test_dyck_nonlinear_program():
    # Example 6.4: Dyck-1 has the polynomial fringe property despite
    # being non-linear.
    edges = dyck_nested_path(3)
    db = Database.from_labeled_edges(edges)
    fact = Fact("S", (0, 6))
    circuit = fringe_circuit(dyck1(), db, fact)
    assert canonical_polynomial(circuit) == provenance_by_proof_trees(dyck1(), db, fact)


def test_monadic_linear_program():
    db = Database.from_edges([(0, 1), (1, 2), (2, 3)])
    db.add("A", 3)
    fact = Fact("U", (0,))
    circuit = fringe_circuit(reachability(), db, fact)
    assert canonical_polynomial(circuit) == provenance_by_proof_trees(
        reachability(), db, fact
    )


def test_same_generation_linear():
    db = Database()
    db.add("Flat", "a", "b")
    db.add("Up", "x", "a")
    db.add("Down", "b", "y")
    db.add("Up", "w", "x")
    db.add("Down", "y", "z")
    fact = Fact("SG", ("w", "z"))
    circuit = fringe_circuit(same_generation(), db, fact)
    assert canonical_polynomial(circuit) == provenance_by_proof_trees(
        same_generation(), db, fact
    )


def test_stage_count_is_logarithmic():
    db = random_digraph(6, 12, seed=0)
    ground = relevant_grounding(TC, db)
    stages = default_stage_count(ground)
    assert stages <= math.ceil(math.log(ground.size, 4 / 3)) + 1


def test_too_few_stages_underapproximate():
    db = Database.from_edges([(i, i + 1) for i in range(8)])
    fact = Fact("T", (0, 8))
    partial = fringe_circuit(TC, db, fact, stages=1)
    full = fringe_circuit(TC, db, fact)
    assert canonical_polynomial(partial) != canonical_polynomial(full)


def test_depth_polylog_on_paths():
    # Depth O(log² m): ratio test across doubling sizes.
    depths = []
    for n in (4, 8, 16):
        db = Database.from_edges([(i, i + 1) for i in range(n)])
        circuit = fringe_circuit(TC, db, Fact("T", (0, n)))
        depths.append((n, circuit.depth))
    (n0, d0), (_n1, _d1), (n2, d2) = depths
    bound = d0 * (math.log(n2) / math.log(n0)) ** 2 * 2 + 16
    assert d2 <= bound, depths


def test_tropical_value_matches_the_fixpoint():
    from repro.api import solve

    db = random_digraph(6, 10, seed=4)
    weights = random_weights(db, seed=4)
    fact = Fact("T", (0, 5))
    circuit = fringe_circuit(TC, db, fact)
    direct = solve(TC, db, TROPICAL, weights=weights).value(fact)
    assert evaluate(circuit, TROPICAL, weights) == direct


def test_all_targets_outputs():
    db = Database.from_edges([(0, 1), (1, 2)])
    circuit = fringe_circuit(TC, db)
    assert len(circuit.outputs) == 3
