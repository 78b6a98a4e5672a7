"""Proof trees, tightness (Prop 2.4) and tree-based provenance."""

from repro.datalog import (
    Database,
    Fact,
    count_tight_proof_trees,
    dyck1,
    enumerate_proof_trees,
    enumerate_tight_proof_trees,
    max_tight_fringe,
    provenance_by_proof_trees,
    relevant_grounding,
    transitive_closure,
)
from repro.semirings import Polynomial, TROPICAL


def tc_ground(db):
    return relevant_grounding(transitive_closure(), db)


def test_path_has_single_tight_tree():
    db = Database.from_edges([(0, 1), (1, 2), (2, 3)])
    ground = tc_ground(db)
    trees = list(enumerate_tight_proof_trees(ground, Fact("T", (0, 3))))
    assert len(trees) == 1
    tree = trees[0]
    assert sorted(map(repr, tree.leaves())) == ["E(0,1)", "E(1,2)", "E(2,3)"]
    assert tree.is_tight()
    assert tree.fringe_size == 3
    assert tree.height() == 3


def test_diamond_has_two_tight_trees():
    db = Database.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    ground = tc_ground(db)
    trees = list(enumerate_tight_proof_trees(ground, Fact("T", (0, 3))))
    assert len(trees) == 2


def test_cycle_trees_are_finite_and_tight():
    db = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    ground = tc_ground(db)
    trees = list(enumerate_tight_proof_trees(ground, Fact("T", (0, 2))))
    assert all(t.is_tight() for t in trees)
    # 0→2 directly, or 0→1→0→2 would repeat T(0,2)? No: tight trees for
    # T(0,2): direct edge, and via T(0,1),T(0,0)... enumerate and check
    # every monomial corresponds to a walk ending at 2.
    assert len(trees) >= 1
    for tree in trees:
        leaves = tree.leaves()
        assert leaves[-1].predicate == "E"


def test_non_tight_trees_exist_beyond_tight_ones():
    db = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    ground = tc_ground(db)
    tight = list(enumerate_tight_proof_trees(ground, Fact("T", (0, 2))))
    all_trees = list(enumerate_proof_trees(ground, Fact("T", (0, 2)), max_height=8))
    assert len(all_trees) > len(tight)
    assert any(not t.is_tight() for t in all_trees)


def test_absorption_makes_tight_trees_sufficient():
    # Prop 2.4: summing monomials over ALL trees (up to a height) equals
    # summing over tight trees only, over an absorptive semiring.
    db = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    ground = tc_ground(db)
    fact = Fact("T", (0, 2))
    tight_poly = Polynomial(
        t.monomial() for t in enumerate_tight_proof_trees(ground, fact)
    )
    deep_poly = Polynomial(
        t.monomial() for t in enumerate_proof_trees(ground, fact, max_height=8)
    )
    assert tight_poly == deep_poly


def test_figure1_has_three_tight_trees(figure1_db, figure1_fact, tc_program):
    ground = relevant_grounding(tc_program, figure1_db)
    assert count_tight_proof_trees(ground, figure1_fact) == 3


def test_proof_trees_read_any_grounding(figure1_db, figure1_fact, tc_program):
    """A session's cached grounding and the naive engine's grounding
    enumerate the same trees as the default one."""
    from repro.api import Session
    from tests.oracle import NAIVE_ENGINE

    session_ground = Session(tc_program, figure1_db).ground()
    naive_ground = relevant_grounding(tc_program, figure1_db, config=NAIVE_ENGINE)
    assert count_tight_proof_trees(session_ground, figure1_fact) == 3
    assert count_tight_proof_trees(naive_ground, figure1_fact) == 3
    assert count_tight_proof_trees(session_ground, Fact("T", ("missing", 0))) == 0


def test_provenance_polynomial_matches_the_fixpoint():
    from repro.datalog import FixpointEngine
    from repro.workloads import random_digraph, random_weights

    db = random_digraph(7, 12, seed=5)
    weights = random_weights(db, seed=5)
    fact = Fact("T", (0, 6))
    poly = provenance_by_proof_trees(transitive_closure(), db, fact)
    direct = FixpointEngine().evaluate(transitive_closure(), db, TROPICAL, weights=weights).value(fact)
    assert poly.evaluate(TROPICAL, weights) == direct


def test_dyck_proof_trees_are_nonlinear():
    edges = [(0, "L", 1), (1, "R", 2), (2, "L", 3), (3, "R", 4)]
    db = Database.from_labeled_edges(edges)
    ground = relevant_grounding(dyck1(), db)
    trees = list(enumerate_tight_proof_trees(ground, Fact("S", (0, 4))))
    assert len(trees) == 1  # concatenation rule: S(0,2) S(2,4)
    tree = trees[0]
    assert tree.fringe_size == 4
    assert len(tree.rule.idb_body) == 2  # the non-linear rule


def test_monomial_has_multiplicities():
    # S(0,1) :- L(0,1) ∧ S(1,1) ∧ R(1,1) with S(1,1) :- L(1,1) ∧ R(1,1):
    # a tight tree using R(1,1) twice, so its monomial has exponent 2.
    db = Database.from_labeled_edges([(0, "L", 1), (1, "L", 1), (1, "R", 1)])
    ground = relevant_grounding(dyck1(), db)
    trees = list(enumerate_tight_proof_trees(ground, Fact("S", (0, 1))))
    assert trees
    exponents = [max(e for _v, e in t.monomial().items) for t in trees]
    assert max(exponents) >= 2


def test_max_tight_fringe_probe():
    db = Database.from_edges([(i, i + 1) for i in range(5)])
    ground = tc_ground(db)
    assert max_tight_fringe(ground, Fact("T", (0, 5))) == 5


def test_tree_limit_respected():
    db = Database.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    ground = tc_ground(db)
    limited = list(enumerate_tight_proof_trees(ground, Fact("T", (0, 4)), limit=1))
    assert len(limited) == 1


def test_pretty_rendering():
    db = Database.from_edges([(0, 1), (1, 2)])
    ground = tc_ground(db)
    tree = next(enumerate_tight_proof_trees(ground, Fact("T", (0, 2))))
    text = tree.pretty()
    assert "T(0,2)" in text and "[EDB]" in text
