"""Full vs relevant grounding; derivability."""

import pytest

from repro.datalog import (
    Database,
    DatalogError,
    Fact,
    derivable_facts,
    dyck1,
    full_grounding,
    relevant_grounding,
    transitive_closure,
)


def small_db():
    return Database.from_edges([(0, 1), (1, 2)])


def test_derivable_facts_tc():
    derived, iterations = derivable_facts(transitive_closure(), small_db())
    assert derived == {
        Fact("T", (0, 1)),
        Fact("T", (1, 2)),
        Fact("T", (0, 2)),
    }
    assert iterations >= 2


def test_relevant_grounding_heads_are_derivable():
    ground = relevant_grounding(transitive_closure(), small_db())
    derived, _ = derivable_facts(transitive_closure(), small_db())
    assert ground.idb_facts == derived


def test_derivable_facts_reads_a_naive_grounding():
    from tests.oracle import NAIVE_ENGINE

    program, db = transitive_closure(), small_db()
    ground = relevant_grounding(program, db, config=NAIVE_ENGINE)
    assert derivable_facts(program, db, ground=ground) == derivable_facts(program, db)


def test_relevant_grounding_rule_shapes():
    ground = relevant_grounding(transitive_closure(), small_db())
    rules_for_02 = ground.rules_for(Fact("T", (0, 2)))
    assert len(rules_for_02) == 1
    rule = rules_for_02[0]
    assert rule.idb_body == (Fact("T", (0, 1)),)
    assert rule.edb_body == (Fact("E", (1, 2)),)
    assert rule.rule_index == 1


def test_full_grounding_contains_relevant_rules():
    program = transitive_closure()
    db = small_db()
    full = full_grounding(program, db)
    relevant = relevant_grounding(program, db)
    assert relevant.rule_keys() <= full.rule_keys()


def test_full_grounding_keeps_underivable_idb_bodies():
    # Full grounding keeps rules with underivable IDB body facts (their
    # value is 0); relevant grounding drops them.
    program = transitive_closure()
    db = small_db()
    full = full_grounding(program, db)
    relevant = relevant_grounding(program, db)
    assert len(full) > len(relevant)


def test_full_grounding_explosion_guard():
    program = transitive_closure()
    db = Database.from_edges([(i, i + 1) for i in range(60)])
    with pytest.raises(DatalogError):
        full_grounding(program, db, max_instantiations=1000)


def test_grounding_size_metric():
    ground = relevant_grounding(transitive_closure(), small_db())
    rules = [ground.rule(position) for position in range(len(ground))]
    assert ground.size == sum(1 + len(r.body) for r in rules)
    assert len(ground) == len(ground.rule_keys())


def test_target_facts():
    ground = relevant_grounding(transitive_closure(), small_db())
    assert sorted(map(ground.decode_fact, ground.target_fact_ids()), key=repr) == [
        Fact("T", (0, 1)),
        Fact("T", (0, 2)),
        Fact("T", (1, 2)),
    ]


def test_max_body_idbs():
    db = Database.from_labeled_edges([(0, "L", 1), (1, "R", 2)])
    ground = relevant_grounding(dyck1(), db)
    assert ground.max_body_idbs() <= 2


def test_nonlinear_grounding_dyck():
    edges = [(0, "L", 1), (1, "L", 2), (2, "R", 3), (3, "R", 4)]
    db = Database.from_labeled_edges(edges)
    ground = relevant_grounding(dyck1(), db)
    assert Fact("S", (1, 3)) in ground.idb_facts
    assert Fact("S", (0, 4)) in ground.idb_facts
    # the nested derivation uses rule 1 (L S R)
    rules = ground.rules_for(Fact("S", (0, 4)))
    assert any(r.rule_index == 1 for r in rules)


def test_grounding_with_constants_in_program():
    from repro.datalog import parse_program

    program = parse_program("Hit(X) :- E(X, 2).")
    db = Database.from_edges([(0, 1), (1, 2), (3, 2)])
    ground = relevant_grounding(program, db)
    assert ground.idb_facts == {Fact("Hit", (1,)), Fact("Hit", (3,))}


def test_body_constant_produced_only_by_a_later_head():
    """A body constant that occurs in no EDB fact but in a later
    rule's head must still match the derived rows: every head interns
    its constants before any body is compiled."""
    from repro.datalog import SymbolTable, parse_program
    from tests.oracle import ORACLE

    program = parse_program("P(X) :- Q(X, tag). Q(X, tag) :- E(X).")
    db = Database()
    db.add("E", 1)
    db.columnar_store(SymbolTable())  # "tag" is unseen in this scope
    ground = relevant_grounding(program, db)
    assert ground.idb_facts == {Fact("P", (1,)), Fact("Q", (1, "tag"))}
    assert ground.rule_keys() == relevant_grounding(program, db, config=ORACLE).rule_keys()


def test_empty_database_grounding():
    ground = relevant_grounding(transitive_closure(), Database())
    assert len(ground) == 0
    assert ground.idb_facts == frozenset()
