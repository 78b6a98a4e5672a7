"""Hypothesis properties of the Datalog engine on random graphs."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    FixpointEngine,
    derivable_facts,
    enumerate_tight_proof_trees,
    provenance_by_proof_trees,
    relevant_grounding,
    transitive_closure,
)
from repro.semirings import BOOLEAN, TROPICAL

TC = transitive_closure()


def random_edge_db(seed: int, n: int, m: int) -> Database:
    rng = random.Random(seed)
    db = Database()
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("E", u, v)
    return db


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=40, deadline=None)
def test_grounding_heads_equal_derivable_facts(seed, n, m):
    db = random_edge_db(seed, n, m)
    ground = relevant_grounding(TC, db)
    derived, _ = derivable_facts(TC, db)
    assert ground.idb_facts == derived


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 9))
@settings(max_examples=30, deadline=None)
def test_tight_trees_evaluate_to_fixpoint(seed, n, m):
    db = random_edge_db(seed, n, m)
    rng = random.Random(seed)
    weights = {fact: float(rng.randint(1, 5)) for fact in db.facts()}
    result = FixpointEngine().evaluate(TC, db, TROPICAL, weights=weights)
    ground = relevant_grounding(TC, db)
    for fact in list(ground.idb_facts)[:4]:
        poly = provenance_by_proof_trees(TC, db, fact, ground=ground)
        assert poly.evaluate(TROPICAL, weights) == result.value(fact)


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=30, deadline=None)
def test_tight_trees_are_tight_and_grounded(seed, n, m):
    db = random_edge_db(seed, n, m)
    ground = relevant_grounding(TC, db)
    for fact in list(ground.idb_facts)[:3]:
        for tree in enumerate_tight_proof_trees(ground, fact, limit=20):
            assert tree.is_tight()
            assert tree.fact == fact
            for leaf in tree.leaves():
                assert leaf in db


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=30, deadline=None)
def test_boolean_evaluation_equals_derivability(seed, n, m):
    db = random_edge_db(seed, n, m)
    derived, _ = derivable_facts(TC, db)
    result = FixpointEngine().evaluate(TC, db, BOOLEAN)
    positives = {fact for fact, value in result.values.items() if value}
    assert positives == derived


@given(seed=st.integers(0, 5000), n=st.integers(3, 5), m=st.integers(3, 8))
@settings(max_examples=20, deadline=None)
def test_monotonicity_under_edge_insertion(seed, n, m):
    # Datalog over a positive semiring is monotone: adding a fact can
    # only (weakly) increase the derivable set.
    db = random_edge_db(seed, n, m)
    before, _ = derivable_facts(TC, db)
    db.add("E", 0, n - 1)
    after, _ = derivable_facts(TC, db)
    assert before <= after
