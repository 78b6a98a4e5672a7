"""Cross-semiring validation: every construction's circuit value equals
naive Datalog evaluation over each absorptive semiring.

This operationalizes the paper's "over any absorptive semiring S"
claims: the circuits compute the provenance polynomial, so evaluating
them under any EDB valuation must reproduce the least fixpoint.
"""

import pytest

from repro.api import solve
from repro.circuits import evaluate
from repro.constructions import (
    bellman_ford_circuit,
    fringe_circuit,
    generic_circuit,
    squaring_circuit,
)
from repro.datalog import Fact, transitive_closure
from repro.semirings import BOOLEAN, FUZZY, LUKASIEWICZ, TROPICAL, VITERBI
from repro.workloads import random_digraph

TC = transitive_closure()

SEMIRING_WEIGHT_POOLS = [
    (TROPICAL, [1.0, 2.0, 3.0, 5.0]),
    (VITERBI, [0.2, 0.5, 0.9, 1.0]),
    (FUZZY, [0.1, 0.4, 0.7, 1.0]),
    (BOOLEAN, [True, True, True, False]),
    (LUKASIEWICZ, [0.6, 0.8, 0.9, 1.0]),
]


def builders():
    yield "generic", lambda db, s, t: generic_circuit(TC, db, Fact("T", (s, t)))
    yield "bellman-ford", bellman_ford_circuit
    yield "squaring", squaring_circuit
    yield "fringe", lambda db, s, t: fringe_circuit(TC, db, Fact("T", (s, t)))


@pytest.mark.parametrize("semiring,pool", SEMIRING_WEIGHT_POOLS, ids=lambda p: getattr(p, "name", ""))
@pytest.mark.parametrize("builder_name,builder", list(builders()), ids=[n for n, _ in builders()])
def test_circuit_value_equals_fixpoint(semiring, pool, builder_name, builder):
    import random

    rng = random.Random(hash(builder_name) % 1000)
    db = random_digraph(6, 11, seed=13)
    weights = {fact: rng.choice(pool) for fact in db.facts()}
    fact = Fact("T", (0, 5))
    expected = solve(TC, db, semiring, weights=weights).value(fact)
    circuit = builder(db, 0, 5)
    got = evaluate(circuit, semiring, weights)
    assert semiring.eq(got, expected), (builder_name, semiring.name, got, expected)


def test_lattice_semiring_cross_check():
    from repro.semirings import SubsetLatticeSemiring

    lattice = SubsetLatticeSemiring("abcd")
    db = random_digraph(5, 9, seed=2)
    import random

    rng = random.Random(0)
    elements = [frozenset("a"), frozenset("ab"), frozenset("cd"), lattice.one]
    weights = {fact: rng.choice(elements) for fact in db.facts()}
    fact = Fact("T", (0, 4))
    expected = solve(TC, db, lattice, weights=weights).value(fact)
    circuit = generic_circuit(TC, db, fact)
    assert evaluate(circuit, lattice, weights) == expected
