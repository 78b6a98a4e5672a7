"""Theorem 5.9: TC ⟷ infinite RPQ, both directions, as circuit
reductions."""

import pytest

from repro.api import solve
from repro.circuits import canonical_polynomial, evaluate
from repro.constructions import bellman_ford_circuit, squaring_circuit
from repro.datalog import Database, Fact, provenance_by_proof_trees, transitive_closure
from repro.grammars import parse_regex, rpq_pairs, solve_rpq
from repro.reductions import (
    rpq_circuit_via_tc,
    tc_to_rpq_instance,
    transfer_rpq_circuit_to_tc,
)
from repro.semirings import BOOLEAN, TROPICAL
from repro.workloads import random_digraph

TC = transitive_closure()


def test_instance_construction_shape():
    dfa = parse_regex("(ab)+").to_dfa()
    edges = [(0, 1), (1, 2)]
    instance = tc_to_rpq_instance(edges, 0, 2, dfa)
    # |x| prefix edges + 2·|y| expansion edges + |z| suffix edges
    w = instance.witness
    assert instance.size == len(w.x) + 2 * len(w.y) + len(w.z)
    # wire map: first edge of each expansion carries the origin
    origins = [o for o in instance.wire_map.values() if o is not None]
    assert sorted(o.args for o in origins) == [(0, 1), (1, 2)]


def test_instance_requires_infinite_language():
    dfa = parse_regex("ab").to_dfa()
    with pytest.raises(ValueError):
        tc_to_rpq_instance([(0, 1)], 0, 1, dfa)


@pytest.mark.parametrize("pattern", ["a+", "(ab)+", "a(ba)*"])
@pytest.mark.parametrize("seed", range(3))
def test_instance_level_equivalence(pattern, seed):
    """RPQ fact on the constructed instance ⟺ TC fact on the input."""
    dfa = parse_regex(pattern).to_dfa()
    db = random_digraph(5, 8, seed=seed)
    edges = sorted(db.tuples("E"))
    reachable_pairs = {
        f.args
        for f, v in solve(TC, db, BOOLEAN).values.items()
        if v
    }
    for source, sink in [(0, 4), (4, 0), (1, 3)]:
        instance = tc_to_rpq_instance(edges, source, sink, dfa)
        answered = (instance.source, instance.sink) in rpq_pairs(
            instance.labeled_edges, dfa
        )
        assert answered == ((source, sink) in reachable_pairs), (pattern, seed, source, sink)


@pytest.mark.parametrize("tc_builder", [bellman_ford_circuit, squaring_circuit], ids=["bf", "sq"])
def test_circuit_transfer_preserves_provenance(tc_builder):
    dfa = parse_regex("(ab)+").to_dfa()
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    instance = tc_to_rpq_instance(edges, 0, 3, dfa)
    rpq_circuit = rpq_circuit_via_tc(
        instance.labeled_edges, dfa, instance.source, instance.sink, tc_builder=tc_builder
    )
    tc_circuit = transfer_rpq_circuit_to_tc(instance, rpq_circuit)
    reference = provenance_by_proof_trees(
        TC, Database.from_edges(edges), Fact("T", (0, 3))
    )
    assert canonical_polynomial(tc_circuit) == reference


def test_transfer_preserves_depth():
    dfa = parse_regex("a+").to_dfa()
    edges = [(0, 1), (1, 2), (2, 3)]
    instance = tc_to_rpq_instance(edges, 0, 3, dfa)
    rpq_circuit = rpq_circuit_via_tc(instance.labeled_edges, dfa, instance.source, instance.sink)
    tc_circuit = transfer_rpq_circuit_to_tc(instance, rpq_circuit)
    assert tc_circuit.depth <= rpq_circuit.depth


# -- the converse reduction ------------------------------------------------


@pytest.mark.parametrize("pattern", ["ab*", "(ab)+", "a(b|c)*"])
def test_rpq_via_tc_matches_product_evaluation(pattern):
    import random

    dfa = parse_regex(pattern).to_dfa()
    rng = random.Random(1)
    edges = []
    for _ in range(10):
        u, v = rng.sample(range(5), 2)
        edges.append((u, rng.choice("abc"), v))
    edges = list(dict.fromkeys(edges))
    weights = {Fact(a, (u, v)): float(rng.randint(1, 9)) for u, a, v in edges}
    expected = solve_rpq(edges, dfa, TROPICAL, weights=weights)
    for (source, sink), value in expected.items():
        if source == sink:
            continue
        circuit = rpq_circuit_via_tc(edges, dfa, source, sink)
        assert evaluate(circuit, TROPICAL, weights) == value, (pattern, source, sink)


def test_rpq_via_tc_unanswerable_pair_is_zero():
    dfa = parse_regex("ab").to_dfa()
    edges = [(0, "a", 1)]
    circuit = rpq_circuit_via_tc(edges, dfa, 0, 1)
    assert canonical_polynomial(circuit).is_zero()
