"""Theorem 6.8 machinery: monadic segments, witnesses, instances."""

import pytest

from repro.api import solve
from repro.circuits import canonical_polynomial
from repro.constructions import generic_circuit
from repro.datalog import DatalogError, Fact, reachability, transitive_closure
from repro.reductions import (
    find_monadic_witness,
    monadic_reduction_instance,
    transfer_monadic_circuit_to_tc,
    unfold_segment,
)
from repro.semirings import BOOLEAN
from repro.workloads import layered_graph

U = reachability()


def test_unfold_single_recursive_rule():
    segment = unfold_segment(U, (1,))
    assert segment.goal_predicate == "U"
    assert segment.exit is not None
    assert segment.entry != segment.exit
    assert [a.predicate for a in segment.atoms] == ["E"]


def test_unfold_closing_word():
    segment = unfold_segment(U, (1, 1, 0))
    assert segment.exit is None
    predicates = sorted(a.predicate for a in segment.atoms)
    assert predicates == ["A", "E", "E"]


def test_unfold_rejects_non_monadic():
    with pytest.raises(DatalogError):
        unfold_segment(transitive_closure(), (1,))


def test_unfold_rejects_word_past_init():
    with pytest.raises(DatalogError):
        unfold_segment(U, (0, 1))


def test_find_witness_for_reachability():
    witness = find_monadic_witness(U)
    assert witness is not None
    assert witness.y_word  # nonempty pump
    assert witness.zu_word[-1] == 0  # ends with the init rule


def test_no_witness_for_non_monadic():
    assert find_monadic_witness(transitive_closure()) is None


def test_instance_positive_and_negative():
    witness = find_monadic_witness(U)
    # connected 2-hop graph
    instance = monadic_reduction_instance(U, witness, [("s", "m"), ("m", "t")], "s", "t")
    assert solve(U, instance.database, BOOLEAN).value(instance.query)
    # broken middle edge
    broken = monadic_reduction_instance(U, witness, [("s", "m"), ("x", "t")], "s", "t")
    assert not solve(U, broken.database, BOOLEAN).value(broken.query)


@pytest.mark.parametrize("seed", range(3))
def test_instance_matches_reachability_on_layered_graphs(seed):
    witness = find_monadic_witness(U)
    graph = layered_graph(2, 2, seed=seed)
    instance = monadic_reduction_instance(
        U, witness, graph.edges, graph.source, graph.sink
    )
    derived = solve(U, instance.database, BOOLEAN).value(instance.query)
    assert derived  # generator guarantees s–t connectivity


def test_circuit_transfer():
    witness = find_monadic_witness(U)
    edges = [("s", "m"), ("m", "t"), ("s", "x")]
    instance = monadic_reduction_instance(U, witness, edges, "s", "t")
    circuit = generic_circuit(U, instance.database, instance.query)
    tc_circuit = transfer_monadic_circuit_to_tc(instance, circuit)
    assert tc_circuit.depth <= circuit.depth
    poly = canonical_polynomial(tc_circuit)
    # the only s→t path uses E(s,m) and E(m,t)
    assert len(poly) == 1
    monomial = next(iter(poly.monomials))
    assert monomial.support == {Fact("E", ("s", "m")), Fact("E", ("m", "t"))}


def test_wire_map_tags_one_fact_per_edge():
    witness = find_monadic_witness(U)
    edges = [("s", "m"), ("m", "t")]
    instance = monadic_reduction_instance(U, witness, edges, "s", "t")
    origins = [o for o in instance.wire_map.values() if o is not None]
    assert sorted(o.args for o in origins) == [("m", "t"), ("s", "m")]
