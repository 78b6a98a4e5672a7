"""Circuit JSON round-trip and DOT export."""

import json

import pytest

from repro.circuits import (
    CircuitBuilder,
    canonical_polynomial,
    compile_circuit,
    from_json,
    to_dot,
    to_json,
)
from repro.semirings import BOOLEAN, TROPICAL


def build():
    b = CircuitBuilder()
    x, y = b.var("x"), b.var("y")
    out = b.add(b.mul(x, y), b.const1())
    return b.build(out)


def test_json_roundtrip_exact():
    circuit = build()
    restored = from_json(to_json(circuit))
    assert restored.ops == circuit.ops
    assert restored.lhs == circuit.lhs
    assert restored.rhs == circuit.rhs
    assert restored.labels == circuit.labels
    assert restored.outputs == circuit.outputs
    assert canonical_polynomial(restored) == canonical_polynomial(circuit)


def test_json_is_valid_json_with_header():
    payload = json.loads(to_json(build()))
    assert payload["format"] == "repro-circuit"
    assert payload["version"] == 1


def test_json_non_native_labels_stringified():
    from repro.datalog import Fact

    b = CircuitBuilder()
    out = b.var(Fact("E", (0, 1)))
    restored = from_json(to_json(b.build(out)))
    assert restored.labels[0] == "E(0,1)"  # documented lossy corner


def test_from_json_rejects_foreign_documents():
    with pytest.raises(ValueError):
        from_json('{"format": "something-else"}')
    with pytest.raises(ValueError):
        from_json('{"format": "repro-circuit", "version": 99}')


def build_datalog_circuit():
    """A Theorem 3.1 circuit with string-labeled inputs, so labels
    survive JSON exactly and the compiled runtime can bind them."""
    from repro.constructions import generic_circuit
    from repro.datalog import transitive_closure
    from repro.workloads import random_digraph

    db = random_digraph(8, 20, seed=4)
    circuit = generic_circuit(transitive_closure(), db)
    weights = {repr(fact): float(1 + (i % 5)) for i, fact in enumerate(db.facts())}
    relabeled = CircuitBuilder(share=True)
    # Rebuild with repr labels: Fact labels round-trip as strings
    # (documented lossy corner), so string labels make the round-trip
    # exact for this test.
    from repro.circuits.circuit import OP_ADD, OP_CONST0, OP_CONST1, OP_VAR

    node_map = {}
    for i, op in enumerate(circuit.ops):
        if op == OP_VAR:
            node_map[i] = relabeled.var(repr(circuit.labels[i]))
        elif op == OP_CONST0:
            node_map[i] = relabeled.const0()
        elif op == OP_CONST1:
            node_map[i] = relabeled.const1()
        elif op == OP_ADD:
            node_map[i] = relabeled.add(node_map[circuit.lhs[i]], node_map[circuit.rhs[i]])
        else:
            node_map[i] = relabeled.mul(node_map[circuit.lhs[i]], node_map[circuit.rhs[i]])
    rebuilt = relabeled.build([node_map[o] for o in circuit.outputs])
    return rebuilt, weights


@pytest.mark.parametrize(
    "semiring,assignment",
    [
        (TROPICAL, "weights"),
        (BOOLEAN, "booleans"),
    ],
)
def test_roundtrip_through_compiled_runtime(semiring, assignment):
    """serialize → deserialize → compile: the restored circuit's
    compiled outputs must equal the original's, gate for gate."""
    circuit, weights = build_datalog_circuit()
    if assignment == "weights":
        valuation = weights
    else:
        valuation = {label: (i % 3 != 0) for i, label in enumerate(sorted(weights))}
    restored = from_json(to_json(circuit))
    original = compile_circuit(circuit)
    roundtripped = compile_circuit(restored)
    assert restored.outputs == circuit.outputs
    assert original.evaluate_all(semiring, valuation) == roundtripped.evaluate_all(
        semiring, valuation
    )
    for output in circuit.outputs:
        assert original.evaluate(semiring, valuation, output) == roundtripped.evaluate(
            semiring, valuation, output
        )


def test_roundtrip_twice_is_stable():
    circuit, weights = build_datalog_circuit()
    once = to_json(circuit)
    twice = to_json(from_json(once))
    assert once == twice
    assert compile_circuit(from_json(twice)).evaluate_all(
        TROPICAL, weights
    ) == compile_circuit(circuit).evaluate_all(TROPICAL, weights)


def test_dot_output_structure():
    dot = to_dot(build())
    assert dot.startswith("digraph circuit {")
    assert "⊕" in dot and "⊗" in dot
    assert "peripheries=2" in dot  # output marked
    assert dot.count("->") == 4  # two gates × two children


def test_dot_size_guard():
    b = CircuitBuilder()
    node = b.var(0)
    for i in range(1, 600):
        node = b.add(node, b.var(i))
    big = b.build(node)
    with pytest.raises(ValueError):
        to_dot(big)
    assert to_dot(big, max_nodes=None)  # explicit opt-out works
