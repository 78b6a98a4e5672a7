"""Hypothesis equivalence suite for the compiled evaluation runtime.

Every path through :mod:`repro.circuits.runtime` --
``CompiledCircuit.evaluate_all``/``evaluate``, ``evaluate_batch``,
the bitset-parallel ``evaluate_boolean_batch`` and the dirty-cone
``IncrementalEvaluator`` -- must agree *exactly* (``==``, not just
``semiring.eq``) with the seed interpreter
(:func:`repro.circuits.evaluate.reference_evaluate_all`), on random
circuits over the Boolean, tropical and counting semirings, including
multi-output circuits, callable assignments and delta sequences that
flip a variable back and forth.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    CircuitBuilder,
    CompiledCircuit,
    IncrementalEvaluator,
    compile_circuit,
    evaluate,
    evaluate_all,
    evaluate_batch,
    evaluate_boolean,
    evaluate_boolean_batch,
    reference_evaluate_all,
    reference_evaluate_boolean,
)
from repro.circuits.runtime import WORD_SIZE
from repro.semirings import BOOLEAN, COUNTING, TROPICAL, CappedCountingSemiring

VARIABLES = ["a", "b", "c", "d", "e"]
SEMIRINGS = (BOOLEAN, TROPICAL, COUNTING)

# Value pools chosen so equality is exact (no float rounding): the
# tropical ops on these floats are min/+ over small integers.
POOLS = {
    "boolean": [False, True],
    "tropical": [float("inf"), 0.0, 1.0, 2.0, 3.0, 5.0],
    "counting": [0, 1, 2, 3],
}


def random_circuit(seed: int, gates: int, share: bool, num_outputs: int) -> Circuit:
    """A random DAG circuit over the 5-variable pool, possibly with
    duplicated (unshared) input gates and multiple outputs."""
    rng = random.Random(seed)
    builder = CircuitBuilder(share=share)
    nodes = [builder.var(v) for v in VARIABLES]
    nodes.append(builder.const0())
    nodes.append(builder.const1())
    if not share:  # duplicate labels: several input gates per variable
        nodes.extend(builder.var(rng.choice(VARIABLES)) for _ in range(3))
    for _ in range(gates):
        left, right = rng.choice(nodes), rng.choice(nodes)
        node = builder.add(left, right) if rng.random() < 0.5 else builder.mul(left, right)
        nodes.append(node)
    outputs = [rng.randrange(len(builder)) for _ in range(num_outputs)]
    return builder.build(outputs)


def random_assignment(rng: random.Random, semiring):
    pool = POOLS[semiring.name]
    return {v: rng.choice(pool) for v in VARIABLES}


@given(
    seed=st.integers(0, 10_000),
    gates=st.integers(1, 30),
    share=st.booleans(),
    num_outputs=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_compiled_evaluate_all_matches_reference(seed, gates, share, num_outputs):
    circuit = random_circuit(seed, gates, share, num_outputs)
    rng = random.Random(seed + 1)
    compiled = compile_circuit(circuit)
    assert isinstance(compiled, CompiledCircuit)
    assert compile_circuit(circuit) is compiled  # cached on the circuit
    for semiring in SEMIRINGS:
        assignment = random_assignment(rng, semiring)
        expected = reference_evaluate_all(circuit, semiring, assignment)
        assert compiled.evaluate_all(semiring, assignment) == expected
        assert evaluate_all(circuit, semiring, assignment) == expected
        # output queries, including interior (non-designated) nodes
        for out in circuit.outputs:
            assert evaluate(circuit, semiring, assignment, output=out) == expected[out]
        interior = rng.randrange(circuit.size)
        assert evaluate(circuit, semiring, assignment, output=interior) == expected[interior]


@given(seed=st.integers(0, 10_000), gates=st.integers(1, 30), num_outputs=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_evaluate_batch_matches_reference(seed, gates, num_outputs):
    circuit = random_circuit(seed, gates, True, num_outputs)
    rng = random.Random(seed + 2)
    for semiring in SEMIRINGS:
        assignments = [random_assignment(rng, semiring) for _ in range(5)]
        for out in circuit.outputs:
            expected = [
                reference_evaluate_all(circuit, semiring, a)[out] for a in assignments
            ]
            assert evaluate_batch(circuit, semiring, assignments, output=out) == expected


def test_evaluate_batch_empty_and_missing_fact():
    builder = CircuitBuilder()
    circuit = builder.build(builder.add(builder.mul(builder.var("x"), builder.var("y")), builder.var("z")))
    compiled = compile_circuit(circuit)
    assert compiled.evaluate_batch(TROPICAL, []) == []
    with pytest.raises(KeyError):
        compiled.evaluate_batch(TROPICAL, [{"x": 1.0, "y": 2.0, "z": 3.0}, {"x": 1.0}])


@given(seed=st.integers(0, 10_000), gates=st.integers(1, 30), num_outputs=st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_callable_assignments(seed, gates, num_outputs):
    circuit = random_circuit(seed, gates, True, num_outputs)
    rng = random.Random(seed + 3)
    for semiring in SEMIRINGS:
        table = random_assignment(rng, semiring)
        expected = reference_evaluate_all(circuit, semiring, table)
        assert evaluate_all(circuit, semiring, table.__getitem__) == expected
        assert evaluate_batch(
            circuit, semiring, [table.__getitem__], output=circuit.outputs[0]
        ) == [expected[circuit.outputs[0]]]


@given(
    seed=st.integers(0, 10_000),
    gates=st.integers(1, 30),
    num_outputs=st.integers(1, 3),
    num_batches=st.integers(0, 70),
)
@settings(max_examples=40, deadline=None)
def test_bitset_batches_match_reference(seed, gates, num_outputs, num_batches):
    """Covers both sides of the 64-wide word boundary (chunking)."""
    circuit = random_circuit(seed, gates, True, num_outputs)
    rng = random.Random(seed + 4)
    batches = [
        [v for v in VARIABLES if rng.random() < 0.5] + (["ghost"] if rng.random() < 0.2 else [])
        for _ in range(num_batches)
    ]  # "ghost" is not a circuit variable: ignored, as in the seed path
    for out in circuit.outputs:
        expected = [reference_evaluate_boolean(circuit, trues, output=out) for trues in batches]
        assert evaluate_boolean_batch(circuit, batches, output=out) == expected
        # and against full Boolean semiring evaluation
        for trues in batches[:5]:
            assignment = {v: v in trues for v in VARIABLES}
            assert reference_evaluate_boolean(circuit, trues, output=out) == (
                reference_evaluate_all(circuit, BOOLEAN, assignment)[out]
            )
    if len(circuit.outputs) == 1:
        for trues in batches[:5]:
            assert evaluate_boolean(circuit, trues) == reference_evaluate_boolean(circuit, trues)


@given(
    seed=st.integers(0, 10_000),
    gates=st.integers(1, 30),
    share=st.booleans(),
    num_outputs=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_incremental_matches_full_recompute(seed, gates, share, num_outputs):
    """Delta sequences, including flipping one variable back and forth."""
    circuit = random_circuit(seed, gates, share, num_outputs)
    rng = random.Random(seed + 5)
    for semiring in SEMIRINGS:
        current = random_assignment(rng, semiring)
        evaluator = IncrementalEvaluator(circuit, semiring, dict(current))
        assert evaluator.values == reference_evaluate_all(circuit, semiring, current)
        flip_var = rng.choice(VARIABLES)
        original = current[flip_var]
        pool = POOLS[semiring.name]
        flipped = rng.choice([v for v in pool if v != original] or [original])
        deltas = [
            {rng.choice(VARIABLES): rng.choice(pool)},
            {flip_var: flipped},
            {flip_var: original},  # flip back
            {flip_var: flipped, rng.choice(VARIABLES): rng.choice(pool)},
            {},  # empty delta is a no-op
        ]
        for delta in deltas:
            current.update(delta)
            outputs = evaluator.update(delta)
            expected = reference_evaluate_all(circuit, semiring, current)
            assert evaluator.values == expected
            assert outputs == [expected[out] for out in circuit.outputs]
            assert evaluator.last_cone_size <= circuit.size
            for out in circuit.outputs:
                assert evaluator.value(output=out) == expected[out]


def test_incremental_callable_seed_and_unknown_label():
    builder = CircuitBuilder()
    out = builder.add(builder.mul(builder.var("x"), builder.var("y")), builder.var("z"))
    circuit = builder.build(out)
    evaluator = IncrementalEvaluator(circuit, COUNTING, lambda label: 1)
    assert evaluator.value() == 2
    assert evaluator.update({"z": 5}) == [6]
    with pytest.raises(KeyError):
        evaluator.update({"z": 9, "ghost": 1})
    # the failed delta was rejected atomically: nothing was applied and
    # the evaluator still serves correct values afterwards
    assert evaluator.value() == 6
    assert evaluator.update({"z": 2}) == [3]


def test_compiled_rejects_unknown_opcode():
    corrupt = Circuit([9], [-1], [-1], [None], [0])
    with pytest.raises(ValueError, match="unknown opcode"):
        compile_circuit(corrupt)


def test_evaluate_boolean_raises_on_unknown_opcode():
    """The seed version silently treated a corrupt opcode as False."""
    corrupt = Circuit([9], [-1], [-1], [None], [0])
    with pytest.raises(ValueError, match="unknown opcode"):
        evaluate_boolean(corrupt, set())
    with pytest.raises(ValueError, match="unknown opcode"):
        reference_evaluate_boolean(corrupt, set())


def test_bitset_batches_chunk_into_words():
    # Two full words and a partial third one.
    builder = CircuitBuilder()
    circuit = builder.build(builder.add(builder.mul(builder.var("x"), builder.var("y")), builder.var("z")))
    rng = random.Random(130)
    batches = [[label for label in "xyz" if rng.random() < 0.5] for _ in range(130)]
    assert 2 * WORD_SIZE < len(batches) < 3 * WORD_SIZE
    expected = [reference_evaluate_boolean(circuit, trues) for trues in batches]
    assert evaluate_boolean_batch(circuit, batches) == expected


def test_variable_table_deduplicates_labels():
    builder = CircuitBuilder(share=False)
    a1, a2 = builder.var("a"), builder.var("a")
    circuit = builder.build(builder.add(a1, a2))
    compiled = compile_circuit(circuit)
    assert compiled.num_slots == 1
    calls = []

    def lookup(label):
        calls.append(label)
        return 2

    assert compiled.evaluate(COUNTING, lookup) == 4
    assert calls == ["a"]  # hashed/resolved once per distinct label


def test_loop_kernel_above_straight_line_limit():
    """Circuits past the straight-line limit use the segment-loop kernel."""
    from repro.circuits import runtime

    builder = CircuitBuilder()
    node = builder.var(0)
    for i in range(1, runtime._STRAIGHT_LINE_LIMIT + 10):
        node = builder.add(node, builder.var(i))
    circuit = builder.build(node)
    total = evaluate(circuit, COUNTING, lambda label: 1)
    assert total == runtime._STRAIGHT_LINE_LIMIT + 10
    trues = [i for i in range(runtime._STRAIGHT_LINE_LIMIT + 10) if i % 2]
    assert evaluate_boolean(circuit, trues) is True
    assert evaluate_boolean(circuit, []) is False


@pytest.mark.parametrize(
    "semiring, pool",
    [(TROPICAL, "tropical"), (CappedCountingSemiring(7), "counting")],
    ids=["fused", "generic"],
)
def test_incremental_seed_runs_the_segment_loop(monkeypatch, semiring, pool):
    """The one-shot seed never generates straight-line code; the
    repeated-query kernels on the same compiled circuit still do."""
    from repro.circuits import runtime

    calls = []
    real = runtime._gen_straight_source

    def counting_gen(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(runtime, "_gen_straight_source", counting_gen)
    circuit = random_circuit(seed=11, gates=40, share=False, num_outputs=2)
    assert circuit.size <= runtime._STRAIGHT_LINE_LIMIT
    fused = semiring.compiled_add_expr is not None
    assert fused == (semiring is TROPICAL)
    rng = random.Random(4)
    assignment = {v: rng.choice(POOLS[pool]) for v in VARIABLES}

    evaluator = IncrementalEvaluator(circuit, semiring, assignment)
    expected = reference_evaluate_all(circuit, semiring, assignment)
    assert calls == []
    assert evaluator.values == expected
    IncrementalEvaluator(circuit, semiring, assignment)  # reuses the cached loop kernel
    assert calls == []

    out = circuit.outputs[0]
    assert evaluator.compiled.evaluate(semiring, assignment, output=out) == expected[out]
    assert len(calls) == 1
