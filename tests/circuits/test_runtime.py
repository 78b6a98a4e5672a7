"""Hypothesis equivalence suite for the compiled evaluation runtime.

Every path through :mod:`repro.circuits.runtime` --
``CompiledCircuit.evaluate_all``/``evaluate``/``evaluate_batch``,
the bitset-parallel ``evaluate_boolean_batch`` and the dirty-cone
``IncrementalEvaluator`` -- must agree *exactly* (``==``, not just
``semiring.eq``) with the seed interpreter
(:func:`repro.circuits.evaluate.reference_evaluate_all`), on random
circuits over the Boolean, tropical and counting semirings, including
multi-output circuits, callable assignments and delta sequences that
flip a variable back and forth.

The stage-level early exit of the outputs-only kernels is checked
differentially against ``evaluate_all`` on every construction that
records its stages, and its three soundness rules are pinned on
hand-built stage records.
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
    evaluate_boolean,
    reference_evaluate_all,
    reference_evaluate_boolean,
)
from repro.circuits import runtime
from repro.circuits.circuit import ZERO, StageRecord
from repro.circuits.runtime import WORD_SIZE
from repro.circuits.transform import circuit_to_formula
from repro.constructions import (
    bellman_ford_all_targets,
    bellman_ford_circuit,
    bounded_circuit,
    generic_circuit,
    provenance_circuit,
)
from repro.datalog import Database, Fact, columnar_grounding, transitive_closure
from repro.semirings import (
    BOOLEAN,
    COUNTING,
    FUZZY,
    TROPICAL,
    VITERBI,
    BooleanSemiring,
    CappedCountingSemiring,
)
from repro.workloads import random_digraph

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
            assert compile_circuit(circuit).evaluate_batch(semiring, assignments, output=out) == expected


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
        assert compile_circuit(circuit).evaluate_batch(
            semiring, [table.__getitem__], output=circuit.outputs[0]
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
        assert compile_circuit(circuit).evaluate_boolean_batch(batches, output=out) == expected
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
    assert compile_circuit(circuit).evaluate_boolean_batch(batches) == expected


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


# ----------------------------------------------------------------------
# Explicit output indices
# ----------------------------------------------------------------------


def test_explicit_output_index_is_range_checked():
    """``output=-2`` once read the interior gate ``x ⊗ y`` through
    Python's negative indexing, and ``output=99`` raised a bare
    ``IndexError``."""
    builder = CircuitBuilder()
    x, y = builder.var("x"), builder.var("y")
    circuit = builder.build(builder.add(x, builder.mul(x, y)))
    assert circuit.size == 4
    compiled = compile_circuit(circuit)
    weights = {"x": 1.0, "y": 2.0}
    for bad in (-2, -1, 4, 99):
        with pytest.raises(ValueError, match=f"output index {bad} out of range"):
            compiled.evaluate(TROPICAL, weights, output=bad)
        with pytest.raises(ValueError, match=f"output index {bad} out of range"):
            compiled.evaluate_batch(TROPICAL, [weights], output=bad)
        with pytest.raises(ValueError, match=f"output index {bad} out of range"):
            compiled.evaluate_boolean_batch([["x"]], output=bad)
    assert compiled.evaluate(TROPICAL, weights, output=2) == 3.0  # interior, in range


# ----------------------------------------------------------------------
# Stage-level early exit
# ----------------------------------------------------------------------

EXIT_POOLS = {
    "boolean": [False, True, True],
    "tropical": [float("inf"), 1.0, 2.0, 5.0, 9.0],
    "viterbi": [0.0, 0.3, 0.5, 0.9, 1.0],
    "fuzzy": [0.0, 0.3, 0.5, 0.9, 1.0],
    # Mostly 0, so some valuations converge and others keep counting
    # walks round a cycle.
    "counting": [0, 0, 0, 1, 2],
}
EXIT_SEMIRINGS = (BOOLEAN, TROPICAL, VITERBI, FUZZY, COUNTING)


def _staged_circuits():
    """One circuit per construction that records its stages, on a
    cyclic graph so that valuations converge at different stages."""
    tc = transitive_closure()
    graph = random_digraph(9, 20, seed=3)
    facts = [Fact("T", (0, 8)), Fact("T", (2, 5)), Fact("T", (7, 7)), Fact("T", (0, 99))]
    choice = provenance_circuit(tc, graph, Fact("T", (0, 8)))
    assert choice.construction == "magic-generic"
    return {
        "generic": generic_circuit(tc, graph, facts),
        "generic-all-targets": generic_circuit(tc, random_digraph(5, 8, seed=1)),
        "magic-generic": choice.circuit,
        "bounded": bounded_circuit(tc, graph, bound=4, facts=facts),
        "bellman-ford": bellman_ford_circuit(graph, 0, 8),
        "bellman-ford-all-targets": bellman_ford_all_targets(graph, 0)[0],
    }


def _force_loop_kernel(monkeypatch, straight: bool) -> None:
    """Put every circuit on one side of the straight-line limit."""
    if not straight:
        monkeypatch.setattr(runtime, "_STRAIGHT_LINE_LIMIT", 0)


@pytest.mark.parametrize("straight", [True, False], ids=["straight-line", "segment-loop"])
@pytest.mark.parametrize("semiring", EXIT_SEMIRINGS, ids=lambda s: s.name)
def test_early_exit_matches_full_evaluation(monkeypatch, straight, semiring):
    _force_loop_kernel(monkeypatch, straight)
    rng = random.Random(7)
    pool = EXIT_POOLS[semiring.name]
    for name, circuit in _staged_circuits().items():
        compiled = compile_circuit(circuit)
        assert compiled.num_stages > 0, name
        variables = circuit.variables()
        assignments = [{v: rng.choice(pool) for v in variables} for _ in range(12)]
        assignments.append({v: semiring.zero for v in variables})
        assignments.append({v: semiring.one for v in variables})
        full = [compiled.evaluate_all(semiring, a) for a in assignments]
        for out in circuit.outputs:
            expected = [values[out] for values in full]
            got = [compiled.evaluate(semiring, a, output=out) for a in assignments]
            assert got == expected, (name, out)
            assert compiled.evaluate_batch(semiring, assignments, output=out) == expected, (name, out)


@pytest.mark.parametrize("straight", [True, False], ids=["straight-line", "segment-loop"])
def test_bitset_lanes_converge_at_different_stages(monkeypatch, straight):
    """A word exits only once every lane has converged; lanes here
    settle anywhere from the first stage (no edge true) to the last."""
    _force_loop_kernel(monkeypatch, straight)
    rng = random.Random(11)
    for name, circuit in _staged_circuits().items():
        compiled = compile_circuit(circuit)
        variables = circuit.variables()
        batches = [[v for v in variables if rng.random() < rng.random()] for _ in range(WORD_SIZE + 37)]
        batches[3] = []
        batches[-1] = list(variables)
        for out in circuit.outputs:
            expected = [
                compiled.evaluate_all(BOOLEAN, {v: v in set(trues) for v in variables})[out]
                for trues in batches
            ]
            assert compiled.evaluate_boolean_batch(batches, output=out) == expected, (name, out)
            # one lane alone, a word that converges at stage 1
            nothing = compiled.evaluate_all(BOOLEAN, {v: False for v in variables})[out]
            assert compiled.evaluate_boolean_batch([[]], output=out) == [nothing]


class CallCountingBoolean(BooleanSemiring):
    """Boolean semiring through the generic kernel, counting gate calls."""

    compiled_add_expr = None
    compiled_mul_expr = None

    def __init__(self):
        self.calls = 0

    def add(self, a, b):
        self.calls += 1
        return a or b

    def mul(self, a, b):
        self.calls += 1
        return a and b


def _gate_calls(circuit, assignment, outputs_only: bool):
    semiring = CallCountingBoolean()
    compiled = compile_circuit(circuit)
    if outputs_only:
        value = compiled.evaluate(semiring, assignment)
    else:
        value = compiled.evaluate_all(semiring, assignment)[circuit.outputs[0]]
    return value, semiring.calls


@pytest.mark.parametrize("straight", [True, False], ids=["straight-line", "segment-loop"])
def test_early_exit_checks_only_relevant_facts(monkeypatch, straight):
    """Soundness rule 1.  The output ``T(0,2)`` lives on a 3-cycle; an
    8-cycle elsewhere keeps changing the construction's other heads for
    dozens of stages.  Only facts the output depends on are recorded,
    so an all-true valuation stops after a few stages."""
    _force_loop_kernel(monkeypatch, straight)
    db = Database()
    for u, v in [(0, 1), (1, 2), (2, 0)] + [(10 + i, 10 + (i + 1) % 8) for i in range(8)]:
        db.add("E", u, v)
    tc = transitive_closure()
    ground = columnar_grounding(tc, db)
    circuit = generic_circuit(tc, db, Fact("T", (0, 2)), ground=ground)
    recorded = {ground.decode_fact(fid) for fid in circuit.stages.fids}
    assert recorded and all(max(fact.args) < 10 for fact in recorded)
    assignment = {v: True for v in circuit.variables()}
    early, early_calls = _gate_calls(circuit, assignment, outputs_only=True)
    full, full_calls = _gate_calls(circuit, assignment, outputs_only=False)
    assert early is full is True
    assert early_calls < full_calls


def _two_stage_record():
    """A hand-built record: fact 0 goes 0 → x → x ⊕ y, and a third
    stage moves fact 1 to ``x ⊗ y``, which the pruning drops."""
    builder = CircuitBuilder()
    zero = builder.const0()
    x, y = builder.var("x"), builder.var("y")
    record = StageRecord([0], [zero], zero)
    record.add_stage(len(builder), [0], [zero], [x])
    total = builder.add(x, y)
    record.add_stage(len(builder), [0], [x], [total])
    product = builder.mul(x, y)
    record.add_stage(len(builder), [1], [zero], [product])
    return builder.build(total, prune=True, stages=record)


def test_exit_points_skip_pruned_nodes_and_map_const0_to_zero():
    """Soundness rule 2: a stage that reads a pruned node is no exit
    point, and a pruned ``const0`` compares against ``zero``."""
    circuit = _two_stage_record()
    assert circuit.size == 3  # x, y, x ⊕ y: const0 and x ⊗ y were pruned
    x, total = 0, 2
    assert circuit.stages.exits() == [(2, [(ZERO, x)], [x]), (3, [(x, total)], [total])]
    assert circuit.stages.remap is None  # translated once, then dropped
    assert compile_circuit(circuit).num_stages == 3
    for straight in (True, False):
        compiled = CompiledCircuit(circuit)
        runner = compiled._runner(TROPICAL, outputs_only=True, reuse=straight)
        assert runner([1.0, 2.0]) == [1.0]  # stage 2 repeats stage 1: min(1, 3) == 1
        assert runner([5.0, 2.0]) == [2.0]


def test_output_latest_node_pruned_is_no_exit_point():
    """An output whose latest node the pruning dropped blocks its stage."""
    builder = CircuitBuilder()
    zero = builder.const0()
    x, y = builder.var("x"), builder.var("y")
    dead = builder.mul(x, y)
    record = StageRecord([0], [zero], zero)
    record.add_stage(len(builder), [0], [zero], [dead])
    circuit = builder.build(x, prune=True, stages=record)
    assert circuit.stages.exits() == []
    assert compile_circuit(circuit).evaluate(TROPICAL, {"x": 4.0}) == 4.0


@pytest.mark.parametrize("straight", [True, False], ids=["straight-line", "segment-loop"])
def test_early_exit_compares_with_exact_equality(monkeypatch, straight):
    """Soundness rule 3: Viterbi's ``eq`` is ``isclose``, and stopping on
    it would return stage 2's ``x·y`` where full evaluation gives
    stage 3's ``x·y·y``."""
    _force_loop_kernel(monkeypatch, straight)
    builder = CircuitBuilder()
    zero = builder.const0()
    x, y = builder.var("x"), builder.var("y")
    record = StageRecord([0], [zero], zero)
    stages = [x, builder.mul(x, y)]
    stages.append(builder.mul(stages[-1], y))
    previous = zero
    for node in stages:
        record.add_stage(len(builder), [0], [previous], [node])
        previous = node
    circuit = builder.build(previous, prune=True, stages=record)
    weights = {"x": 0.5, "y": 1.0 - 1e-12}
    values = compile_circuit(circuit).evaluate_all(VITERBI, weights)
    _end, [(second, third)], _outputs = circuit.stages.exits()[-1]
    assert VITERBI.eq(values[second], values[third])
    assert values[second] != values[third]
    assert evaluate(circuit, VITERBI, weights) == values[circuit.outputs[0]]


def test_stage_record_structure():
    """After pruning, exit ends never decrease and every id is in range;
    circuits made any other way carry no record."""
    for name, circuit in _staged_circuits().items():
        record = circuit.stages
        raw_ends = list(record.ends)
        assert raw_ends == sorted(raw_ends) and len(raw_ends) == len(record)
        exits = record.exits()
        assert exits, name
        ends = [end for end, _, _ in exits]
        assert ends == sorted(ends), name
        for end, pairs, outputs in exits:
            assert 0 <= end <= circuit.size
            assert len(outputs) == len(circuit.outputs)
            for node in [n for pair in pairs for n in pair] + outputs:
                assert node == ZERO or 0 <= node < end, name
        rebuilt = Circuit(circuit.ops, circuit.lhs, circuit.rhs, circuit.labels, circuit.outputs)
        for other in (circuit.with_outputs(circuit.outputs), rebuilt, circuit.prune()):
            assert other.stages is None
            assert compile_circuit(other).num_stages == 0
    small = generic_circuit(transitive_closure(), random_digraph(3, 3, seed=0), Fact("T", (0, 2)))
    assert small.stages is not None
    assert circuit_to_formula(small).stages is None
    builder = CircuitBuilder()
    assert builder.build(builder.var("x"), stages=StageRecord([], [], -1)).stages is None
