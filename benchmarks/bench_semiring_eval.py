"""Cross-semiring evaluation + the array-backed representation ablation.

(a) Correctness at benchmark scale: the Bellman–Ford circuit evaluated
under Tropical/Viterbi/Boolean valuations equals the Datalog fixpoint
under both strategies (the "over any absorptive semiring" claims,
measured).

(b) Ablation (DESIGN.md §6): linear-time array evaluation vs a naive
recursive object-graph walk over the same DAG -- the design choice
that makes circuit-size benchmarks feasible in Python.  The compiled
runtime (DESIGN.md §7) rides along as the third rung of the ladder:
recursion ≪ array interpreter ≤ compiled kernel, all three computing
the identical value (the dedicated head-to-head with speedup asserts
is ``bench_eval_runtime.py``).
"""

import sys
import time


from repro.api import solve
from repro.circuits import compile_circuit, evaluate, reference_evaluate_all
from repro.constructions import bellman_ford_circuit
from repro.datalog import Fact, transitive_closure
from repro.semirings import BOOLEAN, TROPICAL, VITERBI
from repro.workloads import random_digraph, random_weights

TC = transitive_closure()
N = 24


def setup():
    db = random_digraph(N, 3 * N, seed=0)
    weights = random_weights(db, seed=0)
    circuit = bellman_ford_circuit(db, 0, N - 1)
    return db, weights, circuit


def naive_recursive_evaluate(circuit, semiring, assignment):
    """Ablation baseline: memo-free recursion over the DAG (exponential
    in shared structure; capped by recursion/step budget)."""
    sys.setrecursionlimit(100_000)
    steps = [0]
    budget = 3_000_000

    def walk(node):
        steps[0] += 1
        if steps[0] > budget:
            raise TimeoutError("naive evaluation exceeded its step budget")
        op = circuit.ops[node]
        if op == 0:
            return assignment[circuit.labels[node]]
        if op == 1:
            return semiring.zero
        if op == 2:
            return semiring.one
        left = walk(circuit.lhs[node])
        right = walk(circuit.rhs[node])
        return semiring.add(left, right) if op == 3 else semiring.mul(left, right)

    return walk(circuit.outputs[0]), steps[0]


def test_semiring_eval_correctness(benchmark):
    db, weights, circuit = setup()
    fact = Fact("T", (0, N - 1))
    for semiring, valuation in [
        (TROPICAL, weights),
        (VITERBI, {f: 0.9 for f in db.facts()}),
        (BOOLEAN, {f: True for f in db.facts()}),
    ]:
        # Both fixpoint strategies must agree with the circuit (and
        # hence with each other) -- the benchmark-scale face of the
        # oracle-vs-fast equivalence tests.
        for strategy in ("naive", "columnar"):
            expected = solve(
                TC, db, semiring, weights=valuation, config={"strategy": strategy}
            ).value(fact)
            got = evaluate(circuit, semiring, valuation)
            assert semiring.eq(got, expected), (semiring.name, strategy)
    benchmark(evaluate, circuit, TROPICAL, weights)


def test_semiring_eval_ablation_array_vs_recursion(benchmark):
    db, weights, circuit = setup()
    array_value = reference_evaluate_all(circuit, TROPICAL, weights)[circuit.outputs[0]]
    # The compiled runtime must reproduce the interpreter exactly; time
    # both one-assignment paths for the §6/§7 ladder report.
    compiled = compile_circuit(circuit)
    assert compiled.evaluate(TROPICAL, weights) == array_value
    reps = 50
    start = time.perf_counter()
    for _ in range(reps):
        reference_evaluate_all(circuit, TROPICAL, weights)
    interp_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(reps):
        compiled.evaluate(TROPICAL, weights)
    compiled_s = time.perf_counter() - start
    print(
        f"\n== ladder: interpreter {1e6 * interp_s / reps:.0f}µs/eval vs compiled "
        f"{1e6 * compiled_s / reps:.0f}µs/eval ({interp_s / compiled_s:.1f}x) =="
    )
    try:
        recursive_value, steps = naive_recursive_evaluate(circuit, TROPICAL, weights)
        assert TROPICAL.eq(array_value, recursive_value)
        blow_up = steps / circuit.size
        print(
            f"\n== ablation: array pass touches {circuit.size} nodes; naive "
            f"recursion touches {steps} ({blow_up:.1f}× blow-up from sharing) =="
        )
        assert steps >= circuit.size
    except (TimeoutError, RecursionError):
        print("\n== ablation: naive recursion exceeded its budget (shared "
              "structure is exponential); array evaluation is mandatory ==")
    benchmark(evaluate, circuit, TROPICAL, weights)
