"""Head-to-head: the compiled evaluation runtime vs the seed interpreter.

The paper's serving story ("build the circuit once, answer many
valuation queries") lives or dies on evaluation throughput, so this
bench measures the three runtime paths of DESIGN.md §7 against the
seed interpreter (kept verbatim as ``reference_evaluate_all`` /
``reference_evaluate_boolean``) on the two Table-1 workloads the
ISSUE names:

* **compiled single-assignment TROPICAL** -- fused-kernel evaluation
  must be **≥ 3×** the interpreter on the Bellman–Ford circuit;
* **64-wide bitset-parallel Boolean batches** -- packing 64
  assignments into one ``|``/``&`` pass must give **≥ 10×**
  throughput over 64 interpreter passes;
* **incremental dirty-cone re-evaluation** -- a one-weight delta must
  touch a strict subset of the circuit (correctness asserted exactly;
  the cone/size ratio is reported, as is ``seed_ms``, the cold cost of
  seeding an evaluator on a freshly compiled circuit).

Every timed path is first cross-checked for *exact equality* against
the seed interpreter, so the bench doubles as an equivalence test at
benchmark scale.  Results are appended to ``BENCH_eval_runtime.json``
(via ``tools/bench_record.py``) so future PRs can track the perf
trajectory; CI uploads the file as an artifact.

Smoke mode (``BENCH_SMOKE=1``, set by CI) shrinks the repetition
counts but keeps every assert.
"""

import os
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_record import append_record  # noqa: E402

from repro.analysis import PerfReport  # noqa: E402
from repro.circuits import (  # noqa: E402
    CompiledCircuit,
    IncrementalEvaluator,
    compile_circuit,
    reference_evaluate_all,
    reference_evaluate_boolean,
)
from repro.circuits.runtime import WORD_SIZE  # noqa: E402
from repro.constructions import bellman_ford_circuit, generic_circuit  # noqa: E402
from repro.datalog import Database, Fact, dyck1  # noqa: E402
from repro.semirings import TROPICAL  # noqa: E402
from repro.workloads import dyck_concatenated_path, random_digraph, random_weights  # noqa: E402

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
ROUNDS = 3 if SMOKE else 5  # timing repetitions; best-of guards against scheduler noise
SINGLE_REPS = 30 if SMOKE else 100
BOOL_ROUNDS = 2 if SMOKE else 8

TRAJECTORY = REPO_ROOT / "BENCH_eval_runtime.json"

BF_N = 24
CFG_PAIRS = 16 if SMOKE else 24  # size ~1.3k / ~4.4k gates


def bellman_ford_workload():
    db = random_digraph(BF_N, 3 * BF_N, seed=0)
    weights = random_weights(db, seed=0)
    circuit = bellman_ford_circuit(db, 0, BF_N - 1)
    return db, weights, circuit


def cfg_workload():
    db = Database.from_labeled_edges(dyck_concatenated_path(CFG_PAIRS))
    circuit = generic_circuit(dyck1(), db, Fact("S", (0, 2 * CFG_PAIRS)))
    weights = {fact: 1.0 for fact in db.facts()}
    return db, weights, circuit


def best_of(fn, rounds=ROUNDS):
    """Best wall-clock total over *rounds* runs of *fn*."""
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def seed_time(compiled, weights):
    """Wall-clock seconds to seed one TROPICAL evaluator on *compiled*."""
    start = time.perf_counter()
    IncrementalEvaluator(compiled, TROPICAL, weights)
    return time.perf_counter() - start


def random_true_sets(circuit, count, seed=0, density=0.5):
    rng = random.Random(seed)
    variables = circuit.variables()
    return [
        [var for var in variables if rng.random() < density] for _ in range(count)
    ]


def test_eval_runtime_tropical_single(benchmark):
    """Compiled single-assignment TROPICAL ≥ 3× the seed interpreter."""
    report = PerfReport("compiled vs interpreter (single TROPICAL assignment)")
    recorded = {}
    for name, (db, weights, circuit) in (
        ("bellman-ford", bellman_ford_workload()),
        ("cfg-dyck", cfg_workload()),
    ):
        compiled = compile_circuit(circuit)
        out = circuit.outputs[0]
        # Exact-equality cross-check against the seed loop (full value
        # array AND the output query), then warm the kernels so the
        # one-time compile is amortized (the whole point of the
        # runtime).
        reference_values = reference_evaluate_all(circuit, TROPICAL, weights)
        assert compiled.evaluate_all(TROPICAL, weights) == reference_values
        assert compiled.evaluate(TROPICAL, weights) == reference_values[out]
        interp = best_of(
            lambda: [reference_evaluate_all(circuit, TROPICAL, weights)[out] for _ in range(SINGLE_REPS)]
        )
        fast = best_of(
            lambda: [compiled.evaluate(TROPICAL, weights) for _ in range(SINGLE_REPS)]
        )
        report.add(f"interpreter/{name}", interp, SINGLE_REPS, extra=f"size={circuit.size}")
        report.add(f"compiled/{name}", fast, SINGLE_REPS, extra=f"size={circuit.size}")
        recorded[name] = {
            "size": circuit.size,
            "interpreter_us": 1e6 * interp / SINGLE_REPS,
            "compiled_us": 1e6 * fast / SINGLE_REPS,
            "speedup": interp / fast,
        }
    report.print()
    bf = recorded["bellman-ford"]
    assert bf["speedup"] >= 3.0, (
        f"compiled TROPICAL evaluation is only {bf['speedup']:.2f}x the seed "
        f"interpreter on Bellman-Ford (need >= 3x)"
    )
    assert recorded["cfg-dyck"]["speedup"] >= 2.0, recorded["cfg-dyck"]
    append_record(
        TRAJECTORY,
        "eval_runtime/tropical_single",
        {"smoke": SMOKE, "workloads": recorded, "rows": report.as_records()},
    )
    _db, weights, circuit = bellman_ford_workload()
    compiled = compile_circuit(circuit)
    benchmark(compiled.evaluate, TROPICAL, weights)


def test_eval_runtime_boolean_batch(benchmark):
    """64-wide bitset batches ≥ 10× one-at-a-time interpreter passes."""
    _db, _weights, circuit = bellman_ford_workload()
    compiled = compile_circuit(circuit)
    batches = random_true_sets(circuit, WORD_SIZE, seed=1)
    expected = [reference_evaluate_boolean(circuit, trues) for trues in batches]
    got = compiled.evaluate_boolean_batch(batches)
    assert got == expected  # exact equality, all 64 lanes

    interp = best_of(
        lambda: [
            [reference_evaluate_boolean(circuit, trues) for trues in batches]
            for _ in range(BOOL_ROUNDS)
        ]
    )
    batched = best_of(lambda: [compiled.evaluate_boolean_batch(batches) for _ in range(BOOL_ROUNDS)])
    evaluations = WORD_SIZE * BOOL_ROUNDS
    report = PerfReport("bitset-parallel Boolean batches (64 lanes/pass)")
    report.add("interpreter/bellman-ford", interp, evaluations, extra=f"size={circuit.size}")
    report.add("bitset-batch/bellman-ford", batched, evaluations, extra=f"{WORD_SIZE} lanes")
    report.print()
    speedup = interp / batched
    assert speedup >= 10.0, (
        f"bitset-parallel Boolean batching is only {speedup:.2f}x the seed "
        f"interpreter on Bellman-Ford (need >= 10x)"
    )
    append_record(
        TRAJECTORY,
        "eval_runtime/boolean_batch",
        {
            "smoke": SMOKE,
            "size": circuit.size,
            "word_size": WORD_SIZE,
            "speedup": speedup,
            "rows": report.as_records(),
        },
    )
    benchmark(compiled.evaluate_boolean_batch, batches)


def test_eval_runtime_incremental(benchmark):
    """Dirty-cone updates agree exactly with full re-evaluation."""
    db, weights, circuit = bellman_ford_workload()
    compiled = compile_circuit(circuit)
    evaluator = IncrementalEvaluator(compiled, TROPICAL, weights)
    rng = random.Random(2)
    facts = sorted(db.facts(), key=repr)
    current = dict(weights)
    cones = []
    deltas = 40 if SMOKE else 200
    for _ in range(deltas):
        fact = rng.choice(facts)
        current[fact] = float(rng.randrange(1, 10))
        incremental = evaluator.update({fact: current[fact]})
        cones.append(evaluator.last_cone_size)
        full = compiled.evaluate_all(TROPICAL, current)
        assert incremental == [full[out] for out in compiled.outputs]
    assert evaluator.values == compiled.evaluate_all(TROPICAL, current)
    mean_cone = sum(cones) / len(cones)
    assert max(cones) <= circuit.size
    assert mean_cone < circuit.size, "dirty cone should not cover the whole circuit"
    # Cold seed, as a served-circuit rebuild pays it: every round seeds
    # on a fresh compiled form, so no kernel is cached yet.
    seed_s = min(seed_time(CompiledCircuit(circuit), weights) for _ in range(ROUNDS))
    print(
        f"\n== incremental: mean dirty cone {mean_cone:.0f} of {circuit.size} nodes "
        f"({100 * mean_cone / circuit.size:.1f}%), max {max(cones)}; "
        f"cold seed {1000 * seed_s:.2f} ms =="
    )
    append_record(
        TRAJECTORY,
        "eval_runtime/incremental",
        {
            "smoke": SMOKE,
            "size": circuit.size,
            "deltas": deltas,
            "mean_cone": mean_cone,
            "seed_ms": 1000 * seed_s,
            "max_cone": max(cones),
        },
    )
    fact = facts[0]
    benchmark(evaluator.update, {fact: 3.0})
