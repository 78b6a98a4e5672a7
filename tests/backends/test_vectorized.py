"""The vectorized NumPy execution backend (DESIGN.md §13).

Three contracts are pinned here:

* **backend selection** -- ``ExecutionConfig.backend`` validates with
  the same ValueError vocabulary as ``engine``/``strategy``, survives
  ``evolve()``/``coerce_config``, and
  :func:`repro.backends.resolve_backend` maps ``"auto"`` to the NumPy
  kernels exactly when NumPy imports;
* **fixpoint equivalence** -- ``backend="vectorized"`` produces the
  *exact* same values, iteration counts, convergence flags and
  rule-evaluation counts as the pure-Python kernels, across all four
  (engine, strategy) pairs, on random digraphs, Dyck-1 and tropical
  Bellman-Ford, including NaN/inf float edge values (where the
  vectorized kernel must decline rather than drift);
* **batch equivalence** -- ``evaluate_batch(backend="vectorized")``
  matches the interpreter loop element for element.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, solve
from repro.backends import numpy_available, resolve_backend
from repro.config import BACKENDS, ExecutionConfig, coerce_config
from repro.datalog import (
    Database,
    FixpointEngine,
    columnar_grounding,
    dyck1,
    transitive_closure,
)
from repro.semirings import ARCTIC, BOOLEAN, COUNTING, FUZZY, TROPICAL, VITERBI
from repro.workloads import random_digraph, random_weights
from tests.oracle import ORACLE, PAIRS, assert_same_result

TC = transitive_closure()
DYCK = dyck1()

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="requires the 'perf' extra (numpy)")

VEC = ExecutionConfig(backend="vectorized") if numpy_available() else ExecutionConfig(backend="auto")
PY = ExecutionConfig(backend="python")


class _Valuation(dict):
    """The ``edb_value`` contract of both fixpoint kernels: a mapping
    with a default for unweighted facts."""

    def __init__(self, weights, default):
        super().__init__(weights)
        self.default = default

    def __missing__(self, fact):
        return self.default


def same_value(a, b) -> bool:
    """Exact equality, with NaN == NaN (the fallback contract compares
    whole result vectors, and NaN inputs must round-trip unchanged)."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b and type(a) is type(b)


def assert_backend_parity(program, db, semiring, weights=None, config=VEC, max_iterations=None):
    """``backend="vectorized"`` must be observationally identical to
    the pure-Python kernels: values, iterations, convergence and
    rule-evaluation counts, fact for fact."""
    reference = solve(
        program, db, semiring, weights=weights, config=PY, max_iterations=max_iterations
    )
    result = solve(
        program, db, semiring, weights=weights, config=config, max_iterations=max_iterations
    )
    assert set(result.values) == set(reference.values)
    for fact, expected in reference.values.items():
        assert same_value(result.values[fact], expected), (fact, result.values[fact], expected)
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert result.rule_evaluations == reference.rule_evaluations


# -- backend selection ----------------------------------------------------


def test_config_backend_vocabulary():
    for backend in BACKENDS:
        assert ExecutionConfig(backend=backend).backend == backend
    assert ExecutionConfig().resolved_backend == "python"
    with pytest.raises(ValueError, match=r"unknown backend 'cuda'.*'python'.*'vectorized'.*'auto'"):
        ExecutionConfig(backend="cuda")
    with pytest.raises(ValueError, match="unknown backend"):
        coerce_config({"backend": "numba"})


def test_config_backend_survives_evolve_and_key():
    config = ExecutionConfig(backend="vectorized")
    assert config.evolve(engine="columnar").backend == "vectorized"
    assert config.key() != ExecutionConfig().key()


def test_resolve_backend_vocabulary_and_auto():
    assert resolve_backend(None) == "python"
    assert resolve_backend("python") == "python"
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("gpu")
    if numpy_available():
        assert resolve_backend("auto") == "vectorized"
        assert resolve_backend("vectorized") == "vectorized"
    else:
        assert resolve_backend("auto") == "python"


def test_resolve_backend_without_numpy(monkeypatch):
    """Simulated NumPy absence: ``auto`` degrades, explicit
    ``vectorized`` fails loudly naming the ``perf`` extra."""
    import repro.backends as backends

    monkeypatch.setattr(backends, "_NUMPY_PROBED", True)
    monkeypatch.setattr(backends, "_NUMPY", None)
    assert backends.resolve_backend("auto") == "python"
    assert not backends.numpy_available()
    with pytest.raises(ModuleNotFoundError, match=r"perf"):
        backends.resolve_backend("vectorized")


# -- fixpoint equivalence -------------------------------------------------


@pytest.mark.parametrize("semiring", [BOOLEAN, COUNTING, TROPICAL, VITERBI, FUZZY])
def test_fixpoint_parity_fixed_digraph(semiring):
    db = random_digraph(24, 90, seed=11)
    weights = None
    if semiring in (TROPICAL, VITERBI, FUZZY):
        weights = random_weights(db, seed=2)
        if semiring is not TROPICAL:
            weights = {f: 1.0 / (1.0 + w) for f, w in weights.items()}
    assert_backend_parity(TC, db, semiring, weights=weights)


@given(seed=st.integers(0, 5000), n=st.integers(3, 9), m=st.integers(3, 24))
@settings(max_examples=12, deadline=None)
def test_fixpoint_parity_random_digraphs(seed, n, m):
    db = random_digraph(n, m, seed=seed)
    assert_backend_parity(TC, db, BOOLEAN)
    assert_backend_parity(TC, db, COUNTING)
    assert_backend_parity(TC, db, TROPICAL, weights=random_weights(db, seed=seed + 1))


@given(seed=st.integers(0, 1000), pairs=st.integers(2, 8))
@settings(max_examples=8, deadline=None)
def test_fixpoint_parity_dyck(seed, pairs):
    import random

    rng = random.Random(seed)
    edges = []
    node = 0
    for _ in range(pairs):
        edges.append((node, "L", node + 1))
        edges.append((node + 1, "R", node + 2))
        node += 2
    for _ in range(pairs):
        u, v = rng.randrange(node + 1), rng.randrange(node + 1)
        if u != v:
            edges.append((u, rng.choice(["L", "R"]), v))
    db = Database.from_labeled_edges(edges)
    assert_backend_parity(DYCK, db, BOOLEAN)
    # A cyclic Dyck graph diverges doubly-exponentially under COUNTING
    # (the concatenation rule squares path counts every round), so cap
    # the rounds: parity must hold on the truncated prefix too.
    assert_backend_parity(DYCK, db, COUNTING, max_iterations=10)


def test_fixpoint_parity_engine_strategy_matrix():
    """The backend knob composes with every (engine, strategy) pair:
    every pair under ``backend="vectorized"`` agrees with the
    pure-Python naive oracle."""
    db = random_digraph(10, 30, seed=4)
    weights = random_weights(db, seed=5)
    reference = FixpointEngine(config=ORACLE).evaluate(TC, db, TROPICAL, weights=weights)
    assert reference.converged
    for config in PAIRS:
        result = solve(TC, db, TROPICAL, weights=weights, config=config.evolve(backend=VEC.backend))
        assert_same_result(result, reference, TROPICAL)


def test_fixpoint_parity_bellman_ford_inf_and_nan():
    """Tropical Bellman-Ford with unreachable (inf) and poisoned (NaN)
    edge weights: inf must flow through the vectorized kernel, NaN
    must force the pure-Python fallback -- values identical either
    way, NaN compared as NaN."""
    db = random_digraph(16, 48, seed=7)
    weights = random_weights(db, seed=8)
    facts = sorted(weights, key=repr)
    weights[facts[0]] = float("inf")
    assert_backend_parity(TC, db, TROPICAL, weights=weights)
    weights[facts[1]] = float("nan")
    assert_backend_parity(TC, db, TROPICAL, weights=weights)


def test_fixpoint_parity_divergent_arctic():
    """A positive-weight cycle diverges under ARCTIC: both backends
    must report the same capped iteration count and converged=False."""
    db = Database.from_edges([(1, 2), (2, 3), (3, 1)])
    weights = {fact: 1.0 for fact in db.facts()}
    reference = solve(TC, db, ARCTIC, weights=weights, config=PY, max_iterations=50)
    result = solve(TC, db, ARCTIC, weights=weights, config=VEC, max_iterations=50)
    assert result.values == reference.values
    assert result.iterations == reference.iterations == 50
    assert not result.converged and not reference.converged


@needs_numpy
def test_vectorized_kernel_actually_runs_and_declines():
    """Direct kernel contract: exact tuple parity when the semiring
    publishes ufunc specs, ``None`` (decline) on NaN inputs and on
    spec-less semirings."""
    from repro.backends.vectorized import vectorized_columnar_fixpoint
    from repro.datalog.seminaive import _columnar_fixpoint
    from repro.semirings import LUKASIEWICZ

    db = random_digraph(12, 40, seed=9)
    weights = random_weights(db, seed=10)
    cground = columnar_grounding(TC, db)
    edb_value = _Valuation(weights, TROPICAL.one)

    got = vectorized_columnar_fixpoint(cground, TROPICAL, edb_value, 10_000)
    assert got is not None, "tropical must take the vectorized path"
    assert got == _columnar_fixpoint(cground, TROPICAL, edb_value, 10_000)

    assert (
        vectorized_columnar_fixpoint(cground, LUKASIEWICZ, _Valuation({}, 0.5), 10_000) is None
    )

    poisoned = dict(weights)
    poisoned[next(iter(weights))] = float("nan")
    assert (
        vectorized_columnar_fixpoint(
            cground, TROPICAL, _Valuation(poisoned, TROPICAL.one), 10_000
        )
        is None
    )


@needs_numpy
def test_vectorized_kernel_declines_on_counting_overflow():
    """A chain of 70 doubling diamonds has 2^70 source-to-sink paths:
    past the int64 exactness guard, so the kernel must decline and the
    bigint fallback must keep the counts exact."""
    from repro.backends.vectorized import vectorized_columnar_fixpoint

    edges = []
    node = 0
    for _ in range(70):
        edges += [(node, node + 1), (node, node + 2), (node + 1, node + 3), (node + 2, node + 3)]
        node += 3
    db = Database.from_edges(edges)
    cground = columnar_grounding(TC, db)
    result = solve(TC, db, COUNTING, config=PY)
    assert max(abs(v) for v in result.values.values()) >= 2**70
    assert vectorized_columnar_fixpoint(cground, COUNTING, _Valuation({}, 1), 10_000) is None
    assert_backend_parity(TC, db, COUNTING)


# -- batch equivalence ----------------------------------------------------


def _batch_fixture():
    db = random_digraph(12, 36, seed=6)
    weights = random_weights(db, seed=3)
    result = solve(TC, db, TROPICAL, weights=weights, config=PY)
    target = next(
        fact
        for fact in sorted(result.values, key=repr)
        if result.values[fact] not in (TROPICAL.zero, TROPICAL.one)
    )
    facts = sorted(db.facts(), key=repr)
    return db, facts, target


def _assignments(facts, semiring, count, cast):
    base = {}
    batches = []
    for k in range(count):
        assignment = {fact: cast(k, i) for i, fact in enumerate(facts)}
        batches.append(assignment)
    return batches


@pytest.mark.parametrize(
    "semiring,cast",
    [
        (TROPICAL, lambda k, i: float((k * 7 + i) % 11)),
        (VITERBI, lambda k, i: ((k * 5 + i) % 10) / 10.0),
        (COUNTING, lambda k, i: (k + i) % 4),
        (BOOLEAN, lambda k, i: bool((k + i) % 3)),
    ],
)
def test_evaluate_batch_parity(semiring, cast):
    db, facts, target = _batch_fixture()
    batches = _assignments(facts, semiring, 40, cast)
    vec = Session(TC, db, VEC).evaluate_batch(target, semiring, batches)
    ref = Session(TC, db, PY).evaluate_batch(target, semiring, batches)
    assert len(vec) == len(ref) == 40
    for got, expected in zip(vec, ref):
        assert same_value(got, expected)


def test_evaluate_batch_nan_falls_back():
    db, facts, target = _batch_fixture()
    batches = _assignments(facts, TROPICAL, 6, lambda k, i: float((k + i) % 5))
    batches[3][facts[0]] = float("nan")
    vec = Session(TC, db, VEC).evaluate_batch(target, TROPICAL, batches)
    ref = Session(TC, db, PY).evaluate_batch(target, TROPICAL, batches)
    for got, expected in zip(vec, ref):
        assert same_value(got, expected)


def test_evaluate_batch_unknown_backend_rejected():
    db, facts, target = _batch_fixture()
    compiled = Session(TC, db).compiled(target)
    with pytest.raises(ValueError, match="unknown backend"):
        compiled.evaluate_batch(TROPICAL, [], backend="simd")


def test_evaluate_batch_empty_and_missing_fact():
    db, facts, target = _batch_fixture()
    compiled = Session(TC, db, VEC).compiled(target)
    assert compiled.evaluate_batch(TROPICAL, [], backend="auto") == []
    partial = {facts[0]: 1.0}
    with pytest.raises(KeyError):
        compiled.evaluate_batch(TROPICAL, [partial], backend=VEC.backend)


# -- store serialization -------------------------------------------------


def test_columnar_store_pickle_round_trip():
    """A store survives a pickle round trip: symbol ids, rows and
    interning behaviour come back intact."""
    db = random_digraph(6, 14, seed=19)
    store = db.columnar_store()
    clone = pickle.loads(pickle.dumps(store))
    assert len(clone.symbols) == len(store.symbols)
    for symbol in range(len(store.symbols)):
        assert clone.symbols.decode(symbol) == store.symbols.decode(symbol)
    for predicate in store.predicates():
        relation, other = store.relation(predicate), clone.relation(predicate)
        assert other.columns == relation.columns
        assert len(other) == len(relation)
    # Interning a fresh constant stays deterministic and local.
    a = store.symbols.intern("fresh-constant")
    b = clone.symbols.intern("fresh-constant")
    assert a == b
