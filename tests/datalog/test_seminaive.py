"""Semi-naive / naive equivalence and the FixpointEngine API.

The default ``columnar`` strategy is semi-naive and Jacobi-ordered
(round ``t`` reads round ``t − 1`` values), so it must reproduce the
naive oracle *exactly*: same value map, same iteration count, same
``converged`` flag, same divergence behaviour on non-stable semirings
-- while performing strictly fewer rule evaluations whenever
convergence is non-uniform.
"""

import pytest

from repro.circuits import crosscheck_fixpoint
from repro.config import DEFAULT_FIXPOINT_STRATEGY
from repro.constructions import generic_circuit
from repro.datalog import (
    Database,
    DivergenceError,
    Fact,
    FixpointEngine,
    columnar_grounding,
    dyck1,
    relevant_grounding,
    transitive_closure,
)
from repro.semirings import ARCTIC, BOOLEAN, COUNTING, SORP, TROPICAL, CappedCountingSemiring
from repro.workloads import cycle_graph, dyck_concatenated_path, random_digraph, random_weights
from tests.oracle import ORACLE, without_round_count

TC = transitive_closure()

#: The two fixpoint algorithms, by name: the naive oracle, and the
#: semi-naive rounds the default ``columnar`` strategy runs.
ALGORITHMS = {"naive": "naive", "seminaive": "columnar"}


def figure1_graph() -> Database:
    return Database.from_edges(
        [
            ("s", "u1"),
            ("s", "u2"),
            ("u1", "v1"),
            ("u1", "v2"),
            ("u2", "v2"),
            ("v1", "t"),
            ("v2", "t"),
        ]
    )


GRAPHS = {
    "figure1": figure1_graph,
    "cycle": lambda: cycle_graph(6),
    "random": lambda: random_digraph(10, 25, seed=5),
}


def weights_for(semiring, database):
    """A non-trivial EDB valuation per semiring (None = all-one)."""
    if semiring is TROPICAL:
        return random_weights(database, seed=11)
    if semiring is SORP:
        return {fact: SORP.var(fact) for fact in database.facts()}
    return None


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize(
    "semiring",
    [BOOLEAN, TROPICAL, CappedCountingSemiring(32), SORP],
    ids=lambda s: s.name,
)
def test_seminaive_matches_naive_fixpoint(semiring, graph_name):
    database = GRAPHS[graph_name]()
    weights = weights_for(semiring, database)
    # The default cap suits absorptive semirings; capped counting is
    # q-stable and needs ~q rounds to saturate on cycles.
    max_iterations = 400 if isinstance(semiring, CappedCountingSemiring) else None
    naive = FixpointEngine(config=ORACLE).evaluate(
        TC, database, semiring, weights=weights, max_iterations=max_iterations
    )
    semi = FixpointEngine().evaluate(
        TC, database, semiring, weights=weights, max_iterations=max_iterations
    )
    assert naive.converged and semi.converged
    assert naive.iterations == semi.iterations
    assert set(naive.values) == set(semi.values)
    for fact, value in naive.values.items():
        assert semiring.eq(value, semi.values[fact]), fact
    assert naive.strategy == "naive" and semi.strategy == "columnar"


def test_seminaive_is_the_default_strategy():
    # The semi-naive rounds run on the id-space grounding: "columnar".
    assert DEFAULT_FIXPOINT_STRATEGY == "columnar"
    database = figure1_graph()
    result = FixpointEngine().evaluate(TC, database, BOOLEAN)
    assert result.strategy == "columnar"
    explicit = FixpointEngine(config={"strategy": "columnar"}).evaluate(TC, database, BOOLEAN)
    assert explicit.values == result.values


def test_seminaive_dyck1_matches_naive():
    program = dyck1()
    database = Database.from_labeled_edges(dyck_concatenated_path(3))
    naive = FixpointEngine(config=ORACLE).evaluate(program, database, BOOLEAN)
    semi = FixpointEngine().evaluate(program, database, BOOLEAN)
    assert naive.values == semi.values
    assert naive.iterations == semi.iterations


def test_seminaive_does_strictly_less_work_on_deep_graphs():
    database = random_digraph(24, 72, seed=24)
    # No round count: the semi-naive kernel runs instead of the read-off.
    ground = without_round_count(relevant_grounding(TC, database))
    naive = FixpointEngine(config=ORACLE).evaluate(TC, database, BOOLEAN, ground=ground)
    semi = FixpointEngine().evaluate(TC, database, BOOLEAN, ground=ground)
    assert naive.iterations >= 3  # non-trivial depth, else the ratio is vacuous
    assert 0 < semi.rule_evaluations
    assert semi.rule_evaluations * 2 <= naive.rule_evaluations


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_divergence_reported_identically(algorithm):
    database = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    result = FixpointEngine(config={"strategy": ALGORITHMS[algorithm]}).evaluate(
        TC, database, COUNTING, max_iterations=25
    )
    assert not result.converged
    assert result.iterations == 25


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_divergence_raises_identically(algorithm):
    database = Database.from_edges([(0, 1), (1, 0)])
    with pytest.raises(DivergenceError):
        FixpointEngine(config={"strategy": ALGORITHMS[algorithm]}).evaluate(
            TC,
            database,
            COUNTING,
            max_iterations=10,
            raise_on_divergence=True,
        )


def test_diverging_value_maps_agree_round_for_round():
    database = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    for rounds in (1, 2, 7, 20):
        naive = FixpointEngine(config=ORACLE).evaluate(
            TC, database, COUNTING, max_iterations=rounds
        )
        semi = FixpointEngine().evaluate(
            TC, database, COUNTING, max_iterations=rounds
        )
        assert naive.values == semi.values, rounds


def test_divergent_arctic_cycle_agrees_with_oracle():
    # A positive-weight 3-cycle diverges under ARCTIC (max, +): both
    # evaluators stop at the same cap with the same values.
    database = Database.from_edges([(1, 2), (2, 3), (3, 1)])
    weights = {fact: 1.0 for fact in database.facts()}
    naive = FixpointEngine(config=ORACLE).evaluate(
        TC, database, ARCTIC, weights=weights, max_iterations=50
    )
    semi = FixpointEngine().evaluate(TC, database, ARCTIC, weights=weights, max_iterations=50)
    assert naive.values == semi.values
    assert naive.iterations == semi.iterations == 50
    assert not naive.converged and not semi.converged


def test_capped_counting_converges_on_cycle():
    semiring = CappedCountingSemiring(8)
    database = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    naive = FixpointEngine(config=ORACLE).evaluate(TC, database, semiring, max_iterations=100)
    semi = FixpointEngine().evaluate(TC, database, semiring, max_iterations=100)
    assert naive.converged and semi.converged
    assert naive.values == semi.values
    # Cyclic derivations saturate at the cap.
    assert semi.values[Fact("T", (0, 0))] == 8


def test_fixpoint_engine_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        FixpointEngine(config={"strategy": "gauss-seidel"})
    with pytest.raises(ValueError, match="expected one of"):
        FixpointEngine(config={"strategy": "seminaive"})


def test_fixpoint_engine_none_resolves_to_default():
    assert FixpointEngine(None).strategy == DEFAULT_FIXPOINT_STRATEGY
    assert FixpointEngine(config={"strategy": None}).strategy == DEFAULT_FIXPOINT_STRATEGY


def test_grounding_body_index_is_consistent():
    ground = columnar_grounding(TC, GRAPHS["random"]())
    by_body, by_head = ground.by_body(), ground.by_head()

    for position in range(len(ground)):
        for fid in ground.idb_rows[position]:
            assert position in by_body[fid]
        assert position in by_head[ground.rule_head[position]]
    for fid in range(ground.fact_count):
        for position in by_body[fid]:
            assert fid in ground.idb_rows[position]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_circuit_crosschecks_against_engine(algorithm):
    database = figure1_graph()
    weights = random_weights(database, seed=3)
    facts = [Fact("T", ("s", "t")), Fact("T", ("s", "v2"))]
    circuit = generic_circuit(TC, database, facts)
    mismatches = crosscheck_fixpoint(
        circuit, facts, TC, database, TROPICAL, weights=weights, strategy=ALGORITHMS[algorithm]
    )
    assert mismatches == {}
